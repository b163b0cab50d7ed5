"""Tests for the singular-asymptotics expansion engines."""

import math
import warnings

import mpmath
import pytest
from scipy.integrate import IntegrationWarning
from scipy.special import exp1

from conespec import mellin, sal
from conespec.expansions import (
    AsymptoticExpansion,
    ExpandableFunction,
    Location,
    LogPowerTerm,
    Remainder,
    add_functions,
    exponential_decay,
    global_monomial,
    monomial_restricted,
    rescale_argument,
    scale_function,
    times_monomial,
)
from conespec.sal import (
    ExpansionReport,
    ReportTerm,
    SalError,
    SeparableSigma,
    TestFunction,
    expand_phi_tx,
    expand_phi_x_over_t,
    sal_separable,
)

TestFunction.__test__ = False  # not a test class, despite the name

EULER_GAMMA = 0.5772156649015329


def exp_phi(n_jets: int = 12) -> TestFunction:
    return TestFunction(
        evaluator=lambda x: math.exp(-x),
        derivatives_at_zero=tuple((-1.0) ** j for j in range(n_jets)),
    )


class TestTestFunction:
    def test_taylor_coefficient(self):
        phi = exp_phi()
        assert phi.taylor_coefficient(3) == pytest.approx(-1.0 / 6.0)
        with pytest.raises(SalError):
            phi.taylor_coefficient(99)

    def test_jet_consistency(self):
        assert exp_phi().jet_consistency_error() < 1e-5
        bad = TestFunction(lambda x: math.exp(-x), (1.0, 5.0, 1.0))
        assert bad.jet_consistency_error() > 1.0

    def test_as_expandable(self):
        f = exp_phi().as_expandable()
        assert f(0.7) == pytest.approx(math.exp(-0.7))
        assert f.expansion_at_zero.coefficient(2.0, 0) == pytest.approx(0.5)


class TestReport:
    def test_coefficient_and_evaluate(self):
        rep = ExpansionReport(
            "t",
            (
                ReportTerm(0.0, 1, 2.0, "log-correction"),
                ReportTerm(1.0, 0, -1.0, "taylor"),
            ),
            2.0,
        )
        assert rep.coefficient(0.0, 1) == pytest.approx(2.0)
        assert rep.coefficient(0.0, 0) == 0.0
        t = 0.3
        assert rep.evaluate(t) == pytest.approx(2.0 * math.log(t) - t)

    def test_json_sorted(self):
        rep = ExpansionReport("t", (ReportTerm(1.0, 0, 1.0, "taylor"),), 2.0)
        d = rep.to_json_dict()
        assert d["variable"] == "t"
        assert d["terms"][0]["provenance"] == "taylor"


class TestExpandPhiTx:
    def test_pure_taylor_geometric(self):
        # reg-int e^{-t x} e^{-x} dx = 1/(1+t): coefficients (-1)^j
        rep = expand_phi_tx(exp_phi(), exponential_decay(), q=6.0)
        for j in range(6):
            assert rep.coefficient(float(j), 0) == pytest.approx(
                (-1.0) ** j, rel=1e-9, abs=1e-9
            )
        t = 0.05
        assert abs(rep.evaluate(t) - 1.0 / (1.0 + t)) < 2 * t**6

    def test_exponential_integral_families(self):
        # reg-int e^{-t x} x^{-1} [1,inf) dx = E_1(t) = -gamma - log t - sum (-t)^j/(j j!)
        F = monomial_restricted(-1.0, 0, support="unit_tail")
        with warnings.catch_warnings():
            # the x^4 moment of the tail remainder converges slowly; the
            # coefficients below are checked at 1e-8 regardless
            warnings.simplefilter("ignore", IntegrationWarning)
            rep = expand_phi_tx(exp_phi(), F, q=5.0)
        assert rep.coefficient(0.0, 1) == pytest.approx(-1.0)
        assert rep.coefficient(0.0, 0) == pytest.approx(-EULER_GAMMA, rel=1e-8)
        for j in range(1, 5):
            assert rep.coefficient(float(j), 0) == pytest.approx(
                -((-1.0) ** j) / (j * math.factorial(j)), rel=1e-8
            )
        for t in (0.3, 0.05):
            assert rep.evaluate(t) == pytest.approx(exp1(t), abs=2 * t**5)

    def test_provenance_labels(self):
        F = monomial_restricted(-1.0, 0, support="unit_tail")
        rep = expand_phi_tx(exp_phi(), F, q=3.0)
        kinds = {r.provenance for r in rep.terms}
        assert kinds == {"taylor", "boundary", "log-correction"}

    def test_no_log_correction_for_nonintegar_exponent(self):
        F = monomial_restricted(-1.5, 0, support="unit_tail")
        rep = expand_phi_tx(exp_phi(), F, q=3.0)
        assert all(r.provenance != "log-correction" for r in rep.terms)
        # the boundary exponent surfaces at t^{1/2}
        assert abs(rep.coefficient(0.5, 0)) > 0


    def test_short_jet_for_log_correction_raises(self):
        # beta = -2 needs phi'(0); a jet holding only phi(0) cannot supply it
        # (at q = 1 the Taylor family needs phi(0) alone)
        F = monomial_restricted(-2.0, 0, support="unit_tail")
        with pytest.raises(SalError, match="order 1"):
            expand_phi_tx(exp_phi(1), F, q=1.0)

    def test_short_jet_for_taylor_family_raises(self):
        # through t^5 the Taylor family needs phi^(j)(0) for j <= 5
        assert len(expand_phi_tx(exp_phi(6), exponential_decay(), q=6.0).terms) == 6
        with pytest.raises(SalError, match="order 3"):
            expand_phi_tx(exp_phi(3), exponential_decay(), q=6.0)

    def test_order_beyond_remainder_raises(self):
        # x^-1 on (0, inf), declared with remainder order 4 at infinity
        F = global_monomial(-1.0, 0, order_margin=4.0)
        assert expand_phi_tx(exp_phi(), F, q=4.0).remainder_order == 4.0
        for q in (4.5, 40.0):
            with pytest.raises(SalError):
                expand_phi_tx(exp_phi(), F, q=q)

    def test_log_correction_within_pole_tol(self):
        # an exponent within POLE_TOL of -1 is treated as -1 by the moments
        # (regular part of the block) and so also gets the log-correction
        near = monomial_restricted(-1.0 + 5e-9, 0, support="unit_tail")
        rep = expand_phi_tx(exp_phi(), near, q=2.0)
        assert "log-correction" in {r.provenance for r in rep.terms}
        far = monomial_restricted(-1.0 + 1e-6, 0, support="unit_tail")
        rep = expand_phi_tx(exp_phi(), far, q=2.0)
        assert "log-correction" not in {r.provenance for r in rep.terms}


    def test_moments_of_global_monomials_need_no_quadrature(self, monkeypatch):
        # F is exactly its expansion, so each Taylor moment is an exact 0;
        # only phi's remainder, in the boundary family, reaches quadrature
        F = rescale_argument(times_monomial(add_functions(
            scale_function(global_monomial(-1.5, 1), 1.6),
            scale_function(global_monomial(-2.4, 0), -0.7)), 0.3), 1.7)
        in_boundary = []
        boundary, quad = sal._boundary_family, mellin.quad

        def traced_boundary(*args, **kwargs):
            in_boundary.append(True)
            try:
                return boundary(*args, **kwargs)
            finally:
                in_boundary.pop()

        def guarded_quad(*args, **kwargs):
            assert in_boundary, "quadrature outside the boundary family"
            return quad(*args, **kwargs)

        monkeypatch.setattr(sal, "_boundary_family", traced_boundary)
        monkeypatch.setattr(mellin, "quad", guarded_quad)
        rep = expand_phi_tx(exp_phi(), F, q=4.0)
        assert {r.provenance for r in rep.terms} == {"boundary"}


class TestExpandPhiXOverT:
    def test_zero_side_log_correction(self):
        # reg-int e^{-x} F(x/t) dx for F = x^{-1} on [0,1]:
        # t log t + t * integral_0^t (e^{-x}-1)/x dx
        F = monomial_restricted(-1.0, 0, support="unit_interval")
        rep = expand_phi_x_over_t(exp_phi(), F, q=4.0)
        assert rep.coefficient(1.0, 1) == pytest.approx(1.0)
        assert rep.coefficient(1.0, 0) == pytest.approx(0.0, abs=1e-10)
        for j in range(1, 4):
            assert rep.coefficient(float(j + 1), 0) == pytest.approx(
                (-1.0) ** j / (j * math.factorial(j)), rel=1e-8
            )
        t = 0.05
        direct = t * math.log(t) + t * sum(
            (-t) ** j / (j * math.factorial(j)) for j in range(1, 30)
        )
        assert rep.evaluate(t) == pytest.approx(direct, abs=2 * t**5)


    def test_exponential_with_log_monomial_matches_mpmath(self):
        # reg-int e^{-x} F(x/t) dx for F = e^{-x} + x^beta log x (a global
        # monomial): Taylor terms (-1)^j t^(j+1), and at t^-beta the boundary
        # terms -Gamma(beta+1) log t + Gamma'(beta+1)
        beta = -2.703268218679219
        F = add_functions(exponential_decay(), global_monomial(beta, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            rep = expand_phi_x_over_t(exp_phi(13), F, q=4.0)
        with mpmath.workdps(30):
            gamma_b = complex(mpmath.gamma(beta + 1))
            dgamma_b = complex(mpmath.gamma(beta + 1) * mpmath.digamma(beta + 1))
        assert rep.coefficient(-beta, 1) == pytest.approx(-gamma_b, rel=1e-12)
        assert rep.coefficient(-beta, 0) == pytest.approx(dgamma_b, rel=1e-12)
        for j in range(4):
            assert rep.coefficient(float(j + 1), 0) == pytest.approx((-1.0) ** j, rel=1e-12)
        assert len(rep.terms) == 6

    def test_short_jet_for_zero_side_log_correction_raises(self):
        F = monomial_restricted(-2.0, 0, support="unit_interval")
        with pytest.raises(SalError):
            expand_phi_x_over_t(exp_phi(1), F, q=3.0)


class TestSeparable:
    @staticmethod
    def frullani_sigma() -> SeparableSigma:
        # sigma(x, zeta) = e^{-x} (1 - e^{-zeta})/zeta; the x-integral of
        # sigma(x, x z) is log(1+z)/z exactly.
        # its Taylor remainder is below z^10/11! < 3e-18 on (0, 0.1); the
        # one at infinity is -e^{-z}/z
        f = lambda z: (1.0 - math.exp(-z)) / z
        e0 = AsymptoticExpansion(
            Location.AT_ZERO,
            tuple(
                LogPowerTerm((-1.0) ** j / math.factorial(j + 1), float(j), 0)
                for j in range(10)
            ),
            10.0,
        )
        jet0 = ExpandableFunction(
            f,
            e0,
            AsymptoticExpansion(
                Location.AT_INFINITY, (LogPowerTerm(1.0, -1.0, 0),), 20.0
            ),
            Remainder(lambda z: f(z) - e0.evaluate(z), 0.1),
            Remainder(lambda z: -math.exp(-z) / z),
        )
        return SeparableSigma(
            boundary_terms=((exp_phi(), -1.0, 0),),
            remainder=lambda x, z: -math.exp(-x) * math.exp(-z) / z,
            remainder_bound=1.0,
            x_jets=(jet0,),
        )

    def test_frullani_expansion(self):
        rep = sal_separable(self.frullani_sigma(), p=1)
        # log(1+z)/z = z^{-1} log z + 0*z^{-1} + O(z^{-2})
        assert rep.coefficient(-1.0, 1) == pytest.approx(1.0)
        assert rep.coefficient(-1.0, 0) == pytest.approx(0.0, abs=1e-8)
        z = 200.0
        assert rep.evaluate(z) == pytest.approx(
            math.log(1.0 + z) / z, abs=5 * math.log(z) / z**2
        )

    def test_taylor_and_boundary_cancel_separately(self):
        rep = sal_separable(self.frullani_sigma(), p=1)
        by_kind = {r.provenance: r.coefficient for r in rep.terms if r.exponent == -1.0 and r.log_power == 0}
        assert by_kind["taylor"] == pytest.approx(EULER_GAMMA, rel=1e-8)
        assert by_kind["boundary"] == pytest.approx(-EULER_GAMMA, rel=1e-8)

    def test_rejects_bad_order(self):
        with pytest.raises(SalError):
            sal_separable(self.frullani_sigma(), p=-1)
        with pytest.raises(SalError):
            sal_separable(self.frullani_sigma(), p=99)

    def test_rejects_exponent_outside_range(self):
        sigma = SeparableSigma(boundary_terms=((exp_phi(), -2.5, 0),))
        with pytest.raises(SalError):
            sal_separable(sigma, p=1)

    def test_rejects_duplicate_family(self):
        with pytest.raises(SalError):
            SeparableSigma(
                boundary_terms=((exp_phi(), -1.0, 0), (exp_phi(), -1.0, 0))
            )

    def test_declared_bound_violation_raises(self):
        sigma = SeparableSigma(
            boundary_terms=((exp_phi(), -0.5, 0),),
            remainder=lambda x, z: 1.0 / z,
            remainder_bound=1e-12,
        )
        with pytest.raises(SalError):
            sal_separable(sigma, p=1)
