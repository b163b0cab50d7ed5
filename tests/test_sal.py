"""Tests for the singular-asymptotics expansion engines."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning
from scipy.special import exp1

from conespec import cli, mellin, sal
from conespec.expansions import (
    AsymptoticExpansion,
    ExpandableFunction,
    Location,
    LogPowerTerm,
    Remainder,
    add_functions,
    cutoff_times_monomial,
    exponential_decay,
    gaussian_decay,
    global_monomial,
    monomial_restricted,
    rescale_argument,
    scale_function,
    smooth_cutoff,
    smooth_step_up,
    tail_times_monomial,
    times_monomial,
)
from conespec.sal import (
    ExpansionReport,
    ReportTerm,
    SalError,
    SeparableSigma,
    expand_phi_tx,
    expand_phi_x_over_t,
    sal_separable,
)
from conespec.mellin import MellinError, regularized_integral, regularized_moments

EULER_GAMMA = 0.5772156649015329


class TestTestFunction:
    def test_taylor_coefficient(self):
        phi = exponential_decay()
        assert sal._taylor_coefficient(phi, 3) == pytest.approx(-1.0 / 6.0)
        with pytest.raises(SalError, match="order 12"):
            sal._taylor_coefficient(phi, 12)

    def test_jet_consistency(self):
        # the CLI's leaves hold the Taylor coefficients of their functions
        # through x^12 (mpmath's numerical derivatives leave ~1e-36 where
        # they vanish)
        for phi, mp_phi in ((cli._phi("exp"), lambda x: mpmath.exp(-x)),
                            (cli._phi("gauss"), lambda x: mpmath.exp(-x * x))):
            with mpmath.workdps(30):
                want = mpmath.taylor(mp_phi, 0, 12)
            for j in range(13):
                assert sal._taylor_coefficient(phi, j) == pytest.approx(
                    float(want[j]), rel=1e-15, abs=1e-20)

    def test_thin_constructor_matches_leaf(self):
        # sal.TestFunction builds from a scalar callable and its jet the
        # Taylor leaf the engines take; it agrees with the stock leaf
        phi = sal.TestFunction(lambda x: math.exp(-x), tuple((-1.0) ** j for j in range(13)))
        assert phi(0.7) == pytest.approx(math.exp(-0.7))
        assert phi.p == 13 and phi.derivative is None
        F = add_functions(exponential_decay(), global_monomial(-2.703268218679219, 1))
        got = expand_phi_x_over_t(phi, F, q=4.0)
        want = expand_phi_x_over_t(exponential_decay(13), F, q=4.0)
        assert got.remainder_order == want.remainder_order
        assert len(got.terms) == len(want.terms) == 6
        for r in want.terms:
            assert abs(got.coefficient(r.exponent, r.log_power) - r.coefficient) <= (
                1e-13 * abs(r.coefficient))


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
        # the CLI writes the terms sorted by exponent, then log power
        rep = ExpansionReport("t", (ReportTerm(1.0, 0, 1.0, "taylor"),
                                    ReportTerm(0.5j, 1, 2.0 - 1.0j, "boundary"),
                                    ReportTerm(0.5j, 0, 3.0, "log-correction")), 2.0)
        d = cli._report_json(rep)
        assert (d["variable"], d["remainder_order"], d["remainder_log_power"]) == ("t", 2.0, 0)
        assert d["terms"] == [
            {"re_exp": 0.0, "im_exp": 0.5, "log_pow": 0, "re_coef": 3.0, "im_coef": 0.0,
             "provenance": "log-correction"},
            {"re_exp": 0.0, "im_exp": 0.5, "log_pow": 1, "re_coef": 2.0, "im_coef": -1.0,
             "provenance": "boundary"},
            {"re_exp": 1.0, "im_exp": 0.0, "log_pow": 0, "re_coef": 1.0, "im_coef": 0.0,
             "provenance": "taylor"},
        ]


class TestMoments:
    # the families of moments the engines take: phi's boundary moments with
    # complex and integer exponents and log powers, and the Taylor moments
    # x^j F of a function with a cut log term and a tail
    FAMILIES = [
        (exponential_decay(),
         [(-1.3879733, 0), (-1.3879733, 1), (-2.0, 0), (-2.0, 1), (-2.0, 2), (0.4 - 1.5j, 2),
          (-0.5, 0), (3.0, 1)]),
        (gaussian_decay(), [(-3.0, 0), (-3.0, 1), (-0.7 + 2.0j, 1), (5.5, 0)]),
        (add_functions(scale_function(cutoff_times_monomial(-1.3, 1), 1.6),
                       scale_function(monomial_restricted(-2.5, 0, "unit_tail"), -0.8)),
         [(float(j), 0) for j in range(5)]),
    ]

    @pytest.mark.parametrize("f, monomials", FAMILIES)
    def test_batched_moments_match_one_at_a_time(self, f, monomials):
        batched = regularized_moments(f, monomials)
        for (beta, k), moment in zip(monomials, batched):
            alone = regularized_integral(times_monomial(f, beta, k))
            assert abs(moment - alone) <= 1e-12 * max(1.0, abs(alone))

    @staticmethod
    def count_quad(monkeypatch) -> list:
        """The (a, b) of every mellin.quad call from here on."""
        calls = []
        quad = mellin.quad

        def counting_quad(fn, a, b):
            calls.append((a, b))
            return quad(fn, a, b)

        monkeypatch.setattr(mellin, "quad", counting_quad)
        return calls

    def test_one_quadrature_over_the_unit_interval(self, monkeypatch):
        # both sides of the cut in one block, over t in (0, 1]
        calls = self.count_quad(monkeypatch)
        f, monomials = self.FAMILIES[0]
        regularized_moments(f, monomials)
        assert len(calls) == 1
        (a, b), = calls
        assert (np.min(a), np.max(b)) == (0.0, 1.0)

    @pytest.mark.parametrize("first, second", [(0, 1), (0, 2), (1, 2)])
    def test_a_block_of_two_functions_matches_each_alone(self, first, second):
        (f, fm), (g, gm) = self.FAMILIES[first], self.FAMILIES[second]
        both = mellin._moments([(f, fm), (g, gm)])
        for block, (h, monomials) in zip(both, ((f, fm), (g, gm))):
            alone = regularized_moments(h, monomials)
            assert np.all(np.abs(block - alone) <= 1e-12 * np.maximum(1.0, np.abs(alone)))

    def test_sal_separable_takes_one_quadrature_for_all_phi(self, monkeypatch):
        exp = sal.TestFunction(lambda x: math.exp(-x), tuple((-1.0) ** j for j in range(13)))
        gauss = sal.TestFunction(lambda x: math.exp(-x * x), tuple(
            0.0 if j % 2 else (-1.0) ** (j // 2) * math.factorial(j) / math.factorial(j // 2)
            for j in range(13)))
        sigma = SeparableSigma(boundary_terms=((exp, -0.35, 1), (gauss, -1.36, 0)))
        calls = self.count_quad(monkeypatch)
        sal_separable(sigma, p=2)
        assert len(calls) == 1

    def test_orders_are_checked_per_moment(self):
        f = exponential_decay()
        with pytest.raises(MellinError):
            regularized_integral(times_monomial(f, -13.0, 0))
        with pytest.raises(MellinError):
            regularized_moments(f, [(0.0, 0), (-13.0, 0)])
        assert regularized_moments(f, []).shape == (0,)


class TestExpandPhiTx:
    def test_pure_taylor_geometric(self):
        # reg-int e^{-t x} e^{-x} dx = 1/(1+t): coefficients (-1)^j
        rep = expand_phi_tx(exponential_decay(), exponential_decay(), q=6.0)
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
            rep = expand_phi_tx(exponential_decay(), F, q=5.0)
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
        rep = expand_phi_tx(exponential_decay(), F, q=3.0)
        kinds = {r.provenance for r in rep.terms}
        assert kinds == {"taylor", "boundary", "log-correction"}

    def test_no_log_correction_for_nonintegar_exponent(self):
        F = monomial_restricted(-1.5, 0, support="unit_tail")
        rep = expand_phi_tx(exponential_decay(), F, q=3.0)
        assert all(r.provenance != "log-correction" for r in rep.terms)
        # the boundary exponent surfaces at t^{1/2}
        assert abs(rep.coefficient(0.5, 0)) > 0


    def test_short_jet_for_log_correction_raises(self):
        # beta = -2 needs phi'(0); a jet holding only phi(0) cannot supply it
        # (at q = 1 the Taylor family needs phi(0) alone)
        F = monomial_restricted(-2.0, 0, support="unit_tail")
        with pytest.raises(SalError, match="order 1"):
            expand_phi_tx(exponential_decay(1), F, q=1.0)

    def test_short_jet_for_taylor_family_raises(self):
        # through t^5 the Taylor family needs phi^(j)(0) for j <= 5
        assert len(expand_phi_tx(exponential_decay(6), exponential_decay(), q=6.0).terms) == 6
        with pytest.raises(SalError, match="order 3"):
            expand_phi_tx(exponential_decay(3), exponential_decay(), q=6.0)

    def test_order_beyond_remainder_raises(self):
        # x^-1 on (0, inf), declared with remainder order 4 at infinity
        F = global_monomial(-1.0)
        F = dataclasses.replace(F, expansion_at_infinity=dataclasses.replace(
            F.expansion_at_infinity, remainder_order=4.0))
        assert expand_phi_tx(exponential_decay(), F, q=4.0).remainder_order == 4.0
        for q in (4.5, 40.0):
            with pytest.raises(SalError):
                expand_phi_tx(exponential_decay(), F, q=q)

    def test_negative_order_raises(self):
        with pytest.raises(SalError, match="negative"):
            expand_phi_tx(exponential_decay(), exponential_decay(), q=-1.0)

    @pytest.mark.parametrize("phi, message", [
        (global_monomial(-0.5), "at infinity"),
        (cutoff_times_monomial(0.0, 1), "terms at 0"),
        (cutoff_times_monomial(-0.5, 0), "terms at 0"),
    ], ids=["x^-1/2", "cutoff log x", "cutoff x^-1/2"])
    def test_phi_that_is_not_a_taylor_leaf_raises(self, phi, message):
        # phi must be a Taylor series at 0 and decay rapidly at infinity
        F = monomial_restricted(-1.5, 0, support="unit_tail")
        with pytest.raises(SalError, match=message):
            expand_phi_tx(phi, F, q=2.0)
        with pytest.raises(SalError, match=message):
            expand_phi_x_over_t(phi, F, q=2.0)
        with pytest.raises(SalError, match=message):
            sal_separable(SeparableSigma(boundary_terms=((phi, -0.5, 0),)), p=1)

    def test_cutoff_phi_matches_mpmath(self):
        # phi = smooth_cutoff is 1 on (0, 1], so its Taylor series is 1 with
        # p = 9.  For F = psi(x) x^-2.5 log x + e^-x (psi = smooth_step_up)
        # the expansion of integral phi(t x) F(x) dx is exact up to e^(-1/t):
        # phi(t x) - 1 vanishes below x = 1/t, where psi = 1 already.
        phi = cutoff_times_monomial(0.0, 0)
        assert phi.p == 9.0
        F = add_functions(tail_times_monomial(-2.5, 1), exponential_decay())
        rep = expand_phi_tx(phi, F, q=4.0)
        assert {(r.exponent, r.log_power) for r in rep.terms} == {(0, 0), (1.5, 1), (1.5, 0)}

        def mp_cut(y):
            if y <= 1 or y >= 2:
                return mpmath.mpf(y <= 1)
            u = y - 1
            return 1 / (1 + mpmath.exp(1 / (1 - u) - 1 / u))

        def mp_f(x):
            if x <= 0.5:
                step = 0
            elif x >= 1:
                step = 1
            else:
                u = 2 * x - 1
                step = 1 / (1 + mpmath.exp(1 / u - 1 / (1 - u)))
            return step * x**-2.5 * mpmath.log(x) + mpmath.exp(-x)

        for y in (1.2, 1.5, 1.9):
            assert float(mp_cut(y)) == pytest.approx(smooth_cutoff(y), rel=1e-14)
            x = y / 2
            assert float(mp_f(x) - mpmath.exp(-x)) == pytest.approx(
                smooth_step_up(x) * x**-2.5 * math.log(x), rel=1e-14)
        for t in (0.01, 0.02):
            with mpmath.workdps(30):
                want = mpmath.quad(lambda x: mp_cut(t * x) * mp_f(x),
                                   [0, 0.5, 1, 1 / t, 2 / t])
            assert rep.evaluate(t) == pytest.approx(complex(want), rel=1e-14)

    def test_log_correction_within_pole_tol(self):
        # an exponent within POLE_TOL of -1 is treated as -1 by the moments
        # (regular part of the block) and so also gets the log-correction
        near = monomial_restricted(-1.0 + 5e-9, 0, support="unit_tail")
        rep = expand_phi_tx(exponential_decay(), near, q=2.0)
        assert "log-correction" in {r.provenance for r in rep.terms}
        far = monomial_restricted(-1.0 + 1e-6, 0, support="unit_tail")
        rep = expand_phi_tx(exponential_decay(), far, q=2.0)
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
        rep = expand_phi_tx(exponential_decay(), F, q=4.0)
        assert {r.provenance for r in rep.terms} == {"boundary"}


class TestExpandPhiXOverT:
    def test_zero_side_log_correction(self):
        # reg-int e^{-x} F(x/t) dx for F = x^{-1} on [0,1]:
        # t log t + t * integral_0^t (e^{-x}-1)/x dx
        F = monomial_restricted(-1.0, 0, support="unit_interval")
        rep = expand_phi_x_over_t(exponential_decay(), F, q=4.0)
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
            rep = expand_phi_x_over_t(exponential_decay(13), F, q=4.0)
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
            expand_phi_x_over_t(exponential_decay(1), F, q=3.0)


class TestSeparable:
    @staticmethod
    def frullani_sigma() -> SeparableSigma:
        # sigma(x, zeta) = e^{-x} (1 - e^{-zeta})/zeta; the x-integral of
        # sigma(x, x z) is log(1+z)/z exactly.
        # its Taylor remainder is below z^10/11! < 3e-18 on (0, 0.1); the
        # one at infinity is -e^{-z}/z
        f = lambda z: (1.0 - np.exp(-z)) / z
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
            Remainder(lambda z: -np.exp(-z) / z),
        )
        return SeparableSigma(
            boundary_terms=((exponential_decay(), -1.0, 0),),
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
        sigma = SeparableSigma(boundary_terms=((exponential_decay(), -2.5, 0),))
        with pytest.raises(SalError):
            sal_separable(sigma, p=1)

    def test_rejects_duplicate_family(self):
        with pytest.raises(SalError):
            SeparableSigma(
                boundary_terms=((exponential_decay(), -1.0, 0), (exponential_decay(), -1.0, 0))
            )

    def test_declared_bound_violation_raises(self):
        sigma = SeparableSigma(
            boundary_terms=((exponential_decay(), -0.5, 0),),
            remainder=lambda x, z: 1.0 / z,
            remainder_bound=1e-12,
        )
        with pytest.raises(SalError):
            sal_separable(sigma, p=1)
