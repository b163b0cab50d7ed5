"""Tests for Mellin transforms, regularized integrals and limits."""

import math
import warnings

import mpmath
import pytest
from scipy.integrate import IntegrationWarning
from scipy.special import gamma as sc_gamma

from conespec import cli, mellin
from conespec.expansions import (
    add_functions,
    cutoff_times_monomial,
    exponential_decay,
    fuchs_derivative,
    gaussian_decay,
    global_monomial,
    monomial_restricted,
    rescale_argument,
    scale_function,
    tail_times_monomial,
    times_monomial,
)
from conespec.mellin import (
    POLE_TOL,
    At,
    MellinError,
    MellinPoleError,
    PoleData,
    Side,
    mellin_transform,
    monomial_block,
    monomial_block_regular_coefficient,
    monomial_integral_regularized,
    regularized_integral,
    regularized_integral_partial,
    regularized_limit,
    scale_rule,
    vertical_strip_decay,
)

EULER_GAMMA = 0.5772156649015329


class TestMonomialBlocks:
    def test_block_matches_derivative_definition(self):
        c, w = 2.5, 1.3
        h = 1e-4

        def a0(ww):
            return c**ww / ww

        # first derivative in w by a fourth-order central difference
        fd1 = (a0(w - 2 * h) - 8 * a0(w - h) + 8 * a0(w + h) - a0(w + 2 * h)) / (12 * h)
        assert monomial_block(w, 1, c) == pytest.approx(fd1, rel=1e-9)
        fd2 = (
            -a0(w - 2 * h) + 16 * a0(w - h) - 30 * a0(w) + 16 * a0(w + h) - a0(w + 2 * h)
        ) / (12 * h * h)
        assert monomial_block(w, 2, c) == pytest.approx(fd2, rel=1e-7)

    def test_block_is_the_convergent_integral(self):
        from scipy.integrate import quad

        c, w, k = 1.7, 0.8, 1
        val, _ = quad(lambda x: x ** (w - 1) * math.log(x) ** k, 0, c)
        assert monomial_block(w, k, c) == pytest.approx(val, rel=1e-9)

    def test_block_rejects_w_zero(self):
        with pytest.raises(ZeroDivisionError):
            monomial_block(0.0, 0, 1.0)

    def test_laurent_structure_at_zero(self):
        # A_c(w,k) = (-1)^k k! / w^{k+1} + sum_j coef(j,k,c) w^j
        c, k = 3.0, 2
        for w in (1e-2, 1e-2j, 1e-2 + 1e-2j):
            regular = monomial_block(w, k, c) - (-1.0) ** k * math.factorial(k) / w ** (
                k + 1
            )
            series = sum(
                monomial_block_regular_coefficient(j, k, c) * w**j for j in range(8)
            )
            assert regular == pytest.approx(series, rel=1e-8)

    def test_regular_coefficient_closed_form(self):
        c, j, k = 2.0, 3, 1
        expected = math.log(c) ** (j + k + 1) / ((j + k + 1) * math.factorial(j))
        assert monomial_block_regular_coefficient(j, k, c) == pytest.approx(expected)


class TestMonomialIntegrals:
    @pytest.mark.parametrize(
        "alpha,k,expected",
        [
            (0.0, 0, 1.0),
            (0.0, 1, -1.0),
            (0.5, 0, 1.0 / 1.5),
            (-2.0, 0, -1.0),
            (-2.0, 1, -1.0),
            (-0.5, 2, 2.0 / 0.5**3),
            (-1.0, 0, 0.0),
            (-1.0, 3, 0.0),
        ],
    )
    def test_closed_forms(self, alpha, k, expected):
        assert monomial_integral_regularized(alpha, k) == pytest.approx(
            expected, abs=1e-12
        )

    def test_restricted_monomials_split_zero(self):
        # the global regularized integral of any monomial vanishes
        for alpha, k in [(-1.0, 0), (-1.0, 2), (0.5, 1), (-2.5, 0)]:
            near = regularized_integral(monomial_restricted(alpha, k, "unit_interval"))
            far = regularized_integral(monomial_restricted(alpha, k, "unit_tail"))
            assert near + far == pytest.approx(0.0, abs=1e-10)
            assert regularized_integral(global_monomial(alpha, k)) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_unit_interval_matches_closed_form(self):
        for alpha, k in [(-0.5, 0), (0.0, 1), (-1.0, 1)]:
            val = regularized_integral(monomial_restricted(alpha, k, "unit_interval"))
            assert val == pytest.approx(
                monomial_integral_regularized(alpha, k), abs=1e-10
            )


class TestRegularizedIntegral:
    def test_convergent_case_is_lebesgue(self):
        assert regularized_integral(exponential_decay()) == pytest.approx(1.0, rel=1e-10)

    def test_gamma_values(self):
        f = times_monomial(exponential_decay(), -0.5)
        assert regularized_integral(f) == pytest.approx(math.sqrt(math.pi), rel=1e-9)
        # continued below the convergence line: finite part of Gamma at 0 and -1/2
        g = times_monomial(exponential_decay(), -1.0)
        assert regularized_integral(g) == pytest.approx(-EULER_GAMMA, rel=1e-8)
        h = times_monomial(exponential_decay(), -1.5)
        assert regularized_integral(h) == pytest.approx(sc_gamma(-0.5), rel=1e-8)

    def test_cut_independence(self):
        f = times_monomial(exponential_decay(), -1.0)
        assert regularized_integral(f, cut=0.5) == pytest.approx(
            regularized_integral(f, cut=2.0), rel=1e-9
        )


class TestMellinTransform:
    def test_exponential_gives_gamma(self):
        M = mellin_transform(exponential_decay())
        for z in (2.0, 0.5, 1.5 + 0.7j, 3.25):
            assert M(z) == pytest.approx(complex(sc_gamma(z)), rel=1e-9)

    def test_pole_ledger(self):
        M = mellin_transform(exponential_decay())
        p0 = M.pole_at(0.0)
        assert p0 is not None and p0.order == 1
        assert p0.principal_part[0] == pytest.approx(1.0)
        p1 = M.pole_at(-1.0)
        assert p1.principal_part[0] == pytest.approx(-1.0)
        p3 = M.pole_at(-3.0)
        assert p3.principal_part[0] == pytest.approx(-1.0 / 6.0)
        assert M.pole_at(0.5) is None

    def test_laurent_coefficients(self):
        M = mellin_transform(exponential_decay())
        assert M.laurent(0.0, -1) == pytest.approx(1.0)
        assert M.laurent(0.0, 0) == pytest.approx(-EULER_GAMMA, rel=1e-8)

    def test_log_power_doubles_pole_order(self):
        M = mellin_transform(cutoff_times_monomial(-1.0, 1))
        p = M.pole_at(1.0)
        assert p is not None and p.order == 2

    def test_outside_strip_raises(self):
        M = mellin_transform(exponential_decay())
        with pytest.raises(MellinError):
            M(-20.0)

    def test_near_pole_raises(self):
        M = mellin_transform(exponential_decay())
        with pytest.raises(MellinPoleError):
            M(1e-12)

    def test_pole_guard_is_pole_tol(self):
        # the guard, pole_at and the ledger share POLE_TOL = 1e-8
        assert POLE_TOL == 1e-8
        M = mellin_transform(exponential_decay())
        for z in (-1.0 + 0.9e-8, -1.0 - 0.9e-8j):
            assert M.pole_at(z) is not None
            with pytest.raises(MellinPoleError):
                M(z)
        assert M.pole_at(-1.0 + 1.1e-8) is None
        assert abs(M(-1.0 + 1.1e-8)) > 1e7

    def test_cancelled_pole_evaluates(self):
        # the poles of global monomials cancel; the value there is the sum of
        # the regular parts of the two terms, not a division by w = 0
        assert mellin_transform(global_monomial(0.5))(-0.5) == 0
        g = add_functions(cutoff_times_monomial(-0.3), tail_times_monomial(-0.3))
        M = mellin_transform(g)
        assert M.pole_at(0.3) is None
        assert M(0.3) == pytest.approx(math.log(2.0), rel=1e-9)
        mean = (M(0.3 + 1e-3) + M(0.3 - 1e-3)) / 2
        assert M(0.3) == pytest.approx(mean, rel=1e-7)

    def test_global_monomial_poles_cancel(self):
        M = mellin_transform(global_monomial(-1.0, 0))
        assert M.pole_at(1.0) is None
        assert M.laurent(1.0, 0) == pytest.approx(0.0, abs=1e-10)

    def test_pole_data_validation(self):
        with pytest.raises(ValueError):
            PoleData(0.0, (1.0, 0.0))

    def test_fuchs_functional_equation(self):
        f = exponential_decay()
        Mf = mellin_transform(f)
        Mdf = mellin_transform(fuchs_derivative(f))
        for z in (0.7, 1.5, 2.0 + 1.0j):
            assert Mdf(z) == pytest.approx(z * Mf(z), rel=1e-8)


class TestPartialsAndLimits:
    def test_partials_sum_to_global(self):
        f = exponential_decay()
        g = add_functions(
            add_functions(f, cutoff_times_monomial(-1.0, 0)),
            add_functions(tail_times_monomial(-1.0, 1), cutoff_times_monomial(-1.0, 2)),
        )
        for c in (1.0, 0.7, 1.6):
            near = regularized_integral_partial(f, c, Side.ZERO_TO_C)
            far = regularized_integral_partial(f, c, Side.C_TO_INF)
            assert near == pytest.approx(1.0 - math.exp(-c), rel=1e-9)
            assert far == pytest.approx(math.exp(-c), rel=1e-9)
            assert near + far == pytest.approx(regularized_integral(f), rel=1e-9)
            # x^-1 log^k terms: the cut-c partials add up to the cut-c integral,
            # which does not depend on c
            near = regularized_integral_partial(g, c, Side.ZERO_TO_C)
            far = regularized_integral_partial(g, c, Side.C_TO_INF)
            assert near + far == pytest.approx(regularized_integral(g, c), rel=1e-13)
            assert near + far == pytest.approx(regularized_integral(g), rel=1e-9)

    def test_exponent_next_to_minus_one(self):
        # x^(-1 + 1e-10) sits within POLE_TOL of the pole: the partials, the
        # integral and the scale rule all take the regular part of its block
        f = cutoff_times_monomial(-1.0 + 1e-10)
        for c in (1.0, 0.7, 1.6):
            near = regularized_integral_partial(f, c, Side.ZERO_TO_C)
            far = regularized_integral_partial(f, c, Side.C_TO_INF)
            assert near + far == pytest.approx(regularized_integral(f, c), rel=1e-13)
        for lam in (0.5, 2.0):
            direct = regularized_integral(rescale_argument(f, lam))
            assert scale_rule(f, lam) == pytest.approx(direct, rel=1e-8, abs=1e-8)

    def test_partial_of_pure_monomial(self):
        f = global_monomial(-1.0, 0)
        c = 2.5
        assert regularized_integral_partial(f, c, Side.ZERO_TO_C) == pytest.approx(
            math.log(c), rel=1e-9
        )
        assert regularized_integral_partial(f, c, Side.C_TO_INF) == pytest.approx(
            -math.log(c), rel=1e-9
        )

    def test_partial_log_antiderivative(self):
        # x^{-1} log x integrates to log^2(c)/2 on the regularized [0,c] side
        f = global_monomial(-1.0, 1)
        c = 3.0
        assert regularized_integral_partial(f, c, Side.ZERO_TO_C) == pytest.approx(
            math.log(c) ** 2 / 2.0, rel=1e-9
        )

    def test_regularized_limit(self):
        f = times_monomial(exponential_decay(), -1.0)
        # e^{-x}/x = 1/x - 1 + x/2 - ...: the constant coefficient is -1
        assert regularized_limit(f, At.ZERO) == pytest.approx(-1.0)
        assert regularized_limit(tail_times_monomial(0.0, 0), At.INFINITY) == pytest.approx(
            1.0
        )


class TestScaleRule:
    def test_matches_direct_rescale(self):
        f = add_functions(
            add_functions(cutoff_times_monomial(-1.0, 0), tail_times_monomial(-1.0, 1)),
            exponential_decay(),
        )
        for lam in (0.3, 2.0, 7.5):
            direct = regularized_integral(rescale_argument(f, lam))
            assert scale_rule(f, lam) == pytest.approx(direct, rel=1e-8, abs=1e-10)

    def test_reduces_to_homogeneity_without_log_terms(self):
        f = exponential_decay()
        lam = 4.0
        assert scale_rule(f, lam) == pytest.approx(
            regularized_integral(f) / lam, rel=1e-10
        )


def _no_quad(*args, **kwargs):
    raise AssertionError("quadrature called on a remainder that vanishes")


def monomial_composite():
    """Scaled sums of global monomials through times_monomial and rescale_argument."""
    f = add_functions(
        scale_function(global_monomial(-1.0, 1), 1.6),
        scale_function(global_monomial(-2.4, 0), -0.7),
    )
    f = times_monomial(add_functions(f, scale_function(global_monomial(0.3, 2), 2.1)), 0.6, 1)
    return rescale_argument(f, 1.7)


class TestCarriedRemainders:
    def test_global_monomials_need_no_quadrature(self, monkeypatch):
        f = monomial_composite()
        assert f.remainder_zero.vanishes and f.remainder_infinity.vanishes
        monkeypatch.setattr(mellin, "quad", _no_quad)
        # every regularized integral of a global monomial is 0
        assert regularized_integral(f, 0.8) == pytest.approx(0.0, abs=1e-13)
        zero_side = regularized_integral_partial(f, 0.8, Side.ZERO_TO_C)
        inf_side = regularized_integral_partial(f, 0.8, Side.C_TO_INF)
        assert zero_side + inf_side == pytest.approx(0.0, abs=1e-13)
        assert scale_rule(f, 2.3) == pytest.approx(
            regularized_integral(rescale_argument(f, 2.3)), abs=1e-12
        )

    def test_quadrature_only_over_the_support(self, monkeypatch):
        # the remainder of phi(x) x^-3 at 0 lives on [1, 2]: with cut 1 the
        # zero side needs no quadrature, and the infinity side only [1, 2]
        f = cutoff_times_monomial(-3.0, 0)
        limits = []
        mellin_quad = mellin.quad

        def recording_quad(fn, a, b, **kwargs):
            limits.append((a, b))
            return mellin_quad(fn, a, b, **kwargs)

        monkeypatch.setattr(mellin, "quad", recording_quad)
        regularized_integral_partial(f, 1.0, Side.ZERO_TO_C)
        assert limits == []
        regularized_integral_partial(f, 1.0, Side.C_TO_INF)
        assert limits == [(0.5, 1.0)] * 2  # u = c/x over x in [1, 2]

    @pytest.mark.parametrize("lam", [0.6, 1.9])
    def test_scaled_cutoff_monomial_matches_mpmath(self, lam):
        # f = 1.6 phi(x) x^-3 log^2 x, phi the smooth cutoff (1 on [0,1], 0 on [2,inf))
        def phi(x):
            if x <= 1:
                return mpmath.mpf(1)
            if x >= 2:
                return mpmath.mpf(0)
            g1, g2 = mpmath.exp(-1 / (x - 1)), mpmath.exp(-1 / (2 - x))
            return g2 / (g1 + g2)

        def reg_int_of_dilate(mu):
            # reg-int of g(x) = f(mu x): its x^-3 log^j x terms at 0 are exact
            # (log(mu x) = log mu + log x), their blocks over [0, 1] are
            # (-1)^j j!/(-2)^(j+1), and g minus them lives on [1/mu, inf)
            lm = mpmath.log(mu)
            coefs = [1.6 * mu**-3 * c for c in (lm**2, 2 * lm, 1)]
            blocks = sum(c * (-1) ** j * mpmath.factorial(j) / mpmath.mpf(-2) ** (j + 1)
                         for j, c in enumerate(coefs))
            g = lambda x: 1.6 * phi(mu * x) * (mu * x) ** -3 * mpmath.log(mu * x) ** 2
            rest = lambda x: g(x) - sum(c * x**-3 * mpmath.log(x) ** j
                                        for j, c in enumerate(coefs))
            lo, hi = 1 / mu, 2 / mu
            zero_side = mpmath.quad(rest, [lo] + [hi] * (hi < 1) + [1]) if lo < 1 else 0
            inf_side = mpmath.quad(g, [1, hi]) if hi > 1 else 0
            return complex(blocks + zero_side + inf_side)

        f = scale_function(cutoff_times_monomial(-3.0, 2), 1.6)
        with mpmath.workdps(30):
            want, want_scaled = reg_int_of_dilate(1), reg_int_of_dilate(mpmath.mpf(lam))
        assert regularized_integral(f) == pytest.approx(want, rel=1e-10)
        assert scale_rule(f, lam) == pytest.approx(want_scaled, rel=1e-10)


# (phi, reg-int x^beta phi(x) dx as a function of beta)
_TAYLOR_LEAVES = {
    "exponential_decay": (exponential_decay, lambda b: math.gamma(b + 1)),
    # -x (e^-x)' = x e^-x: its remainder is carried through differentiate
    "fuchs_derivative": (lambda: fuchs_derivative(exponential_decay()),
                         lambda b: math.gamma(b + 2)),
    "gaussian_decay": (gaussian_decay, lambda b: math.gamma((b + 1) / 2) / 2),
    "cli exp": (lambda: cli._phi_test_function("exp").as_expandable(),
                lambda b: math.gamma(b + 1)),
    "cli gauss": (lambda: cli._phi_test_function("gauss").as_expandable(),
                  lambda b: math.gamma((b + 1) / 2) / 2),
}


class TestTaylorRemainders:
    @pytest.mark.parametrize("beta", [-1.5, -2.703, -3.5, -5.2])
    @pytest.mark.parametrize("leaf", sorted(_TAYLOR_LEAVES))
    def test_regularized_integral_is_gamma(self, leaf, beta):
        # reg-int x^beta e^-x dx = Gamma(beta+1), reg-int x^beta e^-x^2 dx =
        # Gamma((beta+1)/2)/2; for Re beta < -1 the Taylor remainder near 0
        # must not leave rounding noise for x^beta to amplify, which would be
        # non-integrable at 0
        make, want = _TAYLOR_LEAVES[leaf]
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            got = regularized_integral(times_monomial(make(), beta))
        assert got == pytest.approx(want(beta), rel=1e-12)


class TestStripDecay:
    def test_exponential_strip_decay(self):
        rep = vertical_strip_decay(exponential_decay(), (0.5, 3.0), 2, im_max=60)
        assert not rep.pole_in_strip
        assert math.isfinite(rep.observed_constant)
        # Gamma decays faster than any power on vertical lines
        assert rep.decay_slope < -1.5

    def test_pole_in_strip_flagged(self):
        rep = vertical_strip_decay(exponential_decay(), (-0.5, 0.5), 1, im_max=30)
        assert rep.pole_in_strip
