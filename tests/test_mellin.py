"""Tests for Mellin transforms, regularized integrals and limits."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning
from scipy.special import gamma as sc_gamma

from conespec import cli, mellin
from conespec.expansions import (
    Location,
    add_functions,
    cutoff_times_monomial,
    exponential_decay,
    fuchs_derivative,
    gaussian_decay,
    global_monomial,
    monomial_restricted,
    rescale_argument,
    scale_function,
    substitute_power,
    tail_times_monomial,
    times_monomial,
)
from conespec.mellin import (
    POLE_TOL,
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
        assert regularized_limit(f, Location.AT_ZERO) == pytest.approx(-1.0)
        assert regularized_limit(
            tail_times_monomial(0.0, 0), Location.AT_INFINITY
        ) == pytest.approx(1.0)


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
        assert limits == [(0.5, 1.0)]  # u = c/x over x in [1, 2], one complex rule

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
    "cli exp": (lambda: cli._phi("exp"), lambda b: math.gamma(b + 1)),
    "cli gauss": (lambda: cli._phi("gauss"), lambda b: math.gamma((b + 1) / 2) / 2),
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

    @pytest.mark.parametrize("beta", [-0.5, -1.5, -3.5])
    def test_fuchs_derivative_of_a_rescaled_leaf(self, beta):
        # -x (e^-2x)' = 2x e^-2x, so reg-int x^beta of it is 2 Gamma(beta+2) /
        # 2^(beta+2); the rescaling carries the closed-form derivative by the
        # chain rule
        f = fuchs_derivative(rescale_argument(exponential_decay(), 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            got = regularized_integral(times_monomial(f, beta))
        assert got == pytest.approx(2 * math.gamma(beta + 2) / 2 ** (beta + 2), rel=1e-12)

    @pytest.mark.parametrize("beta", [-0.5, -1.5, -3.5])
    def test_fuchs_derivative_of_a_monomial_factor(self, beta):
        # g = x^beta e^-2x: M(-x g')(1) = 1 * Mg(1) = Gamma(beta+1) / 2^(beta+1);
        # times_monomial carries the derivative by the product rule
        g = times_monomial(rescale_argument(exponential_decay(), 2.0), beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            got = regularized_integral(fuchs_derivative(g))
        assert got == pytest.approx(math.gamma(beta + 1) / 2 ** (beta + 1), rel=1e-12)


# the ten strip points of acceptance test 03
_STRIP_POINTS = (0.6, 0.9, 1.3, 1.7, 2.1, 0.8 + 0.5j, 1.2 - 0.7j, 1.5 + 1.0j, 0.7 + 1.5j,
                 2.0 + 0.3j)


class TestFuchsPowers:
    @pytest.mark.parametrize("name", ["exp", "gauss", "exp+gauss"])
    def test_mellin_of_fuchs_power_is_z_power(self, name):
        # M(theta^N f)(z) = z^N Mf(z), theta = -x d/dx: the identity that
        # gives the rapid decay of Mf in vertical strips
        f = {"exp": exponential_decay, "gauss": gaussian_decay,
             "exp+gauss": lambda: add_functions(exponential_decay(), gaussian_decay())}[name]()
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            mf = [mellin_transform(f)(z) for z in _STRIP_POINTS]
            g = f
            for n in range(1, 5):
                g = fuchs_derivative(g)
                mg = mellin_transform(g)
                for z, v in zip(_STRIP_POINTS, mf):
                    assert mg(z) == pytest.approx(z**n * v, rel=1e-12)

    def test_root_substitution(self):
        # e^-sqrt(x): Mf(z) = 2 Gamma(2z) and M(-x f')(z) = 2z Gamma(2z); the
        # Taylor terms past the order |sigma| p join the remainder
        f = substitute_power(exponential_decay(), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            mf, md = mellin_transform(f), mellin_transform(fuchs_derivative(f))
            for z in (0.7, 1.5 + 1j, 2.2, 0.4 - 2j):
                want = 2 * complex(mpmath.gamma(2 * z))
                assert mf(z) == pytest.approx(want, rel=1e-12)
                assert md(z) == pytest.approx(z * want, rel=1e-12)


def _capped(fn):
    """fn, refusing to run past 500 rounds (QUAD_LIMIT allows at most 392),
    so that a quadrature that never stops fails instead of hanging."""
    rounds = []

    def counted(x):
        rounds.append(x.size)
        if len(rounds) > 500:
            raise AssertionError("quadrature did not stop")
        return fn(x)
    return counted


# five integrands: smooth, on a vertical line, oscillating, tiny, and with a
# singular derivative at 0
_W, _Z = -1.0 + 3.0j, 0.5 + 30.0j
QUAD_INTEGRANDS = [lambda x: np.exp(_W * x) + 1j * x**2 / (1.0 + x**2),
                   lambda x: np.power(x, _Z - 1) * np.exp(-x),
                   lambda x: np.cos(40.0 * x) * np.exp(-x),
                   lambda x: 1e-9 * np.sin(x),
                   lambda x: np.sqrt(x)]


class TestQuad:
    @staticmethod
    def _check(fn, want, a, b):
        value, abserr = mellin.quad(fn, a, b)
        # the rule met its tolerance, and its error estimate bounds the error
        assert abserr <= max(mellin.QUAD_ABS_TOL, mellin.QUAD_REL_TOL * abs(value))
        assert abs(value - want) <= abserr

    @staticmethod
    def _mp_quad(fn, a, b, pieces=1):
        with mpmath.workdps(30):
            return complex(mpmath.quad(fn, mpmath.linspace(a, b, pieces + 1)))

    def test_smooth_integrand(self):
        w = -1.0 + 3.0j
        want = self._mp_quad(lambda x: mpmath.exp(w * x) + 1j * x**2 / (1 + x**2), 0.0, 5.0)
        self._check(lambda x: np.exp(w * x) + 1j * x**2 / (1.0 + x**2), want, 0.0, 5.0)

    def test_vertical_line(self):
        # x^(z-1) e^-x at Im z = 30 turns 16 times over [0.2, 6]
        z = 0.5 + 30.0j
        want = self._mp_quad(lambda x: x ** (z - 1) * mpmath.exp(-x), 0.2, 6.0, pieces=60)
        self._check(lambda x: np.power(x, z - 1) * np.exp(-x), want, 0.2, 6.0)

    def test_endpoint_singularity(self):
        # integral_0^1 x^-0.9 dx = 10 (which mpmath's tanh-sinh misses by
        # 1e-2), bisected towards 0 within the cap
        self._check(lambda x: x**-0.9, 10.0, 0.0, 1.0)

    def test_one_call_per_round(self):
        sizes = []

        def fn(x):
            sizes.append(x.size)
            return np.sqrt(x)

        mellin.quad(fn, 0.0, 1.0)
        assert sizes[0] == 8 * 21 and all(n % 42 == 0 for n in sizes[1:])
        assert len(sizes) > 1

    def test_kronrod_and_gauss_degrees(self):
        # K21 is exact through degree 31 and G10 through degree 19
        nodes = mellin._NODES
        wk, wg = mellin._WKG.T
        for d in range(32):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(wk @ nodes**d - exact) <= 1e-15
            if d < 20:
                assert abs(wg @ nodes**d - exact) <= 1e-15

    def test_cap_raises(self, monkeypatch):
        # a jump at 0.3 is never a bisection point: with a tolerance no rule
        # meets, the 400 subintervals run out
        monkeypatch.setattr(mellin, "QUAD_ABS_TOL", 1e-300)
        monkeypatch.setattr(mellin, "QUAD_REL_TOL", 0.0)
        calls = []

        def jump(x):
            calls.append(x.size // 21)
            return np.where(x < 0.3, 1.0, 0.0)

        with pytest.raises(MellinError, match="400 subintervals"):
            mellin.quad(jump, 0.0, 1.0)
        # every subinterval evaluated: the 8 first ones and two per bisection
        assert (sum(calls) + 8) // 2 == mellin.QUAD_LIMIT

    def test_block_columns_match_single_calls(self):
        # five integrands in one evaluation: each column meets its own
        # tolerance, at least as refined as when it is integrated alone
        fns = QUAD_INTEGRANDS
        values, errors = mellin.quad(lambda x: np.stack([f(x) for f in fns], axis=1), 0.2, 6.0)
        assert values.shape == errors.shape == (len(fns),)
        for f, value, error in zip(fns, values, errors):
            alone, _ = mellin.quad(f, 0.2, 6.0)
            assert abs(value - alone) <= 1e-13 * abs(alone)
            assert error <= max(mellin.QUAD_ABS_TOL, mellin.QUAD_REL_TOL * abs(value))

    def test_start_pieces(self):
        # arrays a, b start from the pieces [a_i, b_i] and integrate over
        # their union, one evaluation of all their nodes first
        sizes = []

        def fn(x):
            sizes.append(x.size)
            return np.exp(-x)

        value, _ = mellin.quad(fn, np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.5, 4.0]))
        assert sizes[0] == 3 * 21
        assert value == pytest.approx(1.0 - math.exp(-4.0), rel=1e-14)

    def test_single_integrand_is_a_one_column_block(self):
        # one path: n values are the (n, 1) block, round for round and bit
        # for bit, unwrapped to a complex and a float at the return
        for f in QUAD_INTEGRANDS:
            sizes, block_sizes = [], []
            value, error = mellin.quad(lambda x: sizes.append(x.size) or f(x), 0.2, 6.0)
            values, errors = mellin.quad(
                lambda x: block_sizes.append(x.size) or f(x)[:, None], 0.2, 6.0)
            assert type(value) is complex and type(error) is float
            assert values.shape == errors.shape == (1,)
            assert repr((value, error)) == repr((complex(values[0]), float(errors[0])))
            assert sizes == block_sizes

    def test_non_finite_integrand_raises(self):
        # the inf's product with a weight in the round's complex matmul
        # makes a NaN (inf * 0), which warns
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(MellinError, match="non-finite"):
                mellin.quad(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)

    @pytest.mark.parametrize("block", [False, True])
    def test_overflowing_integral_raises(self, block):
        # f = 1e308 is finite, but K = sum w f is not, and K - G is NaN:
        # a NaN error estimate neither meets the tolerance nor selects a
        # subinterval to bisect, so the round must raise
        fn = ((lambda x: np.stack([x, 1e308 + 0 * x], axis=1)) if block
              else (lambda x: 1e308 + 0 * x))
        with pytest.raises(MellinError, match="non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            mellin.quad(_capped(fn), 0.0, 1.0)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0),
                                      (np.array([0.0, 1.0]), np.array([1.0, math.inf]))])
    def test_non_finite_bound_raises(self, a, b):
        with pytest.raises(MellinError, match="bound is not finite"):
            mellin.quad(_capped(np.exp), a, b)

    @pytest.mark.parametrize("fn", [lambda x: x**-0.9, np.sqrt])
    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (np.array([0.0, 1.0]), np.array([1.0, 0.5]))])
    def test_reversed_bounds_raise(self, fn, a, b):
        # a negative width makes every error estimate negative, so the first
        # round would meet any tolerance with a wrong value (-6.27 for
        # x^-0.9 over [1, 0], where -10 is due)
        with pytest.raises(MellinError, match="b < a"):
            mellin.quad(_capped(fn), a, b)

    def test_scalar_bounds_of_any_number_type(self):
        # Python floats take the math checks; ints and numpy scalars the same
        # scalar path, bit for bit
        want = mellin.quad(_capped(np.exp), 0.0, 1.0)
        for a, b in ((0, 1), (np.float64(0.0), np.int64(1)), (np.float32(0.0), 1.0)):
            assert repr(mellin.quad(_capped(np.exp), a, b)) == repr(want)
        with pytest.raises(MellinError, match="b < a"):
            mellin.quad(_capped(np.exp), np.int64(1), 0)

    def test_empty_interval_is_zero(self):
        for fn in (lambda x: x**-0.9, np.sqrt):
            value, abserr = mellin.quad(fn, 0.5, 0.5)
            assert value == 0.0 and abserr == 0.0


class TestNonFiniteCuts:
    """A cut or a scale that is not finite raises.  Unchecked, a cut at inf
    or NaN starts the remainder quadrature from NaN nodes, which the
    remainder's support mask reads as 0, so that it never meets its
    tolerance; other cases return 0 or NaN."""

    F = add_functions(exponential_decay(), cutoff_times_monomial(-1.0, 1))

    @pytest.fixture(autouse=True)
    def _capped_quad(self, monkeypatch):
        quad = mellin.quad
        monkeypatch.setattr(mellin, "quad", lambda fn, a, b: quad(_capped(fn), a, b))

    @pytest.mark.parametrize("cut", [math.inf, math.nan, 0.0, -1.0])
    def test_regularized_integral(self, cut):
        with pytest.raises(MellinError, match="cut must be positive and finite"):
            regularized_integral(self.F, cut)
        with pytest.raises(MellinError, match="cut must be positive and finite"):
            mellin_transform(self.F, cut)

    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_partials(self, c, side):
        with pytest.raises(MellinError, match="cut must be positive and finite"):
            regularized_integral_partial(self.F, c, side)

    @pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0])
    def test_scale_rule(self, lam):
        with pytest.raises(MellinError, match="lam must be positive and finite"):
            scale_rule(self.F, lam)
