"""Tests for the special-function layer."""

import dataclasses
import math
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from dirichlet_checks import continuation_consistency, shifted_integer

from conespec import mellin, specfun
from conespec.specfun import (
    EULER_GAMMA,
    HankelConvergenceError,
    HurwitzZetaProvider,
    PowerShiftSquaredProvider,
    RiemannZetaProvider,
    SpecfunError,
    _hurwitz_shifted,
    _poly_eval,
    b_pos_fraction,
    bernoulli_fraction,
    bessel_i_scaled,
    bessel_j_zero,
    digamma,
    evaluate_ratio,
    gamma,
    gamma_quotients,
    gamma_ratio_expansion,
    hankel_transform,
    hurwitz_zeta,
    l_fn,
    laguerre,
    log_gamma,
    rgamma,
    riemann_zeta,
)


class TestGammaFamily:
    def test_gamma_values(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)
        assert gamma(1.5 + 0.5j) == pytest.approx(
            complex(mpmath.gamma(1.5 + 0.5j)), rel=1e-12
        )

    def test_rgamma_at_poles(self):
        assert rgamma(0.0) == 0.0
        assert rgamma(-3.0) == 0.0
        assert rgamma(2.0) == pytest.approx(1.0, rel=1e-13)

    def test_digamma(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)
        assert digamma(-0.5) == pytest.approx(
            2.0 - EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-12
        )

    # NaN and infinities in either part; -inf made round() raise OverflowError
    # in the pole test, and NaN came back as a NaN value
    NON_FINITE = [math.nan, math.inf, -math.inf, complex(0.5, math.inf),
                  complex(math.nan, 1.0), complex(-math.inf, 0.0)]

    def test_gamma_rejects_a_non_finite_argument(self):
        for z in self.NON_FINITE:
            with pytest.raises(SpecfunError, match="finite"):
                gamma(z)

    def test_log_gamma_rejects_a_non_finite_argument(self):
        for z in self.NON_FINITE:
            with pytest.raises(SpecfunError, match="finite"):
                log_gamma(z)

    def test_digamma_rejects_a_non_finite_argument(self):
        for z in self.NON_FINITE:
            with pytest.raises(SpecfunError, match="finite"):
                digamma(z)

    def test_rgamma_rejects_a_non_finite_argument(self):
        for z in self.NON_FINITE:
            with pytest.raises(SpecfunError, match="finite"):
                rgamma(z)


class TestBessel:
    @pytest.mark.parametrize("p", [0.5, 2.5])
    def test_bessel_i_scaled(self, p):
        for x in (0.5, 10.0, 100.0, 700.0, 5000.0):
            assert bessel_i_scaled(p, x) == pytest.approx(
                float(mpmath.besseli(p, x) * mpmath.exp(-x)), rel=1e-10
            )

    def test_bessel_i_route_overlap(self):
        # series and asymptotic branches agree across the switch point
        p = 1.5
        for x in np.linspace(10.0, 40.0, 13):
            assert bessel_i_scaled(p, float(x)) == pytest.approx(
                float(mpmath.besseli(p, x) * mpmath.exp(-x)), rel=1e-10
            )

    # orders and arguments the heat-trace fits reach: sqrt(eigenvalue) up to 50
    # and z = 1/(2t) up to 5000, through the band x ~ 600..p^2/2 where a
    # truncated power series loses every digit
    SWEEP_P = sorted({*np.linspace(0.0, 50.0, 21), 0.5, 2.5, 12.3, 29.5, 38.0, 45.0})
    SWEEP_X = sorted({*np.geomspace(1e-3, 5000.0, 25), 600.0, 700.0, 1000.0})

    def test_bessel_i_scaled_mpmath_sweep(self):
        with mpmath.workdps(30):
            for p in self.SWEEP_P:
                for x in self.SWEEP_X:
                    want = float(mpmath.besseli(p, x) * mpmath.exp(-x))
                    assert bessel_i_scaled(float(p), float(x)) == pytest.approx(
                        want, rel=1e-12
                    ), (p, x)

    def test_bessel_i_scaled_broadcasts(self):
        p = np.array(self.SWEEP_P)[:, None]
        x = np.array(self.SWEEP_X)[None, :]
        got = bessel_i_scaled(p, x)
        assert got.shape == (len(self.SWEEP_P), len(self.SWEEP_X))
        want = [[bessel_i_scaled(float(a), float(b)) for b in self.SWEEP_X]
                for a in self.SWEEP_P]
        np.testing.assert_array_equal(got, want)
        assert isinstance(bessel_i_scaled(0.5, 1.0), float)

    def test_bessel_i_at_zero(self):
        assert bessel_i_scaled(0.0, 0.0) == 1.0
        assert bessel_i_scaled(0.5, 0.0) == 0.0

    @pytest.mark.parametrize(
        "p, x",
        [
            (math.nan, 1.0),
            (math.inf, 1.0),
            (0.5, math.nan),
            (0.5, math.inf),
            (-1.0, 1.0),
            (0.5, -1e-300),
            (-0.5, 0.0),  # I_p(0) = +inf for -1 < p < 0
        ],
    )
    def test_bessel_i_domain_edges(self, p, x):
        with pytest.raises(SpecfunError):
            bessel_i_scaled(p, x)
        with pytest.raises(SpecfunError):
            bessel_i_scaled(np.array([0.5, p]), np.array([1.0, x]))

    def test_bessel_j_zeros(self):
        for m in range(1, 6):
            z = bessel_j_zero(0.5, m)
            assert z == pytest.approx(m * math.pi, rel=1e-10)
            assert abs(sps.jv(0.5, z)) < 1e-10
        for m, z in enumerate(sps.jn_zeros(1, 4), start=1):
            assert bessel_j_zero(1.0, m) == pytest.approx(z, rel=1e-10)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0, 4.7, 12.0, 25.5, 26.0, 38.2, 50.3, 60.0])
    def test_bessel_j_zeros_match_mpmath(self, p):
        # McMahon's expansion alone went wrong from p = 26 on: at p = 50.3
        # it gave 63.13, 68.03, 117.56, 68.03, 76.78 for m = 1..5
        m = np.arange(1, 11)
        zeros = bessel_j_zero(p, m)
        want = np.array([float(mpmath.besseljzero(p, int(k))) for k in m])
        assert np.all(np.abs(zeros - want) <= 1e-10 * want)
        assert np.all(np.diff(zeros) > 0)
        # an element of the batch is the zero computed alone
        assert [bessel_j_zero(p, int(k)) for k in m] == zeros.tolist()

    @pytest.mark.parametrize("p", [-0.99999, -0.9999, -0.9995, -0.9, -0.4, 0.7])
    def test_bessel_j_zeros_below_order_one(self, p):
        # mpmath has no negative orders: J_p changes sign at each zero, and
        # at nothing else on a fine grid up to the last one.  From p = -0.9995
        # down, the first zero (0.0063 at p = -0.99999) lies below McMahon's
        # start, and Newton's method from there stepped below 0 to nan
        zeros = bessel_j_zero(p, np.arange(1, 31))
        assert np.abs(sps.jv(p, zeros)).max() <= 1e-13
        grid = np.linspace(1e-3, zeros[-1] + 0.5, 200001)
        changes = np.flatnonzero(np.diff(np.sign(sps.jv(p, grid))))
        assert len(changes) == len(zeros)
        assert np.all((grid[changes] < zeros) & (zeros <= grid[changes + 1]))

    def test_bessel_j_zero_raises_where_newton_is_not_finite(self, monkeypatch):
        monkeypatch.setattr(sps, "jv", lambda p, x: np.full(np.shape(x), math.nan))
        with pytest.raises(SpecfunError, match="not finite"):
            bessel_j_zero(0.5, np.array([1, 2]))

    @pytest.mark.parametrize("m", [0, -2, 1.0, True])
    def test_bessel_j_zero_rejects_bad_indices(self, m):
        with pytest.raises(SpecfunError):
            bessel_j_zero(0.5, m)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_bessel_j_zero_rejects_a_non_finite_order(self, p):
        for m in (1, np.array([1, 2])):
            with pytest.raises(SpecfunError, match="finite"):
                bessel_j_zero(p, m)


class TestLaguerre:
    def test_matches_scipy(self):
        for n in range(6):
            for p in (0.0, 0.5, 2.5):
                for x in (0.0, 0.3, 2.0, 9.0):
                    assert laguerre(n, p, x) == pytest.approx(
                        sps.eval_genlaguerre(n, p, x), rel=1e-10, abs=1e-10
                    )

    def test_l_fn_form(self):
        p, x = 1.5, 0.9
        assert l_fn(0, p, x) == pytest.approx(
            x ** (p + 0.5) * math.exp(-x * x / 2.0), rel=1e-12
        )
        assert l_fn(0, 1.0, 0.0) == 0.0

    def test_arrays_match_scalars(self):
        x = np.array([0.0, 0.3, 1.2, 2.0, 4.5])
        for n in range(5):
            for p in (-0.4, 0.5, 3.0):
                assert laguerre(n, p, x) == pytest.approx(
                    [laguerre(n, p, float(v)) for v in x], rel=1e-14, abs=1e-300)
                assert l_fn(n, p, x) == pytest.approx(
                    [l_fn(n, p, float(v)) for v in x], rel=1e-14, abs=1e-300)
        with pytest.raises(SpecfunError):
            l_fn(1, 0.5, np.array([1.0, -0.1]))

    def test_l_fn_at_zero(self):
        # x^(p+1/2) is 1 at x = 0 for p = -1/2, where l_n is L_n^(-1/2)(0) =
        # C(n - 1/2, n); it is 0 above and infinite below
        for n in range(5):
            want = float(mpmath.laguerre(n, -0.5, 0))
            assert want == pytest.approx(float(mpmath.binomial(n - 0.5, n)), rel=1e-15)
            assert l_fn(n, -0.5, 0.0) == pytest.approx(want, rel=1e-14)
            got = l_fn(n, -0.5, np.array([0.0, 0.7]))
            assert got[0] == pytest.approx(want, rel=1e-14)
            assert got[1] == pytest.approx(l_fn(n, -0.5, 0.7), rel=1e-14)
            for p in (-0.4, 0.0, 2.5):
                assert l_fn(n, p, 0.0) == 0.0
                assert l_fn(n, p, np.zeros(2)).tolist() == [0.0, 0.0]
            for p in (-0.9, -0.6):
                with pytest.raises(SpecfunError, match="infinite"):
                    l_fn(n, p, 0.0)
                with pytest.raises(SpecfunError, match="infinite"):
                    l_fn(n, p, np.array([0.7, 0.0]))
                assert l_fn(n, p, np.array([0.7])) == pytest.approx([l_fn(n, p, 0.7)])

    def test_l_fn_orthogonality(self):
        from scipy.integrate import quad

        p = 0.5
        for n, m in [(0, 1), (1, 2), (0, 2)]:
            val, _ = quad(lambda x: l_fn(n, p, x) * l_fn(m, p, x), 0, 12)
            assert val == pytest.approx(0.0, abs=1e-10)


class TestHankel:
    def test_self_reciprocal_gaussian(self):
        # l_0^{(p)} is fixed by H_p
        for p in (0.0, 1.0):
            f = lambda y: l_fn(0, p, y)
            for x in (0.5, 1.0, 2.0):
                assert hankel_transform(f, p, x) == pytest.approx(
                    l_fn(0, p, x), rel=1e-8, abs=1e-10
                )

    @staticmethod
    def _check_eigenfunctions(p):
        # H_p l_n^(p) = (-1)^n l_n^(p), with the right side in mpmath
        for n in range(5):
            for x in np.linspace(0.2, 4.0, 9):
                got = hankel_transform(lambda y: l_fn(n, p, y), p, float(x))
                with mpmath.workdps(30):
                    X = mpmath.mpf(float(x))
                    want = float((-1) ** n * X ** (p + 0.5) * mpmath.exp(-X * X / 2)
                                 * mpmath.laguerre(n, p, X * X))
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("p", [-0.4, 0.5, 5.0, 12.0, 40.0])
    def test_eigenfunctions_match_mpmath(self, p):
        self._check_eigenfunctions(p)

    @pytest.mark.parametrize("p", [-0.4, 0.5, 5.0, 12.0])
    def test_panels_take_no_newton_step(self, p, monkeypatch):
        # the panel ends are the asymptotic starts of the zeros, not zeros
        def refuse(*args):
            raise AssertionError("a Newton step on the Hankel panels")
        monkeypatch.setattr(specfun, "bessel_j_zero", refuse)
        monkeypatch.setattr(sps, "jvp", refuse)
        self._check_eigenfunctions(p)

    @pytest.mark.parametrize("p", [-0.999, -0.9, -0.4, 0.0, 0.5, 1.0, 5.0, 12.0, 40.0, 1e3])
    def test_panel_table(self, p):
        # each end lies within 0.3 of its zero (0.2 for p >= -0.99, where
        # zeros are at least 3.1 apart), so every panel holds one lobe
        m = np.arange(1, specfun._HANKEL_MAX_PANELS + 1)
        ends = specfun._bessel_j_zero_start(p, m.astype(float))
        assert ends.shape == m.shape
        assert ends[0] > 0 and np.all(np.diff(ends) > 0)
        assert np.abs(ends - bessel_j_zero(p, m)).max() <= 0.3

    def test_first_panel_needs_no_bisection(self, monkeypatch):
        # the first panel starts as _HANKEL_FIRST_PIECES subintervals, on
        # which its integrand, piled up at the right end, meets the
        # tolerance in the first round: one Gauss-Kronrod round in all
        rounds = []
        gauss_kronrod = mellin._gauss_kronrod
        monkeypatch.setattr(mellin, "_gauss_kronrod",
                            lambda *a: rounds.append(1) or gauss_kronrod(*a))
        p, x = 11.36, 1.43
        got = hankel_transform(lambda y: l_fn(0, p, y), p, x)
        assert len(rounds) == 1
        assert abs(got - l_fn(0, p, x)) <= 1e-10 * max(1.0, abs(l_fn(0, p, x)))

    def test_euler_tail(self, monkeypatch):
        # H_0[sqrt(y)/(1+y^2)](x) = sqrt(x) K_0(x) (DLMF 10.22.46 with a = 1):
        # the panels decay like m^(-1/2), so the sum reaches the panel budget
        # and the alternating tail is Euler-accelerated
        batches = []
        counting = specfun.quad
        monkeypatch.setattr(specfun, "quad", lambda *a: batches.append(1) or counting(*a))
        for x in (0.5, 1.0, 2.0):
            batches.clear()
            got = hankel_transform(lambda y: np.sqrt(y) / (1.0 + y * y), 0.0, x)
            assert abs(got - math.sqrt(x) * sps.k0(x)) <= 1e-10
            assert len(batches) == -(-specfun._HANKEL_MAX_PANELS // specfun._HANKEL_BATCH)

    def test_quadrature_failure_is_a_convergence_error(self):
        # 1/|y - 1| is not integrable: the panel around 1 runs out of subintervals
        with pytest.raises(HankelConvergenceError, match="panel quadrature"):
            hankel_transform(lambda y: 1.0 / np.abs(y - 1.0), 0.5, 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(SpecfunError):
            hankel_transform(lambda y: math.exp(-y), 0.5, 0.0)
        with pytest.raises(SpecfunError):
            hankel_transform(lambda y: math.exp(-y), -1.5, 1.0)

    @pytest.mark.parametrize("p, x", [(0.5, math.inf), (0.5, math.nan), (math.inf, 1.0),
                                      (math.nan, 1.0)])
    def test_non_finite_arguments_are_input_errors(self, p, x):
        # a domain error, not the convergence failure of the panels
        with pytest.raises(SpecfunError, match="finite") as got:
            hankel_transform(lambda y: np.exp(-y), p, x)
        assert type(got.value) is SpecfunError


class TestBernoulli:
    def test_exact_values(self):
        assert bernoulli_fraction(0) == 1
        assert bernoulli_fraction(1) == Fraction(-1, 2)
        assert bernoulli_fraction(2) == Fraction(1, 6)
        assert bernoulli_fraction(3) == 0
        assert bernoulli_fraction(4) == Fraction(-1, 30)
        assert bernoulli_fraction(12) == Fraction(-691, 2730)

    def test_signed_positive_form(self):
        assert b_pos_fraction(1) == Fraction(1, 6)
        assert b_pos_fraction(2) == Fraction(1, 30)
        assert b_pos_fraction(3) == Fraction(1, 42)
        assert all(b_pos_fraction(k) > 0 for k in range(1, 12))


class TestGammaRatio:
    def test_structural_anchors(self):
        exp_ = gamma_ratio_expansion(6)
        exp_.validate()
        assert exp_.q(0) == (Fraction(1),)
        assert exp_.q(1) == ()
        assert exp_.q(2) == (Fraction(0), Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3))

    def test_matches_exact_ratio(self):
        exp_ = gamma_ratio_expansion(6)
        for s in (0.3, 1.2, 0.3 + 0.2j):
            for nu in (20.0, 50.0):
                exact = complex(
                    mpmath.gamma(nu - s + 1) / mpmath.gamma(nu + s)
                )
                assert evaluate_ratio(exp_, nu, s) == pytest.approx(exact, rel=1e-10)

    def test_error_decays_at_stated_order(self):
        order = 4
        exp_ = gamma_ratio_expansion(order)
        s = 0.3
        nus = np.array([10.0, 20.0, 40.0, 80.0])
        errs = []
        for nu in nus:
            exact = complex(mpmath.gamma(nu - s + 1) / mpmath.gamma(nu + s))
            errs.append(abs(evaluate_ratio(exp_, float(nu), s) - exact) / abs(exact))
        slope = np.polyfit(np.log(nus), np.log(errs), 1)[0]
        assert slope == pytest.approx(-(order + 1), abs=0.5)

    def test_rejects_large_order(self):
        with pytest.raises(SpecfunError):
            gamma_ratio_expansion(11)
        # order -1 once built an empty fold: the head sum alone, error estimate 0
        with pytest.raises(SpecfunError):
            gamma_ratio_expansion(-1)

    @staticmethod
    def _at(poly, s: Fraction) -> Fraction:
        return sum((c * s**d for d, c in enumerate(poly)), Fraction(0))

    def test_q_at_integer_and_half_integer_s(self):
        # there Gamma(nu-s+1)/Gamma(nu+s) is rational in nu: nu, 1, 1/nu at
        # s = 0, 1/2, 1; nu^3 (1 - nu^-2) at s = -1; nu^-3 / (1 - nu^-2) at
        # s = 2; nu^-5 / ((1 - nu^-2)(1 - 4 nu^-2)) at s = 3
        exp_ = gamma_ratio_expansion(10)
        for k in range(1, 11):
            qk = exp_.q(k)
            for s in (Fraction(0), Fraction(1, 2), Fraction(1)):
                assert self._at(qk, s) == 0, (k, s)
            assert self._at(qk, Fraction(-1)) == (-1 if k == 2 else 0), k
            even = k % 2 == 0
            assert self._at(qk, Fraction(2)) == (1 if even else 0), k
            assert self._at(qk, Fraction(3)) == ((4 ** (k // 2 + 1) - 1) // 3 if even else 0), k

    def test_float_coefficients_evaluate_as_the_fractions(self):
        # the Q_k are rounded once; Horner's rule over them is bit for bit
        # Horner's rule over the Fractions, each rounded as it is used
        def horner(poly, s):
            out = 0.0 + 0.0j
            for c in reversed(poly):
                out = out * s + complex(Fraction(c))
            return out

        for order in range(11):
            exp_ = gamma_ratio_expansion(order)
            for qk, qc in zip(exp_.q_polys, exp_.q_complex):
                for s in (0.3, 1.2 - 0.7j, -4.25 + 17.5j, 33.0):
                    assert _poly_eval(qc, s) == horner(qk, s)

    def test_orders_nest(self):
        # every order is a prefix of the highest one
        top = gamma_ratio_expansion(10)
        for n in range(11):
            exp_ = gamma_ratio_expansion(n)
            assert exp_.q_polys == top.q_polys[: n + 1]

    @pytest.mark.parametrize("k, poly, what", [
        (0, (Fraction(2),), "Q_0"),
        (1, (Fraction(1, 7),), "Q_1"),
        (2, (Fraction(0), Fraction(1, 6), Fraction(-1, 2)), "Q_2"),
        (4, (Fraction(0), Fraction(1, 3)), "Q_4"),
    ])
    def test_validate_raises_on_a_corrupted_q(self, k, poly, what):
        # a SpecfunError, not an assert, so that the check holds under python -O
        exp_ = gamma_ratio_expansion(6)
        q_polys = exp_.q_polys[:k] + (poly,) + exp_.q_polys[k + 1:]
        with pytest.raises(SpecfunError, match=what):
            dataclasses.replace(exp_, q_polys=q_polys).validate()


def _quotient_sample(rng, n):
    """(u, v) pairs with |Re|, |Im| <= 60: a third uniform, a third with u or
    v within 1e-10..1e-1 of a pole -k (u never nearer than 1e-10), and a
    third at 40 <= |Im| <= 60."""
    u = rng.uniform(-60, 60, n) + 1j * rng.uniform(-60, 60, n)
    v = rng.uniform(-60, 60, n) + 1j * rng.uniform(-60, 60, n)
    near = np.arange(n) % 3 == 1
    gap = 10.0 ** rng.uniform(-10, -1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    pole = -rng.integers(0, 60, n) + gap
    on_u = near & (rng.uniform(0, 1, n) < 0.5)
    u[on_u], v[near & ~on_u] = pole[on_u], pole[near & ~on_u]
    high = np.arange(n) % 3 == 2
    for z in (u, v):
        z.imag[high] = rng.choice([-1.0, 1.0], high.sum()) * rng.uniform(40, 60, high.sum())
    return u, v


class TestGammaQuotients:
    """specfun.gamma_quotients: every explicit Gamma quotient of Phi."""

    def test_rounding_bound_holds_against_50_digits(self):
        rng = np.random.default_rng(20241020)
        u, v = _quotient_sample(rng, 3000)
        q, bound = gamma_quotients(u, v, True)
        assert np.all(q != 0) and np.all(bound > 0)
        worst = 0.0
        with mpmath.workdps(50):
            for uj, vj, qj, bj in zip(u.tolist(), v.tolist(), q.tolist(), bound.tolist()):
                want = mpmath.gamma(mpmath.mpc(uj)) * mpmath.rgamma(mpmath.mpc(vj))
                err = float(abs(mpmath.mpc(qj) - want))
                assert err <= np.finfo(float).eps * abs(qj) * bj, (uj, vj, qj, err)
                worst = max(worst, err / (np.finfo(float).eps * abs(qj) * bj))
        # the bound is not vacuous: some quotients use a good part of it
        assert worst > 1e-2

    def test_zero_overflow_and_independence(self):
        # 1/Gamma(v) is 0 on a nonpositive integer, within _INTEGER_TOL too
        u = np.array([1.5 + 0j, 2.5 + 0.1j, 0.3 + 0j, 4.0 + 1j])
        v = np.array([-3.0 + 0j, -3.0 + 1e-13j, 0j, 2.0 - 1j])
        q, bound = gamma_quotients(u, v, True)
        assert q[:3].tolist() == [0j, 0j, 0j] and bound[:3].tolist() == [0.0, 0.0, 0.0]
        assert q[3] == pytest.approx(complex(mpmath.gamma(4 + 1j) / mpmath.gamma(2 - 1j)),
                                     rel=1e-14)
        # |Gamma(401.25) / Gamma(-200.25)| exceeds the largest double
        with pytest.raises(OverflowError):
            gamma_quotients(np.array([1.5 + 0j, 401.25 + 0j]), np.array([2.0 + 0j, -200.25 + 0j]),
                            False)
        # each quotient is the one of its own (u, v), bit for bit, in any batch
        rng = np.random.default_rng(3)
        u, v = _quotient_sample(rng, 60)
        grid, _ = gamma_quotients(u.reshape(6, 10), v.reshape(6, 10), False)
        for j in range(60):
            one, _ = gamma_quotients(u[j:j + 1], v[j:j + 1], False)
            assert grid.flat[j] == one[0]
        # u and v broadcast, zeros included
        v[:3] = [-2.0, 0.0, -7.0 + 1e-13j]
        outer, bounds = gamma_quotients(u[:5, None], v[None, :8], True)
        for i in range(5):
            row, row_bounds = gamma_quotients(np.full(8, u[i]), v[:8], True)
            assert np.array_equal(outer[i], row) and np.array_equal(bounds[i], row_bounds)
        assert not outer[:, :3].any() and not bounds[:, :3].any()


class TestZeta:
    def test_riemann_values(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
        assert riemann_zeta(0.0) == pytest.approx(-0.5, rel=1e-12)
        assert riemann_zeta(-1.0) == pytest.approx(-1.0 / 12.0, rel=1e-10)
        assert riemann_zeta(3.0) == pytest.approx(1.2020569031595943, rel=1e-12)

    def test_hurwitz_special_values(self):
        for a in (0.25, 0.7, 1.5):
            assert hurwitz_zeta(0.0, a) == pytest.approx(0.5 - a, rel=1e-10, abs=1e-12)
            assert hurwitz_zeta(-1.0, a) == pytest.approx(
                -0.5 * (a * a - a + 1.0 / 6.0), rel=1e-9, abs=1e-12
            )

    def test_hurwitz_complex_vs_mpmath(self):
        for s in (0.5 + 14.0j, -2.5 + 3.0j, 3.0):
            for a in (0.3, 1.0):
                assert hurwitz_zeta(s, a) == pytest.approx(
                    complex(mpmath.zeta(s, a)), rel=1e-8
                )

    def test_pole_and_domain_guards(self):
        with pytest.raises(SpecfunError):
            hurwitz_zeta(1.0, 0.5)
        with pytest.raises(SpecfunError):
            hurwitz_zeta(2.0, -1.0)
        for s, a in (([2.0, 1.0], 0.5), ([2.0, np.nan], 0.5), ([2.0, 3.0 + np.inf * 1j], 0.5),
                     (2.0, [0.5, 0.0]), (complex("nan"), 0.5)):
            with pytest.raises(SpecfunError):
                hurwitz_zeta(s, a)

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_non_finite_a_raises(self, a):
        for s in (2.0, np.array([2.0, 0.7 + 3.0j])):
            for a_arg in (a, np.array([1.0, a])):
                with pytest.raises(SpecfunError, match="finite"):
                    hurwitz_zeta(s, a_arg)

    def test_array_equals_elementwise_bit_for_bit(self):
        # ragged term counts N = max(30, |Im s| + 10), one that spans
        # several blocks of the batch, a broadcast against s, and a 2-d batch
        s = np.array([2.5, 0.6 + 3.0j, 5.0 - 45.2j, 0.75 + 4200.5j, 3.3 + 60.0j, 1.0 + 1e-3j])
        a = np.array([[0.3], [1.0], [13.0]])
        got = hurwitz_zeta(s, a)
        assert got.shape == (3, 6) and got.dtype == complex
        for i in range(3):
            for j in range(6):
                assert got[i, j] == hurwitz_zeta(complex(s[j]), float(a[i, 0]))
        assert isinstance(hurwitz_zeta(2.5, 1), complex)
        assert isinstance(hurwitz_zeta(np.asarray(2.5), 1.0), complex)

    def test_matches_mpmath_for_re_s_from_half(self):
        mpmath.mp.dps = 30
        try:
            for a in (0.05, 0.3, 1.0, 2.5, 13.0):
                for re in np.linspace(0.5, 10.0, 8):
                    for im in np.linspace(-50.0, 50.0, 11):
                        s = complex(re, im)
                        want = complex(mpmath.zeta(s, a))
                        assert abs(hurwitz_zeta(s, a) - want) <= 5e-13 * abs(want), (s, a)
        finally:
            mpmath.mp.dps = 15


class TestShiftedHurwitz:
    """The kernel behind hurwitz_zeta and PowerShiftSquaredProvider: zeta(s + shift_m, a)
    for real shifts from one complex power per element and term."""

    # ragged term counts N = max(30, |Im s| + 10), and one element whose
    # N = 4210 spans several blocks of k
    S = np.array([2.5, 0.6 + 3.0j, 5.0 - 45.2j, 0.75 + 4200.5j, 3.3 + 60.0j, 1.0 + 1e-3j])
    A = np.array([[0.3], [1.0], [13.0]])
    SHIFTS = np.array([0.0, 0.25, 1.0 / 3.0, 2.0, 7.5, 26.0])

    def test_zero_shift_column_is_hurwitz_zeta(self):
        # bit for bit: scalar and array s, Python and array a
        for s in (2.5, 0.6 + 3.0j, 5.0 - 45.2j, 0.75 + 4200.5j):
            for a in (0.3, 1.0, 13.0):
                assert _hurwitz_shifted(s, a, self.SHIFTS)[0] == hurwitz_zeta(s, a)
        for a in (0.3, 13.0, self.A):
            got = _hurwitz_shifted(self.S, a, self.SHIFTS)
            assert got.shape == np.broadcast_shapes(self.S.shape, np.shape(a)) + (6,)
            assert np.array_equal(got[..., 0], hurwitz_zeta(self.S, a))

    def test_shifted_columns_match_hurwitz_zeta(self):
        got = _hurwitz_shifted(self.S, self.A, self.SHIFTS)
        want = hurwitz_zeta(self.S[:, None] + self.SHIFTS, self.A[..., None])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_element_does_not_depend_on_its_batch(self):
        got = _hurwitz_shifted(self.S, self.A, self.SHIFTS)
        for i, a in enumerate(self.A[:, 0]):
            for j, s in enumerate(self.S):
                assert np.array_equal(got[i, j], _hurwitz_shifted(complex(s), float(a), self.SHIFTS))

    def test_batches_equal_their_scalar_calls(self):
        # the Euler-Maclaurin tail runs in blocks of (element, shift) rows; 700
        # elements make 18900 rows, 300 kB per complex column, past the 256 kB
        # from which numpy reuses a temporary in place and swaps the factors
        # of a product, and 17000 elements do so without shifts
        rng = np.random.default_rng(5)
        shifts = np.arange(27.0)
        for shape in ((64,), (8, 8), (700,)):
            s = rng.uniform(0.6, 4.0, shape) + 1j * rng.uniform(-30.0, 30.0, shape)
            got = _hurwitz_shifted(s, 13.0, shifts)
            assert got.shape == shape + (27,)
            want = [_hurwitz_shifted(complex(x), 13.0, shifts) for x in s.flat]
            assert np.array_equal(got.reshape(-1, 27), want)
        s = rng.uniform(0.6, 4.0, 17000) + 1j * rng.uniform(-30.0, 30.0, 17000)
        assert np.array_equal(hurwitz_zeta(s, 0.7), [hurwitz_zeta(x, 0.7) for x in s.tolist()])

    def test_poles_of_every_shift_raise(self):
        # zeta(s + shift, a) has its pole at s = 1 - shift
        for s in (1.0 - 7.5, np.array([2.0, -1.0])):
            with pytest.raises(SpecfunError, match="pole"):
                _hurwitz_shifted(s, 0.5, self.SHIFTS)


class TestPowerShiftTable:
    """PowerShiftSquaredProvider keeps the last table of its Hurwitz tails,
    keyed by gamma and the shape and bytes of s, and shares it across delta."""

    S = np.array([0.55, 0.8 + 2.0j, 1.7 - 11.0j, 3.1])

    @pytest.fixture(autouse=True)
    def cleared(self):
        PowerShiftSquaredProvider._last_tails = (None, None)
        yield
        PowerShiftSquaredProvider._last_tails = (None, None)

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arguments of every kernel call."""
        calls = []

        def kernel(*args):
            calls.append(args)
            return _hurwitz_shifted(*args)

        monkeypatch.setattr(specfun, "_hurwitz_shifted", kernel)
        return calls

    @staticmethod
    def fresh(prov, s) -> bytes:
        """The bytes of prov.zeta(s) from a kernel call of its own."""
        PowerShiftSquaredProvider._last_tails = (None, None)
        return np.asarray(prov.zeta(s)).tobytes()

    def test_the_delta_pair_shares_one_kernel_call(self, calls):
        plus, minus = PowerShiftSquaredProvider(1.0, 0.5), PowerShiftSquaredProvider(1.0, -0.5)
        for s in (self.S, 1.3 + 0.4j):
            del calls[:]
            got = [np.asarray(prov.zeta(s)).tobytes() for prov in (plus, minus)]
            assert len(calls) == 1
            assert got == [self.fresh(plus, s), self.fresh(minus, s)]

    @pytest.mark.parametrize("gamma_pow, s", [
        (0.5, S),  # another gamma
        (1.0, S[::-1]),  # another s
        (1.0, S.reshape(2, 2)),  # the same bytes in another shape
        (1.0, np.where(S.imag == 0, S.conj(), S)),  # equal to S, with -0.0 imaginary parts
    ], ids=["gamma", "s", "shape", "negative-zero"])
    def test_another_key_reuses_nothing(self, calls, gamma_pow, s):
        PowerShiftSquaredProvider(1.0, 0.5).zeta(self.S)
        prov = PowerShiftSquaredProvider(gamma_pow, -0.5)
        got = np.asarray(prov.zeta(s)).tobytes()
        assert len(calls) == 2
        assert got == self.fresh(prov, s)

    def test_the_kept_table_is_read_only(self):
        PowerShiftSquaredProvider(1.0, 0.5).zeta(self.S)
        key, tails = PowerShiftSquaredProvider._last_tails
        assert key == (1.0, (4,), self.S.tobytes())
        assert tails.shape == (4, 27) and not tails.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tails[0, 0] = 0.0

    def test_threads_read_a_key_with_its_own_table(self):
        # four threads on two cores, switching often, each with its own
        # gamma and s: a key paired with another thread's table would show
        cases = [(PowerShiftSquaredProvider(g, d), self.S * g)
                 for g, d in ((1.0, 0.5), (1.0, -0.5), (0.5, 0.3), (2.0, -0.9))]
        want = [self.fresh(prov, s) for prov, s in cases]
        bad = []

        def work(i):
            prov, s = cases[i]
            for _ in range(40):
                if np.asarray(prov.zeta(s)).tobytes() != want[i]:
                    bad.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert bad == []


class TestProviders:
    @pytest.mark.parametrize("make, args", [
        (HurwitzZetaProvider, (math.inf,)),
        (HurwitzZetaProvider, (math.nan,)),
        (HurwitzZetaProvider, (0.5, math.inf)),
        (HurwitzZetaProvider, (0.5, 1.0, math.inf)),
        (HurwitzZetaProvider, (0.5, 1.0, math.nan)),
        (RiemannZetaProvider, (math.nan,)),
        (PowerShiftSquaredProvider, (math.inf, 0.3)),
        (PowerShiftSquaredProvider, (math.nan, 0.3)),
        (PowerShiftSquaredProvider, (1.0, math.nan)),
    ])
    def test_non_finite_parameters_raise(self, make, args):
        with pytest.raises(SpecfunError, match="finite|delta"):
            make(*args)

    def test_riemann_provider_continuation(self):
        prov = RiemannZetaProvider(scale=2.0, exponent=2.0)
        assert prov.zeta(1.0) == pytest.approx(2.0 * math.pi**2 / 6.0, rel=1e-12)
        assert continuation_consistency(prov, (2.0, 3.0), n_terms=4000) < 1e-6
        assert prov.is_pole(0.5)
        assert prov.residue_at(0.5) == pytest.approx(1.0)
        assert prov.value_at(0.5) == pytest.approx(2.0 * EULER_GAMMA)

    def test_hurwitz_provider_finite_part(self):
        prov = HurwitzZetaProvider(a=0.25, scale=1.0, exponent=2.0)
        assert prov.residue_at(0.5) == pytest.approx(0.5)
        assert prov.value_at(0.5) == pytest.approx(-digamma(0.25).real, rel=1e-10)
        # closed forms agree with a symmetric-difference Laurent fit
        h = 1e-4
        odd = lambda hh: (prov.zeta(0.5 + hh) - prov.zeta(0.5 - hh)) * hh / 2.0
        fit = (4.0 * odd(h) - odd(2 * h)) / 3.0
        assert fit == pytest.approx(prov.residue_at(0.5), rel=1e-6)

    def test_power_shift_squared_provider(self):
        prov = PowerShiftSquaredProvider(1.0 / 3.0, 0.3)
        assert continuation_consistency(prov, (4.0, 5.0), n_terms=60000) < 1e-6
        # residue closed form vs a numeric Laurent fit at the leading pole
        loc = 1.5  # (1 - gamma*0)/(2 gamma)
        h = 1e-4
        odd = lambda hh: (prov.zeta(loc + hh) - prov.zeta(loc - hh)) * hh / 2.0
        fit = (4.0 * odd(h) - odd(2 * h)) / 3.0
        assert fit == pytest.approx(prov.residue_at(loc), rel=1e-6)
        # subleading pole carries the delta weight
        m = 1
        loc1 = (1.0 - prov.gamma_pow * m) / (2.0 * prov.gamma_pow)
        odd1 = lambda hh: (prov.zeta(loc1 + hh) - prov.zeta(loc1 - hh)) * hh / 2.0
        fit1 = (4.0 * odd1(h) - odd1(2 * h)) / 3.0
        assert fit1 == pytest.approx(prov.residue_at(loc1), rel=1e-5)

    def test_power_shift_batch_matches_the_per_term_loop(self):
        # the continuation one binomial term at a time, with scalar Hurwitz calls
        def per_term(prov, s):
            g, d = prov.gamma_pow, prov.delta
            total = sum((float(n) ** g + d) ** (-2 * s) for n in range(1, 13))
            binom = 1.0 + 0.0j
            for m in range(27):
                total += binom * d**m * hurwitz_zeta(2 * g * s + g * m, 13.0)
                binom *= (-2 * s - m) / (m + 1)
            return total

        s = np.array([0.55, 0.8 + 2.0j, 1.7 - 11.0j, 3.1, 6.5 + 40.0j])
        for prov in (PowerShiftSquaredProvider(1.0 / 3.0, 0.3),
                     PowerShiftSquaredProvider(1.0, -0.5), PowerShiftSquaredProvider(0.25, 0.5)):
            got = prov.zeta(s)
            for j, sj in enumerate(s):
                want = per_term(prov, complex(sj))
                assert got[j] == pytest.approx(want, rel=1e-12)
                # an element's value does not depend on its batch
                assert prov.zeta(complex(sj)) == got[j]
                assert prov.zeta(s[j:j + 1])[0] == got[j]
            # nor on the batch's shape, for ragged term counts
            grid = np.array([[0.55, 6.5 + 40.0j], [1.7 - 11.0j, 3.1 + 0.2j]])
            assert np.array_equal(prov.zeta(grid), [[prov.zeta(complex(x)) for x in row]
                                                    for row in grid])

    # gamma, delta and points off the real axis, which holds every pole
    SWEEP_GAMMAS = (0.25, 1.0 / 3.0, 0.5, 1.0, 1.5, 2.0)
    SWEEP_DELTAS = (0.5, -0.5, 0.3, -0.9)
    SWEEP_POINTS = (0.3 + 50.0j, 1.1 - 7.3j, 2.45 + 0.9j, 4.0 - 31.0j, 0.8 + 19.5j)

    def test_power_shift_matches_mpmath(self):
        # the same continuation (exact head n <= 12 and 27 binomial terms
        # against zeta(2 gamma s + gamma m, 13)) at 30 digits; the Hurwitz
        # values do not depend on delta, so each is taken once
        with mpmath.workdps(30):
            for g in self.SWEEP_GAMMAS:
                provs = [PowerShiftSquaredProvider(g, d) for d in self.SWEEP_DELTAS]
                got = np.array([prov.zeta(np.array(self.SWEEP_POINTS)) for prov in provs])
                for j, s in enumerate(self.SWEEP_POINTS):
                    sm, gm = mpmath.mpc(s), mpmath.mpf(g)
                    tails = [mpmath.zeta(2 * gm * sm + gm * m, 13) for m in range(27)]
                    for i, d in enumerate(self.SWEEP_DELTAS):
                        dm = mpmath.mpf(d)
                        want = sum(((n**gm + dm) ** 2) ** (-sm) for n in range(1, 13))
                        binom = mpmath.mpf(1)
                        for m, tail in enumerate(tails):
                            want += binom * dm**m * tail
                            binom *= (-2 * sm - m) / (m + 1)
                        err = abs(got[i, j] - complex(want)) / abs(complex(want))
                        assert err <= 1e-11, (g, d, s, err)

    def test_providers_broadcast_over_s(self):
        s = np.array([[0.9 + 1.0j, 2.0], [3.5 - 7.0j, 1.2]])
        for prov in (HurwitzZetaProvider(0.25, 1.5, 2.0), RiemannZetaProvider(2.0, 2.0),
                     HurwitzZetaProvider(0.25, 1.5, 2.0) + HurwitzZetaProvider(1.5, -0.5, 1.0)):
            got = prov.zeta(s)
            assert got.shape == (2, 2)
            for idx in np.ndindex(2, 2):
                assert got[idx] == pytest.approx(prov.zeta(complex(s[idx])), rel=1e-14)

    def test_riemann_provider_is_hurwitz_at_one(self):
        for scale, exponent in ((2.0, 2.0), (1.0, 0.5), (0.7, 2.37)):
            riemann = RiemannZetaProvider(scale, exponent)
            hurwitz = HurwitzZetaProvider(1.0, scale, exponent)
            for s in (2.5, 0.3 + 4.0j, -1.7, 1.0 / exponent + 0.01):
                assert riemann.zeta(s) == hurwitz.zeta(s)
            assert riemann.terms_below(500.0) == hurwitz.terms_below(500.0)

    def test_provider_rejects_nonpositive_exponent(self):
        for exponent in (0.0, -2.0):
            with pytest.raises(SpecfunError):
                RiemannZetaProvider(1.0, exponent)
            with pytest.raises(SpecfunError):
                HurwitzZetaProvider(0.5, 1.0, exponent)


class TestHurwitzFamilies:
    """A HurwitzZetaProvider is a sum of families (w, a, e), closed under +."""

    def test_sum_holds_the_families_in_order(self):
        p, q = HurwitzZetaProvider(0.3, 2.0, 1.5), RiemannZetaProvider(-1.0, 2.0)
        assert p.families == ((2.0, 0.3, 1.5),)
        assert (p + q).families == ((2.0, 0.3, 1.5), (-1.0, 1.0, 2.0))
        assert (q + p + p).families == ((-1.0, 1.0, 2.0), (2.0, 0.3, 1.5), (2.0, 0.3, 1.5))
        assert type(q + p) is HurwitzZetaProvider
        # the summands are left as they were
        assert p.families == ((2.0, 0.3, 1.5),) and q.families == ((-1.0, 1.0, 2.0),)

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.7])
    def test_two_families_are_the_hurwitz_difference_to_the_bit(self, a):
        prov = shifted_integer(a)
        for s in (0.6 + 2.0j, 3.0, 1.7 - 11.0j, -0.4 + 0.3j):
            assert prov.zeta(s) == hurwitz_zeta(s, a) - hurwitz_zeta(s, 1 - a)
        grid = np.array([[0.6 + 2.0j, 3.0], [1.7 - 11.0j, 4.5 + 40.0j]])
        want = hurwitz_zeta(grid, a) - hurwitz_zeta(grid, 1 - a)
        got = prov.zeta(grid)
        assert got.shape == (2, 2)
        assert got.tobytes() == want.tobytes()

    def test_terms_merge_by_value(self):
        assert shifted_integer(0.25).terms_below(2.0) == [
            (1.0, 0.25), (-1.0, 0.75), (1.0, 1.25), (-1.0, 1.75)]
        assert shifted_integer(0.75).terms_below(2.0) == [
            (-1.0, 0.25), (1.0, 0.75), (-1.0, 1.25), (1.0, 1.75)]
        # on a tie the earlier family, here the +1 one, comes first
        assert shifted_integer(0.5).terms_below(2.0) == [
            (1.0, 0.5), (-1.0, 0.5), (1.0, 1.5), (-1.0, 1.5)]

    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.8])
    def test_cancelling_poles_leave_the_reflection_value(self, a):
        # the residues 1 and -1 at s = 1 cancel; the finite part is
        # psi(1 - a) - psi(a) = pi cot(pi a)
        prov = shifted_integer(a)
        assert prov.pole_locations() == (1.0,)
        assert prov.residue_at(1.0) == 0
        want = math.pi / math.tan(math.pi * a)
        assert abs(prov.value_at(1.0) - want) <= 1e-13 * max(1.0, abs(want))

    def test_two_exponents_meet_mpmath_at_both_poles(self):
        # poles at 1/2 and 2/3; each family's value at the other's pole has
        # Re(e s) >= 3/4, inside hurwitz_zeta's domain
        families = ((1.5, 0.3, 2.0), (-0.7, 0.8, 1.5))
        prov = HurwitzZetaProvider(0.3, 1.5, 2.0) + HurwitzZetaProvider(0.8, -0.7, 1.5)
        assert prov.pole_locations() == (0.5, 2.0 / 3.0)
        with mpmath.workdps(60):
            f = lambda s: sum(w * mpmath.zeta(e * s, a) for w, a, e in families)
            h = mpmath.mpf("1e-25")
            for s0 in (mpmath.mpf(1) / 2, mpmath.mpf(2) / 3):
                # symmetric differences: the residue and the finite part to O(h^2)
                res = (f(s0 + h) - f(s0 - h)) * h / 2
                fin = (f(s0 + h) + f(s0 - h)) / 2
                got_res, got_fin = prov.residue_at(float(s0)), prov.value_at(float(s0))
                assert abs(got_res - complex(res)) <= 1e-12 * abs(complex(res))
                assert abs(got_fin - complex(fin)) <= 1e-12 * abs(complex(fin))
        # off the ledger: no residue, and the value is zeta
        assert prov.residue_at(2.5) == 0.0
        assert prov.value_at(2.5) == prov.zeta(2.5)

    def test_a_sum_continues_its_terms(self):
        for prov in (shifted_integer(0.3),
                     HurwitzZetaProvider(0.3, 1.5, 2.0) + RiemannZetaProvider(-0.7, 1.5)):
            assert continuation_consistency(prov, (4.0, 5.0 + 1.0j), n_terms=6000) < 1e-6
