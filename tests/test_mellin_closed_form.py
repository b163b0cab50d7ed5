"""Tests for the closed-form Mellin transforms that functions state, and the
route `mellin` takes with them."""

import dataclasses
import functools
import importlib.util
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as sc_gamma

from conespec import cli, mellin
from conespec.expansions import (
    add_functions,
    cutoff_times_monomial,
    differentiate,
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
    Side,
    mellin_transform,
    regularized_integral,
    regularized_integral_partial,
    regularized_moments,
    scale_rule,
)
from conespec.sal import TestFunction

ROOT = Path(__file__).resolve().parents[1]
# the benchmark's oracle kernels: G(w) = lam^-w Gamma(w) for e^-x and
# lam^-w Gamma(w/2)/2 for e^-x^2, in mpmath
_spec = importlib.util.spec_from_file_location("oracles", ROOT / "bench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def _kernel(kind, lam=1):
    return oracles._mellin_kernel(kind, lam)[0]


def _derivative_kernel(kind, n):
    """M[f^(n)](z) = (-1)^n (z-1)...(z-n) Mf(z-n)."""
    g = _kernel(kind)
    return lambda z: (-1) ** n * mpmath.rf(z - n, n) * g(z - n)


def _nth_derivative(f, n):
    for _ in range(n):
        f = differentiate(f)
    return f


# (function, its Mellin transform in mpmath)
CASES = {
    "exp": (exponential_decay, lambda: _kernel("exp")),
    "gauss": (gaussian_decay, lambda: _kernel("gauss")),
    "exp'''": (lambda: _nth_derivative(exponential_decay(), 3),
               lambda: _derivative_kernel("exp", 3)),
    "gauss''": (lambda: _nth_derivative(gaussian_decay(), 2),
                lambda: _derivative_kernel("gauss", 2)),
    "scale": (lambda: scale_function(gaussian_decay(), 1.5 - 0.75j),
              lambda: (lambda z: mpmath.mpc(1.5, -0.75) * _kernel("gauss")(z))),
    "rescale": (lambda: rescale_argument(exponential_decay(), 2.7),
                lambda: _kernel("exp", 2.7)),
    "rescale gauss": (lambda: rescale_argument(gaussian_decay(), 0.45),
                      lambda: _kernel("gauss", 0.45)),
    "times": (lambda: times_monomial(exponential_decay(), -1.3),
              lambda: (lambda z: _kernel("exp")(z - 1.3))),
    "times complex": (lambda: times_monomial(gaussian_decay(), 0.4 + 2.5j),
                      lambda: (lambda z: _kernel("gauss")(z + mpmath.mpc(0.4, 2.5)))),
    "root": (lambda: substitute_power(exponential_decay(), 0.5),
             lambda: (lambda z: 2 * _kernel("exp")(2 * z))),
    "inverse square": (lambda: substitute_power(gaussian_decay(), -2.0),
                       lambda: (lambda z: _kernel("gauss")(-z / 2) / 2)),
    "fuchs": (lambda: fuchs_derivative(exponential_decay()),
              lambda: (lambda z: z * _kernel("exp")(z))),
    "fuchs twice": (lambda: fuchs_derivative(fuchs_derivative(rescale_argument(gaussian_decay(),
                                                                                1.6))),
                    lambda: (lambda z: z * z * _kernel("gauss", 1.6)(z))),
}


def _sum_case():
    """2 e^-x - 0.7 e^-(1.3 x)^2 + 1.1 x^-1.5 log x: the monomial states 0."""
    f = add_functions(scale_function(exponential_decay(), 2.0),
                      scale_function(rescale_argument(gaussian_decay(), 1.3), -0.7))
    return add_functions(f, scale_function(global_monomial(-1.5, 1), 1.1))


def _strip_points(f, rng, n=40):
    """Points of f's strip, shrunk by 1/4, with |Im z| <= 40, a quarter of
    them real, each more than 1e-3 from every stored term's pole -alpha."""
    lo, hi = 1.0 - f.p + 0.25, 1.0 + f.q - 0.25
    poles = [-t.exponent for e in (f.expansion_at_zero, f.expansion_at_infinity)
             for t in e.terms]
    points = []
    while len(points) < n:
        z = complex(rng.uniform(lo, hi), 0.0 if len(points) % 4 == 0 else rng.uniform(-40, 40))
        if all(abs(z - p) > 1e-3 for p in poles):
            points.append(z)
    return points


class TestClosedForms:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_meets_mpmath_over_the_strip(self, name):
        make, oracle = CASES[name]
        f, want = make(), oracle()
        rng = np.random.default_rng(sorted(CASES).index(name))
        with mpmath.workdps(30):
            for z in _strip_points(f, rng):
                w = complex(want(mpmath.mpc(z)))
                assert abs(f.mellin(z) - w) <= 1e-12 * abs(w), z
                assert abs(mellin_transform(f)(z) - w) <= 1e-12 * abs(w), z

    def test_a_sum_meets_mpmath_relative_to_its_parts(self):
        f = _sum_case()
        rng = np.random.default_rng(7)
        with mpmath.workdps(30):
            for z in _strip_points(f, rng):
                parts = (2 * _kernel("exp")(z), -0.7 * _kernel("gauss", 1.3)(z))
                w = complex(sum(parts))
                size = float(sum(abs(p) for p in parts))
                assert abs(mellin_transform(f)(z) - w) <= 1e-12 * size, z

    def test_global_monomial_states_zero(self):
        f = scale_function(global_monomial(-0.6, 2), 3.0)
        assert f.mellin(1.7) == 0.0 and f.mellin(0.3 + 4j) == 0.0
        assert regularized_integral(f) == 0.0

    def test_a_negative_scale_of_a_stated_zero_gives_plus_zero(self):
        # c * 0.0 is -0.0 for c < 0; the stated route gives +0.0 in both
        # parts, as the term sum and quadrature did
        f = scale_function(global_monomial(0.5), -2.0)
        values = [regularized_integral(f), scale_rule(f, 1.7),
                  *(mellin_transform(f)(z) for z in (0.3, 0.3 + 0.2j, -0.7 - 2.5j)),
                  *regularized_moments(f, [(-0.25, 0), (0.5, 0)]).tolist()]
        for value in values:
            assert value == 0
            assert math.copysign(1.0, value.real) == math.copysign(1.0, value.imag) == 1.0

    def test_functions_that_state_no_transform(self):
        phi = TestFunction(lambda x: np.exp(-x), [(-1.0) ** j for j in range(13)])
        for f in (phi, add_functions(cutoff_times_monomial(-2.0), phi),
                  times_monomial(exponential_decay(), -1.5, 1),
                  times_monomial(cutoff_times_monomial(-1.5), 0.5, 1)):
            assert f.mellin is None

    def test_real_argument_and_coefficients_give_a_real_value(self):
        # exp(loggamma) gives Gamma(-1/2) = -3.5449077018110375 - 4.3e-16i;
        # the real Gamma gives -3.5449077018110318 + 0i (true: ...0321)
        f = times_monomial(exponential_decay(), -1.5)
        assert type(f.mellin(1.0)) is float
        got = regularized_integral(f)
        assert got.imag == 0.0 and got.real == float(sc_gamma(-0.5))
        for g in (_sum_case(), CASES["fuchs twice"][0](), CASES["inverse square"][0](),
                  cli._phi("gauss")):
            for z in (1.0, 0.4, 2.35):
                assert mellin_transform(g)(z).imag == 0.0
            assert regularized_integral(g).imag == 0.0
            assert scale_rule(g, 1.7).imag == 0.0
            moments = regularized_moments(g, [(-1.5, 0), (0.25, 0), (2.0, 0)])
            assert not moments.imag.any()


# -- the cutoff and step leaves: a fixed rule over the transition ------------


def _mp_step(x, lo, hi, rising):
    """The smooth step on (lo, hi) in mpmath, 1 towards 0 or towards infinity."""
    u = (x - lo) / (hi - lo)
    g1, g2 = mpmath.exp(-1 / u), mpmath.exp(-1 / (1 - u))
    return (g1 if rising else g2) / (g1 + g2)


# (lo, hi, rising, sign) of the cutoff and the step: Mf(z) is
# sign (-1)^k k!/w^(k+1) plus the integral of step x^(w-1) log^k x over (lo, hi)
_LEAVES = {"cutoff": (cutoff_times_monomial, 1, 2, False, 1),
           "step": (tail_times_monomial, 0.5, 1, True, -1)}


def _mp_pole(w, k):
    """(-1)^k k!/w^(k+1), the continued integral of x^(w-1) log^k x over (0, 1]."""
    return (-1) ** k * mpmath.factorial(k) / mpmath.mpc(w) ** (k + 1)


@functools.lru_cache(maxsize=None)
def _mp_leaf(name, w, k):
    """The Mellin transform of the cutoff or step times x^alpha log^k x, at
    w = z + alpha, in 30-digit mpmath."""
    _, lo, hi, rising, sign = _LEAVES[name]
    with mpmath.workdps(30):
        mw = mpmath.mpc(w)
        step = mpmath.quad(lambda x: _mp_step(x, lo, hi, rising) * x ** (mw - 1)
                           * mpmath.log(x) ** k, mpmath.linspace(lo, hi, 9))
        return complex(sign * _mp_pole(w, k) + step)


# Points w = z + alpha with Re w in [-20, 20] and |Im z| <= 50, on both sides
# of the choice between a leaf's two forms, and on the vertical lines
# 14 <= |Im z| <= 31; the point i takes (alpha, k) = _ALPHA_K[i % 5], and
# alpha = k = 0 makes a leaf's derivative its slope alone.
_W = (0.5, -20.0, 20.0, 3.7 - 50j, -19.5 + 49.5j, 19.0 + 44.0j, -7.3 + 14.2j,
      11.6 - 30.9j, 0.02 + 21.5j, -0.4 - 31.0j, -2.1 - 44.3j, 4.3 + 46.6j)
_ALPHA_K = ((-1.3, 0), (0.6, 1), (-2.5 + 0.75j, 2), (1.9, 3), (0.0, 0))


def _transition_points():
    """(alpha, k, w, z = w - alpha, the pole part's size k!/|w|^(k+1))."""
    points = []
    for i, w in enumerate(_W):
        alpha, k = _ALPHA_K[i % len(_ALPHA_K)]
        z = w - alpha
        assert abs(z.imag) <= 50
        points.append((alpha, k, w, z, math.factorial(k) / abs(w) ** (k + 1)))
    return points


def _meets(got, want, scale):
    assert abs(got - want) <= 1e-12 * max(abs(want), scale), (got, want)


class TestTransitionLeaves:
    """The cutoff and step leaves, their slopes and the restricted monomials
    state Mf, against mpmath to 1e-12 relative to max(|Mf|, k!/|w|^(k+1)),
    the size of the pole part at w = z + alpha."""

    @pytest.mark.parametrize("name", sorted(_LEAVES))
    def test_leaf_meets_mpmath(self, name):
        make = _LEAVES[name][0]
        for alpha, k, w, z, scale in _transition_points():
            _meets(make(alpha, k).mellin(z), _mp_leaf(name, w, k), scale)

    @pytest.mark.parametrize("name,ws", [("cutoff", (-30.0, -40.0, -40 + 20j)),
                                         ("step", (30.0, 40.0, 40 - 20j))])
    def test_far_from_the_plateau_the_value_keeps_its_digits(self, name, ws):
        # there the pole part and the rule's integral of the step would
        # cancel to the small value (to 5e-11 of it at w = -40 + 20i); the
        # block over the support minus the integral of one minus the step
        # does not
        make = _LEAVES[name][0]
        for w in ws:
            want = _mp_leaf(name, w, 0)
            assert abs(make(0.0).mellin(w) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("name", sorted(_LEAVES))
    def test_derivative_through_the_slope_leaf(self, name):
        # M[f'](z) = -(z-1) Mf(z-1): the slope leaf's transform plus the
        # product rule's leaves (for alpha = k = 0, the slope leaf alone)
        make = _LEAVES[name][0]
        for alpha, k, w, z, scale in _transition_points():
            f = differentiate(make(alpha, k))
            _meets(f.mellin(z + 1), -z * _mp_leaf(name, w, k), abs(z) * scale)

    def test_cutoff_fuchs_derivative_and_rescaling(self):
        # M[-x f'](z) = z Mf(z) and M[f(lam x)](z) = lam^-z Mf(z)
        for alpha, k, w, z, scale in _transition_points():
            f, want = cutoff_times_monomial(alpha, k), _mp_leaf("cutoff", w, k)
            _meets(fuchs_derivative(f).mellin(z), z * want, abs(z) * scale)
            lam = 1.7 ** -complex(z)
            _meets(rescale_argument(f, 1.7).mellin(z), lam * want, abs(lam) * scale)

    def test_restricted_monomials_state_their_pole_part(self):
        for alpha, k, w, z, scale in _transition_points():
            want = complex(_mp_pole(w, k))
            _meets(monomial_restricted(alpha, k).mellin(z), want, scale)
            _meets(monomial_restricted(alpha, k, "unit_tail").mellin(z), -want, scale)

    def test_a_float_z_and_real_alpha_give_a_float(self):
        for f in (cutoff_times_monomial(-1.5, 1), tail_times_monomial(0.5, 2),
                  monomial_restricted(-0.5), monomial_restricted(0.3, 1, "unit_tail"),
                  differentiate(cutoff_times_monomial(-1.5)), differentiate(tail_times_monomial(0.0)),
                  fuchs_derivative(cutoff_times_monomial(0.4, 2)),
                  rescale_argument(cutoff_times_monomial(-2.2), 1.3)):
            for z in (-15.3, 0.7, 1.0, 12.5):
                assert type(f.mellin(z)) is float
            assert regularized_integral(f).imag == 0.0
            assert scale_rule(f, 1.7).imag == 0.0

    def test_past_the_rule_s_reach_the_quadrature_takes_over(self):
        # no stated value past |Im z| = 50, so the evaluator integrates
        for f in (cutoff_times_monomial(-0.5, 1), differentiate(tail_times_monomial(0.3))):
            assert math.isnan(f.mellin(0.5 + 50.5j))
            plain = dataclasses.replace(f, mellin=None)
            assert mellin_transform(f)(0.5 - 60j) == mellin_transform(plain)(0.5 - 60j)
            assert math.isfinite(f.mellin(0.5 - 50j).real)


def _calculus_piece(rng, kinds):
    """A piece of a function of the calculus benchmark (bench/gen.py): a
    scaled monomial, cutoff, e^-x or e^-x^2, or a rescaling or Fuchs
    derivative of one of those."""
    kind = rng.choice(kinds)
    c = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
    if kind in ("mono", "cut"):
        leaf = global_monomial if kind == "mono" else cutoff_times_monomial
        return scale_function(leaf(rng.uniform(-3.0, 2.0), rng.randrange(3)), c)
    if kind in ("exp", "gauss"):
        return scale_function(exponential_decay() if kind == "exp" else gaussian_decay(), c)
    inner = _calculus_piece(rng, ("mono", "cut", "exp", "gauss"))
    return rescale_argument(inner, rng.uniform(0.4, 2.8)) if kind == "resc" else (
        fuchs_derivative(inner))


def _cutoff_functions(n):
    """n functions of one to three pieces, the first a cutoff, a rescaled
    cutoff or a cutoff's Fuchs derivative, each with a point z of its strip
    with |Im z| <= 50; z and 1 lie more than 1e-3 from every stored term's
    pole."""
    rng = random.Random(11)
    out = []
    while len(out) < n:
        f = _calculus_piece(rng, ("cut",))
        wrap = rng.choice(("cut", "resc", "fuchs"))
        if wrap == "resc":
            f = rescale_argument(f, rng.uniform(0.4, 2.8))
        elif wrap == "fuchs":
            f = fuchs_derivative(f)
        for _ in range(rng.randrange(3)):
            f = add_functions(f, _calculus_piece(
                rng, ("mono", "cut", "exp", "gauss", "resc", "fuchs")))
        z = complex(rng.uniform(-2.0, 3.0), rng.uniform(-50.0, 50.0))
        poles = [-t.exponent for t in f.expansion_at_zero.terms + f.expansion_at_infinity.terms]
        if all(abs(p - 1) > 1e-3 and abs(p - z) > 1e-3 for p in poles):
            out.append((f, z))
    return out


def _no_quadrature(*args, **kwargs):
    raise AssertionError("quadrature or term sum on the closed-form route")


class TestRoute:
    CLOSED = [exponential_decay, gaussian_decay, _sum_case, CASES["fuchs twice"][0],
              CASES["times complex"][0], CASES["root"][0]]

    @pytest.mark.parametrize("make", CLOSED)
    def test_closed_form_needs_no_quadrature(self, make, monkeypatch):
        f = make()
        monkeypatch.setattr(mellin, "quad", _no_quadrature)
        scale_rule(f, 2.3)
        monkeypatch.setattr(mellin, "_term_sum", _no_quadrature)
        regularized_integral(f)
        regularized_integral(f, 0.4)
        mellin_transform(f)(1.3 + 7j)
        regularized_moments(f, [(-0.5, 0), (1.0, 0), (2.25, 0)])

    def test_functions_with_a_cutoff_piece_need_no_quadrature(self, monkeypatch):
        cases = _cutoff_functions(16)
        monkeypatch.setattr(mellin, "quad", _no_quadrature)
        got = [(regularized_integral(f), scale_rule(f, 1.9), mellin_transform(f)(z))
               for f, z in cases]
        monkeypatch.undo()
        for (f, z), values in zip(cases, got):
            plain = dataclasses.replace(f, mellin=None)
            want = (regularized_integral(plain), scale_rule(plain, 1.9),
                    mellin_transform(plain)(z))
            for g, w in zip(values, want):
                # within the quadrature's relative tolerance, QUAD_REL_TOL
                assert abs(g - w) <= 1e-10 * max(1.0, abs(w)), (g, w)
            # the partial integrals keep the term sum and the quadrature
            for side in Side:
                assert regularized_integral_partial(f, 0.7, side) == (
                    regularized_integral_partial(plain, 0.7, side))

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        quad = mellin.quad

        def counting_quad(fn, a, b):
            calls.append((a, b))
            return quad(fn, a, b)

        monkeypatch.setattr(mellin, "quad", counting_quad)
        return calls

    def test_a_cutoff_on_its_own_pole_keeps_the_quadrature(self, monkeypatch):
        # z = 1 is the pole of the cutoff's x^-1 term: the constant Laurent
        # coefficient comes from the term sum and the quadrature of the
        # remainder on (1, 2), as without the stated transform
        calls = self._counted(monkeypatch)
        for f in (cutoff_times_monomial(-1.0), add_functions(
                exponential_decay(), scale_function(cutoff_times_monomial(-1.0, 1), -0.5))):
            plain = dataclasses.replace(f, mellin=None)
            for value in (lambda g: regularized_integral(g), lambda g: scale_rule(g, 1.9),
                          lambda g: mellin_transform(g).regular(1.0 + 0.5 * POLE_TOL)):
                start = len(calls)
                got = value(f)
                mid = len(calls)
                assert mid > start and got == value(plain)
                assert calls[start:mid] == calls[mid:]

    @pytest.mark.parametrize("make", CLOSED)
    def test_partial_integrals_keep_the_quadrature(self, make, monkeypatch):
        calls = self._counted(monkeypatch)
        f = make()
        plain = dataclasses.replace(f, mellin=None)
        for c in (0.4, 1.0, 2.5):
            for side in Side:
                start = len(calls)
                got = regularized_integral_partial(f, c, side)
                mid = len(calls)
                want = regularized_integral_partial(plain, c, side)
                # the same quadratures as without the closed form, and the
                # same bits
                assert mid > start and calls[start:mid] == calls[mid:]
                assert got == want

    def test_partials_add_up_to_the_closed_form(self):
        # the remainder quadrature on both sides of a cut meets the stated
        # transform, as the sum of the partial integrals
        for f in (times_monomial(exponential_decay(), -2.703), times_monomial(gaussian_decay(), -3.5),
                  fuchs_derivative(rescale_argument(exponential_decay(), 2.0))):
            want = regularized_integral(f)
            for c in (0.5, 1.0, 1.8):
                got = sum(regularized_integral_partial(f, c, side) for side in Side)
                assert got == pytest.approx(want, rel=1e-11)

    def test_points_on_or_near_a_term_pole_take_the_term_sum(self):
        # z = 1 sits on the pole of the x^-1 term of x^-2 e^-x: the constant
        # Laurent coefficient comes from the regular part of the term sum
        f = times_monomial(exponential_decay(), -2.0)
        plain = dataclasses.replace(f, mellin=None)
        assert regularized_integral(f) == regularized_integral(plain)
        near = 1.0 + 0.5 * POLE_TOL
        assert mellin_transform(f).regular(near) == mellin_transform(plain).regular(near)
        assert regularized_moments(exponential_decay(), [(-1.0, 0)])[0] == regularized_moments(
            dataclasses.replace(exponential_decay(), mellin=None), [(-1.0, 0)])[0]

    def test_poles_that_no_term_marks_take_the_term_sum(self):
        # e^-x's derivative drops the x^0 term, so no stored term marks the
        # pole at z = 1 of -(z-1) Gamma(z-1), where the stated form is
        # -0 * inf; z Gamma(z), the Fuchs derivative's, is 0 * inf at z = 0
        for f in (differentiate(exponential_decay()), differentiate(gaussian_decay())):
            assert abs(regularized_integral(f) + 1) <= 1e-12
            assert regularized_integral(f) == regularized_integral(
                dataclasses.replace(f, mellin=None))
            assert abs(regularized_moments(f, [(0.0, 0)])[0] + 1) <= 1e-12
        assert abs(mellin_transform(fuchs_derivative(exponential_decay()))(0.0) - 1) <= 1e-12

    def test_a_sum_near_the_pole_it_cancels_takes_the_term_sum(self):
        # e^-x - e^-x^2: the parts' poles at z = 0 cancel, and no stored term
        # marks it; near it the parts are about 1/z each, so their sum would
        # lose digits (6e-10 relative at z = 1e-6)
        f = add_functions(exponential_decay(), scale_function(gaussian_decay(), -1.0))
        plain = dataclasses.replace(f, mellin=None)
        with mpmath.workdps(40):
            for z in (1e-9, 1e-6, 1e-4 + 1e-4j, 1e-3j, -1e-3, 0.001):
                mz = mpmath.mpc(z)
                w = complex(mpmath.gamma(mz) - mpmath.gamma(mz / 2) / 2)
                got = mellin_transform(f)(z)
                assert got == mellin_transform(plain)(z), z
                assert abs(got - w) <= 1e-12 * abs(w), z
        assert mellin_transform(f)(0.0) == pytest.approx(-float(mpmath.euler) / 2, rel=1e-12)
