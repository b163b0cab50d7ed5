"""Tests for the closed-form Mellin transforms that functions state, and the
route `mellin` takes with them."""

import dataclasses
import importlib.util
import math
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
        for f in (cutoff_times_monomial(-1.5, 1), tail_times_monomial(0.5),
                  monomial_restricted(-0.5, 0), differentiate(cutoff_times_monomial(-1.5)),
                  TestFunction(lambda x: np.exp(-x), [(-1.0) ** j for j in range(13)]),
                  add_functions(exponential_decay(), cutoff_times_monomial(-2.0)),
                  times_monomial(exponential_decay(), -1.5, 1)):
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

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        quad = mellin.quad

        def counting_quad(fn, a, b):
            calls.append((a, b))
            return quad(fn, a, b)

        monkeypatch.setattr(mellin, "quad", counting_quad)
        return calls

    def test_a_cutoff_piece_keeps_the_quadrature(self, monkeypatch):
        # the remainders of e^-x and of the cutoff live on both sides of 1
        calls = self._counted(monkeypatch)
        f = add_functions(exponential_decay(), cutoff_times_monomial(-2.5, 1))
        regularized_integral(f)
        assert len(calls) == 2
        scale_rule(f, 1.9)
        assert len(calls) == 4
        mellin_transform(f)(0.7 + 2j)
        assert len(calls) == 6

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
