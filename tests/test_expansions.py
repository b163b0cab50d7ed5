"""Tests for the log-power expansion algebra."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec.expansions import (
    EXPONENT_TOL,
    AsymptoticExpansion,
    ExpandableFunction,
    Location,
    LogPowerTerm,
    Remainder,
    add,
    add_functions,
    cutoff_times_monomial,
    differentiate,
    empty_expansion,
    exponential_decay,
    fuchs_derivative,
    gaussian_decay,
    global_monomial,
    monomial_restricted,
    rescale_argument,
    scale_function,
    smooth_cutoff,
    smooth_step_up,
    substitute_power,
    tail_times_monomial,
    times_monomial,
)
from conespec.expansions import _is_normal, _merge_keys, _minus_terms, _normal_form
from conespec import sal


class TestAsymptoticExpansion:
    def test_merges_nearby_exponents(self):
        e = AsymptoticExpansion(
            Location.AT_ZERO,
            (LogPowerTerm(1.0, 0.5, 0), LogPowerTerm(2.0, 0.5 + 1e-14, 0)),
            2.0,
        )
        assert len(e.terms) == 1
        assert e.coefficient(0.5, 0) == pytest.approx(3.0)

    @staticmethod
    def _pairwise_merge(terms):
        """The merge as a loop over the keys found so far (quadratic), the
        reference for _merge_keys."""
        merged = {}
        for t in terms:
            key = next((k for k in merged
                        if abs(k[0] - t.exponent.real) <= EXPONENT_TOL
                        and abs(k[1] - t.exponent.imag) <= EXPONENT_TOL
                        and k[2] == t.log_power), None)
            if key is None:
                merged[(t.exponent.real, t.exponent.imag, t.log_power)] = t.coefficient
            else:
                merged[key] = merged[key] + t.coefficient
        return list(merged.items())

    @pytest.mark.parametrize("seed", range(40))
    def test_merge_matches_the_pairwise_loop(self, seed):
        # exponents at a few centres, moved by 0 to 5 tolerances in either
        # part (so chains of near keys form), some at magnitudes where the
        # float spacing exceeds the tolerance, and a few non-finite ones;
        # the merged terms must be bit for bit the pairwise loop's
        rng = np.random.default_rng(seed)
        centres = [0.0, -1.5, 2.0 + 0.5j, 7.25j, 1e4, -3e5 + 1e4j, 1e300]
        steps = np.array([0.0, 0.3, 0.9, 1.0, 1.1, 2.0, 5.0]) * EXPONENT_TOL
        terms = []
        for _ in range(int(rng.integers(1, 60))):
            z = complex(centres[rng.integers(len(centres))])
            z += complex(rng.choice(steps) * rng.choice([-1, 1]),
                         rng.choice(steps) * rng.choice([-1, 1]))
            if rng.random() < 0.03:
                z = complex(rng.choice([math.inf, -math.inf, math.nan]), z.imag)
            terms.append(LogPowerTerm(complex(rng.normal(), rng.normal()), z,
                                      int(rng.integers(0, 3))))
        want = self._pairwise_merge(terms)
        assert repr(_merge_keys(terms)) == repr(want)
        finite = [t for t in terms if cmath.isfinite(t.exponent)]
        e = AsymptoticExpansion(Location.AT_ZERO, tuple(finite), 1e301)
        assert repr(e.terms) == repr(tuple(sorted(
            (LogPowerTerm(c, complex(k[0], k[1]), k[2]) for k, c in self._pairwise_merge(finite)
             if c != 0), key=lambda t: (t.exponent.real, t.exponent.imag, t.log_power))))

    def test_drops_zero_terms(self):
        e = AsymptoticExpansion(
            Location.AT_ZERO, (LogPowerTerm(0.0, 0.0, 0), LogPowerTerm(1.0, 1.0, 0)), 2.0
        )
        assert len(e.terms) == 1

    def test_sorted_by_real_part(self):
        e = AsymptoticExpansion(
            Location.AT_ZERO,
            (LogPowerTerm(1.0, 1.0, 0), LogPowerTerm(1.0, -0.5, 0), LogPowerTerm(1.0, 0.0, 1)),
            2.0,
        )
        exps = [t.exponent.real for t in e.terms]
        assert exps == sorted(exps)

    def test_rejects_terms_beyond_remainder_order(self):
        with pytest.raises(ValueError):
            AsymptoticExpansion(Location.AT_ZERO, (LogPowerTerm(1.0, 5.0, 0),), 2.0)
        with pytest.raises(ValueError):
            AsymptoticExpansion(Location.AT_INFINITY, (LogPowerTerm(1.0, -5.0, 0),), 2.0)

    def test_evaluate(self):
        e = AsymptoticExpansion(
            Location.AT_ZERO,
            (LogPowerTerm(2.0, -1.0, 0), LogPowerTerm(3.0, 0.0, 1)),
            1.0,
        )
        x = 0.1
        assert e.evaluate(x) == pytest.approx(2.0 / x + 3.0 * math.log(x))

    def test_evaluate_rejects_nonpositive(self):
        # an empty sum would be 0 at x = 0; x <= 0 is outside the domain
        e = empty_expansion(Location.AT_ZERO, 2.0)
        with pytest.raises(ValueError):
            e.evaluate(0.0)
        with pytest.raises(ValueError):
            e.evaluate(-1.0)


# Exponents near a few centres, at most a few tolerances apart, so that
# near and equal keys, and one exponent with several log powers, are common.
_CENTRES = [0.0, 1.0, -1.5, 2.5, 0.5j, 2.0 - 0.25j]
_SHIFTS = [0.0, 0.0, 3e-13, -7e-13, EXPONENT_TOL, 1.5e-12, -2.5e-12]
_NON_FINITE = [math.nan, math.inf, -math.inf]


@st.composite
def _term(draw, near: bool):
    z = complex(draw(st.sampled_from(_CENTRES)))
    if near:
        z += complex(draw(st.sampled_from(_SHIFTS)), draw(st.sampled_from([0.0, 0.0, 4e-13])))
    kind = draw(st.sampled_from(["complex", "complex", "float", "non-finite"]))
    if kind == "non-finite":
        bad = draw(st.sampled_from(_NON_FINITE))
        z = complex(bad, z.imag) if draw(st.booleans()) else complex(z.real, bad)
    exponent = z.real if kind == "float" and z.imag == 0 else z
    coefficient = draw(st.sampled_from([0.0, -0.0, 0j, 1.0, -2.5, 0.5 + 1j, 1e-300, 3]))
    return LogPowerTerm(coefficient, exponent, draw(st.integers(0, 3)))


@st.composite
def _expansion_input(draw):
    """(terms, location, order): terms at the centres or near them, as
    drawn, sorted by the location's key, or in the normaliser's own output."""
    location = draw(st.sampled_from(list(Location)))
    order = draw(st.sampled_from([1.0, 3.0, 50.0]))
    terms = tuple(draw(st.lists(_term(draw(st.booleans())), max_size=8)))
    arrange = draw(st.sampled_from(["as drawn", "sorted", "normal", "normal"]))
    if arrange == "sorted":
        sgn = 1.0 if location is Location.AT_ZERO else -1.0
        terms = tuple(sorted(terms, key=lambda t: (sgn * t.exponent.real, t.exponent.imag,
                                                   t.log_power)))
    elif arrange == "normal":
        try:
            terms = _normal_form(terms, location, order)
        except ValueError:
            pass
    return terms, location, order


def _outcome(build):
    """The terms build() returns as (repr coefficient, repr exponent, k), or
    its ValueError."""
    try:
        terms = build()
    except ValueError as exc:
        return ("ValueError", str(exc))
    return [(repr(t.coefficient), repr(t.exponent), t.log_power) for t in terms]


class TestNormalForm:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_expansion_input())
    def test_construction_is_the_normaliser_bit_for_bit(self, case):
        terms, location, order = case
        want = _outcome(lambda: _normal_form(terms, location, order))
        assert _outcome(lambda: AsymptoticExpansion(location, terms, order).terms) == want
        # the check accepts only what the normaliser returns as it is
        if _is_normal(terms, location, order):
            assert want == _outcome(lambda: terms)

    def test_normal_terms_are_kept_as_given(self):
        terms = (LogPowerTerm(2.0, complex(-1.0), 0), LogPowerTerm(1j, complex(-1.0), 1),
                 LogPowerTerm(-1.0, 0.5 + 0.25j, 2))
        e = AsymptoticExpansion(Location.AT_ZERO, terms, 3.0)
        assert e.terms is terms
        # a float exponent, a zero coefficient or a neighbour within
        # 2 EXPONENT_TOL sends them through the normaliser
        for bad in (LogPowerTerm(1.0, 1.0, 0), LogPowerTerm(0.0, 1 + 0j, 0),
                    LogPowerTerm(1.0, 0.5 + 1.5e-12 + 0.25j, 2)):
            assert not _is_normal(terms + (bad,), Location.AT_ZERO, 3.0)

    def test_stock_constructors_build_normal_terms(self, monkeypatch):
        # the leaves, sal's test function and the scaling need no normalising
        import conespec.expansions as expansions

        calls = []
        real = expansions._normal_form
        monkeypatch.setattr(expansions, "_normal_form",
                            lambda *args: calls.append(args) or real(*args))
        for f in (exponential_decay(), gaussian_decay(), global_monomial(-0.5 + 1j, 2),
                  cutoff_times_monomial(0.7, 1), tail_times_monomial(-0.4, 0),
                  sal.TestFunction(math.exp, (1.0, 0.0, -2.0, -0.0, 12.0))):
            scale_function(f, 2.5 - 1j)
        assert calls == []


def _assert_rounding_point(leaf):
    """A Taylor leaf subtracts its terms only on [x0, inf), where the last
    stored order |c_last| x0**p meets 2**-52 |c_first| x0**alpha_first."""
    terms = leaf.expansion_at_zero.terms
    first, last = terms[0], terms[-1]
    x0 = leaf.remainder_zero.lo
    assert abs(last.coefficient) * x0**leaf.p == pytest.approx(
        2.0**-52 * abs(first.coefficient) * x0**first.exponent.real, rel=1e-12)
    assert leaf.remainder_zero.hi == math.inf


class TestLibraryFunctions:
    def test_exponential_decay_values(self):
        f = exponential_decay()
        for x in (0.1, 1.0, 3.0):
            assert f(x) == pytest.approx(math.exp(-x), rel=1e-12)
        for j in range(5):
            assert f.expansion_at_zero.coefficient(float(j), 0) == pytest.approx(
                (-1.0) ** j / math.factorial(j)
            )

    def test_gaussian_decay_derivative(self):
        g = differentiate(gaussian_decay())
        for x in (0.3, 1.2):
            assert g(x) == pytest.approx(-2.0 * x * math.exp(-x * x), rel=1e-10)

    def test_taylor_leaf_derivatives_are_closed_forms(self):
        # n-th derivatives (-1)^n e^-x and (-1)^n H_n(x) e^-x^2, each a Taylor
        # leaf of the termwise-differentiated terms with its own x0
        hermite = {1: lambda x: 2 * x, 2: lambda x: 4 * x * x - 2,
                   3: lambda x: 8 * x**3 - 12 * x, 4: lambda x: 16 * x**4 - 48 * x * x + 12}
        e, g = exponential_decay(), gaussian_decay()
        for n in range(1, 5):
            e, g = differentiate(e), differentiate(g)
            for x in (0.3, 1.2, 3.5):
                assert e(x) == pytest.approx((-1) ** n * math.exp(-x), rel=1e-15)
                assert g(x) == pytest.approx((-1) ** n * hermite[n](x) * math.exp(-x * x),
                                             rel=1e-13)
            assert e.p == 12 - n
            assert e.expansion_at_zero.coefficient(0.0, 0) == pytest.approx((-1) ** n)
            for leaf in (e, g):
                _assert_rounding_point(leaf)

    def test_global_monomial(self):
        f = global_monomial(-1.5, 1)
        assert f.expansion_at_zero.coefficient(-1.5, 1) == pytest.approx(1.0)
        assert f.expansion_at_infinity.coefficient(-1.5, 1) == pytest.approx(1.0)
        x = 0.7
        assert f(x) == pytest.approx(x**-1.5 * math.log(x))

    def test_monomial_restricted_supports(self):
        near = monomial_restricted(-0.5, 0, support="unit_interval")
        far = monomial_restricted(-0.5, 0, support="unit_tail")
        assert near(0.5) == pytest.approx(0.5**-0.5)
        assert near(2.0) == 0.0
        assert far(0.5) == 0.0
        assert far(2.0) == pytest.approx(2.0**-0.5)
        with pytest.raises(ValueError):
            monomial_restricted(0.0, 0, support="everywhere")

    def test_cutoffs(self):
        assert smooth_cutoff(0.5) == 1.0
        assert smooth_cutoff(3.0) == 0.0
        assert 0.0 < smooth_cutoff(1.5) < 1.0
        assert smooth_step_up(0.25) == 0.0
        assert smooth_step_up(2.0) == 1.0
        # smooth transitions are monotone on a sample grid
        vals = [smooth_cutoff(x) for x in np.linspace(1.0, 2.0, 30)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestAlgebra:
    def test_add_functions(self):
        f = add_functions(exponential_decay(), global_monomial(0.0))
        assert f(1.3) == pytest.approx(math.exp(-1.3) + 1.0)
        assert f.expansion_at_zero.coefficient(0.0, 0) == pytest.approx(2.0)

    def test_add_location_mismatch_raises(self):
        a = empty_expansion(Location.AT_ZERO, 2.0)
        b = empty_expansion(Location.AT_INFINITY, 2.0)
        with pytest.raises(ValueError):
            add(a, b)

    def test_add_takes_weaker_remainder(self):
        a = empty_expansion(Location.AT_ZERO, 2.0)
        b = empty_expansion(Location.AT_ZERO, 5.0)
        assert add(a, b).remainder_order == 2.0

    def test_scale_function(self):
        f = scale_function(exponential_decay(), 3.0)
        assert f(0.4) == pytest.approx(3.0 * math.exp(-0.4))
        assert f.expansion_at_zero.coefficient(1.0, 0) == pytest.approx(-3.0)

    def test_times_monomial(self):
        f = times_monomial(exponential_decay(), -0.5, 1)
        x = 0.8
        assert f(x) == pytest.approx(x**-0.5 * math.log(x) * math.exp(-x))
        assert f.expansion_at_zero.coefficient(-0.5, 1) == pytest.approx(1.0)
        assert f.expansion_at_zero.coefficient(0.5, 1) == pytest.approx(-1.0)

    def test_substitute_power(self):
        f = substitute_power(exponential_decay(), 2.0)
        x = 0.9
        assert f(x) == pytest.approx(math.exp(-x * x))
        assert f.expansion_at_zero.coefficient(2.0, 0) == pytest.approx(-1.0)
        with pytest.raises(ValueError):
            substitute_power(exponential_decay(), 0.0)

    def test_chain_rule_carries_the_derivative(self):
        # d/dx e^(-x^2), d/dx e^(-1/x), d/dx e^(-sqrt x) and d/dx e^(-2.5x)
        # by the chain rule
        x = 0.9
        assert differentiate(substitute_power(exponential_decay(), 2.0))(x) == pytest.approx(
            -2 * x * math.exp(-x * x), rel=1e-14)
        assert differentiate(substitute_power(exponential_decay(), -1.0))(x) == pytest.approx(
            x**-2 * math.exp(-1 / x), rel=1e-14)
        assert differentiate(substitute_power(exponential_decay(), 0.5))(x) == pytest.approx(
            -0.5 * x**-0.5 * math.exp(-math.sqrt(x)), rel=1e-14)
        assert differentiate(rescale_argument(exponential_decay(), 2.5))(x) == pytest.approx(
            -2.5 * math.exp(-2.5 * x), rel=1e-14)

    def test_substitute_negative_power_swaps_locations(self):
        f = substitute_power(exponential_decay(), -1.0)
        # e^{-1/x}: flat at zero, Taylor-like in 1/x at infinity
        assert f(2.0) == pytest.approx(math.exp(-0.5))
        assert f.expansion_at_infinity.coefficient(0.0, 0) == pytest.approx(1.0)
        assert f.expansion_at_infinity.coefficient(-1.0, 0) == pytest.approx(-1.0)

    def test_substitute_power_log_factor(self):
        f = substitute_power(cutoff_times_monomial(-1.0, 1), 2.0)
        # (x^2)^{-1} log(x^2) = 2 x^{-2} log x
        assert f.expansion_at_zero.coefficient(-2.0, 1) == pytest.approx(2.0)

    def test_rescale_argument(self):
        f = rescale_argument(exponential_decay(), 2.5)
        assert f(0.7) == pytest.approx(math.exp(-1.75))
        with pytest.raises(ValueError):
            rescale_argument(exponential_decay(), -1.0)

    def test_rescale_log_binomial(self):
        lam = 3.0
        f = rescale_argument(cutoff_times_monomial(-1.0, 1), lam)
        # (lam x)^{-1} log(lam x) = lam^{-1} (x^{-1} log x + log(lam) x^{-1})
        assert f.expansion_at_zero.coefficient(-1.0, 1) == pytest.approx(1.0 / lam)
        assert f.expansion_at_zero.coefficient(-1.0, 0) == pytest.approx(
            math.log(lam) / lam
        )


class TestDerivatives:
    def test_fuchs_derivative_of_exponential(self):
        g = fuchs_derivative(exponential_decay())
        for x in (0.2, 1.0, 2.5):
            assert g(x) == pytest.approx(x * math.exp(-x), rel=1e-9)
        # -x d/dx maps a_j x^j to -j a_j x^j termwise
        for j in range(1, 4):
            assert g.expansion_at_zero.coefficient(float(j), 0) == pytest.approx(
                -j * (-1.0) ** j / math.factorial(j)
            )

    def test_differentiate_requires_a_stated_derivative(self):
        ev = lambda x: math.exp(-x)
        f = ExpandableFunction(
            ev,
            empty_expansion(Location.AT_ZERO, 1.0),
            empty_expansion(Location.AT_INFINITY, 1.0),
            Remainder(ev),
            Remainder(ev),
        )
        restricted = monomial_restricted(-0.5, 1, "unit_tail")
        for g in (f, restricted, add_functions(exponential_decay(), restricted),
                  times_monomial(f, 1.5)):
            assert g.derivative is None
            with pytest.raises(ValueError):
                differentiate(g)
        # a cutoff's derivative holds the leaf phi' x^a log^k x, which states none
        for leaf in (cutoff_times_monomial(-1.3, 1), tail_times_monomial(0.5, 2)):
            with pytest.raises(ValueError):
                differentiate(differentiate(leaf))

    def test_differentiate_log_term(self):
        g = differentiate(cutoff_times_monomial(0.0, 1))
        # d/dx log x = x^{-1}
        assert g.expansion_at_zero.coefficient(-1.0, 0) == pytest.approx(1.0)

    def test_global_monomial_derivative(self):
        # (x^a log^k x)' = a x^(a-1) log^k x + k x^(a-1) log^(k-1) x, exactly
        for a, k in ((-1.5, 1), (2.3, 2), (0.0, 0), (0.0, 1)):
            g = differentiate(global_monomial(a, k))
            assert g.remainder_zero.vanishes and g.remainder_infinity.vanishes
            for x in (0.4, 2.5):
                want = a * x ** (a - 1) * math.log(x) ** k + (
                    k * x ** (a - 1) * math.log(x) ** (k - 1) if k else 0.0)
                assert g(x) == pytest.approx(want, rel=1e-14, abs=1e-300)
            for e in (g.expansion_at_zero, g.expansion_at_infinity):
                assert e.coefficient(a - 1, k) == pytest.approx(a)
                if k:
                    assert e.coefficient(a - 1, k - 1) == pytest.approx(k)

    @pytest.mark.parametrize("leaf,lo,hi", [(smooth_cutoff, 1.0, 2.0),
                                            (smooth_step_up, 0.5, 1.0)])
    def test_cutoff_derivatives_match_mpmath(self, leaf, lo, hi):
        def exp_pair(u):
            return mpmath.exp(-1 / u), mpmath.exp(-1 / (1 - u))

        def mp_leaf(x):  # the same closed form in mpmath
            if leaf is smooth_cutoff:
                g1, g2 = exp_pair(x - 1)
                return g2 / (g1 + g2)
            g1, g2 = exp_pair(2 * x - 1)
            return g1 / (g1 + g2)

        make = cutoff_times_monomial if leaf is smooth_cutoff else tail_times_monomial
        with mpmath.workdps(30):
            for a, k in ((0.0, 0), (-1.3, 1), (0.5, 2), (2.0, 0)):
                g = differentiate(make(a, k))
                for x in np.linspace(lo, hi, 41)[1:-1]:
                    x = float(x)
                    want = complex(mpmath.diff(
                        lambda t: mp_leaf(t) * t**a * mpmath.log(t) ** k, mpmath.mpf(x)))
                    assert abs(g(x) - want) <= 1e-13 * abs(want)


class TestCertification:
    def test_certify_exponential_at_zero(self):
        # e^-x minus its 12 Taylor terms is an alternating series, bounded by
        # its first term x^12/12!; on [0.3, 1] that bound is above rounding
        f = exponential_decay()
        for x in np.linspace(0.3, 1.0, 50):
            x = float(x)
            assert abs(f.remainder_zero(x)) <= x**12 / math.factorial(12)

    def test_certify_tail_monomial_at_infinity(self):
        # (psi - 1) x^-2 vanishes on [1, inf) and is at most x^-2 below it
        f = tail_times_monomial(-2.0)
        for x in np.logspace(-3, 6, 60):
            x = float(x)
            r = abs(f.remainder_infinity(x))
            if x >= 1.0:
                assert r == 0.0
            else:
                assert r <= x**-2 * (1 + 1e-15)

    def test_truncation_error_decay_rate(self):
        # on [0.5, 2] the remainder of the 12-term Taylor expansion of e^{-x}
        # is >= 4e-13, far above double rounding (the exact slope is 11.92)
        f = exponential_decay()
        xs = np.logspace(math.log10(0.5), math.log10(2.0), 10)
        errs = [abs(f.remainder_zero(float(x))) for x in xs]
        assert min(errs) >= 4e-13
        slope = np.polyfit(np.log(xs), np.log(errs), 1)[0]
        assert slope == pytest.approx(12.0, abs=1.0)


def _termwise_derivative(e):
    """(exponent, log power) -> coefficient of the termwise derivative of e."""
    out = {}
    for t in e.terms:
        for c, k in ((t.coefficient * t.exponent, t.log_power),
                     (t.coefficient * t.log_power, t.log_power - 1)):
            if c != 0 and k >= 0:
                key = (round(t.exponent.real - 1, 9), round(t.exponent.imag, 9), k)
                out[key] = out.get(key, 0) + c
    return out


def _composites():
    cut_exp = add_functions(scale_function(cutoff_times_monomial(-1.3, 1), 1.6),
                            exponential_decay())
    tails = add_functions(scale_function(tail_times_monomial(-0.7, 2), -1.2),
                          monomial_restricted(-2.0, 1, "unit_tail"))
    monomials = add_functions(scale_function(global_monomial(-1.5, 1), 1.6),
                              scale_function(global_monomial(-2.4, 0), -0.7))
    base = {
        "cutoff+exp": cut_exp,
        "times_monomial": times_monomial(cut_exp, 0.5, 1),
        "rescaled": rescale_argument(times_monomial(cut_exp, 0.5, 1), 2.3),
        "tail+restricted": add_functions(tails, monomial_restricted(-2.0, 0, "unit_interval")),
        "rescaled tails": rescale_argument(times_monomial(tails, -0.4, 2), 0.45),
        "monomials": rescale_argument(times_monomial(monomials, 0.3, 1), 1.7),
        "squared": substitute_power(times_monomial(cut_exp, 0.5, 1), 2.0),
        "inverted": substitute_power(add_functions(cut_exp, tails), -1.0),
        "fuchs": fuchs_derivative(add_functions(
            gaussian_decay(), scale_function(exponential_decay(), -0.8))),
        "sqrt": substitute_power(scale_function(gaussian_decay(), 1.4), 0.5),
    }
    # the derivative of each that states one, named with a prime
    derivatives = {name + "'": differentiate(f) for name, f in base.items()
                   if f.derivative is not None}
    return {**base, **derivatives}


class TestCarriedRemainders:
    def test_leaf_supports(self):
        g = global_monomial(-1.5, 1)
        assert g.remainder_zero.vanishes and g.remainder_infinity.vanishes
        c = cutoff_times_monomial(-3.0, 2)
        assert (c.remainder_zero.lo, c.remainder_zero.hi) == (1.0, math.inf)
        assert (c.remainder_infinity.lo, c.remainder_infinity.hi) == (0.0, 2.0)
        t = tail_times_monomial(-3.0, 2)
        assert (t.remainder_zero.lo, t.remainder_zero.hi) == (0.5, math.inf)
        assert (t.remainder_infinity.lo, t.remainder_infinity.hi) == (0.0, 1.0)
        r = rescale_argument(scale_function(c, 1.6), 4.0)
        assert (r.remainder_zero.lo, r.remainder_infinity.hi) == (0.25, 0.5)
        # a Taylor leaf subtracts its terms only on [x0, inf), where x0 puts
        # the first omitted order |c_last| x0**p at 2**-52 |c_first| x0**alpha_first
        for leaf, c_last, p in ((exponential_decay(), 1 / math.factorial(11), 12),
                                (gaussian_decay(), 1 / math.factorial(6), 14)):
            x0 = leaf.remainder_zero.lo
            assert c_last * x0**p == pytest.approx(2.0**-52, rel=1e-12)
            assert leaf.remainder_zero.hi == math.inf
            assert (leaf.remainder_infinity.lo, leaf.remainder_infinity.hi) == (0.0, math.inf)
        x0 = exponential_decay().remainder_zero.lo
        assert x0 == pytest.approx(0.213, abs=1e-3)
        # a derivative puts x0 by the same rule on its own terms, where its
        # first omitted order meets rounding: 0.149 for (e^-x)'
        d = differentiate(exponential_decay())
        _assert_rounding_point(d)
        assert d.remainder_zero.lo == pytest.approx(0.149, abs=1e-3)
        assert (d.remainder_infinity.lo, d.remainder_infinity.hi) == (0.0, math.inf)
        # x -> x**sigma maps the supports
        sq = substitute_power(exponential_decay(), 2.0)
        assert sq.remainder_zero.lo == pytest.approx(math.sqrt(x0), rel=1e-14)
        assert sq.remainder_zero.hi == math.inf
        inv = substitute_power(exponential_decay(), -1.0)
        assert (inv.remainder_zero.lo, inv.remainder_zero.hi) == (0.0, math.inf)
        assert inv.remainder_infinity.lo == 0.0
        assert inv.remainder_infinity.hi == pytest.approx(1 / x0, rel=1e-14)

    def test_monomial_sums_stay_exact(self):
        f = _composites()["monomials"]
        assert f.remainder_zero.vanishes and f.remainder_infinity.vanishes
        # terms absorbed by a weaker remainder order join the remainder
        g = times_monomial(add_functions(global_monomial(-1.5, 0), global_monomial(6.4, 0)), 0.0, 1)
        assert not g.remainder_zero.vanishes
        assert g.remainder_zero(0.3) == pytest.approx(0.3**6.4 * math.log(0.3))

    @pytest.mark.parametrize("name", sorted(n for n in _composites() if not n.endswith("'")))
    def test_derivative_is_termwise(self, name):
        # the algebra's derivative carries the termwise derivative of each
        # expansion (orders aside), whenever the composite states one
        f = _composites()[name]
        if f.derivative is None:
            assert name in ("inverted", "rescaled tails", "tail+restricted")
            return
        g = differentiate(f)
        for e, de in ((f.expansion_at_zero, g.expansion_at_zero),
                      (f.expansion_at_infinity, g.expansion_at_infinity)):
            want = _termwise_derivative(e)
            got = {(round(t.exponent.real, 9), round(t.exponent.imag, 9), t.log_power):
                   t.coefficient for t in de.terms}
            assert set(got) == {key for key, c in want.items() if abs(c) > 1e-14}
            for key, c in got.items():
                assert abs(c - want[key]) <= 1e-12 * abs(want[key])

    @pytest.mark.parametrize("name", sorted(_composites()))
    def test_composed_remainder_matches_subtraction(self, name):
        # where f - sum of terms is well-conditioned, the carried remainder
        # agrees with it to within n eps (|f| + sum |terms|), n the count
        f = _composites()[name]
        eps = np.finfo(float).eps
        for x in np.logspace(math.log10(0.05), math.log10(4.0), 41):
            x = float(x)
            for carried, e in ((f.remainder_zero, f.expansion_at_zero),
                               (f.remainder_infinity, f.expansion_at_infinity)):
                values = [t.evaluate(x) for t in e.terms]
                n = len(values) + 1
                scale = abs(f(x)) + sum(abs(v) for v in values)
                assert abs(carried(x) - (f(x) - sum(values))) <= 4 * n * eps * scale


def _array_cases():
    """Every leaf and algebra result whose evaluators and remainders take arrays."""
    leaves = {
        "global_monomial": global_monomial(-1.3 + 0.4j, 2),
        "restricted interval": monomial_restricted(-0.5, 1, "unit_interval"),
        "restricted tail": monomial_restricted(-2.2, 0, "unit_tail"),
        "exp": exponential_decay(),
        "gauss": gaussian_decay(),
        "gauss'''": differentiate(differentiate(differentiate(gaussian_decay()))),
        "cutoff": cutoff_times_monomial(0.7, 1),
        "tail": tail_times_monomial(-0.4, 2),
        "cutoff'": differentiate(cutoff_times_monomial(-1.3, 1)),
        "tail'": differentiate(tail_times_monomial(0.5, 0)),
        "test function": exponential_decay(8),
        # a power that is neither a square nor a square root
        "power 1.5": substitute_power(cutoff_times_monomial(-0.5, 0), 1.5),
        "absorbed terms": times_monomial(
            add_functions(global_monomial(-1.5, 0), global_monomial(6.4, 0)), 0.0, 1),
    }
    return {**leaves, **_composites()}


class TestArrayContract:
    # points below, inside and above every support, ends included
    XS = np.concatenate([np.logspace(-3.0, 2.5, 40), [0.5, 1.0, 2.0, 0.149, 0.213]])

    @pytest.mark.parametrize("name", sorted(_array_cases()))
    def test_batch_equals_points_bit_for_bit(self, name):
        f = _array_cases()[name]
        for ev in (f, f.remainder_zero, f.remainder_infinity):
            batch = ev(self.XS)
            assert batch.dtype == complex and batch.shape == self.XS.shape
            for x, v in zip(self.XS, batch):
                alone = ev(float(x))
                assert isinstance(alone, complex)
                assert alone == v and np.isfinite(v), (x, alone, v)
            # any shape, batched as one flat array
            assert np.array_equal(ev(self.XS[:44].reshape(4, 11)), batch[:44].reshape(4, 11))

    def test_remainder_evaluator_sees_only_its_support(self):
        seen = []

        def ev(x):
            seen.append(x.copy())
            return np.exp(-x)

        r = Remainder(ev, 0.5, 2.0)
        v = r(self.XS)
        inside = (0.5 <= self.XS) & (self.XS <= 2.0)
        assert np.array_equal(v[~inside], np.zeros((~inside).sum()))
        assert np.array_equal(v[inside], np.exp(-self.XS[inside]))
        assert len(seen) == 1 and np.array_equal(seen[0], self.XS[inside])
        # no point in the support: no call at all
        assert r(np.array([0.1, 3.0])).tolist() == [0j, 0j]
        assert len(seen) == 1

    def test_steps_take_arrays(self):
        xs = np.linspace(0.0, 3.0, 61)
        for step in (smooth_cutoff, smooth_step_up):
            batch = step(xs)
            assert batch.dtype == float
            assert [step(float(x)) for x in xs] == batch.tolist()


def _minus_in_turn(v, e, x):
    """v minus each of e's terms in turn: the reference for _minus_terms."""
    lx = np.log(x)
    for t in e.terms:
        term = t.coefficient * np.power(x, t.exponent)
        v = v - (term * lx**t.log_power if t.log_power else term)
    return v


def _assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


_finite = st.floats(-4.0, 4.0, allow_nan=False)


class TestMinusTerms:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(_finite, _finite, _finite, _finite, st.integers(0, 4)),
                    min_size=1, max_size=14),
           st.integers(0, 2**32 - 1))
    def test_block_is_the_loop_bit_for_bit(self, rows, seed):
        terms = tuple(LogPowerTerm(complex(a, b), complex(c, d), k) for a, b, c, d, k in rows)
        e = AsymptoticExpansion(Location.AT_ZERO, terms, 10.0)
        rng = np.random.default_rng(seed)
        x = np.exp(rng.uniform(-5.0, 5.0, int(rng.integers(1, 50))))
        for v in (rng.normal(size=x.size), rng.normal(size=x.size) + 1j * rng.normal(size=x.size)):
            _assert_bits_equal(_minus_terms(v, e, x), _minus_in_turn(v, e, x))

    @pytest.mark.parametrize("name", sorted(_array_cases()))
    def test_leaves_bit_for_bit(self, name):
        f = _array_cases()[name]
        x = np.logspace(-3.0, 2.0, 37)
        for e in (f.expansion_at_zero, f.expansion_at_infinity):
            _assert_bits_equal(_minus_terms(f(x), e, x), _minus_in_turn(f(x), e, x))
