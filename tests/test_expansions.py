"""Tests for the log-power expansion algebra."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conespec.expansions import (
    AsymptoticExpansion,
    ExpandableFunction,
    Location,
    LogPowerTerm,
    Remainder,
    add,
    add_functions,
    certify_remainder,
    cutoff_times_monomial,
    differentiate,
    empty_expansion,
    evaluate_truncated,
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


class TestAsymptoticExpansion:
    def test_merges_nearby_exponents(self):
        e = AsymptoticExpansion(
            Location.AT_ZERO,
            (LogPowerTerm(1.0, 0.5, 0), LogPowerTerm(2.0, 0.5 + 1e-14, 0)),
            2.0,
        )
        assert len(e.terms) == 1
        assert e.coefficient(0.5, 0) == pytest.approx(3.0)

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

    def test_evaluate_truncated_rejects_nonpositive(self):
        e = empty_expansion(Location.AT_ZERO, 2.0)
        with pytest.raises(ValueError):
            evaluate_truncated(e, 0.0)
        with pytest.raises(ValueError):
            evaluate_truncated(e, -1.0)

    def test_json_round_trip(self):
        e = AsymptoticExpansion(
            Location.AT_INFINITY,
            (LogPowerTerm(1.5 + 0.5j, -1.0 + 2.0j, 2),),
            3.0,
        )
        e2 = AsymptoticExpansion.from_json_dict(e.to_json_dict())
        assert e2.location is Location.AT_INFINITY
        assert e2.remainder_order == e.remainder_order
        assert e2.terms == e.terms


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

    def test_differentiate_requires_flag(self):
        ev = lambda x: math.exp(-x)
        f = ExpandableFunction(
            ev,
            empty_expansion(Location.AT_ZERO, 1.0),
            empty_expansion(Location.AT_INFINITY, 1.0),
            Remainder(ev),
            Remainder(ev),
            differentiable=False,
        )
        with pytest.raises(ValueError):
            differentiate(f)

    def test_differentiate_log_term(self):
        g = differentiate(replace(cutoff_times_monomial(0.0, 1), differentiable=True))
        # d/dx log x = x^{-1}
        assert g.expansion_at_zero.coefficient(-1.0, 0) == pytest.approx(1.0)


class TestCertification:
    def test_certify_exponential_at_zero(self):
        # sample above the cancellation floor for a 12th-order remainder
        sup = certify_remainder(exponential_decay(), Location.AT_ZERO, lo=0.3, hi=1.0)
        assert sup <= 1.0 / math.factorial(12) * 2.0

    def test_certify_tail_monomial_at_infinity(self):
        assert certify_remainder(tail_times_monomial(-2.0), Location.AT_INFINITY) < 10.0

    def test_truncation_error_decay_rate(self):
        # on [0.5, 2] the remainder of the 12-term Taylor expansion of e^{-x}
        # is >= 4e-13, far above double rounding (the exact slope is 11.92)
        f = exponential_decay()
        xs = np.logspace(math.log10(0.5), math.log10(2.0), 10)
        errs = [abs(f.remainder_at_zero(float(x))) for x in xs]
        assert min(errs) >= 4e-13
        slope = np.polyfit(np.log(xs), np.log(errs), 1)[0]
        assert slope == pytest.approx(12.0, abs=1.0)


def _composites():
    cut_exp = add_functions(scale_function(cutoff_times_monomial(-1.3, 1), 1.6),
                            exponential_decay())
    tails = add_functions(scale_function(tail_times_monomial(-0.7, 2), -1.2),
                          monomial_restricted(-2.0, 1, "unit_tail"))
    monomials = add_functions(scale_function(global_monomial(-1.5, 1), 1.6),
                              scale_function(global_monomial(-2.4, 0), -0.7))
    return {
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
    }


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
        # derivatives keep the supports, x -> x**sigma maps them
        d = differentiate(exponential_decay())
        assert (d.remainder_zero.lo, d.remainder_zero.hi) == (x0, math.inf)
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
        assert g.remainder_at_zero(0.3) == pytest.approx(0.3**6.4 * math.log(0.3))

    @pytest.mark.parametrize("name", sorted(_composites()))
    def test_composed_remainder_matches_subtraction(self, name):
        # where f - sum of terms is well-conditioned, the carried remainder
        # agrees with it to within n eps (|f| + sum |terms|), n the count
        f = _composites()[name]
        eps = np.finfo(float).eps
        for x in np.logspace(math.log10(0.05), math.log10(4.0), 41):
            x = float(x)
            for carried, e in ((f.remainder_at_zero, f.expansion_at_zero),
                               (f.remainder_at_infinity, f.expansion_at_infinity)):
                values = [t.evaluate(x) for t in e.terms]
                n = len(values) + 1
                scale = abs(f(x)) + sum(abs(v) for v in values)
                assert abs(carried(x) - (f(x) - sum(values))) <= 4 * n * eps * scale
