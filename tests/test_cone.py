"""Tests for cone heat kernels, zeta/eta functions, residues and heat traces."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma as sc_gamma

from dirichlet_checks import continuation_consistency

from conespec import cli, cone, specfun
from conespec.cone import (
    ConeError,
    CrossSectionSpectrum,
    FirstOrderSpectrum,
    ShiftedIntegerEtaProvider,
    SpectralDatum,
    _split_terms,
    eta_alpha_constant,
    eta_function_scalable,
    eta_hat_residues,
    gamma_zeta_hat,
    heat_kernel_lp,
    heat_trace_expansion,
    index_first_order,
    k_trace_lp,
    k_trace_operator,
    laurent_fit,
    residues_at_zero,
    scalar_interior_coefficients,
    zeta_hat_lp,
    zeta_hat_operator,
    zeta_hat_operator_report,
)
from conespec.specfun import (
    HurwitzZetaProvider,
    PowerShiftSquaredProvider,
    RiemannZetaProvider,
    SpecfunError,
    digamma,
    gamma_ratio_expansion,
    log_gamma,
)

SQRT_PI = math.sqrt(math.pi)


def circle_spectrum() -> CrossSectionSpectrum:
    """Laplacian of the unit circle: eigenvalues j^2 with weight 2."""
    return CrossSectionSpectrum(data=(), tail=RiemannZetaProvider(2.0, 2.0))


class TestHeatKernel:
    def test_dirichlet_half_line_closed_form(self):
        # at p = 1/2 the kernel is the image kernel of the Dirichlet half line
        for t in (0.05, 0.5):
            for x, y in [(0.5, 0.5), (1.0, 1.8), (2.0, 0.3)]:
                expected = (
                    math.exp(-((x - y) ** 2) / (4 * t))
                    - math.exp(-((x + y) ** 2) / (4 * t))
                ) / (2.0 * math.sqrt(math.pi * t))
                assert heat_kernel_lp(0.5, t, x, y) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        assert heat_kernel_lp(2.5, 0.3, 0.7, 1.9) == pytest.approx(
            heat_kernel_lp(2.5, 0.3, 1.9, 0.7), rel=1e-13
        )

    def test_scaling_law(self):
        # K(t, x, x) = x^{-1} k(t x^{-2}) on a (t, x) grid
        for p in (0.5, 1.0, 2.5):
            for t in (1e-3, 1e-2, 0.1, 1.0):
                for x in (0.2, 1.0, 3.0):
                    lhs = heat_kernel_lp(p, t, x, x)
                    rhs = k_trace_lp(p, t / (x * x)) / x
                    assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_semigroup_property(self):
        p, t, s_, x, y = 1.0, 0.4, 0.3, 0.9, 1.4
        val, _ = quad(
            lambda z: heat_kernel_lp(p, t, x, z) * heat_kernel_lp(p, s_, z, y),
            0,
            30,
            limit=200,
        )
        assert val == pytest.approx(heat_kernel_lp(p, t + s_, x, y), rel=1e-8)

    def test_domain_guards(self):
        with pytest.raises(ConeError):
            heat_kernel_lp(0.5, -1.0, 1.0, 1.0)
        for t in (0.0, -1.0, math.nan, [0.1, 0.0], np.array([0.1, math.nan])):
            with pytest.raises(ConeError):
                k_trace_lp(0.5, t)

    def test_fiber_trace_broadcasts(self):
        ps = np.array([-0.5, 0.0, 0.5, 1.0, 2.5, 40.0])
        ts = np.array([1e-4, 1e-2, 0.1, 1.0, 7.0])
        got = k_trace_lp(ps[:, None], ts)
        want = [[k_trace_lp(float(p), float(t)) for t in ts] for p in ps]
        assert np.array_equal(got, np.array(want))
        assert type(k_trace_lp(0.5, 0.1)) is float

    def test_small_time_fiber_trace(self):
        # k(t) = (4 pi t)^{-1/2} (1 - (4p^2-1) t/4 + O(t^2))
        p, t = 1.5, 1e-4
        lead = 1.0 / math.sqrt(4.0 * math.pi * t)
        expected = lead * (1.0 - (4.0 * p * p - 1.0) * t / 4.0)
        assert k_trace_lp(p, t) == pytest.approx(expected, rel=1e-6)


class TestZetaHatLp:
    def test_normalization_at_one(self):
        assert zeta_hat_lp(0.5, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_closed_form(self):
        p, s = 2.5, 1.2 + 0.3j
        expected = (
            complex(sc_gamma(s - 0.5))
            * complex(sc_gamma(p + 1 - s))
            / (complex(sc_gamma(s)) * complex(sc_gamma(p + s)))
            / (2.0 * SQRT_PI)
        )
        assert zeta_hat_lp(p, s) == pytest.approx(expected, rel=1e-12)

    def test_poles_raise(self):
        with pytest.raises(ConeError):
            zeta_hat_lp(0.5, 0.5)
        with pytest.raises(ConeError):
            zeta_hat_lp(1.0, 2.0)  # Gamma(p+1-s) pole
        with pytest.raises(ConeError):
            zeta_hat_lp(-1.5, 1.0)

    def test_trivial_zeros(self):
        assert zeta_hat_lp(0.5, 0.0) == 0.0
        assert zeta_hat_lp(0.5, -1.0) == 0.0

    def test_real_s_gives_a_real_value(self):
        # p + 1 - s < 0: the k pi in the imaginary parts of the log-Gammas
        # cancelled only to rounding (-3.1e-16 at p = 0, s = 1.2)
        ps, ss = np.array([0.0, 0.5, 1.2]), np.array([1.2, 1.7, complex(-2.9, -0.0)])
        for got in (zeta_hat_lp(ps, ss), [zeta_hat_lp(float(p), s) for p, s in zip(ps, ss)]):
            for p, s, v in zip(ps, ss, got):
                want = (sc_gamma(s.real - 0.5) * sc_gamma(p + 1 - s.real)
                        / (sc_gamma(s.real) * sc_gamma(p + s.real) * 2.0 * SQRT_PI))
                assert v.real == pytest.approx(want, rel=1e-12)
                assert math.copysign(1.0, v.imag) == 1.0 and v.imag == 0.0

    def test_non_finite_arguments_raise(self):
        for p, s in [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan),
                     (0.5, complex(1.0, math.inf)), (0.5, -math.inf)]:
            with pytest.raises(ConeError, match="finite"):
                zeta_hat_lp(p, s)
            with pytest.raises(ConeError, match="finite"):
                zeta_hat_lp(np.array([0.5, p]), np.array([1.0, s]))

    def test_scalars_return_python_complex(self):
        assert type(zeta_hat_lp(0.5, 1.0)) is complex
        assert type(zeta_hat_lp(np.float64(0.5), np.complex128(1.0))) is complex
        assert type(zeta_hat_lp(np.array(0.5), 1.0)) is complex

    @staticmethod
    def assert_bits_equal(got, want):
        # ==, and the sign of every zero part
        got, want = (np.ascontiguousarray(v, dtype=complex) for v in (got, want))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def scalar_loop(self, ps, ss):
        return [zeta_hat_lp(float(p), complex(s)) for p, s in zip(ps, ss)]

    def test_array_matches_scalar_loop_on_p_grid(self):
        # zeros at s in {0, -2} and at p + s = -1, -2 (p = 0.7, -0.3 with
        # s = -1.7); s = 250.3 + 1j at large p underflows to +-0
        ps = np.concatenate([np.linspace(-0.95, 60.0, 1001), [0.7, -0.3, 2.0]])
        ss = [0.8, 1.3 - 0.4j, complex(0.3, -0.0), complex(-1.7, -0.0), -2.0, 0.0,
              25.3 + 2.0j, 250.3 + 1.0j]
        grid = zeta_hat_lp(ps[:, None], np.array(ss)[None, :])
        for j, s in enumerate(ss):
            want = self.scalar_loop(ps, [s] * len(ps))
            self.assert_bits_equal(grid[:, j], want)
            self.assert_bits_equal(zeta_hat_lp(ps, s), want)
        assert np.count_nonzero(grid == 0) > 2 * len(ps)
        # |value| ~ 1e307, where cmath.exp rescales against overflow
        ps, s = np.linspace(0.3, 0.7, 41), -98.3 + 0.3j
        self.assert_bits_equal(zeta_hat_lp(ps, s), self.scalar_loop(ps, [s] * len(ps)))

    def test_s_only_factors_run_on_the_shape_of_s(self, monkeypatch):
        shapes = []
        real = cone.loggamma

        def recording(z):
            # the scalar path calls loggamma on Python complex numbers
            if type(z) is not complex:
                shapes.append(np.shape(z))
            return real(z)

        monkeypatch.setattr(cone, "loggamma", recording)
        ps = np.linspace(0.3, 0.7, 41)
        # s = 0 and -2 are zeros of 1/Gamma(s); at s = -98.3 + 0.3j the
        # value is ~1e307, where |Re log v| > 708: both take the scalar path
        for s in (0.8, 0.0, -2.0, -98.3 + 0.3j):
            shapes.clear()
            got = zeta_hat_lp(ps, s)
            assert shapes == [(), ps.shape, (), ps.shape]
            self.assert_bits_equal(got, self.scalar_loop(ps, [s] * len(ps)))
        ss = np.array([0.8, 0.0, -2.0, -98.3 + 0.3j, 1.3 - 0.4j])
        shapes.clear()
        grid = zeta_hat_lp(ps[:, None], ss[None, :])
        assert shapes == [(1, 5), (41, 5), (1, 5), (41, 5)]
        for j, s in enumerate(ss):
            self.assert_bits_equal(grid[:, j], self.scalar_loop(ps, [s] * len(ps)))

    def test_array_matches_scalar_loop_on_s_re_grid(self):
        # p = 1.2: zeros at s = 0, -1, -2, -3 and p + s = 0, -1; poles at
        # s = 1/2 - n and s = 2.2 + n are left out
        s_re = [-3.0, -2.2, -2.0, -1.2, -1.0, -0.2, 0.0, 0.3, 0.8, 1.9, 2.1]
        s_re += list(np.linspace(0.55, 2.15, 400))
        for s_im in (0.0, -0.0, 0.7):
            ss = np.array([complex(v, s_im) for v in s_re])
            got = zeta_hat_lp(np.full(len(ss), 1.2), ss)
            self.assert_bits_equal(got, self.scalar_loop([1.2] * len(ss), ss))
            assert np.count_nonzero(got == 0) == (6 if s_im == 0 else 0)

    @given(
        st.lists(
            st.tuples(
                st.floats(-1.0, 60.0, exclude_min=True),
                st.floats(-40.0, 40.0),
                st.floats(-40.0, 40.0),
            ),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_array_matches_scalar_sweep(self, points):
        ps = [p for p, _, _ in points]
        ss = [complex(re, im) for _, re, im in points]
        try:
            want = self.scalar_loop(ps, ss)
        except ConeError:
            assume(False)
        self.assert_bits_equal(zeta_hat_lp(np.array(ps), np.array(ss)), want)

    def test_array_raises_for_first_bad_point(self):
        # index 1 is the pole Gamma(p+1-s) at p = 1, s = 2; index 2 has p <= -1
        ps = np.array([0.5, 1.0, -1.5, 0.7])
        with pytest.raises(ConeError) as scalar_err:
            zeta_hat_lp(1.0, 2.0)
        with pytest.raises(ConeError) as array_err:
            zeta_hat_lp(ps, 2.0)
        assert str(array_err.value) == str(scalar_err.value)
        with pytest.raises(ConeError, match="exceed -1"):
            zeta_hat_lp(ps[[0, 2, 1]], 2.0)
        with pytest.raises(ConeError, match="pole"):
            zeta_hat_lp(1.5, np.array([0.8, 0.5, -0.5]))


class TestSpectrumData:
    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ConeError):
            CrossSectionSpectrum(data=(SpectralDatum(-1.0, 1.0),))

    @pytest.mark.parametrize(
        "lam, weight",
        [
            (math.nan, 1.0),
            (math.inf, 1.0),
            (1.0, complex(math.nan, 0.0)),
            (1.0, complex(1.0, -math.inf)),
        ],
    )
    def test_non_finite_data_rejected(self, lam, weight):
        with pytest.raises(ConeError):
            SpectralDatum(lam, weight)
        weight = complex(weight)
        entry = {"lambda": lam, "weight_re": weight.real, "weight_im": weight.imag}
        # the CLI's readers refuse the payload and name the field
        with pytest.raises(ValueError, match=r"^spectrum\.data\[0\]\.\w+ must be finite"):
            cli._cross_section({"data": [entry]}, "spectrum")
        with pytest.raises(ValueError, match=r"^s_data\[0\]\.\w+ must be finite"):
            cli._first_order({"s_data": [entry]})

    def test_p_overrides_must_align(self):
        with pytest.raises(ConeError):
            CrossSectionSpectrum(
                data=(SpectralDatum(1.0, 1.0),), p_overrides=(1.0, 2.0)
            )

    def test_negative_below_selects_sign(self):
        spec = CrossSectionSpectrum(
            data=(SpectralDatum(0.25, 1.0), SpectralDatum(4.0, 1.0)),
            negative_below=1.0,
        )
        assert spec.p_of(0) == pytest.approx(-0.5)
        assert spec.p_of(1) == pytest.approx(2.0)

    def test_zeta_a_union_semantics(self):
        # a datum matching the provider enumeration is not double counted
        spec = CrossSectionSpectrum(
            data=(SpectralDatum(4.0, 2.0), SpectralDatum(2.25, 1.0)),
            tail=RiemannZetaProvider(2.0, 2.0),
        )
        z = 2.0
        from conespec.specfun import riemann_zeta

        expected = 2.0 * riemann_zeta(2 * z) + 2.25 ** (-z)
        assert spec.zeta_a(z) == pytest.approx(expected, rel=1e-12)

    def test_weight_disagreement_raises(self):
        spec = CrossSectionSpectrum(
            data=(SpectralDatum(4.0, 3.0),), tail=RiemannZetaProvider(2.0, 2.0)
        )
        with pytest.raises(ConeError):
            zeta_hat_operator(spec, 1.6)
        with pytest.raises(ConeError):
            spec.zeta_a(2.0)
        with pytest.raises(ConeError):
            residues_at_zero(spec)

    def test_json_round_trip_with_tail(self):
        # the CLI's reader carries every field of the payload into the spectrum
        d = {
            "data": [{"lambda": 0.25, "weight_re": 1.0, "weight_im": -0.5}],
            "tail": {"kind": "riemann", "scale": 2},
            "p_choice": {"negative_below": 1.0},
        }
        spec = cli._cross_section(d, "")
        assert spec.negative_below == 1.0
        assert spec.data == (SpectralDatum(0.25, 1.0 - 0.5j),)
        assert type(spec.tail) is RiemannZetaProvider
        assert (spec.tail.scale, spec.tail.exponent) == (2.0, 2.0)
        tail = {"kind": "hurwitz", "a": 0.7, "scale": 1.5, "exponent": 2.3}
        spec = cli._cross_section({"data": [], "tail": tail}, "")
        assert (spec.tail.a, spec.tail.scale, spec.tail.exponent) == (0.7, 1.5, 2.3)
        assert cli._cross_section({}, "").tail is None

    def test_json_unknown_tail_kind(self):
        with pytest.raises(ValueError, match=r"^spectrum\.tail\.kind must be one of"):
            cli._cross_section({"data": [], "tail": {"kind": "x"}}, "spectrum")

    def test_json_tail_kinds_per_spectrum(self):
        # one reader; each spectrum keeps its own tail kinds and default exponent
        riemann = {"kind": "riemann", "scale": 2}
        cross = cli._cross_section({"tail": riemann}, "")
        first = cli._first_order({"eta_tail": riemann})
        assert type(cross.tail) is type(first.eta_provider) is RiemannZetaProvider
        assert (cross.tail.scale, cross.tail.exponent) == (2.0, 2.0)
        assert (first.eta_provider.scale, first.eta_provider.exponent) == (2.0, 1.0)
        hurwitz = cli._cross_section({"tail": {"kind": "hurwitz", "a": 0.5}}, "")
        assert (hurwitz.tail.a, hurwitz.tail.exponent) == (0.5, 2.0)
        shifted = {"kind": "shifted-integer", "a": 0.3}
        eta = cli._first_order(
            {"s_data": [{"lambda": -0.7, "weight_re": 2.0}], "eta_tail": shifted}
        )
        assert isinstance(eta.eta_provider, ShiftedIntegerEtaProvider)
        assert eta.s_data == (SpectralDatum(-0.7, 2.0),)
        assert cli._first_order({}).eta_provider is None
        with pytest.raises(ValueError, match=r"^tail\.kind must be one of"):
            cli._cross_section({"tail": shifted}, "")
        with pytest.raises(ValueError, match=r"^eta_tail\.kind must be one of"):
            cli._first_order({"eta_tail": {"kind": "hurwitz", "a": 0.5}})


class TestZetaHatOperator:
    def test_single_eigenvalue_reduces_to_fiber(self):
        spec = CrossSectionSpectrum(data=(SpectralDatum(2.25, 1.5),))
        for s in (0.8, 1.3, 2.0 + 1.0j):
            assert zeta_hat_operator(spec, s) == pytest.approx(
                1.5 * zeta_hat_lp(1.5, s), rel=1e-12
            )

    def test_zero_eigenvalue_uses_order_zero(self):
        spec = CrossSectionSpectrum(data=(SpectralDatum(0.0, 1.0),))
        assert zeta_hat_operator(spec, 0.8) == pytest.approx(
            zeta_hat_lp(0.0, 0.8), rel=1e-12
        )

    def test_circle_against_partial_sums(self):
        spec = circle_spectrum()
        s = 1.6
        n_terms = 20000
        direct = sum(
            2.0 * math.exp(math.lgamma(j + 1 - s) - math.lgamma(j + s))
            for j in range(1, n_terms)
        )
        # integral estimate of the tail of the p^{1-2s} decay
        direct += 2.0 * n_terms ** (2.0 - 2.0 * s) / (2.0 * s - 2.0)
        pref = (
            sc_gamma(s - 0.5) / sc_gamma(s) / (2.0 * SQRT_PI)
        )
        assert zeta_hat_operator(spec, s) == pytest.approx(pref * direct, rel=1e-6)

    @staticmethod
    def _fold_per_shift(spec, s, order=6, head_threshold=8.0):
        """zeta-hat by the Gamma-ratio fold one shift at a time: a scalar
        provider call and a scalar head sum per z_k, and the head's Gamma
        quotients term by term.  Also returns the sum of the magnitudes of
        everything added, the scale of its rounding."""
        s = complex(s)
        lam_head = max([head_threshold**2] + [d.eigenvalue for d in spec.data])
        head = spec.tail.terms_below(lam_head * (1 + 1e-9) + 1e-12)
        _, remaining = _split_terms([(d.weight, d.eigenvalue) for d in spec.data], head)
        explicit = [(d.weight, spec.p_of(i)) for i, d in enumerate(spec.data)]
        explicit += [(w, math.sqrt(lam)) for w, lam in remaining]
        terms = [w * cmath.exp(log_gamma(p + 1 - s) - log_gamma(p + s)) for w, p in explicit]
        total, scale = sum(terms), sum(map(abs, terms))
        for k, qk in enumerate(gamma_ratio_expansion(order).q_polys):
            if qk:
                z = (2 * s - 1 + k) / 2
                head_terms = [w * complex(lam) ** -z for w, lam in head]
                zeta, q = spec.tail.zeta(z), sum(float(c) * s**d for d, c in enumerate(qk))
                total += q * (zeta - sum(head_terms))
                scale += abs(q) * (abs(zeta) + sum(map(abs, head_terms)))
        pref = sc_gamma(s - 0.5) / sc_gamma(s) / (2.0 * SQRT_PI)
        return pref * total, abs(pref) * scale

    def test_batched_fold_matches_the_per_shift_loop(self):
        # to 1e-12 relative, or, where zeta(z_k) and the head sum cancel (at
        # order 10 and s = 2.3-4i the summands reach 1e9 times the value), to
        # a few roundings of the summands
        hurwitz = CrossSectionSpectrum(
            data=(SpectralDatum(0.25, 1.0), SpectralDatum(3.0, 2.0), SpectralDatum(90.0, 0.5)),
            tail=HurwitzZetaProvider(1.5, 1.0, 2.0), negative_below=0.5)
        for spec in (circle_spectrum(), hurwitz,
                     CrossSectionSpectrum(data=(), tail=PowerShiftSquaredProvider(1.0 / 3.0, 0.3))):
            for s in (0.5 + 0.3j, 0.7 + 1.1j, 1.6, 2.3 - 4.0j, 0.9 + 12.0j):
                for order in (2, 6, 10):
                    want, scale = self._fold_per_shift(spec, s, order)
                    got = zeta_hat_operator(spec, s, order=order)
                    assert abs(got - want) <= max(1e-12 * abs(want), 2e-15 * scale), (s, order)

    def test_explicit_head_pole_zero_and_overflow_rules(self):
        # a Gamma(p+1-s) pole raises at the first pair in order (p = 2, then 1)
        spec = CrossSectionSpectrum(data=(SpectralDatum(4.0, 1.0), SpectralDatum(1.0, 1.0)))
        with pytest.raises(ConeError, match="p=2.0"):
            zeta_hat_operator(spec, 3.0)
        # a reciprocal-Gamma zero, p + s = 0, adds nothing
        lone = CrossSectionSpectrum(data=(SpectralDatum(2.25, 1.0),))
        both = CrossSectionSpectrum(data=(SpectralDatum(0.09, 1.0), SpectralDatum(2.25, 1.0)))
        assert zeta_hat_operator(both, -0.3) == pytest.approx(zeta_hat_operator(lone, -0.3),
                                                              rel=1e-15)
        # Gamma(401.25)/Gamma(-200.25) overflows: the quotient raises as cmath.exp does
        big = CrossSectionSpectrum(data=(SpectralDatum(1e4, 1.0),))
        with pytest.raises(OverflowError):
            zeta_hat_operator(big, -300.25)

    def test_head_threshold_independence(self, monkeypatch):
        spec = circle_spectrum()
        assert cone._HEAD_THRESHOLD == 8.0
        a = zeta_hat_operator(spec, 1.6)
        monkeypatch.setattr(cone, "_HEAD_THRESHOLD", 20.0)
        b = zeta_hat_operator(spec, 1.6)
        assert a == pytest.approx(b, rel=1e-10)

    def test_integer_orders_against_direct_sum(self):
        # eigenvalues j^2, weight 1: the Gamma-quotient sum has orders p = j
        spec = CrossSectionSpectrum(data=(), tail=RiemannZetaProvider(1.0, 2.0))
        s = 2.5
        direct = sum(
            float(mpmath.gamma(j - s + 1) / mpmath.gamma(j + s))
            for j in range(1, 12000)
        )
        pref = sc_gamma(s - 0.5) / sc_gamma(s) / (2.0 * SQRT_PI)
        assert zeta_hat_operator(spec, s) == pytest.approx(pref * direct, rel=1e-8)

    def test_provider_pole_collision_raises(self):
        with pytest.raises(ConeError):
            zeta_hat_operator(circle_spectrum(), 1.0)

    def test_integer_orders_pole_collision_raises(self):
        # eigenvalues j^2, weight 1: (2s - 1 + k)/2 hits the provider pole
        # at 1/2 for s = 1, k = 0
        spec = CrossSectionSpectrum(data=(), tail=RiemannZetaProvider(1.0, 2.0))
        with pytest.raises(ConeError):
            zeta_hat_operator(spec, 1.0)

    def test_half_integer_poles_raise(self):
        for s in (0.5, -0.5, -2.5):
            with pytest.raises(ConeError):
                zeta_hat_operator(circle_spectrum(), s)
            with pytest.raises(ConeError):
                zeta_hat_operator_report(circle_spectrum(), s)

    def test_pole_sampling_near_half(self):
        # (s - 1/2) zeta_hat stays bounded and stabilizes approaching the pole
        spec = circle_spectrum()
        r1 = 1e-2 * zeta_hat_operator(spec, 0.5 + 1e-2)
        r2 = 1e-3 * zeta_hat_operator(spec, 0.5 + 1e-3)
        assert abs(r2) < 10.0
        assert r1 == pytest.approx(r2, rel=0.05)

    def test_report_error_estimate(self):
        rep = zeta_hat_operator_report(circle_spectrum(), 1.6)
        assert rep["value"] == pytest.approx(
            zeta_hat_operator(circle_spectrum(), 1.6), rel=1e-13
        )
        assert 0 <= rep["error_estimate"] < 1e-6



def _bits(values) -> bytes:
    """The bytes of complex values, so that equality is bit for bit."""
    return np.asarray(values, dtype=complex).tobytes()


def _random_tail(rng, kind):
    if kind == "riemann":
        return RiemannZetaProvider(rng.uniform(0.5, 3.0), rng.uniform(1.5, 3.0))
    if kind == "hurwitz":
        return HurwitzZetaProvider(rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0), rng.uniform(1.5, 3.0))
    if kind == "power-shift":
        return PowerShiftSquaredProvider(rng.uniform(0.3, 1.0), rng.uniform(-0.6, 0.6))
    return ShiftedIntegerEtaProvider(rng.uniform(0.05, 0.95))


def _random_cross_spectrum(rng, kind) -> CrossSectionSpectrum:
    """A tail with free data and with data on some of its own terms."""
    tail = _random_tail(rng, kind)
    data = [SpectralDatum(float(rng.uniform(0.0, 90.0)),
                          complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)))
            for _ in range(rng.integers(0, 5))]
    head = tail.terms_below(40.0)
    for j in rng.choice(len(head), size=min(2, len(head)), replace=False):
        w, v = head[j]
        data.append(SpectralDatum(v, complex(w)))
    return CrossSectionSpectrum(data=tuple(data), tail=tail, negative_below=rng.uniform(0.0, 0.5))


def _random_points(rng, n) -> np.ndarray:
    """Real and complex s off the poles."""
    re = rng.uniform(-1.4, 3.4, n)
    return re + 1j * rng.uniform(-8.0, 8.0, n) * rng.integers(0, 2, n)


def _first_error(fn, points):
    """The error of fn at the first point where it raises."""
    for x in points:
        try:
            fn(complex(x))
        except Exception as exc:
            return exc
    raise AssertionError("no point raises")


class TestBatchedFold:
    KINDS = ("riemann", "hurwitz", "power-shift", "shifted-integer")

    @pytest.mark.parametrize("kind", KINDS)
    def test_zeta_hat_elements_equal_their_scalar_calls(self, kind):
        rng = np.random.default_rng(self.KINDS.index(kind) + 1)
        for _ in range(6):
            spec = _random_cross_spectrum(rng, kind)
            s = _random_points(rng, 7)
            report = zeta_hat_operator_report(spec, s)
            # the same spectrum, and a new one whose plan is built by the call
            for other in (spec, CrossSectionSpectrum(spec.data, spec.tail, spec.negative_below)):
                alone = [zeta_hat_operator_report(other, complex(x)) for x in s]
                assert _bits(report["value"]) == _bits([r["value"] for r in alone])
                assert report["error_estimate"].tobytes() == np.array(
                    [r["error_estimate"] for r in alone]).tobytes()
            assert _bits(zeta_hat_operator(spec, s)) == _bits(report["value"])
            assert _bits(gamma_zeta_hat(spec, s)) == _bits(
                [gamma_zeta_hat(spec, complex(x)) for x in s])

    @pytest.mark.parametrize("kind", ("riemann", "power-shift", "shifted-integer"))
    def test_eta_elements_equal_their_scalar_calls(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(6):
            if kind == "power-shift":
                g = rng.uniform(0.3, 1.0)
                plus, minus = PowerShiftSquaredProvider(g, 0.5), PowerShiftSquaredProvider(g, -0.5)
            else:
                plus, minus = _random_tail(rng, "hurwitz"), _random_tail(rng, "riemann")
            spec = FirstOrderSpectrum(
                s_data=tuple(SpectralDatum(float(x), rng.choice([1.0, 2.0]))
                             for x in rng.uniform(-3.0, 3.0, rng.integers(0, 5))),
                eta_provider=_random_tail(rng, kind), a_plus_tail=plus, a_minus_tail=minus)
            s = _random_points(rng, 6)
            got = eta_function_scalable(spec, s)
            assert _bits(got) == _bits([eta_function_scalable(spec, complex(x)) for x in s])

    def test_scalars_and_shapes(self):
        spec = circle_spectrum()
        value = zeta_hat_operator(spec, 1.6)
        assert type(value) is complex and type(gamma_zeta_hat(spec, 1.6)) is complex
        assert type(zeta_hat_operator_report(spec, 1.6)["error_estimate"]) is float
        grid = np.array([[1.6, 2.0 + 1.0j], [0.7 - 3.0j, 2.5]])
        got = zeta_hat_operator(spec, grid)
        assert got.shape == grid.shape
        assert _bits(got) == _bits([[zeta_hat_operator(spec, complex(x)) for x in row]
                                    for row in grid])

    def test_point_order_does_not_change_values(self):
        rng = np.random.default_rng(11)
        for kind in self.KINDS:
            spec = _random_cross_spectrum(rng, kind)
            s = _random_points(rng, 9)
            perm = rng.permutation(len(s))
            assert _bits(zeta_hat_operator(spec, s[perm])) == _bits(zeta_hat_operator(spec, s)[perm])
            assert _bits(gamma_zeta_hat(spec, s[::-1])) == _bits(gamma_zeta_hat(spec, s)[::-1])

    def test_batch_raises_the_error_of_its_first_bad_point(self):
        circle = circle_spectrum()
        # s = 1 puts z_0 = 1/2 on the provider pole, -1/2 is a pole of zeta-hat,
        # p = 2 meets Gamma(p+1-s) at s = 3, and Gamma(1e2+1-s) overflows at s = -300.25
        heads = CrossSectionSpectrum(data=(SpectralDatum(1e4, 1.0), SpectralDatum(4.0, 1.0)))
        shifted = FirstOrderSpectrum(
            s_data=(SpectralDatum(0.8, 1.0),), eta_provider=RiemannZetaProvider(1.0, 1.0),
            a_plus_tail=PowerShiftSquaredProvider(1.0, 0.5),
            a_minus_tail=PowerShiftSquaredProvider(1.0, -0.5))
        cases = [
            (zeta_hat_operator, circle, [1.6, 1.0, -0.5]),
            (zeta_hat_operator, circle, [2.0 + 1.0j, -0.5, 1.0]),
            (zeta_hat_operator_report, circle, [1.0, 2.0]),
            (zeta_hat_operator, heads, [1.3, -300.25, 3.0]),
            (zeta_hat_operator, heads, [1.3, 3.0, -300.25]),
            (gamma_zeta_hat, circle, [0.3, 0.0, 1.0]),
            (gamma_zeta_hat, circle, [0.3, 1.0, 0.0]),
            (eta_function_scalable, shifted, [1.3, 0.0, -0.5]),
            (eta_function_scalable, shifted, [1.3, -0.5, 0.0]),
        ]
        kinds = set()
        for fn, spec, points in cases:
            want = _first_error(lambda x: fn(spec, x), points)
            with pytest.raises(type(want)) as got:
                fn(spec, np.array(points))
            assert str(got.value) == str(want)
            kinds.add(type(want))
        assert kinds == {ConeError, OverflowError, SpecfunError}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.3, math.inf),
                                     complex(math.nan, 1.0)])
    def test_non_finite_s_raises_cone_error(self, bad):
        # before any Gamma factor: NaN used to pass through to the value, and
        # +-inf to raise OverflowError from the pole check of Gamma
        circle = circle_spectrum()
        lone = CrossSectionSpectrum(data=(SpectralDatum(2.0, 1.0),))
        first = FirstOrderSpectrum(s_data=(SpectralDatum(0.8, 1.0),))
        shifted = FirstOrderSpectrum(
            s_data=(SpectralDatum(0.8, 1.0),), eta_provider=RiemannZetaProvider(1.0, 1.0),
            a_plus_tail=PowerShiftSquaredProvider(1.0, 0.5),
            a_minus_tail=PowerShiftSquaredProvider(1.0, -0.5))
        cases = [(zeta_hat_operator, lone), (zeta_hat_operator, circle),
                 (zeta_hat_operator_report, circle), (gamma_zeta_hat, lone),
                 (gamma_zeta_hat, circle), (eta_function_scalable, first),
                 (eta_function_scalable, shifted)]
        for fn, spec in cases:
            for s in (bad, np.array([1.6, bad]), np.array([[2.3 + 0.5j, 1.6], [bad, bad]])):
                with pytest.raises(ConeError, match="s must be finite"):
                    fn(spec, s)
        # the batch still raises the error of its first bad point
        for points in ([1.6, bad, 1.0], [1.6, 1.0, bad]):
            want = _first_error(lambda x: zeta_hat_operator(circle, x), points)
            with pytest.raises(ConeError) as got:
                zeta_hat_operator(circle, np.array(points))
            assert str(got.value) == str(want)

    def test_plan_reads_the_provider_terms_once(self):
        calls = []

        class Counted(RiemannZetaProvider):
            def terms_below(self, nu_max):
                calls.append(nu_max)
                return super().terms_below(nu_max)

        spec = CrossSectionSpectrum(
            data=(SpectralDatum(4.0, 2.0), SpectralDatum(30.0, 1.0)), tail=Counted(2.0, 2.0))
        zeta_hat_operator(spec, 1.6)
        zeta_hat_operator(spec, np.array([2.3, 0.7 + 1.0j]))
        residues_at_zero(spec)
        laurent_fit(lambda s: gamma_zeta_hat(spec, s))
        assert len(calls) == 1
        # the squares of an eta spectrum are built once, with their plans
        first = FirstOrderSpectrum(s_data=(SpectralDatum(0.8, 1.0),), a_plus_tail=Counted(1.0, 2.0),
                                   a_minus_tail=Counted(1.0, 2.0))
        for s in (1.45, 2.0 + 1.0j, np.array([1.1, 1.7])):
            eta_function_scalable(first, s)
        assert len(calls) == 3


def _split_terms_quadratic(pairs, head):
    """The matching as a quadratic scan: the reference for `_split_terms`."""
    remaining = list(head)
    unmatched = []
    for w, v in pairs:
        near = [j for j, (_, u) in enumerate(remaining) if abs(u - v) <= 1e-9 * max(1.0, v)]
        if not near:
            unmatched.append((w, v))
            continue
        for j in near:
            if abs(remaining[j][0] - w) <= 1e-9 * (1.0 + abs(w)):
                del remaining[j]
                break
        else:
            raise ConeError(f"tail provider disagrees with data weight at value {v}")
    return unmatched, remaining


class TestTermMatching:
    def test_bisection_matches_the_quadratic_scan(self):
        # near-duplicate values around the 1e-9 window, below and above 1,
        # with weights that agree (to within 1e-9) and weights that disagree
        rng = np.random.default_rng(14)
        nudges = [0.0, 0.0, 3e-10, -6e-10, 9e-10, -1.0e-9, 1.2e-9, -2.5e-9, 5e-9]
        outcomes = {"matched": 0, "raised": 0}
        for _ in range(40):
            base = rng.uniform(0.05, 4.0, rng.integers(1, 5)).tolist()
            head = sorted(((float(rng.choice([1.0, 2.0, -1.0])), b * (1.0 + rng.choice(nudges))
                            + rng.choice(nudges)) for b in base for _ in range(rng.integers(1, 4))),
                          key=lambda t: t[1])
            pairs = []
            for _ in range(rng.integers(1, 7)):
                w, v = head[rng.integers(len(head))]
                v = v * (1.0 + rng.choice(nudges)) + rng.choice(nudges)
                w = rng.choice([w, w * (1.0 + 5e-10), w + 1.0, 3.0])
                pairs.append((complex(w), float(v)))
            pairs.append((1.0, 7.5))
            results = []
            for split in (_split_terms, _split_terms_quadratic):
                try:
                    results.append(split(pairs, head))
                except ConeError as exc:
                    results.append(str(exc))
            assert results[0] == results[1], (pairs, head)
            outcomes["raised" if isinstance(results[0], str) else "matched"] += 1
        assert min(outcomes.values()) >= 5, outcomes


class TestResiduesAtZero:
    def test_circle_residues_vanish(self):
        res1, res0 = residues_at_zero(circle_spectrum())
        assert abs(res1) < 1e-10
        assert abs(res0) < 1e-10

    def test_single_negative_order_eigenvalue(self):
        spec = CrossSectionSpectrum(
            data=(SpectralDatum(0.25, 1.0),), negative_below=1.0
        )
        res1, res0 = residues_at_zero(spec)
        assert res1 == pytest.approx(0.0, abs=1e-12)
        # -res0_zeta_a(-1/2) - I(0) = -sqrt(0.25) - 2(-0.5) = 0.5
        assert res0 == pytest.approx(0.5, rel=1e-12)

    def test_finite_spectrum_vs_laurent_fit(self):
        spec = CrossSectionSpectrum(
            data=(SpectralDatum(0.25, 1.0), SpectralDatum(2.25, 2.0)),
            negative_below=1.0,
        )
        res1, res0 = residues_at_zero(spec)
        fit1, fit0 = laurent_fit(lambda s: gamma_zeta_hat(spec, s))
        assert res1 == pytest.approx(fit1, abs=1e-8)
        assert res0 == pytest.approx(fit0, abs=1e-8)

    def test_power_shift_spectrum_vs_laurent_fit(self):
        spec = CrossSectionSpectrum(data=(), tail=PowerShiftSquaredProvider(1.0 / 3.0, 0.3))
        res1, res0 = residues_at_zero(spec)
        fit1, fit0 = laurent_fit(lambda s: gamma_zeta_hat(spec, s))
        assert res1 == pytest.approx(fit1, abs=1e-8)
        assert res0 == pytest.approx(fit0, abs=1e-8)


class TestEta:
    def test_alpha_constants(self):
        from fractions import Fraction

        assert eta_alpha_constant(0) == pytest.approx(1.0 - digamma(-0.5).real / 2.0)
        assert eta_alpha_constant(1) == pytest.approx(float(Fraction(1, 24)))
        assert eta_alpha_constant(2) == pytest.approx(float(Fraction(-7, 960)))
        assert eta_alpha_constant(3) == pytest.approx(float(Fraction(31, 8064)))
        with pytest.raises(ConeError):
            eta_alpha_constant(-1)

    def test_shifted_integer_provider(self):
        prov = ShiftedIntegerEtaProvider(0.25)
        # zeta_H(0, 1/4) - zeta_H(0, 3/4) = 1/2
        assert prov.zeta(0.0) == pytest.approx(0.5, rel=1e-10)
        assert prov.zeta(3.0) == pytest.approx(
            sum(
                s * abs(m + 0.25) ** -3.0
                for m in range(-200, 200)
                for s in [1.0 if m + 0.25 > 0 else -1.0]
            ),
            abs=1e-4,
        )
        with pytest.raises(ConeError):
            ShiftedIntegerEtaProvider(1.5)
        # one Hurwitz call for a and 1-a broadcasts over s of any shape
        for s in (np.array([0.0, 3.0, 0.6 + 2.0j]), np.array([[2.5, 1.2 - 7.0j], [0.9, 4.0]])):
            got = prov.zeta(s)
            assert got.shape == s.shape
            for idx in np.ndindex(s.shape):
                assert got[idx] == prov.zeta(complex(s[idx]))

    def test_symmetric_spectrum_is_eta_trivial(self):
        spec = FirstOrderSpectrum(
            s_data=(SpectralDatum(0.8, 1.0), SpectralDatum(-0.8, 1.0))
        )
        res1, res0 = eta_hat_residues(spec)
        assert abs(res1) < 1e-12
        assert abs(res0) < 1e-12
        fit1, fit0 = laurent_fit(lambda s: eta_function_scalable(spec, s))
        assert abs(fit1) < 1e-8
        assert abs(fit0) < 1e-8

    def test_kernel_weight_enters_res0(self):
        spec = FirstOrderSpectrum(s_data=(SpectralDatum(0.0, 2.0),))
        res1, res0 = eta_hat_residues(spec)
        assert res1 == pytest.approx(0.0, abs=1e-12)
        assert res0 == pytest.approx(-2.0, rel=1e-12)
        fit1, fit0 = laurent_fit(lambda s: eta_function_scalable(spec, s))
        assert res1 == pytest.approx(fit1, abs=1e-7)
        assert res0 == pytest.approx(fit0, abs=1e-7)

    def test_small_negative_eigenvalue(self):
        spec = FirstOrderSpectrum(
            s_data=(SpectralDatum(-0.3, 1.0), SpectralDatum(0.9, 1.0))
        )
        res1, res0 = eta_hat_residues(spec)
        fit1, fit0 = laurent_fit(lambda s: eta_function_scalable(spec, s))
        assert res1 == pytest.approx(fit1, abs=1e-7)
        assert res0 == pytest.approx(fit0, abs=1e-7)

    def test_alpha_series_against_compositional_fit(self):
        # spectrum n^{1/4}: eta has poles at s=4 (k=2), so alpha_2 enters
        gamma_pow = 0.25
        spec = FirstOrderSpectrum(
            s_data=(),
            eta_provider=RiemannZetaProvider(1.0, gamma_pow),
            a_plus_tail=PowerShiftSquaredProvider(gamma_pow, 0.5),
            a_minus_tail=PowerShiftSquaredProvider(gamma_pow, -0.5),
        )
        res1, res0 = eta_hat_residues(spec)
        fit1, fit0 = laurent_fit(lambda s: eta_function_scalable(spec, s))
        assert res1 == pytest.approx(fit1, abs=1e-8)
        assert res0 == pytest.approx(fit0, abs=1e-8)

    def test_eta_provider_without_squared_tails_refuses_the_value(self):
        # the value is assembled from (S +/- 1/2)^2; with only eta(S)
        # continued, those spectra would be s_data alone
        gamma_pow = 0.25
        for plus, minus in ((None, None), (PowerShiftSquaredProvider(gamma_pow, 0.5), None)):
            spec = FirstOrderSpectrum(s_data=(SpectralDatum(0.8, 1.0),),
                                      eta_provider=RiemannZetaProvider(1.0, gamma_pow),
                                      a_plus_tail=plus, a_minus_tail=minus)
            with pytest.raises(ConeError):
                eta_function_scalable(spec, 1.3 + 2.0j)
            # the residues read eta(S) only
            assert all(cmath.isfinite(r) for r in eta_hat_residues(spec))

    def test_weight_disagreement_raises(self):
        # -1.5 is listed by the provider as 1.5 with weight +1
        spec = FirstOrderSpectrum(
            s_data=(SpectralDatum(-1.5, 1.0),),
            eta_provider=HurwitzZetaProvider(0.5, 1.0, 1.0),
        )
        for query in (lambda: spec.eta_value(2.0), lambda: eta_hat_residues(spec)):
            with pytest.raises(ConeError):
                query()

    def test_symmetric_data_matches_in_any_order(self):
        # the provider lists +0.5 and -0.5 as (+1, 0.5) and (-1, 0.5)
        prov = ShiftedIntegerEtaProvider(0.5)
        results = []
        for order in ((-0.5, 0.5), (0.5, -0.5)):
            spec = FirstOrderSpectrum(
                s_data=tuple(SpectralDatum(x, 1.0) for x in order), eta_provider=prov
            )
            results.append((spec.eta_value(2.0), eta_hat_residues(spec)))
        assert results[0] == results[1]
        assert results[0][0] == prov.zeta(2.0)

    def test_shifted_square_spectra(self):
        # D*D and DD* see (S + 1/2)^2 and (S - 1/2)^2; inside (-1/2, 1/2) the
        # order keeps its sign, so DD* gets a negative order
        plus_tail, minus_tail = RiemannZetaProvider(1.0, 2.0), RiemannZetaProvider(2.0, 2.0)
        xs = (-1.25, -0.3, 0.0, 0.2, 0.5, 2.0)
        spec = FirstOrderSpectrum(
            s_data=tuple(SpectralDatum(x, 1.5) for x in xs),
            a_plus_tail=plus_tail,
            a_minus_tail=minus_tail,
        )
        plus, minus = spec.shifted_square_spectrum(1), spec.shifted_square_spectrum(-1)
        assert plus.tail is plus_tail and minus.tail is minus_tail
        assert [d.eigenvalue for d in plus.data] == [(x + 0.5) ** 2 for x in xs]
        assert [d.eigenvalue for d in minus.data] == [(x - 0.5) ** 2 for x in xs]
        assert plus.p_overrides == (0.75, 0.2, 0.5, 0.7, 1.0, 2.5)
        assert minus.p_overrides == (1.75, -0.8, -0.5, -0.3, 0.0, 1.5)
        assert all(d.weight == 1.5 for d in plus.data + minus.data)

    def test_consistency_check_on_providers(self):
        spec = FirstOrderSpectrum(
            s_data=(), eta_provider=ShiftedIntegerEtaProvider(0.25)
        )
        assert continuation_consistency(spec.eta_provider, (4.0, 5.0)) < 1e-6


class TestPowerShiftEtaTable:
    """The (S + 1/2)^2 and (S - 1/2)^2 tails of S = {n^gamma} share one table
    of Hurwitz values per eta-hat evaluation."""

    POINTS = (1.3 + 0.4j, np.array([[1.3 + 0.4j, 2.1 - 3.0j], [0.7 + 1.0j, 1.6]]))

    @staticmethod
    def spec() -> FirstOrderSpectrum:
        return FirstOrderSpectrum(
            s_data=(SpectralDatum(0.8, 1.0),), eta_provider=RiemannZetaProvider(1.0, 1.0),
            a_plus_tail=PowerShiftSquaredProvider(1.0, 0.5),
            a_minus_tail=PowerShiftSquaredProvider(1.0, -0.5))

    def test_bit_identical_with_the_table_kept_or_cleared(self, monkeypatch):
        spec = self.spec()
        kept = [eta_function_scalable(spec, s) for s in self.POINTS]
        zeta = PowerShiftSquaredProvider.zeta

        def cleared(prov, s):
            PowerShiftSquaredProvider._last_tails = (None, None)
            return zeta(prov, s)

        monkeypatch.setattr(PowerShiftSquaredProvider, "zeta", cleared)
        for s, want in zip(self.POINTS, kept):
            assert _bits(eta_function_scalable(spec, s)) == _bits(want)

    def test_one_kernel_call_per_evaluation(self, monkeypatch):
        spec, calls = self.spec(), []
        kernel = specfun._hurwitz_shifted
        monkeypatch.setattr(specfun, "_hurwitz_shifted",
                            lambda *args: calls.append(args) or kernel(*args))
        for s in self.POINTS:
            PowerShiftSquaredProvider._last_tails = (None, None)
            del calls[:]
            eta_function_scalable(spec, s)
            assert len(calls) == 1


class TestIndex:
    def test_shifted_integer_index(self):
        # spectrum Z + 1/4: eta(0) = 1/2, no kernel, no small negatives
        spec = FirstOrderSpectrum(
            s_data=(), eta_provider=ShiftedIntegerEtaProvider(0.25)
        )
        interior = 1.0
        assert index_first_order(spec, interior) == pytest.approx(
            interior - 0.25, rel=1e-10
        )

    def test_kernel_contribution(self):
        spec = FirstOrderSpectrum(s_data=(SpectralDatum(0.0, 2.0),))
        assert index_first_order(spec, 0.0) == pytest.approx(-1.0, rel=1e-12)

    def test_small_negative_contribution(self):
        spec = FirstOrderSpectrum(
            s_data=(SpectralDatum(-0.3, 1.0), SpectralDatum(0.3, 1.0))
        )
        # eta(0) cancels pairwise; only the (-1/2,0) eigenvalue counts
        assert index_first_order(spec, 0.0) == pytest.approx(-1.0, rel=1e-12)


class TestHeatTrace:
    def test_fiber_trace_needs_finite_spectrum(self):
        with pytest.raises(ConeError):
            k_trace_operator(circle_spectrum(), 0.1)

    def test_fiber_trace_rejects_nonpositive_time(self):
        empty = CrossSectionSpectrum(data=())
        single = CrossSectionSpectrum(data=(SpectralDatum(1.0, 1.0),))
        for spec in (empty, single):
            for t in (0.0, -1e-3, math.nan):
                with pytest.raises(ConeError):
                    k_trace_operator(spec, t)

    def test_fiber_trace_matches_scalar_loop(self):
        # the array path against the per-eigenvalue sum of k_trace_lp, with
        # complex weights, negative orders and an order-zero eigenvalue
        rng = np.random.default_rng(5)
        lams = [0.0, 0.04, 0.2] + [float(j * j) for j in range(1, 37)]
        spec = CrossSectionSpectrum(
            data=tuple(
                SpectralDatum(lam, complex(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0)))
                for lam in lams
            ),
            negative_below=0.25,
        )
        # both sums are within (n-1) 2^-53 sum|term| of the exact sum per
        # component, plus one rounding per complex product: n 2^-51 sum|term|
        # bounds their distance.  Small times reach p^2 t = 1e-4.
        t_hi = 0.01 / max(lams)
        ts = np.logspace(math.log10(t_hi / 100.0), math.log10(t_hi), 48)
        for t in list(ts) + [0.01, 0.3, 2.0]:
            terms = [
                d.weight * k_trace_lp(spec.p_of(i), float(t)) for i, d in enumerate(spec.data)
            ]
            ref = sum(terms, 0.0 + 0.0j)
            tol = len(terms) * 2.0**-51 * sum(abs(w) for w in terms)
            assert abs(k_trace_operator(spec, float(t)) - ref) <= tol

    def test_interior_coefficients_tauberian(self):
        spec = CrossSectionSpectrum(data=(SpectralDatum(1.0, 1.0),))
        coeffs = scalar_interior_coefficients(spec, 2.0, 1, 4)
        lead = 1.0 / math.sqrt(4.0 * math.pi)
        assert coeffs[0] == pytest.approx(lead, rel=1e-15)
        # second correction: -(4p^2-1)/4 * (4 pi)^{-1/2} at p = 1
        assert coeffs[2] == pytest.approx(-0.75 * lead, rel=1e-15)
        assert coeffs[1] == coeffs[3] == 0

    def test_interior_coefficients_high_orders(self):
        # orders 40 and 50: b_2 = -2 sum (4p^2 - 1)/8 * (4 pi)^{-1/2}
        spec = CrossSectionSpectrum(
            data=(SpectralDatum(1600.0, 1.0), SpectralDatum(2500.0, 1.0))
        )
        coeffs = scalar_interior_coefficients(spec, 2.0, 1, 4)
        lead = 1.0 / math.sqrt(4.0 * math.pi)
        assert coeffs[0] == pytest.approx(2.0 * lead, rel=1e-15)
        assert coeffs[2] == pytest.approx(-(6399.0 + 9999.0) / 4.0 * lead, rel=1e-14)
        assert coeffs[1] == coeffs[3] == 0

    def test_interior_coefficients_mixed_weights(self):
        spec = CrossSectionSpectrum(
            data=tuple(
                SpectralDatum(lam, w)
                for lam, w in ((1.0, 1.0), (4.0, 2.0), (9.0, 1.0), (1600.0, 1.0))
            )
        )
        coeffs = scalar_interior_coefficients(spec, 2.0, 1, 6)
        # sum w a_2(p) = 40897149 / 128, times (-2)^2 (4 pi)^{-1/2}
        assert coeffs[4] == pytest.approx(40897149 / 32 / math.sqrt(4 * math.pi), rel=1e-14)
        assert coeffs[4].real == pytest.approx(360527.27, abs=0.01)
        assert coeffs[1] == coeffs[3] == coeffs[5] == 0

    @pytest.mark.parametrize("mu, m, n_terms", [(2.0, 1, 12), (4.0, 2, 15)])
    def test_interior_coefficients_match_hankel_oracle(self, mu, m, n_terms):
        # b_n against DLMF 10.40.1 at 40 digits: k(t) ~ (4 pi)^{-1/2}
        # sum_k (-2)^k a_k(p) t^{k-1/2} lands on n = m + mu (k - 1/2)
        rng = np.random.default_rng(int(mu))
        for _ in range(5):
            size = int(rng.integers(1, 12))
            lams = np.concatenate([rng.uniform(0.0, 0.99, 2), rng.uniform(0.0, 3600.0, size)])
            weights = rng.uniform(-2.0, 3.0, lams.size) + 1j * rng.uniform(-1.0, 1.0, lams.size)
            spec = CrossSectionSpectrum(
                data=tuple(SpectralDatum(float(lam), complex(w)) for lam, w in zip(lams, weights)),
                negative_below=1.0,
            )
            assert min(spec.p_of(i) for i in range(lams.size)) < 0
            coeffs = scalar_interior_coefficients(spec, mu, m, n_terms)
            on_grid = set()
            for k in range(n_terms):
                n = m + mu * (k - 0.5)
                if n > n_terms - 1:
                    break
                on_grid.add(int(n))
                with mpmath.workdps(40):
                    terms = []
                    for i, d in enumerate(spec.data):
                        p = mpmath.mpf(spec.p_of(i))
                        a_k = mpmath.fprod(4 * p**2 - (2 * j - 1) ** 2 for j in range(1, k + 1))
                        a_k /= mpmath.factorial(k) * mpmath.mpf(8) ** k
                        terms.append(mpmath.mpc(d.weight) * a_k)
                    scale = (-2) ** k / mpmath.sqrt(4 * mpmath.pi)
                    exact = complex(scale * mpmath.fsum(terms))
                    bound = 1e-12 * float(abs(scale) * mpmath.fsum(abs(x) for x in terms))
                assert abs(coeffs[int(n)] - exact) <= bound
            assert all(coeffs[n] == 0 for n in range(n_terms) if n not in on_grid)

    def test_interior_coefficients_certify_the_fiber_trace(self):
        # with the first K coefficients c_k of t^(k-1/2) subtracted, the
        # fiber trace over t^(K-1/2) tends to c_K, and the gap to c_K is
        # c_(K+1) t to first order
        spec = CrossSectionSpectrum(
            data=tuple(
                SpectralDatum(lam, w)
                for lam, w in ((0.0, 1.0), (0.49, 0.5 + 0.5j), (1.0, 1.0), (4.0, 2.0), (9.0, 1.0))
            ),
            negative_below=0.5,
        )
        c = scalar_interior_coefficients(spec, 2.0, 1, 10)[::2]
        for big_k in (1, 2, 3):
            gaps = []
            for t in (1e-2, 1e-3):
                head = sum(c[k] * t ** (k - 0.5) for k in range(big_k))
                ratio = (k_trace_operator(spec, t) - head) / t ** (big_k - 0.5)
                gaps.append(abs((ratio - c[big_k]) / (c[big_k + 1] * t) - 1.0))
            assert gaps[0] <= 0.05 and gaps[1] <= 0.005

    @pytest.mark.parametrize(
        "mu, m",
        [(1.0, 1), (1.0, 0), (2.0, 0), (2.0, -1), (3.0, 1), (1e-300, 1)]
        + [(mu, 1) for mu in (0.0, -2.0, math.inf, math.nan)],
    )
    def test_interior_coefficients_off_grid_raise(self, mu, m):
        # a power t^(k-1/2) off the integer grid, or mu not finite and positive
        spec = CrossSectionSpectrum(data=(SpectralDatum(1.0, 1.0),))
        with pytest.raises(ConeError):
            scalar_interior_coefficients(spec, mu, m, 4)

    def test_expansion_assembly(self):
        spec = CrossSectionSpectrum(
            data=(SpectralDatum(0.25, 1.0),), negative_below=1.0
        )
        b = (0.5, 0.25, 0.125)
        moments = (2.0, 3.0, 4.0)
        rep = heat_trace_expansion(spec, 2.0, 2.0, 1, moments, b)
        assert rep.variable == "t"
        assert rep.coefficient(-0.5, 0) == pytest.approx(1.0)  # b0 * m0
        assert rep.coefficient(0.5, 0) == pytest.approx(0.5)  # b2 * m2
        # constant term: b1 * m1 + res0/nu = 0.75 + 0.25
        assert rep.coefficient(0.0, 0) == pytest.approx(1.0, rel=1e-10)
        assert rep.coefficient(0.0, 1) == pytest.approx(-b[1] / 2.0)

    def test_expansion_needs_b_up_to_m(self):
        spec = CrossSectionSpectrum(data=(SpectralDatum(1.0, 1.0),))
        with pytest.raises(ConeError):
            heat_trace_expansion(spec, 2.0, 2.0, 1, (1.0,), (0.5,))

    def test_expansion_past_the_moments_matches_full_coefficients(self):
        # m beyond the moments: the same report as with all m + 1 exact b_n given
        spec = CrossSectionSpectrum(data=(SpectralDatum(1.0, 2.0), SpectralDatum(9.0, 1.0)))
        moments = (1.5, 2.0, 0.5)
        for mu, m in ((2.0, 2), (2.0, 5), (2.0, 40), (4.0, 3), (6.0, 7)):
            full = scalar_interior_coefficients(spec, mu, m, max(len(moments), m + 1))
            got = heat_trace_expansion(spec, 2.0, mu, m, moments)
            assert got == heat_trace_expansion(spec, 2.0, mu, m, moments, full)

    def test_expansion_memory_independent_of_m(self):
        # b_m is 0 (n = m would need t^0), so a huge m allocates nothing per unit
        spec = CrossSectionSpectrum(data=(SpectralDatum(1.0, 1.0),))
        small = heat_trace_expansion(spec, 2.0, 2.0, 10, (1.0,))
        tracemalloc.start()
        try:
            rep = heat_trace_expansion(spec, 2.0, 2.0, 10**6, (1.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # a list of 10^6 coefficients alone takes 8 MB
        assert rep.terms == small.terms and rep.remainder_order == (1 - 10**6) / 2.0

    @pytest.mark.parametrize(
        "nu, mu, m, moments, b",
        [
            (0.0, 2.0, 1, (1.0, 1.0), None),
            (math.nan, 2.0, 1, (1.0, 1.0), None),
            (math.inf, 2.0, 1, (1.0, 1.0), None),
            (2.0, 0.0, 1, (1.0, 1.0), None),
            (2.0, -2.0, 1, (1.0, 1.0), None),
            (2.0, math.inf, 1, (1.0, 1.0), (0.5, 0.5)),
            (2.0, math.nan, 1, (1.0, 1.0), (0.5, 0.5)),
            (2.0, 2.0, -1, (1.0, 1.0), (0.5, 0.5)),
            (2.0, 2.0, 1, (1.0, math.nan), None),
            (2.0, 2.0, 1, (1.0, 1.0), (0.5, complex(0.0, math.inf))),
            (2.0, 1.0, 1, (1.0, 1.0), None),
            # b_n is read for every moment: a short list was an IndexError
            (2.0, 2.0, 1, (1.0, 1.0, 1.0), (0.5, 0.5)),
            # m past the moments: t^(-1/2) still lands off the grid, at
            # n = m - mu/2 not an integer, or below 0
            (2.0, 3.0, 10**6, (1.0,), None),
            (2.0, 1.0, 5, (1.0,), None),
            (2.0, 4.0, 1, (1.0,), None),
            (2.0, 6.0, 2, (1.0,), None),
        ],
    )
    def test_expansion_domain(self, nu, mu, m, moments, b):
        spec = CrossSectionSpectrum(data=(SpectralDatum(1.0, 1.0),))
        with pytest.raises(ConeError):
            heat_trace_expansion(spec, nu, mu, m, moments, b)


class TestLaurentFit:
    def test_exact_on_rational_model(self):
        res1, res0 = laurent_fit(lambda s: 2.0 / s + 3.0 + 5.0 * s)
        assert res1 == pytest.approx(2.0, rel=1e-9)
        assert res0 == pytest.approx(3.0, rel=1e-9)

    def test_four_evaluations(self):
        # one call of f, on exactly the four points
        calls = []

        def f(s):
            calls.append(np.array(s))
            return 2.0 / (s - 0.5) + 3.0

        laurent_fit(f, 0.5)
        assert len(calls) == 1
        assert sorted(calls[0].tolist()) == [0.5 - 2e-3, 0.5 - 1e-3, 0.5 + 1e-3, 0.5 + 2e-3]
