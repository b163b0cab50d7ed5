"""Acceptance suite: end-to-end checks against independent oracles.

Each test covers one headline guarantee of the package, verifies it against
closed forms or independent quadrature at the stated tolerance, and prints a
single pass line on success.
"""

import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline

from conespec.cone import (
    CrossSectionSpectrum,
    FirstOrderSpectrum,
    SpectralDatum,
    eta_function_scalable,
    eta_hat_residues,
    heat_kernel_lp,
    k_trace_lp,
    laurent_fit,
    residues_at_zero,
    zeta_hat_lp,
)
from conespec.deficiency import (
    ClkModuleData,
    Extension,
    GradedSpectrum,
    clk_def_ind,
    deficiency_brute_force,
    deficiency_indices,
    dirac_schrodinger_index,
    index_a_eps,
)
from conespec.expansions import (
    add_functions,
    cutoff_times_monomial,
    exponential_decay,
    fuchs_derivative,
    gaussian_decay,
    global_monomial,
    rescale_argument,
    scale_function,
    smooth_cutoff,
    tail_times_monomial,
)
from conespec.mellin import (
    Side,
    mellin_transform,
    regularized_integral,
    regularized_integral_partial,
    scale_rule,
)
from conespec.sal import expand_phi_tx
from conespec.specfun import (
    RiemannZetaProvider,
    bessel_i_scaled,
    evaluate_ratio,
    gamma,
    gamma_ratio_expansion,
    hankel_transform,
    l_fn,
)


def test_01_regularized_monomial_integrals_match_closed_forms():
    alphas = (-3.0, -2.0, -1.0, -0.5, 0.0, 1.7)
    ks = (0, 1, 2)
    checked = 0
    for alpha in alphas:
        for k in ks:
            f = global_monomial(alpha, k)
            if alpha == -1.0:
                expected = 0.0
            else:
                expected = (-1.0) ** k * math.factorial(k) / (alpha + 1.0) ** (k + 1)
            partial = regularized_integral_partial(f, 1.0, Side.ZERO_TO_C)
            assert abs(partial - expected) <= 1e-12
            checked += 1
            # the two sides assemble to the vanishing global integral
            other = regularized_integral_partial(f, 1.0, Side.C_TO_INF)
            assert abs(other + expected) <= 1e-12
            full = regularized_integral(f)
            assert abs(full) <= 1e-12
            checked += 1
    assert checked == 36
    print("[pass] 01 monomial regularized integrals: 36/36 closed forms within 1e-12")


def test_02_scale_rule_matches_direct_rescaled_integral():
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(20):
        k = rng.choice([0, 1, 2])
        c1 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        c2 = rng.uniform(-2.0, 2.0)
        lam = rng.uniform(0.4, 2.8)
        f = add_functions(
            scale_function(cutoff_times_monomial(-1.0, k), c1),
            add_functions(
                scale_function(tail_times_monomial(-1.0, rng.choice([0, 1])), c2),
                exponential_decay(),
            ),
        )
        direct = regularized_integral(rescale_argument(f, lam))
        via_rule = scale_rule(f, lam)
        worst = max(worst, abs(direct - via_rule))
        assert direct == pytest.approx(via_rule, rel=1e-8, abs=1e-8)
    print(f"[pass] 02 scale rule vs direct rescaling: 20 random cases, worst {worst:.2e} <= 1e-8")


def test_03_fuchs_identity_and_vertical_decay():
    # M(theta^N f)(z) = z^N Mf(z) with theta = -x d/dx exact and repeatable:
    # the identity behind the rapid decay of Mf in vertical strips
    points = [
        0.6, 0.9, 1.3, 1.7, 2.1,
        0.8 + 0.5j, 1.2 - 0.7j, 1.5 + 1.0j, 0.7 + 1.5j, 2.0 + 0.3j,
    ]
    samples = (
        exponential_decay(),
        gaussian_decay(),
        add_functions(exponential_decay(), gaussian_decay()),
    )
    worst = [0.0] * 4
    for f in samples:
        mf = mellin_transform(f)
        g = f
        for n in range(1, 5):
            g = fuchs_derivative(g)
            md = mellin_transform(g)
            for z in points:
                lhs, rhs = md(z), z**n * mf(z)
                err = abs(lhs - rhs) / max(1.0, abs(rhs))
                worst[n - 1] = max(worst[n - 1], err)
                assert err <= 1e-8
    print(
        "[pass] 03 Mellin identity M(theta^N f) = z^N Mf at 30 strip points, N = 1-4 "
        f"(worst {', '.join(f'{w:.2e}' for w in worst)} <= 1e-8)"
    )


def test_04_parameter_expansion_matches_quadrature():
    phi = gaussian_decay(4)  # Taylor terms 1, -x^2, x^4/2; remainder order 6
    report = expand_phi_tx(phi, exponential_decay(), q=5)
    coeffs = [report.coefficient(float(j), 0).real for j in range(5)]
    expected = [1.0, 0.0, -2.0, 0.0, 12.0]
    assert coeffs == pytest.approx(expected, abs=1e-9)

    def lhs(t):
        return quad(
            lambda x: math.exp(-((t * x) ** 2) - x), 0.0, np.inf, epsabs=1e-14, limit=300
        )[0]

    ts = np.linspace(1e-3, 0.25, 40)
    values = np.array([lhs(float(t)) for t in ts])
    fitted = np.polynomial.polynomial.polyfit(ts, values, 12)
    for j in range(5):
        assert abs(fitted[j] - expected[j]) <= 0.01 * max(1.0, abs(expected[j]))

    t_small = [1e-1, 10.0 ** -1.5, 1e-2]
    resid = [abs(lhs(t) - sum(c * t**j for j, c in enumerate(coeffs))) for t in t_small]
    slope = float(np.polyfit(np.log(t_small), np.log(resid), 1)[0])
    assert slope >= 4.5
    print(
        "[pass] 04 small-parameter expansion: coefficients (1,0,-2,0,12) within 1%, "
        f"remainder slope {slope:.2f} >= 4.5"
    )


def test_05_hankel_eigenfunctions_and_involution():
    worst = 0.0
    for p, n in [(0.5, 0), (0.5, 1), (1.0, 2), (2.0, 3)]:
        for x in np.linspace(0.2, 3.0, 9):
            err = abs(
                hankel_transform(lambda y, n=n, p=p: l_fn(n, p, y), p, float(x))
                - (-1.0) ** n * l_fn(n, p, float(x))
            )
            worst = max(worst, err)
            assert err <= 1e-6

    f = lambda y: l_fn(1, 1.0, y)
    grid = np.linspace(1e-4, 12.0, 241)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        transformed = np.array([hankel_transform(f, 1.0, float(y)) for y in grid])
        spline = CubicSpline(grid, transformed)
        g = lambda y: np.where(y <= 12.0, spline(y), 0.0)
        worst_inv = max(
            abs(hankel_transform(g, 1.0, float(x)) - f(float(x)))
            for x in np.linspace(0.2, 3.0, 7)
        )
    assert worst_inv <= 1e-5
    print(
        f"[pass] 05 Hankel eigenfunctions (worst {worst:.2e} <= 1e-6) and "
        f"involution (worst {worst_inv:.2e} <= 1e-5)"
    )


def _weber_kernel(p, t, x, y):
    upper = math.sqrt(50.0 / t)
    val, _ = quad(
        lambda xi: sps.jv(p, x * xi) * sps.jv(p, y * xi) * xi * math.exp(-t * xi * xi),
        0.0,
        upper,
        limit=400,
    )
    return math.sqrt(x * y) * val


def test_06_heat_kernel_matches_weber_integral():
    worst = 0.0
    for p in (0.5, 1.0, 2.5):
        for t in (0.2, 0.5, 1.0):
            for x in (0.5, 1.0, 1.8):
                for y in (0.5, 1.0, 1.8):
                    err = abs(_weber_kernel(p, t, x, y) - heat_kernel_lp(p, t, x, y))
                    worst = max(worst, err)
                    assert err <= 1e-8
    worst_semi = 0.0
    for t, s, x, y in [(0.3, 0.5, 1.0, 1.4), (0.7, 0.2, 0.6, 2.0)]:
        for p in (0.5, 1.5):
            conv, _ = quad(
                lambda z: heat_kernel_lp(p, t, x, z) * heat_kernel_lp(p, s, z, y),
                0.0,
                40.0,
                limit=300,
            )
            err = abs(conv - heat_kernel_lp(p, t + s, x, y))
            worst_semi = max(worst_semi, err)
            assert err <= 1e-6
    print(
        f"[pass] 06 heat kernel vs Weber integral on 81 points (worst {worst:.2e} <= 1e-8); "
        f"semigroup (worst {worst_semi:.2e} <= 1e-6)"
    )


def test_07_zeta_hat_lp_matches_integral_representation():
    def oracle(p, s, big_x=40.0):
        val, _ = quad(
            lambda x: x ** (-s) * bessel_i_scaled(p, x), 0.0, big_x, limit=300
        )
        mu = 4.0 * p * p
        tail, a_m = 0.0, 1.0
        for m in range(4):
            if m > 0:
                a_m *= (mu - (2 * m - 1) ** 2) / (8.0 * m)
            tail += (-1.0) ** m * a_m * big_x ** (0.5 - s - m) / (s - 0.5 + m)
        tail /= math.sqrt(2.0 * math.pi)
        return 2.0 ** (-s) / gamma(s).real * (val + tail)

    worst = 0.0
    for p, s in [(0.5, 0.8), (1.0, 1.0), (2.5, 1.5), (2.5, 2.0)]:
        expected = oracle(p, s)
        got = zeta_hat_lp(p, s).real
        err = abs(got - expected) / abs(expected)
        worst = max(worst, err)
        assert err <= 1e-6
    assert abs(zeta_hat_lp(0.5, 1.0) - 1.0) <= 1e-10
    print(
        f"[pass] 07 zeta-hat integral representation at 4 points (worst rel {worst:.2e} <= 1e-6); "
        "normalization value 1 within 1e-10"
    )


def test_08_gamma_ratio_expansion_structure_and_order():
    expansion = gamma_ratio_expansion(4)
    assert expansion.q(2) == (Fraction(0), Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3))
    mpmath.mp.dps = 40
    nu = 50.0
    for s in (0.3, 0.3 + 0.2j):
        exact = complex(mpmath.gamma(nu - s + 1) / mpmath.gamma(nu + s))
        assert evaluate_ratio(expansion, nu, s) == pytest.approx(exact, rel=1e-8)
    s = 0.3
    nus = np.array([10.0, 20.0, 40.0, 80.0])
    errors = []
    for nu in nus:
        exact = complex(mpmath.gamma(nu - s + 1) / mpmath.gamma(nu + s))
        errors.append(abs(evaluate_ratio(expansion, float(nu), s) - exact) / abs(exact))
    slope = float(np.polyfit(np.log(nus), np.log(errors), 1)[0])
    assert abs(slope + 5.0) <= 0.3
    print(
        "[pass] 08 gamma-ratio expansion: Q2 exact, order-4 values within 1e-8, "
        f"error slope {slope:.2f} within 0.3 of -5"
    )


def test_09_eta_hat_residues_match_laurent_fits():
    cases = {
        "symmetric": FirstOrderSpectrum(
            s_data=(SpectralDatum(0.8, 1.0), SpectralDatum(-0.8, 1.0))
        ),
        "kernel-only": FirstOrderSpectrum(s_data=(SpectralDatum(0.0, 2.0),)),
        "small-negative": FirstOrderSpectrum(s_data=(SpectralDatum(-0.3, 1.0),)),
    }
    worst = 0.0
    for name, spec in cases.items():
        res1, res0 = eta_hat_residues(spec)
        fit1, fit0 = laurent_fit(lambda s: eta_function_scalable(spec, s), 0.0)
        worst = max(worst, abs(res1 - fit1), abs(res0 - fit0))
        assert abs(res1 - fit1) <= 1e-5, name
        assert abs(res0 - fit0) <= 1e-5, name
    symmetric = cases["symmetric"]
    assert eta_hat_residues(symmetric) == (0.0, 0.0)
    circle = CrossSectionSpectrum(data=(), tail=RiemannZetaProvider(2.0, 2.0))
    assert abs(residues_at_zero(circle)[0]) <= 1e-8
    print(
        f"[pass] 09 eta-hat residues vs Laurent fits on 3 spectra (worst {worst:.2e} <= 1e-5); "
        "symmetric case exactly (0, 0); circle residue 0 within 1e-8"
    )


def test_10_localized_heat_trace_coefficients():
    p, nu = 1.0, 2.0

    def localized_trace(t):
        def integrand(x):
            return smooth_cutoff(x) / x * k_trace_lp(p, t / (x * x))

        split = 10.0 * math.sqrt(t)
        lower, _ = quad(integrand, 0.0, split, limit=300)
        upper, _ = quad(integrand, split, 2.0, limit=300)
        return lower + upper

    ts = np.logspace(-4.0, -2.0, 30)
    values = np.array([localized_trace(float(t)) for t in ts])
    design = np.column_stack(
        [ts**-0.5, np.ones_like(ts), np.log(ts), ts**0.5, ts**1.5]
    )
    scales = np.linalg.norm(design, axis=0)
    solution, *_ = np.linalg.lstsq(design / scales, values, rcond=None)
    solution = solution / scales

    phi_integral, _ = quad(smooth_cutoff, 0.0, 2.0)
    predicted_half = phi_integral / math.sqrt(4.0 * math.pi)
    spectrum = CrossSectionSpectrum(data=(SpectralDatum(1.0, 1.0),))
    predicted_const = residues_at_zero(spectrum)[1].real / nu
    assert predicted_const == pytest.approx(-0.5, abs=1e-12)
    err_half = abs(solution[0] - predicted_half) / abs(predicted_half)
    err_const = abs(solution[1] - predicted_const) / abs(predicted_const)
    err_log = abs(solution[2])
    assert err_half <= 0.005
    assert err_const <= 0.005
    assert err_log <= 0.005
    print(
        "[pass] 10 localized heat trace: fitted t^(-1/2), constant and log t coefficients "
        f"match predictions within 0.5% (errors {err_half:.1e}, {err_const:.1e}, {err_log:.1e})"
    )


def test_11_deficiency_indices_vs_brute_force():
    rng = random.Random(20240818)
    for _ in range(100):
        kernel_plus, kernel_minus = rng.randint(0, 4), rng.randint(0, 4)
        positive = tuple(
            (rng.uniform(0.05, 1.2), float(rng.randint(1, 3)))
            for _ in range(rng.randint(0, 4))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            graded = GradedSpectrum(
                kernel_plus=kernel_plus, kernel_minus=kernel_minus, positive=positive
            )
        n_plus, n_minus = deficiency_indices(graded)
        n_plus, n_minus = int(n_plus.real), int(n_minus.real)
        assert (n_plus, n_minus) == deficiency_brute_force(graded)
        assert n_plus - n_minus == index_a_eps(graded)

    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(0, 15)
        signed = rng.randint(-3, 3)
        dim = 2 * rng.randint(0, 6) if k % 8 == 2 else rng.randint(0, 12)
        out = clk_def_ind(ClkModuleData(k=k, e_plus_dim_real=dim, signed_index=signed))
        if k % 8 == 1:
            assert (out["ring"], out["value"]) == ("Z/2", dim % 2)
        elif k % 8 == 2:
            assert (out["ring"], out["value"]) == ("Z/2", (dim // 2) % 2)
        elif k % 8 in (0, 4):
            assert (out["ring"], out["value"]) == ("Z", signed)
        else:
            assert (out["ring"], out["value"]) == ("0", 0)
    print(
        "[pass] 11 deficiency indices: 100 spectra match brute force exactly, "
        "index identity holds, 20 Clifford parity cases verified"
    )


def test_12_dirac_schrodinger_specializations():
    rng = random.Random(20240819)
    for _ in range(50):
        n_plus, n_minus = rng.randint(0, 8), rng.randint(0, 8)
        out = dirac_schrodinger_index(
            n_plus + n_minus, n_plus - n_minus, 0, Extension.MIN
        )
        assert isinstance(out, Fraction)
        assert out == -n_plus
        ind = rng.randint(-6, 6)
        out = dirac_schrodinger_index(0, ind, -ind, Extension.MAX)
        assert isinstance(out, Fraction)
        assert out == -ind
    print(
        "[pass] 12 index specializations: 50 random tuples reproduce -n_plus and "
        "-ind(S) in exact arithmetic"
    )
