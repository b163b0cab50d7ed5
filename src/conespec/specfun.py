"""Special-function kernel.

Gamma-family wrappers, Bessel J and the exponentially scaled modified
Bessel I (the Amos routine behind scipy.special.ive), Laguerre polynomials
and the l_n^(p) eigenfamily of the Hankel transform, the Hankel transform
itself (integration between Bessel zeros with Euler acceleration of the
alternating tail), exact Bernoulli numbers, the asymptotic expansion of
the Gamma ratio Gamma(nu-s+1)/Gamma(nu+s) up to order MAX_RATIO_ORDER = 10
(exact coefficients from the Bernoulli polynomials of DLMF 5.11.8), Hurwitz
zeta by Euler-Maclaurin, and Dirichlet series providers with meromorphic
continuation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.special as sps
from scipy.integrate import quad

EULER_GAMMA = 0.5772156649015328606

MAX_RATIO_ORDER = 10


class SpecfunError(Exception):
    pass


class HankelConvergenceError(SpecfunError):
    pass


# ---------------------------------------------------------------------------
# Gamma family
# ---------------------------------------------------------------------------


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    z = complex(z)
    return abs(z.imag) <= tol and z.real <= 0.5 and abs(z.real - round(z.real)) <= tol


def _nonpositive_integer_mask(z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """`_is_nonpositive_integer` elementwise over a complex array."""
    return (np.abs(z.imag) <= tol) & (z.real <= 0.5) & (np.abs(z.real - np.round(z.real)) <= tol)


def gamma(z: complex) -> complex:
    """Gamma function; raises on the poles at 0, -1, -2, ..."""
    if _is_nonpositive_integer(z):
        raise SpecfunError(f"gamma pole at z={z}")
    return complex(sps.gamma(complex(z)))


def log_gamma(z: complex) -> complex:
    if _is_nonpositive_integer(z):
        raise SpecfunError(f"log_gamma pole at z={z}")
    return complex(sps.loggamma(complex(z)))


def rgamma(z: complex) -> complex:
    """1/Gamma(z); entire, zero at nonpositive integers."""
    return complex(sps.rgamma(complex(z)))


def digamma(z: complex) -> complex:
    if _is_nonpositive_integer(z):
        raise SpecfunError(f"digamma pole at z={z}")
    return complex(sps.digamma(complex(z)))


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------


def bessel_j(p: float, x: float) -> float:
    if p <= -1:
        raise SpecfunError("order must exceed -1")
    if x < 0:
        raise SpecfunError("argument must be nonnegative")
    return float(sps.jv(p, x))


def bessel_i_scaled(p, x):
    """I_p(x) * exp(-x) by the Amos routine (scipy.special.ive); overflow-safe.

    Domain: finite p > -1 and finite x >= 0, except x = 0 with p < 0, where
    I_p has a pole.  Scalars return a float; arrays broadcast.
    """
    if isinstance(p, (int, float)) and isinstance(x, (int, float)):
        if -1 < p < math.inf and 0 < x < math.inf:  # in-domain scalars skip np.asarray
            return float(sps.ive(p, x))
    p, x = np.asarray(p, dtype=float), np.asarray(x, dtype=float)
    if not np.all((p > -1) & (p < math.inf)):
        raise SpecfunError("order must be finite and exceed -1")
    if not np.all((x >= 0) & (x < math.inf)):
        raise SpecfunError("argument must be finite and nonnegative")
    if np.any((x == 0) & (p < 0)):
        raise SpecfunError("I_p(0) is infinite for p < 0")
    out = sps.ive(p, x)
    return float(out) if out.ndim == 0 else out


def bessel_i(p: float, x: float) -> float:
    if x > 700.0:
        raise SpecfunError("unscaled I_p overflows; use bessel_i_scaled")
    return bessel_i_scaled(p, x) * math.exp(x)


def bessel_j_zero(p: float, m: int) -> float:
    """m-th positive zero of J_p (m >= 1); McMahon start + Newton refinement."""
    if m < 1:
        raise SpecfunError("m must be >= 1")
    beta = (m + p / 2.0 - 0.25) * math.pi
    mu = 4.0 * p * p
    # McMahon expansion
    x = beta - (mu - 1) / (8 * beta) - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta) ** 3)
    for _ in range(50):
        f = sps.jv(p, x)
        fp = sps.jvp(p, x)
        step = f / fp
        x -= step
        if abs(step) < 1e-14 * max(1.0, x):
            break
    return float(x)


# ---------------------------------------------------------------------------
# Laguerre family
# ---------------------------------------------------------------------------


def laguerre(n: int, p: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^{(p)}(x) by the stable recurrence."""
    if n < 0:
        raise SpecfunError("n must be >= 0")
    if n == 0:
        return 1.0
    lm, l = 1.0, 1.0 + p - x
    for j in range(1, n):
        lm, l = l, ((2 * j + 1 + p - x) * l - (j + p) * lm) / (j + 1)
    return l


def l_fn(n: int, p: float, x: float) -> float:
    """l_n^{(p)}(x) = x^{p+1/2} e^{-x^2/2} L_n^{(p)}(x^2)."""
    if x < 0:
        raise SpecfunError("x must be >= 0")
    if x == 0:
        return 0.0 if p + 0.5 > 0 else math.inf
    return x ** (p + 0.5) * math.exp(-x * x / 2.0) * laguerre(n, p, x * x)


# ---------------------------------------------------------------------------
# Hankel transform
# ---------------------------------------------------------------------------


def _euler_accelerate(partials: Sequence[float]) -> float:
    """Euler transform applied to a sequence of partial sums."""
    row = list(partials)
    while len(row) > 1:
        row = [(row[i] + row[i + 1]) / 2.0 for i in range(len(row) - 1)]
    return row[0]


# Convergence tolerance and panel budget of hankel_transform.
_HANKEL_TOL = 1e-10
_HANKEL_MAX_PANELS = 80


def hankel_transform(f: Callable[[float], float], p: float, x: float) -> float:
    """(H_p f)(x) = integral_0^inf (x y)^{1/2} J_p(x y) f(y) dy.

    The y-axis is split at the scaled zeros of J_p; panels are integrated
    adaptively and the alternating panel tail is Euler-accelerated.  Raises
    HankelConvergenceError if neither plain nor accelerated summation
    stabilizes within the panel budget.
    """
    if x <= 0:
        raise SpecfunError("x must be positive")
    if p <= -1:
        raise SpecfunError("order must exceed -1")

    def integrand(y: float) -> float:
        if y == 0.0:
            return 0.0
        return math.sqrt(x * y) * sps.jv(p, x * y) * f(y)

    panels = []
    a = 0.0
    m = 1
    while True:
        b = bessel_j_zero(p, m) / x
        val, _ = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)
        panels.append(val)
        a = b
        m += 1
        if len(panels) >= 6 and all(abs(v) < _HANKEL_TOL / 10 for v in panels[-3:]):
            break
        if len(panels) >= _HANKEL_MAX_PANELS:
            partials = np.cumsum(panels)
            acc1 = _euler_accelerate(partials[-12:])
            acc2 = _euler_accelerate(partials[-13:-1])
            if abs(acc1 - acc2) < _HANKEL_TOL:
                return float(acc1)
            raise HankelConvergenceError(
                f"Hankel transform tail did not stabilize at x={x} "
                f"(last panels {panels[-3:]})"
            )
    return float(sum(panels))


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_fraction(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention) by the recurrence."""
    if n < 0:
        raise SpecfunError("n must be >= 0")
    if n > 120:
        raise SpecfunError("Bernoulli index too large")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    for k in range(n):
        total += math.comb(n + 1, k) * bernoulli_fraction(k)
    return -total / (n + 1)


def b_pos_fraction(k: int) -> Fraction:
    """b_k = (-1)^(k-1) B_{2k} > 0."""
    if k < 1:
        raise SpecfunError("k must be >= 1")
    return (-1) ** (k - 1) * bernoulli_fraction(2 * k)


# ---------------------------------------------------------------------------
# Gamma-ratio asymptotics
# ---------------------------------------------------------------------------
#
# Polynomials in s are tuples of Fractions, index = degree.


Poly = tuple[Fraction, ...]


def _poly_trim(p: Sequence[Fraction]) -> Poly:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _poly_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_scale(a: Poly, c: Fraction) -> Poly:
    return _poly_trim([c * x for x in a])


def _poly_eval(a: Poly, s: complex) -> complex:
    out = 0.0 + 0.0j
    for c in reversed(a):
        out = out * s + complex(Fraction(c))
    return out


def _bernoulli_poly(n: int, sign: int) -> Poly:
    """B_n(sign * s) = sum_d C(n, d) B_(n-d) (sign s)^d."""
    return tuple(math.comb(n, d) * bernoulli_fraction(n - d) * sign**d for d in range(n + 1))


@dataclass(frozen=True)
class GammaRatioExpansion:
    """Gamma(nu-s+1)/Gamma(nu+s) = nu^(1-2s) sum_k Q_k(s) nu^-k."""

    q_polys: tuple[Poly, ...]
    r_polys: tuple[Poly, ...]  # r_polys[k] is R_k for k >= 2; entries 0,1 empty
    max_order: int

    def q(self, k: int) -> Poly:
        return self.q_polys[k]

    def validate(self) -> None:
        """Structural facts: Q_0=1, Q_1=0, the printed Q_2/R_2 anchors,
        R_k odd of degree <= k+1 with linear coefficient 2 B_k / k, and the
        even-k linear coefficient of Q_k."""
        assert self.q_polys[0] == (Fraction(1),), "Q_0 != 1"
        if self.max_order >= 1:
            assert self.q_polys[1] == (), "Q_1 != 0"
        if self.max_order >= 2:
            assert self.q_polys[2] == (
                Fraction(0), Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)
            ), "Q_2 anchor failed"
            assert self.r_polys[2] == (
                Fraction(0), Fraction(1, 6), Fraction(0), Fraction(1, 3)
            ), "R_2 anchor failed"
        for k in range(2, self.max_order + 1):
            rk = self.r_polys[k]
            assert len(rk) <= k + 2, f"deg R_{k} > {k + 1}"
            for d, c in enumerate(rk):
                if d % 2 == 0:
                    assert c == 0, f"R_{k} not odd"
            lin = rk[1] if len(rk) > 1 else Fraction(0)
            assert lin == 2 * bernoulli_fraction(k) / k, f"R_{k} linear coeff"
            if k % 2 == 0 and k >= 4:
                qlin = self.q_polys[k][1] if len(self.q_polys[k]) > 1 else Fraction(0)
                expect = 2 * (-1) ** (k // 2 - 1) * b_pos_fraction(k // 2) / k
                assert qlin == expect, f"Q_{k} linear coeff"


@lru_cache(maxsize=None)
def gamma_ratio_expansion(max_order: int) -> GammaRatioExpansion:
    """The Q_k up to max_order <= MAX_RATIO_ORDER, and the odd R_k of the
    symmetric ratio Gamma(nu-s)/Gamma(nu+s), in exact rational arithmetic.

    DLMF 5.11.8 gives log Gamma(nu+a)/Gamma(nu+b) = (a-b) log nu + sum_m
    (-1)^(m+1) (B_(m+1)(a) - B_(m+1)(b)) / (m(m+1)) nu^-m.  At a = 1-s, b = s
    the sum is sum_m c_m nu^-m with c_m = (1 - (-1)^(m+1)) B_(m+1)(s) / (m(m+1)),
    0 for odd m, and Q_k = sum_(j=1..k) (j/k) c_j Q_(k-j) are the
    coefficients of its exponential.  At a = -s, b = s the coefficients are
    the R_m.
    """
    if not 0 <= max_order <= MAX_RATIO_ORDER:
        raise SpecfunError(f"max_order must lie in [0, {MAX_RATIO_ORDER}], not {max_order}")
    n = max_order
    c = [()] + [
        _poly_scale(_bernoulli_poly(m + 1, 1), Fraction(1 - (-1) ** (m + 1), m * (m + 1)))
        for m in range(1, n + 1)
    ]
    q_polys = [(Fraction(1),)]
    for k in range(1, n + 1):
        qk: Poly = ()
        for j in range(1, k + 1):
            qk = _poly_add(qk, _poly_mul(_poly_scale(c[j], Fraction(j, k)), q_polys[k - j]))
        q_polys.append(qk)
    r_polys = [(), ()] + [
        _poly_scale(
            _poly_add(_bernoulli_poly(m + 1, -1), _poly_scale(_bernoulli_poly(m + 1, 1), -1)),
            Fraction((-1) ** (m + 1), m * (m + 1)),
        )
        for m in range(2, n + 1)
    ]
    exp_ = GammaRatioExpansion(tuple(q_polys), tuple(r_polys), n)
    exp_.validate()
    return exp_


def evaluate_ratio(exp_: GammaRatioExpansion, nu: float, s: complex) -> complex:
    """nu^(1-2s) * sum_k Q_k(s) nu^-k."""
    if nu < 5:
        raise SpecfunError("asymptotic ratio needs nu >= 5")
    s = complex(s)
    total = 0.0 + 0.0j
    for k, qk in enumerate(exp_.q_polys):
        if qk:
            total += _poly_eval(qk, s) * nu ** (-k)
    return cmath.exp((1 - 2 * s) * math.log(nu)) * total


# ---------------------------------------------------------------------------
# Hurwitz zeta (Euler-Maclaurin)
# ---------------------------------------------------------------------------


# Least number of direct terms, and the Euler-Maclaurin coefficients
# B_2j/(2j)! for j = 1..12.
_HURWITZ_N_DIRECT = 30
_HURWITZ_EM_COEFFS = tuple(
    float(bernoulli_fraction(2 * j)) / math.factorial(2 * j) for j in range(1, 13)
)


def hurwitz_zeta(s: complex, a: float) -> complex:
    """zeta(s, a) = sum_{k>=0} (a+k)^-s, continued by Euler-Maclaurin.

    The 12 corrections take B_2j/(2j)! from the float table
    `_HURWITZ_EM_COEFFS`, built once at import from the exact Bernoulli
    numbers.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-13:
        raise SpecfunError("Hurwitz zeta pole at s=1")
    if a <= 0:
        raise SpecfunError("a must be positive")
    N = max(_HURWITZ_N_DIRECT, int(abs(s.imag)) + 10)
    total = sum(complex(a + k) ** (-s) for k in range(N))
    aN = a + N
    total += aN ** (1 - s) / (s - 1)
    total += 0.5 * aN ** (-s)
    # sum_j B_2j/(2j)! * (s)_{2j-1} * aN^{-s-2j+1}
    poch = s  # (s)_1
    for j, coeff in enumerate(_HURWITZ_EM_COEFFS, start=1):
        total += coeff * poch * aN ** (-s - 2 * j + 1)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def riemann_zeta(s: complex) -> complex:
    return hurwitz_zeta(s, 1.0)


# ---------------------------------------------------------------------------
# Dirichlet series providers
# ---------------------------------------------------------------------------


def laurent_fit(
    f: Callable[[complex], complex], s0: complex = 0.0, h: float = 1e-3
) -> tuple[complex, complex]:
    """Richardson-refined central-difference fit of (Res_1, Res_0) at a simple pole.

    f is evaluated once at each of s0 +/- h and s0 +/- 2h; both coefficients
    are second-order differences refined to fourth order.
    """
    f1p, f1m = f(s0 + h), f(s0 - h)
    f2p, f2m = f(s0 + 2 * h), f(s0 - 2 * h)
    res1 = (4.0 * ((f1p - f1m) * h / 2.0) - (f2p - f2m) * (2 * h) / 2.0) / 3.0
    res0 = (4.0 * ((f1p + f1m) / 2.0) - (f2p + f2m) / 2.0) / 3.0
    return res1, res0


# Most terms a provider enumerates below a threshold.
_TERMS_CAP = 100000


class DirichletSeriesProvider:
    """zeta(s) = sum_j a_j nu_j^-s with an explicit meromorphic continuation.

    Subclasses implement `zeta` and `term_iter`; the pole ledger defaults to
    empty and residue/finite-part extraction to the Richardson-refined
    `laurent_fit` of `zeta` at the pole.
    """

    def zeta(self, s: complex) -> complex:
        raise NotImplementedError

    def term_iter(self):
        """Yield (weight, nu) in nondecreasing nu order."""
        raise NotImplementedError

    def terms_below(self, nu_max: float):
        out = []
        for w, nu in self.term_iter():
            if nu > nu_max or len(out) >= _TERMS_CAP:
                break
            out.append((w, nu))
        return out

    def pole_locations(self) -> tuple[complex, ...]:
        return ()

    def is_pole(self, s: complex, tol: float = 1e-8) -> bool:
        return any(abs(complex(s) - p) <= tol for p in self.pole_locations())

    def residue_at(self, s0: complex) -> complex:
        if not self.is_pole(s0, tol=1e-6):
            return 0.0
        return laurent_fit(self.zeta, s0)[0]

    def value_at(self, s0: complex) -> complex:
        """Finite part (constant Laurent coefficient) at s0."""
        if not self.is_pole(s0, tol=1e-6):
            return self.zeta(s0)
        return laurent_fit(self.zeta, s0)[1]

    def to_json_dict(self) -> dict:
        return {"kind": "opaque"}

    def partial_sum(self, s: complex, n_terms: int) -> complex:
        total = 0.0 + 0.0j
        for i, (w, nu) in enumerate(self.term_iter()):
            if i >= n_terms:
                break
            total += w * complex(nu) ** (-complex(s))
        return total

    def continuation_consistency(self, s_points, n_terms: int = 4000) -> float:
        """Max |continuation - direct sum| over points in the convergence region."""
        worst = 0.0
        for s in s_points:
            direct = self.partial_sum(s, n_terms)
            worst = max(worst, abs(self.zeta(s) - direct))
        return worst


class FiniteSpectrumProvider(DirichletSeriesProvider):
    def __init__(self, pairs: Sequence[tuple[complex, float]]):
        # pairs of (weight, nu), nu > 0
        self.pairs = tuple(sorted(pairs, key=lambda t: t[1]))
        if any(nu <= 0 for _, nu in self.pairs):
            raise SpecfunError("nu values must be positive")

    def zeta(self, s: complex) -> complex:
        return sum(w * complex(nu) ** (-complex(s)) for w, nu in self.pairs)

    def term_iter(self):
        yield from self.pairs


class HurwitzZetaProvider(DirichletSeriesProvider):
    """zeta(s) = scale * zeta_H(exponent*s, a) = sum_j scale*((a+j)^exponent)^-s."""

    def __init__(self, a: float, scale: float = 1.0, exponent: float = 1.0):
        if a <= 0:
            raise SpecfunError("a must be positive")
        if exponent <= 0:
            raise SpecfunError("exponent must be positive")
        self.a = a
        self.scale = scale
        self.exponent = exponent

    def zeta(self, s: complex) -> complex:
        return self.scale * hurwitz_zeta(self.exponent * complex(s), self.a)

    def term_iter(self):
        j = 0
        while True:
            yield (self.scale, (self.a + j) ** self.exponent)
            j += 1

    def pole_locations(self):
        return (complex(1.0 / self.exponent),)

    def residue_at(self, s0):
        if abs(complex(s0) - 1.0 / self.exponent) <= 1e-6:
            return self.scale / self.exponent
        return 0.0

    def value_at(self, s0):
        if abs(complex(s0) - 1.0 / self.exponent) <= 1e-6:
            return -self.scale * digamma(self.a)
        return self.zeta(s0)

    def to_json_dict(self) -> dict:
        d = {"kind": "riemann"} if self.a == 1.0 else {"kind": "hurwitz", "a": self.a}
        return {**d, "scale": self.scale, "exponent": self.exponent}


class RiemannZetaProvider(HurwitzZetaProvider):
    """zeta(s) = scale * zeta_R(exponent * s) = sum_j scale * (j^exponent)^-s."""

    def __init__(self, scale: float = 1.0, exponent: float = 1.0):
        super().__init__(1.0, scale, exponent)


def _complex_binom(top: complex, m: int) -> complex:
    out = 1.0 + 0.0j
    for i in range(m):
        out *= (top - i) / (i + 1)
    return out


# Exact head n <= 12 and binomial terms m <= 26 of PowerShiftSquaredProvider.
_POWER_SHIFT_HEAD = 12
_POWER_SHIFT_TERMS = 26


class PowerShiftSquaredProvider(DirichletSeriesProvider):
    """zeta(s) = sum_{n>=1} ((n^gamma + delta)^2)^-s, for |delta| < 1.

    Continued by an exact head (n <= _POWER_SHIFT_HEAD) plus the binomial
    expansion of (1 + delta n^-gamma)^(-2s) against Hurwitz zeta tails.
    """

    def __init__(self, gamma_pow: float, delta: float):
        if not (0 < gamma_pow):
            raise SpecfunError("gamma_pow must be positive")
        if abs(delta) >= 1:
            raise SpecfunError("|delta| must be < 1")
        self.gamma_pow = gamma_pow
        self.delta = delta

    def zeta(self, s: complex) -> complex:
        s = complex(s)
        g, d = self.gamma_pow, self.delta
        total = sum(
            (float(n) ** g + d) ** (-2 * s) for n in range(1, _POWER_SHIFT_HEAD + 1)
        )
        for m in range(_POWER_SHIFT_TERMS + 1):
            arg = 2 * g * s + g * m
            total += (
                _complex_binom(-2 * s, m)
                * d**m
                * hurwitz_zeta(arg, float(_POWER_SHIFT_HEAD + 1))
            )
        return total

    def term_iter(self):
        n = 1
        while True:
            yield (1.0, (float(n) ** self.gamma_pow + self.delta) ** 2)
            n += 1

    def pole_locations(self):
        g = self.gamma_pow
        return tuple(
            complex((1 - g * m) / (2 * g)) for m in range(_POWER_SHIFT_TERMS + 1)
        )

    def residue_at(self, s0):
        g, d = self.gamma_pow, self.delta
        for m in range(_POWER_SHIFT_TERMS + 1):
            loc = (1 - g * m) / (2 * g)
            if abs(complex(s0) - loc) <= 1e-6:
                return _complex_binom(-2 * complex(loc), m) * d**m / (2 * g)
        return 0.0
