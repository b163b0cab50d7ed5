"""Special-function kernel.

Gamma-family wrappers, with `gamma_quotients`, which computes every explicit
Gamma quotient of the cone's Gamma-ratio sum Phi (Gauss's sums included); the
zeros of Bessel J, the exponentially scaled modified Bessel I (the Amos
routine behind scipy.special.ive), Laguerre polynomials and the l_n^(p)
eigenfamily of the Hankel transform, the Hankel transform itself, exact
Bernoulli numbers, the asymptotic expansion of the Gamma ratio
Gamma(nu-s+1)/Gamma(nu+s) up to order MAX_RATIO_ORDER = 10 (exact
coefficients from the Bernoulli polynomials of DLMF 5.11.8), Hurwitz zeta by
Euler-Maclaurin, and Dirichlet series providers with meromorphic
continuation, which state their Gauss families as data where they have
them.

Arrays: the zeros of J_p come as a batch from one vectorized Newton pass;
laguerre and l_fn broadcast over an array x (a scalar keeps its math path);
hankel_transform takes an f that maps a float array to an array.  Its only
quadrature is mellin's quad, the package's one Gauss-Kronrod rule, which it
calls on batches of panels between consecutive asymptotic zeros of J_p (the
Newton starts of bessel_j_zero, one table per call) with an integrand block
of one column per panel; scipy.integrate is not imported.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import scipy.special as sps

from .mellin import MellinError, quad

EULER_GAMMA = 0.5772156649015328606

MAX_RATIO_ORDER = 10


class SpecfunError(Exception):
    pass


class HankelConvergenceError(SpecfunError):
    pass


# ---------------------------------------------------------------------------
# Gamma family
# ---------------------------------------------------------------------------


# Distance within which a point counts as a nonpositive integer (a Gamma pole).
_INTEGER_TOL = 1e-12


def _is_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    return (abs(z.imag) <= _INTEGER_TOL and z.real <= 0.5
            and abs(z.real - round(z.real)) <= _INTEGER_TOL)


def _nonpositive_integer_mask(z: np.ndarray) -> np.ndarray:
    """`_is_nonpositive_integer` elementwise; the tests past Re z <= 1/2 run if any passes."""
    x = z.real
    near = x <= 0.5
    if np.count_nonzero(near):
        near &= (np.abs(z.imag) <= _INTEGER_TOL) & (np.abs(x - np.rint(x)) <= _INTEGER_TOL)
    return near


def gamma(z: complex) -> complex:
    """Gamma function.  Domain: finite z off the poles at 0, -1, -2, ...,
    where it raises."""
    if not cmath.isfinite(z):
        raise SpecfunError(f"gamma argument must be finite, not {z}")
    if _is_nonpositive_integer(z):
        raise SpecfunError(f"gamma pole at z={z}")
    return complex(sps.gamma(complex(z)))


def log_gamma(z: complex) -> complex:
    """The principal branch of log Gamma (scipy.special.loggamma).  Domain:
    finite z off the poles at 0, -1, -2, ..., where it raises."""
    if not cmath.isfinite(z):
        raise SpecfunError(f"log_gamma argument must be finite, not {z}")
    if _is_nonpositive_integer(z):
        raise SpecfunError(f"log_gamma pole at z={z}")
    return complex(sps.loggamma(complex(z)))


def rgamma(z: complex) -> complex:
    """1/Gamma(z); entire, zero at nonpositive integers.  Domain: finite z."""
    if not cmath.isfinite(z):
        raise SpecfunError(f"rgamma argument must be finite, not {z}")
    return complex(sps.rgamma(complex(z)))


def digamma(z: complex) -> complex:
    """Gamma'/Gamma.  Domain: finite z off the poles at 0, -1, -2, ..., where
    it raises."""
    if not cmath.isfinite(z):
        raise SpecfunError(f"digamma argument must be finite, not {z}")
    if _is_nonpositive_integer(z):
        raise SpecfunError(f"digamma pole at z={z}")
    return complex(sps.digamma(complex(z)))


_QUOTIENT_ULPS = 16.0
_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(np.finfo(float).max)  # exp overflows above it


def gamma_quotients(u: np.ndarray, v: np.ndarray, estimate: bool):
    """Gamma(u) / Gamma(v) elementwise over complex arrays u and v that
    broadcast, as exp(log Gamma(u) - log Gamma(v)), and with `estimate` a
    bound on each quotient's relative rounding in units of eps (else None).
    Every explicit Gamma quotient of the cone's Phi comes from here.

    u must be off the poles, which each caller checks in its own terms.  A
    quotient is 0, with bound 0, where v is a nonpositive integer, and
    OverflowError where its magnitude exceeds the largest double.  Each
    quotient depends on its own u and v alone.

    The bound is _QUOTIENT_ULPS (the exponential, a product or two and a
    sum), plus |log Gamma(u)| + |log Gamma(v)| (the rounding of the loggamma
    values), plus (|u| + |v| + 1)(|psi(u)| + |psi(v)|) (that of arguments
    summed from numbers up to |u| + |v| + 1), with |psi(z)| <= log(|z| + 2)
    + 5 + 1/d for d the distance from z to the nearest pole: psi(z) is log z
    - 1/(2z) - ... for Re z >= 1/2, and the reflection psi(1-z) - pi cot(pi
    z) adds at most about 1/d + pi below.
    """
    log_u, log_v = sps.loggamma(u), sps.loggamma(v)
    log_q = log_u - log_v
    # checked first, so that exp cannot overflow (loggamma is nan on a pole of v)
    if np.count_nonzero(log_q.real > _LOG_MAX):
        raise OverflowError("a Gamma quotient exceeds the largest double")
    q = np.exp(log_q)
    zero = _nonpositive_integer_mask(v)
    if np.count_nonzero(zero):
        q[np.broadcast_to(zero, q.shape)] = 0.0
    if not estimate:
        return q, None
    with np.errstate(all="ignore"):
        size_u, size_v = np.abs(u), np.abs(v)
        psi = (np.log((size_u + 2.0) * (size_v + 2.0)) + 10.0
               + 1.0 / np.abs(u - np.minimum(0.0, np.rint(u.real)))
               + 1.0 / np.abs(v - np.minimum(0.0, np.rint(v.real))))
        bound = _QUOTIENT_ULPS + np.abs(log_u) + np.abs(log_v) + (size_u + size_v + 1.0) * psi
    return q, np.where(zero, 0.0, bound)


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------


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


def _airy_zero(m: np.ndarray) -> np.ndarray:
    """The m-th negative zero a_m of Ai, from its asymptotic expansion in
    t = 3 pi (4m - 1)/8 (DLMF 9.9.6, 9.9.18): within 6e-4 of it for m >= 1."""
    t = 3.0 * math.pi * (4.0 * m - 1.0) / 8.0
    return -(t ** (2.0 / 3.0)) * (1.0 + 5.0 / 48.0 * t**-2 - 5.0 / 36.0 * t**-4)


def _olver_z(w: np.ndarray) -> np.ndarray:
    """The z > 1 with sqrt(z^2 - 1) - arcsec z = w (DLMF 10.20.3, with
    w = (2/3)(-zeta)^(3/2)).  The left side is convex and increasing in z,
    and exceeds w at z = w + pi/2, so Newton's method from there decreases
    monotonically to the root; twelve steps reach it to rounding for every
    w >= 1e-5 (p up to 2e5 in _bessel_j_zero_start, whose starts both
    bessel_j_zero and hankel_transform's panel table take), each element
    on its own."""
    z = w + 0.5 * math.pi
    for _ in range(12):
        r = np.sqrt(z * z - 1.0)
        z = z - (r - np.arccos(1.0 / z) - w) * z / r
    return z


def _bessel_j_zero_start(p: float, ms: np.ndarray) -> np.ndarray:
    """Asymptotic starts for the zeros j_(p,m) of J_p, p > -1, at a float
    array of indices m >= 1, with no Newton step.

    McMahon's expansion in 1/(m + p/2 - 1/4) (DLMF 10.21.19) for p < 1, and
    for p >= 1 the leading term p z(zeta), zeta = p^(-2/3) a_m, of Olver's
    expansion (DLMF 10.21.43), which is uniform in m where McMahon's fails
    for m small against p.  For p >= -0.99 and m <= 80 each start is within
    0.2 of its zero, and consecutive zeros are at least 3.1 apart.  Below
    p = -0.99 the first zero, which tends to 0 and which McMahon's start
    overshoots by up to 0.35, starts from 2 sqrt((p+1)(p+2)) instead: the
    power series of J_p puts it about (p+1)/4 (relative) above the zero,
    under 0.25 % there.
    """
    if p >= 1.0:
        return p * _olver_z((2.0 / 3.0) * (-_airy_zero(ms)) ** 1.5 / p)
    beta = (ms + p / 2.0 - 0.25) * math.pi
    mu = 4.0 * p * p
    x = beta - (mu - 1) / (8 * beta) - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta) ** 3)
    if p < -0.99:
        x = np.where(ms == 1, 2.0 * math.sqrt((p + 1.0) * (p + 2.0)), x)
    return x


def bessel_j_zero(p: float, m):
    """The m-th positive zero j_(p,m) of J_p, for finite p > -1 and m >= 1,
    an int or an int array (then an array of the zeros); else SpecfunError.

    Newton's method from the starts of _bessel_j_zero_start, each well
    inside its zero's half-spacing (at least 1.5), or, for the first zero
    below p = -0.99, within 0.25 % of it.  The batch takes one vectorized
    Newton pass; each zero stops where its own step falls under
    1e-14 max(1, x), so its value does not depend on the batch.  A zero
    that is not finite raises SpecfunError.
    """
    if not -1 < p < math.inf:  # NaN fails too
        raise SpecfunError(f"order must be finite and exceed -1, not {p}")
    ms = np.asarray(m)
    if ms.dtype.kind not in "iu" or np.any(ms < 1):
        raise SpecfunError("m must be an integer >= 1")
    x = np.atleast_1d(_bessel_j_zero_start(p, ms.astype(float)))
    active = np.ones(x.shape, dtype=bool)
    for _ in range(50):
        xa = x[active]
        step = sps.jv(p, xa) / sps.jvp(p, xa)
        x[active] = xa - step
        active[active] = np.abs(step) >= 1e-14 * np.maximum(1.0, x[active])
        if not active.any():
            break
    if not np.isfinite(x).all():
        raise SpecfunError(f"Newton's method left a zero of J_{p} that is not finite")
    return float(x[0]) if ms.ndim == 0 else x.reshape(ms.shape)


# ---------------------------------------------------------------------------
# Laguerre family
# ---------------------------------------------------------------------------


def laguerre(n: int, p: float, x):
    """Generalized Laguerre polynomial L_n^{(p)}(x) by the stable recurrence;
    x a float or an array."""
    if n < 0:
        raise SpecfunError("n must be >= 0")
    if n == 0:
        return 1.0 if np.ndim(x) == 0 else np.ones(np.shape(x))
    lm, l = 1.0, 1.0 + p - x
    for j in range(1, n):
        lm, l = l, ((2 * j + 1 + p - x) * l - (j + p) * lm) / (j + 1)
    return l


def l_fn(n: int, p: float, x):
    """l_n^{(p)}(x) = x^{p+1/2} e^{-x^2/2} L_n^{(p)}(x^2); x a float, or an
    array, where it is evaluated elementwise by numpy.  At x = 0 it is 0 for
    p > -1/2 and L_n^(-1/2)(0) = C(n - 1/2, n) at p = -1/2; for p < -1/2 it
    is infinite there, and x = 0 raises SpecfunError, as does x < 0."""
    if np.ndim(x) == 0:
        if x < 0:
            raise SpecfunError("x must be >= 0")
        if x == 0 and p < -0.5:
            raise SpecfunError(f"l_n^(p)(0) is infinite for p = {p} < -1/2")
        return x ** (p + 0.5) * math.exp(-x * x / 2.0) * laguerre(n, p, x * x)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise SpecfunError("x must be >= 0")
    if p < -0.5 and np.any(x == 0):
        raise SpecfunError(f"l_n^(p)(0) is infinite for p = {p} < -1/2")
    return x ** (p + 0.5) * np.exp(-x * x / 2.0) * laguerre(n, p, x * x)


# ---------------------------------------------------------------------------
# Hankel transform
# ---------------------------------------------------------------------------


def _euler_accelerate(partials: Sequence[float]) -> float:
    """Euler transform applied to a sequence of partial sums."""
    row = list(partials)
    while len(row) > 1:
        row = [(row[i] + row[i + 1]) / 2.0 for i in range(len(row) - 1)]
    return row[0]


# Convergence tolerance, panel budget and panels per quadrature of
# hankel_transform, and the equal start subintervals of its first panel.
_HANKEL_TOL = 1e-10
_HANKEL_MAX_PANELS = 80
_HANKEL_BATCH = 6
_HANKEL_FIRST_PIECES = 4


def hankel_transform(f: Callable[[np.ndarray], np.ndarray], p: float, x: float) -> float:
    """(H_p f)(x) = integral_0^inf (x y)^{1/2} J_p(x y) f(y) dy, for an f
    that maps a float array of y to an array of values.

    The y-axis is split into panels at ends near the scaled zeros
    j_(p,m)/x of J_p: one table of _HANKEL_MAX_PANELS ends per call, from
    the asymptotic starts of _bessel_j_zero_start with no Newton step.  The
    integrand is analytic across an end, and each start is well inside its
    zero's half-spacing, so each panel still holds one lobe of the
    alternating integrand, as the Euler-accelerated tail needs (Longman's
    method).  Each batch of _HANKEL_BATCH panels is one call of mellin's
    quad, in which every panel is a start subinterval and an integrand of
    its own, so each meets its own tolerance.  For p < 1, (x y)^(1/2)
    J_p(x y) ~ y^(p+1/2) has an unbounded second derivative at 0
    (p != +-1/2), which bisection would chase for twenty rounds, so the
    first panel [0, e] is integrated in t = e (y/e)^(1/4), where the power
    is t^(4p+5).  The first panel's integrand, (x y)^(p+1/2) times a
    smooth factor near 0, piles up at its right end, where one start
    subinterval would be bisected for a round or two; the first batch
    starts it as _HANKEL_FIRST_PIECES equal subintervals instead, which
    still make one column.  The panels are summed until three in a row
    fall under _HANKEL_TOL/10 (six at least); at _HANKEL_MAX_PANELS the
    alternating tail is Euler-accelerated instead.  Raises
    HankelConvergenceError if that does not stabilize either, or if a
    panel's quadrature misses its tolerance.  Domain: finite x > 0 and finite p > -1, else SpecfunError.
    """
    if not 0 < x < math.inf:  # NaN fails too
        raise SpecfunError(f"x must be finite and positive, not {x}")
    if not -1 < p < math.inf:
        raise SpecfunError(f"order must be finite and exceed -1, not {p}")

    table = _bessel_j_zero_start(p, np.arange(1.0, _HANKEL_MAX_PANELS + 1.0)) / x
    panels: list[float] = []
    edge = 0.0
    while True:
        ends = table[len(panels):len(panels) + _HANKEL_BATCH]
        lo, hi = np.concatenate([[edge], ends[:-1]]), ends
        if edge == 0.0:
            pieces = ends[0] * np.arange(_HANKEL_FIRST_PIECES + 1) / _HANKEL_FIRST_PIECES
            lo, hi = np.concatenate([pieces[:-1], lo[1:]]), np.concatenate([pieces[1:], hi[1:]])

        def columns(t: np.ndarray) -> np.ndarray:
            """The integrand at t, in the column of the panel t lies in."""
            col = np.searchsorted(ends, t)
            y, dy = t, 1.0
            if edge == 0.0 and p < 1.0:
                first, u = col == 0, t / ends[0]
                y, dy = np.where(first, ends[0] * u**4, t), np.where(first, 4.0 * u**3, 1.0)
            out = np.zeros((t.size, ends.size))
            out[np.arange(t.size), col] = np.sqrt(x * y) * sps.jv(p, x * y) * f(y) * dy
            return out

        try:
            values = quad(columns, lo, hi)[0].real
        except MellinError as exc:
            raise HankelConvergenceError(f"Hankel panel quadrature failed at x={x}: {exc}") from exc
        for v in values.tolist():
            panels.append(v)
            if len(panels) >= 6 and all(abs(v) < _HANKEL_TOL / 10 for v in panels[-3:]):
                return float(sum(panels))
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
        edge = ends[-1]


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


def _poly_eval(coeffs: Sequence[complex], s: complex) -> complex:
    """Horner's rule, index = degree."""
    out = 0.0 + 0.0j
    for c in reversed(coeffs):
        out = out * s + c
    return out


def _bernoulli_poly(n: int) -> Poly:
    """B_n(s) = sum_d C(n, d) B_(n-d) s^d."""
    return tuple(math.comb(n, d) * bernoulli_fraction(n - d) for d in range(n + 1))


@dataclass(frozen=True)
class GammaRatioExpansion:
    """Gamma(nu-s+1)/Gamma(nu+s) = nu^(1-2s) sum_k Q_k(s) nu^-k."""

    q_polys: tuple[Poly, ...]
    max_order: int
    q_complex: tuple[tuple[complex, ...], ...]  # the Q_k rounded once, for _poly_eval

    def q(self, k: int) -> Poly:
        return self.q_polys[k]

    def validate(self) -> None:
        """Structural facts: Q_0=1, Q_1=0, the printed Q_2 anchor, and the
        even-k linear coefficient of Q_k.  SpecfunError names the first that
        fails (a check that holds under `python -O` too)."""
        if self.q_polys[0] != (Fraction(1),):
            raise SpecfunError("Q_0 != 1")
        if self.max_order >= 1 and self.q_polys[1] != ():
            raise SpecfunError("Q_1 != 0")
        if self.max_order >= 2 and self.q_polys[2] != (
                Fraction(0), Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3)):
            raise SpecfunError("Q_2 anchor failed")
        for k in range(4, self.max_order + 1, 2):
            qlin = self.q_polys[k][1] if len(self.q_polys[k]) > 1 else Fraction(0)
            if qlin != 2 * (-1) ** (k // 2 - 1) * b_pos_fraction(k // 2) / k:
                raise SpecfunError(f"Q_{k} linear coeff")


@lru_cache(maxsize=None)
def gamma_ratio_expansion(max_order: int) -> GammaRatioExpansion:
    """The Q_k up to max_order <= MAX_RATIO_ORDER, in exact rational arithmetic.

    DLMF 5.11.8 gives log Gamma(nu+a)/Gamma(nu+b) = (a-b) log nu + sum_m
    (-1)^(m+1) (B_(m+1)(a) - B_(m+1)(b)) / (m(m+1)) nu^-m.  At a = 1-s, b = s
    the sum is sum_m c_m nu^-m with c_m = (1 - (-1)^(m+1)) B_(m+1)(s) / (m(m+1)),
    0 for odd m, and Q_k = sum_(j=1..k) (j/k) c_j Q_(k-j) are the
    coefficients of its exponential.
    """
    if not 0 <= max_order <= MAX_RATIO_ORDER:
        raise SpecfunError(f"max_order must lie in [0, {MAX_RATIO_ORDER}], not {max_order}")
    n = max_order
    c = [()] + [
        _poly_scale(_bernoulli_poly(m + 1), Fraction(1 - (-1) ** (m + 1), m * (m + 1)))
        for m in range(1, n + 1)
    ]
    q_polys = [(Fraction(1),)]
    for k in range(1, n + 1):
        qk: Poly = ()
        for j in range(1, k + 1):
            qk = _poly_add(qk, _poly_mul(_poly_scale(c[j], Fraction(j, k)), q_polys[k - j]))
        q_polys.append(qk)
    q_complex = tuple(tuple(complex(c) for c in qk) for qk in q_polys)
    exp_ = GammaRatioExpansion(tuple(q_polys), n, q_complex)
    exp_.validate()
    return exp_


def evaluate_ratio(exp_: GammaRatioExpansion, nu: float, s: complex) -> complex:
    """nu^(1-2s) * sum_k Q_k(s) nu^-k."""
    if nu < 5:
        raise SpecfunError("asymptotic ratio needs nu >= 5")
    s = complex(s)
    total = 0.0 + 0.0j
    for k, qk in enumerate(exp_.q_complex):
        if qk:
            total += _poly_eval(qk, s) * nu ** (-k)
    return cmath.exp((1 - 2 * s) * math.log(nu)) * total


# ---------------------------------------------------------------------------
# Hurwitz zeta (Euler-Maclaurin)
# ---------------------------------------------------------------------------


# Least number of direct terms; most terms (elements x k x shifts) summed in
# one block, 256 kB of complex temporaries (larger blocks took page faults
# on every call under Linux/glibc: 175 a call for a 4 x 4 batch of
# PowerShiftSquaredProvider at Im s = 20 with 27 x 151 terms a block, none
# at this size), and most values of the Euler-Maclaurin tails in one block
# (rows x 24 offsets, held three times at once; 227 rows a block took no
# faults for 8 to 128 elements of 27 shifts, 682 rows took 145 to 368 a
# call in some runs); the
# Euler-Maclaurin coefficients B_2j/(2j)! for j = 1..12; the offsets -1..22
# that give s-1 and the factors s+i of the Pochhammer symbols (s)_(2j-1).
_HURWITZ_N_DIRECT = 30
_HURWITZ_BLOCK = 16384
_HURWITZ_EM_COEFFS = np.array(
    [float(bernoulli_fraction(2 * j)) / math.factorial(2 * j) for j in range(1, 13)]
)
_HURWITZ_OFFSETS = np.arange(-1.0, 23.0, dtype=complex)


def _hurwitz_s_error(finite: bool) -> SpecfunError:
    return SpecfunError("Hurwitz zeta pole at s=1" if finite else "Hurwitz zeta needs a finite s")


def _hurwitz_tail(minus_s, a_n):
    """The Euler-Maclaurin tail of the Hurwitz sum past a+N, over (a+N)^-s:
    (a+N)/(s-1) + 1/2 + sum_j B_2j/(2j)! (s)_(2j-1) (a+N)^(1-2j), j = 1..12,
    for -s and a+N that broadcast and end in an axis of length 1."""
    shifted = _HURWITZ_OFFSETS - minus_s
    # (s)_(2j-1) (a+N)^(1-2j) is the running product of (s+i)/(a+N), i < 2j-1;
    # numpy divides a complex by the real a+N as the product with 1/(a+N),
    # so the product written out gives the same values, cheaper
    em = np.multiply.accumulate(shifted[..., 1:] * (1.0 / a_n), axis=-1)[..., ::2]
    corrections = np.add.reduce(em * _HURWITZ_EM_COEFFS, axis=-1, keepdims=True, initial=0.5)
    return a_n / shifted[..., :1] + corrections


def _hurwitz_shifted(s, a, shifts):
    """zeta(s + shift_m, a) for a 1-D float array of real shifts, on a new
    last axis.  shifts=None is hurwitz_zeta: zeta(s, a) alone, with no shift
    axis and no table, and a complex for scalars.

    All shifts share an element's N = max(30, |Im s| + 10) and its complex
    powers: (a+k)^(-s-shift_m) is (a+k)^-s, raised once per element and
    k < N, times the real table (a+k)^-shift_m, which does not depend on s.
    Each (element, shift) sums its N terms in order and adds its own
    Euler-Maclaurin tail at a+N, so that its value does not depend on the
    rest of the batch.  The terms are summed in blocks of k small enough
    that elements x k x shifts stays within 16384 (or one k per block), and
    the tails in blocks of (element, shift) rows small enough that rows x 24
    x 3 does.
    """
    # every step works on trailing axes, k or 1 after a shift axis of its
    # own if any, so that scalars and arrays take the same numpy loops;
    # Python scalars are checked without numpy reductions; n is N, or a
    # column of them, and a Python a stays one; size is the number of
    # elements (more where s and a share an axis, which only shrinks blocks)
    col = (..., None) if shifts is None else (..., None, None)
    if isinstance(s, (int, float, complex)):
        s = complex(s)
        dist = abs(s - 1.0) if shifts is None else min(abs(s - 1.0 + x) for x in shifts.tolist())
        if not (cmath.isfinite(s) and dist >= 1e-13):
            raise _hurwitz_s_error(cmath.isfinite(s))
        n_min = n_max = max(_HURWITZ_N_DIRECT, int(abs(s.imag)) + 10)
        n, minus_s, size = float(n_max), np.array(-s)[col], 1
    else:
        s = np.asarray(s, dtype=complex)
        dist = np.abs(s - 1.0 if shifts is None else np.add.outer(s - 1.0, shifts))
        im = np.abs(s.imag)
        finite = np.maximum.reduce(dist, axis=None) < math.inf  # NaN fails too
        if not (finite and np.minimum.reduce(dist, axis=None) >= 1e-13):
            raise _hurwitz_s_error(finite)
        n_min, n_max = (max(_HURWITZ_N_DIRECT, int(r(im, axis=None)) + 10)
                        for r in (np.minimum.reduce, np.maximum.reduce))
        n = (float(n_max) if n_min == n_max
             else np.maximum(im // 1.0 + 10.0, _HURWITZ_N_DIRECT)[col])
        minus_s, size = -s[col], s.size
    if isinstance(a, (int, float)):
        a_ok, a_col = 0 < a < math.inf, float(a)
    else:
        a = np.asarray(a, dtype=float)
        a_ok = np.minimum.reduce(a, axis=None) > 0 and np.maximum.reduce(a, axis=None) < math.inf
        a_col, size = a[col], size * a.size
    if not a_ok:  # NaN fails too
        raise SpecfunError("a must be finite and positive")
    if shifts is None:
        step = _HURWITZ_BLOCK // size or 1
    else:
        step, minus_shifts = _HURWITZ_BLOCK // (size * len(shifts)) or 1, -shifts[:, None]
    # running sums in order, carried from block to block, so that the zeros
    # past an element's own N leave its value as it is alone; with shifts,
    # (a+k)^(-s-shift_m) is the one complex power (a+k)^-s times the real
    # table (a+k)^-shift_m, and likewise at a+N
    total = 0.0
    for k0 in range(0, n_max, step):
        k_end = min(n_max, k0 + step)
        k = np.arange(float(k0), k_end)
        terms = np.power(a_col + k, minus_s)
        if shifts is not None:
            terms = terms * np.power(a_col + k, minus_shifts)
        if n_min < k_end:
            terms = np.where(k < n, terms, 0.0)
        if k0:
            terms[..., :1] += total
        total = np.add.accumulate(terms, axis=-1)[..., -1:]
    a_n = a_col + n
    power_n = np.power(a_n, minus_s)
    if shifts is not None:
        power_n, minus_s = power_n * np.power(a_n, minus_shifts), minus_s + minus_shifts
    # the tail in blocks of (element, shift) rows, each holding three arrays
    # of rows x 24 offsets at once, within _HURWITZ_BLOCK; a batch of one
    # block keeps its shape
    rows, block_rows = power_n.shape, _HURWITZ_BLOCK // (3 * len(_HURWITZ_OFFSETS))
    if power_n.size <= block_rows:
        tail = _hurwitz_tail(minus_s, a_n)
    else:
        minus_s, a_n = (np.broadcast_to(x, rows).reshape(-1, 1) for x in (minus_s, a_n))
        tail = np.concatenate([
            _hurwitz_tail(minus_s[r:r + block_rows], a_n[r:r + block_rows])
            for r in range(0, len(a_n), block_rows)
        ]).reshape(rows)
    # tail is a named array, not a temporary: numpy reuses a temporary of
    # 256 kB or more in place, which would swap the factors of the product,
    # and a complex product is not commutative to the bit
    total = total + power_n * tail
    return complex(total[0]) if total.ndim == 1 else total[..., 0]


def hurwitz_zeta(s, a):
    """zeta(s, a) = sum_{k>=0} (a+k)^-s, continued by Euler-Maclaurin.

    Each element sums the N = max(30, |Im s| + 10) terms (a+k)^-s in order,
    then adds the Euler-Maclaurin tail at a+N with 12 corrections
    B_2j/(2j)! (s)_(2j-1) (a+N)^(-s-2j+1).  `s` may be an array and `a`
    broadcasts against it; the result is a complex array, or a complex for
    scalars, and an element's value does not depend on the rest of the batch.
    This is the zero-shift column of the shifted Hurwitz kernel, which also
    gives zeta(s + shift_m, a) for real shifts from the same N complex
    powers (a+k)^-s per element, each times a real table (a+k)^-shift_m;
    PowerShiftSquaredProvider's 27 tails cost N complex powers per element
    there, where 27 calls of hurwitz_zeta cost 27 N.

    Domain: finite s != 1 and finite a > 0, else SpecfunError.  It meets mpmath to
    a relative 5e-13 on a grid of Re s in [1/2, 10], |Im s| <= 50 and
    a in [0.05, 13].  For Re s < 1/2 the 12 corrections fall short (ROADMAP
    item 14).
    """
    return _hurwitz_shifted(s, a, None)


def riemann_zeta(s):
    return hurwitz_zeta(s, 1.0)


# ---------------------------------------------------------------------------
# Dirichlet series providers
# ---------------------------------------------------------------------------


# Step h of laurent_fit's differences.
_LAURENT_STEP = 1e-3


def laurent_fit(
    f: Callable[[np.ndarray], np.ndarray], s0: complex = 0.0
) -> tuple[complex, complex]:
    """Richardson-refined central-difference fit of (Res_1, Res_0) at a simple pole.

    f is called once, on the array [s0+h, s0-h, s0+2h, s0-2h] with the step
    h = 1e-3, and returns its four values; both coefficients are
    second-order differences refined to fourth order.
    """
    h = _LAURENT_STEP
    f1p, f1m, f2p, f2m = np.asarray(f(np.array([s0 + h, s0 - h, s0 + 2 * h, s0 - 2 * h]))).tolist()
    res1 = (4.0 * ((f1p - f1m) * h / 2.0) - (f2p - f2m) * (2 * h) / 2.0) / 3.0
    res0 = (4.0 * ((f1p + f1m) / 2.0) - (f2p + f2m) / 2.0) / 3.0
    return res1, res0


# Most terms a provider enumerates below a threshold.
_TERMS_CAP = 100000

# Distance within which a provider's residue_at and value_at take s0 for its pole.
_AT_POLE = 1e-6


class DirichletSeriesProvider:
    """zeta(s) = sum_j a_j nu_j^-s with an explicit meromorphic continuation.

    Subclasses implement `zeta`, `term_iter`, `residue_at` and `value_at`,
    list their poles in `pole_locations` (none by default) and say in
    `real_weights` whether every a_j is real (not by default), which makes
    the cone's zeta-hat and eta-hat real at a real s.
    """

    def zeta(self, s):
        """The continuation at s, off the poles.  `s` may be an array, which
        gives an array of the values; scalars give a complex.  A provider
        built on `hurwitz_zeta` inherits its domain: accurate for Re s (in
        the Hurwitz variable) >= 1/2."""
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

    def real_weights(self) -> bool:
        """Whether every weight a_j is real; False unless the provider says so."""
        return False

    # pole_locations(), built once by is_pole, and as an array for arrays of s
    _poles = _pole_array = None

    def is_pole(self, s, tol: float = 1e-8):
        """Whether s lies within tol of a pole.  An array of s gives a bool
        array of its shape, one check over all its points and poles."""
        if self._poles is None:
            self._poles = tuple(self.pole_locations())
        if isinstance(s, (int, float, complex)):
            s = complex(s)
            return any(abs(s - p) <= tol for p in self._poles)
        s = np.asarray(s, dtype=complex)
        if not self._poles:
            return np.zeros(s.shape, dtype=bool)
        if self._pole_array is None:
            self._pole_array = np.array(self._poles, dtype=complex)
        return np.logical_or.reduce(np.abs(np.subtract.outer(s, self._pole_array)) <= tol, axis=-1)

    def residue_at(self, s0: complex) -> complex:
        """Residue at s0: 0 unless s0 lies within _AT_POLE of a pole."""
        raise NotImplementedError

    def value_at(self, s0: complex) -> complex:
        """Finite part (constant Laurent coefficient) at s0: zeta(s0) unless
        s0 lies within _AT_POLE of a pole."""
        raise NotImplementedError

    def gauss_families(self):
        """The (w, a) families whose terms w (a+j)^2, j >= 0, make up the
        whole series, so that its Gamma-ratio sum over the Bessel orders
        a + j has Gauss's closed form (`cone` sums it); None where the
        provider states none, as by default."""
        return None


class HurwitzZetaProvider(DirichletSeriesProvider):
    """A finite sum of Hurwitz families (w, a, e), held in `families`:
    zeta(s) = sum w zeta_H(e s, a) = sum over the families and j >= 0 of
    w ((a+j)^e)^-s.

    HurwitzZetaProvider(a, scale, exponent) is the one family (scale, a,
    exponent), and p + q holds the families of p, then those of q.  The
    signed spectrum {n + a : n in Z} of a symmetric operator, 0 < a < 1, is
    HurwitzZetaProvider(a) + HurwitzZetaProvider(1 - a, -1.0).  The terms
    are the families' terms merged by value, the earlier family first on a
    tie.  A family has its one pole at 1/e, with residue w/e and finite part
    -w psi(a); so at each pole of the ledger the residue is the sum of w/e
    over the families with that pole, and the finite part adds the other
    families' values there, both exact.  Each sum runs over the families in
    order, so one family's value is w zeta_H(e s, a) to the bit.
    """

    def __init__(self, a: float, scale: float = 1.0, exponent: float = 1.0):
        if not 0 < a < math.inf:  # NaN fails too
            raise SpecfunError(f"a must be finite and positive, not {a}")
        if not 0 < exponent < math.inf:
            raise SpecfunError(f"exponent must be finite and positive, not {exponent}")
        if not cmath.isfinite(scale):
            raise SpecfunError(f"scale must be finite, not {scale}")
        self.families = ((scale, a, exponent),)

    def __add__(self, other: HurwitzZetaProvider) -> HurwitzZetaProvider:
        total = HurwitzZetaProvider.__new__(HurwitzZetaProvider)
        total.families = self.families + other.families
        return total

    def zeta(self, s):
        parts = [w * hurwitz_zeta(e * s, a) for w, a, e in self.families]
        return sum(parts[1:], parts[0])

    def term_iter(self):
        def family(w, a, e):
            for j in itertools.count():
                yield (w, (a + j) ** e)
        return heapq.merge(*(family(*f) for f in self.families), key=lambda t: t[1])

    def pole_locations(self):
        return tuple(dict.fromkeys(complex(1.0 / e) for _, _, e in self.families))

    def real_weights(self):
        return all(complex(w).imag == 0 for w, _, _ in self.families)

    def residue_at(self, s0):
        on_pole = [w / e for w, _, e in self.families if abs(complex(s0) - 1.0 / e) <= _AT_POLE]
        return sum(on_pole[1:], on_pole[0]) if on_pole else 0.0

    def value_at(self, s0):
        if not self.is_pole(s0, tol=_AT_POLE):
            return self.zeta(s0)
        parts = [
            -w * digamma(a) if abs(complex(s0) - 1.0 / e) <= _AT_POLE
            else w * hurwitz_zeta(e * s0, a)
            for w, a, e in self.families
        ]
        return sum(parts[1:], parts[0])

    def gauss_families(self):
        """Every family, when each has exponent 2; else None."""
        if all(e == 2.0 for _, _, e in self.families):
            return [(w, a) for w, a, _ in self.families]


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
    expansion of (1 + delta n^-gamma)^(-2s) against the Hurwitz zeta tails
    zeta(2 gamma s + gamma m, 13), m = 0.._POWER_SHIFT_TERMS.  The 27 tails
    differ by the real shifts gamma m, so they come from one call of the
    shifted Hurwitz kernel: an element raises each 13+k, k < N, to one
    complex power -2 gamma s, times a real table (13+k)^(-gamma m) that does
    not depend on s, so it costs N complex powers where 27 separate Hurwitz
    values cost 27 N.  Head and tails are summed in order, so an element of
    an array call is bit-identical to its scalar call.  The domain is
    hurwitz_zeta's: accurate for Re(2 gamma s) >= 1/2 (ROADMAP item 14).

    The table of the 27 tails depends on gamma and s alone, not on delta,
    so the class keeps the last one it computed, read-only, keyed by
    (gamma, s.shape, s.tobytes()), and reuses it when the key matches.  The
    eta-hat of d/dx + S/x with S = {n^gamma} folds (S + 1/2)^2 and
    (S - 1/2)^2, whose tails are the delta = +1/2 and -1/2 providers of
    one gamma at the same points; so the second of the two shares the
    first's table, and gives the values of its own kernel call bit for bit.
    """

    # (key, tails) of the last table, replaced as one tuple, so that a
    # thread reads a key with its own table
    _last_tails = (None, None)

    def __init__(self, gamma_pow: float, delta: float):
        if not 0 < gamma_pow < math.inf:  # NaN fails too
            raise SpecfunError(f"gamma_pow must be finite and positive, not {gamma_pow}")
        if not abs(delta) < 1:
            raise SpecfunError(f"|delta| must be < 1, not {delta}")
        self.gamma_pow = gamma_pow
        self.delta = delta
        self._head_values = np.array(
            [(float(n) ** gamma_pow + delta) ** 2 for n in range(1, _POWER_SHIFT_HEAD + 1)]
        )
        # the real shifts gamma m of the Hurwitz tails, m = 0.._POWER_SHIFT_TERMS
        self._shifts = gamma_pow * np.arange(_POWER_SHIFT_TERMS + 1.0)

    def zeta(self, s):
        s = np.asarray(s, dtype=complex)
        # the head summed in order, so that an element's value does not
        # depend on the rest of the batch
        head = np.add.accumulate(np.power(self._head_values, -s[..., None]), axis=-1)[..., -1]
        # C(-2s, m) d^m for m = 0.._POWER_SHIFT_TERMS, as running products of
        # d (-2s - i) / (i + 1)
        i = np.arange(_POWER_SHIFT_TERMS)
        binom = np.multiply.accumulate(self.delta * (-2.0 * s[..., None] - i) / (i + 1.0), axis=-1)
        key = (self.gamma_pow, s.shape, s.tobytes())
        last_key, tails = PowerShiftSquaredProvider._last_tails
        if key != last_key:
            tails = _hurwitz_shifted(2 * self.gamma_pow * s, float(_POWER_SHIFT_HEAD + 1),
                                     self._shifts)
            tails.flags.writeable = False
            PowerShiftSquaredProvider._last_tails = (key, tails)
        out = head + tails[..., 0] + np.add.reduce(binom * tails[..., 1:], axis=-1)
        return complex(out) if out.ndim == 0 else out

    def term_iter(self):
        n = 1
        while True:
            yield (1.0, (float(n) ** self.gamma_pow + self.delta) ** 2)
            n += 1

    def real_weights(self):
        return True

    def gauss_families(self):
        """At gamma = 1 the terms are (n + delta)^2, n >= 1: the family
        (1, 1 + delta).  Else None."""
        if self.gamma_pow == 1:
            return [(1.0, 1.0 + self.delta)]

    def pole_locations(self):
        g = self.gamma_pow
        return tuple(
            complex((1 - g * m) / (2 * g)) for m in range(_POWER_SHIFT_TERMS + 1)
        )

    def residue_at(self, s0):
        g, d = self.gamma_pow, self.delta
        for m in range(_POWER_SHIFT_TERMS + 1):
            loc = (1 - g * m) / (2 * g)
            if abs(complex(s0) - loc) <= _AT_POLE:
                return _complex_binom(-2 * complex(loc), m) * d**m / (2 * g)
        return 0.0

    def value_at(self, s0):
        # the one fitted finite part of the providers (ROADMAP item 9)
        if not self.is_pole(s0, tol=_AT_POLE):
            return self.zeta(s0)
        return laurent_fit(self.zeta, s0)[1]
