"""Mellin transform of expandable functions, and the regularized calculus.

The Mellin transform of f with log-power expansions at both endpoints is
meromorphic on the strip 1 - p < Re z < 1 + q.  Its pole structure comes
entirely from the stored expansion terms, through the exact building block

    A_c(w, k) = integral_0^c x^{w-1} log(x)**k dx = (d/dw)^k [c^w / w],

whose only singular Laurent coefficient at w = 0 is (-1)^k k! at w^{-(k+1)}.
The remainder pieces of f are integrated by adaptive Gauss-Kronrod quadrature.

The regularized integral of f is the constant Laurent coefficient of Mf at
z = 1; the regularized limit is the coefficient of x^0 log^0 x in the
expansion.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .expansions import ExpandableFunction

QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10
POLE_GUARD = 1e-9
POLE_MERGE_TOL = 1e-10
POLE_DROP_TOL = 1e-13


class MellinError(Exception):
    pass


class MellinPoleError(MellinError):
    """Evaluation requested at (or too close to) a pole."""


@dataclass(frozen=True)
class PoleData:
    """location and principal-part coefficients c_k of (z-location)**(-k), k=1..m."""

    location: complex
    principal_part: tuple[complex, ...]

    def __post_init__(self):
        if not self.principal_part or self.principal_part[-1] == 0:
            raise ValueError("highest principal-part coefficient must be nonzero")

    @property
    def order(self) -> int:
        return len(self.principal_part)


@dataclass(frozen=True)
class MeromorphicFunction:
    """Evaluator off poles within a declared vertical strip, plus pole ledger."""

    evaluator: Callable[[complex], complex]
    poles: tuple[PoleData, ...]
    strip: tuple[float, float]
    laurent: Optional[Callable[[complex, int], complex]] = None

    def __call__(self, z: complex) -> complex:
        return self.evaluator(z)

    def pole_at(self, z0: complex, tol: float = 1e-8) -> Optional[PoleData]:
        for p in self.poles:
            if abs(p.location - z0) <= tol:
                return p
        return None


# ---------------------------------------------------------------------------
# The monomial building block A_c(w, k)
# ---------------------------------------------------------------------------


def monomial_block(w: complex, k: int, c: float) -> complex:
    """A_c(w,k) = (d/dw)^k [c^w / w], valid for any w != 0.

    For Re w > 0 this is integral_0^c x^{w-1} log^k x dx; elsewhere it is the
    analytic continuation.
    """
    if w == 0:
        raise ZeroDivisionError("monomial block evaluated at its pole")
    lc = math.log(c)
    # (d/dw)^k [c^w/w] = sum_{j=0}^k C(k,j) (log c)^j c^w * (d/dw)^{k-j}[1/w]
    total = 0.0 + 0.0j
    cw = cmath.exp(w * lc)
    for j in range(k + 1):
        m = k - j
        total += (
            math.comb(k, j)
            * lc**j
            * cw
            * ((-1.0) ** m * math.factorial(m))
            * w ** (-(m + 1))
        )
    return total


def monomial_block_regular_coefficient(j: int, k: int, c: float) -> complex:
    """Taylor coefficient of w**j in the regular part of A_c(w,k) at w=0.

    The Laurent expansion at 0 is
        A_c(w,k) = (-1)^k k! w^{-(k+1)} + sum_{j>=0} log(c)^{j+k+1}/((j+k+1) j!) w^j.
    """
    lc = math.log(c)
    return lc ** (j + k + 1) / ((j + k + 1) * math.factorial(j))


def monomial_integral_regularized(alpha: complex, k: int) -> complex:
    """Regularized integral of x**alpha log^k x over [0,1].

    Equals (-1)^k k!/(alpha+1)^{k+1} for alpha != -1 and 0 for alpha = -1;
    the [1,inf) side is the negative of this, so the global value vanishes.
    """
    a1 = complex(alpha) + 1.0
    if abs(a1) <= 1e-12:
        return 0.0
    return (-1.0) ** k * math.factorial(k) / a1 ** (k + 1)


# ---------------------------------------------------------------------------
# Quadrature of the remainder pieces
# ---------------------------------------------------------------------------


def _quad_complex(fn: Callable[[float], complex], a: float, b: float) -> complex:
    re, _ = quad(lambda x: fn(x).real, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=400)
    im, _ = quad(lambda x: fn(x).imag, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=400)
    return complex(re, im)


def _quad_zero_side(f: ExpandableFunction, z: complex, cut: float) -> complex:
    def integrand(x: float) -> complex:
        r = f.remainder_at_zero(x)
        if r == 0:
            return 0.0
        return complex(x) ** (z - 1) * r

    return _quad_complex(integrand, 0.0, cut)


def _quad_infinity_side(f: ExpandableFunction, z: complex, cut: float) -> complex:
    # substitute x = cut/u to map [cut, inf) onto (0, 1]
    c = cut

    def integrand(u: float) -> complex:
        x = c / u
        r = f.remainder_at_infinity(x)
        if r == 0:
            return 0.0
        return complex(x) ** (z - 1) * r * (x / u)

    return _quad_complex(integrand, 0.0, 1.0)


# ---------------------------------------------------------------------------
# The transform
# ---------------------------------------------------------------------------


def mellin_transform(f: ExpandableFunction, cut: float = 1.0) -> MeromorphicFunction:
    """Meromorphic Mellin transform of f on the strip (1-p, 1+q).

    Poles sit at -alpha for zero-side exponents (order m+1 for log power m)
    and at -beta for infinity-side exponents; principal parts are assembled
    exactly from the monomial block, so cancellation between the two sides
    (globally monomial f) is detected and such poles are dropped.
    """
    p = f.expansion_at_zero.remainder_order
    q = f.expansion_at_infinity.remainder_order
    if p <= 0 or q <= 0:
        raise MellinError("need positive remainder orders p, q at both endpoints")
    if cut <= 0:
        raise MellinError("cut must be positive")
    strip = (1.0 - p, 1.0 + q)

    zero_terms = f.expansion_at_zero.terms
    inf_terms = f.expansion_at_infinity.terms

    # pole ledger: -exponent -> {order k+1: coefficient}
    pole_acc: list[tuple[complex, dict[int, complex]]] = []

    def accumulate(location: complex, order: int, coef: complex):
        for loc, d in pole_acc:
            if abs(loc - location) <= POLE_MERGE_TOL:
                d[order] = d.get(order, 0.0) + coef
                return
        pole_acc.append((location, {order: coef}))

    for t in zero_terms:
        accumulate(-t.exponent, t.log_power + 1,
                   t.coefficient * (-1.0) ** t.log_power * math.factorial(t.log_power))
    for t in inf_terms:
        accumulate(-t.exponent, t.log_power + 1,
                   -t.coefficient * (-1.0) ** t.log_power * math.factorial(t.log_power))

    poles = []
    for loc, d in pole_acc:
        m = max(d)
        if all(abs(d.get(k, 0.0)) < POLE_DROP_TOL for k in range(1, m + 1)):
            continue
        while m > 0 and abs(d.get(m, 0.0)) < POLE_DROP_TOL:
            m -= 1
        poles.append(PoleData(loc, tuple(d.get(k, 0.0) for k in range(1, m + 1))))
    poles = tuple(sorted(poles, key=lambda pd: (pd.location.real, pd.location.imag)))

    def term_sum(z: complex) -> complex:
        total = 0.0 + 0.0j
        for t in zero_terms:
            total += t.coefficient * monomial_block(z + t.exponent, t.log_power, cut)
        for t in inf_terms:
            total -= t.coefficient * monomial_block(z + t.exponent, t.log_power, cut)
        return total

    def evaluator(z: complex) -> complex:
        z = complex(z)
        if not (strip[0] - 1e-9 < z.real < strip[1] + 1e-9):
            raise MellinError(f"z={z} outside strip {strip}")
        for pd in poles:
            if abs(z - pd.location) < POLE_GUARD:
                raise MellinPoleError(f"z={z} too close to pole at {pd.location}")
        return term_sum(z) + _quad_zero_side(f, z, cut) + _quad_infinity_side(f, z, cut)

    def laurent(z0: complex, j: int) -> complex:
        """Laurent coefficient of (z-z0)**j of Mf at z0, for j <= 0."""
        z0 = complex(z0)
        if j < 0:
            for pd in poles:
                if abs(z0 - pd.location) <= 1e-8:
                    k = -j
                    return pd.principal_part[k - 1] if k <= pd.order else 0.0
            return 0.0
        if j > 0:
            raise NotImplementedError("only principal and constant coefficients")
        # constant coefficient: exact regular parts of terms hitting z0,
        # full block values for the others, plus the remainder quadratures
        total = 0.0 + 0.0j
        for sign, terms in ((1.0, zero_terms), (-1.0, inf_terms)):
            for t in terms:
                w = z0 + t.exponent
                if abs(w) <= 1e-8:
                    total += sign * t.coefficient * monomial_block_regular_coefficient(
                        0, t.log_power, cut
                    )
                else:
                    total += sign * t.coefficient * monomial_block(w, t.log_power, cut)
        total += _quad_zero_side(f, z0, cut) + _quad_infinity_side(f, z0, cut)
        return total

    return MeromorphicFunction(evaluator, poles, strip, laurent)


# ---------------------------------------------------------------------------
# Regularized integral / limit / partial integrals
# ---------------------------------------------------------------------------


def regularized_integral(f: ExpandableFunction, cut: float = 1.0) -> complex:
    """The constant Laurent coefficient of Mf at z = 1.

    Coincides with the Lebesgue integral whenever f is integrable.
    """
    return mellin_transform(f, cut).laurent(1.0, 0)


class Side(enum.Enum):
    ZERO_TO_C = "zero_to_c"
    C_TO_INF = "c_to_inf"


def regularized_integral_partial(f: ExpandableFunction, c: float, side: Side) -> complex:
    """Regularized integral over [0,c] or [c,infinity).

    Computed through the antiderivative relation: the continued antiderivative
    of the stored terms evaluated at c, plus ordinary quadrature of the
    remainder; x**-1 log**k terms contribute log(c)**(k+1)/(k+1).
    """
    if c <= 0:
        raise MellinError("c must be positive")
    if f.p <= 0 or f.q <= 0:
        raise MellinError("need positive remainder orders p, q")
    total = 0.0 + 0.0j
    if side is Side.ZERO_TO_C:
        for t in f.expansion_at_zero.terms:
            w = 1.0 + t.exponent
            if abs(w) <= 1e-12:
                total += t.coefficient * math.log(c) ** (t.log_power + 1) / (t.log_power + 1)
            else:
                total += t.coefficient * monomial_block(w, t.log_power, c)
        total += _quad_complex(f.remainder_at_zero, 0.0, c)
    elif side is Side.C_TO_INF:
        for t in f.expansion_at_infinity.terms:
            w = 1.0 + t.exponent
            if abs(w) <= 1e-12:
                total -= t.coefficient * math.log(c) ** (t.log_power + 1) / (t.log_power + 1)
            else:
                total -= t.coefficient * monomial_block(w, t.log_power, c)

        def integrand(u: float) -> complex:
            x = c / u
            r = f.remainder_at_infinity(x)
            return 0.0 if r == 0 else r * (x / u)

        total += _quad_complex(integrand, 0.0, 1.0)
    else:
        raise ValueError(side)
    return total


class At(enum.Enum):
    ZERO = "zero"
    INFINITY = "infinity"


def regularized_limit(f: ExpandableFunction, at: At) -> complex:
    """Coefficient of x^0 log^0 x in the expansion at the endpoint."""
    e = f.expansion_at_zero if at is At.ZERO else f.expansion_at_infinity
    return e.coefficient(0.0, 0)


def scale_rule(f: ExpandableFunction, lam: float, cut: float = 1.0) -> complex:
    """Regularized integral of x |-> f(lam x) via the stored x**-1 coefficients.

    (1/lam) ( reg-int f + sum_k b_{-1,k} log^{k+1}(lam)/(k+1)
                        - sum_k a_{-1,k} log^{k+1}(lam)/(k+1) ).
    """
    if lam <= 0:
        raise MellinError("lam must be positive")
    base = regularized_integral(f, cut)
    ll = math.log(lam)
    corr = 0.0 + 0.0j
    for t in f.expansion_at_infinity.terms:
        if abs(t.exponent + 1.0) <= 1e-12:
            corr += t.coefficient * ll ** (t.log_power + 1) / (t.log_power + 1)
    for t in f.expansion_at_zero.terms:
        if abs(t.exponent + 1.0) <= 1e-12:
            corr -= t.coefficient * ll ** (t.log_power + 1) / (t.log_power + 1)
    return (base + corr) / lam


# ---------------------------------------------------------------------------
# Vertical strip decay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StripDecayReport:
    strip: tuple[float, float]
    order: int
    samples: tuple[tuple[complex, float], ...]
    observed_constant: float
    decay_slope: float
    pole_in_strip: bool


def vertical_strip_decay(
    f: ExpandableFunction,
    strip: tuple[float, float],
    order: int,
    im_max: float = 100.0,
    n_samples: int = 30,
    cut: float = 1.0,
) -> StripDecayReport:
    """Empirical rapid-decay certificate for Mf on a closed substrip.

    Samples |Mf| on the two boundary lines up to |Im z| = im_max, reports the
    observed constant sup |z|**order * |Mf(z)| and the log-log decay slope
    fitted on the samples with |Im z| >= 10.
    """
    if not f.differentiable:
        raise MellinError("strip decay requires the smoothness certificate")
    m = mellin_transform(f, cut)
    a, b = strip
    pole_in_strip = any(a - 1e-9 <= pd.location.real <= b + 1e-9 for pd in m.poles)
    if pole_in_strip:
        return StripDecayReport(strip, order, (), math.inf, 0.0, True)
    ys = np.logspace(0.0, math.log10(im_max), n_samples)
    samples = []
    for re_part in (a, b):
        for y in ys:
            z = complex(re_part, float(y))
            samples.append((z, abs(m(z))))
    observed = max(abs(z) ** order * v for z, v in samples)
    fit_pts = [(math.log10(abs(z.imag)), math.log10(v))
               for z, v in samples if abs(z.imag) >= 10.0 and v > 0]
    if len(fit_pts) >= 2:
        xs = np.array([u for u, _ in fit_pts])
        vs = np.array([v for _, v in fit_pts])
        slope = float(np.polyfit(xs, vs, 1)[0])
    else:
        slope = 0.0
    return StripDecayReport(strip, order, tuple(samples), observed, slope, False)
