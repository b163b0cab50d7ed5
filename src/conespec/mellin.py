"""Mellin transform of expandable functions, and the regularized calculus.

The Mellin transform of f with log-power expansions at both endpoints is
meromorphic on the strip 1 - p < Re z < 1 + q.  Its pole structure comes
entirely from the stored expansion terms, through the exact building block

    A_c(w, k) = integral_0^c x^{w-1} log(x)**k dx = (d/dw)^k [c^w / w],

whose only singular Laurent coefficient at w = 0 is (-1)^k k! at w^{-(k+1)}.
The remainder pieces of f, which f carries with the interval outside which
they vanish, are integrated by adaptive Gauss-Kronrod quadrature over that
interval only; where it misses the side of the cut there is no quadrature.

The regularized integral of f is the constant Laurent coefficient of Mf at
z = 1; the regularized limit is the coefficient of x^0 log^0 x in the
expansion.  One function of z computes that coefficient, over both sides of
the cut c or over one: the term sum (each stored term's block, or the regular
part of its block where it sits on the pole) plus the remainder quadrature.
So the partial integrals over [0, c] and [c, inf) add up to the regularized
integral with cut c.  One tolerance, POLE_TOL = 1e-8, decides that a point is
on a pole, for the evaluator's guard, the pole ledger and the term sum.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

from scipy.integrate import quad

from .expansions import ExpandableFunction, LogPowerTerm

QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10
POLE_TOL = 1e-8
POLE_DROP_TOL = 1e-13


class MellinError(Exception):
    pass


class MellinPoleError(MellinError):
    """Evaluation requested within POLE_TOL of a ledger pole."""


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
    """Mf on a vertical strip: its pole ledger and its constant Laurent coefficient.

    `regular(z)` is the constant Laurent coefficient at z, which off the poles
    is the value; calling the function evaluates it after refusing points
    outside the strip or within POLE_TOL of a ledger pole.
    """

    regular: Callable[[complex], complex]
    poles: tuple[PoleData, ...]
    strip: tuple[float, float]

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        if not (self.strip[0] - 1e-9 < z.real < self.strip[1] + 1e-9):
            raise MellinError(f"z={z} outside strip {self.strip}")
        pd = self.pole_at(z)
        if pd is not None:
            raise MellinPoleError(f"z={z} too close to pole at {pd.location}")
        return self.regular(z)

    def pole_at(self, z0: complex) -> Optional[PoleData]:
        for p in self.poles:
            if abs(p.location - z0) <= POLE_TOL:
                return p
        return None

    def laurent(self, z0: complex, j: int) -> complex:
        """Laurent coefficient of (z-z0)**j of Mf at z0, for j <= 0."""
        z0 = complex(z0)
        if j > 0:
            raise NotImplementedError("only principal and constant coefficients")
        if j == 0:
            return self.regular(z0)
        pd = self.pole_at(z0)
        return pd.principal_part[-j - 1] if pd is not None and -j <= pd.order else 0.0


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

    Equals (-1)^k k!/(alpha+1)^{k+1} for alpha != -1 and 0 for alpha within
    POLE_TOL of -1; the [1,inf) side is the negative of this, so the global
    value vanishes.
    """
    return _term_sum([(1.0, LogPowerTerm(1.0, complex(alpha), k))], 1.0, 1.0)


# ---------------------------------------------------------------------------
# The two sides of the regularized Mellin integral
# ---------------------------------------------------------------------------


class Side(enum.Enum):
    ZERO_TO_C = "zero_to_c"
    C_TO_INF = "c_to_inf"


def _signed_terms(f: ExpandableFunction, sides) -> list:
    """(sign, term): + on [0, c], - on [c, inf), where a term's integral is minus its block."""
    return [(1.0, t) for t in f.expansion_at_zero.terms if Side.ZERO_TO_C in sides] + [
        (-1.0, t) for t in f.expansion_at_infinity.terms if Side.C_TO_INF in sides]


def _term_sum(signed_terms, z: complex, c: float) -> complex:
    """Exact integral of x^(z-1) times the signed terms, as regular parts at z.

    Terms of equal exponent and log power share one block, so a term stored
    at both ends with one coefficient (a global monomial) cancels exactly.
    A block with w = z + exponent within POLE_TOL of 0 is the regular part
    log(c)^(k+1)/(k+1) of the block at w = 0; every other one is A_c(w, k).
    """
    coefficients: dict = {}
    for sign, t in signed_terms:
        key = (t.exponent, t.log_power)
        coefficients[key] = coefficients.get(key, 0.0) + sign * t.coefficient
    total = 0.0 + 0.0j
    for (exponent, k), a in coefficients.items():
        if a == 0:
            continue
        w = z + exponent
        if abs(w) <= POLE_TOL:
            block = monomial_block_regular_coefficient(0, k, c)
        else:
            block = monomial_block(w, k, c)
        total += a * block
    return total


def _remainder_integral(f: ExpandableFunction, z: complex, c: float, side: Side) -> complex:
    """Quadrature of x^(z-1) times f's remainder over [0, c] or [c, inf),
    clipped to the remainder's support; 0 without quadrature if that is empty.

    [c, inf) is mapped onto (0, 1] by x = c/u; the real and imaginary parts
    are integrated separately.
    """
    power = z - 1
    rem = f.remainder_zero if side is Side.ZERO_TO_C else f.remainder_infinity
    lo, hi = (rem.lo, min(c, rem.hi)) if side is Side.ZERO_TO_C else (max(c, rem.lo), rem.hi)
    if lo >= hi:
        return 0.0 + 0.0j
    r_of = rem.evaluator

    if side is Side.ZERO_TO_C:
        a, b = lo, hi

        def fn(x: float) -> complex:
            r = r_of(x)
            return 0.0 if r == 0 else complex(x) ** power * r
    else:
        a, b = c / hi, c / lo

        def fn(u: float) -> complex:
            x = c / u
            r = r_of(x)
            return 0.0 if r == 0 else complex(x) ** power * r * (x / u)

    re, _ = quad(lambda x: fn(x).real, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=400)
    im, _ = quad(lambda x: fn(x).imag, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=400)
    return complex(re, im)


def _regular_value(f: ExpandableFunction, z: complex, c: float, sides=tuple(Side)) -> complex:
    """Constant Laurent coefficient at z of the Mellin integral of f over `sides`.

    Over both sides this is Mf at z (cut c) off its poles; one side is the
    partial transform over [0, c] or [c, inf).
    """
    remainder = sum(_remainder_integral(f, z, c, side) for side in sides)
    return _term_sum(_signed_terms(f, sides), z, c) + remainder


def _check(f: ExpandableFunction, cut: float) -> None:
    if f.p <= 0 or f.q <= 0:
        raise MellinError("need positive remainder orders p, q at both endpoints")
    if cut <= 0:
        raise MellinError("cut must be positive")


# ---------------------------------------------------------------------------
# The transform
# ---------------------------------------------------------------------------


def _pole_ledger(f: ExpandableFunction) -> tuple[PoleData, ...]:
    """Poles of Mf, sorted: term a x^alpha log^k gives +-a (-1)^k k! at (z+alpha)^-(k+1).

    Terms whose poles lie within POLE_TOL share one pole; a pole whose
    principal part cancels below POLE_DROP_TOL is dropped.
    """
    acc: list[tuple[complex, dict[int, complex]]] = []
    for sign, t in _signed_terms(f, tuple(Side)):
        k = t.log_power
        coef = sign * t.coefficient * (-1.0) ** k * math.factorial(k)
        for loc, d in acc:
            if abs(loc + t.exponent) <= POLE_TOL:
                d[k + 1] = d.get(k + 1, 0.0) + coef
                break
        else:
            acc.append((-t.exponent, {k + 1: coef}))
    poles = []
    for loc, d in acc:
        m = max(d)
        while m > 0 and abs(d.get(m, 0.0)) < POLE_DROP_TOL:
            m -= 1
        if m > 0:
            poles.append(PoleData(loc, tuple(d.get(k, 0.0) for k in range(1, m + 1))))
    return tuple(sorted(poles, key=lambda pd: (pd.location.real, pd.location.imag)))


def mellin_transform(f: ExpandableFunction, cut: float = 1.0) -> MeromorphicFunction:
    """Meromorphic Mellin transform of f on the strip (1-p, 1+q).

    Poles sit at -alpha for zero-side exponents (order m+1 for log power m)
    and at -beta for infinity-side exponents; principal parts are assembled
    exactly from the monomial block, so cancellation between the two sides
    (globally monomial f) is detected and such poles are dropped.  Within
    POLE_TOL of a ledger pole the evaluator raises MellinPoleError; at a
    cancelled pole it returns the value, from the regular parts of the terms.
    """
    _check(f, cut)
    return MeromorphicFunction(
        lambda z: _regular_value(f, z, cut), _pole_ledger(f), (1.0 - f.p, 1.0 + f.q)
    )


# ---------------------------------------------------------------------------
# Regularized integral / limit / partial integrals
# ---------------------------------------------------------------------------


def regularized_integral(f: ExpandableFunction, cut: float = 1.0) -> complex:
    """The constant Laurent coefficient of Mf at z = 1.

    Coincides with the Lebesgue integral whenever f is integrable.
    """
    _check(f, cut)
    return _regular_value(f, 1.0, cut)


def regularized_integral_partial(f: ExpandableFunction, c: float, side: Side) -> complex:
    """Regularized integral over [0,c] or [c,infinity).

    The side of the regularized integral with cut c: the continued
    antiderivative of the stored terms at c plus ordinary quadrature of the
    remainder, where x**-1 log**k terms contribute +-log(c)**(k+1)/(k+1).
    So partial(0, c) + partial(c, inf) is the regularized integral with cut c.
    """
    if not isinstance(side, Side):
        raise ValueError(side)
    _check(f, c)
    return _regular_value(f, 1.0, c, (side,))


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
                        - sum_k a_{-1,k} log^{k+1}(lam)/(k+1) ),
    the correction being minus the term sum of the x**-1 terms with cut lam.
    """
    if lam <= 0:
        raise MellinError("lam must be positive")
    x_inverse = [
        (sign, t) for sign, t in _signed_terms(f, tuple(Side))
        if abs(1.0 + t.exponent) <= POLE_TOL
    ]
    return (regularized_integral(f, cut) - _term_sum(x_inverse, 1.0, lam)) / lam

