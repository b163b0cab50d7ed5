"""Mellin transform of expandable functions, and the regularized calculus.

The Mellin transform of f with log-power expansions at both endpoints is
meromorphic on the strip 1 - p < Re z < 1 + q.  Its pole structure comes
entirely from the stored expansion terms, through the exact building block

    A_c(w, k) = integral_0^c x^{w-1} log(x)**k dx = (d/dw)^k [c^w / w],

whose only singular Laurent coefficient at w = 0 is (-1)^k k! at w^{-(k+1)}.
The remainder pieces of f, which f carries with the interval outside which
they vanish, are integrated over that interval only; where it misses the
side of the cut there is no quadrature.  Remainders take arrays, and `quad`
is one adaptive, complex-valued Gauss-Kronrod rule (QUADPACK's G10/K21
pair, Piessens et al. 1983) over a block of integrands that share one
evaluation, each meeting QUAD_ABS_TOL or QUAD_REL_TOL on its own; a single
integrand is a block of one column.  It raises MellinError when QUAD_LIMIT
subintervals do not meet them, or a bound, an integrand value, an integral
or an error estimate is not finite.  It is the package's only quadrature
(specfun's Hankel transform runs on it too).  Both sides of the cut map
onto t in (0, 1], by x = c t and x = c/t, so one quad call takes the
remainder integrals of both sides, and of several functions and moments,
as the columns of one block (`_remainder_block`).  `regularized_moments`
takes the moments x^beta log^k x of a function that way, one quadrature
for all of them on both sides, and the sal engines take those of every
phi of a call in one.

The regularized integral of f is the constant Laurent coefficient of Mf at
z = 1; the regularized limit is the coefficient of x^0 log^0 x in the
expansion.  One function of z computes that coefficient, over both sides of
the cut c or over one: the term sum (each stored term's block, or the regular
part of its block where it sits on the pole) plus the remainder quadrature.
So the partial integrals over [0, c] and [c, inf) add up to the regularized
integral with cut c.  One tolerance, POLE_TOL = 1e-8, decides that a point is
on a pole, for the evaluator's guard, the pole ledger and the term sum.

A function that states its Mellin transform (`f.mellin`: every leaf of
`expansions` and what the algebra builds from them, but no factor with a
log power and no `sal.TestFunction`; the exponential and Gaussian leaves in
closed form, the monomials exactly, and the cutoff and step leaves and
their slopes by a fixed Gauss-Legendre rule on the transition interval)
takes it over both sides at every z that lies more than POLE_TOL from the
pole -alpha of each stored term and where its value is finite, with
neither term sum nor quadrature: off the poles the continuation does not
depend on the cut.  Partial integrals, points on or near a pole and
functions that state no transform keep the term sum and quadrature; so do
the poles that no stored term marks, where the stated value is not finite,
the points near them, where a stated sum cancels (see
`expansions._mellin_sum`), and the points past |Im z| = 50 on a cutoff or
step piece, where the fixed rule states no value.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expansions import ExpandableFunction, Location, LogPowerTerm, _times_monomial

QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10
QUAD_LIMIT = 400
POLE_TOL = 1e-8
POLE_DROP_TOL = 1e-13


class MellinError(Exception):
    pass


class MellinPoleError(MellinError):
    """Evaluation requested within POLE_TOL of a ledger pole."""


class MellinDomainError(MellinError):
    """A remainder order, cut or dilation that is not positive (and finite)."""


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
# Batched adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# The Kronrod nodes x_0 > ... > x_9 > 0 on (0, 1] (QUADPACK qk21), whose
# mirror images complete the 21; the 10 Gauss nodes are +-x_1, +-x_3, ...,
# +-x_9.  The weights are listed node by node, a Gauss weight 0 off them.
_KRONROD_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_KRONROD_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208005525353, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GAUSS_W = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0])


def _symmetric(half: np.ndarray) -> np.ndarray:
    """Values at the nodes -x_0 .. -x_9, 0, x_9 .. x_0 from those at x_0 .. x_9, 0."""
    return np.concatenate([half[:-1], half[::-1]])


_NODES = np.concatenate([-_KRONROD_X[:-1], _KRONROD_X[::-1]])
_WK = _symmetric(_KRONROD_W)
# complex, so that a round's product with the complex node values casts nothing
_WKG = np.stack([_WK, _symmetric(_GAUSS_W)], axis=1).astype(complex)
# the rounding floor of an error estimate, per unit of integral of |f|
_ROUNDING = 50.0 * np.finfo(float).eps


def _gauss_kronrod(fn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """K21 values and QUADPACK error estimates on the intervals [lo, hi] from
    one call of fn on all their nodes, one row per interval and one column
    per integrand (a 1-D result is one column), and the ndim of fn's result."""
    half = 0.5 * (hi - lo)
    x = (lo + half)[:, None] + half[:, None] * _NODES
    f = np.asarray(fn(x.reshape(-1)), dtype=complex)
    # one row of 21 node values per interval and integrand
    rows = f.reshape(len(lo), _NODES.size, -1).transpose(0, 2, 1).reshape(-1, _NODES.size)
    shape, half = (len(lo), -1), half[:, None]
    k, g = (rows @ _WKG).T
    resabs = (np.abs(rows) @ _WK).reshape(shape) * half
    resasc = (np.abs(rows - 0.5 * k[:, None]) @ _WK).reshape(shape) * half
    # QUADPACK scales |K - G| by the spread of f, and floors it at the
    # rounding of the sum.  A constant f has no spread and is integrated
    # exactly: its error is 0 whatever the ratio, whose 0/0 the 1 avoids.
    ratio = (200.0 * np.abs(k - g)).reshape(shape) * half / (resasc + (resasc == 0))
    err = np.maximum(resasc * np.minimum(1.0, ratio) ** 1.5, _ROUNDING * resabs)
    return k.reshape(shape) * half, err, f.ndim


def _worst(err: np.ndarray, excess: np.ndarray, tol: np.ndarray, room: int):
    """The subintervals to bisect, worst first and at most `room`, and the
    others in order.  Each integrand that misses its tol_j (excess_j > 0)
    keeps the sum of its error estimates over the others within tol_j/2, and
    a subinterval ranks by its worst error over tol_j among those integrands."""
    # an integrand that meets its tolerance neither ranks nor splits
    tol = np.where(excess > 0, tol, np.inf)
    order = np.maximum.reduce(err / tol, axis=1).argsort()
    # each column's running sum grows along `order`, so the rows past its
    # tol_j/2 are a suffix of `order`; their union starts at the first row
    # that any column passes, the first True in reading order
    over = np.add.accumulate(err.take(order, axis=0), axis=0) > tol / 2
    start = max(over.argmax() // len(tol), len(order) - room)
    return order[start:][::-1], np.sort(order[:start])


# The first round's equal subintervals.  A remainder that decays like
# e^(-c/u) at an end of its mapped interval needs four or five bisections
# there from one piece, a round each; from eight it needs one or two.
_START_PIECES = 8
_START = np.arange(_START_PIECES) / _START_PIECES


def quad(fn: Callable[[np.ndarray], np.ndarray], a, b):
    """(integral of fn over [a, b], error estimate) for a complex-valued fn
    that maps a float array of n points to an (n, m) block of m integrands
    that share one evaluation, as arrays of m; a fn that returns n values is
    one column, and gets a complex and a float.

    The first round splits [a, b] into _START_PIECES equal subintervals, or,
    for arrays a and b, starts from the subintervals [a_i, b_i] and
    integrates over their union.  Each round calls fn once, on the 21 nodes
    of every new subinterval, and then bisects the subintervals with the
    largest error estimates, as many as leave the others' sum within half
    the tolerance max(QUAD_ABS_TOL, QUAD_REL_TOL |integral|), which each
    integrand meets on its own (see _worst).  MellinError when a or b, or a
    round's integrand values, integrals or error estimates, are not finite
    (so every round returns, raises or bisects), when b < a (a negative
    width would make every error estimate negative), or when QUAD_LIMIT
    subintervals do not meet the tolerance.  a == b gives 0.
    """
    # a Python float bound skips np.ndim, and scalar bounds skip numpy's checks
    if isinstance(a, (int, float)) or np.ndim(a) == 0:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise MellinError(f"quadrature over [{a}, {b}]: a bound is not finite")
        if b < a:
            raise MellinError(f"quadrature over [{a}, {b}]: b < a")
        lo = a + (b - a) * _START
        hi = np.concatenate([lo[1:], [b]])
    else:
        if not np.isfinite((a, b)).all():
            raise MellinError(f"quadrature over [{a}, {b}]: a bound is not finite")
        lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if (hi < lo).any():
            raise MellinError(f"quadrature over [{a}, {b}]: b < a")
    val, err, ndim = _gauss_kronrod(fn, lo, hi)
    while True:
        total, abserr = np.add.reduce(val, axis=0), np.add.reduce(err, axis=0)
        tol = np.maximum(QUAD_ABS_TOL, QUAD_REL_TOL * np.abs(total))
        # finite exactly when abserr and tol are (a non-finite f, K or estimate
        # leaves NaN or inf in one), and <= 0 exactly when abserr <= tol
        excess = abserr - tol
        if not 0.0 < excess.max() < np.inf:  # met by every integrand, or not finite
            if not np.isfinite(excess).all():
                raise MellinError(f"quadrature over [{lo.min()}, {hi.max()}]: a non-finite "
                                  f"integrand value, integral or error estimate")
            if ndim == 1:
                return complex(total[0]), float(abserr[0])
            return total, abserr
        room = QUAD_LIMIT - len(lo)
        if room <= 0:
            worst = np.argmax(abserr / tol)
            raise MellinError(f"quadrature over [{lo.min()}, {hi.max()}] missed its tolerance "
                              f"{tol[worst]:.3g} with {QUAD_LIMIT} subintervals "
                              f"(error estimate {abserr[worst]:.3g})")
        split, kept = _worst(err, excess, tol, room)
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        new_val, new_err, _ = _gauss_kronrod(fn, new_lo, new_hi)
        lo, hi = np.concatenate([lo[kept], new_lo]), np.concatenate([hi[kept], new_hi])
        val = np.concatenate([val.take(kept, axis=0), new_val])
        err = np.concatenate([err.take(kept, axis=0), new_err])


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


def _remainder_block(columns, z: complex, c: float) -> list:
    """The quadrature of x^(z-1) times a remainder over one side of the cut
    c, clipped to the remainder's support, for each column (f, side,
    monomials): with monomials None one integral, and with a sequence of
    (beta, k) an array of one integral per pair, of x^beta log^k x times
    the remainder.  A column whose support misses its side is 0 without
    quadrature.

    All the others are one quad call over t in (0, 1], on the hull of their
    supports in t, in which each column is 0 outside its support and meets
    its own tolerance.  [0, c] is mapped by x = c t and [c, inf) by
    x = c/t, where x**(z-1) dx is c**z t**(z-1) dt and c**z t**(-z-1) dt:
    the power of the node t itself, not of the rounded c/t, whose rounding
    the phase Im(z) log x would amplify.  The powers are taken only where
    the remainder is nonzero, so a power that overflows where the
    remainder has underflowed to 0 does not arise.
    """
    results: list = [0.0 + 0.0j if monomials is None else np.zeros(len(monomials), dtype=complex)
                     for _, _, monomials in columns]
    blocks, ends, width = [], [], 0
    for i, (f, side, monomials) in enumerate(columns):
        zero = side is Side.ZERO_TO_C
        rem = f.remainder_zero if zero else f.remainder_infinity
        lo, hi = (rem.lo, min(c, rem.hi)) if zero else (max(c, rem.lo), rem.hi)
        if lo >= hi:
            continue
        lo, hi = (lo / c, hi / c) if zero else (c / hi, c / lo)
        if monomials is None:
            betas, ks, m = None, None, 1
        else:
            betas = np.array([complex(beta) for beta, _ in monomials])
            betas, m = (betas if betas.imag.any() else betas.real), len(monomials)
            ks = np.array([k for _, k in monomials])
        blocks.append((i, rem.evaluator, zero, betas, ks, lo, hi, slice(width, width + m)))
        ends += [lo, hi]
        width += m
    if not blocks:
        return results

    def integrands(t: np.ndarray) -> np.ndarray:
        """Each column's integrand at the nodes t in its support, 0 at the others."""
        out = np.zeros((t.size, width), dtype=complex)
        for _, r_of, zero, betas, ks, lo, hi, cols in blocks:
            live = (lo <= t) & (t <= hi)
            ti = t[live]
            if not ti.size:
                continue
            x = c * ti if zero else c / ti
            r = np.asarray(r_of(x), dtype=complex)
            nonzero = r != 0
            w = (np.power(ti[nonzero], z - 1 if zero else -z - 1) * r[nonzero])[:, None]
            if betas is not None:
                xl = x[nonzero][:, None]
                w = np.power(xl, betas) * np.log(xl) ** ks * w
            live[live] = nonzero  # the nodes in the support where r is nonzero
            out[:, cols][live] = w
        return out

    total = c**z * quad(integrands, min(ends), max(ends))[0]
    for i, _, _, betas, _, _, _, cols in blocks:
        results[i] = complex(total[cols.start]) if betas is None else total[cols]
    return results


def _closed_form(f: ExpandableFunction, z: complex) -> Optional[complex]:
    """f's stated Mf at z, when f states one, z lies more than POLE_TOL
    from the pole -alpha of every stored term and the stated value is
    finite; else None.  A real z is passed as a float, so that a real
    closed form stays real.  The value is not finite on a pole that no
    stored term marks, because the terms cancelled or were differentiated
    away (e^-x's derivative at z = 1 is -0 Gamma(0)), and a sum that
    cancels to a few digits states none."""
    if f.mellin is None:
        return None
    for t in f.expansion_at_zero.terms + f.expansion_at_infinity.terms:
        if abs(z + t.exponent) <= POLE_TOL:
            return None
    # + 0j: a stated 0 times a negative scale is -0.0, and the term sum's +0.0
    value = complex(f.mellin(z.real if z.imag == 0 else z)) + 0j
    return value if cmath.isfinite(value) else None


def _regular_value(f: ExpandableFunction, z: complex, c: float, sides=tuple(Side)) -> complex:
    """Constant Laurent coefficient at z of the Mellin integral of f over `sides`.

    Over both sides this is Mf at z (cut c) off its poles, the closed form
    where f states one (see `_closed_form`); one side is the partial
    transform over [0, c] or [c, inf).  Each side's remainder is a block of
    its own: a block evaluates every column at each round's new nodes, and
    the two remainders of one f often need different numbers of rounds, so
    one block for both would evaluate the side that has converged again
    (on 2 shared vCPUs, the benchmark's calculus pools took about 20 %
    longer so for the regularized integrals and scale rules that reach
    the quadrature).
    """
    if len(sides) == len(Side):
        value = _closed_form(f, complex(z))
        if value is not None:
            return value
    remainder = sum(_remainder_block([(f, side, None)], z, c)[0] for side in sides)
    return _term_sum(_signed_terms(f, sides), z, c) + remainder


def _check(f: ExpandableFunction, cut: float) -> None:
    if f.p <= 0 or f.q <= 0:
        raise MellinDomainError("need positive remainder orders p, q at both endpoints")
    if not 0 < cut < math.inf:
        raise MellinDomainError(f"cut must be positive and finite, not {cut}")


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


def regularized_moments(f: ExpandableFunction, monomials) -> np.ndarray:
    """The regularized integrals of x**beta log(x)**k f(x) over (0, inf),
    cut at 1, for each (beta, k) of `monomials`: the values of
    regularized_integral(times_monomial(f, beta, k)), as a complex array.

    A moment (beta, 0) of a function that states its Mellin transform is
    Mf(1 + beta) where 1 + beta is off the terms' poles (see
    `_closed_form`).  The remainder integrals of the other moments, on both
    sides of the cut, come from one quadrature over a block of one column
    per moment and side, so f's remainders are evaluated once per node;
    there is none if no moment is left.  Each such moment's term part is
    exact: the term sum of f's terms shifted by (beta, k), with the ones its
    remainder order absorbs, which times_monomial would leave to
    quadrature.  MellinDomainError where a shifted remainder order is not
    positive, on either route.
    """
    return _moments([(f, monomials)])[0]


def _moments(requests) -> list:
    """regularized_moments(f, monomials) for each (f, monomials) of
    `requests`, with the remainder integrals of every function's moments
    that need them from one `_remainder_block` call: one quadrature for
    all the functions and both sides of the cut."""
    values, columns, terms = [], [], []
    for f, monomials in requests:
        values.append([])
        rest = []
        for beta, k in monomials:
            e0, absorbed0 = _times_monomial(f.expansion_at_zero, beta, k)
            ei, absorbed_i = _times_monomial(f.expansion_at_infinity, beta, k)
            if e0.remainder_order <= 0 or ei.remainder_order <= 0:
                raise MellinDomainError("need positive remainder orders p, q at both endpoints")
            values[-1].append(None if k else _closed_form(f, 1.0 + complex(beta)))
            if values[-1][-1] is None:
                rest.append((beta, k))
                terms.append([(1.0, t) for t in e0.terms + absorbed0]
                             + [(-1.0, t) for t in ei.terms + absorbed_i])
        if rest:
            columns += [(f, side, rest) for side in Side]
    if columns:
        integrals = _remainder_block(columns, 1.0, 1.0)
        remainder = np.concatenate([zero + infinity for zero, infinity
                                    in zip(integrals[::2], integrals[1::2])])
        quadrature = iter((np.array([_term_sum(signed, 1.0, 1.0) for signed in terms])
                           + remainder).tolist())
        values = [[next(quadrature) if v is None else v for v in vs] for vs in values]
    return [np.array(vs, dtype=complex) for vs in values]


def regularized_limit(f: ExpandableFunction, at: Location) -> complex:
    """Coefficient of x^0 log^0 x in the expansion at the endpoint."""
    e = f.expansion_at_zero if at is Location.AT_ZERO else f.expansion_at_infinity
    return e.coefficient(0.0, 0)


def scale_rule(f: ExpandableFunction, lam: float, cut: float = 1.0) -> complex:
    """Regularized integral of x |-> f(lam x) via the stored x**-1 coefficients.

    (1/lam) ( reg-int f + sum_k b_{-1,k} log^{k+1}(lam)/(k+1)
                        - sum_k a_{-1,k} log^{k+1}(lam)/(k+1) ),
    the correction being minus the term sum of the x**-1 terms with cut lam.
    """
    if not 0 < lam < math.inf:
        raise MellinDomainError(f"lam must be positive and finite, not {lam}")
    x_inverse = [
        (sign, t) for sign, t in _signed_terms(f, tuple(Side))
        if abs(1.0 + t.exponent) <= POLE_TOL
    ]
    return (regularized_integral(f, cut) - _term_sum(x_inverse, 1.0, lam)) / lam

