"""Spectral invariants of model-cone operators.

Heat kernel and zeta function of the one-dimensional model operator L_p,
operator-valued zeta/eta functions assembled from cross-section spectra,
their residues at the origin, small-time heat-trace expansions, and the
spectral side of the index formula for first-order cone operators.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.special import loggamma

from .sal import ExpansionReport, ReportTerm
from .specfun import (
    _INTEGER_TOL,
    _TERMS_CAP,
    DirichletSeriesProvider,
    _is_nonpositive_integer,
    _nonpositive_integer_mask,
    _poly_eval,
    _power_sum,
    b_pos_fraction,
    bessel_i_scaled,
    digamma,
    gamma,
    gamma_ratio_expansion,
    hurwitz_zeta,
    laurent_fit,
    log_gamma,
    rgamma,
)

SQRT_PI = math.sqrt(math.pi)

__all__ = [
    "ConeError",
    "FOLD_ORDER",
    "SpectralDatum",
    "CrossSectionSpectrum",
    "FirstOrderSpectrum",
    "ShiftedIntegerEtaProvider",
    "heat_kernel_lp",
    "k_trace_lp",
    "k_trace_operator",
    "zeta_hat_lp",
    "zeta_hat_operator",
    "zeta_hat_operator_report",
    "gamma_zeta_hat",
    "residues_at_zero",
    "eta_alpha_constant",
    "eta_function_scalable",
    "eta_hat_residues",
    "index_first_order",
    "scalar_interior_coefficients",
    "heat_trace_expansion",
    "laurent_fit",
]


class ConeError(Exception):
    pass


# ---------------------------------------------------------------------------
# Model heat kernel
# ---------------------------------------------------------------------------


def heat_kernel_lp(p: float, t: float, x: float, y: float) -> float:
    """Heat kernel of L_p on the half line at (x, y), time t.

    Evaluated through the exponentially prefactored Bessel function, so the
    only surviving exponential is exp(-(x-y)^2/4t); safe for small t.
    """
    if t <= 0 or x <= 0 or y <= 0:
        raise ConeError("t, x, y must be positive")
    z = x * y / (2.0 * t)
    return (
        math.sqrt(x * y)
        / (2.0 * t)
        * bessel_i_scaled(p, z)
        * math.exp(-((x - y) ** 2) / (4.0 * t))
    )


def k_trace_lp(p, t):
    """Fiber trace k(t) = heat kernel of L_p on the diagonal at x=1.

    Scalars return a float; arrays of p and t broadcast.
    """
    scalar = isinstance(t, (int, float))
    t = t if scalar else np.asarray(t, dtype=float)
    if not (t > 0 if scalar else np.all(t > 0)):  # NaN fails too
        raise ConeError("t must be positive")
    z = 1.0 / (2.0 * t)
    return z * bessel_i_scaled(p, z)


def zeta_hat_lp(p, s):
    """Closed form Gamma(s-1/2) Gamma(p+1-s) / (2 sqrt(pi) Gamma(s) Gamma(p+s)).

    The regularized zeta function of L_p.  Domain: finite p > -1 and finite s
    off the poles s = 1/2 - n and s = p + 1 + n.  Python scalars return a
    complex; arrays of p and s broadcast to a complex array whose entries are
    bit-identical to the scalar values.  At real s the value is real: the
    k pi that loggamma puts in the imaginary parts at negative arguments
    cancel only to rounding, and a nonzero imaginary residue becomes 0.0.
    """
    if not (isinstance(p, (int, float)) and isinstance(s, (int, float, complex))):
        return _zeta_hat_lp_array(p, s)
    if not -1 < p < math.inf:
        raise ConeError(f"p must be finite and exceed -1, not {p}")
    s = complex(s)
    if not cmath.isfinite(s):
        raise ConeError(f"s must be finite, not {s}")
    if _is_nonpositive_integer(s - 0.5) or _is_nonpositive_integer(p + 1 - s):
        raise ConeError(f"pole of zeta_hat(L_p) at s={s}")
    if _is_nonpositive_integer(s) or _is_nonpositive_integer(p + s):
        # a reciprocal-Gamma zero with no compensating pole
        return 0.0 + 0.0j
    log_v = loggamma(s - 0.5) + loggamma(p + 1 - s) - loggamma(s) - loggamma(p + s)
    v = cmath.exp(log_v) / (2.0 * SQRT_PI)
    return complex(v.real, 0.0) if s.imag == 0 and v.imag != 0 else v


def _zeta_hat_lp_array(p, s) -> np.ndarray | complex:
    """`zeta_hat_lp` with one loggamma call per Gamma factor over its own
    arguments: Gamma(s - 1/2) and Gamma(s) over the points of s, the other
    two over the broadcast grid.

    Points off the domain, on a pole, or with |Re log value| > 708 (where
    cmath.exp rescales against overflow, and Python's complex division signs
    an underflowed zero) go through the scalar path in grid order, so the
    first bad point raises the scalar's error.
    """
    p, s = np.asarray(p, dtype=float), np.asarray(s, dtype=complex)
    with np.errstate(all="ignore"):
        bad = ~((p > -1) & (p < math.inf) & np.isfinite(s))
        bad |= _nonpositive_integer_mask(s - 0.5) | _nonpositive_integer_mask(p + 1 - s)
        zero = _nonpositive_integer_mask(s) | _nonpositive_integer_mask(p + s)
        log_v = loggamma(s - 0.5) + loggamma(p + 1 - s) - loggamma(s) - loggamma(p + s)
        v = np.exp(log_v)
        scalar = bad | (~zero & (np.abs(log_v.real) > 708.0))
    p, s = np.broadcast_arrays(p, s)
    out = np.empty(p.shape, dtype=complex)
    # part by part, as Python's complex / float rounds; numpy's complex
    # division multiplies by a reciprocal
    out.real = v.real / (2.0 * SQRT_PI)
    out.imag = v.imag / (2.0 * SQRT_PI)
    out.imag[(s.imag == 0) & (out.imag != 0)] = 0.0
    out[zero] = 0.0
    for i in np.flatnonzero(scalar):
        out.flat[i] = zeta_hat_lp(float(p.flat[i]), complex(s.flat[i]))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Cross-section spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralDatum:
    """One eigenvalue of the cross-section operator with its weight.

    The weight is the multiplicity, or the trace of the group action on the
    eigenspace in the equivariant case.
    """

    eigenvalue: float
    weight: complex

    def __post_init__(self):
        if not (math.isfinite(self.eigenvalue) and cmath.isfinite(self.weight)):
            raise ConeError(f"spectral data must be finite, not {self}")


def _split_terms(pairs, head):
    """Match explicit (weight, value) pairs against a provider's head terms.

    A pair claims the first unclaimed head term within relative 1e-9 of its
    value whose weight agrees; if terms of that value remain but none agrees,
    the provider contradicts the data.  The head's values are nondecreasing,
    so the terms near a value are found by bisection.  Returns the unmatched
    pairs and the head terms no pair claimed.
    """
    if not head:
        return list(pairs), []
    values = [u for _, u in head]
    claimed = set()
    unmatched = []
    for w, v in pairs:
        tol = 1e-9 * max(1.0, v)
        near = False
        # twice the tolerance brackets every value the test below accepts
        for j in range(bisect_left(values, v - 2 * tol), bisect_right(values, v + 2 * tol)):
            if j in claimed or not abs(values[j] - v) <= tol:
                continue
            near = True
            if abs(head[j][0] - w) <= 1e-9 * (1.0 + abs(w)):
                claimed.add(j)
                break
        else:
            if near:
                raise ConeError(f"tail provider disagrees with data weight at value {v}")
            unmatched.append((w, v))
    return unmatched, [term for j, term in enumerate(head) if j not in claimed]


def _series_part(provider, part: str, z: complex, pairs) -> complex:
    """provider.<part>(z) ("zeta", "value_at" or "residue_at"; 0 without a
    provider) plus sum w * v^-z over the (weight, value) pairs."""
    total = getattr(provider, part)(z) if provider is not None else 0.0 + 0.0j
    for w, v in pairs:
        total += w * complex(v) ** (-complex(z))
    return total


class _TermPlan:
    """The s-independent half of the fold over (weight, value) data and a provider.

    `orders` are the data's Bessel orders, for the fold.  The data are
    matched once against the provider's terms up to their 1e-9 matching
    window, or up to `reach` if that is larger: `unmatched()` lists the data
    the provider does not enumerate, `remaining()` the terms no datum
    claimed.  `head(threshold)` appends the terms between the window and the
    head bound, which no datum can claim, and gives the fold its arrays.
    The terms are read from the provider once for both, up to the larger
    bound asked for first, and again only when a larger bound is asked for.
    """

    def __init__(self, pairs: list, provider, orders: list, reach: float):
        self.provider, self._pairs, self.orders = provider, pairs, orders
        self._terms, self._read_to, self._arrays = [], -math.inf, None
        self._matching = (pairs, [], 0) if provider is None else None
        if provider is not None:
            self._top = max(v for _, v in pairs) if pairs else 0.0
            self._window = max(reach, self._top + 1e-9 * max(1.0, self._top)) if pairs else reach

    def _read(self, bound: float) -> None:
        """Hold the provider's terms up to at least `bound` (at most _TERMS_CAP)."""
        if bound > self._read_to and len(self._terms) < _TERMS_CAP:
            self._terms, self._read_to, self._arrays = self.provider.terms_below(bound), bound, None
            self._values = [v for _, v in self._terms]

    def _match(self) -> tuple[list, list, int]:
        """(unmatched, remaining, number of terms in the window), matched once."""
        if self._matching is None:
            self._read(self._window)
            n_window = bisect_right(self._values, self._window)
            self._matching = (*_split_terms(self._pairs, self._terms[:n_window]), n_window)
        return self._matching

    def unmatched(self) -> list:
        return self._match()[0]

    def remaining(self) -> list:
        return self._match()[1]

    def head(self, threshold: float):
        """The fold's explicit orders and weights (the data's, then sqrt(value)
        and weight of each head term that no datum claimed) and the weights
        and values of all head terms, as arrays.  The head holds the terms up
        to the larger of threshold^2 and the top datum; without a provider it
        is empty, and its weights and values are None."""
        if self.provider is None:
            if self._arrays is None:
                self._arrays = (np.array(self.orders, dtype=float),
                                np.array([w for w, _ in self._pairs], dtype=complex), None, None)
            return self._arrays
        lam_head = threshold * threshold
        if self._pairs:
            lam_head = max(lam_head, self._top)
        bound = lam_head * (1 + 1e-9) + 1e-12
        self._read(max(bound, self._window))
        _, remaining, n_window = self._match()
        if self._arrays is None:
            free = remaining + self._terms[n_window:]
            self._free_values = [v for _, v in remaining]
            self._arrays = (
                np.array(list(self.orders) + [math.sqrt(v) for _, v in free], dtype=float),
                np.array([w for w, _ in self._pairs + free], dtype=complex),
                np.array([w for w, _ in self._terms], dtype=complex),
                np.array(self._values, dtype=float),
            )
        n = bisect_right(self._values, bound)
        if n == len(self._terms):
            return self._arrays
        orders, weights, head_w, head_v = self._arrays
        # the unclaimed window terms up to the bound, then the terms past the window
        k = len(self._pairs) + bisect_right(self._free_values, bound) + max(0, n - n_window)
        return orders[:k], weights[:k], head_w[:n], head_v[:n]


@dataclass(frozen=True)
class CrossSectionSpectrum:
    """Explicit low spectrum of A plus a Dirichlet-series continuation.

    `tail` carries the zeta function of A (in the eigenvalue variable); where
    its enumeration overlaps `data` the two must agree, and `data` may extend
    below or beyond it.  `negative_below` selects the negative Bessel order
    -sqrt(lambda) for eigenvalues under the threshold; `p_overrides` pins the
    order per entry instead.
    """

    data: tuple[SpectralDatum, ...]
    tail: Optional[DirichletSeriesProvider] = None
    negative_below: float = 0.0
    p_overrides: Optional[tuple[Optional[float], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "data", tuple(self.data))
        if self.p_overrides is not None and len(self.p_overrides) != len(self.data):
            raise ConeError("p_overrides must align with data")
        pairs, orders = [], []
        for i, d in enumerate(self.data):
            if d.eigenvalue < 0:
                raise ConeError("cross-section eigenvalues must be nonnegative")
            orders.append(self.p_of(i))
            if orders[i] <= -1:
                raise ConeError(f"Bessel order p={orders[i]} <= -1 at eigenvalue {d.eigenvalue}")
            pairs.append((d.weight, d.eigenvalue))
        object.__setattr__(self, "_plan", _TermPlan(pairs, self.tail, orders, 0.0))

    def p_value(self, lam: float) -> float:
        root = math.sqrt(lam)
        return -root if lam < self.negative_below else root

    def p_of(self, i: int) -> float:
        if self.p_overrides is not None and self.p_overrides[i] is not None:
            return self.p_overrides[i]
        return self.p_value(self.data[i].eigenvalue)

    def _unmatched(self):
        return [(w, v) for w, v in self._plan.unmatched() if v > 0]

    # -- zeta of A (eigenvalue variable), data and tail combined ------------

    def zeta_a(self, z: complex) -> complex:
        return _series_part(self.tail, "zeta", z, self._unmatched())

    def res1_zeta_a(self, z0: complex) -> complex:
        return _series_part(self.tail, "residue_at", z0, ())

    def res0_zeta_a(self, z0: complex) -> complex:
        return _series_part(self.tail, "value_at", z0, self._unmatched())


# ---------------------------------------------------------------------------
# Operator zeta function
# ---------------------------------------------------------------------------


# Order of the fold's Gamma-ratio expansion.  Only zeta_hat_operator(_report)
# (and so `conespec zeta-op --order`) fold at another order.
FOLD_ORDER = 6

# Head threshold of the fold: the provider terms below its square are summed
# with exact Gamma quotients.
_HEAD_THRESHOLD = 8.0


def _gamma_quotient(p: float, s: complex) -> complex:
    """Gamma(p+1-s) / Gamma(p+s)."""
    if _is_nonpositive_integer(p + 1 - s):
        raise ConeError(f"Gamma pole in the quotient at p={p}, s={s}")
    if _is_nonpositive_integer(p + s):
        return 0.0 + 0.0j
    return cmath.exp(log_gamma(p + 1 - s) - log_gamma(p + s))


def _head_zeros(orders: np.ndarray, s: complex) -> list:
    """Indices of the orders p with p + s on a nonpositive integer; ConeError at
    the first p, in order, with p + 1 - s on one.  Only a real s can put them
    there, so only then are the orders checked, one by one (a few Python
    checks cost less than numpy masks over a short list)."""
    if abs(s.imag) > _INTEGER_TOL:
        return []
    ps = orders.tolist()
    # a real part above 1/2 rules an order out before the full check
    for p in ps:
        if p + 1 - s.real <= 0.5 and _is_nonpositive_integer(p + 1 - s):
            raise ConeError(f"Gamma pole in the quotient at p={p}, s={s}")
    return [i for i, p in enumerate(ps) if p + s.real <= 0.5 and _is_nonpositive_integer(p + s)]


def _head_sums(orders: np.ndarray, weights: np.ndarray, s, points: list) -> list:
    """sum w Gamma(p+1-s) / Gamma(p+s) over (weight, order p), per point, with
    one loggamma pass over (points x orders).

    `s` is a Python complex or a column of the points.  As in
    `_gamma_quotient`, an order on a pole raises and a reciprocal-Gamma zero
    adds 0.  Each point's sum is its own product with the weights, as a
    single 2-D product may round differently.  A sum that overflows is redone
    pair by pair, so that the overflowing pair raises as `cmath.exp` does.
    """
    if not len(orders):
        return [0.0 + 0.0j] * len(points)
    zeros = [_head_zeros(orders, x) for x in points]
    with np.errstate(all="ignore"):
        q = np.exp(loggamma(orders + (1 - s)) - loggamma(orders + s))
        rows = [q] if q.ndim == 1 else q
        for row, zero in zip(rows, zeros):
            if zero:
                row[zero] = 0.0
        totals = [complex(weights @ row) for row in rows]
    for i, total in enumerate(totals):
        if not cmath.isfinite(total):
            totals[i] = sum(w * _gamma_quotient(p, points[i])
                            for w, p in zip(weights.tolist(), orders.tolist()))
    return totals


@lru_cache(maxsize=None)
def _fold_shifts(order: int) -> tuple[tuple, np.ndarray]:
    """The nonzero Q_k up to `order`, and their k as a read-only array."""
    q = gamma_ratio_expansion(order).q_complex
    ks = np.array([k for k, qk in enumerate(q) if qk], dtype=float)
    ks.flags.writeable = False
    return tuple(q[int(k)] for k in ks), ks


def _points(s) -> list:
    """A Python complex as a list of one point; an array as its Python
    complexes.  ConeError for a non-finite point, before any Gamma factor of
    the fold sees it."""
    points = [s] if isinstance(s, complex) else s.tolist()
    for x in points:
        if not cmath.isfinite(x):
            raise ConeError(f"s must be finite, not {x}")
    return points


def _phi_pieces(spec: CrossSectionSpectrum, s, order: int):
    """Head/tail decomposition of the Gamma-quotient sum over the spectrum.

    `s` is a Python complex or a 1-D complex array of points.  Returns
    (head_values, tail_terms), one entry per point: the exact head sum, and
    the list of successive Q_k corrections, whose last magnitude is the
    truncation error estimate.  The s-independent half is the spectrum's
    plan, built once: the orders, weights and matching of the data against
    the provider's terms.  Per call the head gains the provider terms up to
    the head threshold, and there is one loggamma pass over (points x
    orders), one array pole check, one provider call and one power sum over
    (points x shifts z_k = (2s-1+k)/2) whose Q_k is nonzero.  Each point's
    pieces are bit-identical to its call alone.
    """
    orders, weights, head_w, head_v = spec._plan.head(_HEAD_THRESHOLD)
    points = _points(s)
    column = s if isinstance(s, complex) else s[:, None]
    head_values = _head_sums(orders, weights, column, points)
    tail_terms = [[] for _ in points]
    provider = spec.tail
    if provider is not None and points:
        qs, ks = _fold_shifts(order)
        z = (2 * column - 1 + ks) / 2.0
        pole = provider.is_pole(z)
        if pole.any():
            raise ConeError(f"tail provider pole hit at argument {complex(z.flat[pole.argmax()])}")
        tz = provider.zeta(z) - _power_sum(head_w, head_v, z)
        for terms, x, row in zip(tail_terms, points, [tz] if tz.ndim == 1 else tz):
            terms.extend(_poly_eval(qk, x) * t for qk, t in zip(qs, row.tolist()))
    return head_values, tail_terms


def _batch(fn, s) -> tuple:
    """fn over a scalar s or an array of points.

    fn takes a Python complex or a 1-D complex array and returns a tuple of
    lists, one entry per point.  A scalar gives the entries of its one point,
    an array gives arrays of its shape.  A batch that raises is redone point
    by point, in order, so that its first bad point raises its own error.
    """
    if isinstance(s, (int, float, complex)) or np.ndim(s) == 0:
        return tuple(out[0] for out in fn(complex(s)))
    s = np.asarray(s, dtype=complex)
    try:
        outs = fn(s.ravel())
    except Exception as exc:
        error = exc
    else:
        return tuple(np.array(out).reshape(s.shape) for out in outs)
    for x in s.flat:
        fn(complex(x))
    raise error


def _zeta_hat_points(specs, s, order: int) -> list:
    """zeta-hat over each spectrum of `specs` at each point of `s` (a Python
    complex or a 1-D complex array): per spectrum, the list of values and the
    list of error estimates.  The spectra share each point's prefactor."""
    points = _points(s)
    for x in points:
        if _is_nonpositive_integer(x - 0.5):
            raise ConeError(f"pole of the zeta function at s={x}")
    prefs = [gamma(x - 0.5) * rgamma(x) / (2.0 * SQRT_PI) for x in points]
    out = []
    for spec in specs:
        head_values, tail_terms = _phi_pieces(spec, s, order)
        out.append((
            [pref * (head + sum(tail)) for pref, head, tail in zip(prefs, head_values, tail_terms)],
            [abs(pref) * (abs(tail[-1]) if tail else 0.0) for pref, tail in zip(prefs, tail_terms)],
        ))
    return out


def zeta_hat_operator_report(spec: CrossSectionSpectrum, s, order: int = FOLD_ORDER) -> dict:
    """Regularized zeta function of the cone operator with cross-section spectrum `spec`.

    Enumerated eigenvalues (and provider terms below the head threshold) are
    summed with exact Gamma quotients; the remainder is folded through the
    provider's continuation against the Gamma-ratio asymptotics.  Returns the
    value plus a truncation-error estimate (magnitude of the last tail term).
    The expansion runs to `order` (FOLD_ORDER by default), and the head to
    _HEAD_THRESHOLD.  `s` may be an array: both are then arrays of its shape,
    each element bit-identical to the point's call alone, and the batch
    raises the error of its first bad point.  A non-finite s raises
    ConeError.
    """
    value, error = _batch(lambda x: _zeta_hat_points((spec,), x, order)[0], s)
    return {"value": value, "error_estimate": error}


def zeta_hat_operator(spec: CrossSectionSpectrum, s, order: int = FOLD_ORDER):
    """The value of `zeta_hat_operator_report`."""
    return zeta_hat_operator_report(spec, s, order)["value"]


def gamma_zeta_hat(spec: CrossSectionSpectrum, s):
    """Gamma(s) zeta_hat(s), folded at FOLD_ORDER; `s` may be an array, as for
    `zeta_hat_operator`."""
    def points(x):
        g = [gamma(p) for p in _points(x)]
        (values, _), = _zeta_hat_points((spec,), x, FOLD_ORDER)
        return ([gp * zp for gp, zp in zip(g, values)],)

    return _batch(points, s)[0]


# ---------------------------------------------------------------------------
# Residues at the origin
# ---------------------------------------------------------------------------


# Cutoff of the Bernoulli-weighted pole sum in residues_at_zero.
_POLE_SUM_J_MAX = 6


def residues_at_zero(spec: CrossSectionSpectrum) -> tuple[complex, complex]:
    """Laurent coefficients (Res_1, Res_0) of Gamma(s) * zeta_hat at s=0.

    Assembled from the residues and finite parts of the zeta function of A at
    the half-integers, the Bernoulli-weighted pole sum, and the correction
    from eigenvalues carrying a negative Bessel order.
    """
    r1_half = spec.res1_zeta_a(-0.5)
    r0_half = spec.res0_zeta_a(-0.5)
    res1 = -r1_half
    # Gamma'(-1/2) / (2 sqrt(pi)) = -psi(-1/2)
    res0 = -digamma(-0.5) * r1_half - r0_half
    for j in range(1, _POLE_SUM_J_MAX + 1):
        bj = float(b_pos_fraction(j))
        res0 += (-1) ** j * bj / j * spec.res1_zeta_a(j - 0.5)
    i_zero = 0.0 + 0.0j
    for p, d in zip(spec._plan.orders, spec.data):
        if p < 0:
            i_zero += 2.0 * p * d.weight
    res0 -= i_zero
    return res1, res0


# ---------------------------------------------------------------------------
# First-order operators: eta function and index
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _eta_alpha_fraction(k: int) -> Fraction:
    """Rational part of the universal eta-residue constant, k >= 1.

    Generated from the spectral-shift bookkeeping at shift 1/2: the direct
    log-derivative sum plus the Bernoulli cross terms picked up by the
    half-integer poles.
    """
    eps = Fraction(1, 2)
    total = -2 * eps ** (2 * k + 1) / Fraction((2 * k + 1) * 2 * k)
    for j in range(1, k + 1):
        total -= (
            (-1) ** j
            * b_pos_fraction(j)
            / j
            * eps ** (2 * (k - j) + 1)
            * math.comb(2 * k - 1, 2 * (k - j) + 1)
        )
    return total


def eta_alpha_constant(k: int) -> float:
    """Universal constant multiplying Res_1 eta(2k) in the eta residue at 0."""
    if k < 0:
        raise ConeError("k must be >= 0")
    if k == 0:
        return 1.0 - digamma(-0.5) / 2.0
    return float(_eta_alpha_fraction(k))


class ShiftedIntegerEtaProvider(DirichletSeriesProvider):
    """Signed series for the symmetric operator with spectrum {n + a : n in Z}.

    eta(s) = zeta_H(s, a) - zeta_H(s, 1-a) for 0 < a < 1; the two Hurwitz
    poles at s=1 cancel, so the continuation is entire.
    """

    def __init__(self, a: float):
        if not 0 < a < 1:
            raise ConeError("a must lie in (0, 1)")
        self.a = a
        self._a_pair = np.array([a, 1.0 - a])

    def zeta(self, s):
        # a and 1-a on a leading axis of their own, against every element of s
        both = hurwitz_zeta(s, self._a_pair.reshape((2,) + (1,) * np.ndim(s)))
        out = both[0] - both[1]
        return complex(out) if out.ndim == 0 else out

    def term_iter(self):
        # k + a with weight +1 and k + 1 - a with weight -1, the smaller first
        # (+1 first on a tie)
        k = 0
        while True:
            up, down = (1.0, k + self.a), (-1.0, k + 1.0 - self.a)
            if down[1] < up[1]:
                yield down
                yield up
            else:
                yield up
                yield down
            k += 1


@dataclass(frozen=True)
class FirstOrderSpectrum:
    """Spectral data of the self-adjoint cross-section operator S.

    `s_data` lists signed eigenvalues with weights; `eta_provider` continues
    the signed series eta(S, s) (full spectrum; entries of `s_data` it does
    not enumerate are added on top).  `a_plus_tail` / `a_minus_tail` continue
    the zeta functions of (S +/- 1/2)^2 for the assembled eta route; a
    spectrum with an eta provider needs both there, since nothing derives
    them from it (`conespec eta` sets the eta provider only).
    """

    s_data: tuple[SpectralDatum, ...]
    eta_provider: Optional[DirichletSeriesProvider] = None
    a_plus_tail: Optional[DirichletSeriesProvider] = None
    a_minus_tail: Optional[DirichletSeriesProvider] = None

    def __post_init__(self):
        object.__setattr__(self, "s_data", tuple(self.s_data))
        # signed eigenvalues (sign * weight, |eigenvalue|) against the eta
        # provider's terms up to 1/2 at least
        signed = [
            ((1 if d.eigenvalue > 0 else -1) * d.weight, abs(d.eigenvalue))
            for d in self.s_data
            if d.eigenvalue != 0.0
        ]
        object.__setattr__(self, "_eta_plan", _TermPlan(signed, self.eta_provider, [], 0.5))

    # -- simple spectral sums ----------------------------------------------

    def kernel_weight(self) -> complex:
        return sum(
            (d.weight for d in self.s_data if d.eigenvalue == 0.0), 0.0 + 0.0j
        )

    def small_negative_weight(self) -> complex:
        """Weight of the eigenvalues in (-1/2, 0): those of s_data, and those
        the eta provider lists (as a negative weight at |eigenvalue|) that no
        entry of s_data claimed."""
        total = sum(
            (d.weight for d in self.s_data if -0.5 < d.eigenvalue < 0.0),
            0.0 + 0.0j,
        )
        for w, v in self._eta_plan.remaining():
            if v < 0.5 and complex(w).real < 0:
                total -= w
        return total

    def _eta_unmatched(self):
        """Signed eigenvalues the eta provider omits."""
        return self._eta_plan.unmatched()

    def eta_value(self, s: complex) -> complex:
        return _series_part(self.eta_provider, "zeta", s, self._eta_unmatched())

    def eta_res1(self, s0: complex) -> complex:
        return _series_part(self.eta_provider, "residue_at", s0, ())

    def eta_res0(self, s0: complex) -> complex:
        return _series_part(self.eta_provider, "value_at", s0, self._eta_unmatched())

    # -- squared-shift spectra ---------------------------------------------

    def shifted_square_spectrum(self, sign: int) -> CrossSectionSpectrum:
        """(S + sign/2)^2 with orders |lambda + sign/2|, signed for |lambda| < 1/2.

        ConeError when S has an eta provider but (S + sign/2)^2 no tail:
        the spectrum beyond s_data would be dropped.
        """
        tail = self.a_plus_tail if sign > 0 else self.a_minus_tail
        if tail is None and self.eta_provider is not None:
            raise ConeError("the eta tail continues eta(S) only; the eta value needs the "
                            "zeta functions of (S +/- 1/2)^2 as tails too")
        shift = 0.5 * sign
        data, overrides = [], []
        for d in self.s_data:
            lam = d.eigenvalue
            data.append(SpectralDatum((lam + shift) ** 2, d.weight))
            overrides.append(abs(lam + shift) if abs(lam) >= 0.5 else lam + shift)
        return CrossSectionSpectrum(data=tuple(data), tail=tail, p_overrides=tuple(overrides))

    @cached_property
    def _squares(self) -> tuple[CrossSectionSpectrum, CrossSectionSpectrum]:
        """The two shifted-square spectra, built once, so their plans are too."""
        return self.shifted_square_spectrum(1), self.shifted_square_spectrum(-1)


def eta_function_scalable(spec: FirstOrderSpectrum, s):
    """eta-hat of D = d/dx + S/x: Gamma(s) times the zeta-hat difference of D*D and DD*.

    Both are folded at FOLD_ORDER.  `s` may be an array, as for
    `zeta_hat_operator`.
    """
    squares = spec._squares

    def points(x):
        (plus, _), (minus, _) = _zeta_hat_points(squares, x, FOLD_ORDER)
        return ([gamma(p) * (a - b) for p, a, b in zip(_points(x), plus, minus)],)

    return _batch(points, s)[0]


# Cutoff of the alpha_k series of eta_hat_residues.
_ALPHA_K_MAX = 6


def eta_hat_residues(spec: FirstOrderSpectrum) -> tuple[complex, complex]:
    """Laurent coefficients (Res_1, Res_0) of eta-hat at s=0.

    Expressed through eta(S): its residue and finite part at 0, the kernel
    weight, the eigenvalues in (-1/2, 0), and the universal alpha_k series
    against the residues at even integers.
    """
    r1 = spec.eta_res1(0.0)
    res1 = -0.5 * r1
    res0 = (
        eta_alpha_constant(0) * r1
        - spec.eta_res0(0.0)
        - spec.kernel_weight()
        - 2.0 * spec.small_negative_weight()
    )
    for k in range(1, _ALPHA_K_MAX + 1):
        r = spec.eta_res1(2.0 * k)
        if r != 0:
            res0 += eta_alpha_constant(k) * r
    return res1, res0


def index_first_order(spec: FirstOrderSpectrum, interior_term: complex) -> complex:
    """Index of the minimal extension of d/dx + S/x with the given interior term.

    interior_term plus half of Res_0 eta-hat(0) without its term
    eta_alpha_constant(0) Res_1 eta(S, 0); as Res_1 eta-hat(0) is
    -Res_1 eta(S, 0)/2, that is interior_term + Res_0/2 + eta_alpha_constant(0)
    Res_1, with (Res_1, Res_0) of `eta_hat_residues`.
    """
    res1, res0 = eta_hat_residues(spec)
    return complex(interior_term) + 0.5 * res0 + eta_alpha_constant(0) * res1


# ---------------------------------------------------------------------------
# Heat-trace expansion
# ---------------------------------------------------------------------------


def _orders_and_weights(spec: CrossSectionSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Bessel orders and weights of a finite spectrum, as arrays."""
    if spec.tail is not None:
        raise ConeError("fiber trace needs a finite spectrum")
    orders, weights, _, _ = spec._plan.head(0.0)
    return orders, weights


def k_trace_operator(spec: CrossSectionSpectrum, t: float) -> complex:
    """Fiber heat trace summed over the enumerated spectrum (finite data only)."""
    orders, weights = _orders_and_weights(spec)
    return complex((k_trace_lp(orders, np.array([[t]], dtype=float)) @ weights)[0])


def _hankel_index(mu: float, m: int, k: int) -> int:
    """n = m + mu (k - 1/2), where t^(k-1/2) lands; ConeError unless an integer >= 0."""
    shift = mu * (k - 0.5)
    if shift != int(shift) or m + shift < 0:
        raise ConeError(f"t^({k - 0.5:g}) is off the grid t^((n-m)/mu) at mu={mu}, m={m}")
    return m + int(shift)


def scalar_interior_coefficients(
    spec: CrossSectionSpectrum,
    mu: float,
    m: int,
    n_terms: int,
) -> tuple[complex, ...]:
    """Exact interior coefficients b_0, ..., b_{n_terms-1} of the fiber trace.

    The Hankel expansion of I_p (DLMF 10.40.1) at z = 1/(2t) gives k(t) ~
    (4 pi)^(-1/2) sum_k (-2)^k a_k(p) t^(k-1/2), a_k(p) = prod_{j=1..k}
    (4p^2 - (2j-1)^2) / (k! 8^k).  b_n at n = m + mu (k - 1/2) sums these
    weighted terms, and every other b_n is 0.  Raises ConeError when such an
    n up to n_terms - 1 is not an integer >= 0.
    """
    if not 0 < mu < math.inf:
        raise ConeError(f"mu must be finite and positive, not {mu}")
    orders, weights = _orders_and_weights(spec)
    a_k = np.ones_like(orders)
    coeffs = [0.0 + 0.0j] * n_terms
    k = 0
    while mu * (k - 0.5) <= n_terms - 1 - m:
        # an integer shift at k = 0 makes mu an even integer, so n steps by >= 2
        coeffs[_hankel_index(mu, m, k)] = complex((-2.0) ** k / (2.0 * SQRT_PI) * (weights @ a_k))
        k += 1
        # 4p^2 - (2k-1)^2 as a product, exact to rounding near its zeros
        a_k *= (2.0 * orders - (2 * k - 1)) * (2.0 * orders + (2 * k - 1)) / (8.0 * k)
    return tuple(coeffs)


def heat_trace_expansion(
    spec: CrossSectionSpectrum,
    nu: float,
    mu: float,
    m: int,
    phi_moments: Sequence[complex],
    b_coeffs: Optional[Sequence[complex]] = None,
) -> ExpansionReport:
    """Small-time expansion of the localized heat trace.

    Power terms b_n * (regularized phi moment) * t^((n-m)/mu), the constant
    (1/nu) Res_0(Gamma zeta_hat)(0), and the log term -(1/nu) b_m log t.
    `phi_moments[n]` is the regularized integral of phi(x) x^((nu/mu)(m-n)-1);
    with `b_coeffs` omitted the b_n are `scalar_interior_coefficients` (b_m
    is then 0, so there is no log term).  Domain: nu nonzero and finite, mu
    finite and positive, m >= 0, finite moments and coefficients, and
    `b_coeffs` reaching index m and covering the moments.
    """
    if not (nu != 0 and math.isfinite(nu) and 0 < mu < math.inf and m >= 0):
        raise ConeError(
            "need nu nonzero and finite, mu finite and positive and m >= 0, "
            f"not nu={nu}, mu={mu}, m={m}"
        )
    for name, values in (("phi_moments", phi_moments), ("b_coeffs", b_coeffs)):
        if values is not None and not all(cmath.isfinite(complex(v)) for v in values):
            raise ConeError(f"{name} must be finite")
    n_terms = len(phi_moments)
    if b_coeffs is None:
        # the t^(-1/2) power must land on the grid even past the moments;
        # b_m is 0, as n = m would need the power t^0
        _hankel_index(mu, m, 0)
        b_coeffs, b_m = scalar_interior_coefficients(spec, mu, m, n_terms), 0.0
    elif len(b_coeffs) < max(n_terms, m + 1):
        raise ConeError("b coefficients must reach index m and cover the moments")
    else:
        b_m = b_coeffs[m]
    terms = []
    for n in range(n_terms):
        coef = complex(b_coeffs[n]) * complex(phi_moments[n])
        if coef != 0:
            terms.append(
                ReportTerm(
                    exponent=(n - m) / mu,
                    log_power=0,
                    coefficient=coef,
                    provenance="boundary",
                )
            )
    _, res0 = residues_at_zero(spec)
    if res0 != 0:
        terms.append(
            ReportTerm(
                exponent=0.0, log_power=0, coefficient=res0 / nu, provenance="taylor"
            )
        )
    log_coef = -complex(b_m) / nu
    if log_coef != 0:
        terms.append(
            ReportTerm(
                exponent=0.0,
                log_power=1,
                coefficient=log_coef,
                provenance="log-correction",
            )
        )
    return ExpansionReport(
        variable="t",
        terms=tuple(terms),
        remainder_order=(n_terms - m) / mu,
        remainder_log_power=0,
    )
