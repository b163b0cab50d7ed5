"""Spectral invariants of model-cone operators.

Heat kernel and zeta function of the one-dimensional model operator L_p,
operator-valued zeta/eta functions assembled from cross-section spectra,
their residues at the origin, small-time heat-trace expansions, and the
spectral side of the index formula for first-order cone operators.  Every
explicit Gamma quotient of the Gamma-ratio sum Phi (the data's, the
provider's head terms' and the Gauss families') comes from one
`specfun.gamma_quotients` call per evaluation.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import loggamma

from .sal import ExpansionReport, ReportTerm
from .specfun import (
    _EPS,
    _INTEGER_TOL,
    _TERMS_CAP,
    DirichletSeriesProvider,
    _is_nonpositive_integer,
    _nonpositive_integer_mask,
    _poly_eval,
    b_pos_fraction,
    bessel_i_scaled,
    digamma,
    gamma,
    gamma_quotients,
    gamma_ratio_expansion,
    laurent_fit,
    rgamma,
)

SQRT_PI = math.sqrt(math.pi)

__all__ = [
    "ConeError",
    "FOLD_ORDER",
    "SpectralDatum",
    "CrossSectionSpectrum",
    "FirstOrderSpectrum",
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


def _split_terms(claims, head):
    """Match (weight, value) claims against a provider's head terms.

    A claim takes the first untaken head term within relative 1e-9 of its
    value whose weight agrees; if terms of that value remain but none agrees,
    the provider contradicts the data.  The head's values are nondecreasing,
    so the terms near a value are found by bisection.  Returns the positions
    of the claims no term matched and a dict from the position of each other
    claim to that of the head term it took.  No claim reaches past the top
    value plus its tolerance, so a longer head gives the same match.
    """
    values = [u for _, u in head]
    taken, claimed, unmatched = {}, set(), []
    for i, (w, v) in enumerate(claims):
        tol = 1e-9 * max(1.0, v)
        near = False
        # twice the tolerance brackets every value the test below accepts
        for j in range(bisect_left(values, v - 2 * tol), bisect_right(values, v + 2 * tol)):
            if j in claimed or not abs(values[j] - v) <= tol:
                continue
            near = True
            if abs(head[j][0] - w) <= 1e-9 * (1.0 + abs(w)):
                taken[i] = j
                claimed.add(j)
                break
        else:
            if near:
                raise ConeError(f"tail provider disagrees with data weight at value {v}")
            unmatched.append(i)
    return unmatched, taken


def _series_part(provider, part: str, z: complex, pairs) -> complex:
    """provider.<part>(z) ("zeta", "value_at" or "residue_at"; 0 without a
    provider) plus sum w * v^-z over the (weight, value) pairs."""
    total = getattr(provider, part)(z) if provider is not None else 0.0 + 0.0j
    for w, v in pairs:
        total += w * complex(v) ** (-complex(z))
    return total


class _Columns(NamedTuple):
    """Phi's column layout over a plan: the explicit columns' Bessel orders
    and weights, the Gauss families' bases a and weights w (or None), and
    the fold's head terms' weights and log values (or None)."""

    orders: np.ndarray
    weights: np.ndarray
    bases: Optional[np.ndarray]
    family_weights: Optional[np.ndarray]
    head_weights: Optional[np.ndarray]
    head_logs: Optional[np.ndarray]


def _pair_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    """(w, x) pairs as an array of the x and one of the complex w."""
    return (np.array([x for _, x in pairs], dtype=float),
            np.array([w for w, _ in pairs], dtype=complex))


class _TermPlan:
    """The s-independent half of Phi over a provider.

    `folded` holds the (weight, Bessel order) terms of the spectrum's
    entries, and `claims` the (weight, value) data matched against every
    provider term read: `unmatched()` gives the positions of the claims the
    provider does not enumerate, and `remaining()` the terms no claim took.
    No claim takes a term past the window, the top claim plus its 1e-9
    tolerance (or `reach` if that is larger), so the match does not depend
    on how far the terms were read.  A read of _TERMS_CAP terms raises
    ConeError, as more may lie below its bound.

    `columns`, built on first use, is Phi's column layout: the data at
    their own signed orders but those that claim a term at a positive order,
    which the term stands for, then the provider's terms up to a bound B
    (read with a margin of 1e-9 relative plus 1e-12) that no datum at a
    negative order replaced (its value is below 1, as the order is above
    -1); the continuation starts past B.  On the fold, B is the larger of
    _HEAD_THRESHOLD^2 and the top claim.  On the Gauss route, B is the top
    value a datum replaces (claim or term), no term is read past the window
    if none does, and each family (w, a) becomes (w, a + n), n the count of
    its (a+j)^2 up to B; a higher B would make the explicit terms and the
    continuation cancel.
    """

    def __init__(self, provider, folded: list, claims: list, reach: float):
        self.provider, self.folded, self.claims = provider, folded, claims
        self._terms, self._values, self._read_to = [], [], -math.inf
        self._matching = (list(range(len(claims))), {})
        self._top = max((v for _, v in claims), default=0.0)
        self._window = max(reach, self._top + 1e-9 * max(1.0, self._top)) if claims else reach

    def _read(self, bound: float, what: str) -> None:
        """Hold the provider's terms up to at least `bound`, matched against
        the claims; a read or match that raises keeps nothing."""
        if self.provider is not None and bound > self._read_to:
            terms = self.provider.terms_below(bound)
            if len(terms) >= _TERMS_CAP:
                raise ConeError(f"at most {_TERMS_CAP} tail terms are read, and the tail has "
                                f"as many below the {what} {bound:.6g}")
            self._matching = _split_terms(self.claims, terms)
            self._terms, self._read_to = terms, bound
            self._values = [v for _, v in terms]

    def unmatched(self) -> list:
        self._read(self._window, "match window")
        return self._matching[0]

    def remaining(self) -> list:
        self._read(self._window, "match window")
        taken = set(self._matching[1].values())
        return [term for j, term in enumerate(self._terms) if j not in taken]

    @cached_property
    def real(self) -> bool:
        """Whether every weight is real: the folded terms' and the provider's."""
        return (all(w.imag == 0 for w, _ in self.folded)
                and (self.provider is None or self.provider.real_weights()))

    @cached_property
    def columns(self) -> _Columns:
        if self.provider is None:
            return _Columns(*_pair_arrays(self.folded), None, None, None, None)
        families = self.provider.gauss_families()
        self._read(self._window, "match window")
        terms, taken = self._terms, self._matching[1]
        # the replaced terms' positions, each with the larger of its value and its claim's
        replaced = {j: max(self.claims[i][1], terms[j][1]) for i, j in taken.items()
                    if self.folded[i][1] < 0}
        explicit = [f for i, f in enumerate(self.folded) if i not in taken or f[1] < 0]
        if families is None or replaced:
            top = (max(replaced.values()) if families is not None
                   else max(_HEAD_THRESHOLD * _HEAD_THRESHOLD, self._top))
            bound = top * (1 + 1e-9) + 1e-12
            self._read(max(bound, self._window), "head bound")
            terms = self._terms[:bisect_right(self._values, bound)]
            explicit += [(w, math.sqrt(v)) for j, (w, v) in enumerate(terms) if j not in replaced]
            if families is None:
                values, weights = _pair_arrays(terms)
                return _Columns(*_pair_arrays(explicit), None, None, weights, np.log(values))
            counts = [sum((a + j) ** 2 <= bound for j in range(len(terms) + 1))
                      for _, a in families]
            if sum(counts) != len(terms):
                raise ConeError(f"the tail's {len(terms)} terms up to {bound:.6g} are not "
                                f"the first terms of its Gauss families")
            families = [(w, a + n) for (w, a), n in zip(families, counts)]
        return _Columns(*_pair_arrays(explicit), *_pair_arrays(families), None, None)


@dataclass(frozen=True)
class CrossSectionSpectrum:
    """Explicit low spectrum of A plus a Dirichlet-series continuation.

    `tail` carries the zeta function of A (in the eigenvalue variable); where
    its enumeration overlaps `data` the two must agree, and `data` may extend
    below or beyond it.  `negative_below` selects the negative Bessel order
    -sqrt(lambda) for eigenvalues under the threshold.  A datum that
    matches a tail term is that term at a positive order, and replaces it
    at a negative one, at its own order and value (see `_TermPlan`).
    """

    data: tuple[SpectralDatum, ...]
    tail: Optional[DirichletSeriesProvider] = None
    negative_below: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "data", tuple(self.data))
        claims, folded = [], []
        for d in self.data:
            if d.eigenvalue < 0:
                raise ConeError("cross-section eigenvalues must be nonnegative")
            p = self.p_value(d.eigenvalue)
            if p <= -1:
                raise ConeError(f"Bessel order p={p} <= -1 at eigenvalue {d.eigenvalue}")
            claims.append((d.weight, d.eigenvalue))
            folded.append((d.weight, p))
        object.__setattr__(self, "_plan", _TermPlan(self.tail, folded, claims, 0.0))

    def p_value(self, lam: float) -> float:
        root = math.sqrt(lam)
        return -root if lam < self.negative_below else root

    def p_of(self, i: int) -> float:
        return self.p_value(self.data[i].eigenvalue)

    def _unmatched(self):
        data = [self.data[i] for i in self._plan.unmatched()]
        return [(d.weight, d.eigenvalue) for d in data if d.eigenvalue > 0]

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


# Order of the fold's Gamma-ratio expansion, for tails without a closed-form
# Gamma-ratio sum.  Only zeta_hat_operator(_report) (and so `conespec zeta-op
# --order`) fold at another order.
FOLD_ORDER = 6

# Head threshold of the fold: the provider terms below its square are summed
# with exact Gamma quotients.
_HEAD_THRESHOLD = 8.0


# Distance of s from 1 within which a Gauss family's Gamma-ratio sum raises.
_GAUSS_POLE = 1e-8


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


def _check_poles(orders: np.ndarray, bases, points: list) -> None:
    """ConeError at the first point, in order, on a pole of Phi's explicit
    quotients: s = 1 or a + 1 - s on a nonpositive integer for a Gauss base
    a (if `bases` is not None), then p + 1 - s on one for an order p."""
    for x in points:
        if bases is not None:
            if not abs(x - 1.0) > _GAUSS_POLE:
                raise ConeError(f"pole of the Gamma-ratio sum at s={x}")
            for a in bases.tolist():
                if _is_nonpositive_integer(a + 1.0 - x):
                    raise ConeError(f"Gamma pole in the Gamma-ratio sum at a={a}, s={x}")
        # only a real point puts p + 1 - s on a pole, and only where it is <= 1/2
        if abs(x.imag) <= _INTEGER_TOL:
            for p in orders.tolist():
                if p + 1 - x.real <= 0.5 and _is_nonpositive_integer(p + 1 - x):
                    raise ConeError(f"Gamma pole in the quotient at p={p}, s={x}")


def _phi_pieces(plan: _TermPlan, s, order: int, estimate: bool):
    """The Gamma-quotient sum Phi over the spectrum, with its error.

    `s` is a Python complex or a 1-D complex array of points.  Returns
    (values, errors), one entry per point; errors is None unless `estimate`
    is set, so that a caller that reads only the values does not pay for
    them.  `order` is checked whenever there is a provider, on every route.

    Phi is a sum over the plan's column layout (`_TermPlan.columns`, built
    once per spectrum) plus a continuation of the provider's terms past its
    head bound B.  One `gamma_quotients` pass over (points x columns) gives
    every quotient, u and v p + (1-s) and p + s for an order p, (a+1) - s
    and (a+s) - 1 for a family (w, a); the continuation is
    - Gauss's sum, w Gamma(a+1-s) / (2 (s-1) Gamma(a+s-1)) over the
      families, which is sum_(j>=0) w Gamma(a+j+1-s) / Gamma(a+j+s) for
      Re s > 1 (DLMF 15.4.20) and continues it off s = 1;
    - or the fold, where the provider states no families: its continuation
      minus its terms up to B is folded against the Gamma-ratio expansion
      to `order`, one provider call and one power sum over (points x shifts
      z_k = (2s-1+k)/2) whose Q_k is nonzero;
    - or nothing, without a provider.

    The error has one rule on every route: the continuation's bound, plus
    the rounding of the explicit quotients, eps sum |w q| (rounding of q),
    plus that of zeta-hat's prefactor Gamma(s-1/2)/Gamma(s) relative to
    Phi, which that prefactor multiplies.  Gauss's sum is bounded by its
    quotients' rounding over |2 (s-1)|; the fold by the magnitude of the
    last Q_k correction plus a bound on the rounding of the subtraction
    each correction multiplies, eps sum_k |Q_k(s)| (|zeta(z_k) - head_k| +
    2 sum_head |w v^-z_k|), at least eps sum_k |Q_k(s)| (|zeta(z_k)| +
    sum_head |w v^-z_k|): where the provider's zeta and the head sum
    cancel, that rounding is the error.

    Each point's values and errors are bit-identical to its call alone.
    """
    provider, points = plan.provider, _points(s)
    s = s if isinstance(s, complex) else s[:, None]
    if provider is not None:
        qs, ks = _fold_shifts(order)
    orders, weights, bases, family_weights, head_w, head_logs = plan.columns
    _check_poles(orders, bases, points)
    u, v = orders + (1 - s), orders + s
    if bases is not None:
        u = np.concatenate((u, (bases + 1.0) - s), axis=-1)
        v = np.concatenate((v, (bases + s) - 1.0), axis=-1)
    q, rounding = gamma_quotients(u, v, estimate)
    n, width = len(points), len(orders)
    # one row of quotients per point: the orders' columns, then the families'
    rows = [q] if q.ndim == 1 else q
    values = [complex(weights @ row[:width]) for row in rows]
    bounds = [0.0] * n
    if bases is not None:
        shape = (n, len(bases))
        terms = (q[..., width:].reshape(shape) * family_weights).tolist()
        values = [value + sum(row, 0.0 + 0.0j) / (2.0 * (x - 1.0))
                  for value, row, x in zip(values, terms, points)]
        if estimate:
            bounds = [_EPS * sum([abs(t) * r for t, r in zip(row, rs)], 0.0) / abs(2.0 * (x - 1.0))
                      for row, rs, x in zip(terms, rounding[..., width:].reshape(shape).tolist(),
                                            points)]
    elif head_w is not None and points:
        z = (2 * s - 1 + ks) / 2.0
        pole = provider.is_pole(z)
        if pole.any():
            raise ConeError(f"tail provider pole hit at argument {complex(z.flat[pole.argmax()])}")
        # the head's v^-z, one product with its weights for the sum and, for
        # the error, one of the magnitudes
        powers = np.exp(np.multiply.outer(-z, head_logs))
        diffs = (provider.zeta(z) - powers @ head_w).reshape(n, -1).tolist()
        q_at = [[_poly_eval(qk, x) for qk in qs] for x in points]
        tails = [[q * t for q, t in zip(qx, row)] for qx, row in zip(q_at, diffs)]
        values = [value + sum(tail) for value, tail in zip(values, tails)]
        if estimate:
            sizes = (np.abs(powers) @ np.abs(head_w)).reshape(n, -1).tolist()
            # |zeta| + size <= |zeta - head| + 2 size
            bounds = [abs(tail[-1]) + _EPS * sum([abs(q) * (abs(t) + 2.0 * m)
                                                  for q, t, m in zip(qx, row, size)])
                      for tail, qx, row, size in zip(tails, q_at, diffs, sizes)]
    if not estimate:
        return values, None
    roundings = _EPS * (np.abs(weights * q[..., :width]) * rounding[..., :width]).sum(axis=-1)
    # 0 where the prefactor is, at s = 0, -1, -2, ...
    x = np.array(points, dtype=complex)
    prefactor = gamma_quotients(x - 0.5, x, True)[1].tolist()
    return values, [b + r + _EPS * abs(value) * pref for b, r, value, pref
                    in zip(bounds, roundings.reshape(-1).tolist(), values, prefactor)]


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


def _real_at_real(values: list, s, real: bool) -> list:
    """The values at the points of `s` (a Python complex or a 1-D complex
    array), with imaginary part 0.0 at each real point when the weights are
    `real`: the k pi parts that loggamma gives at negative arguments cancel
    there only to rounding."""
    if not real:
        return values
    if isinstance(s, complex):
        return [complex(values[0].real, 0.0)] if s.imag == 0 else values
    return [complex(v.real, 0.0) if x.imag == 0 else v for v, x in zip(values, s.tolist())]


def _zeta_hat_points(plans, s, order: int, estimate: bool) -> list:
    """zeta-hat over each plan of `plans` at each point of `s` (a Python
    complex or a 1-D complex array): per plan, the list of values and, when
    `estimate` is set, the list of error estimates (else None).  The plans
    share each point's prefactor."""
    points = _points(s)
    for x in points:
        if _is_nonpositive_integer(x - 0.5):
            raise ConeError(f"pole of the zeta function at s={x}")
    prefs = [gamma(x - 0.5) * rgamma(x) / (2.0 * SQRT_PI) for x in points]
    out = []
    for plan in plans:
        phis, errors = _phi_pieces(plan, s, order, estimate)
        out.append(([pref * phi for pref, phi in zip(prefs, phis)],
                    None if errors is None
                    else [abs(pref) * error for pref, error in zip(prefs, errors)]))
    return out


def _zeta_hat(spec: CrossSectionSpectrum, s, order: int, estimate: bool) -> tuple:
    """The values of zeta-hat at `s` and, when `estimate` is set, their
    error estimates, through `_batch`: the body of `zeta_hat_operator_report`
    and of `zeta_hat_operator`."""
    def points(x):
        (values, errors), = _zeta_hat_points((spec._plan,), x, order, estimate)
        values = _real_at_real(values, x, spec._plan.real)
        return (values, errors) if estimate else (values,)

    return _batch(points, s)


def zeta_hat_operator_report(spec: CrossSectionSpectrum, s, order: int = FOLD_ORDER) -> dict:
    """Regularized zeta function of the cone operator with cross-section spectrum `spec`.

    zeta_hat(s) = Gamma(s-1/2) / (2 sqrt(pi) Gamma(s)) Phi(s), with Phi the
    sum of w Gamma(p+1-s) / Gamma(p+s) over the Bessel orders p.  The data
    and the tail's terms up to a head bound B are summed exactly (a datum
    on a tail term is that term at a positive order and replaces it at a
    negative one), and the tail past B is continued.  Where the tail provider states Gauss families
    (`gauss_families`: every tail (a+j)^2, j >= 0, such as a Hurwitz tail
    of exponent 2), B is the top value a datum replaces (no term if none
    does) and the continuation is Gauss's closed form of the families past
    B, exact for every s off its poles; `order` is checked but not used.
    Otherwise B is the larger of _HEAD_THRESHOLD^2 and the top datum, and
    the tail past B is folded through the provider's continuation against
    the Gamma-ratio asymptotics to `order` (FOLD_ORDER by default).  A
    finite spectrum has no tail part.  The error estimate is the same sum
    on every route: the continuation's bound (the rounding of Gauss's
    quotients, or the fold's truncation, the magnitude of its last term,
    plus the rounding of the provider's value minus the head it folds),
    plus the rounding of the exact quotients and of the prefactor.  At a
    real s with real weights (data and tail) the value is real.  Returns
    the value and the error estimate.  `s` may be an array: both are then
    arrays of its shape, each element bit-identical to the point's call
    alone, and the batch raises the error of its first bad point.  A
    non-finite s raises ConeError.
    """
    value, error = _zeta_hat(spec, s, order, True)
    return {"value": value, "error_estimate": error}


def zeta_hat_operator(spec: CrossSectionSpectrum, s, order: int = FOLD_ORDER):
    """The value of `zeta_hat_operator_report`, without its error estimate."""
    return _zeta_hat(spec, s, order, False)[0]


def gamma_zeta_hat(spec: CrossSectionSpectrum, s):
    """Gamma(s) zeta_hat(s), exact or folded at FOLD_ORDER as in
    `zeta_hat_operator`, and real at a real s with real weights; `s` may be
    an array, as there."""
    def points(x):
        g = [gamma(p) for p in _points(x)]
        (values, _), = _zeta_hat_points((spec._plan,), x, FOLD_ORDER, False)
        return (_real_at_real([gp * zp for gp, zp in zip(g, values)], x, spec._plan.real),)

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
    for w, p in spec._plan.folded:
        if p < 0:
            i_zero += 2.0 * p * w
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


@dataclass(frozen=True)
class FirstOrderSpectrum:
    """Spectral data of the self-adjoint cross-section operator S.

    `s_data` lists signed eigenvalues with weights; `eta_provider` continues
    the signed series eta(S, s) over the full spectrum.  `a_plus_tail` /
    `a_minus_tail` continue the zeta functions of (S +/- 1/2)^2 for the
    assembled eta route; a spectrum with an eta provider needs both there,
    since nothing derives them from it (`conespec eta` sets the eta provider
    only).  Duplicates are decided once, in S: an entry mu != 0 is the eta
    provider's if it lists |mu| (to relative 1e-9) at weight sign(mu) times
    the entry's, and ConeError if it lists |mu| at other weights only.
    Every other entry, the kernel always, is added on top of the eta
    provider and of both squared tails, at order |mu +/- 1/2| (mu +/- 1/2 if
    |mu| < 1/2); nothing is matched against a squared tail, so without an
    eta provider every entry is added on top.
    """

    s_data: tuple[SpectralDatum, ...]
    eta_provider: Optional[DirichletSeriesProvider] = None
    a_plus_tail: Optional[DirichletSeriesProvider] = None
    a_minus_tail: Optional[DirichletSeriesProvider] = None

    def __post_init__(self):
        object.__setattr__(self, "s_data", tuple(self.s_data))
        # the nonzero eigenvalues, by position in s_data, claim (sign * weight,
        # |eigenvalue|) among the eta provider's terms up to 1/2 at least
        signed = {i: d for i, d in enumerate(self.s_data) if d.eigenvalue != 0.0}
        claims = [((1 if d.eigenvalue > 0 else -1) * d.weight, abs(d.eigenvalue))
                  for d in signed.values()]
        object.__setattr__(self, "_signed", list(signed))
        object.__setattr__(self, "_eta_plan", _TermPlan(self.eta_provider, [], claims, 0.5))

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

    def _eta_unmatched(self) -> list:
        """The claims of the entries the eta provider does not list."""
        return [self._eta_plan.claims[j] for j in self._eta_plan.unmatched()]

    def eta_value(self, s: complex) -> complex:
        return _series_part(self.eta_provider, "zeta", s, self._eta_unmatched())

    def eta_res1(self, s0: complex) -> complex:
        return _series_part(self.eta_provider, "residue_at", s0, ())

    def eta_res0(self, s0: complex) -> complex:
        return _series_part(self.eta_provider, "value_at", s0, self._eta_unmatched())

    @cached_property
    def _squares(self) -> tuple[_TermPlan, _TermPlan]:
        """The fold plans of (S + 1/2)^2 and (S - 1/2)^2, built once: each
        squared tail plus the entries the eta provider does not list.
        ConeError when S has an eta provider but a square has no tail: the
        spectrum beyond s_data would be dropped."""
        if self.eta_provider is not None and None in (self.a_plus_tail, self.a_minus_tail):
            raise ConeError("the eta tail continues eta(S) only; the eta value needs the "
                            "zeta functions of (S +/- 1/2)^2 as tails too")
        free = {self._signed[j] for j in self._eta_plan.unmatched()}
        mus = [(d.weight, d.eigenvalue) for i, d in enumerate(self.s_data)
               if d.eigenvalue == 0.0 or i in free]
        return tuple(
            _TermPlan(tail, [(w, abs(mu + shift) if abs(mu) >= 0.5 else mu + shift)
                             for w, mu in mus], [], 0.0)
            for tail, shift in ((self.a_plus_tail, 0.5), (self.a_minus_tail, -0.5))
        )


def eta_function_scalable(spec: FirstOrderSpectrum, s):
    """eta-hat of D = d/dx + S/x: Gamma(s) times the zeta-hat difference of D*D and DD*.

    Each is exact or folded at FOLD_ORDER as in `zeta_hat_operator`, by its
    squared tail.  At a real s with real weights the value is real.  `s` may
    be an array, as for `zeta_hat_operator`.
    """
    squares = spec._squares

    def points(x):
        (plus, _), (minus, _) = _zeta_hat_points(squares, x, FOLD_ORDER, False)
        return (_real_at_real([gamma(p) * (a - b) for p, a, b in zip(_points(x), plus, minus)],
                              x, all(plan.real for plan in squares)),)

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
    return spec._plan.columns[:2]


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
