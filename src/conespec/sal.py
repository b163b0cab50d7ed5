"""Singular-asymptotics expansion engine.

Produces the small-t expansion of the regularized integral of phi(t x) F(x)
(and of phi(x) F(x/t)), and the z -> infinity expansion of
integral_0^infty sigma(x, x z) dx for separable sigma.  Three families of
terms appear:

* Taylor terms  t^j * phi^(j)(0)/j! * reg-int x^j F(x) dx,
* boundary terms t^(-beta-1) carrying reg-int phi(x) x^beta log^i x dx,
  with log(x/t) expanded binomially into pure powers of log t,
* log-correction terms t^(-beta-1) log^(k+1) t for integer beta in
  [-q-1, -1], with coefficient (-1)^(k+1) phi^(-beta-1)(0)/(-beta-1)! * b/(k+1)
  (and the mirrored a-side family for the phi(x) F(x/t) variant).

Every Taylor/boundary coefficient is a regularized moment from the mellin
module (pole tolerance mellin.POLE_TOL = 1e-8): the Taylor moments of F
from one mellin.regularized_moments call, and the boundary moments of every
phi of an engine call from one remainder quadrature, for all of them on
both sides of the cut; there is no independent numeric path.  One helper
emits the boundary and log-correction families of both engines.

phi is an ExpandableFunction whose terms at 0 are its Taylor series (x^j, j
a non-negative integer, no log) and whose expansion at infinity is empty;
the engines refuse any other phi with SalError.  phi^(j)(0)/j! is read from
phi's expansion at 0, and SalError is raised when j reaches its remainder
order p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expansions import ExpandableFunction, LogPowerTerm, _taylor_leaf
from .mellin import POLE_TOL, _moments, regularized_moments

MAX_EXPANSION_ORDER = 12


class SalError(Exception):
    pass


# ---------------------------------------------------------------------------
# Test functions and reports
# ---------------------------------------------------------------------------


def TestFunction(evaluator: Callable[[float], float],
                 derivatives_at_zero: Sequence[float]) -> ExpandableFunction:
    """phi from a scalar callable and its jet, derivatives_at_zero[j] =
    phi^(j)(0): the Taylor leaf of order len(derivatives_at_zero) that the
    engines take, whose evaluator maps the scalar callable over the points
    of an array.  Only phi's values are known, so it states no derivative
    and no Mellin transform.

    It exists for callers that hold phi as a scalar callable (the benchmark
    tasks), and goes once they build expandable leaves such as
    exponential_decay and gaussian_decay.
    """
    coefficients = [d / math.factorial(j) for j, d in enumerate(derivatives_at_zero)]
    # without the zero terms, which the expansion would drop
    terms = tuple(LogPowerTerm(c, complex(j), 0) for j, c in enumerate(coefficients) if c != 0)

    def mapped(x: np.ndarray) -> np.ndarray:
        return np.array([evaluator(v) for v in x.tolist()], dtype=float)

    return _taylor_leaf(mapped, terms, float(len(derivatives_at_zero)), None, None)


def _check_phi(phi: ExpandableFunction) -> None:
    """Refuse a phi that is not a Taylor series at 0 and rapidly decaying at
    infinity."""
    if phi.expansion_at_infinity.terms:
        raise SalError("phi's expansion at infinity must be empty")
    for t in phi.expansion_at_zero.terms:
        e = t.exponent
        if t.log_power or e.imag or e.real < 0 or not e.real.is_integer():
            raise SalError(f"phi's terms at 0 must be x^j with j a non-negative integer, "
                           f"not x^{e} log^{t.log_power} x")


def _taylor_coefficient(phi: ExpandableFunction, j: int) -> complex:
    """phi^(j)(0)/j!, from phi's expansion at 0."""
    if j >= phi.p:
        raise SalError(f"phi's expansion at 0 stops before order {j}")
    return phi.expansion_at_zero.coefficient(float(j), 0)


@dataclass(frozen=True)
class ReportTerm:
    exponent: complex
    log_power: int
    coefficient: complex
    provenance: str  # "taylor" | "boundary" | "log-correction"


@dataclass(frozen=True)
class ExpansionReport:
    """Ordered (exponent, log-power, coefficient) records for a small parameter.

    The certificate states the remainder is
    O(variable^remainder_order * log^remainder_log_power).
    """

    variable: str
    terms: tuple[ReportTerm, ...]
    remainder_order: float
    remainder_log_power: int = 0

    def coefficient(self, exponent: complex, log_power: int) -> complex:
        e = complex(exponent)
        return sum(
            (t.coefficient for t in self.terms
             if abs(t.exponent - e) <= 1e-9 and t.log_power == log_power),
            0.0 + 0.0j,
        )

    def evaluate(self, t: float) -> complex:
        lt = math.log(t)
        return sum(
            (r.coefficient * complex(t) ** r.exponent * lt**r.log_power for r in self.terms),
            0.0 + 0.0j,
        )


def _merge_terms(terms: Sequence[ReportTerm]) -> tuple[ReportTerm, ...]:
    out: list[ReportTerm] = []
    for t in terms:
        if t.coefficient == 0:
            continue
        for i, u in enumerate(out):
            if (
                abs(u.exponent - t.exponent) <= 1e-12
                and u.log_power == t.log_power
                and u.provenance == t.provenance
            ):
                out[i] = ReportTerm(u.exponent, u.log_power, u.coefficient + t.coefficient, u.provenance)
                break
        else:
            out.append(t)
    return tuple(t for t in out if abs(t.coefficient) > 0)


# ---------------------------------------------------------------------------
# Prop-S164-style expansion of reg-int phi(t x) F(x) dx
# ---------------------------------------------------------------------------


def _is_negative_integer(beta: complex, lo: float) -> Optional[int]:
    """Return -beta-1 >= 0 if beta lies within POLE_TOL of an integer in [lo, -1]."""
    n = round(beta.real)
    if abs(beta - n) <= POLE_TOL and -1 >= n >= lo - 1e-9:
        return -n - 1
    return None


def _log_correction(phi: ExpandableFunction, beta: complex, k: int, exponent: complex,
                    sign: float, lo: float, scale: complex) -> list[ReportTerm]:
    """For an integer beta = -n-1 in [lo, -1], the scale rule on phi's x^n term:
    scale * sign^(k+1) phi^(n)(0)/n! log^(k+1)(u)/(k+1) at u^exponent."""
    n = _is_negative_integer(beta, lo)
    if n is None:
        return []
    coef = sign ** (k + 1) * _taylor_coefficient(phi, n) * scale / (k + 1)
    return [ReportTerm(exponent, k + 1, coef, "log-correction")]


def _boundary_family(families, sign: float, lo: float) -> list[ReportTerm]:
    """For each family (phi, beta, k, exponent, scale), scale * reg-int
    phi(x) x^beta log^k(x u^sign) dx as terms u^exponent log^i u, and then
    the log-correction of an integer beta in [lo, -1].

    log^k(x u^sign) expands binomially over log x + sign log u.  Every
    family's Taylor coefficient is read first; then the moments x^beta
    log^i x of every phi, over all its families, come from one
    mellin._moments call: one remainder quadrature for all of them, on
    both sides of the cut.
    """
    corrections = [_log_correction(phi, beta, k, exponent, sign, lo, scale)
                   for phi, beta, k, exponent, scale in families]
    wanted: dict = {}
    for phi, beta, k, _, _ in families:
        wanted.setdefault(id(phi), (phi, []))[1].extend((beta, i) for i in range(k + 1))
    moments = {key: iter(block.tolist())
               for key, block in zip(wanted, _moments(list(wanted.values())))}
    out: list[ReportTerm] = []
    for (phi, beta, k, exponent, scale), correction in zip(families, corrections):
        mk = moments[id(phi)]
        out += [ReportTerm(exponent, k - i, scale * math.comb(k, i) * sign ** (k - i) * next(mk),
                           "boundary") for i in range(k + 1)]
        out += correction
    return out


def expand_phi_tx(
    phi: ExpandableFunction, F: ExpandableFunction, q: Optional[float] = None
) -> ExpansionReport:
    """Small-t expansion of reg-int phi(t x) F(x) dx through order t^q.

    q (default F.q) is capped at MAX_EXPANSION_ORDER + 1, may not exceed F.q
    and may not be negative.
    """
    _check_phi(phi)
    q = min(F.q if q is None else q, float(MAX_EXPANSION_ORDER + 1))
    if not q >= 0:
        raise SalError(f"order {q} is negative")
    if q > F.q:
        raise SalError(f"order {q} exceeds F's remainder order {F.q} at infinity")

    # Taylor family: t^j phi^(j)(0)/j! reg-int x^j F, for j < q
    taylor = [(j, _taylor_coefficient(phi, j)) for j in range(int(math.ceil(q - 1e-9)))]
    taylor = [(j, cj) for j, cj in taylor if cj != 0]
    moments = regularized_moments(F, [(float(j), 0) for j, _ in taylor]).tolist()
    terms = [ReportTerm(float(j), 0, cj * moment, "taylor")
             for (j, cj), moment in zip(taylor, moments)]

    # Boundary family: each infinity-side term b x^beta log^k contributes
    # t^(-beta-1) * b * reg-int phi(x) x^beta log^k(x/t) dx.
    terms += _boundary_family(
        [(phi, t.exponent, t.log_power, -t.exponent - 1, t.coefficient)
         for t in F.expansion_at_infinity.terms], -1.0, -q - 1)

    return ExpansionReport("t", _merge_terms(terms), float(q))


def expand_phi_x_over_t(
    phi: ExpandableFunction, F: ExpandableFunction, q: Optional[float] = None
) -> ExpansionReport:
    """Small-t expansion of reg-int phi(x) F(x/t) dx.

    Equals t times the phi(t x) expansion plus the zero-side log-correction
    family with coefficient (-1)^k phi^(-alpha-1)(0)/(-alpha-1)! * a/(k+1).
    """
    base = expand_phi_tx(phi, F, q)
    terms = [
        ReportTerm(r.exponent + 1, r.log_power, r.coefficient, r.provenance)
        for r in base.terms
    ]
    qv = base.remainder_order
    for t in F.expansion_at_zero.terms:
        # a zero-side term enters the scale rule with the opposite sign
        alpha = t.exponent
        terms += _log_correction(phi, alpha, t.log_power, -alpha, -1.0, -qv - 1, -t.coefficient)
    return ExpansionReport("t", _merge_terms(terms), qv + 1.0)


# ---------------------------------------------------------------------------
# Separable singular asymptotics: integral_0^infty sigma(x, x z) dx, z -> inf
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparableSigma:
    """sigma(x, zeta) = sum sigma_ak(x) zeta^alpha log^k zeta + remainder.

    boundary_terms lists the families (sigma_ak, alpha, k) with
    Re alpha > -p-1.  The remainder callable (x, zeta) -> complex, when
    supplied, must obey |remainder| <= remainder_bound * zeta^(-p-1)
    log^r zeta for large zeta, uniformly on compact x-sets; this is
    spot-sampled, not proven.  x_jets[j], when given, is the full jet
    zeta |-> d_x^j sigma(0, zeta)/j! as an expandable function; it feeds
    the Taylor family of the expansion.  For an exactly separable sigma the
    jets are monomial in zeta and their regularized moments vanish, so
    omitting x_jets is then exact.
    """

    boundary_terms: tuple[tuple[ExpandableFunction, complex, int], ...]
    remainder: Optional[Callable[[float, float], complex]] = None
    remainder_bound: Optional[float] = None
    remainder_log_power: int = 0
    x_jets: tuple[ExpandableFunction, ...] = ()

    def __post_init__(self):
        seen = set()
        for _, alpha, k in self.boundary_terms:
            key = (complex(alpha).real, complex(alpha).imag, k)
            if key in seen:
                raise SalError("duplicate (alpha, k) boundary family")
            seen.add(key)


def _check_remainder_bound(sigma: SeparableSigma, p: int) -> None:
    """Sample sup |rem| * zeta^(p+1) / log^r zeta on a grid; raise if it is
    non-finite or exceeds the declared bound."""
    if sigma.remainder is None:
        return
    r = sigma.remainder_log_power
    worst = 0.0
    for zeta in np.logspace(0.5, 3.0, 12):
        zeta = float(zeta)
        lz = math.log(zeta) ** r if zeta > 1 else 1.0
        for x in np.logspace(-2, 1, 10):
            v = abs(sigma.remainder(float(x), zeta))
            worst = max(worst, v * zeta ** (p + 1) / max(lz, 1e-300))
    if not math.isfinite(worst):
        raise SalError("remainder sampling produced a non-finite value")
    if sigma.remainder_bound is not None and worst > sigma.remainder_bound * (1 + 1e-6):
        raise SalError(
            f"declared remainder bound {sigma.remainder_bound} violated: observed {worst}"
        )


def sal_separable(sigma: SeparableSigma, p: int) -> ExpansionReport:
    """Large-z expansion of integral_0^infty sigma(x, x z) dx through z^(-p-1).

    Emits, with the regularized integral supplying every coefficient:

    * Taylor terms  z^(-j-1) * reg-int zeta^j sigma^(j)(0, zeta)/j! dzeta
      for j < p (from x_jets; zero for exactly separable input),
    * boundary terms z^alpha log^(k-i) z with coefficients
      C(k,i) reg-int sigma_ak(x) x^alpha log^i x dx  (log^k(xz) expanded),
    * correction terms z^alpha log^(k+1) z for integer alpha in [-p, -1]
      with coefficient sigma_ak^(-alpha-1)(0)/((k+1)(-alpha-1)!).

    The remainder certificate is O(z^(-p-1) log^(r+1) z).
    """
    if p < 0 or p > MAX_EXPANSION_ORDER:
        raise SalError(f"order p must lie in [0, {MAX_EXPANSION_ORDER}]")
    for phi, alpha, _k in sigma.boundary_terms:
        _check_phi(phi)
        if complex(alpha).real <= -p - 1:
            raise SalError(f"boundary family exponent {alpha} outside Re alpha > -p-1")
    _check_remainder_bound(sigma, p)
    terms: list[ReportTerm] = []

    for j in range(min(p, len(sigma.x_jets))):
        moment = regularized_moments(sigma.x_jets[j], [(float(j), 0)]).tolist()[0]
        terms.append(ReportTerm(float(-j - 1), 0, moment, "taylor"))

    terms += _boundary_family([(phi, complex(alpha), k, complex(alpha), 1.0)
                              for phi, alpha, k in sigma.boundary_terms], 1.0, -float(p))

    return ExpansionReport(
        "z", _merge_terms(terms), -(float(p) + 1.0), sigma.remainder_log_power + 1
    )
