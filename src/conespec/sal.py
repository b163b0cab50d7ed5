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

Every Taylor/boundary coefficient is produced by the regularized-integral
machinery of the mellin module (pole tolerance mellin.POLE_TOL = 1e-8); there
is no independent numeric path.  One helper emits the boundary and
log-correction families of both engines; phi's jet is read through
TestFunction.taylor_coefficient, which raises SalError when it is too short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expansions import ExpandableFunction, LogPowerTerm, _taylor_leaf, times_monomial
from .mellin import POLE_TOL, regularized_integral

MAX_EXPANSION_ORDER = 12


class SalError(Exception):
    pass


# ---------------------------------------------------------------------------
# Test functions and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """A rapidly decaying smooth function on [0, infinity) with jet data at 0.

    derivatives_at_zero[j] is phi^(j)(0).  The expansion at infinity is
    empty with remainder order 40: x^n phi^(m)(x) stays bounded for n, m up
    to 40.
    """

    evaluator: Callable[[float], float]
    derivatives_at_zero: tuple[float, ...]

    def __call__(self, x: float) -> float:
        return self.evaluator(x)

    def taylor_coefficient(self, j: int) -> float:
        if j >= len(self.derivatives_at_zero):
            raise SalError(f"derivative data at 0 missing for order {j}")
        return self.derivatives_at_zero[j] / math.factorial(j)

    def jet_consistency_error(self, scale: float = 1e-3) -> float:
        """Max relative error of the declared low-order jet vs finite differences."""
        phi = self.evaluator
        h = scale
        errs = []
        if len(self.derivatives_at_zero) >= 1:
            errs.append(abs(phi(0.0) - self.derivatives_at_zero[0]))
        if len(self.derivatives_at_zero) >= 2:
            fd1 = (-3 * phi(0.0) + 4 * phi(h) - phi(2 * h)) / (2 * h)
            d1 = self.derivatives_at_zero[1]
            errs.append(abs(fd1 - d1) / max(1.0, abs(d1)))
        if len(self.derivatives_at_zero) >= 3:
            fd2 = (2 * phi(0.0) - 5 * phi(h) + 4 * phi(2 * h) - phi(3 * h)) / h**2
            d2 = self.derivatives_at_zero[2]
            errs.append(abs(fd2 - d2) / max(1.0, abs(d2)))
        return max(errs) if errs else 0.0

    def as_expandable(self) -> ExpandableFunction:
        """View phi as an expandable function (Taylor at 0, rapid decay at infinity)."""
        n = len(self.derivatives_at_zero)
        terms = tuple(LogPowerTerm(self.taylor_coefficient(j), float(j), 0) for j in range(n))
        return _taylor_leaf(self.evaluator, terms, float(n), None)


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

    def sorted_terms(self) -> tuple[ReportTerm, ...]:
        return tuple(
            sorted(self.terms, key=lambda t: (t.exponent.real, t.exponent.imag, t.log_power))
        )

    def coefficient(self, exponent: complex, log_power: int, tol: float = 1e-9) -> complex:
        e = complex(exponent)
        return sum(
            (t.coefficient for t in self.terms
             if abs(t.exponent - e) <= tol and t.log_power == log_power),
            0.0 + 0.0j,
        )

    def evaluate(self, t: float) -> complex:
        lt = math.log(t)
        return sum(
            (r.coefficient * complex(t) ** r.exponent * lt**r.log_power for r in self.terms),
            0.0 + 0.0j,
        )

    def to_json_dict(self) -> dict:
        return {
            "variable": self.variable,
            "remainder_order": float(self.remainder_order),
            "remainder_log_power": int(self.remainder_log_power),
            "terms": [
                {
                    "re_exp": r.exponent.real,
                    "im_exp": r.exponent.imag,
                    "log_pow": r.log_power,
                    "re_coef": complex(r.coefficient).real,
                    "im_coef": complex(r.coefficient).imag,
                    "provenance": r.provenance,
                }
                for r in self.sorted_terms()
            ],
        }


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


def _log_correction(phi: TestFunction, beta: complex, k: int, exponent: complex,
                    sign: float, lo: float, scale: complex = 1.0) -> list[ReportTerm]:
    """For an integer beta = -n-1 in [lo, -1], the scale rule on phi's x^n term:
    scale * sign^(k+1) phi^(n)(0)/n! log^(k+1)(u)/(k+1) at u^exponent."""
    n = _is_negative_integer(beta, lo)
    if n is None:
        return []
    coef = sign ** (k + 1) * phi.taylor_coefficient(n) * scale / (k + 1)
    return [ReportTerm(exponent, k + 1, coef, "log-correction")]


def _boundary_family(phi: TestFunction, beta: complex, k: int, exponent: complex,
                     sign: float, lo: float, scale: complex = 1.0) -> list[ReportTerm]:
    """scale * reg-int phi(x) x^beta log^k(x u^sign) dx as terms u^exponent log^i u.

    log^k(x u^sign) expands binomially over log x + sign log u; an integer
    beta in [lo, -1] adds the log-correction, whose jet is read first.
    """
    correction = _log_correction(phi, beta, k, exponent, sign, lo, scale)
    phi_exp = phi.as_expandable()
    return [
        ReportTerm(exponent, k - i, scale * math.comb(k, i) * sign ** (k - i)
                   * regularized_integral(times_monomial(phi_exp, beta, i)), "boundary")
        for i in range(k + 1)
    ] + correction


def expand_phi_tx(
    phi: TestFunction, F: ExpandableFunction, q: Optional[float] = None
) -> ExpansionReport:
    """Small-t expansion of reg-int phi(t x) F(x) dx through order t^q.

    q (default F.q) is capped at MAX_EXPANSION_ORDER + 1 and may not exceed F.q.
    """
    q = min(F.q if q is None else q, float(MAX_EXPANSION_ORDER + 1))
    if q > F.q:
        raise SalError(f"order {q} exceeds F's remainder order {F.q} at infinity")
    terms: list[ReportTerm] = []

    # Taylor family: t^j phi^(j)(0)/j! reg-int x^j F, for j < q
    for j in range(int(math.ceil(q - 1e-9))):
        cj = phi.taylor_coefficient(j)
        if cj == 0:
            continue
        moment = regularized_integral(times_monomial(F, float(j), 0))
        terms.append(ReportTerm(float(j), 0, cj * moment, "taylor"))

    # Boundary family: each infinity-side term b x^beta log^k contributes
    # t^(-beta-1) * b * reg-int phi(x) x^beta log^k(x/t) dx.
    for t in F.expansion_at_infinity.terms:
        beta = t.exponent
        terms += _boundary_family(phi, beta, t.log_power, -beta - 1, -1.0, -q - 1, t.coefficient)

    return ExpansionReport("t", _merge_terms(terms), float(q))


def expand_phi_x_over_t(
    phi: TestFunction, F: ExpandableFunction, q: Optional[float] = None
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

    boundary_terms: tuple[tuple[TestFunction, complex, int], ...]
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
    for _, alpha, _k in sigma.boundary_terms:
        if complex(alpha).real <= -p - 1:
            raise SalError(f"boundary family exponent {alpha} outside Re alpha > -p-1")
    _check_remainder_bound(sigma, p)
    terms: list[ReportTerm] = []

    for j in range(min(p, len(sigma.x_jets))):
        jet = sigma.x_jets[j]
        moment = regularized_integral(times_monomial(jet, float(j), 0))
        terms.append(ReportTerm(float(-j - 1), 0, moment, "taylor"))

    for phi, alpha, k in sigma.boundary_terms:
        a = complex(alpha)
        terms += _boundary_family(phi, a, k, a, 1.0, -float(p))

    return ExpansionReport(
        "z", _merge_terms(terms), -(float(p) + 1.0), sigma.remainder_log_power + 1
    )
