"""Log-power asymptotic expansions at 0 and infinity.

Data model for functions f on (0, infinity) that admit finite expansions

    f(x) = sum_j a_j * x**alpha_j * log(x)**k_j  +  remainder

near an endpoint, with the remainder certified to be O(x**p) at 0 (resp.
O(x**-q) at infinity).  All values are immutable after construction; the
evaluator callables are expected to be pure.

Every function states its remainder at either endpoint as data: an evaluator
and the interval outside which it vanishes (empty for a function that is
exactly its expansion, such as a global monomial).  The monomial and cutoff
leaves state theirs in closed form.  The Taylor leaves (e^-x, e^-x^2 and
sal's test functions) subtract their terms only above the point x0 where
the first omitted order falls under the rounding of the first term, and are
0 below it.  The algebra (sum, scaling, monomial factor, dilation, power
substitution, derivatives) builds the remainder of its result from its
operands', so no subtraction f - sum of terms reaches down to 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

EXPONENT_TOL = 1e-12


class Location(enum.Enum):
    AT_ZERO = "zero"
    AT_INFINITY = "infinity"


@dataclass(frozen=True)
class LogPowerTerm:
    """A single term a * x**alpha * log(x)**k."""

    coefficient: complex
    exponent: complex
    log_power: int = 0

    def __post_init__(self):
        if self.log_power < 0:
            raise ValueError("log_power must be >= 0")

    def evaluate(self, x: float) -> complex:
        lx = math.log(x)
        return self.coefficient * complex(x) ** self.exponent * lx**self.log_power


def _term_sort_key(location: Location):
    sgn = 1.0 if location is Location.AT_ZERO else -1.0

    def key(t: LogPowerTerm):
        return (sgn * t.exponent.real, t.exponent.imag, t.log_power)

    return key


@dataclass(frozen=True)
class AsymptoticExpansion:
    """A finite, sorted, deduplicated log-power expansion with remainder order.

    remainder_order is p at 0 (remainder O(x**p)) and q at infinity
    (remainder O(x**-q)).
    """

    location: Location
    terms: tuple[LogPowerTerm, ...]
    remainder_order: float

    def __post_init__(self):
        merged: dict[tuple[float, float, int], complex] = {}
        order: list[tuple[float, float, int]] = []
        for t in self.terms:
            key = None
            for k in merged:
                if (
                    abs(k[0] - t.exponent.real) <= EXPONENT_TOL
                    and abs(k[1] - t.exponent.imag) <= EXPONENT_TOL
                    and k[2] == t.log_power
                ):
                    key = k
                    break
            if key is None:
                key = (t.exponent.real, t.exponent.imag, t.log_power)
                order.append(key)
                merged[key] = t.coefficient
            else:
                merged[key] = merged[key] + t.coefficient
        out = [
            LogPowerTerm(c, complex(k[0], k[1]), k[2])
            for k, c in merged.items()
            if c != 0
        ]
        out.sort(key=_term_sort_key(self.location))
        for t in out:
            if self.location is Location.AT_ZERO:
                if t.exponent.real > self.remainder_order - 1 + 1e-9:
                    raise ValueError(
                        f"term exponent {t.exponent} violates Re alpha <= p-1 "
                        f"with p={self.remainder_order}"
                    )
            else:
                if t.exponent.real < -self.remainder_order - 1 - 1e-9:
                    raise ValueError(
                        f"term exponent {t.exponent} violates Re beta >= -q-1 "
                        f"with q={self.remainder_order}"
                    )
        object.__setattr__(self, "terms", tuple(out))

    # -- queries ---------------------------------------------------------

    def coefficient(self, exponent: complex, log_power: int) -> complex:
        """The stored coefficient of x**exponent * log**log_power (0 if absent)."""
        for t in self.terms:
            if (
                abs(t.exponent.real - complex(exponent).real) <= 1e-9
                and abs(t.exponent.imag - complex(exponent).imag) <= 1e-9
                and t.log_power == log_power
            ):
                return t.coefficient
        return 0.0

    def evaluate(self, x: float) -> complex:
        return sum((t.evaluate(x) for t in self.terms), 0.0 + 0.0j)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "location": self.location.value,
            "remainder_order": float(self.remainder_order),
            "terms": [
                {
                    "re_exp": t.exponent.real,
                    "im_exp": t.exponent.imag,
                    "log_pow": t.log_power,
                    "re_coef": complex(t.coefficient).real,
                    "im_coef": complex(t.coefficient).imag,
                }
                for t in self.terms
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "AsymptoticExpansion":
        loc = Location.AT_ZERO if d["location"] == "zero" else Location.AT_INFINITY
        terms = tuple(
            LogPowerTerm(
                complex(t["re_coef"], t.get("im_coef", 0.0)),
                complex(t["re_exp"], t.get("im_exp", 0.0)),
                int(t["log_pow"]),
            )
            for t in d["terms"]
        )
        return AsymptoticExpansion(loc, terms, float(d["remainder_order"]))


def empty_expansion(location: Location, remainder_order: float) -> AsymptoticExpansion:
    return AsymptoticExpansion(location, (), remainder_order)


@dataclass(frozen=True)
class Remainder:
    """f minus its stored terms at one endpoint; zero, or below the rounding of
    the stored terms, outside [lo, hi].

    lo >= hi means the remainder is identically zero.
    """

    evaluator: Callable[[float], complex]
    lo: float = 0.0
    hi: float = math.inf

    @property
    def vanishes(self) -> bool:
        return self.lo >= self.hi

    def __call__(self, x: float) -> complex:
        return self.evaluator(x) if self.lo <= x <= self.hi else 0.0


_ZERO_REMAINDER = Remainder(lambda x: 0.0, math.inf, 0.0)


def _sum_remainders(*rs: Remainder) -> Remainder:
    """The sum of remainders, supported on the hull of the supports."""
    live = [r for r in rs if not r.vanishes]
    if len(live) <= 1:
        return live[0] if live else _ZERO_REMAINDER
    return Remainder(lambda x: sum(r(x) for r in live),
                     min(r.lo for r in live), max(r.hi for r in live))


def _terms_remainder(terms: tuple[LogPowerTerm, ...]) -> Remainder:
    """Stored terms moved into the remainder (supported on all of (0, inf))."""
    if not terms:
        return _ZERO_REMAINDER
    return Remainder(lambda x: sum((t.evaluate(x) for t in terms), 0.0 + 0.0j))


@dataclass(frozen=True)
class ExpandableFunction:
    """A function on (0, infinity) together with its two endpoint expansions.

    `remainder_zero` and `remainder_infinity` are f minus the stored terms at
    each endpoint, each with the interval where it lives.  `differentiable`
    marks membership in the smooth-expansion subclass whose expansions may be
    differentiated termwise; `derivative` optionally supplies a closed-form
    derivative evaluator for it.
    """

    evaluator: Callable[[float], complex]
    expansion_at_zero: AsymptoticExpansion
    expansion_at_infinity: AsymptoticExpansion
    remainder_zero: Remainder
    remainder_infinity: Remainder
    differentiable: bool = False
    derivative: Optional[Callable[[float], complex]] = None

    def __post_init__(self):
        if self.expansion_at_zero.location is not Location.AT_ZERO:
            raise ValueError("expansion_at_zero has wrong location")
        if self.expansion_at_infinity.location is not Location.AT_INFINITY:
            raise ValueError("expansion_at_infinity has wrong location")

    def __call__(self, x: float) -> complex:
        return self.evaluator(x)

    @property
    def p(self) -> float:
        return self.expansion_at_zero.remainder_order

    @property
    def q(self) -> float:
        return self.expansion_at_infinity.remainder_order

    def remainder_at_zero(self, x: float) -> complex:
        return complex(self.remainder_zero(x))

    def remainder_at_infinity(self, x: float) -> complex:
        return complex(self.remainder_infinity(x))


def _minus_terms(v: complex, expansion: AsymptoticExpansion, x: float) -> complex:
    """v minus each stored term of `expansion` at x in turn (log x computed once)."""
    if expansion.terms:
        lx = math.log(x)
        for t in expansion.terms:
            v -= t.coefficient * complex(x) ** t.exponent * lx**t.log_power
    return v


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def evaluate_truncated(exp: AsymptoticExpansion, x: float) -> complex:
    """Sum of the stored terms coefficient * x**exponent * log(x)**log_power."""
    if x <= 0:
        raise ValueError("x must be positive")
    return exp.evaluate(x)


def _truncate(
    terms: Iterable[LogPowerTerm], location: Location, order: float
) -> tuple[AsymptoticExpansion, tuple[LogPowerTerm, ...]]:
    """The expansion of the terms a remainder of the stated order does not
    absorb, and the terms it does."""
    if location is Location.AT_ZERO:
        kept = lambda t: t.exponent.real <= order - 1 + 1e-9
    else:
        kept = lambda t: t.exponent.real >= -order - 1 - 1e-9
    terms = tuple(terms)
    return (AsymptoticExpansion(location, tuple(t for t in terms if kept(t)), order),
            tuple(t for t in terms if not kept(t)))


def _add(a: AsymptoticExpansion, b: AsymptoticExpansion):
    if a.location is not b.location:
        raise ValueError("cannot add expansions at different locations")
    return _truncate(a.terms + b.terms, a.location, min(a.remainder_order, b.remainder_order))


def add(a: AsymptoticExpansion, b: AsymptoticExpansion) -> AsymptoticExpansion:
    """Termwise merge; remainder order is the weaker (minimum) of the two.

    Terms of the finer summand beyond the weaker order are absorbed into the
    remainder.
    """
    return _add(a, b)[0]


def add_functions(f: ExpandableFunction, g: ExpandableFunction) -> ExpandableFunction:
    """f + g; the remainders add, together with the terms `add` absorbs."""
    fe, ge = f.evaluator, g.evaluator
    deriv = None
    if f.derivative is not None and g.derivative is not None:
        fd, gd = f.derivative, g.derivative
        deriv = lambda x: fd(x) + gd(x)
    e0, absorbed0 = _add(f.expansion_at_zero, g.expansion_at_zero)
    ei, absorbed_i = _add(f.expansion_at_infinity, g.expansion_at_infinity)
    return ExpandableFunction(
        lambda x: fe(x) + ge(x),
        e0,
        ei,
        _sum_remainders(f.remainder_zero, g.remainder_zero, _terms_remainder(absorbed0)),
        _sum_remainders(f.remainder_infinity, g.remainder_infinity, _terms_remainder(absorbed_i)),
        differentiable=f.differentiable and g.differentiable,
        derivative=deriv,
    )


def _transformed(r: Remainder, fn: Callable[[float], complex],
                 to_x: Callable[[float], float] = lambda u: u) -> Remainder:
    """The remainder fn(x) on the image of r's support under the monotone map
    to_x (a zero r stays zero)."""
    if r.vanishes:
        return _ZERO_REMAINDER
    return Remainder(fn, *sorted((to_x(r.lo), to_x(r.hi))))


def scale_function(f: ExpandableFunction, c: complex) -> ExpandableFunction:
    """c f, with the remainders scaled."""
    fe = f.evaluator
    fd = f.derivative

    def scale_exp(e: AsymptoticExpansion) -> AsymptoticExpansion:
        return AsymptoticExpansion(
            e.location,
            tuple(replace(t, coefficient=c * t.coefficient) for t in e.terms),
            e.remainder_order,
        )

    def scale_rem(r: Remainder) -> Remainder:
        re = r.evaluator
        return _transformed(r, lambda x: c * re(x))

    return ExpandableFunction(
        lambda x: c * fe(x),
        scale_exp(f.expansion_at_zero),
        scale_exp(f.expansion_at_infinity),
        scale_rem(f.remainder_zero),
        scale_rem(f.remainder_infinity),
        differentiable=f.differentiable,
        derivative=(None if fd is None else (lambda x: c * fd(x))),
    )


def substitute_power(f: ExpandableFunction, sigma: float) -> ExpandableFunction:
    """g(x) = f(x**sigma).

    Each term a x**alpha log**k maps to a*sigma**k x**(sigma*alpha) log**k,
    exactly, so the remainders are r(x**sigma) on the preimages of their
    supports; for sigma < 0 the endpoints swap roles.
    """
    if sigma == 0:
        raise ValueError("sigma must be nonzero")
    fe = f.evaluator

    def root(u: float) -> float:
        return math.inf if u == 0 and sigma < 0 else u ** (1.0 / sigma)

    def side(location: Location, e: AsymptoticExpansion, r: Remainder):
        terms = tuple(
            LogPowerTerm(t.coefficient * sigma**t.log_power, sigma * t.exponent, t.log_power)
            for t in e.terms
        )
        re = r.evaluator
        return (AsymptoticExpansion(location, terms, abs(sigma) * e.remainder_order),
                _transformed(r, lambda x: re(x**sigma), root))

    zero = (f.expansion_at_zero, f.remainder_zero)
    infinity = (f.expansion_at_infinity, f.remainder_infinity)
    if sigma < 0:
        zero, infinity = infinity, zero
    e0, r0 = side(Location.AT_ZERO, *zero)
    ei, ri = side(Location.AT_INFINITY, *infinity)
    return ExpandableFunction(lambda x: fe(x**sigma), e0, ei, r0, ri,
                              differentiable=f.differentiable)


def _differentiate_expansion(e: AsymptoticExpansion) -> AsymptoticExpansion:
    out: list[LogPowerTerm] = []
    for t in e.terms:
        if t.coefficient * t.exponent != 0:
            out.append(LogPowerTerm(t.coefficient * t.exponent, t.exponent - 1, t.log_power))
        if t.log_power >= 1:
            out.append(
                LogPowerTerm(t.coefficient * t.log_power, t.exponent - 1, t.log_power - 1)
            )
    return AsymptoticExpansion(e.location, tuple(out), e.remainder_order - 1)


def differentiate(f: ExpandableFunction) -> ExpandableFunction:
    """Termwise derivative of a function carrying the smoothness certificate.

    The remainders are the derivative minus its terms, on the operand's
    remainder supports.
    """
    if not f.differentiable:
        raise ValueError("function is not marked differentiable")
    if f.derivative is not None:
        ev = f.derivative
    else:
        fe = f.evaluator

        def ev(x: float) -> complex:
            h = 1e-6 * max(x, 1e-3)
            return (fe(x + h) - fe(x - h)) / (2 * h)

    def side(e: AsymptoticExpansion, r: Remainder):
        de = _differentiate_expansion(e)
        return de, _transformed(r, lambda x: _minus_terms(complex(ev(x)), de, x))

    e0, r0 = side(f.expansion_at_zero, f.remainder_zero)
    ei, ri = side(f.expansion_at_infinity, f.remainder_infinity)
    return ExpandableFunction(ev, e0, ei, r0, ri, differentiable=True)


def fuchs_derivative(f: ExpandableFunction) -> ExpandableFunction:
    """Df = -x f'(x), the degenerate derivative adapted to the cone axis."""
    return replace(scale_function(times_monomial(differentiate(f), 1), -1),
                   differentiable=True)


def _times_monomial(e: AsymptoticExpansion, beta: complex, k: int):
    terms = tuple(
        LogPowerTerm(t.coefficient, t.exponent + beta, t.log_power + k)
        for t in e.terms
    )
    sgn = 1.0 if e.location is Location.AT_ZERO else -1.0
    # a log factor costs an epsilon of order at the endpoint
    new_order = e.remainder_order + sgn * complex(beta).real - (0.25 if k > 0 else 0.0)
    return _truncate(terms, e.location, new_order)


def times_monomial(f: ExpandableFunction, beta: complex, k: int = 0) -> ExpandableFunction:
    """x |-> x**beta * log(x)**k * f(x), expansions shifted exactly.

    The remainders take the same factor, as the stored terms' complex power,
    plus the shifted terms the new remainder order absorbs.
    """
    fe = f.evaluator
    b = complex(beta)

    def ev(x: float) -> complex:
        return x**b * math.log(x) ** k * fe(x)

    def side(e: AsymptoticExpansion, r: Remainder):
        shifted, absorbed = _times_monomial(e, b, k)
        re = r.evaluator
        carried = _transformed(r, lambda x: complex(x) ** b * math.log(x) ** k * re(x))
        return shifted, _sum_remainders(carried, _terms_remainder(absorbed))

    e0, r0 = side(f.expansion_at_zero, f.remainder_zero)
    ei, ri = side(f.expansion_at_infinity, f.remainder_infinity)
    return ExpandableFunction(ev, e0, ei, r0, ri)


def rescale_argument(f: ExpandableFunction, lam: float) -> ExpandableFunction:
    """x |-> f(lam * x) with the expansions rewritten in log x.

    a (lam x)**alpha log**k(lam x) expands binomially over
    log(lam x) = log lam + log x, exactly, so the remainders are r(lam x) on
    their supports divided by lam.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    fe = f.evaluator
    ll = math.log(lam)

    def transform(e: AsymptoticExpansion) -> AsymptoticExpansion:
        out = []
        for t in e.terms:
            base = t.coefficient * complex(lam) ** t.exponent
            for j in range(t.log_power + 1):
                out.append(
                    LogPowerTerm(
                        base * math.comb(t.log_power, j) * ll ** (t.log_power - j),
                        t.exponent,
                        j,
                    )
                )
        return AsymptoticExpansion(e.location, tuple(out), e.remainder_order)

    def rescale_rem(r: Remainder) -> Remainder:
        re = r.evaluator
        return _transformed(r, lambda x: re(lam * x), lambda u: u / lam)

    return ExpandableFunction(
        lambda x: fe(lam * x),
        transform(f.expansion_at_zero),
        transform(f.expansion_at_infinity),
        rescale_rem(f.remainder_zero),
        rescale_rem(f.remainder_infinity),
        differentiable=f.differentiable,
    )


# ---------------------------------------------------------------------------
# Certification and convenience constructors
# ---------------------------------------------------------------------------


def certify_remainder(
    f: ExpandableFunction,
    location: Location,
    lo: float = 1e-6,
    hi: float = 1e-1,
    n: int = 50,
) -> float:
    """Empirical sup of |remainder| / x**(+-order) on a log-spaced grid.

    The certificate assumes the remainder is continuous on the sampled range;
    a finite return value is the stored constant of the membership invariant.
    """
    import numpy as np

    xs = np.logspace(math.log10(lo), math.log10(hi), n)
    sup = 0.0
    for x in xs:
        x = float(x)
        if location is Location.AT_ZERO:
            r = abs(f.remainder_at_zero(x)) / x**f.p
        else:
            xi = 1.0 / x
            r = abs(f.remainder_at_infinity(xi)) / xi ** (-f.q)
        sup = max(sup, r)
    return sup


def global_monomial(alpha: complex, k: int = 0, order_margin: float = 8.0) -> ExpandableFunction:
    """x**alpha * log(x)**k on all of (0, infinity); both expansions exact."""
    a = complex(alpha)

    def ev(x: float) -> complex:
        return x**a * math.log(x) ** k

    pz = a.real + 1 + order_margin
    qi = -a.real - 1 + order_margin
    term = (LogPowerTerm(1.0, a, k),)
    return ExpandableFunction(
        ev,
        AsymptoticExpansion(Location.AT_ZERO, term, pz),
        AsymptoticExpansion(Location.AT_INFINITY, term, qi),
        _ZERO_REMAINDER,
        _ZERO_REMAINDER,
    )


def monomial_restricted(
    alpha: complex, k: int = 0, support: str = "unit_interval", order_margin: float = 8.0
) -> ExpandableFunction:
    """x**alpha log**k x on [0,1] (support="unit_interval") or [1,inf).

    The remainder is minus the monomial beyond 1 at the end the support
    reaches, and the function itself at the other end.
    """
    a = complex(alpha)
    term = (LogPowerTerm(1.0, a, k),)
    if support == "unit_interval":
        def ev(x: float) -> complex:
            return x**a * math.log(x) ** k if x <= 1.0 else 0.0
        e0 = AsymptoticExpansion(Location.AT_ZERO, term, a.real + 1 + order_margin)
        ei = empty_expansion(Location.AT_INFINITY, 40.0)
        r0 = Remainder(lambda x: -(x**a) * math.log(x) ** k if x > 1.0 else 0.0, 1.0)
        ri = Remainder(ev, 0.0, 1.0)
    elif support == "unit_tail":
        def ev(x: float) -> complex:
            return x**a * math.log(x) ** k if x >= 1.0 else 0.0
        e0 = empty_expansion(Location.AT_ZERO, 40.0)
        ei = AsymptoticExpansion(Location.AT_INFINITY, term, -a.real - 1 + order_margin)
        r0 = Remainder(ev, 1.0)
        ri = Remainder(lambda x: -(x**a) * math.log(x) ** k if x < 1.0 else 0.0, 0.0, 1.0)
    else:
        raise ValueError("support must be 'unit_interval' or 'unit_tail'")
    return ExpandableFunction(ev, e0, ei, r0, ri)


def _taylor_leaf(f: Callable[[float], float], terms: tuple[LogPowerTerm, ...], order: float,
                 derivative: Optional[Callable[[float], float]]) -> ExpandableFunction:
    """f with Taylor terms of remainder order `order` at 0 and an empty
    expansion at infinity, differentiable when a derivative is given.

    The zero-side remainder is f minus the terms on [x0, inf) and 0 below
    x0, where the first omitted order falls under rounding:
    |c_last| x0**p = 2**-52 |c_first| x0**alpha_first.  For e^-x and e^-x^2
    it is an alternating series bounded by its first term, so below x0 it is
    under one ulp of the first term.  The remainder at infinity is f.
    """
    e0 = AsymptoticExpansion(Location.AT_ZERO, terms, order)
    x0 = 0.0
    if e0.terms:
        first, last = e0.terms[0], e0.terms[-1]
        x0 = (2.0**-52 * abs(first.coefficient) / abs(last.coefficient)) ** (
            1.0 / (order - first.exponent.real))
    return ExpandableFunction(
        f,
        e0,
        empty_expansion(Location.AT_INFINITY, 40.0),
        Remainder(lambda x: _minus_terms(complex(f(x)), e0, x), x0),
        Remainder(f),
        differentiable=derivative is not None,
        derivative=derivative,
    )


def exponential_decay(taylor_order: int = 12) -> ExpandableFunction:
    """e^{-x} with its Taylor expansion at 0 and empty expansion at infinity."""
    terms = tuple(
        LogPowerTerm((-1.0) ** j / math.factorial(j), float(j), 0)
        for j in range(taylor_order)
    )
    return _taylor_leaf(lambda x: math.exp(-x), terms, float(taylor_order),
                        lambda x: -math.exp(-x))


def gaussian_decay(taylor_order: int = 12) -> ExpandableFunction:
    """e^{-x^2} with its Taylor expansion at 0."""
    terms = tuple(
        LogPowerTerm((-1.0) ** m / math.factorial(m), float(2 * m), 0)
        for m in range(taylor_order // 2 + 1)
    )
    return _taylor_leaf(lambda x: math.exp(-(x**2)), terms, float(2 * (taylor_order // 2) + 2),
                        lambda x: -2 * x * math.exp(-(x**2)))


def smooth_cutoff(x: float) -> float:
    """Smooth decreasing cutoff: 1 for x <= 1, 0 for x >= 2."""
    if x <= 1.0:
        return 1.0
    if x >= 2.0:
        return 0.0
    u = x - 1.0
    g1 = math.exp(-1.0 / u)
    g2 = math.exp(-1.0 / (1.0 - u))
    return g2 / (g1 + g2)


def smooth_step_up(x: float) -> float:
    """Smooth increasing step: 0 for x <= 1/2, 1 for x >= 1."""
    if x <= 0.5:
        return 0.0
    if x >= 1.0:
        return 1.0
    u = 2.0 * (x - 0.5)
    g1 = math.exp(-1.0 / u)
    g2 = math.exp(-1.0 / (1.0 - u))
    return g1 / (g1 + g2)


def cutoff_times_monomial(alpha: complex, k: int = 0) -> ExpandableFunction:
    """phi(x) * x**alpha * log(x)**k with phi = smooth_cutoff (so ==1 near 0).

    The remainder at 0, (phi - 1) x**alpha log**k x, vanishes on (0, 1]; the
    one at infinity, f itself, on [2, inf).
    """
    a = complex(alpha)

    def ev(x: float) -> complex:
        c = smooth_cutoff(x)
        return c * x**a * math.log(x) ** k if c != 0.0 else 0.0

    term = (LogPowerTerm(1.0, a, k),)
    return ExpandableFunction(
        ev,
        AsymptoticExpansion(Location.AT_ZERO, term, a.real + 1 + 8.0),
        empty_expansion(Location.AT_INFINITY, 40.0),
        Remainder(lambda x: (smooth_cutoff(x) - 1.0) * x**a * math.log(x) ** k, 1.0),
        Remainder(ev, 0.0, 2.0),
    )


def tail_times_monomial(alpha: complex, k: int = 0) -> ExpandableFunction:
    """psi(x) * x**alpha * log(x)**k with psi = smooth_step_up (==1 for x>=1).

    The remainder at 0, f itself, vanishes on (0, 1/2]; the one at infinity,
    (psi - 1) x**alpha log**k x, on [1, inf).
    """
    a = complex(alpha)

    def ev(x: float) -> complex:
        c = smooth_step_up(x)
        return c * x**a * math.log(x) ** k if c != 0.0 else 0.0

    term = (LogPowerTerm(1.0, a, k),)
    return ExpandableFunction(
        ev,
        empty_expansion(Location.AT_ZERO, 40.0),
        AsymptoticExpansion(Location.AT_INFINITY, term, -a.real - 1 + 8.0),
        Remainder(ev, 0.5),
        Remainder(lambda x: (smooth_step_up(x) - 1.0) * x**a * math.log(x) ** k, 0.0, 1.0),
    )
