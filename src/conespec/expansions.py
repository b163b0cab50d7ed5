"""Log-power asymptotic expansions at 0 and infinity.

Data model for functions f on (0, infinity) that admit finite expansions

    f(x) = sum_j a_j * x**alpha_j * log(x)**k_j  +  remainder

near an endpoint, with the remainder certified to be O(x**p) at 0 (resp.
O(x**-q) at infinity).  All values are immutable after construction; the
evaluator callables are expected to be pure.

Every evaluator maps a flat float array to an array of values, so that one
call evaluates a whole batch of points.  Calling a function or a remainder
on an array evaluates it as one batch, and on a scalar as a batch of one,
which gives the same value bit for bit as in any batch.  A remainder's
evaluator sees only the points of its support, and the leaves mask what
would overflow or divide by 0 outside their own (exp(-1/u) in the cutoffs).

Every function states its remainder at either endpoint as data: an evaluator
and the interval outside which it vanishes (empty for a function that is
exactly its expansion, such as a global monomial).  The monomial and cutoff
leaves state theirs in closed form.  The Taylor leaves (e^-x, e^-x^2 and
sal's test functions) subtract their terms only above the point x0 where
the first omitted order falls under the rounding of the first term, and are
0 below it.  The algebra (sum, scaling, monomial factor, dilation, power
substitution) builds the remainder of its result from its operands', so no
subtraction f - sum of terms reaches down to 0.

A function has a derivative exactly when it states one, as an expandable
function built on demand; `differentiate` refuses a function that states
none, and no derivative is approximated.  The leaves state theirs in closed
form: e^-x and e^-x^2 the termwise derivative of their Taylor terms, with
values (-1)**n e^-x and (-1)**n H_n(x) e^-x^2; the global monomial
a x**(a-1) log**k x + k x**(a-1) log**(k-1) x; the cutoff and step leaves
the product rule, whose slope term, from the closed form of exp(-1/u), is a
compactly supported leaf that states no derivative of its own.
`monomial_restricted` (it jumps at 1) and sal's test functions (known by
their values only) state none.  The algebra builds each derivative out of
itself: sum, scaling, the chain rule for dilation and power substitution,
and the product rule for a monomial factor.

A function may state its Mellin transform Mf(z) = integral_0^inf x^(z-1)
f(x) dx in closed form, continued to its strip, the way it states its
derivative; `mellin` then takes the value there instead of the term sum
and the remainder quadrature.  e^-x states Gamma(z) and e^-x^2
Gamma(z/2)/2 (DLMF 5.2.1), each derivative of theirs
M[f'](z) = -(z-1) Mf(z-1), the global monomial 0, and the monomial
restricted to [0,1] or [1,inf) +-(-1)^k k!/w^(k+1), w = z + alpha.  The
cutoff and step leaves and their compactly supported slopes state theirs
through one fixed Gauss-Legendre rule on the transition interval, (1, 2)
or (1/2, 1): z -> sum_i c_i x_i^(z-1), with the weights times the leaf's
values c_i computed once per leaf, on first use.  A slope's transform is
that integral, which is entire; a cutoff's or step's is the continued
integral of the monomial over the step's plateau, or over the hull of its
support, plus or minus the rule's integral of the step, or of one minus it
(see `_step_mellin`).  Past |Im z| = 50 the rule states no value (nan).
The algebra carries it: c Mf for a scaling, Mf + Mg for a sum of two that
state one (no value where the two cancel to under 2^-10 of their size, as
they do near a pole the sum cancels), lam^-z Mf(z) for a dilation,
Mf(z+beta) for a factor x^beta (none with a log factor) and
Mf(z/sigma)/|sigma| for x -> x^sigma.  sal's test functions state none.
For a float z and real coefficients the value is a float, from the real
Gamma, the real monomial block and the real rule; otherwise it is
exp(log Gamma) and exp(-z log lam).
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np
from scipy.special import gamma, loggamma

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

    def evaluate(self, x):
        """The term at x > 0, a float or an array."""
        return _term_value(self, x, np.log(x))


def _term_value(t: LogPowerTerm, x, lx):
    """a x**alpha log(x)**k, with log x given."""
    v = t.coefficient * np.power(x, t.exponent)
    return v * lx**t.log_power if t.log_power else v


def _terms_sum(terms: tuple[LogPowerTerm, ...], x):
    """The sum of the terms at x, added in turn (log x computed once)."""
    lx = np.log(x) if any(t.log_power for t in terms) else None
    total = 0.0 + 0.0j
    for t in terms:
        total = total + _term_value(t, x, lx)
    return total


def _monomial(x, a: complex, k: int):
    """x**a log(x)**k."""
    v = np.power(x, a)
    return v * np.log(x) ** k if k else v


def _term_sort_key(location: Location):
    sgn = 1.0 if location is Location.AT_ZERO else -1.0

    def key(t: LogPowerTerm):
        return (sgn * t.exponent.real, t.exponent.imag, t.log_power)

    return key


def _merge_keys(terms: tuple[LogPowerTerm, ...]) -> list[tuple[tuple[float, float, int], complex]]:
    """(key, summed coefficient) per key (Re alpha, Im alpha, k), in the order
    the keys first appear.  A term joins the first key of its log power whose
    real and imaginary parts both lie within EXPONENT_TOL of its exponent's,
    and else starts a key of its own: a scan over the keys found so far, as
    an expansion of the calculus holds a few dozen terms at most."""
    found: list[tuple[float, float, int]] = []
    coefficients: list = []
    for t in terms:
        re, im, k = t.exponent.real, t.exponent.imag, t.log_power
        for i, (fre, fim, fk) in enumerate(found):
            if fk == k and abs(fre - re) <= EXPONENT_TOL and abs(fim - im) <= EXPONENT_TOL:
                coefficients[i] = coefficients[i] + t.coefficient
                break
        else:
            found.append((re, im, k))
            coefficients.append(t.coefficient)
    return list(zip(found, coefficients))


def _outside(t: LogPowerTerm, location: Location, order: float) -> bool:
    """Whether a remainder of the stated order cannot hold the term's exponent:
    Re alpha > p - 1 at 0, Re beta < -q - 1 at infinity (1e-9 of slack)."""
    if location is Location.AT_ZERO:
        return t.exponent.real > order - 1 + 1e-9
    return t.exponent.real < -order - 1 - 1e-9


def _normal_form(terms: tuple[LogPowerTerm, ...], location: Location, order: float
                 ) -> tuple[LogPowerTerm, ...]:
    """The terms merged by key (see _merge_keys), without zero coefficients,
    with complex exponents, and sorted by (sgn Re alpha, Im alpha, k), sgn = 1
    at 0 and -1 at infinity; ValueError for a term outside the order."""
    out = [
        LogPowerTerm(c, complex(k[0], k[1]), k[2])
        for k, c in _merge_keys(terms)
        if c != 0
    ]
    out.sort(key=_term_sort_key(location))
    for t in out:
        if _outside(t, location, order):
            bound = "alpha <= p-1 with p" if location is Location.AT_ZERO else "beta >= -q-1 with q"
            raise ValueError(f"term exponent {t.exponent} violates Re {bound}={order}")
    return tuple(out)


def _is_normal(terms: tuple[LogPowerTerm, ...], location: Location, order: float) -> bool:
    """Whether _normal_form returns the terms as they are, by one pass: every
    exponent is a complex and every coefficient non-zero, the keys
    (sgn Re alpha, Im alpha, k) rise strictly, two neighbours lie more than
    2 EXPONENT_TOL apart in Re alpha or share their exponent, and the last
    term lies inside the order.  Then no two terms of one log power lie
    within EXPONENT_TOL of each other, so none merge, and the sort keeps the
    order."""
    sgn = 1.0 if location is Location.AT_ZERO else -1.0
    prev = prev_exponent = None
    for t in terms:
        e = t.exponent
        if type(e) is not complex or t.coefficient == 0:
            return False
        key = (sgn * e.real, e.imag, t.log_power)
        if prev is not None and not (prev < key and (key[0] - prev[0] > 2.0 * EXPONENT_TOL
                                                     or e == prev_exponent)):
            return False
        prev, prev_exponent = key, e
    return prev is None or not _outside(terms[-1], location, order)


@dataclass(frozen=True)
class AsymptoticExpansion:
    """A finite, sorted, deduplicated log-power expansion with remainder order.

    remainder_order is p at 0 (remainder O(x**p)) and q at infinity
    (remainder O(x**-q)).

    The terms are kept in normal form: complex exponents and non-zero
    coefficients, terms of one log power within EXPONENT_TOL of each other
    merged into the first, keys (sgn Re alpha, Im alpha, k) strictly rising
    (sgn = 1 at 0 and -1 at infinity), and every term inside the remainder
    order (Re alpha <= p - 1 at 0, Re beta >= -q - 1 at infinity), else
    ValueError.  Terms that are already in normal form, with neighbours more
    than 2 EXPONENT_TOL apart in Re alpha or sharing their exponent, are
    kept as given after one linear check; any others are normalised.
    """

    location: Location
    terms: tuple[LogPowerTerm, ...]
    remainder_order: float

    def __post_init__(self):
        terms = self.terms if type(self.terms) is tuple else tuple(self.terms)
        if not _is_normal(terms, self.location, self.remainder_order):
            terms = _normal_form(terms, self.location, self.remainder_order)
        object.__setattr__(self, "terms", terms)

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

    def evaluate(self, x):
        """Sum of the stored terms at x > 0, a float or an array."""
        if np.any(np.asarray(x) <= 0):
            raise ValueError("x must be positive")
        return _terms_sum(self.terms, x)


def empty_expansion(location: Location, remainder_order: float) -> AsymptoticExpansion:
    return AsymptoticExpansion(location, (), remainder_order)


# Remainder order of the leaves' empty expansions (a function that vanishes
# near the endpoint, or a Taylor leaf at infinity).
_EMPTY_ORDER = 40.0

# How far past its exponent a monomial leaf declares its remainder order:
# Re alpha + 1 + _ORDER_MARGIN at 0 and -Re alpha - 1 + _ORDER_MARGIN at
# infinity, where its expansion is exact.
_ORDER_MARGIN = 8.0

# The least size of a sum of two stated Mellin transforms against the sum
# of their sizes, 2^-10: a sum that cancels more than 10 bits states no
# value at that point (see `_mellin_sum`).
_CANCELLATION = 2.0**-10

# The fixed Gauss-Legendre rule that states the Mellin transform over a
# transition interval (see `_rule_mellin`), and the |Im z| past which it
# states none: x^(i Im z) turns up to 5.5 times over (1, 2) at 50.  Against
# mpmath at |Im w| <= 50, the cutoff and step transforms with log power
# k <= 6 meet 2e-13 relative with 128 nodes, where 80 reach 1.4e-12 (k = 4).
_RULE_NODES = 128
_RULE_MAX_IM = 50.0


def _batch(fn: Callable[[np.ndarray], np.ndarray], x):
    """fn on x as a flat float array, shaped like x: a complex array, or a
    complex for a scalar x, which is evaluated as a batch of one so that it
    is bit for bit the same as in any batch."""
    xs = np.asarray(x, dtype=float)
    out = np.asarray(fn(xs.reshape(-1)), dtype=complex).reshape(xs.shape)
    return complex(out) if out.ndim == 0 else out


def _where(x: np.ndarray, mask: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]
           ) -> np.ndarray:
    """fn(x) where mask holds and 0 elsewhere; fn sees the masked points only."""
    out = np.zeros(x.shape, dtype=complex)
    if mask.any():
        out[mask] = fn(x[mask])
    return out


@dataclass(frozen=True)
class Remainder:
    """f minus its stored terms at one endpoint; zero, or below the rounding of
    the stored terms, outside [lo, hi].

    The evaluator maps a float array of points in [lo, hi] to an array of
    values.  lo >= hi means the remainder is identically zero.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    lo: float = 0.0
    hi: float = math.inf

    @property
    def vanishes(self) -> bool:
        return self.lo >= self.hi

    def _masked(self, x: np.ndarray) -> np.ndarray:
        return _where(x, (self.lo <= x) & (x <= self.hi), self.evaluator)

    def __call__(self, x):
        """The remainder at x, a float or an array; 0 outside [lo, hi], where
        the evaluator is not called."""
        return _batch(self._masked, x)


_ZERO_REMAINDER = Remainder(lambda x: np.zeros(x.shape, dtype=complex), math.inf, 0.0)


def _sum_remainders(*rs: Remainder) -> Remainder:
    """The sum of remainders, supported on the hull of the supports."""
    live = [r for r in rs if not r.vanishes]
    if len(live) <= 1:
        return live[0] if live else _ZERO_REMAINDER
    return Remainder(lambda x: sum(r._masked(x) for r in live),
                     min(r.lo for r in live), max(r.hi for r in live))


def _terms_remainder(terms: tuple[LogPowerTerm, ...]) -> Remainder:
    """Stored terms moved into the remainder (supported on all of (0, inf))."""
    if not terms:
        return _ZERO_REMAINDER
    return Remainder(lambda x: _terms_sum(terms, x))


@dataclass(frozen=True)
class ExpandableFunction:
    """A function on (0, infinity) together with its two endpoint expansions.

    `remainder_zero` and `remainder_infinity` are f minus the stored terms at
    each endpoint, each with the interval where it lives.  `derivative`, when
    the function states one, builds f' as an ExpandableFunction; it is
    called on demand, since a chain of derivatives (e^-x's) need not end.
    `differentiate` refuses a function that states none.  `mellin`, when
    the function states it, is its Mellin transform in closed form, the
    continuation of Mf to the strip 1 - p < Re z < 1 + q (see the module
    docstring).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    expansion_at_zero: AsymptoticExpansion
    expansion_at_infinity: AsymptoticExpansion
    remainder_zero: Remainder
    remainder_infinity: Remainder
    derivative: Optional[Callable[[], "ExpandableFunction"]] = None
    mellin: Optional[Callable[[complex], complex]] = None

    def __post_init__(self):
        if self.expansion_at_zero.location is not Location.AT_ZERO:
            raise ValueError("expansion_at_zero has wrong location")
        if self.expansion_at_infinity.location is not Location.AT_INFINITY:
            raise ValueError("expansion_at_infinity has wrong location")

    def __call__(self, x):
        """f at x, a float or an array."""
        return _batch(self.evaluator, x)

    @property
    def p(self) -> float:
        return self.expansion_at_zero.remainder_order

    @property
    def q(self) -> float:
        return self.expansion_at_infinity.remainder_order


def _minus_terms(v: np.ndarray, expansion: AsymptoticExpansion, x: np.ndarray) -> np.ndarray:
    """v minus each stored term of `expansion` at x in turn, as one block of
    (terms x points) values under v: one complex power and one product with
    the coefficients for all terms, a log factor on the rows with k > 0 (log
    x computed once), and one subtract.reduce down the rows.  The reduce is a
    left fold in term order, so each value is bit for bit v - t_1 - t_2 ...
    """
    terms = expansion.terms
    if not terms:
        return v
    block = np.empty((len(terms) + 1, x.size), dtype=complex)
    block[0] = v
    rows = block[1:]
    np.power(x, np.array([t.exponent for t in terms])[:, None], out=rows)
    # coefficient times power, in that order: numpy's complex product need
    # not commute bit for bit
    np.multiply(np.array([t.coefficient for t in terms], dtype=complex)[:, None], rows, out=rows)
    if any(t.log_power for t in terms):
        lx = np.log(x)
        for row, t in zip(rows, terms):
            if t.log_power:
                row *= lx**t.log_power
    return np.subtract.reduce(block, axis=0)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


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


def differentiate(f: ExpandableFunction) -> ExpandableFunction:
    """f', as f states it; ValueError when f states no derivative."""
    if f.derivative is None:
        raise ValueError("function states no derivative")
    return f.derivative()


def _if_all(rule: Callable, attr: str, *operands: ExpandableFunction) -> Optional[Callable]:
    """A result's `attr` (its derivative or its Mellin transform), `rule`,
    when every operand states its own."""
    return rule if all(getattr(g, attr) is not None for g in operands) else None


def _mellin_sum(f: ExpandableFunction, g: ExpandableFunction) -> Callable[[complex], complex]:
    """M_f + M_g, nan where the two cancel to under _CANCELLATION of their
    size, so that the sum keeps its digits: near a pole the sum cancels,
    each part is about r/(z - pole), and so is its rounding.  `mellin`
    takes the term sum and quadrature wherever the value is not finite."""
    def mellin(z):
        a, b = f.mellin(z), g.mellin(z)
        return a + b if abs(a + b) >= _CANCELLATION * (abs(a) + abs(b)) else math.nan

    return mellin


def _real(c: complex):
    """c as a float when its imaginary part is 0, so that a real closed form
    stays real."""
    c = complex(c)
    return c.real if c.imag == 0 else c


def _gamma(z):
    """Gamma(z) off its poles: the real Gamma for a float z, exp(log Gamma z)
    for a complex one."""
    if isinstance(z, complex):
        return cmath.exp(complex(loggamma(z)))
    return float(gamma(z))


def add_functions(f: ExpandableFunction, g: ExpandableFunction) -> ExpandableFunction:
    """f + g; the remainders add, together with the terms `add` absorbs."""
    fe, ge = f.evaluator, g.evaluator
    e0, absorbed0 = _add(f.expansion_at_zero, g.expansion_at_zero)
    ei, absorbed_i = _add(f.expansion_at_infinity, g.expansion_at_infinity)
    return ExpandableFunction(
        lambda x: fe(x) + ge(x),
        e0,
        ei,
        _sum_remainders(f.remainder_zero, g.remainder_zero, _terms_remainder(absorbed0)),
        _sum_remainders(f.remainder_infinity, g.remainder_infinity, _terms_remainder(absorbed_i)),
        _if_all(lambda: add_functions(differentiate(f), differentiate(g)), "derivative", f, g),
        _if_all(_mellin_sum(f, g), "mellin", f, g),
    )


def _transformed(r: Remainder, fn: Callable[[np.ndarray], np.ndarray],
                 to_x: Callable[[float], float] = lambda u: u) -> Remainder:
    """The remainder fn(x) on the image of r's support under the monotone map
    to_x (a zero r stays zero)."""
    if r.vanishes:
        return _ZERO_REMAINDER
    return Remainder(fn, *sorted((to_x(r.lo), to_x(r.hi))))


def scale_function(f: ExpandableFunction, c: complex) -> ExpandableFunction:
    """c f, with the remainders scaled."""
    fe, cm = f.evaluator, _real(c)

    def scale_exp(e: AsymptoticExpansion) -> AsymptoticExpansion:
        return AsymptoticExpansion(
            e.location,
            tuple(LogPowerTerm(c * t.coefficient, t.exponent, t.log_power) for t in e.terms),
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
        _if_all(lambda: scale_function(differentiate(f), c), "derivative", f),
        _if_all(lambda z: cm * f.mellin(z), "mellin", f),
    )


def substitute_power(f: ExpandableFunction, sigma: float) -> ExpandableFunction:
    """g(x) = f(x**sigma).

    Each term a x**alpha log**k maps to a*sigma**k x**(sigma*alpha) log**k,
    exactly, so the remainders are r(x**sigma) on the preimages of their
    supports, plus the mapped terms that the order |sigma| p (or |sigma| q)
    absorbs; for sigma < 0 the endpoints swap roles.  The derivative is the
    chain rule, sigma x**(sigma-1) f'(x**sigma), and the Mellin transform
    Mf(z/sigma)/|sigma|.
    """
    if sigma == 0:
        raise ValueError("sigma must be nonzero")
    fe = f.evaluator

    def root(u: float) -> float:
        return math.inf if u == 0 and sigma < 0 else u ** (1.0 / sigma)

    def side(location: Location, e: AsymptoticExpansion, r: Remainder):
        expansion, absorbed = _truncate(
            (LogPowerTerm(t.coefficient * sigma**t.log_power, sigma * t.exponent, t.log_power)
             for t in e.terms),
            location, abs(sigma) * e.remainder_order)
        re = r.evaluator
        return expansion, _sum_remainders(_transformed(r, lambda x: re(x**sigma), root),
                                          _terms_remainder(absorbed))

    zero = (f.expansion_at_zero, f.remainder_zero)
    infinity = (f.expansion_at_infinity, f.remainder_infinity)
    if sigma < 0:
        zero, infinity = infinity, zero
    e0, r0 = side(Location.AT_ZERO, *zero)
    ei, ri = side(Location.AT_INFINITY, *infinity)
    return ExpandableFunction(
        lambda x: fe(x**sigma), e0, ei, r0, ri,
        _if_all(lambda: scale_function(
            times_monomial(substitute_power(differentiate(f), sigma), sigma - 1), sigma),
            "derivative", f),
        _if_all(lambda z: f.mellin(z / sigma) / abs(sigma), "mellin", f),
    )


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


def fuchs_derivative(f: ExpandableFunction) -> ExpandableFunction:
    """Df = -x f'(x), the degenerate derivative adapted to the cone axis."""
    return scale_function(times_monomial(differentiate(f), 1), -1)


def _monomial_rule(d: ExpandableFunction, times: Callable[[complex, int], ExpandableFunction],
                   a: complex, k: int) -> ExpandableFunction:
    """d plus the derivative of the factor x**a log(x)**k of times(a, k),
    a times(a-1, k) + k times(a-1, k-1), without the terms whose factor is 0
    and without a scaling by 1."""
    def scaled(g: ExpandableFunction, c: complex) -> ExpandableFunction:
        return g if c == 1 else scale_function(g, c)

    if a != 0:
        d = add_functions(d, scaled(times(a - 1, k), a))
    if k:
        d = add_functions(d, scaled(times(a - 1, k - 1), k))
    return d


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
    """x |-> x**beta * log(x)**k * f(x), expansions shifted exactly; f
    itself for the factor 1 (beta = k = 0).

    The remainders take the same factor, as the stored terms' complex power,
    plus the shifted terms the new remainder order absorbs.  The derivative
    is the product rule; the Mellin transform is Mf(z+beta) without a log
    factor (k = 0), and none with one.
    """
    b = complex(beta)
    if b == 0 and k == 0:
        return f
    fe, shift = f.evaluator, _real(b)

    def ev(x: np.ndarray) -> np.ndarray:
        return _monomial(x, b, k) * fe(x)

    def side(e: AsymptoticExpansion, r: Remainder):
        shifted, absorbed = _times_monomial(e, b, k)
        re = r.evaluator
        carried = _transformed(r, lambda x: _monomial(x, b, k) * re(x))
        return shifted, _sum_remainders(carried, _terms_remainder(absorbed))

    e0, r0 = side(f.expansion_at_zero, f.remainder_zero)
    ei, ri = side(f.expansion_at_infinity, f.remainder_infinity)
    return ExpandableFunction(ev, e0, ei, r0, ri, _if_all(lambda: _monomial_rule(
        times_monomial(differentiate(f), b, k), lambda c, j: times_monomial(f, c, j), b, k),
        "derivative", f),
        None if k else _if_all(lambda z: f.mellin(z + shift), "mellin", f))


def rescale_argument(f: ExpandableFunction, lam: float) -> ExpandableFunction:
    """x |-> f(lam * x) with the expansions rewritten in log x.

    a (lam x)**alpha log**k(lam x) expands binomially over
    log(lam x) = log lam + log x, exactly, so the remainders are r(lam x) on
    their supports divided by lam.  The derivative is the chain rule,
    lam f'(lam x), and the Mellin transform lam^-z Mf(z).
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
        _if_all(lambda: scale_function(rescale_argument(differentiate(f), lam), lam),
                "derivative", f),
        _if_all(lambda z: (cmath.exp(-z * ll) if isinstance(z, complex) else math.exp(-z * ll))
                * f.mellin(z), "mellin", f),
    )


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def global_monomial(alpha: complex, k: int = 0) -> ExpandableFunction:
    """x**alpha * log(x)**k on all of (0, infinity); both expansions exact.

    Being exact, they declare the remainder orders Re alpha + 1 + 8 at 0 and
    -Re alpha - 1 + 8 at infinity.  Its derivative is
    alpha x**(alpha-1) log**k x + k x**(alpha-1) log**(k-1) x (a zero
    function for alpha = k = 0), and its Mellin transform 0: the two sides'
    continued integrals cancel.
    """
    a = complex(alpha)

    def ev(x: np.ndarray) -> np.ndarray:
        return _monomial(x, a, k)

    def derivative() -> ExpandableFunction:
        d = scale_function(global_monomial(a - 1, k), a)
        if k:
            d = add_functions(d, scale_function(global_monomial(a - 1, k - 1), k))
        return d

    term = (LogPowerTerm(1.0, a, k),)
    return ExpandableFunction(
        ev,
        AsymptoticExpansion(Location.AT_ZERO, term, a.real + 1 + _ORDER_MARGIN),
        AsymptoticExpansion(Location.AT_INFINITY, term, -a.real - 1 + _ORDER_MARGIN),
        _ZERO_REMAINDER,
        _ZERO_REMAINDER,
        derivative,
        lambda z: 0.0,
    )


def monomial_restricted(
    alpha: complex, k: int = 0, support: str = "unit_interval"
) -> ExpandableFunction:
    """x**alpha log**k x on [0,1] (support="unit_interval") or [1,inf).

    The expansion at the end the support reaches is the monomial, with the
    remainder order Re alpha + 1 + 8 at 0 or -Re alpha - 1 + 8 at infinity;
    the other end's is empty, of order 40.  The remainder is minus the
    monomial beyond 1 at the end the support reaches, and the function
    itself at the other end.  It jumps at 1, so it states no derivative.
    Its Mellin transform is +-(-1)**k k!/(z+alpha)**(k+1), + on [0,1].
    """
    a = complex(alpha)
    shift = _real(a)
    term = (LogPowerTerm(1.0, a, k),)
    mono = lambda x: _monomial(x, a, k)
    minus = lambda x: -_monomial(x, a, k)
    if support == "unit_interval":
        def ev(x: np.ndarray) -> np.ndarray:
            return _where(x, x <= 1.0, mono)
        e0 = AsymptoticExpansion(Location.AT_ZERO, term, a.real + 1 + _ORDER_MARGIN)
        ei = empty_expansion(Location.AT_INFINITY, _EMPTY_ORDER)
        r0 = Remainder(lambda x: _where(x, x > 1.0, minus), 1.0)
        ri = Remainder(ev, 0.0, 1.0)
        sign = 1.0
    elif support == "unit_tail":
        def ev(x: np.ndarray) -> np.ndarray:
            return _where(x, x >= 1.0, mono)
        e0 = empty_expansion(Location.AT_ZERO, _EMPTY_ORDER)
        ei = AsymptoticExpansion(Location.AT_INFINITY, term, -a.real - 1 + _ORDER_MARGIN)
        r0 = Remainder(ev, 1.0)
        ri = Remainder(lambda x: _where(x, x < 1.0, minus), 0.0, 1.0)
        sign = -1.0
    else:
        raise ValueError("support must be 'unit_interval' or 'unit_tail'")
    return ExpandableFunction(ev, e0, ei, r0, ri, None,
                              lambda z: sign * _block(z + shift, k, 1.0))


def _taylor_leaf(f: Callable[[np.ndarray], np.ndarray], terms: tuple[LogPowerTerm, ...],
                 order: float,
                 nth_derivative: Optional[Callable[[int], Callable[[np.ndarray], np.ndarray]]],
                 mellin: Optional[Callable[[complex], complex]]) -> ExpandableFunction:
    """f with Taylor terms of remainder order `order` at 0 and an empty
    expansion at infinity; nth_derivative(n) is the closed form of f's n-th
    derivative, or None for a leaf that states no derivative, and `mellin`
    f's Mellin transform, or None for a leaf that states none.

    The zero-side remainder is f minus the terms on [x0, inf) and 0 below
    x0, where the first omitted order falls under rounding:
    |c_last| x0**p = 2**-52 |c_first| x0**alpha_first.  For e^-x and e^-x^2
    it is an alternating series bounded by its first term, so below x0 it is
    under one ulp of the first term.  The remainder at infinity is f.  Each
    derivative is the same kind of leaf: the closed form, with the termwise
    derivative of both expansions and the x0 of its own terms, and the
    Mellin transform -(z-1) M(z-1) of its parent's M.
    """
    def leaf(g: Callable[[np.ndarray], np.ndarray], e0: AsymptoticExpansion, ei: AsymptoticExpansion,
             n: int, m: Optional[Callable[[complex], complex]]) -> ExpandableFunction:
        x0 = 0.0
        if e0.terms:
            first, last = e0.terms[0], e0.terms[-1]
            x0 = (2.0**-52 * abs(first.coefficient) / abs(last.coefficient)) ** (
                1.0 / (e0.remainder_order - first.exponent.real))
        return ExpandableFunction(
            g,
            e0,
            ei,
            Remainder(lambda x: _minus_terms(g(x), e0, x), x0),
            Remainder(g),
            None if nth_derivative is None else lambda: leaf(
                nth_derivative(n + 1), _differentiate_expansion(e0),
                _differentiate_expansion(ei), n + 1,
                None if m is None else lambda z: -(z - 1) * m(z - 1)),
            m,
        )

    return leaf(f, AsymptoticExpansion(Location.AT_ZERO, terms, order),
                empty_expansion(Location.AT_INFINITY, _EMPTY_ORDER), 0, mellin)


def exponential_decay(taylor_order: int = 12) -> ExpandableFunction:
    """e^{-x} with its Taylor expansion at 0 and empty expansion at infinity;
    its Mellin transform is Gamma(z)."""
    terms = tuple(
        LogPowerTerm((-1.0) ** j / math.factorial(j), complex(j), 0)
        for j in range(taylor_order)
    )
    return _taylor_leaf(lambda x: np.exp(-x), terms, float(taylor_order),
                        lambda n: lambda x: (-1.0) ** n * np.exp(-x), _gamma)


def _hermite(n: int, x: np.ndarray) -> np.ndarray:
    """The physicists' Hermite polynomial H_n(x), by its three-term recurrence."""
    h0, h1 = 1.0, 2.0 * x
    for j in range(1, n):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * j * h0
    return h0 if n == 0 else h1


def gaussian_decay(taylor_order: int = 12) -> ExpandableFunction:
    """e^{-x^2} with its Taylor expansion at 0; its n-th derivative is
    (-1)**n H_n(x) e^{-x^2}, and its Mellin transform Gamma(z/2)/2."""
    terms = tuple(
        LogPowerTerm((-1.0) ** m / math.factorial(m), complex(2 * m), 0)
        for m in range(taylor_order // 2 + 1)
    )
    return _taylor_leaf(lambda x: np.exp(-(x**2)), terms, float(2 * (taylor_order // 2) + 2),
                        lambda n: lambda x: (-1.0) ** n * _hermite(n, x) * np.exp(-(x**2)),
                        lambda z: _gamma(z / 2) / 2)


def _step_pair(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g1 = exp(-1/u) and g2 = exp(-1/(1-u)), for 0 < u < 1 only: outside,
    exp(-1/u) overflows or divides by 0."""
    return np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))


def _smooth_step(x, lo: float, hi: float, rising: bool):
    """The step from 1 at lo to 0 at hi (or 0 to 1 when rising), with
    u = (x - lo)/(hi - lo): g2/(g1+g2) falling, g1/(g1+g2) rising."""
    x = np.asarray(x, dtype=float)
    out = np.array(x >= hi if rising else x <= lo, dtype=float)
    mid = (lo < x) & (x < hi)
    g1, g2 = _step_pair((x[mid] - lo) / (hi - lo))
    out[mid] = (g1 if rising else g2) / (g1 + g2)
    return out[()]


def smooth_cutoff(x):
    """Smooth decreasing cutoff: 1 for x <= 1, 0 for x >= 2 (a float or an array)."""
    return _smooth_step(x, 1.0, 2.0, False)


def smooth_step_up(x):
    """Smooth increasing step: 0 for x <= 1/2, 1 for x >= 1 (a float or an array)."""
    return _smooth_step(x, 0.5, 1.0, True)


def _step_slope(u: np.ndarray) -> np.ndarray:
    """d/du of g1/(g1+g2), g1 = exp(-1/u), g2 = exp(-1/(1-u)), for 0 < u < 1:
    g1 g2 (1/u**2 + 1/(1-u)**2) / (g1+g2)**2.  smooth_cutoff' is
    -_step_slope(x-1) and smooth_step_up' is 2 _step_slope(2x-1); for float
    x inside their supports, u and 1-u are at least 2**-53, so nothing
    overflows."""
    g1, g2 = _step_pair(u)
    return g1 * g2 * (1.0 / u**2 + 1.0 / (1.0 - u) ** 2) / (g1 + g2) ** 2


def _legendre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for n = _RULE_NODES, by the three-term recurrence."""
    n = _RULE_NODES
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the _RULE_NODES-point Gauss-Legendre rule on
    (-1, 1): six Newton steps on P_n from cos(pi (i - 1/4)/(n + 1/2)), which
    meet the roots to an ulp, and the weights 2/((1 - x^2) P_n'(x)^2), within
    2e-16 of 40-digit ones.  The positive half, mirrored."""
    i = np.arange(1, _RULE_NODES // 2 + 1)
    x = np.cos(np.pi * (i - 0.25) / (_RULE_NODES + 0.5))
    for _ in range(6):
        p, dp = _legendre(x)
        x = x - p / dp
    _, dp = _legendre(x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


def _rule_mellin(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
                 ) -> Callable[[complex], complex]:
    """z -> the integral of x^(z-1) fn(x) over (lo, hi), by the fixed
    Gauss-Legendre rule on (lo, hi): sum_i c_i x_i^(z-1) with c_i the
    weight times fn(x_i), computed on first use.  nan past |Im z| =
    _RULE_MAX_IM, so that `mellin` integrates there by quadrature.  fn is
    smooth on (lo, hi) (a smooth step or its slope, times log^k x), so the
    rule converges without subdividing; a float z and a real fn give a
    float."""
    @functools.cache
    def rule() -> tuple[np.ndarray, np.ndarray]:
        t, weights = _gauss_legendre()
        half = 0.5 * (hi - lo)
        x = lo + half * (t + 1.0)
        c = half * weights * np.asarray(fn(x), dtype=complex)
        return np.log(x), c if c.imag.any() else c.real

    def mellin(z):
        if abs(z.imag) > _RULE_MAX_IM:
            return math.nan
        lx, c = rule()
        return (c @ np.exp((z - 1.0) * lx)).item()

    return mellin


def _block(w, k: int, c: float):
    """`mellin.monomial_block(w, k, c)`, the continued integral of
    x^(w-1) log^k x over (0, c]: a float for a float w, and nan on its pole
    w = 0 or where it overflows, which `mellin` takes as no value."""
    from .mellin import monomial_block  # mellin imports this module

    try:
        return _real(monomial_block(w, k, c))
    except (ZeroDivisionError, OverflowError):
        return math.nan


def _step_mellin(a: complex, k: int, lo: float, hi: float, rising: bool
                 ) -> Callable[[complex], complex]:
    """The Mellin transform of s(x) x^a log^k x, where s is the smooth step on
    (lo, hi) that is 1 below lo (falling) or above hi (rising).  With
    w = z + a, A_c = `mellin.monomial_block` and I_g the integral of
    g(x) x^(w-1) log^k x over (lo, hi) by `_rule_mellin`, it is the
    continued integral over the step's plateau plus I_s, or over the hull of
    its support minus I_(1-s):

        A_lo(w, k) + I_s = A_hi(w, k) - I_(1-s)     (falling),
        -A_hi(w, k) + I_s = -A_lo(w, k) - I_(1-s)   (rising).

    It takes the form whose block is the smaller in modulus: that form's
    integral is then at most |Mf| plus its block, so its two parts cancel the
    least.  (At Re w << 0, the falling step's 1/w and I_s would cancel to a
    value of the order of 2^w/w.)"""
    sign, plateau, support = (-1.0, hi, lo) if rising else (1.0, lo, hi)
    step = _rule_mellin(lambda x: _smooth_step(x, lo, hi, rising) * np.log(x) ** k, lo, hi)
    rest = _rule_mellin(lambda x: _smooth_step(x, lo, hi, not rising) * np.log(x) ** k, lo, hi)
    shift = _real(a)

    def mellin(z):
        w = z + shift
        on_plateau, on_support = sign * _block(w, k, plateau), sign * _block(w, k, support)
        if abs(on_support) < abs(on_plateau):
            return on_support - rest(w)
        return on_plateau + step(w)

    return mellin


def _compact_leaf(slope: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                  a: complex, k: int) -> ExpandableFunction:
    """slope(x) x**a log**k x on (lo, hi) and 0 outside: empty expansions,
    with the function as both remainders.  It states no derivative, and its
    Mellin transform, which is entire, by the fixed rule on (lo, hi)."""
    def ev(x: np.ndarray) -> np.ndarray:
        return _where(x, (lo < x) & (x < hi), lambda y: slope(y) * _monomial(y, a, k))

    rule, shift = _rule_mellin(lambda x: slope(x) * np.log(x) ** k, lo, hi), _real(a)
    return ExpandableFunction(ev, empty_expansion(Location.AT_ZERO, _EMPTY_ORDER),
                              empty_expansion(Location.AT_INFINITY, _EMPTY_ORDER),
                              Remainder(ev, lo, hi), Remainder(ev, lo, hi), None,
                              lambda z: rule(z + shift))


def cutoff_times_monomial(alpha: complex, k: int = 0) -> ExpandableFunction:
    """phi(x) * x**alpha * log(x)**k with phi = smooth_cutoff (so ==1 near 0).

    The remainder at 0, (phi - 1) x**alpha log**k x, vanishes on (0, 1]; the
    one at infinity, f itself, on [2, inf).  The derivative is the product
    rule: phi' x**alpha log**k x, a leaf on (1, 2) that states no derivative,
    plus phi times the monomial's derivative.  The Mellin transform is
    (-1)**k k!/w**(k+1) plus the rule's integral of phi x**(w-1) log**k x
    over (1, 2), w = z + alpha, or its other form (see `_step_mellin`).
    """
    a = complex(alpha)

    def ev(x: np.ndarray) -> np.ndarray:
        return _where(x, x < 2.0, lambda y: smooth_cutoff(y) * _monomial(y, a, k))

    term = (LogPowerTerm(1.0, a, k),)
    return ExpandableFunction(
        ev,
        AsymptoticExpansion(Location.AT_ZERO, term, a.real + 1 + _ORDER_MARGIN),
        empty_expansion(Location.AT_INFINITY, _EMPTY_ORDER),
        Remainder(lambda x: (smooth_cutoff(x) - 1.0) * _monomial(x, a, k), 1.0),
        Remainder(ev, 0.0, 2.0),
        lambda: _monomial_rule(
            _compact_leaf(lambda x: -_step_slope(x - 1.0), 1.0, 2.0, a, k),
            cutoff_times_monomial, a, k),
        _step_mellin(a, k, 1.0, 2.0, False),
    )


def tail_times_monomial(alpha: complex, k: int = 0) -> ExpandableFunction:
    """psi(x) * x**alpha * log(x)**k with psi = smooth_step_up (==1 for x>=1).

    The remainder at 0, f itself, vanishes on (0, 1/2]; the one at infinity,
    (psi - 1) x**alpha log**k x, on [1, inf).  The derivative is the product
    rule: psi' x**alpha log**k x, a leaf on (1/2, 1) that states no
    derivative, plus psi times the monomial's derivative.  The Mellin
    transform mirrors the cutoff's: -(-1)**k k!/w**(k+1) plus the rule's
    integral over (1/2, 1), or its other form (see `_step_mellin`).
    """
    a = complex(alpha)

    def ev(x: np.ndarray) -> np.ndarray:
        return _where(x, x > 0.5, lambda y: smooth_step_up(y) * _monomial(y, a, k))

    term = (LogPowerTerm(1.0, a, k),)
    return ExpandableFunction(
        ev,
        empty_expansion(Location.AT_ZERO, _EMPTY_ORDER),
        AsymptoticExpansion(Location.AT_INFINITY, term, -a.real - 1 + _ORDER_MARGIN),
        Remainder(ev, 0.5),
        Remainder(lambda x: (smooth_step_up(x) - 1.0) * _monomial(x, a, k), 0.0, 1.0),
        lambda: _monomial_rule(
            _compact_leaf(lambda x: 2.0 * _step_slope(2.0 * x - 1.0), 0.5, 1.0, a, k),
            tail_times_monomial, a, k),
        _step_mellin(a, k, 0.5, 1.0, True),
    )
