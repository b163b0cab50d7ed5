"""Brute-force checks of Dirichlet-series continuations, shared by the tests.

A provider's `zeta` continues sum_j w_j nu_j^-s; where the series converges
the continuation must agree with its partial sums over `term_iter`.
"""

from conespec.specfun import HurwitzZetaProvider


def shifted_integer(a: float) -> HurwitzZetaProvider:
    """The signed spectrum {n + a : n in Z}, 0 < a < 1, as two Hurwitz
    families: the CLI's shifted-integer eta tail."""
    return HurwitzZetaProvider(a) + HurwitzZetaProvider(1 - a, -1.0)


def partial_sum(provider, s: complex, n_terms: int) -> complex:
    """sum of w nu^-s over the first n_terms (weight, nu) terms."""
    total = 0.0 + 0.0j
    for i, (w, nu) in enumerate(provider.term_iter()):
        if i >= n_terms:
            break
        total += w * complex(nu) ** (-complex(s))
    return total


def continuation_consistency(provider, s_points, n_terms: int = 4000) -> float:
    """Max |continuation - direct sum| over points in the convergence region."""
    return max(abs(provider.zeta(s) - partial_sum(provider, s, n_terms)) for s in s_points)

