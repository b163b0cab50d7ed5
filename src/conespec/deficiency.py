"""Deficiency-index arithmetic for model-cone first-order operators.

Counts deficiency vectors from graded spectral data, evaluates the
Clifford-module mod-2 indices, checks the cobordism vanishing statement,
and assembles the Dirac-Schrodinger index combination.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

__all__ = [
    "DeficiencyError",
    "GradedSpectrum",
    "ClkModuleData",
    "Extension",
    "deficiency_indices",
    "index_a_eps",
    "cobordism_check",
    "clk_def_ind",
    "dirac_schrodinger_index",
    "deficiency_brute_force",
]

THRESHOLD_GUARD = 1e-12


class DeficiencyError(Exception):
    pass


@dataclass(frozen=True)
class GradedSpectrum:
    """Kernel splitting and small positive spectrum of the boundary pair (A, Gamma).

    kernel_plus / kernel_minus are the weights of ker(Gamma -+ i) inside
    ker A; `positive` lists eigenvalues mu > 0 of A with their weights; only
    those strictly below `threshold` feed the deficiency count.
    """

    kernel_plus: complex
    kernel_minus: complex
    positive: tuple[tuple[float, complex], ...] = ()
    threshold: float = 0.5
    fredholm: bool = False

    def __post_init__(self):
        object.__setattr__(self, "positive", tuple(self.positive))
        for mu, _w in self.positive:
            if mu <= 0:
                raise DeficiencyError("positive-part eigenvalues must be > 0")
            if abs(mu - self.threshold) <= THRESHOLD_GUARD:
                warnings.warn(
                    f"eigenvalue {mu} sits on the threshold {self.threshold}; "
                    "the strict cutoff excludes it",
                    stacklevel=2,
                )

    def small_weight(self) -> complex:
        return sum(
            (w for mu, w in self.positive if mu < self.threshold - THRESHOLD_GUARD),
            0.0 + 0.0j,
        )

    def require_integer_weights(self) -> None:
        for w in (self.kernel_plus, self.kernel_minus) + tuple(
            w for _mu, w in self.positive
        ):
            w = complex(w)
            if w.imag != 0 or w.real < 0 or w.real != int(w.real):
                raise DeficiencyError(
                    "this operation needs nonnegative integer weights"
                )


def _num_out(w: complex):
    w = complex(w)
    if w.imag == 0:
        return int(w.real) if w.real == int(w.real) else w.real
    return {"re": w.real, "im": w.imag}


def deficiency_indices(g: GradedSpectrum) -> tuple[complex, complex]:
    """n_+- = kernel split weight plus the sub-threshold positive spectrum."""
    s = g.small_weight()
    return g.kernel_plus + s, g.kernel_minus + s


def index_a_eps(g: GradedSpectrum) -> complex:
    """Index of the grading on ker A; the positive part cancels identically."""
    return g.kernel_plus - g.kernel_minus


def cobordism_check(g: GradedSpectrum, declared_boundary: bool) -> dict:
    """Boundary data must carry vanishing index; reports the verdict."""
    idx = index_a_eps(g)
    if not declared_boundary:
        return {"boundary": False, "index": _num_out(idx), "status": "info"}
    ok = idx == 0
    return {
        "boundary": True,
        "index": _num_out(idx),
        "status": "pass" if ok else "fail",
    }


# ---------------------------------------------------------------------------
# Clifford-module indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClkModuleData:
    """Graded deficiency module data for the Cl_k index.

    E_plus_dim_real is the real dimension of the positive part; for the
    residues with integer-valued index (k = 0, 4 mod 8) the signed value
    comes in through `signed_index`.
    """

    k: int
    e_plus_dim_real: int
    signed_index: int = 0

    def __post_init__(self):
        if self.k < 0 or self.e_plus_dim_real < 0:
            raise DeficiencyError("k and dimensions must be nonnegative")


def clk_def_ind(m: ClkModuleData) -> dict:
    """Mod-2 (or integer) deficiency index by the Clifford periodicity class."""
    l = m.k % 8
    if l == 1:
        return {"k": m.k, "residue": l, "ring": "Z/2", "value": m.e_plus_dim_real % 2}
    if l == 2:
        if m.e_plus_dim_real % 2 != 0:
            raise DeficiencyError(
                "k = 2 mod 8 needs a complex structure: even real dimension"
            )
        return {
            "k": m.k,
            "residue": l,
            "ring": "Z/2",
            "value": (m.e_plus_dim_real // 2) % 2,
        }
    if l in (0, 4):
        return {"k": m.k, "residue": l, "ring": "Z", "value": m.signed_index}
    return {"k": m.k, "residue": l, "ring": "0", "value": 0}


# ---------------------------------------------------------------------------
# Dirac-Schrodinger index
# ---------------------------------------------------------------------------


class Extension(Enum):
    MIN = "min"
    MAX = "max"


def dirac_schrodinger_index(
    n_d, ind_s_plus, ind_s_minus, extension: Extension | str
):
    """(+-1/2) n(D) - 1/2 ind(S_+) + 1/2 ind(S_-); plus for Max, minus for Min.

    Rational inputs come back as exact Fractions.
    """
    if isinstance(extension, str):
        try:
            extension = Extension(extension.lower())
        except ValueError as exc:
            raise DeficiencyError(f"unknown extension {extension!r}") from exc
    sign = 1 if extension is Extension.MAX else -1
    vals = (n_d, ind_s_plus, ind_s_minus)
    if all(isinstance(v, numbers.Rational) for v in vals):
        return (
            sign * Fraction(n_d) / 2
            - Fraction(ind_s_plus) / 2
            + Fraction(ind_s_minus) / 2
        )
    return (
        sign * complex(n_d) / 2 - complex(ind_s_plus) / 2 + complex(ind_s_minus) / 2
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def deficiency_brute_force(g: GradedSpectrum) -> tuple[int, int]:
    """Deficiency indices by an explicit signature computation.

    Builds the Hermitian form i(Gamma x | y) on the model deficiency space:
    each sub-threshold eigenvalue contributes a plane spanned by an
    eigenvector and its Gamma-image, each kernel summand a line on which the
    form is already diagonal.  The signature of the assembled matrix is
    counted numerically.
    """
    g.require_integer_weights()
    blocks = []
    wp, wm = int(g.kernel_plus.real), int(g.kernel_minus.real)
    for _ in range(wp):
        blocks.append(np.array([[1.0]]))
    for _ in range(wm):
        blocks.append(np.array([[-1.0]]))
    gamma_plane = np.array([[0.0, 1.0], [-1.0, 0.0]])
    q_plane = 1j * gamma_plane
    for mu, w in g.positive:
        if mu >= g.threshold - THRESHOLD_GUARD:
            continue
        for _ in range(int(complex(w).real)):
            blocks.append(q_plane)
    if not blocks:
        return 0, 0
    dim = sum(b.shape[0] for b in blocks)
    q = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in blocks:
        n = b.shape[0]
        q[at : at + n, at : at + n] = b
        at += n
    eigs = np.linalg.eigvalsh(q)
    n_plus = int(np.sum(eigs > 0.5))
    n_minus = int(np.sum(eigs < -0.5))
    return n_plus, n_minus
