"""Independent oracles for every benchmarked operation.

Oracle kinds follow the acceptance suite: mpmath at 30 or more digits,
closed forms, and brute-force signatures.  Nothing here imports conespec.
Spectral data arrive in the plain-data form of ``gen.py``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mp, mpc, mpf

DPS = 30


class OracleError(Exception):
    """The oracle could not certify its own accuracy for an input."""


# ---------------------------------------------------------------------------
# Spectral sums: Phi(s) = sum_j w_j Gamma(p_j + 1 - s) / Gamma(p_j + s)
# ---------------------------------------------------------------------------
#
# A spectrum is {"explicit": [(w, p)], "families": [(w, a, e)]}; a family
# lists eigenvalues lambda_j = (a + j)^e, j >= 0, with Bessel order
# p_j = (a + j)^(e/2).  Terms with p_j <= V are summed exactly; the rest is
# continued through Stirling's series of the Gamma ratio (DLMF 5.11.8),
#   Gamma(nu+1-s)/Gamma(nu+s) = nu^(1-2s) sum_k Q_k(s) nu^-k,
# whose coefficients are built here from Bernoulli polynomials, against
# Hurwitz zeta sums for the powers.


_KMAX = 40  # with V >= 8(|s|+2)+20 the last fold term is below 1e-30 relative
_Q_CACHE: dict = {}


def _q_coeffs(s) -> list:
    key = (complex(s), mp.dps)
    if key not in _Q_CACHE:
        c = [mpf(0)] * (_KMAX + 1)
        for n in range(2, _KMAX + 1, 2):  # odd n vanish: B_n(1-x) = (-1)^n B_n(x)
            c[n] = -(mpmath.bernpoly(n + 1, 1 - s) - mpmath.bernpoly(n + 1, s)) / (n * (n + 1))
        e = [mpf(1)] + [mpf(0)] * _KMAX
        for k in range(1, _KMAX + 1):
            e[k] = sum(n * c[n] * e[k - n] for n in range(2, k + 1, 2)) / k
        _Q_CACHE[key] = e
    return _Q_CACHE[key]


def _hurwitz(z, a):
    """sum_{j>=0} (a+j)^-z for a >= 1, accurate relative to its own size.

    mpmath.zeta(z, a) is accurate only to an absolute 10^-dps, which the
    large Q_k multiply into garbage once the value is tiny; here the direct
    head runs to b = a + n > |z| + 30 and Euler-Maclaurin finishes from b,
    every term carrying its own b^-z scale.
    """
    n = max(0, int(math.ceil(abs(complex(z)) + 30 - float(a))))
    total = sum((a + j) ** (-z) for j in range(n))
    b = a + n
    total += b ** (1 - z) / (z - 1) + b ** (-z) / 2
    poch, bpow = z, b ** (-z - 1)
    for m in range(1, 26):
        total += mpmath.bernoulli(2 * m) / mpmath.factorial(2 * m) * poch * bpow
        poch *= (z + 2 * m - 1) * (z + 2 * m)
        bpow /= b * b
    return total


def _ratio(p, s):
    return mpmath.gamma(p + 1 - s) * mpmath.rgamma(p + s)


def phi_sum(spec: dict, s) -> mpc:
    """Phi(s) continued to all s, at the working precision."""
    s = mpc(s)
    total = mpc(0)
    for w, p in spec["explicit"]:
        total += w * _ratio(mpf(p), s)
    if not spec["families"]:
        return total
    v = 8.0 * (abs(complex(s)) + 2.0) + 20.0
    q = _q_coeffs(s)
    for w, a, e in spec["families"]:
        a, e = mpf(a), mpf(e)
        j_cut = max(0, int(math.floor(v ** (2.0 / float(e)) - float(a))) + 1)
        for j in range(j_cut):
            total += w * _ratio((a + j) ** (e / 2), s)
        size = mpf(0)
        for k in range(0, _KMAX + 1, 2):
            term = w * q[k] * _hurwitz(e * (2 * s - 1 + k) / 2, a + j_cut)
            total += term
            size += abs(term)
        if abs(term) > mpf(10) ** (5 - mp.dps) * size:
            raise OracleError(f"Stirling fold did not converge at s={complex(s)}")
    return total


def zeta_hat(spec: dict, s) -> complex:
    """Regularized zeta of the cone operator: Gamma(s-1/2)/(2 sqrt(pi) Gamma(s)) Phi(s)."""
    with mp.workdps(DPS + 5):
        s = mpc(s)
        pref = mpmath.gamma(s - 0.5) * mpmath.rgamma(s) / (2 * mpmath.sqrt(mpmath.pi))
        return complex(pref * phi_sum(spec, s))


def eta_hat(plus: dict, minus: dict, s) -> complex:
    """Gamma(s) (zeta-hat(A+) - zeta-hat(A-)), with Gamma(s) cancelled exactly."""
    with mp.workdps(DPS + 5):
        s = mpc(s)
        pref = mpmath.gamma(s - 0.5) / (2 * mpmath.sqrt(mpmath.pi))
        return complex(pref * (phi_sum(plus, s) - phi_sum(minus, s)))


def laurent_at_zero(f) -> tuple:
    """(Res_1, Res_0) of a function with at most a simple pole at 0.

    Symmetric differences at h = 1e-10 with 25 guard digits; the neglected
    terms are O(h^2).
    """
    with mp.workdps(DPS + 25):
        h = mpf("1e-10")
        fp, fm = f(h), f(-h)
        return complex((fp - fm) * h / 2), complex((fp + fm) / 2)


def gamma_zeta_hat_residues(spec: dict) -> tuple:
    """Laurent coefficients of Gamma(s) zeta-hat(s) at s = 0."""
    pref = lambda s: mpmath.gamma(s - 0.5) / (2 * mpmath.sqrt(mpmath.pi))
    return laurent_at_zero(lambda s: pref(s) * phi_sum(spec, s))


def eta_hat_residues(plus: dict, minus: dict) -> tuple:
    pref = lambda s: mpmath.gamma(s - 0.5) / (2 * mpmath.sqrt(mpmath.pi))
    return laurent_at_zero(lambda s: pref(s) * (phi_sum(plus, s) - phi_sum(minus, s)))


# -- spectra in oracle form ---------------------------------------------------


def _family_index(lam: float, a: float, e: float):
    """j with (a + j)^e == lam to 1e-9 relative, else None."""
    j = round(lam ** (1.0 / e) - a)
    if j >= 0 and abs((a + j) ** e - lam) <= 1e-9 * max(1.0, lam):
        return j
    return None


def cross_spectrum(spec: dict) -> dict:
    """Oracle form of a gen cross-section spectrum (data plus one tail).

    Data entries the tail also lists replace those tail terms, as the
    spectrum's definition says; the replaced terms are added back as
    explicit negatives so the family sums stay whole.
    """
    tail = spec.get("tail")
    explicit, families = [], []
    nb = spec.get("negative_below", 0.0)
    for lam, w in spec["data"]:
        root = math.sqrt(lam)
        explicit.append((w, -root if lam < nb else root))
    if tail is not None:
        c, e = tail["scale"], tail["exponent"]
        a = tail.get("a", 1.0) if tail["kind"] == "hurwitz" else 1.0
        families.append((c, a, e))
        for lam, _w in spec["data"]:
            j = _family_index(lam, a, e)
            if j is not None:
                explicit.append((-c, (a + j) ** (e / 2.0)))
    return {"explicit": explicit, "families": families}


def _shifted_squares(s_data, sign: float) -> list:
    """(w, p) of (mu + sign/2)^2, with the negative order mu - 1/2 for |mu| < 1/2 in A-."""
    out = []
    for mu, w in s_data:
        v = mu + 0.5 * sign
        if sign < 0 and abs(mu) < 0.5:
            out.append((w, v))
        else:
            out.append((w, abs(v)))
    return out


def first_order_spectra(spec: dict) -> tuple:
    """(A+, A-) oracle spectra of a gen first-order spectrum.

    The eta tail lists the whole spectrum; s_data entries it already lists
    are not counted twice.
    """
    family = spec["family"]
    s_data = spec["s_data"]
    if family == "two-sided":
        a = spec["a"]
        s_data = [(mu, w) for mu, w in s_data if abs((mu - a) - round(mu - a)) > 1e-12]
    plus = {"explicit": _shifted_squares(s_data, 1.0), "families": []}
    minus = {"explicit": _shifted_squares(s_data, -1.0), "families": []}
    if family == "shifted":  # S = {a + j : j >= 0}, a > 1/2
        a = spec["a"]
        plus["families"].append((1.0, a + 0.5, 2.0))
        minus["families"].append((1.0, a - 0.5, 2.0))
    elif family == "power":  # S = {n : n >= 1}
        plus["families"].append((1.0, 1.5, 2.0))
        minus["families"].append((1.0, 0.5, 2.0))
    elif family == "two-sided":  # S = {n + a : n in Z}, 0 < a < 1
        a = spec["a"]
        small_neg = a > 0.5  # the eigenvalue a - 1 lies in (-1/2, 0)
        plus["explicit"].append((1.0, abs(a - 0.5)))
        plus["families"] += [(1.0, a + 0.5, 2.0), (1.0, 1.5 - a, 2.0)]
        minus["explicit"].append((1.0, a - 0.5))
        minus["explicit"].append((1.0, a - 1.5 if small_neg else 1.5 - a))
        minus["families"] += [(1.0, a + 0.5, 2.0), (1.0, 2.5 - a, 2.0)]
    return plus, minus


# ---------------------------------------------------------------------------
# Model operator L_p: closed forms
# ---------------------------------------------------------------------------


def zeta_hat_lp(p: float, s) -> complex:
    with mp.workdps(DPS):
        s = mpc(s)
        v = (mpmath.gamma(s - 0.5) * mpmath.gamma(p + 1 - s)
             * mpmath.rgamma(s) * mpmath.rgamma(p + s))
        return complex(v / (2 * mpmath.sqrt(mpmath.pi)))


def heat_kernel_lp(p: float, t: float, x: float, y: float) -> float:
    """sqrt(xy)/(2t) I_p(xy/2t) exp(-(x^2+y^2)/4t), the Weber closed form."""
    with mp.workdps(DPS):
        p, t, x, y = mpf(p), mpf(t), mpf(x), mpf(y)
        return float(mpmath.sqrt(x * y) / (2 * t) * mpmath.besseli(p, x * y / (2 * t))
                     * mpmath.exp(-(x * x + y * y) / (4 * t)))


def k_trace(pairs, t: float) -> float:
    """sum_i w_i z I_{p_i}(z) e^{-z} with z = 1/(2t), p_i = sqrt(lambda_i)."""
    with mp.workdps(DPS):
        z = 1 / (2 * mpf(t))
        return float(sum(w * z * mpmath.besseli(mpf(lam).sqrt(), z) * mpmath.exp(-z)
                         for lam, w in pairs))


def heat_trace_leading(pairs) -> dict:
    """Closed-form coefficients of the fiber trace (nu = mu = 2, m = 1).

    k(t) = sum_i w_i (4 pi t)^(-1/2) (1 + O(t)), so b_0 = sum w / sqrt(4 pi)
    and b_1 = 0; Res_0 of Gamma(s) zeta-hat at 0 is -sum w p.
    """
    with mp.workdps(DPS):
        b0 = sum(mpf(w) for _lam, w in pairs) / mpmath.sqrt(4 * mpmath.pi)
        res0 = -sum(mpf(w) * mpf(lam).sqrt() for lam, w in pairs)
        return {"b0": float(b0), "res0": float(res0)}


# ---------------------------------------------------------------------------
# Regularized integrals of stock functions
# ---------------------------------------------------------------------------
#
# An atom (c, kind, alpha, k, lam, beta, m) stands for
#   c * x^beta log^m x * g(lam x),
# with g(y) = y^alpha log^k y ("mono"), phi(y) y^alpha log^k y ("cut", phi
# the smooth cutoff), e^{-y} ("exp") or e^{-y^2} ("gauss").


def atoms(pieces) -> list:
    out = []
    for piece in pieces:
        out += _piece_atoms(piece)
    return out


def _piece_atoms(piece) -> list:
    kind = piece[0]
    if kind in ("mono", "cut"):
        return [(piece[3], kind, piece[1], piece[2], 1.0, 0.0, 0)]
    if kind in ("exp", "gauss"):
        return [(piece[1], kind, 0.0, 0, 1.0, 0.0, 0)]
    if kind == "resc":
        return rescale(_piece_atoms(piece[2]), piece[1])
    inner = _piece_atoms(piece[1])  # fuchs: -x d/dx
    assert len(inner) == 1 and inner[0][1] in ("exp", "gauss")
    c, g = inner[0][0], inner[0][1]
    # -x d/dx e^{-y} = x e^{-y}; -x d/dx e^{-y^2} = 2 x^2 e^{-y^2}
    return [(c, "exp", 0.0, 0, 1.0, 1.0, 0)] if g == "exp" else [(2 * c, "gauss", 0.0, 0, 1.0, 2.0, 0)]


def rescale(ats, lam: float) -> list:
    """Atoms of x -> f(lam x)."""
    out = []
    for c, kind, alpha, k, mu, beta, m in ats:
        for i in range(m + 1):
            coef = c * lam ** beta * math.comb(m, i) * math.log(lam) ** (m - i)
            out.append((coef, kind, alpha, k, mu * lam, beta, i))
    return out


def times_monomial(ats, beta: float, m: int = 0) -> list:
    return [(c, kd, a, k, lam, b + beta, mm + m) for c, kd, a, k, lam, b, mm in ats]


def _block(w, n: int, c):
    """Regularized integral over [0, c] of x^(w-1) log^n x."""
    lc = mpmath.log(c)
    if abs(w) < mpf(10) ** (-20):
        return lc ** (n + 1) / (n + 1)
    return sum(math.comb(n, j) * lc ** j * c ** w * (-1) ** (n - j)
               * mpmath.factorial(n - j) * w ** (-(n - j + 1)) for j in range(n + 1))


def _mono_parts(c, alpha, k, lam, beta, m):
    """c (lam x)^alpha log^k(lam x) x^beta log^m x as (coef, exponent, log power)."""
    ll = mpmath.log(lam)
    return [(c * mpf(lam) ** alpha * math.comb(k, i) * ll ** (k - i), mpf(alpha) + beta, m + i)
            for i in range(k + 1)]


def _smooth_cutoff(y):
    if y <= 1:
        return mpf(1)
    if y >= 2:
        return mpf(0)
    u = y - 1
    g1, g2 = mpmath.exp(-1 / u), mpmath.exp(-1 / (1 - u))
    return g2 / (g1 + g2)


_CUT_CACHE: dict = {}


def _cut_integral(alpha, n: int, y_lo=1):
    """integral_{y_lo}^2 phi(y) y^alpha log^n y dy, phi the smooth cutoff (1 <= y_lo < 2)."""
    key = (alpha, n, y_lo, mp.dps)
    if key not in _CUT_CACHE:
        _CUT_CACHE[key] = mpmath.quad(
            lambda y: _smooth_cutoff(y) * y ** alpha * mpmath.log(y) ** n, [y_lo, 2])
    return _CUT_CACHE[key]


def _cut_window(parts, lam, y_lo=1):
    """integral of phi(lam x) times the monomial parts over lam x in [y_lo, 2].

    With y = lam x each part c x^e log^n x becomes
    c lam^-(e+1) y^e (log y - log lam)^n, a sum of cut integrals.
    """
    lam = mpf(lam)
    ll = mpmath.log(lam)
    total = mpf(0)
    for c, e, n in parts:
        for i in range(n + 1):
            total += (c * lam ** (-(e + 1)) * math.comb(n, i) * (-ll) ** (n - i)
                      * _cut_integral(e, i, y_lo))
    return total


def _decay_tail(kind: str, c, lam, beta, cut):
    """integral_cut^inf of c x^beta g(lam x) for g = e^{-y} or e^{-y^2} (incomplete Gamma)."""
    lam, beta = mpf(lam), mpf(beta)
    if kind == "exp":
        return c * lam ** (-beta - 1) * mpmath.gammainc(beta + 1, lam * cut)
    return c * lam ** (-beta - 1) * mpmath.gammainc((beta + 1) / 2, (lam * cut) ** 2) / 2


def _mellin_kernel(kind: str, lam):
    """G(w) = integral_0^inf x^(w-1) g(lam x) dx and the poles of G."""
    if kind == "exp":
        return (lambda w: mpf(lam) ** (-w) * mpmath.gamma(w)), 1
    return (lambda w: mpf(lam) ** (-w) * mpmath.gamma(w / 2) / 2), 2


def _constant_term(G, w0, m: int, step: int):
    """Constant Laurent coefficient at w0 of the m-th derivative of G.

    G has at most simple poles at w = 0, -step, -2 step, ...
    """
    n = mpmath.nint(-w0 / step)
    if n >= 0 and abs(w0 + n * step) < mpf(10) ** (-20):
        w0 = -n * step
        h = lambda w: (w - w0) * G(w)
        return mpmath.diff(h, w0, m + 1, singular=True) / (m + 1)
    return mpmath.diff(G, w0, m)


def regint(ats) -> complex:
    """Regularized integral over (0, infinity) of a sum of atoms."""
    with mp.workdps(DPS + 5):
        return complex(sum((_regint_atom(a) for a in ats), mpf(0)))


def _regint_atom(atom):
    c, kind, alpha, k, lam, beta, m = atom
    if kind == "mono":
        return mpf(0)  # global monomials integrate to zero
    if kind == "cut":
        edge = 1 / mpf(lam)
        parts = _mono_parts(c, alpha, k, lam, beta, m)
        return sum(coef * _block(e + 1, n, edge) for coef, e, n in parts) \
            + _cut_window(parts, lam)
    G, step = _mellin_kernel(kind, lam)
    return c * _constant_term(G, mpf(beta) + 1, m, step)


def regint_tail(ats, cut: float) -> complex:
    """Regularized integral over [cut, infinity)."""
    with mp.workdps(DPS + 20):
        total = mpf(0)
        cut = mpf(cut)
        for atom in ats:
            c, kind, alpha, k, lam, beta, m = atom
            parts = _mono_parts(c, alpha, k, lam, beta, m)
            if kind == "mono":
                total -= sum(coef * _block(e + 1, n, cut) for coef, e, n in parts)
            elif kind == "cut":
                edge = 1 / mpf(lam)
                if cut < edge:
                    total += sum(coef * (_block(e + 1, n, edge) - _block(e + 1, n, cut))
                                 for coef, e, n in parts) + _cut_window(parts, lam)
                elif cut < 2 * edge:
                    total += _cut_window(parts, lam, lam * cut)
            else:
                assert m == 0
                total += _decay_tail(kind, c, lam, beta, cut)
        return complex(total)


def mellin(ats, z) -> complex:
    """Mellin transform at z of a sum of exp/gauss atoms (monomials transform to 0)."""
    with mp.workdps(DPS):
        z = mpc(z)
        total = mpc(0)
        for c, kind, _alpha, _k, lam, beta, m in ats:
            if kind == "mono":
                continue
            assert kind in ("exp", "gauss") and m == 0
            G, _step = _mellin_kernel(kind, lam)
            total += c * G(z + beta)
        return complex(total)


# -- small-parameter expansions -----------------------------------------------

N_DERIVS = 13  # jet length of the exp and gauss test functions


def phi_derivative(phi: str, n: int) -> float:
    """phi^(n)(0) of e^{-x} or e^{-x^2}."""
    if phi == "exp":
        return float((-1) ** n)
    if n % 2:
        return 0.0
    j = n // 2
    return float((-1) ** j * math.factorial(2 * j) // math.factorial(j))


def moment(phi: str, beta: float, i: int) -> complex:
    """Regularized integral of phi(x) x^beta log^i x."""
    with mp.workdps(DPS + 20):
        G, step = _mellin_kernel(phi, 1.0)
        return complex(_constant_term(G, mpf(beta) + 1, i, step))


def _negative_integer(beta: float, lo: float):
    n = round(beta)
    if abs(beta - n) <= 1e-9 and -1 >= n >= lo - 1e-9:
        return -n - 1
    return None


def expand_phi(phi: str, F_pieces, q: float, which: str) -> dict:
    """Coefficients {(exponent, log power): c} of the small-t expansion.

    reg-int phi(t x) F(x) dx ("tx") or reg-int phi(x) F(x/t) dx ("x_over_t"),
    for F a sum of global monomials and exponentials.
    """
    out: dict = {}

    def add(e, lp, c):
        key = (round(float(e), 9), lp)
        out[key] = out.get(key, 0) + complex(c)

    F = atoms(F_pieces)
    q = min(q, 13.0)
    j_max = min(int(math.ceil(q - 1e-9)) - 1, N_DERIVS - 1)
    for j in range(j_max + 1):
        cj = phi_derivative(phi, j) / math.factorial(j)
        if cj:
            add(j, 0, cj * regint(times_monomial(F, float(j))))
    mono = [(c, a, k) for c, kind, a, k, *_ in F if kind == "mono"]
    for b, beta, k in mono:
        for i in range(k + 1):
            add(-beta - 1, k - i, b * math.comb(k, i) * (-1) ** (k - i) * moment(phi, beta, i))
        n = _negative_integer(beta, -q - 1)
        if n is not None and n < N_DERIVS:
            add(-beta - 1, k + 1, (-1) ** (k + 1) * phi_derivative(phi, n)
                / math.factorial(n) * b / (k + 1))
    if which == "tx":
        return out
    shifted: dict = {}
    for (e, lp), c in out.items():
        shifted[(round(e + 1, 9), lp)] = c
    out = shifted
    for a_coef, alpha, k in mono:
        n = _negative_integer(alpha, -q - 1)
        if n is not None and n < N_DERIVS:
            add(-alpha, k + 1, (-1) ** k * phi_derivative(phi, n)
                / math.factorial(n) * a_coef / (k + 1))
    return out


def separable(terms, p: int) -> dict:
    """Coefficients of sal_separable for exactly separable boundary families."""
    out: dict = {}
    for phi, alpha, k in terms:
        for i in range(k + 1):
            key = (round(alpha, 9), k - i)
            out[key] = out.get(key, 0) + math.comb(k, i) * moment(phi, alpha, i)
        n = _negative_integer(alpha, -float(p))
        if n is not None:
            key = (round(alpha, 9), k + 1)
            out[key] = out.get(key, 0) + phi_derivative(phi, n) / (math.factorial(n) * (k + 1))
    return out


def hankel_eigen(n: int, p: float, x: float) -> float:
    """(-1)^n l_n^(p)(x): l_n^(p) is an eigenfunction of H_p with eigenvalue (-1)^n."""
    with mp.workdps(DPS):
        x = mpf(x)
        return float((-1) ** n * x ** (p + 0.5) * mpmath.exp(-x * x / 2)
                     * mpmath.laguerre(n, p, x * x))


# ---------------------------------------------------------------------------
# Deficiency indices: brute-force signature
# ---------------------------------------------------------------------------


def deficiency(payload: dict) -> dict:
    """(n+, n-, index) from the signature of the Hermitian form i(Gamma x | y)."""
    threshold = payload.get("lambda", 0.5)
    diag = [1.0] * payload["kernel_plus"] + [-1.0] * payload["kernel_minus"]
    planes = sum(e["weight"] for e in payload["positive"] if e["mu"] < threshold)
    dim = len(diag) + 2 * planes
    form = np.zeros((dim, dim), dtype=complex)
    for i, d in enumerate(diag):
        form[i, i] = d
    for j in range(planes):
        i = len(diag) + 2 * j
        form[i, i + 1], form[i + 1, i] = 1j, -1j
    eig = np.linalg.eigvalsh(form) if dim else np.zeros(0)
    n_plus, n_minus = int(np.sum(eig > 0.5)), int(np.sum(eig < -0.5))
    return {"n_plus": n_plus, "n_minus": n_minus,
            "index": payload["kernel_plus"] - payload["kernel_minus"]}
