"""Seeded input generators for the four workloads.

Everything here is plain data (lists, floats, strings) built from
``random.Random``; nothing imports conespec, so the harness can rebuild the
exact inputs a worker ran and compute their oracles in another process.

Each workload has a *pool* of tasks.  Its structure comes from a fixed
stratified sample of each function's domain (the prototypes: which spectrum
kind, how many eigenvalues, which exponents and log powers, which s-plane
region, which request kind).  The run's seed then moves every free
continuous parameter by a small random amount (about 1-2 %, or a few
hundredths in absolute terms; calculus excepted, see JITTER_SCALE), picks
the `verify` seed and rotates the pool.  So two seeds give
different inputs, which no input-keyed cache could share, yet the same mix
of work and of known defects; per-input costs in this package jump
erratically with parameters such as a monomial exponent, and a pool of a
few dozen freely drawn inputs made every end-to-end figure swing by 15-40 %
from seed to seed.

The timed loop cycles through the pool; conespec holds no input-keyed
cache, so a repeat costs what the first run did.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("series", "calculus", "heat", "cli")

# Pool sizes bound the oracle work per run: oracles run once per pool entry.
POOL_SIZE = {"series": 9, "calculus": 24, "heat": 12, "cli": 24}
# Every input of a calculus task reaches scipy's adaptive quad, often on
# integrands that cancel to rounding noise; moving an input by even 1e-6
# relative reroutes the subdivision, so one entry's cost jumps 2-10x and its
# pass/fail flips.  Calculus inputs, and the cli's sal-expand payloads, are
# therefore the same for every seed.
JITTER_SCALE = {"calculus": 0.0}


def pool(workload: str, seed: int) -> list:
    """The task pool of ``workload`` at ``seed``."""
    master = random.Random(f"{workload}:prototypes")
    jitter = _Jitter(random.Random(f"{workload}:{seed}"), JITTER_SCALE.get(workload, 1.0))
    make = _GENERATORS[workload]
    tasks = [make(master, jitter, i) for i in range(POOL_SIZE[workload])]
    start = seed % len(tasks)  # the seed also sets where the loop starts
    return tasks[start:] + tasks[:start]


def warmup_task(workload: str, seed: int):
    """The untimed task a fresh process runs before measuring."""
    master = random.Random(f"{workload}:warmup")
    return _GENERATORS[workload](master, _Jitter(random.Random(f"{workload}:{seed}:warmup")), 0)


class _Jitter:
    """The seed's share of the inputs: small moves of free parameters."""

    def __init__(self, rng: random.Random, scale: float = 1.0):
        self.rng = rng
        self.scale = scale

    def rel(self, x: float, r: float = 0.02) -> float:
        return x * (1.0 + self.scale * self.rng.uniform(-r, r))

    def add(self, x: float, d: float) -> float:
        return x + self.scale * self.rng.uniform(-d, d)

    def alpha(self, a: float) -> float:
        """An exponent; integers stay integers (they select log-correction terms)."""
        return a if a == round(a) else self.add(a, 0.005)


def _sign(rng) -> float:
    return rng.choice((-1.0, 1.0))


def _away(s: complex, points, radius: float = 0.02) -> bool:
    return all(abs(s - p) > radius for p in points)


def _s_proto(m, stratum: int) -> complex:
    """A prototype point with Re s in [-4, 4], |Im s| <= 50.

    Strata: 0 real with Re s < 0, 1 real with Re s > 0, 2 with
    0.5 <= |Im s| <= 5, 3 with 5 <= |Im s| <= 50.
    """
    if stratum == 0:
        return complex(m.uniform(-4.0, 0.0), 0.0)
    if stratum == 1:
        return complex(m.uniform(0.0, 4.0), 0.0)
    if stratum == 2:
        return complex(m.uniform(-4.0, 4.0), _sign(m) * m.uniform(0.5, 5.0))
    return complex(m.uniform(-4.0, 4.0), _sign(m) * m.uniform(5.0, 50.0))


def _s_point(s: complex, j: _Jitter, avoid) -> list:
    """The prototype moved by the seed, kept 0.02 off the given poles.

    Poles that move with the seed can close every gap within 0.03 of a
    prototype; the search then widens in steps of 0.03.
    """
    for attempt in range(1000):
        z = complex(j.add(s.real, 0.03 * (1 + attempt // 50)), j.rel(s.imag))
        if _away(z, avoid):
            return [z.real, z.imag]
    raise ValueError(f"no point near {s} clears the poles")


# ---------------------------------------------------------------------------
# series: operator zeta and eta functions over cross-section spectra
# ---------------------------------------------------------------------------

_HALF_INTEGER_POLES = [0.5 - n for n in range(6)]
_GAMMA_POLES = [float(-n) for n in range(6)]
_ETA_POLES = _HALF_INTEGER_POLES + _GAMMA_POLES + [(2.0 - k) / 2.0 for k in range(24)]


def _tail_exponent(m) -> float:
    # exponent 2 (the circle family) a quarter of the time; otherwise 0.05
    # above it, away from a fold pole next to s = 0.  Below 2 the oracle's
    # exact head grows past a few thousand terms.
    if m.random() < 0.25:
        return 2.0
    return m.uniform(2.05, 3.0)


def _cross_spectrum(m, j: _Jitter, tail_kind: str, size: float) -> dict:
    """A tail plus 0-40 explicit eigenvalues; ``size`` in [0, 1) sets how many."""
    scale = j.rel(m.uniform(0.5, 3.0))
    exponent = _tail_exponent(m)
    tail = {"kind": tail_kind, "scale": scale, "exponent": exponent}
    first = 1.0
    if tail_kind == "hurwitz":
        first = tail["a"] = j.rel(m.uniform(0.3, 2.5))
    negative_below = m.choice((0.0, m.uniform(0.2, 1.0)))
    n_data = int(41 * size)
    n_matched = m.randint(0, n_data)
    data = [[(first + k) ** exponent, scale] for k in range(n_matched)]  # also in the tail
    for _ in range(n_data - n_matched):  # eigenvalues beyond the tail
        data.append([j.rel(m.uniform(0.05, 40.0)), j.rel(m.uniform(0.5, 2.0))])
    m.shuffle(data)
    return {"data": data, "tail": tail, "negative_below": negative_below}


def _cross_poles(spec: dict) -> list:
    e = spec["tail"]["exponent"]
    poles = list(_HALF_INTEGER_POLES)
    poles += [(2.0 / e + 1.0 - k) / 2.0 for k in range(24)]
    for lam, _w in spec["data"]:
        root = math.sqrt(lam)
        p = -root if lam < spec["negative_below"] else root
        poles += [p + 1.0 + n for n in range(6)]
    return poles


def _first_order(m, j: _Jitter, family: str) -> dict:
    s_data = [[j.add(m.uniform(-3.0, -0.02), 0.01), m.choice((1.0, 2.0))]
              for _ in range(m.randint(0, 3))]
    if m.random() < 0.5:
        s_data.append([0.0, m.choice((1.0, 2.0))])  # kernel
    out = {"family": family, "s_data": s_data}
    if family == "finite":
        s_data += [[j.add(m.uniform(0.02, 3.0), 0.01), m.choice((1.0, 2.0))]
                   for _ in range(m.randint(1, 4))]
    elif family == "shifted":
        out["a"] = j.rel(m.uniform(0.6, 2.0))
    return out


def _series_task(m, j: _Jitter, i: int) -> dict:
    kind = ("riemann", "hurwitz", "finite", "riemann", "hurwitz", "shifted",
            "riemann", "hurwitz", "power")[i % 9]
    if kind in ("riemann", "hurwitz"):
        # spectrum size is the main cost driver: one draw per ninth of [0, 40]
        spec = _cross_spectrum(m, j, kind, (((5 * i) % 9) + m.random()) / 9)
        protos = [_s_proto(m, st) for st in range(4)]
        avoid = _cross_poles(spec)
        return {"kind": "cross", "spectrum": spec, "s": [_s_point(s, j, avoid) for s in protos]}
    spec = _first_order(m, j, kind)
    protos = [_s_proto(m, m.randint(0, 1)), _s_proto(m, 2 + (i // 9) % 2)]
    return {"kind": "first", "spectrum": spec, "s": [_s_point(s, j, _ETA_POLES) for s in protos]}


# ---------------------------------------------------------------------------
# calculus: the regularized calculus on stock expandable functions
# ---------------------------------------------------------------------------


def _alpha(m, j: _Jitter, lo: float = -3.0, hi: float = 2.0) -> float:
    if m.random() < 0.35:
        return float(m.randint(math.ceil(lo), math.floor(hi)))
    return j.alpha(m.uniform(lo, hi))


def _piece(m, j: _Jitter, kinds) -> list:
    kind = m.choice(kinds)
    c = j.rel(m.uniform(0.5, 2.0)) * _sign(m)
    if kind in ("mono", "cut"):
        return [kind, _alpha(m, j), m.randint(0, 2), c]
    if kind in ("exp", "gauss"):
        return [kind, c]
    if kind == "resc":
        return ["resc", j.rel(m.uniform(0.4, 2.8)), _piece(m, j, ("mono", "cut", "exp", "gauss"))]
    if kind == "resc_smooth":
        return ["resc", j.rel(m.uniform(0.4, 2.8)), _piece(m, j, ("exp", "gauss"))]
    return ["fuchs", _piece(m, j, ("exp", "gauss"))]


def _calculus_task(m, j: _Jitter, i: int) -> dict:
    # discrete choices cycle with the task index, so every pool holds the
    # same mix of them
    f = [_piece(m, j, ("mono", "cut", "exp", "gauss", "resc", "fuchs")) for _ in range(1 + i % 3)]
    if i % 2 == 0:
        F = [["mono", _alpha(m, j, -3.0, 0.5), m.randint(0, 1), j.rel(m.uniform(0.5, 2.0))]
             for _ in range(1 + (i // 8) % 2)]
    else:
        F = [["exp", 1.0], ["mono", _alpha(m, j, -3.0, 0.5), m.randint(0, 1), 1.0]]
    sep_terms, seen = [], set()
    p_sep = 1 + i % 3
    for _ in range(1 + (i // 3) % 2):
        a = _alpha(m, j, -p_sep - 0.9, 1.0)
        k = m.randint(0, 1)
        if (a, k) not in seen:
            seen.add((a, k))
            sep_terms.append([m.choice(("exp", "gauss")), a, k])
    g = [_piece(m, j, ("exp", "gauss", "resc_smooth", "fuchs")) for _ in range(1 + (i // 5) % 2)]
    tau = m.uniform(0.0, 5.0) if (i // 4) % 2 == 0 else m.uniform(5.0, 40.0)
    return {
        "f": f,
        "c": j.rel(m.uniform(0.3, 1.9)),
        "lam": j.rel(m.uniform(0.4, 2.8)),
        "expand": {
            "which": ("tx", "x_over_t")[(i // 2) % 2],
            "phi": m.choice(("exp", "gauss")),
            "F": F,
            "q": 2 + (i // 4) % 4,
        },
        "sep": {"terms": sep_terms, "p": p_sep},
        "mellin": {"g": g, "z": [j.add(m.uniform(0.3, 3.0), 0.02), j.rel(_sign(m) * tau)]},
        "hankel": {"n": m.randint(0, 4), "p": j.add(m.uniform(-0.4, 12.0), 0.02),
                   "x": j.rel(m.uniform(0.2, 4.0))},
    }


# ---------------------------------------------------------------------------
# heat: pointwise kernels on grids and one fitted heat trace
# ---------------------------------------------------------------------------


def _lp_poles(p: float) -> list:
    """Poles and zeros of zeta-hat(L_p) in s (zeros make relative error meaningless)."""
    return (_HALF_INTEGER_POLES + _GAMMA_POLES + [p + 1.0 + n for n in range(8)]
            + [-p - n for n in range(8)])


def _heat_task(m, j: _Jitter, i: int) -> dict:
    ps = [j.rel(m.uniform(lo, hi), 0.01)
          for lo, hi in ((-0.9, 2.0), (2.0, 10.0), (10.0, 30.0), (30.0, 60.0))]
    avoid = sum((_lp_poles(p) for p in ps), [])
    ss = [_s_point(_s_proto(m, st), j, avoid) for st in range(4)]
    kernel = []
    for k in range(8):
        p = m.uniform(0.0, 10.0) if k % 2 == 0 else m.uniform(10.0, 60.0)
        t = 10.0 ** m.uniform(-3.0, 0.0)
        kernel.append([j.rel(p, 0.01), j.rel(t), j.rel(m.uniform(0.3, 3.0)),
                       j.rel(m.uniform(0.3, 3.0))])
    # spectrum size drives the cost: one draw per twelfth of [10, 200] (log scale)
    slot = ((5 * i) % 12 + m.random()) / 12
    n_eig = int(round(10.0 ** (1.0 + slot * math.log10(20.0))))
    orders = [m.uniform(0.05, 50.0) for _ in range(n_eig - 1)]
    orders.append(m.uniform(50.0, 60.0))  # Bessel orders reach 50
    spectrum = [[j.rel(p, 0.01) ** 2, m.choice((1.0, 2.0))] for p in orders]
    return {
        "zgrid": {"p": ps, "s": ss},
        "kernel": kernel,
        "spectrum": spectrum,
        "trace_t": [j.rel(10.0 ** m.uniform(-4.0, -1.0)) for _ in range(2)],
        "phi_moments": [j.rel(m.uniform(0.5, 2.0)) for _ in range(4)],
    }


# ---------------------------------------------------------------------------
# cli: one request per task, through conespec.cli.main
# ---------------------------------------------------------------------------

_CLI_KINDS = (
    "zeta-lp", "zeta-op", "deficiency", "eta", "sal-expand", "zeta-lp-grid",
    "zeta-lp", "zeta-op", "deficiency", "eta", "heat-trace", "verify",
)


def _cli_task(m, j: _Jitter, i: int) -> dict:
    kind = _CLI_KINDS[i % len(_CLI_KINDS)]
    alt = (i // len(_CLI_KINDS)) % 2  # alternates the --in route and the eta tail
    fmt = ("json", "csv")[(i // 2) % 2]
    if kind == "zeta-lp":
        p = j.add(m.uniform(-0.9, 30.0), 0.01)
        s = _s_point(_s_proto(m, m.randint(0, 3)), j, _lp_poles(p))
        argv = ["zeta-lp", "--p", repr(p), "--s-re", repr(s[0]), "--s-im", repr(s[1]),
                "--format", fmt]
        return {"kind": kind, "argv": argv, "p": p, "s": s, "format": fmt}
    if kind == "zeta-lp-grid":
        n = m.randint(2000, 5000) if (i // 12) % 2 == 0 else m.randint(15000, 20000)
        n = int(j.rel(n, 0.01))
        lo = j.add(m.uniform(-0.9, 5.0), 0.01)
        hi = j.rel(lo + m.uniform(5.0, 40.0))
        s = [j.add(m.uniform(1.05, 3.9), 0.01), j.rel(_sign(m) * m.uniform(0.5, 5.0))]
        argv = ["zeta-lp", "--s-re", repr(s[0]), "--s-im", repr(s[1]),
                "--grid", f"p={lo!r}:{hi!r}:{n}", "--format", fmt, "--out", "@out"]
        return {"kind": kind, "argv": argv, "grid": [lo, hi, n], "s": s, "format": fmt}
    if kind == "zeta-op":
        spec = _cross_spectrum(m, j, m.choice(("riemann", "hurwitz")), m.random())
        spec["data"] = spec["data"][:8]
        poles = _cross_poles(spec)
        s = _s_point(_s_proto(m, m.randint(0, 2)), j, poles)
        payload = {
            "spectrum": {
                "data": [{"lambda": lam, "weight_re": w} for lam, w in spec["data"]],
                "tail": spec["tail"],
                "p_choice": {"negative_below": spec["negative_below"]},
            },
            "s_re": s[0], "s_im": s[1],
        }
        return _with_payload(kind, ["zeta-op", "--format", fmt], payload, alt, fmt)
    if kind == "deficiency":
        payload = {
            "kernel_plus": m.randint(0, 4),
            "kernel_minus": m.randint(0, 4),
            "positive": [{"mu": j.rel(m.uniform(0.05, 1.2)), "weight": m.randint(1, 3)}
                         for _ in range(m.randint(0, 5))],
            "lambda": 0.5,
        }
        return _with_payload(kind, ["deficiency", "--format", fmt], payload, alt, fmt)
    if kind == "eta":
        s_data = [[j.add(m.uniform(-3.0, 3.0), 0.01), m.choice((1.0, 2.0))]
                  for _ in range(m.randint(1, 5))]
        payload = {"s_data": [{"lambda": mu, "weight_re": w} for mu, w in s_data]}
        if alt:
            # the whole spectrum {n + a}; its eigenvalue in (-1/2, 0), if any, is
            # listed as data too, as the kernel and small-eigenvalue terms read data
            a = j.add(m.uniform(0.05, 0.95), 0.005)
            payload["eta_tail"] = {"kind": "shifted-integer", "a": a}
            if a > 0.5:
                payload["s_data"].append({"lambda": a - 1.0, "weight_re": 1.0})
        else:
            s = _s_point(_s_proto(m, m.randint(0, 2)), j, _ETA_POLES)
            payload["s_re"], payload["s_im"] = s
        return _with_payload(kind, ["eta", "--format", fmt], payload, alt, fmt)
    if kind == "sal-expand":
        fixed = _Jitter(j.rng, JITTER_SCALE["calculus"])
        fams = [{"alpha": _alpha(m, fixed, -3.0, 0.5), "k": m.randint(0, 1),
                 "coef": fixed.rel(m.uniform(0.5, 2.0))} for _ in range(m.randint(1, 2))]
        payload = {"phi": m.choice(("exp", "gauss")), "families": fams,
                   "order": m.randint(2, 5)}
        return _with_payload(kind, ["sal-expand"], payload, alt, "json")
    if kind == "heat-trace":
        data = [{"lambda": j.rel(m.uniform(0.05, 60.0), 0.01) ** 2, "weight_re": 1.0}
                for _ in range(m.randint(2, 12))]
        payload = {"spectrum": {"data": data}, "nu": 2.0, "mu": 2.0, "m": 1,
                   "phi_moments": [j.rel(m.uniform(0.5, 2.0)) for _ in range(4)]}
        return _with_payload(kind, ["heat-trace"], payload, alt, "json")
    return {"kind": "verify", "argv": ["verify", "--seed", str(j.rng.randint(0, 10**6))],
            "format": "json"}


def _with_payload(kind: str, argv: list, payload: dict, from_file: int, fmt: str) -> dict:
    argv = argv + ["--in", "@in" if from_file else "@inline"]
    return {"kind": kind, "argv": argv, "payload": payload, "format": fmt}


_GENERATORS = {
    "series": _series_task,
    "calculus": _calculus_task,
    "heat": _heat_task,
    "cli": _cli_task,
}
