"""Check encoded conespec outputs against the oracles.

``Checker(workload, pool).check(k, outputs)`` returns ``[(operation, ok)]``
for task ``k`` of the pool.  An operation fails if it raised, returned a
non-finite value, or missed its oracle by more than the acceptance suite's
tolerance for that kind of result.  Output of the wrong shape (a missing
operation, an unknown one) raises ``CheckError``: the benchmark stops rather
than count what it cannot read.

Tolerances (acceptance test that sets each in brackets):
  relative 1e-6  zeta_hat_operator, eta_function_scalable       [07]
  relative 1e-8  zeta_hat_lp and Gamma ratios; mellin_transform [08, 03]
  absolute 1e-8  heat_kernel_lp, per eigenvalue of k_trace       [06]
  absolute 1e-6  residues_at_zero Res_0 and its laurent_fit      [verify]
  absolute 1e-8  residues_at_zero Res_1                          [09]
  absolute 1e-5  eta_hat_residues and its laurent_fit            [09]
  rel/abs 1e-8   regularized integrals, partials, scale rule    [02]
  absolute 1e-12 the same for pure global monomials             [01]
  absolute 1e-9  small-parameter expansion coefficients          [04]
  absolute 1e-6  hankel_transform                                [05]
  0.5 %          fitted heat-trace coefficients                  [10]
  exact          deficiency indices                              [11]
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

import numpy as np
import scipy.special as sps

import oracles as O


class CheckError(Exception):
    """Output the checker cannot read, so cannot count."""


class _Raised(Exception):
    """The operation raised, or its output does not parse: a counted failure."""


def _c(v) -> complex:
    if isinstance(v, dict):
        raise _Raised(v["error"])
    return complex(v[0], v[1])


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _rel(got: complex, want: complex, tol: float) -> bool:
    return _finite(got) and abs(got - want) <= tol * abs(want)


def _abs(got: complex, want: complex, tol: float) -> bool:
    return _finite(got) and abs(got - want) <= tol


def _approx(got: complex, want: complex, tol: float) -> bool:
    return _finite(got) and abs(got - want) <= max(tol * abs(want), tol)


def _terms(report) -> dict:
    """{(exponent, log power): summed coefficient} of an encoded report."""
    if isinstance(report, dict) and "error" in report:
        raise _Raised(report["error"])
    out: dict = {}
    for re_e, im_e, lp, re_c, im_c in report["terms"]:
        if abs(im_e) > 1e-12:
            raise CheckError("complex exponent in a real expansion")
        key = (round(re_e, 9), lp)
        out[key] = out.get(key, 0) + complex(re_c, im_c)
    return out


def _same_terms(got: dict, want: dict, tol: float) -> bool:
    return all(_abs(got.get(key, 0j), want.get(key, 0j), tol) for key in set(got) | set(want))


class Checker:
    def __init__(self, workload: str, pool: list):
        self.workload = workload
        self.pool = pool
        self._oracles: dict = {}

    def oracle(self, k: int):
        if k not in self._oracles:
            self._oracles[k] = getattr(self, f"_oracle_{self.workload}")(self.pool[k])
        return self._oracles[k]

    def check(self, k: int, outputs: list) -> list:
        want = self.oracle(k)
        names = [name for name, _ in outputs]
        if names != [name for name, _ in want["ops"]]:
            raise CheckError(f"task {k}: operations {names} do not match the task")
        verdicts = []
        for (name, got), (_, rule) in zip(outputs, want["ops"]):
            try:
                ok = bool(rule(got))
            except _Raised:
                ok = False
            verdicts.append((name, ok))
        return verdicts

    # -- series ------------------------------------------------------------

    def _oracle_series(self, task: dict) -> dict:
        points = [complex(*s) for s in task["s"]]
        ops = []
        if task["kind"] == "cross":
            spec = O.cross_spectrum(task["spectrum"])
            for s in points:
                v = O.zeta_hat(spec, s)
                ops.append(("zeta_hat_operator", lambda g, v=v: _rel(_c(g), v, 1e-6)))
            r1, r0 = O.gamma_zeta_hat_residues(spec)
            ops.append(("residues_at_zero",
                        lambda g: _abs(_c(g[0]), r1, 1e-8) and _abs(_c(g[1]), r0, 1e-6)))
            ops.append(("laurent_fit",
                        lambda g: _abs(_c(g[0]), r1, 1e-6) and _abs(_c(g[1]), r0, 1e-6)))
        else:
            plus, minus = O.first_order_spectra(task["spectrum"])
            for s in points:
                v = O.eta_hat(plus, minus, s)
                ops.append(("eta_function_scalable", lambda g, v=v: _rel(_c(g), v, 1e-6)))
            r1, r0 = O.eta_hat_residues(plus, minus)
            for name in ("eta_hat_residues", "laurent_fit"):
                ops.append((name, lambda g: _abs(_c(g[0]), r1, 1e-5) and _abs(_c(g[1]), r0, 1e-5)))
        return {"ops": ops}

    # -- calculus ----------------------------------------------------------

    def _oracle_calculus(self, task: dict) -> dict:
        f = O.atoms(task["f"])
        mono_only = all(a[1] == "mono" for a in f)
        close = (lambda g, w: _abs(_c(g), w, 1e-12)) if mono_only \
            else (lambda g, w: _approx(_c(g), w, 1e-8))
        total = O.regint(f)
        tail = O.regint_tail(f, task["c"])
        scaled = O.regint(O.rescale(f, task["lam"]))
        ex = task["expand"]
        expansion = O.expand_phi(ex["phi"], ex["F"], float(ex["q"]), ex["which"])
        separable = O.separable(task["sep"]["terms"], task["sep"]["p"])
        m = O.mellin(O.atoms(task["mellin"]["g"]), complex(*task["mellin"]["z"]))
        h = task["hankel"]
        hankel = O.hankel_eigen(h["n"], h["p"], h["x"])
        return {"ops": [
            ("regularized_integral", lambda g: close(g, total)),
            ("partial_zero_to_c", lambda g: close(g, total - tail)),
            ("partial_c_to_inf", lambda g: close(g, tail)),
            ("scale_rule", lambda g: close(g, scaled)),
            ("expand_phi_" + ex["which"], lambda g: _same_terms(_terms(g), expansion, 1e-9)),
            ("sal_separable", lambda g: _same_terms(_terms(g), separable, 1e-9)),
            ("mellin_transform", lambda g: _rel(_c(g), m, 1e-8)),
            ("hankel_transform", lambda g: _abs(_c(g), hankel, 1e-6)),
        ]}

    # -- heat --------------------------------------------------------------

    def _oracle_heat(self, task: dict) -> dict:
        ops = []
        for p in task["zgrid"]["p"]:
            for s in task["zgrid"]["s"]:
                v = O.zeta_hat_lp(p, complex(*s))
                ops.append(("zeta_hat_lp", lambda g, v=v: _rel(_c(g), v, 1e-8)))
        for p, t, x, y in task["kernel"]:
            v = O.heat_kernel_lp(p, t, x, y)
            ops.append(("heat_kernel_lp", lambda g, v=v: _abs(_c(g), v, 1e-8)))
        pairs = task["spectrum"]
        weight = sum(abs(w) for _lam, w in pairs)
        for t in task["trace_t"]:
            v = O.k_trace(pairs, t)
            ops.append(("k_trace_operator", lambda g, v=v: _abs(_c(g), v, 1e-8 * weight)))
        lead = O.heat_trace_leading(pairs)
        phi = task["phi_moments"]
        ops.append(("heat_trace_expansion",
                    lambda g: _heat_trace_ok(_terms(g), lead, phi, weight)))
        return {"ops": ops}

    # -- cli ---------------------------------------------------------------

    def _oracle_cli(self, task: dict) -> dict:
        kind = task["kind"]
        rule = getattr(self, "_cli_" + kind.replace("-", "_"))(task)

        def ok(g):
            if g["exit"] != 0:
                return False
            try:
                return rule(_parse(g["out"], task["format"]))
            except (KeyError, IndexError, TypeError, ValueError):  # malformed output
                return False

        return {"ops": [("cli." + kind, ok)]}

    def _cli_zeta_lp(self, task):
        v = O.zeta_hat_lp(task["p"], complex(*task["s"]))
        return lambda rows: len(rows) == 1 and _echo(rows[0], task["p"], task["s"]) \
            and _rel(complex(rows[0]["value_re"], rows[0]["value_im"]), v, 1e-8)

    def _cli_zeta_lp_grid(self, task):
        lo, hi, n = task["grid"]
        s = complex(*task["s"])
        sample = random.Random(repr(task["grid"])).sample(range(n), 16)

        def ok(rows):
            if len(rows) != n or any(r["s_re"] != s.real or r["s_im"] != s.imag for r in rows):
                return False
            p = np.array([r["p"] for r in rows])
            if not np.all(np.abs(p - np.linspace(lo, hi, n)) <= 1e-12 * np.maximum(1, np.abs(p))):
                return False
            got = np.array([complex(r["value_re"], r["value_im"]) for r in rows])
            # every point against the double-precision closed form, and a
            # seeded sample against mpmath
            double = np.exp(sps.loggamma(s - 0.5) + sps.loggamma(p + 1 - s)
                            - sps.loggamma(s) - sps.loggamma(p + s)) / (2 * math.sqrt(math.pi))
            if not (np.all(np.isfinite(got)) and np.all(np.abs(got - double) <= 1e-8 * np.abs(double))):
                return False
            return all(_rel(got[i], O.zeta_hat_lp(p[i], s), 1e-8) for i in sample)

        return ok

    def _cli_zeta_op(self, task):
        spec = task["payload"]["spectrum"]
        plain = {"data": [[d["lambda"], d["weight_re"]] for d in spec["data"]],
                 "tail": spec["tail"], "negative_below": spec["p_choice"]["negative_below"]}
        s = complex(task["payload"]["s_re"], task["payload"]["s_im"])
        v = O.zeta_hat(O.cross_spectrum(plain), s)
        return lambda rows: len(rows) == 1 and math.isfinite(rows[0]["error_estimate"]) \
            and _rel(complex(rows[0]["value_re"], rows[0]["value_im"]), v, 1e-6)

    def _cli_eta(self, task):
        payload = task["payload"]
        s_data = [[d["lambda"], d["weight_re"]] for d in payload["s_data"]]
        tail = payload.get("eta_tail")
        spec = {"family": "two-sided", "a": tail["a"], "s_data": s_data} if tail \
            else {"family": "finite", "s_data": s_data}
        plus, minus = O.first_order_spectra(spec)
        r1, r0 = O.eta_hat_residues(plus, minus)
        v = O.eta_hat(plus, minus, complex(payload["s_re"], payload["s_im"])) \
            if "s_re" in payload else None

        def ok(rows):
            row = rows[0]
            if len(rows) != 1 or not (_abs(complex(row["res1_re"], row["res1_im"]), r1, 1e-5)
                                      and _abs(complex(row["res0_re"], row["res0_im"]), r0, 1e-5)):
                return False
            return v is None or _rel(complex(row["value_re"], row["value_im"]), v, 1e-6)

        return ok

    def _cli_heat_trace(self, task):
        payload = task["payload"]
        pairs = [[d["lambda"], d["weight_re"]] for d in payload["spectrum"]["data"]]
        lead = O.heat_trace_leading(pairs)
        weight = sum(abs(w) for _lam, w in pairs)

        def ok(rows):
            report = {"terms": [[t["re_exp"], t["im_exp"], t["log_pow"], t["re_coef"], t["im_coef"]]
                                for t in rows[0]["terms"]]}
            return _heat_trace_ok(_terms(report), lead, payload["phi_moments"], weight)

        return ok

    def _cli_deficiency(self, task):
        want = O.deficiency(task["payload"])
        return lambda rows: len(rows) == 1 and all(rows[0][key] == v for key, v in want.items())

    def _cli_sal_expand(self, task):
        payload = task["payload"]
        F = [["mono", f["alpha"], f.get("k", 0), f.get("coef", 1.0)] for f in payload["families"]]
        want = O.expand_phi(payload["phi"], F, float(payload["order"]), "tx")

        def ok(rows):
            report = {"terms": [[t["re_exp"], t["im_exp"], t["log_pow"], t["re_coef"], t["im_coef"]]
                                for t in rows[0]["terms"]]}
            return _same_terms(_terms(report), want, 1e-9)

        return ok

    def _cli_verify(self, task):
        return lambda rows: len(rows) == 11 and all(
            r["status"] == "pass" and r["residual"] <= r["tol"] for r in rows)


def _heat_trace_ok(got: dict, lead: dict, phi, weight: float) -> bool:
    """t^(-1/2) and constant coefficients within 0.5 %, log t within 0.005 per unit weight.

    With b_1 = 0 the constant is Res_0 / nu alone and the log t term vanishes.
    """
    nu = 2.0
    return (_rel(got.get((-0.5, 0), 0j), lead["b0"] * phi[0], 0.005)
            and _rel(got.get((0.0, 0), 0j), lead["res0"] / nu, 0.005)
            and _abs(got.get((0.0, 1), 0j), 0j, 0.005 * weight))


def _echo(row: dict, p: float, s) -> bool:
    return row["p"] == p and row["s_re"] == s[0] and row["s_im"] == s[1]


def _strict_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _parse(text: str, fmt: str) -> list:
    """Rows of strict JSON or CSV output; NaN or inf fail the request."""
    try:
        if fmt == "json":
            obj = json.loads(text, parse_constant=_strict_constant)
            return obj if isinstance(obj, list) else [obj]
        rows = list(csv.DictReader(io.StringIO(text)))
        out = []
        for r in rows:
            parsed = {}
            for key, v in r.items():
                x = float(v)
                if not math.isfinite(x):
                    raise ValueError(f"non-finite CSV field {key}={v}")
                parsed[key] = int(v) if v.lstrip("-").isdigit() else x
            out.append(parsed)
        return out
    except ValueError:
        raise _Raised("unparseable output")
