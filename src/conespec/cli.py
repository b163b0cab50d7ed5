"""Command-line surface: data ingestion, dispatch, emission, verification.

Exit codes: 0 success, 2 schema/input violations, 3 numerical
non-convergence, 4 internal oracle mismatch in verify mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from . import cone, deficiency, expansions, mellin, sal, specfun
from .cone import ConeError
from .deficiency import DeficiencyError
from .mellin import MellinError
from .sal import SalError
from .specfun import HankelConvergenceError, SpecfunError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NONCONVERGENCE = 3
EXIT_ORACLE = 4


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


class NonFiniteResultError(Exception):
    """A computed result holds NaN or inf; reported as non-convergence."""


def _fmt_num(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        if not math.isfinite(v):
            raise NonFiniteResultError(f"result holds the non-finite value {v}")
        return format(v, ".16e")
    return str(v)


def _csv_text(obj) -> str:
    rows = obj if isinstance(obj, list) else [obj]
    keys: list[str] = []
    for r in rows:
        for k in sorted(r):
            if k not in keys:
                keys.append(k)
    lines = [",".join(keys)]
    lines += [",".join(_fmt_num(r.get(k, "")) for k in keys) for r in rows]
    return "\n".join(lines) + "\n"


def _emit(obj, args) -> None:
    """Serialize in full first, so a refused result leaves no --out file."""
    if args.format == "csv":
        text = _csv_text(obj)
    else:
        try:
            text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise NonFiniteResultError(f"result holds non-finite values ({exc})") from None
    _write(text, args)


def _emit_table(columns: dict, args) -> None:
    """Emit a table given column by column, with the bytes `_emit` writes for
    the list of its row dicts.

    A column is a float shared by every row, formatted once, or a float
    array with one entry per row; at least one column is an array.  Cells
    are formatted from Python floats: JSON takes float.__repr__ as `json`
    does, and a numpy scalar would print its type.
    """
    csv = args.format == "csv"
    cell = (lambda v: format(v, ".16e")) if csv else float.__repr__
    fields, varying = [], []
    for key in sorted(columns):
        col = columns[key]
        if not np.isfinite(col).all():
            raise NonFiniteResultError(f"result holds non-finite values in {key}")
        if isinstance(col, float):
            text = cell(col)
        else:
            varying.append(list(map(cell, col.tolist())))
            text = "%s"
        fields.append(text if csv else f'    "{key}": {text}')
    if csv:
        row = ",".join(fields)
        text = "\n".join([",".join(sorted(columns))] + [row % cells for cells in zip(*varying)])
    else:
        row = "  {\n" + ",\n".join(fields) + "\n  }"
        text = "[\n" + ",\n".join(row % cells for cells in zip(*varying)) + "\n]"
    _write(text + "\n", args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


def _json_int(text: str) -> int:
    """A JSON integer; one beyond the float range is an input error, not an
    overflow of the float() that would read it."""
    n = int(text)
    if abs(n) > sys.float_info.max:
        raise ValueError(f"integer of {len(text)} digits is beyond the float range")
    return n


def _load_payload(args) -> dict:
    if not getattr(args, "infile", None):
        return {}
    text = args.infile
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    payload = json.loads(text, parse_int=_json_int)
    if not isinstance(payload, dict):
        raise ValueError(f"--in must hold a JSON object, not {type(payload).__name__}")
    return payload


def _pick(args, payload: dict, flag: str, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    v = getattr(args, flag, None)
    if v is not None:
        return v
    return payload.get(key, default)


def _int_input(value, name: str) -> int:
    """An integer input; a non-finite or fractional number is an input error,
    neither an overflow nor truncated, and so is a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be finite and integral, not {value}")
    return int(value)


def _complex_s(args, payload) -> complex:
    s_re = _pick(args, payload, "s_re", "s_re", 1.0)
    s_im = _pick(args, payload, "s_im", "s_im", 0.0)
    s = complex(float(s_re), float(s_im))
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"s must be finite, not {s}")
    return s


def _parse_grid(spec: str):
    """name=start:stop:count, inclusive linear grid start + i*step as an array."""
    name, _, rng = spec.partition("=")
    parts = rng.split(":")
    if not name or len(parts) != 3:
        raise ValueError(f"bad grid spec {spec!r}; expected name=start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if count == 1:
        return name, np.array([start])
    step = (stop - start) / (count - 1)
    with np.errstate(all="ignore"):  # zeta_hat_lp refuses a non-finite point
        return name, start + np.arange(count) * step


def _check_tol(tol: Optional[float]) -> None:
    if tol is not None and not (1e-12 <= tol <= 1e-4):
        raise ValueError("tolerance must lie in [1e-12, 1e-4]")


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------


def _phi_test_function(name: str) -> sal.TestFunction:
    if name == "exp":
        return sal.TestFunction(
            evaluator=lambda x: math.exp(-x),
            derivatives_at_zero=tuple((-1.0) ** j for j in range(13)),
        )
    if name == "gauss":
        derivs = []
        for j in range(13):
            if j % 2:
                derivs.append(0.0)
            else:
                m = j // 2
                derivs.append((-1.0) ** m * math.factorial(2 * m) / math.factorial(m))
        return sal.TestFunction(
            evaluator=lambda x: math.exp(-x * x),
            derivatives_at_zero=tuple(derivs),
        )
    raise ValueError(f"unknown test function {name!r}; use 'exp' or 'gauss'")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_zeta_lp(args, payload: dict) -> int:
    s = _complex_s(args, payload)
    p_default = _pick(args, payload, "p", "p")
    if args.grid:
        name, values = _parse_grid(args.grid)
        if name == "p":
            vals = cone.zeta_hat_lp(values, s)
            columns = {"p": values, "s_re": s.real}
        elif name in ("s-re", "s_re"):
            if p_default is None:
                raise ValueError("--p is required")
            p = float(p_default)
            # set part by part: v + 1j*s_im would lose the sign of s_im = -0.0
            ss = np.empty(len(values), dtype=complex)
            ss.real, ss.imag = values, s.imag
            vals = cone.zeta_hat_lp(p, ss)
            columns = {"p": p, "s_re": values}
        else:
            raise ValueError(f"zeta-lp grids run over 'p' or 's-re', not {name!r}")
        _emit_table({**columns, "s_im": s.imag, "value_re": vals.real, "value_im": vals.imag},
                    args)
        return EXIT_OK
    if p_default is None:
        raise ValueError("--p is required")
    p = float(p_default)
    v = cone.zeta_hat_lp(p, s)
    _emit({"p": p, "s_re": s.real, "s_im": s.imag, "value_re": v.real, "value_im": v.imag},
          args)
    return EXIT_OK


def _cmd_zeta_op(args, payload: dict) -> int:
    spec_json = payload["spectrum"] if "spectrum" in payload else payload
    spec = cone.CrossSectionSpectrum.from_json_dict(spec_json)
    s = _complex_s(args, payload)
    order = _int_input(_pick(args, payload, "order", "order", 6), "order")
    rep = cone.zeta_hat_operator_report(spec, s, order=order)
    v = rep["value"]
    _emit(
        {
            "s_re": s.real,
            "s_im": s.imag,
            "value_re": v.real,
            "value_im": v.imag,
            "error_estimate": rep["error_estimate"],
        },
        args,
    )
    return EXIT_OK


def _cmd_eta(args, payload: dict) -> int:
    spec = cone.FirstOrderSpectrum.from_json_dict(payload)
    res1, res0 = cone.eta_hat_residues(spec)
    out = {
        "res1_re": res1.real,
        "res1_im": res1.imag,
        "res0_re": res0.real,
        "res0_im": res0.imag,
    }
    if args.s_re is not None or args.s_im is not None or "s_re" in payload:
        s = _complex_s(args, payload)
        v = cone.eta_function_scalable(spec, s)
        out.update(
            {"s_re": s.real, "s_im": s.imag, "value_re": v.real, "value_im": v.imag}
        )
    _emit(out, args)
    return EXIT_OK


def _cmd_heat_trace(args, payload: dict) -> int:
    spec = cone.CrossSectionSpectrum.from_json_dict(payload["spectrum"])
    nu = float(payload.get("nu", 2.0))
    mu = float(payload.get("mu", 2.0))
    m = _int_input(payload.get("m", 1), "m")
    phi_moments = [complex(v) for v in payload["phi_moments"]]
    b_coeffs = payload.get("b_coeffs")
    if b_coeffs is not None:
        b_coeffs = [complex(v) for v in b_coeffs]
    report = cone.heat_trace_expansion(spec, nu, mu, m, phi_moments, b_coeffs)
    _emit(report.to_json_dict(), args)
    return EXIT_OK


def _cmd_deficiency(args, payload: dict) -> int:
    g = deficiency.GradedSpectrum.from_json_dict(payload)
    n_plus, n_minus = deficiency.deficiency_indices(g)
    if g.fredholm and n_plus != n_minus:
        raise ValueError(
            "input declared Fredholm but deficiency indices differ: "
            f"{n_plus} != {n_minus}"
        )
    idx = deficiency.index_a_eps(g)
    _emit(
        {
            "n_plus": deficiency._num_out(n_plus),
            "n_minus": deficiency._num_out(n_minus),
            "index": deficiency._num_out(idx),
        },
        args,
    )
    return EXIT_OK


def _cmd_sal_expand(args, payload: dict) -> int:
    phi = _phi_test_function(payload.get("phi", "exp"))
    fams = payload.get("families", [])
    if not fams:
        raise ValueError("families must be a nonempty list")
    F = None
    for fam in fams:
        piece = expansions.scale_function(
            expansions.global_monomial(
                complex(fam["alpha"]), _int_input(fam.get("k", 0), "k")
            ),
            complex(fam.get("coef", 1.0)),
        )
        F = piece if F is None else expansions.add_functions(F, piece)
    order = _pick(args, payload, "order", "order")
    q = float(order) if order is not None else None
    report = sal.expand_phi_tx(phi, F, q)
    _emit(report.to_json_dict(), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------


def _verify_checks(seed: int):
    rng = random.Random(seed)
    checks = []

    def add(name: str, residual: float, tol: float):
        checks.append(
            {
                "check": name,
                "residual": float(residual),
                "tol": float(tol),
                "status": "pass" if residual <= tol else "fail",
            }
        )

    # exact monomial integrals on the unit interval
    worst = 0.0
    for alpha in (-2.0, -1.0, 0.0, 1.7):
        for k in (0, 1, 2):
            got = mellin.regularized_integral_partial(
                expansions.global_monomial(alpha, k), 1.0, mellin.Side.ZERO_TO_C
            )
            want = (
                0.0
                if alpha == -1.0
                else (-1.0) ** k * math.factorial(k) / (alpha + 1.0) ** (k + 1)
            )
            worst = max(worst, abs(got - want))
    add("monomial-partial-closed-form", worst, 1e-12)

    # scale rule vs direct rescaled integration
    worst = 0.0
    for _ in range(3):
        alpha = rng.uniform(0.2, 1.5)
        f = expansions.add_functions(
            expansions.scale_function(
                expansions.cutoff_times_monomial(-1.0, rng.randrange(2)),
                rng.uniform(0.5, 2.0),
            ),
            expansions.scale_function(
                expansions.cutoff_times_monomial(alpha, 0), rng.uniform(0.5, 2.0)
            ),
        )
        lam = rng.uniform(0.3, 3.0)
        got = mellin.scale_rule(f, lam)
        direct = mellin.regularized_integral(expansions.rescale_argument(f, lam))
        worst = max(worst, abs(got - direct))
    add("scale-rule-vs-direct", worst, 1e-8)

    # zeta of the model operator at the normalization point
    add("zeta-lp-normalization", abs(cone.zeta_hat_lp(0.5, 1.0) - 1.0), 1e-10)

    # heat kernel scaling law
    worst = 0.0
    for t in (0.05, 0.4):
        for x in (0.3, 1.0, 2.5):
            lhs = cone.heat_kernel_lp(1.0, t, x, x)
            rhs = cone.k_trace_lp(1.0, t / x**2) / x
            worst = max(worst, abs(lhs - rhs))
    add("heat-kernel-scaling", worst, 1e-12)

    # Hankel transform eigenfunction
    worst = 0.0
    for x in (0.4, 1.1, 2.3):
        got = specfun.hankel_transform(
            lambda y: specfun.l_fn(0, 0.5, y), 0.5, x
        )
        worst = max(worst, abs(got - specfun.l_fn(0, 0.5, x)))
    add("hankel-eigenfunction", worst, 1e-6)

    # Gamma-ratio generation invariants and a sampled ratio
    exp_ = specfun.gamma_ratio_expansion(4)
    exp_.validate()
    got = specfun.evaluate_ratio(exp_, 50.0, 0.3)
    want = specfun.gamma(50.0 - 0.3 + 1) / specfun.gamma(50.0 + 0.3)
    add("gamma-ratio-order-4", abs(got - want) / abs(want), 1e-8)

    # residue assembly vs a Laurent fit, circle cross-section
    circle = cone.CrossSectionSpectrum(
        data=(), tail=specfun.RiemannZetaProvider(scale=2.0, exponent=2.0)
    )
    res1, res0 = cone.residues_at_zero(circle)
    f1, f0 = cone.laurent_fit(lambda s: cone.gamma_zeta_hat(circle, s))
    add("residues-circle-res1", abs(res1), 1e-10)
    add("residues-circle-vs-fit", max(abs(res1 - f1), abs(res0 - f0)), 1e-6)

    # eta residues: universal-constant route vs assembled eta-hat
    sqrt_spec = cone.FirstOrderSpectrum(
        s_data=(),
        eta_provider=specfun.RiemannZetaProvider(scale=1.0, exponent=0.5),
        a_plus_tail=specfun.PowerShiftSquaredProvider(0.5, 0.5),
        a_minus_tail=specfun.PowerShiftSquaredProvider(0.5, -0.5),
    )
    r1, r0 = cone.eta_hat_residues(sqrt_spec)
    f1, f0 = cone.laurent_fit(lambda s: cone.eta_function_scalable(sqrt_spec, s))
    add("eta-residues-vs-fit", max(abs(r1 - f1), abs(r0 - f0)), 1e-4)

    # deficiency arithmetic vs the signature oracle
    worst = 0.0
    for _ in range(25):
        g = deficiency.GradedSpectrum(
            kernel_plus=rng.randrange(4),
            kernel_minus=rng.randrange(4),
            positive=tuple(
                (rng.uniform(0.05, 1.0), rng.randrange(3)) for _ in range(rng.randrange(4))
            ),
            threshold=0.5,
        )
        got = deficiency.deficiency_indices(g)
        brute = deficiency.deficiency_brute_force(g)
        worst = max(worst, abs(got[0] - brute[0]), abs(got[1] - brute[1]))
        worst = max(
            worst, abs((got[0] - got[1]) - deficiency.index_a_eps(g))
        )
    add("deficiency-vs-brute-force", worst, 0.0)

    # Dirac-Schrodinger specialization identities
    worst = 0
    for _ in range(25):
        n_plus, n_minus = rng.randrange(6), rng.randrange(6)
        ind_s = n_plus - n_minus
        got = deficiency.dirac_schrodinger_index(
            n_plus + n_minus, ind_s, 0, deficiency.Extension.MIN
        )
        worst = max(worst, abs(got - (-Fraction(n_plus))))
        ind_s = rng.randrange(-5, 6)
        got = deficiency.dirac_schrodinger_index(
            0, ind_s, -ind_s, deficiency.Extension.MAX
        )
        worst = max(worst, abs(got - (-ind_s)))
    add("dirac-schrodinger-identities", float(worst), 0.0)

    return checks


def _cmd_verify(args, payload: dict) -> int:
    seed = args.seed if args.seed is not None else 0
    checks = _verify_checks(seed)
    _emit(checks, args)
    failed = [c for c in checks if c["status"] != "pass"]
    for c in checks:
        print(
            f"[{c['status']}] {c['check']}: residual {c['residual']:.3e}"
            f" (tol {c['tol']:.1e})",
            file=sys.stderr,
        )
    return EXIT_ORACLE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


_FLAG_SPECS = {
    "--p": {"type": float},
    "--s-re": {"dest": "s_re", "type": float},
    "--s-im": {"dest": "s_im", "type": float},
    "--in": {"dest": "infile"},
    "--order": {"type": int},
    "--tol": {"type": float},
    "--grid": {},
    "--seed": {"type": int},
}

# (handler(args, payload), flags it reads besides --out and --format)
_COMMANDS = {
    "zeta-lp": (_cmd_zeta_lp, ("--p", "--s-re", "--s-im", "--in", "--tol", "--grid")),
    "zeta-op": (_cmd_zeta_op, ("--s-re", "--s-im", "--in", "--tol", "--order")),
    "eta": (_cmd_eta, ("--s-re", "--s-im", "--in", "--tol")),
    "heat-trace": (_cmd_heat_trace, ("--in", "--tol")),
    "deficiency": (_cmd_deficiency, ("--in",)),
    "sal-expand": (_cmd_sal_expand, ("--in", "--tol", "--order")),
    "verify": (_cmd_verify, ("--seed",)),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers, built on first use and reused
    by every later `main` call."""
    ap = argparse.ArgumentParser(
        prog="conespec",
        description="Spectral invariants of model-cone operators.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, flags) in _COMMANDS.items():
        # no abbreviations: a flag the command does not read is an error
        sp = commands[name] = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            sp.add_argument(flag, default=None, **_FLAG_SPECS[flag])
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    return ap, commands


def main(argv=None) -> int:
    ap, commands = _build_parser()
    # argparse hands a subcommand's unknown arguments up to the top-level
    # parser; report them with the subcommand's usage, which lists its flags
    args, unknown = ap.parse_known_args(argv)
    if unknown:
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        payload = _load_payload(args)
        _check_tol(getattr(args, "tol", None))
        return _COMMANDS[args.command][0](args, payload)
    except (HankelConvergenceError, MellinError, NonFiniteResultError, OverflowError) as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (
        json.JSONDecodeError,
        KeyError,
        TypeError,
        ValueError,
        ConeError,
        DeficiencyError,
        SalError,
        SpecfunError,
    ) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
