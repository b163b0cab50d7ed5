"""Command-line surface: payload readers, dispatch, emission, verification.

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

import numpy as np

from . import cone, deficiency, expansions, mellin, sal, specfun
from .cone import ConeError
from .deficiency import DeficiencyError
from .mellin import MellinDomainError, MellinError
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
    array with one entry per row; at least one column is an array.  The
    whole table is one format string, the row template once per row, applied
    with one `%` to the varying cells as Python floats in row order: `%r` is
    float.__repr__, as `json` writes a float, and `%.16e` is
    format(v, ".16e").  A float's text holds no `%`, so a shared column's
    text goes into the template as it is.
    """
    csv = args.format == "csv"
    spec = "%.16e" if csv else "%r"
    fields, varying = [], []
    for key in sorted(columns):
        col = columns[key]
        if not np.isfinite(col).all():
            raise NonFiniteResultError(f"result holds non-finite values in {key}")
        if isinstance(col, float):
            # float(): a numpy scalar's %r would print its type
            text = spec % float(col)
        else:
            varying.append(col)
            text = spec
        fields.append(text if csv else f'    "{key}": {text}')
    n_rows = len(varying[0])
    if csv:
        table = ",".join(sorted(columns)) + ("\n" + ",".join(fields)) * n_rows
    else:
        table = "[\n" + ",\n".join(["  {\n" + ",\n".join(fields) + "\n  }"] * n_rows) + "\n]"
    _write(table % tuple(np.column_stack(varying).ravel().tolist()) + "\n", args)


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


def _load_payload(args):
    """The --in JSON value, or {} without --in; each command reads it as an
    object of its own fields."""
    if not getattr(args, "infile", None):
        return {}
    text = args.infile
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    return json.loads(text, parse_int=_json_int)


def _pick(args, payload: dict, flag: str, key: str, default=None):
    """Flag value if given, else config-file value, else default."""
    v = getattr(args, flag, None)
    if v is not None:
        return v
    return payload.get(key, default)


def _complex_s(args, payload) -> complex:
    return complex(_number(_pick(args, payload, "s_re", "s_re", 1.0), "s_re"),
                   _number(_pick(args, payload, "s_im", "s_im", 0.0), "s_im"))


# Most points a --grid may ask for.
_GRID_MAX = 10**6


def _parse_grid(spec: str):
    """name=start:stop:count: the inclusive grid start + i*step, _GRID_MAX points at most."""
    name, _, rng = spec.partition("=")
    parts = rng.split(":")
    if not name or len(parts) != 3:
        raise ValueError(f"bad grid spec {spec!r}; expected name=start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not 1 <= count <= _GRID_MAX:
        raise ValueError(f"--grid count must lie in [1, {_GRID_MAX}], not {count}")
    if count == 1:
        return name, np.array([start])
    step = (stop - start) / (count - 1)
    with np.errstate(all="ignore"):  # zeta_hat_lp refuses a non-finite point
        return name, start + np.arange(count) * step


# ---------------------------------------------------------------------------
# Payload readers: the only code that knows the --in format
# ---------------------------------------------------------------------------
#
# Each reader takes a value and its path in the payload, such as
# spectrum.data[1].lambda, and raises ValueError naming that path.  A
# required field that is missing reads as None, and is refused as such; a
# key that is not a field of its object is refused too.


def _at(path: str, key: str) -> str:
    """The path of field `key` of the object at `path` ("" is the payload)."""
    return f"{path}.{key}" if path else key


def _number(value, path: str) -> float:
    """A finite JSON number.  A string, a boolean or NaN/Infinity is an input
    error, not a number that float() would read."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path} must be a JSON number, not {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{path} must be finite, not {value}")
    return float(value)


def _integer(value, path: str) -> int:
    """An integer input; a non-finite or fractional number is an input error,
    neither an overflow nor truncated, and so is a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path} must be an integer, not {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{path} must be finite and integral, not {value}")
    return int(value)


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{path} must be a JSON boolean, not {value!r}")
    return value


def _object(value, path: str, fields: tuple) -> dict:
    """A JSON object whose keys are among `fields`.  The payload itself has
    the path "", and is the --in object."""
    if not isinstance(value, dict):
        raise ValueError(f"{path or '--in'} must be a JSON object, not {type(value).__name__}")
    for key in value:
        if key not in fields:
            raise ValueError(f"{_at(path, key)} is not a field of {path or 'the payload'}, "
                             f"which takes {', '.join(fields)}")
    return value


def _array(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{path} must be a JSON array, not {type(value).__name__}")
    return value


def _name(value, path: str, names: tuple) -> str:
    """One of a fixed set of names."""
    if not (isinstance(value, str) and value in names):
        raise ValueError(f"{path} must be one of {', '.join(map(repr, names))}, not {value!r}")
    return value


def _numbers(value, path: str) -> list:
    """An array of finite numbers, as complex values."""
    return [complex(_number(v, f"{path}[{i}]")) for i, v in enumerate(_array(value, path))]


def _spectral_data(value, path: str) -> tuple:
    """An array of {"lambda", "weight_re" (default 1), "weight_im" (default 0)}."""
    data = []
    for i, entry in enumerate(_array(value, path)):
        at = f"{path}[{i}]"
        entry = _object(entry, at, ("lambda", "weight_re", "weight_im"))
        weight = complex(_number(entry.get("weight_re", 1.0), f"{at}.weight_re"),
                         _number(entry.get("weight_im", 0.0), f"{at}.weight_im"))
        data.append(cone.SpectralDatum(_number(entry.get("lambda"), f"{at}.lambda"), weight))
    return tuple(data)


# The fields of a tail object besides "kind", by kind.
_TAIL_FIELDS = {
    "none": (),
    "shifted-integer": ("a",),
    "riemann": ("scale", "exponent"),
    "hurwitz": ("a", "scale", "exponent"),
}


def _tail(value, path: str, kinds: tuple, exponent: float):
    """The tail provider an object names: None for kind "none" (the default),
    else one of `kinds`, with the caller's default exponent."""
    spec = _object(value, path, ("kind", "a", "scale", "exponent"))
    kind = _name(spec.get("kind", "none"), f"{path}.kind", ("none",) + kinds)
    _object(spec, path, ("kind",) + _TAIL_FIELDS[kind])
    if kind == "none":
        return None
    if kind == "shifted-integer":
        # {n + a : n in Z}, signed: the families a and 1 - a of weights +1 and -1
        a = _number(spec.get("a"), f"{path}.a")
        if not 0 < a < 1:
            raise ValueError(f"{path}.a must be in (0, 1), not {a}")
        return specfun.HurwitzZetaProvider(a) + specfun.HurwitzZetaProvider(1 - a, -1.0)
    scale = _number(spec.get("scale", 1.0), f"{path}.scale")
    exponent = _number(spec.get("exponent", exponent), f"{path}.exponent")
    # a riemann tail is the Hurwitz family a = 1
    a = 1.0 if kind == "riemann" else _number(spec.get("a"), f"{path}.a")
    return specfun.HurwitzZetaProvider(a, scale, exponent)


_CROSS_SECTION_FIELDS = ("data", "tail", "p_choice")


def _cross_section(value, path: str) -> cone.CrossSectionSpectrum:
    """data, a "riemann"/"hurwitz" tail (exponent 2 by default) and
    p_choice.negative_below (default 0)."""
    d = _object(value, path, _CROSS_SECTION_FIELDS)
    p_choice = _object(d.get("p_choice", {}), _at(path, "p_choice"), ("negative_below",))
    return cone.CrossSectionSpectrum(
        data=_spectral_data(d.get("data", []), _at(path, "data")),
        tail=_tail(d.get("tail", {}), _at(path, "tail"), ("riemann", "hurwitz"), 2.0),
        negative_below=_number(p_choice.get("negative_below", 0.0),
                               _at(path, "p_choice.negative_below")),
    )


def _first_order(payload: dict) -> cone.FirstOrderSpectrum:
    """s_data and a "shifted-integer"/"riemann" eta_tail (exponent 1 by default)."""
    return cone.FirstOrderSpectrum(
        s_data=_spectral_data(payload.get("s_data", []), "s_data"),
        eta_provider=_tail(payload.get("eta_tail", {}), "eta_tail",
                           ("shifted-integer", "riemann"), 1.0),
    )


def _graded(payload: dict) -> deficiency.GradedSpectrum:
    """kernel_plus and kernel_minus (default 0), positive [{"mu", "weight"
    (default 1)}], the threshold "lambda" (default 0.5) and "fredholm"."""
    _object(payload, "", ("kernel_plus", "kernel_minus", "positive", "lambda", "fredholm"))
    positive = []
    for i, entry in enumerate(_array(payload.get("positive", []), "positive")):
        at = f"positive[{i}]"
        entry = _object(entry, at, ("mu", "weight"))
        positive.append((_number(entry.get("mu"), f"{at}.mu"),
                         complex(_number(entry.get("weight", 1), f"{at}.weight"))))
    return deficiency.GradedSpectrum(
        kernel_plus=complex(_number(payload.get("kernel_plus", 0), "kernel_plus")),
        kernel_minus=complex(_number(payload.get("kernel_minus", 0), "kernel_minus")),
        positive=tuple(positive),
        threshold=_number(payload.get("lambda", 0.5), "lambda"),
        fredholm=_boolean(payload.get("fredholm", False), "fredholm"),
    )


# The largest log power k of a family: past it k!, and so the pole
# coefficient (-1)^k k! of a log-power block, is not a finite double.
_MAX_LOG_POWER = 170


def _families(value) -> expansions.ExpandableFunction:
    """The sum of coef * x^alpha * log^k x over a nonempty array of
    {"alpha", "k" (default 0, at most _MAX_LOG_POWER), "coef" (default 1)}."""
    F = None
    for i, fam in enumerate(_array(value, "families")):
        at = f"families[{i}]"
        fam = _object(fam, at, ("alpha", "k", "coef"))
        k = _integer(fam.get("k", 0), f"{at}.k")
        if k > _MAX_LOG_POWER:
            raise ValueError(f"{at}.k must be at most {_MAX_LOG_POWER}, as {_MAX_LOG_POWER + 1}! "
                             f"is past the largest double, not {k}")
        piece = expansions.scale_function(
            expansions.global_monomial(complex(_number(fam.get("alpha"), f"{at}.alpha")), k),
            complex(_number(fam.get("coef", 1.0), f"{at}.coef")),
        )
        F = piece if F is None else expansions.add_functions(F, piece)
    if F is None:
        raise ValueError("families must be a nonempty list")
    return F


def _phi(name) -> expansions.ExpandableFunction:
    """sal-expand's phi: e^-x or e^-x^2, with Taylor terms through x^12."""
    if _name(name, "phi", ("exp", "gauss")) == "exp":
        return expansions.exponential_decay(13)
    return expansions.gaussian_decay(12)


def _report_json(report: sal.ExpansionReport) -> dict:
    """An ExpansionReport as JSON, its terms sorted by exponent and log power."""
    terms = sorted(report.terms, key=lambda t: (t.exponent.real, t.exponent.imag, t.log_power))
    return {
        "variable": report.variable,
        "remainder_order": float(report.remainder_order),
        "remainder_log_power": int(report.remainder_log_power),
        "terms": [
            {
                "re_exp": r.exponent.real,
                "im_exp": r.exponent.imag,
                "log_pow": r.log_power,
                "re_coef": complex(r.coefficient).real,
                "im_coef": complex(r.coefficient).imag,
                "provenance": r.provenance,
            }
            for r in terms
        ],
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_zeta_lp(args, payload: dict) -> int:
    _object(payload, "", ("p", "s_re", "s_im"))
    s = _complex_s(args, payload)
    p_default = _pick(args, payload, "p", "p")
    if args.grid:
        name, values = _parse_grid(args.grid)
        key = {"p": "p", "s-re": "s_re", "s_re": "s_re"}.get(name)
        if key is None:
            raise ValueError(f"zeta-lp grids run over 'p' or 's-re', not {name!r}")
        if _pick(args, payload, key, key) is not None:
            raise ValueError(f"{key}: the grid gives {key}, so neither its flag nor the "
                             f"payload's {key} may be given")
        if key == "p":
            vals = cone.zeta_hat_lp(values, s)
            columns = {"p": values, "s_re": s.real}
        else:
            if p_default is None:
                raise ValueError("--p is required")
            p = _number(p_default, "p")
            # set part by part: v + 1j*s_im would lose the sign of s_im = -0.0
            ss = np.empty(len(values), dtype=complex)
            ss.real, ss.imag = values, s.imag
            vals = cone.zeta_hat_lp(p, ss)
            columns = {"p": p, "s_re": values}
        _emit_table({**columns, "s_im": s.imag, "value_re": vals.real, "value_im": vals.imag},
                    args)
        return EXIT_OK
    if p_default is None:
        raise ValueError("--p is required")
    p = _number(p_default, "p")
    v = cone.zeta_hat_lp(p, s)
    _emit({"p": p, "s_re": s.real, "s_im": s.imag, "value_re": v.real, "value_im": v.imag},
          args)
    return EXIT_OK


def _cmd_zeta_op(args, payload: dict) -> int:
    # the spectrum under "spectrum", or its fields inline
    others = ("s_re", "s_im", "order")
    if isinstance(payload, dict) and "spectrum" in payload:
        _object(payload, "", ("spectrum",) + others)
        spec = _cross_section(payload["spectrum"], "spectrum")
    else:
        _object(payload, "", _CROSS_SECTION_FIELDS + others)
        spec = _cross_section({k: v for k, v in payload.items() if k not in others}, "")
    s = _complex_s(args, payload)
    order = _integer(_pick(args, payload, "order", "order", cone.FOLD_ORDER), "order")
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
    _object(payload, "", ("s_data", "eta_tail", "s_re", "s_im"))
    spec = _first_order(payload)
    res1, res0 = cone.eta_hat_residues(spec)
    out = {
        "res1_re": res1.real,
        "res1_im": res1.imag,
        "res0_re": res0.real,
        "res0_im": res0.imag,
    }
    if (args.s_re is not None or args.s_im is not None
            or "s_re" in payload or "s_im" in payload):
        s = _complex_s(args, payload)
        v = cone.eta_function_scalable(spec, s)
        out.update(
            {"s_re": s.real, "s_im": s.imag, "value_re": v.real, "value_im": v.imag}
        )
    _emit(out, args)
    return EXIT_OK


def _cmd_heat_trace(args, payload: dict) -> int:
    _object(payload, "", ("spectrum", "nu", "mu", "m", "phi_moments", "b_coeffs"))
    spec = _cross_section(payload.get("spectrum"), "spectrum")
    nu = _number(payload.get("nu", 2.0), "nu")
    mu = _number(payload.get("mu", 2.0), "mu")
    m = _integer(payload.get("m", 1), "m")
    phi_moments = _numbers(payload.get("phi_moments"), "phi_moments")
    b_coeffs = payload.get("b_coeffs")
    if b_coeffs is not None:
        b_coeffs = _numbers(b_coeffs, "b_coeffs")
    report = cone.heat_trace_expansion(spec, nu, mu, m, phi_moments, b_coeffs)
    _emit(_report_json(report), args)
    return EXIT_OK


def _cmd_deficiency(args, payload: dict) -> int:
    g = _graded(payload)
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
    _object(payload, "", ("phi", "families", "order"))
    phi = _phi(payload.get("phi", "exp"))
    F = _families(payload.get("families", []))
    order = _pick(args, payload, "order", "order")
    q = float(_integer(order, "order")) if order is not None else None
    report = sal.expand_phi_tx(phi, F, q)
    _emit(_report_json(report), args)
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
        data=(), tail=specfun.HurwitzZetaProvider(1.0, scale=2.0, exponent=2.0)
    )
    res1, res0 = cone.residues_at_zero(circle)
    f1, f0 = cone.laurent_fit(lambda s: cone.gamma_zeta_hat(circle, s))
    add("residues-circle-res1", abs(res1), 1e-10)
    add("residues-circle-vs-fit", max(abs(res1 - f1), abs(res0 - f0)), 1e-6)

    # eta residues: universal-constant route vs assembled eta-hat
    sqrt_spec = cone.FirstOrderSpectrum(
        s_data=(),
        eta_provider=specfun.HurwitzZetaProvider(1.0, scale=1.0, exponent=0.5),
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
    "--grid": {},
    "--seed": {"type": int},
}

# (handler(args, payload), flags it reads besides --out and --format)
_COMMANDS = {
    "zeta-lp": (_cmd_zeta_lp, ("--p", "--s-re", "--s-im", "--in", "--grid")),
    "zeta-op": (_cmd_zeta_op, ("--s-re", "--s-im", "--in", "--order")),
    "eta": (_cmd_eta, ("--s-re", "--s-im", "--in")),
    "heat-trace": (_cmd_heat_trace, ("--in",)),
    "deficiency": (_cmd_deficiency, ("--in",)),
    "sal-expand": (_cmd_sal_expand, ("--in", "--order")),
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
        return _COMMANDS[args.command][0](args, payload)
    except MellinDomainError as exc:  # before MellinError: an input error
        error = exc
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
        error = exc
    print(f"error: invalid input: {error}", file=sys.stderr)
    return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
