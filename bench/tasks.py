"""Run one generated task against conespec.

``run(workload, task, files)`` calls conespec's public API the way a user
would and returns the raw results as ``[(operation, value), ...]``; an
operation that raises yields an ``Exception`` instance as its value.
``encode`` turns those results into JSON data for the checker; workers call
it outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math

from conespec import cli, cone, expansions, mellin, sal, specfun


def _op(out: list, name: str, fn) -> None:
    try:
        value = fn()
    except Exception as exc:  # a raising operation is a counted failure
        value = exc
    out.append((name, value))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _provider(tail: dict):
    if tail["kind"] == "riemann":
        return specfun.RiemannZetaProvider(scale=tail["scale"], exponent=tail["exponent"])
    return specfun.HurwitzZetaProvider(a=tail["a"], scale=tail["scale"], exponent=tail["exponent"])


def _cross_section(spec: dict) -> cone.CrossSectionSpectrum:
    return cone.CrossSectionSpectrum(
        data=tuple(cone.SpectralDatum(lam, complex(w)) for lam, w in spec["data"]),
        tail=_provider(spec["tail"]),
        negative_below=spec["negative_below"],
    )


def _first_order(spec: dict) -> cone.FirstOrderSpectrum:
    data = tuple(cone.SpectralDatum(mu, complex(w)) for mu, w in spec["s_data"])
    family = spec["family"]
    if family == "finite":
        return cone.FirstOrderSpectrum(s_data=data)
    if family == "shifted":
        a = spec["a"]
        return cone.FirstOrderSpectrum(
            s_data=data,
            eta_provider=specfun.HurwitzZetaProvider(a, 1.0, 1.0),
            a_plus_tail=specfun.HurwitzZetaProvider(a + 0.5, 1.0, 2.0),
            a_minus_tail=specfun.HurwitzZetaProvider(a - 0.5, 1.0, 2.0),
        )
    return cone.FirstOrderSpectrum(
        s_data=data,
        eta_provider=specfun.RiemannZetaProvider(1.0, 1.0),
        a_plus_tail=specfun.PowerShiftSquaredProvider(1.0, 0.5),
        a_minus_tail=specfun.PowerShiftSquaredProvider(1.0, -0.5),
    )


def _series(task: dict, out: list) -> None:
    points = [complex(*s) for s in task["s"]]
    if task["kind"] == "cross":
        spec = _cross_section(task["spectrum"])
        for s in points:
            _op(out, "zeta_hat_operator", lambda: cone.zeta_hat_operator(spec, s))
        _op(out, "residues_at_zero", lambda: cone.residues_at_zero(spec))
        _op(out, "laurent_fit", lambda: cone.laurent_fit(lambda z: cone.gamma_zeta_hat(spec, z)))
    else:
        spec = _first_order(task["spectrum"])
        for s in points:
            _op(out, "eta_function_scalable", lambda: cone.eta_function_scalable(spec, s))
        _op(out, "eta_hat_residues", lambda: cone.eta_hat_residues(spec))
        _op(out, "laurent_fit", lambda: cone.laurent_fit(lambda z: cone.eta_function_scalable(spec, z)))


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------


def _expandable(pieces) -> expansions.ExpandableFunction:
    f = None
    for piece in pieces:
        g = _piece(piece)
        f = g if f is None else expansions.add_functions(f, g)
    return f


def _piece(piece) -> expansions.ExpandableFunction:
    kind = piece[0]
    if kind == "mono":
        return expansions.scale_function(expansions.global_monomial(piece[1], piece[2]), piece[3])
    if kind == "cut":
        return expansions.scale_function(expansions.cutoff_times_monomial(piece[1], piece[2]), piece[3])
    if kind == "exp":
        return expansions.scale_function(expansions.exponential_decay(), piece[1])
    if kind == "gauss":
        return expansions.scale_function(expansions.gaussian_decay(), piece[1])
    if kind == "resc":
        return expansions.rescale_argument(_piece(piece[2]), piece[1])
    return expansions.fuchs_derivative(_piece(piece[1]))


def _test_function(name: str) -> sal.TestFunction:
    """e^{-x} or e^{-x^2} with 13 derivatives at 0, as the CLI builds them."""
    if name == "exp":
        return sal.TestFunction(lambda x: math.exp(-x), tuple((-1.0) ** j for j in range(13)))
    derivs = [0.0 if j % 2 else (-1.0) ** (j // 2) * math.factorial(j) / math.factorial(j // 2)
              for j in range(13)]
    return sal.TestFunction(lambda x: math.exp(-x * x), tuple(derivs))


def _calculus(task: dict, out: list) -> None:
    f = _expandable(task["f"])
    c, lam = task["c"], task["lam"]
    _op(out, "regularized_integral", lambda: mellin.regularized_integral(f))
    _op(out, "partial_zero_to_c",
        lambda: mellin.regularized_integral_partial(f, c, mellin.Side.ZERO_TO_C))
    _op(out, "partial_c_to_inf",
        lambda: mellin.regularized_integral_partial(f, c, mellin.Side.C_TO_INF))
    _op(out, "scale_rule", lambda: mellin.scale_rule(f, lam))
    ex = task["expand"]
    phi, F = _test_function(ex["phi"]), _expandable(ex["F"])
    if ex["which"] == "tx":
        _op(out, "expand_phi_tx", lambda: sal.expand_phi_tx(phi, F, float(ex["q"])))
    else:
        _op(out, "expand_phi_x_over_t", lambda: sal.expand_phi_x_over_t(phi, F, float(ex["q"])))
    sigma = sal.SeparableSigma(boundary_terms=tuple(
        (_test_function(name), complex(alpha), k) for name, alpha, k in task["sep"]["terms"]))
    _op(out, "sal_separable", lambda: sal.sal_separable(sigma, task["sep"]["p"]))
    g = _expandable(task["mellin"]["g"])
    z = complex(*task["mellin"]["z"])
    _op(out, "mellin_transform", lambda: mellin.mellin_transform(g)(z))
    h = task["hankel"]
    n, p, x = h["n"], h["p"], h["x"]
    _op(out, "hankel_transform",
        lambda: specfun.hankel_transform(lambda y: specfun.l_fn(n, p, y), p, x))


# ---------------------------------------------------------------------------
# heat
# ---------------------------------------------------------------------------


def _heat(task: dict, out: list) -> None:
    for p in task["zgrid"]["p"]:
        for s in task["zgrid"]["s"]:
            _op(out, "zeta_hat_lp", lambda: cone.zeta_hat_lp(p, complex(*s)))
    for p, t, x, y in task["kernel"]:
        _op(out, "heat_kernel_lp", lambda: cone.heat_kernel_lp(p, t, x, y))
    spec = cone.CrossSectionSpectrum(
        data=tuple(cone.SpectralDatum(lam, complex(w)) for lam, w in task["spectrum"]))
    for t in task["trace_t"]:
        _op(out, "k_trace_operator", lambda: cone.k_trace_operator(spec, t))
    _op(out, "heat_trace_expansion",
        lambda: cone.heat_trace_expansion(spec, 2.0, 2.0, 1, task["phi_moments"]))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _cli(task: dict, out: list, files: dict) -> None:
    argv = [files.get(a, a) for a in task["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects
            code = exc.code
        except Exception as exc:  # an uncaught error is what a user would see
            code = f"raise:{type(exc).__name__}"
    target = files["@out"] if "@out" in task["argv"] else None
    out.append(("cli." + task["kind"], {"exit": code, "stdout": stdout.getvalue(),
                                        "file": target}))


def run(workload: str, task: dict, files: dict) -> list:
    out: list = []
    if workload == "series":
        _series(task, out)
    elif workload == "calculus":
        _calculus(task, out)
    elif workload == "heat":
        _heat(task, out)
    else:
        _cli(task, out, files)
    return out


# ---------------------------------------------------------------------------
# Encoding for the checker
# ---------------------------------------------------------------------------


def _enc(v):
    if isinstance(v, Exception):
        return {"error": f"{type(v).__name__}: {v}"}
    if isinstance(v, sal.ExpansionReport):
        return {"terms": [[complex(t.exponent).real, complex(t.exponent).imag, t.log_power,
                           complex(t.coefficient).real, complex(t.coefficient).imag]
                          for t in v.terms]}
    if isinstance(v, (tuple, list)):
        return [_enc(x) for x in v]
    if isinstance(v, dict):  # a cli result; read an --out file now
        if v["file"] is not None:
            with open(v["file"]) as fh:
                return {"exit": v["exit"], "out": fh.read()}
        return {"exit": v["exit"], "out": v["stdout"]}
    z = complex(v)
    return [z.real, z.imag]


def encode(results: list) -> list:
    return [[name, _enc(v)] for name, v in results]
