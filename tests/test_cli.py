"""Tests for the command-line interface."""

import ast
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from conespec import cli, cone
from conespec.specfun import RiemannZetaProvider

# the benchmark's independent oracles, in mpmath
_spec = importlib.util.spec_from_file_location(
    "oracles", os.path.join(os.path.dirname(__file__), "..", "bench", "oracles.py"))
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CIRCLE_PAYLOAD = json.dumps(
    {"data": [], "tail": {"kind": "riemann", "scale": 2}, "p_choice": {"negative_below": 0.0}}
)

EDGE_FLOATS = [-0.0, 5e-324, 1e16, 2.0, 1e300]


def table_oracle(rows: list, fmt: str) -> str:
    """The bytes of a list of row dicts, as JSON or in the CSV layout."""
    if fmt == "json":
        return json.dumps(rows, sort_keys=True, indent=2) + "\n"
    keys = sorted(rows[0])
    lines = [",".join(keys)] + [",".join(format(r[k], ".16e") for k in keys) for r in rows]
    return "\n".join(lines) + "\n"


def grid_oracle(argv: tuple) -> list:
    """Row dicts of a zeta-lp grid, point by point through the scalar path."""
    opts = dict(zip(argv[::2], argv[1::2]))
    name, _, rng = opts["--grid"].partition("=")
    start, stop, count = rng.split(":")
    start, stop, count = float(start), float(stop), int(count)
    if count == 1:
        axis = [start]
    else:
        step = (stop - start) / (count - 1)
        axis = [start + i * step for i in range(count)]
    s_re, s_im = float(opts.get("--s-re", 1.0)), float(opts.get("--s-im", 0.0))
    rows = []
    for x in axis:
        p, s = (x, complex(s_re, s_im)) if name == "p" else (float(opts["--p"]), complex(x, s_im))
        v = cone.zeta_hat_lp(p, s)
        rows.append({"p": p, "s_re": s.real, "s_im": s.imag,
                     "value_re": v.real, "value_im": v.imag})
    return rows


class TestZetaLp:
    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "zeta-lp", "--p", "0.5", "--s-re", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["value_re"] == pytest.approx(1.0, rel=1e-12)
        assert doc["value_im"] == 0.0

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run(capsys, "zeta-lp", "--p", "0.5", "--s-re", "1.0")
        keys = re.findall(r'"(\w+)":', out)
        assert keys == sorted(keys)

    def test_byte_identical_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "zeta-lp", "--p", "1.5", "--s-re", "0.8", "--out", str(a))
        run(capsys, "zeta-lp", "--p", "1.5", "--s-re", "0.8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_p_is_schema_error(self, capsys):
        code, _, err = run(capsys, "zeta-lp", "--s-re", "1.0")
        assert code == 2
        assert "error" in err

    def test_pole_is_schema_error(self, capsys):
        code, _, _ = run(capsys, "zeta-lp", "--p", "0.5", "--s-re", "0.5")
        assert code == 2

    def test_payload_flags_equivalence_and_precedence(self, capsys):
        payload = json.dumps({"p": 0.5, "s_re": 1.0})
        code, out, _ = run(capsys, "zeta-lp", "--in", payload)
        assert code == 0
        assert json.loads(out)["value_re"] == pytest.approx(1.0, rel=1e-12)
        # flags win over the payload
        code, out, _ = run(capsys, "zeta-lp", "--in", payload, "--p", "1.5")
        assert json.loads(out)["p"] == 1.5

    def test_grid_ordering(self, capsys):
        code, out, _ = run(
            capsys, "zeta-lp", "--s-re", "0.8", "--grid", "p=0.5:2.5:5"
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["p"] for r in rows] == [0.5, 1.0, 1.5, 2.0, 2.5]
        for r in rows:
            assert r["value_re"] == pytest.approx(
                cone.zeta_hat_lp(r["p"], 0.8).real, rel=1e-12
            )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("--s-re", "0.8", "--grid", "p=0.5:2.5:5"),
            ("--s-re", "1.5", "--s-im", "0.25", "--grid", "p=0:40:301"),
            # start + 2*step is not 1.7: the last point is not the stop value
            ("--s-re", "0.8", "--grid", "p=0.4:1.7:3"),
            ("--s-re", "0.8", "--s-im", "-0.0", "--grid", "p=-0.0:2:1"),
            ("--p", "1.2", "--s-im", "-0.0", "--grid", "s-re=-2.9:3.1:13"),
            ("--p", "1.2", "--s-im", "2.5", "--grid", "s-re=0.7:0.9:1"),
        ],
        ids=["p", "p-301", "p-step", "p-count-1", "s-re", "s-re-count-1"],
    )
    def test_grid_matches_row_dict_oracle(self, capsys, argv, fmt):
        code, out, _ = run(capsys, "zeta-lp", *argv, "--format", fmt)
        assert code == 0
        assert out == table_oracle(grid_oracle(argv), fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "constant",
        [("s_im", "s_re"), ("p", "s_im"), (), ("p", "s_im", "s_re", "value_im")],
        ids=["p", "s-re", "all-varying", "one-varying"],
    )
    @pytest.mark.parametrize("n", [1, 5])
    def test_table_writer_matches_row_dicts(self, capsys, fmt, constant, n):
        # every edge value in every column, shared or varying
        keys = ("p", "s_im", "s_re", "value_im", "value_re")
        columns = {}
        for i, key in enumerate(keys):
            if key in constant:
                columns[key] = EDGE_FLOATS[i]
            else:
                columns[key] = np.roll(np.array(EDGE_FLOATS), i)[:n]
        cli._emit_table(columns, SimpleNamespace(format=fmt, out=None))
        rows = [{k: c if isinstance(c, float) else float(c[j]) for k, c in columns.items()}
                for j in range(n)]
        assert capsys.readouterr().out == table_oracle(rows, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_table_writer_refuses_non_finite_shared_column(self, tmp_path, fmt, bad):
        out_file = tmp_path / "out"
        columns = {"p": np.linspace(0.5, 2.5, 5), "s_im": bad, "s_re": 0.8}
        with pytest.raises(cli.NonFiniteResultError, match="s_im"):
            cli._emit_table(columns, SimpleNamespace(format=fmt, out=str(out_file)))
        assert not out_file.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_value_is_nonconvergence(
        self, capsys, monkeypatch, tmp_path, fmt, bad
    ):
        real = cone.zeta_hat_lp

        def one_bad_point(p, s):
            v = real(p, s)
            v[3] = complex(0.5, bad)
            return v

        monkeypatch.setattr(cone, "zeta_hat_lp", one_bad_point)
        out_file = tmp_path / "out"
        code, out, err = run(
            capsys, "zeta-lp", "--s-re", "0.8", "--grid", "p=0.5:2.5:5",
            "--format", fmt, "--out", str(out_file),
        )
        assert code == 3
        assert out == "" and "non-convergence" in err
        assert not out_file.exists()

    def test_bad_grid_name(self, capsys):
        code, _, _ = run(capsys, "zeta-lp", "--s-re", "0.8", "--grid", "t=0:1:3")
        assert code == 2

    def test_grid_count_over_the_bound_is_schema_error(self, capsys, tmp_path):
        # refused before numpy allocates the grid
        out_file = tmp_path / "out"
        code, out, err = run(capsys, "zeta-lp", "--s-re", "1.5", "--grid",
                             f"p=0:40:{cli._GRID_MAX + 1}", "--out", str(out_file))
        assert (code, out) == (2, "")
        assert f"--grid count must lie in [1, {cli._GRID_MAX}]" in err
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "argv, payload, field",
        [
            (("--p", "1.0", "--s-re", "1.2", "--grid", "p=0:1:2"), None, "p"),
            (("--s-re", "1.2", "--grid", "p=0:1:2"), {"p": 1.0}, "p"),
            (("--p", "1.0", "--s-re", "1.2", "--grid", "s-re=0.3:0.9:3"), None, "s_re"),
            (("--p", "1.0", "--grid", "s-re=0.3:0.9:3"), {"s_re": 1.2}, "s_re"),
        ],
        ids=["p-flag", "p-payload", "s_re-flag", "s_re-payload"],
    )
    def test_grid_variable_given_twice_is_schema_error(self, capsys, argv, payload, field):
        # the grid gives its variable: a flag or payload value for it is not read
        extra = () if payload is None else ("--in", json.dumps(payload))
        code, out, err = run(capsys, "zeta-lp", *argv, *extra)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid input: {field}: the grid gives {field}"), err

    def test_s_re_grid_keeps_negative_zero_s_im(self, capsys):
        code, out, _ = run(
            capsys, "zeta-lp", "--p", "1.5", "--s-im", "-0.0", "--grid", "s-re=0.3:0.9:3"
        )
        assert code == 0
        rows = json.loads(out)
        assert [math.copysign(1.0, r["s_im"]) for r in rows] == [-1.0] * 3
        for r in rows:
            v = cone.zeta_hat_lp(1.5, complex(r["s_re"], -0.0))
            assert (r["value_re"], r["value_im"]) == (v.real, v.imag)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--p", "nan", "--s-re", "1.0"),
            ("--p", "0.5", "--s-re", "nan"),
            ("--p", "0.5", "--s-re", "1.0", "--s-im", "inf"),
            ("--s-re", "0.8", "--grid", "p=nan:1:3"),
            ("--s-re", "0.8", "--grid", "p=0:inf:3"),
            ("--p", "0.5", "--grid", "s-re=0.3:nan:3"),
        ],
    )
    def test_non_finite_input_is_schema_error(self, capsys, tmp_path, argv):
        out_file = tmp_path / "out"
        code, out, err = run(capsys, "zeta-lp", *argv, "--out", str(out_file))
        assert code == 2
        assert "invalid input" in err and "finite" in err
        assert not out_file.exists()

    def test_pole_inside_grid_is_schema_error(self, capsys, tmp_path):
        # the third point, s = 0.5, is the pole s = 1/2
        out_file = tmp_path / "out"
        code, _, err = run(
            capsys, "zeta-lp", "--p", "1.5", "--grid", "s-re=0.1:0.9:5",
            "--out", str(out_file),
        )
        assert code == 2
        assert "pole of zeta_hat(L_p) at s=(0.5+0j)" in err
        assert not out_file.exists()

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "zeta-lp", "--p", "0.5", "--s-re", "1.0", "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        cols = header.split(",")
        assert cols == sorted(cols)
        values = row.split(",")
        # floats carry 17 significant digits in scientific notation
        assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d+", values[cols.index("value_re")])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_result_is_nonconvergence(
        self, capsys, monkeypatch, tmp_path, fmt, bad
    ):
        monkeypatch.setattr(cone, "zeta_hat_lp", lambda p, s: complex(bad, 0.0))
        out_file = tmp_path / "out"
        code, out, err = run(
            capsys, "zeta-lp", "--p", "0.5", "--s-re", "1.0",
            "--format", fmt, "--out", str(out_file),
        )
        assert code == 3
        assert "non-convergence" in err
        assert not out_file.exists()
        code, out, _ = run(
            capsys, "zeta-lp", "--p", "0.5", "--s-re", "1.0", "--format", fmt
        )
        assert code == 3 and out == ""


class TestZetaOp:
    def test_circle_spectrum(self, capsys):
        code, out, _ = run(
            capsys, "zeta-op", "--in", CIRCLE_PAYLOAD, "--s-re", "1.6"
        )
        assert code == 0
        doc = json.loads(out)
        spec = cone.CrossSectionSpectrum(data=(), tail=RiemannZetaProvider(2.0, 2.0))
        assert doc["value_re"] == pytest.approx(
            cone.zeta_hat_operator(spec, 1.6).real, rel=1e-12
        )
        assert doc["error_estimate"] < 1e-6

    def test_exponent_2_tail_below_the_fold_range(self, capsys):
        # the default riemann tail j^2 has Gauss's closed form; the fold
        # printed 3.1e7 here, with exit 0
        code, out, _ = run(capsys, "zeta-op", "--in", '{"data": [], "tail": {"kind": "riemann"}}',
                           "--s-re", "-5.3")
        assert code == 0
        doc = json.loads(out)
        s = mpmath.mpf(-5.3)
        with mpmath.workdps(30):
            want = (mpmath.gamma(s - 0.5) * mpmath.gamma(2 - s) * mpmath.rgamma(s) ** 2
                    / (4 * mpmath.sqrt(mpmath.pi) * (s - 1)))
        assert doc["value_re"] == pytest.approx(float(want), rel=1e-12)
        assert round(doc["value_re"], 2) == -827.46
        assert abs(doc["value_im"]) <= doc["error_estimate"] < 1e-9

    def test_a_replaced_gauss_term_is_finite_at_its_pole(self, capsys):
        # the datum 0.09 at the order -0.3 replaces the tail's first term,
        # whose quotient has its pole at s = 1.3: it exited 2 there, and 1e-7
        # from it printed a value 3.4e-3 off
        payload = json.dumps({"data": [{"lambda": 0.09, "weight_re": 1.0}],
                              "tail": {"kind": "hurwitz", "a": 0.3, "exponent": 2},
                              "p_choice": {"negative_below": 1.0}})
        for s in (1.3, 1.3000001):
            code, out, _ = run(capsys, "zeta-op", "--in", payload, "--s-re", repr(s))
            assert code == 0
            doc = json.loads(out)
            with mpmath.workdps(30):
                ms = mpmath.mpf(s)
                phi = (mpmath.gamma(0.7 - ms) * mpmath.rgamma(ms - 0.3)
                       + mpmath.gamma(mpmath.mpf(0.3) + 2 - ms)
                       * mpmath.rgamma(mpmath.mpf(0.3) + ms) / (2 * (ms - 1)))
                want = mpmath.gamma(ms - 0.5) * mpmath.rgamma(ms) * phi / (2 * mpmath.sqrt(
                    mpmath.pi))
            err = abs(doc["value_re"] - float(want))
            assert err <= min(doc["error_estimate"], 1e-14 * abs(float(want))), s

    def test_bad_tail_kind(self, capsys):
        code, _, _ = run(
            capsys,
            "zeta-op",
            "--in",
            json.dumps({"data": [], "tail": {"kind": "bogus"}}),
            "--s-re",
            "1.6",
        )
        assert code == 2

    def test_malformed_json(self, capsys):
        code, _, _ = run(capsys, "zeta-op", "--in", "{not json", "--s-re", "1.6")
        assert code == 2

    def test_head_past_the_term_cap_is_schema_error(self, capsys):
        # 100000 terms of j^0.2 lie below 10, the head bound is 64
        dense = {"data": [], "tail": {"kind": "riemann", "exponent": 0.2}}
        code, out, err = run(capsys, "zeta-op", "--in", json.dumps(dense), "--s-re", "1.6")
        assert (code, out) == (2, "") and "at most 100000 tail terms" in err
        # the fitted heat trace reads no head
        code, _, _ = run(capsys, "heat-trace", "--in", json.dumps(
            {"spectrum": dense, "phi_moments": [1, 1, 1], "b_coeffs": [0.5, 0.25, 0.125]}))
        assert code == 0

    def test_match_window_past_the_term_cap_is_schema_error(self, capsys):
        # a datum on the 200000th term of j^0.2, past the 100000 terms read
        dense = {"data": [{"lambda": 200000.0**0.2, "weight_re": 1.0}],
                 "tail": {"kind": "riemann", "exponent": 0.2}}
        code, out, err = run(capsys, "heat-trace", "--in", json.dumps(
            {"spectrum": dense, "phi_moments": [1, 1, 1], "b_coeffs": [0.5, 0.25, 0.125]}))
        assert (code, out) == (2, "") and "at most 100000 tail terms" in err

    @pytest.mark.parametrize("order", ["-1", "11"])
    def test_order_outside_the_expansion_is_schema_error(self, capsys, order):
        code, out, err = run(capsys, "zeta-op", "--in", CIRCLE_PAYLOAD, "--s-re", "1.6",
                             "--order", order)
        assert (code, out) == (2, "") and "max_order must lie in [0, 10]" in err


class TestEta:
    def test_shifted_integer_residues(self, capsys):
        payload = json.dumps({"s_data": [], "eta_tail": {"kind": "shifted-integer", "a": 0.25}})
        code, out, _ = run(capsys, "eta", "--in", payload)
        assert code == 0
        doc = json.loads(out)
        assert doc["res1_re"] == pytest.approx(0.0, abs=1e-10)
        assert doc["res0_re"] == pytest.approx(-0.5, rel=1e-8)
        assert "value_re" not in doc

    @pytest.mark.parametrize("s_data", [[], [{"lambda": -0.25}]])
    def test_tail_eigenvalue_in_minus_half_to_zero_counts_once(self, capsys, s_data):
        # a = 0.75 puts the eigenvalue a - 1 = -0.25 in (-1/2, 0); it enters
        # res0 whether or not s_data lists it (it read 0.5 without it)
        payload = json.dumps(
            {"s_data": s_data, "eta_tail": {"kind": "shifted-integer", "a": 0.75}})
        code, out, _ = run(capsys, "eta", "--in", payload)
        assert code == 0
        assert json.loads(out)["res0_re"] == pytest.approx(-1.5, rel=1e-12)

    def test_value_at_s(self, capsys):
        payload = json.dumps(
            {"s_data": [{"lambda": 0.8, "weight_re": 1.0}], "eta_tail": {"kind": "none"}}
        )
        code, out, _ = run(capsys, "eta", "--in", payload, "--s-re", "2.0")
        assert code == 0
        doc = json.loads(out)
        assert "value_re" in doc and math.isfinite(doc["value_re"])

    @pytest.mark.parametrize("tail", [{"kind": "shifted-integer", "a": 0.3}, {"kind": "riemann"}])
    def test_value_with_an_eta_tail_is_refused(self, capsys, tail):
        # the eta tail continues eta(S) but not the zeta functions of
        # (S +/- 1/2)^2 that the value is assembled from: a value from s_data
        # alone (-0.0146... - 0.0136...i for the first) must not be printed
        payload = json.dumps({"s_data": [{"lambda": 0.8, "weight_re": 1.0}], "eta_tail": tail})
        code, out, err = run(capsys, "eta", "--in", payload, "--s-re", "1.3", "--s-im", "2")
        assert (code, out) == (2, "") and "(S +/- 1/2)^2" in err
        # the residues need no squared tails
        code, out, _ = run(capsys, "eta", "--in", payload)
        assert code == 0 and "value_re" not in json.loads(out)

    def test_s_im_alone_in_the_payload_gives_the_value(self, capsys):
        # either part of s asks for the value, in the payload as with the flags
        data = {"s_data": [{"lambda": 0.8, "weight_re": 1.0}]}
        code, out, _ = run(capsys, "eta", "--in", json.dumps({**data, "s_im": 0.5}))
        assert code == 0 and json.loads(out)["s_re"] == 1.0
        assert out == run(capsys, "eta", "--in", json.dumps(data), "--s-im", "0.5")[1]

    def test_unknown_tail(self, capsys):
        payload = json.dumps({"s_data": [], "eta_tail": {"kind": "spooky"}})
        code, _, _ = run(capsys, "eta", "--in", payload)
        assert code == 2


class TestHeatTrace:
    def test_expansion_payload(self, capsys):
        payload = json.dumps(
            {
                "spectrum": {
                    "data": [{"lambda": 0.25, "weight_re": 1.0}],
                    "tail": {"kind": "none"},
                    "p_choice": {"negative_below": 1.0},
                },
                "nu": 2,
                "mu": 2,
                "m": 1,
                "phi_moments": [2.0, 3.0, 4.0],
                "b_coeffs": [0.5, 0.25, 0.125],
            }
        )
        code, out, _ = run(capsys, "heat-trace", "--in", payload)
        assert code == 0
        doc = json.loads(out)
        assert doc["variable"] == "t"
        consts = [
            t for t in doc["terms"] if t["re_exp"] == 0.0 and t["log_pow"] == 0
        ]
        assert sum(t["re_coef"] for t in consts) == pytest.approx(1.0, rel=1e-9)

    def test_high_bessel_orders_stay_finite(self, capsys):
        # orders 40 and 50 at z = 1/(2t) up to 5e4 once emitted NaN coefficients
        payload = json.dumps(
            {
                "spectrum": {
                    "data": [
                        {"lambda": 1600, "weight_re": 1},
                        {"lambda": 2500, "weight_re": 1},
                    ]
                },
                "phi_moments": [1, 1, 1],
            }
        )
        code, out, _ = run(capsys, "heat-trace", "--in", payload)
        assert code == 0

        def refuse(name):
            raise AssertionError(f"non-finite {name} in output")

        doc = json.loads(out, parse_constant=refuse)
        assert all(
            math.isfinite(t[k])
            for t in doc["terms"]
            for k in ("re_coef", "im_coef")
        )

    @pytest.mark.parametrize(
        "fields",
        [
            {"nu": 0},
            {"nu": math.nan},
            {"nu": math.inf},
            {"mu": 0},
            {"mu": -2},
            {"mu": math.inf},
            {"mu": 1},
            {"m": -1},
            {"phi_moments": [1, math.nan, 1, 1]},
            {"b_coeffs": [1, 0, math.inf, 0]},
            {"b_coeffs": [1, 0]},
        ],
    )
    def test_out_of_domain_is_schema_error(self, capsys, tmp_path, fields):
        payload = {
            "spectrum": {"data": [{"lambda": 1.0}, {"lambda": 4.0}]},
            "phi_moments": [1, 1, 1, 1],
        }
        out_file = tmp_path / "out"
        code, out, err = run(
            capsys, "heat-trace", "--in", json.dumps({**payload, **fields}), "--out", str(out_file)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid input:") and "Traceback" not in err
        assert not out_file.exists()

    def test_exact_coefficients(self, capsys):
        # b_n of eigenvalues 1, 4 (weights 1, 2): b_0 = 3/sqrt(4 pi),
        # b_2 = -2 (3/8 + 2 * 15/8)/sqrt(4 pi) = -(33/4)/sqrt(4 pi), odd b_n = 0
        payload = {
            "spectrum": {"data": [{"lambda": 1.0}, {"lambda": 4.0, "weight_re": 2.0}]},
            "phi_moments": [1, 1, 1, 1],
        }
        code, out, _ = run(capsys, "heat-trace", "--in", json.dumps(payload))
        assert code == 0
        powers = {
            t["re_exp"]: t["re_coef"]
            for t in json.loads(out)["terms"]
            if t["provenance"] == "boundary"
        }
        lead = 1.0 / math.sqrt(4.0 * math.pi)
        assert powers.keys() == {-0.5, 0.5}
        assert powers[-0.5] == pytest.approx(3.0 * lead, rel=1e-15)
        assert powers[0.5] == pytest.approx(-33.0 / 4.0 * lead, rel=1e-15)

    def test_missing_moments_is_schema_error(self, capsys):
        code, _, _ = run(
            capsys, "heat-trace", "--in", json.dumps({"spectrum": {"data": []}})
        )
        assert code == 2


class TestDeficiency:
    PAYLOAD = {
        "kernel_plus": 1,
        "kernel_minus": 1,
        "positive": [{"mu": 0.3, "weight": 2}],
        "lambda": 0.5,
        "fredholm": False,
    }

    def test_counts(self, capsys):
        code, out, _ = run(capsys, "deficiency", "--in", json.dumps(self.PAYLOAD))
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n_plus": 3, "n_minus": 3, "index": 0}

    def test_fredholm_contradiction(self, capsys):
        bad = dict(self.PAYLOAD, kernel_plus=2, fredholm=True)
        code, _, err = run(capsys, "deficiency", "--in", json.dumps(bad))
        assert code == 2
        assert "Fredholm" in err


class TestSalExpand:
    def test_global_monomial_families(self, capsys):
        payload = json.dumps(
            {"phi": "exp", "families": [{"alpha": -1.0, "k": 0}], "order": 3}
        )
        code, out, _ = run(capsys, "sal-expand", "--in", payload)
        assert code == 0
        doc = json.loads(out)
        by_key = {(t["re_exp"], t["log_pow"]): t["re_coef"] for t in doc["terms"]}
        assert by_key[(0.0, 1)] == pytest.approx(-1.0)
        assert by_key[(0.0, 0)] == pytest.approx(-0.5772156649015329, rel=1e-8)

    @pytest.mark.parametrize("order", [4, 5])
    def test_log_family_taylor_moments_vanish(self, capsys, order):
        # every Taylor moment of a global monomial is a regularized integral
        # of x^(j + alpha) log x over (0, inf), which is 0
        payload = json.dumps({"phi": "exp", "families": [
            {"alpha": -1.3879733134941574, "k": 1, "coef": 1.3818610484966478}],
            "order": order})
        code, out, _ = run(capsys, "sal-expand", "--in", payload)
        assert code == 0
        doc = json.loads(out)
        assert [t for t in doc["terms"] if t["provenance"] == "taylor"] == []
        by_key = {(t["re_exp"], t["log_pow"]): t["re_coef"] for t in doc["terms"]}
        assert by_key.get((3.0, 0), 0.0) == 0.0

    def test_empty_families(self, capsys):
        code, _, _ = run(capsys, "sal-expand", "--in", json.dumps({"phi": "exp"}))
        assert code == 2

    def test_unknown_phi(self, capsys):
        payload = json.dumps({"phi": "sinc", "families": [{"alpha": 0.0}]})
        code, _, _ = run(capsys, "sal-expand", "--in", payload)
        assert code == 2

    def test_order_beyond_remainder_is_schema_error(self, capsys):
        # x^-1 carries remainder order 8 at infinity; order 40 is capped at 13
        payload = json.dumps({"families": [{"alpha": -1.0}], "order": 40})
        code, out, err = run(capsys, "sal-expand", "--in", payload)
        assert code == 2
        assert out == "" and "invalid input" in err and "remainder order" in err

    def test_remainder_order_not_positive_is_schema_error(self, capsys):
        # alpha = -9 leaves no positive remainder order for the moments of
        # phi: a deterministic refusal of the input, which exited 3
        payload = json.dumps({"phi": "exp", "families": [{"alpha": -9.0}]})
        code, out, err = run(capsys, "sal-expand", "--in", payload)
        assert (code, out) == (2, "")
        assert err == ("error: invalid input: need positive remainder orders p, q at both "
                       "endpoints\n")

    @pytest.mark.parametrize("k", [171, 10**6])
    def test_log_power_past_170_is_schema_error(self, capsys, k):
        # a block builds k + 1 moment columns, and its pole coefficient
        # (-1)^k k! is not a finite double past 170: k = 10^6 ended in a
        # MemoryError traceback under a 1.5 GB address-space limit
        payload = json.dumps({"families": [{"alpha": -0.5, "k": k}]})
        code, out, err = run(capsys, "sal-expand", "--in", payload)
        assert (code, out) == (2, "")
        assert "invalid input" in err and "families[0].k must be at most 170" in err

    @pytest.mark.parametrize("argv", [
        ("--in", '{"families": [{"alpha": -1.0}], "order": -1}'),
        ("--in", '{"families": [{"alpha": -1.0}]}', "--order", "-1"),
    ], ids=["payload", "flag"])
    def test_negative_order_is_schema_error(self, capsys, argv):
        # it printed remainder_order -1.0 with a t^0 term below it, exit 0
        code, out, err = run(capsys, "sal-expand", *argv)
        assert code == 2
        assert out == "" and "order -1.0 is negative" in err

    @pytest.mark.parametrize("alpha, k", [(-7.0, 0), (-6.5, 1)])
    def test_gauss_moments_on_a_taylor_pole(self, capsys, alpha, k):
        # the boundary moments x^-7 e^-x^2 and x^-6.5 log x e^-x^2 sit on the
        # pole of phi's x^6 Taylor term, so they take the remainder quadrature
        payload = json.dumps({"phi": "gauss", "families": [{"alpha": alpha, "k": k}],
                              "order": 13})
        code, out, _ = run(capsys, "sal-expand", "--in", payload)
        assert code == 0
        got = {(t["re_exp"], t["log_pow"]): complex(t["re_coef"], t["im_coef"])
               for t in json.loads(out)["terms"]}
        want = oracles.expand_phi("gauss", [("mono", alpha, k, 1.0)], 13.0, "tx")
        for key in set(got) | set(want):
            w = want.get(key, 0.0)
            assert abs(got.get(key, 0.0) - w) <= 1e-10 * max(1.0, abs(w)), key

    def test_gauss_at_order_13(self, capsys):
        # the Taylor family through t^12 reads phi's x^12 coefficient; the
        # boundary moments are reg-int x^beta e^-x^2 dx = Gamma((beta+1)/2)/2
        payload = json.dumps({"phi": "gauss", "families": [{"alpha": -6.5}, {"alpha": -6.0}],
                              "order": 13})
        code, out, _ = run(capsys, "sal-expand", "--in", payload)
        assert code == 0
        doc = json.loads(out)
        assert doc["remainder_order"] == 13.0
        by_key = {(t["re_exp"], t["log_pow"]): t["re_coef"] for t in doc["terms"]}
        assert set(by_key) == {(5.5, 0), (5.0, 0)}
        for beta in (-6.5, -6.0):
            assert by_key[(-beta - 1, 0)] == pytest.approx(math.gamma((beta + 1) / 2) / 2,
                                                           rel=1e-11)


class TestInputBoundary:
    @pytest.mark.parametrize("payload", ["[1, 2]", "null", '"text"', "3.5"])
    def test_non_object_payload_is_schema_error(self, capsys, tmp_path, payload):
        path = tmp_path / "in.json"
        path.write_text(payload)
        for source in (payload, str(path)):
            code, out, err = run(capsys, "deficiency", "--in", source)
            assert code == 2
            assert out == "" and "JSON object" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("zeta-op", "--in", CIRCLE_PAYLOAD, "--s-re", "nan"),
            ("zeta-op", "--in", CIRCLE_PAYLOAD, "--s-re", "0.4", "--s-im", "inf"),
            ("eta", "--in", json.dumps({"s_data": [{"lambda": 0.8}]}), "--s-re", "nan"),
            ("eta", "--in", json.dumps({"s_data": [{"lambda": 0.8}], "s_re": -math.inf})),
        ],
    )
    def test_non_finite_s_is_schema_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and re.search(r"\bs_(re|im) must be finite", err)

    @pytest.mark.parametrize(
        "tail",
        [{"kind": "hurwitz", "a": math.inf}, {"kind": "riemann", "exponent": math.inf},
         {"kind": "riemann", "scale": math.nan}],
        ids=["a-inf", "exponent-inf", "scale-nan"],
    )
    def test_non_finite_tail_parameter_is_schema_error(self, capsys, tail):
        code, out, err = run(capsys, "zeta-op", "--in", json.dumps({"data": [], "tail": tail}),
                             "--s-re", "1.6")
        assert code == 2
        assert out == "" and "must be finite" in err

    @pytest.mark.parametrize(
        "datum",
        [{"lambda": math.nan}, {"lambda": math.inf}, {"lambda": 1.0, "weight_re": math.nan},
         {"lambda": 1.0, "weight_im": -math.inf}],
        ids=["lambda-nan", "lambda-inf", "weight_re-nan", "weight_im-inf"],
    )
    @pytest.mark.parametrize("command", ["zeta-op", "heat-trace", "eta"])
    def test_non_finite_spectral_data_is_schema_error(self, capsys, command, datum):
        spectrum = {"data": [datum]}
        payload = {
            "zeta-op": spectrum,
            "heat-trace": {"spectrum": spectrum, "phi_moments": [1.0, 1.0]},
            "eta": {"s_data": [datum]},
        }[command]
        code, out, err = run(capsys, command, "--in", json.dumps(payload))
        assert code == 2
        key = next(k for k, v in datum.items() if not math.isfinite(v))
        assert out == "" and re.search(rf"data\[0\]\.{key} must be finite", err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("zeta-op", "--in", '{"tail": 5}', "--s-re", "1.6"),
            ("zeta-op", "--in", '{"p_choice": 5}', "--s-re", "1.6"),
            ("eta", "--in", '{"eta_tail": 5}', "--s-re", "0.6"),
        ],
        ids=["tail", "p_choice", "eta_tail"],
    )
    def test_nested_field_of_wrong_type_is_schema_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "must be a JSON object" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("zeta-op", "--in", '{"data": [], "tail": {"kind": "riemann", "scale": 2}, '
             '"order": 1e999}', "--s-re", "1.6"),
            ("heat-trace", "--in", '{"spectrum": {"data": [{"lambda": 1.0}]}, '
             '"phi_moments": [1.0], "m": 1e999}'),
            ("sal-expand", "--in", '{"families": [{"alpha": -1.0, "k": 1e999}]}'),
        ],
        ids=["order", "m", "k"],
    )
    def test_infinite_integer_input_is_schema_error(self, capsys, argv):
        # int(inf) raises OverflowError; at the input boundary that is exit 2
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("zeta-op", "--in", '{"data": [], "tail": {"kind": "riemann", "scale": 2}, '
             '"order": 6.5}', "--s-re", "1.6"),
            ("heat-trace", "--in", '{"spectrum": {"data": [{"lambda": 1.0}]}, '
             '"phi_moments": [1, 1, 1], "m": 1.9}'),
            ("sal-expand", "--in", '{"families": [{"alpha": -1.0, "k": 0.5}], "order": 3}'),
            ("sal-expand", "--in", '{"families": [{"alpha": -1.0}], "order": 0.5}'),
        ],
        ids=["order", "m", "k", "sal order"],
    )
    def test_fractional_integer_input_is_schema_error(self, capsys, argv):
        # int() would truncate: "m": 1.9 printed the "m": 1 expansion with exit 0
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "must be finite and integral" in err
        whole = [a.replace("6.5", "6.0").replace("1.9", "1.0").replace("0.5}", "0.0}")
                 for a in argv]
        assert run(capsys, *whole)[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("zeta-op", "--in", '{"data": [], "tail": {"kind": "riemann", "scale": 2}, '
             '"order": "4"}', "--s-re", "1.6"),
            ("heat-trace", "--in", '{"spectrum": {"data": [{"lambda": 1.0}]}, '
             '"phi_moments": [1, 1, 1], "m": true}'),
            ("sal-expand", "--in", '{"families": [{"alpha": -1.0, "k": "1"}], "order": 3}'),
            ("sal-expand", "--in", '{"families": [{"alpha": -1.0}], "order": true}'),
        ],
        ids=["order", "m", "k", "sal order"],
    )
    def test_non_numeric_integer_input_is_schema_error(self, capsys, argv):
        # int() would take "m": true as m = 1 and "order": "4" as 4
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "must be an integer" in err

    def test_integer_beyond_float_range_is_schema_error(self, capsys):
        # float() of such an integer raises OverflowError; it is input, so exit 2
        huge = "1" + "0" * 400
        for argv in (("zeta-op", "--in", f'{{"tail": {{"kind": "riemann"}}, "s_re": {huge}}}'),
                     ("zeta-lp", "--in", f'{{"p": {huge}, "s_re": 0.5}}')):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == "" and "beyond the float range" in err

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            # a string, a boolean or an array is not a number
            ("zeta-lp", '{"p": "0.5"}', "p"),
            ("zeta-op", '{"tail": {"kind": "riemann"}, "s_re": true}', "s_re"),
            ("zeta-op", '{"data": [{"lambda": 1.0, "weight_re": true}], "s_re": 1.6}',
             "data[0].weight_re"),
            ("sal-expand", '{"families": [{"alpha": "-1.5"}], "order": 3}', "families[0].alpha"),
            ("sal-expand", '{"families": [{"alpha": -1.5, "coef": "2j"}], "order": 3}',
             "families[0].coef"),
            ("deficiency", '{"kernel_plus": "1"}', "kernel_plus"),
            ("heat-trace", '{"spectrum": {"data": [{"lambda": 1.0}]}, "phi_moments": "123"}',
             "phi_moments"),
            ("heat-trace", '{"spectrum": {"data": [{"lambda": 1.0}]}, "nu": "2", '
             '"phi_moments": [1, 1, 1]}', "nu"),
            ("heat-trace", '{"spectrum": {"data": [{"lambda": 1.0}]}, '
             '"phi_moments": [1, [1], 1]}', "phi_moments[1]"),
            # NaN and Infinity are not finite numbers
            ("deficiency", '{"positive": [{"mu": NaN}]}', "positive[0].mu"),
            ("zeta-op", '{"tail": {"kind": "riemann"}, "p_choice": {"negative_below": NaN}, '
             '"s_re": 1.6}', "p_choice.negative_below"),
            ("deficiency", '{"positive": [{"mu": 0.3}], "lambda": Infinity}', "lambda"),
            ("deficiency", '{"positive": [{"mu": 0.3, "weight": Infinity}]}',
             "positive[0].weight"),
            ("deficiency", '{"kernel_plus": NaN}', "kernel_plus"),
            # the other readers: boolean, integer, object, array, name
            ("deficiency", '{"kernel_plus": 1, "kernel_minus": 1, "fredholm": "false"}',
             "fredholm"),
            ("sal-expand", '{"families": [{"alpha": -1.0, "k": "1"}], "order": 3}',
             "families[0].k"),
            ("zeta-op", '{"data": [5], "s_re": 1.6}', "data[0]"),
            ("heat-trace", '{"spectrum": 5, "phi_moments": [1, 1, 1]}', "spectrum"),
            ("eta", '{"s_data": {"lambda": 0.8}}', "s_data"),
            ("sal-expand", '{"phi": 5, "families": [{"alpha": -1.0}]}', "phi"),
            ("eta", '{"eta_tail": {"kind": "hurwitz", "a": 0.5}}', "eta_tail.kind"),
            # a shifted-integer a outside (0, 1)
            ("eta", '{"eta_tail": {"kind": "shifted-integer", "a": 1.0}}', "eta_tail.a"),
            ("zeta-op", '{"spectrum": {"tail": {"kind": "riemann", "scale": "2"}}, "s_re": 1.6}',
             "spectrum.tail.scale"),
            # a required field that is missing
            ("deficiency", '{"positive": [{"weight": 1}]}', "positive[0].mu"),
        ],
    )
    def test_malformed_payload_names_its_field(self, capsys, command, payload, field):
        code, out, err = run(capsys, command, "--in", payload)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid input: {field} must be "), err

    @pytest.mark.parametrize(
        "command, payload, path",
        [
            ("deficiency", {"kernel_plus": 1, "positve": [{"mu": 0.3}]}, "positve"),
            ("deficiency", {"positive": [{"mu": 0.3, "wieght": 2}]}, "positive[0].wieght"),
            ("zeta-lp", {"p": 1.0, "s": 1.2}, "s"),
            # the spectrum under "spectrum" or inline, not both
            ("zeta-op", {"spectrum": json.loads(CIRCLE_PAYLOAD), "data": [], "s_re": 1.6},
             "data"),
            ("zeta-op", {"tail": {"kind": "riemann"}, "s_re": 1.6, "grid": 3}, "grid"),
            ("zeta-op", {"data": [{"lambda": 1.0, "weight": 2.0}], "tail": {"kind": "riemann"}},
             "data[0].weight"),
            ("zeta-op", {"tail": {"kind": "riemann"}, "p_choice": {"negative": 0.5}},
             "p_choice.negative"),
            # a tail's fields depend on its kind
            ("zeta-op", {"tail": {"kind": "riemann", "a": 1.5}}, "tail.a"),
            ("zeta-op", {"spectrum": {"tail": {"kind": "hurwitz", "a": 1.5, "shift": 1}}},
             "spectrum.tail.shift"),
            ("eta", {"s_data": [], "eta_tail": {"kind": "shifted-integer", "a": 0.3,
                                                "scale": 2}}, "eta_tail.scale"),
            ("eta", {"eta_tail": {"exponent": 1}}, "eta_tail.exponent"),
            ("eta", {"s_data": [{"lambda": 0.8, "weight_re": 1.0}], "order": 4}, "order"),
            ("heat-trace", {"spectrum": {"data": [{"lambda": 1.0}]}, "phi_moments": [1, 1],
                            "tail": {"kind": "riemann"}}, "tail"),
            ("heat-trace", {"spectrum": {"data": [{"lambda": 1.0}], "s_re": 1.0},
                            "phi_moments": [1, 1]}, "spectrum.s_re"),
            ("sal-expand", {"families": [{"alpha": -1.0, "log": 1}]}, "families[0].log"),
            ("sal-expand", {"families": [{"alpha": -1.0}], "k": 1}, "k"),
        ],
    )
    def test_unknown_key_names_its_path(self, capsys, command, payload, path):
        # a misspelt or misplaced key used to be ignored, its data dropped, exit 0
        code, out, err = run(capsys, command, "--in", json.dumps(payload))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid input: {path} is not a field of "), err

    def test_overflowing_value_is_nonconvergence(self, capsys, tmp_path):
        code, out, err = run(capsys, "zeta-lp", "--p", "0.5", "--s-re", "-110", "--s-im", "0.3")
        assert code == 3
        assert out == "" and "non-convergence" in err
        # a grid reaching the overflow point writes no --out file
        out_file = tmp_path / "out"
        code, _, err = run(
            capsys, "zeta-lp", "--p", "0.5", "--s-im", "0.3",
            "--grid", "s-re=-100:-120:5", "--out", str(out_file),
        )
        assert code == 3
        assert "non-convergence" in err
        assert not out_file.exists()


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", "3")
        assert code == 0
        checks = json.loads(out)
        assert len(checks) == 11
        assert all(c["status"] == "pass" for c in checks)
        assert err.count("[pass]") == 11

    def test_seed_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify", "--seed", "11", "--out", str(a))
        run(capsys, "verify", "--seed", "11", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert "check" in header and "residual" in header and "status" in header


class TestFlags:
    FLAG_VALUES = {
        "--p": "1", "--s-re": "1.5", "--s-im": "0.5", "--in": "{}", "--order": "4",
        "--grid": "p=0.5:2.5:3", "--seed": "1",
    }

    def rejects(self, capsys, *argv) -> bool:
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        capsys.readouterr()
        return exc.value.code == 2

    def test_reused_parser_matches_fresh_parsers(self, capsys):
        requests = [
            ("zeta-lp", "--t", "1e-6"),
            ("zeta-lp", "--p", "0.5", "--s-re", "1.0", "--format", "csv"),
            ("deficiency", "--in", '{"kernel_plus": 1, "kernel_minus": 1}'),
        ]

        def outcome(argv):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            return (code, *capsys.readouterr())

        assert cli._build_parser() is cli._build_parser()
        reused = [outcome(argv) for argv in requests]
        fresh = []
        for argv in requests:
            cli._build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert reused == fresh
        assert reused[0][0] == ("exit", 2)
        assert reused[0][2].startswith("usage: conespec") and "unrecognized" in reused[0][2]
        assert [r[0] for r in reused[1:]] == [0, 0]

    def test_unknown_flag_shows_the_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["zeta-lp", "--t", "1e-6"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: conespec zeta-lp")
        assert "--s-re" in err
        assert err.rstrip().endswith("error: unrecognized arguments: --t 1e-6")

    def test_unread_flag_is_input_error(self, capsys):
        assert self.rejects(capsys, "deficiency", "--p", "1")

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_dead_t_flag_is_input_error(self, capsys, command):
        assert self.rejects(capsys, command, "--t", "1e-6")

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_only_read_flags_accepted(self, capsys, command):
        _, reads = cli._COMMANDS[command]
        for flag, value in self.FLAG_VALUES.items():
            if flag not in reads:
                assert self.rejects(capsys, command, flag, value), flag


def test_only_the_cli_knows_the_wire_format():
    # one module reads and writes the JSON payloads: no other imports json,
    # and none keeps a serializer or a payload parser of its own
    src = os.path.dirname(os.path.abspath(cli.__file__))
    gone = {"_json_object", "_provider_from_json", "_check_tol", "validate_non_equivariant"}
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        imports, defs = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imports.add(node.module)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.add(node.name)
        if name != "cli.py":
            assert "json" not in imports, name
        assert not {d for d in defs if d.endswith("_json_dict")} | (defs & gone), name


def test_import_leaves_scipy_integrate_out():
    # every quadrature is conespec.mellin.quad; scipy.integrate (with the
    # scipy.sparse and scipy.linalg it pulls in) is not part of start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, conespec.cli; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
