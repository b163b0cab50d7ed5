"""Tests for the command-line interface."""

import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conespec import cli, cone
from conespec.specfun import RiemannZetaProvider


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
    @pytest.mark.parametrize("constant", [("s_im", "s_re"), ("p", "s_im")], ids=["p", "s-re"])
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

    def test_tol_outside_contract(self, capsys):
        code, _, _ = run(
            capsys, "zeta-lp", "--p", "0.5", "--s-re", "1.0", "--tol", "1e-2"
        )
        assert code == 2
        code, _, _ = run(
            capsys, "zeta-lp", "--p", "0.5", "--s-re", "1.0", "--tol", "1e-13"
        )
        assert code == 2


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

    def test_value_at_s(self, capsys):
        payload = json.dumps(
            {"s_data": [{"lambda": 0.8, "weight_re": 1.0}], "eta_tail": {"kind": "none"}}
        )
        code, out, _ = run(capsys, "eta", "--in", payload, "--s-re", "2.0")
        assert code == 0
        doc = json.loads(out)
        assert "value_re" in doc and math.isfinite(doc["value_re"])

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
            ("eta", "--in", json.dumps({"s_data": [{"lambda": 0.8}], "s_re": "-inf"})),
        ],
    )
    def test_non_finite_s_is_schema_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "s must be finite" in err

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
        assert out == "" and "spectral data must be finite" in err

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
        ],
        ids=["order", "m", "k"],
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
        ],
        ids=["order", "m", "k"],
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
        "--tol": "1e-8", "--grid": "p=0.5:2.5:3", "--seed": "1",
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
        # also not taken as an abbreviation of --tol
        assert self.rejects(capsys, command, "--t", "1e-6")

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_only_read_flags_accepted(self, capsys, command):
        _, reads = cli._COMMANDS[command]
        for flag, value in self.FLAG_VALUES.items():
            if flag not in reads:
                assert self.rejects(capsys, command, flag, value), flag
