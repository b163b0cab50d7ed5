"""Tests for the golden-corpus tool tools/golden_cli.py."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden_cli", ROOT / "tools" / "golden_cli.py")
golden_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_cli)


def test_compare_lists_requests_that_differ(tmp_path, capsys):
    a = {"same": [0, "x\n", None], "stdout": [0, "y\n", None], "only-a": [2, "", None],
         "file": [0, "", "1\n"]}
    b = {"same": [0, "x\n", None], "stdout": [0, "z\n", None], "only-b": [3, "", None],
         "file": [0, "", "2\n"]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert golden_cli.compare(str(pa), str(pb)) == 1
    lines = capsys.readouterr().out.splitlines()
    listed = {line.split(": ", 1)[1] for line in lines[:-1]}
    assert listed == {"stdout", "only-a", "only-b", "file"}
    assert lines[-1] == "4 of 5 requests differ"
    assert golden_cli.compare(str(pa), str(pa)) == 0


def test_compare_gives_the_largest_relative_change_of_numbers_only_differences(
        tmp_path, capsys):
    a = {"json": [0, '{"value_re": 1.5, "error_estimate": 2e-10, "b_5": 0.0}\n', None],
         "csv": [0, "", "s,v\n0.5,-4.0\n"], "text": [0, "ok 1\n", None],
         "exit": [0, "1.0\n", None]}
    b = {"json": [0, '{"value_re": 1.5000000000000004, "error_estimate": 3e-10, "b_5": 0.0}\n',
                  None],
         "csv": [0, "", "s,v\n0.5,-4.4\n"], "text": [0, "fail 1\n", None],
         "exit": [3, "1.0\n", None]}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert golden_cli.compare(str(pa), str(pb)) == 1
    lines = dict(reversed(line.split(": ", 1)) for line in capsys.readouterr().out.splitlines()[:-1])
    assert lines == {
        "json": "exit 0 -> 0, numbers only, max rel change 3.3e-01",
        "csv": "exit 0 -> 0, numbers only, max rel change 9.1e-02",
        "text": "exit 0 -> 0",
        "exit": "exit 0 -> 3",
    }
    assert golden_cli.numeric_change(a["json"], a["json"]) == 0.0


def test_corpus_holds_generator_pools_and_edge_cases():
    reqs = golden_cli._requests()
    assert len(reqs) == 24 * len(golden_cli.GEN_SEEDS) + len(golden_cli.EDGE_CASES)
    keys = {key for key, _, _ in reqs}
    assert "deficiency --in '[1, 2]'" in keys
    assert any(key.startswith("sal-expand --in '@in={") for key in keys)


def test_run_records_exit_stdout_and_out_file(tmp_path):
    code, out, out_file = golden_cli._run(
        ["zeta-lp", "--p", "0.5", "--s-re", "1.0", "--format", "csv", "--out", "@out"],
        None, str(tmp_path),
    )
    assert (code, out) == (0, "")
    assert out_file.splitlines()[0] == "p,s_im,s_re,value_im,value_re"
    payload = json.dumps({"kernel_plus": 1, "kernel_minus": 1, "positive": []})
    code, out, out_file = golden_cli._run(["deficiency", "--in", "@in"], payload, str(tmp_path))
    assert code == 0 and json.loads(out)["index"] == 0 and out_file is None
    assert golden_cli._run(["deficiency", "--in", "[1]"], None, str(tmp_path))[0] == 2
