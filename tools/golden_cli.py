"""Golden corpus of CLI requests: record outputs, or compare two recordings.

    python tools/golden_cli.py OUT.json              # record
    python tools/golden_cli.py --compare A.json B.json

Run from the root of a source checkout; conespec is imported from ``src`` and
the request generator from ``bench/gen.py``.  The corpus is the cli pools of
``bench/gen.py`` for seeds 0, 1, 7 and 31 plus the hand-written edge cases in
EDGE_CASES.  Each request runs through ``conespec.cli.main`` in this process;
the recording maps the request, written as one command line, to
``[exit, stdout, out-file]``, where exit is the code ``main`` returned (or
``"raise:<type>"`` for an exception it let escape) and out-file is the text
of the ``--out`` file, or null.  ``--compare`` prints every request whose
entry differs, or that only one recording holds, and exits 1 if there is any.
Where two entries agree in exit code and in their text apart from the
numbers, it also prints the largest relative change over those numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GEN_SEEDS = (0, 1, 7, 31)

_CIRCLE = '{"data": [], "tail": {"kind": "riemann", "scale": 2}}'
_HURWITZ = json.dumps({
    "data": [{"lambda": 0.25, "weight_re": 1.0}, {"lambda": 3.0, "weight_re": 2.0}],
    "tail": {"kind": "hurwitz", "a": 1.5, "scale": 1.0, "exponent": 2.0},
    "p_choice": {"negative_below": 0.5},
})
_REPLACED = ('{"data": [{"lambda": 0.09, "weight_re": 1.0}], '
             '"tail": {"kind": "hurwitz", "a": 0.3, "exponent": 2}, '
             '"p_choice": {"negative_below": 1.0}}')
_ETA_DATA = '{"s_data": [{"lambda": 0.8, "weight_re": 1.0}]}'

# (argv, payload written to the @in file or None); @out is a fresh file
EDGE_CASES = [
    (["zeta-lp", "--p", "0.5", "--s-re", "1.0"], None),
    (["zeta-lp", "--p", "1.2", "--s-re", "0.3", "--s-im", "-2.5", "--format", "csv"], None),
    (["zeta-lp", "--s-re", "0.8", "--grid", "p=0.5:2.5:5", "--format", "csv"], None),
    (["zeta-lp", "--p", "1.2", "--s-im", "-0.0", "--grid", "s-re=-3:3:13"], None),
    (["zeta-lp", "--s-re", "1.5", "--grid", "p=0:40:2000", "--out", "@out"], None),
    (["zeta-lp", "--s-re", "0.8", "--s-im", "-0.0", "--grid", "p=-0.0:2:1"], None),
    (["zeta-lp", "--p", "1.2", "--s-im", "2.5", "--grid", "s-re=0.7:0.9:1", "--format", "csv"],
     None),
    (["zeta-lp", "--s-re", "1.5", "--s-im", "0.25", "--grid", "p=0:40:3000", "--format", "csv",
      "--out", "@out"], None),
    (["zeta-lp", "--p", "1.2", "--s-im", "-0.0", "--grid", "s-re=-2.9:3.1:13", "--format", "csv"],
     None),
    (["zeta-lp", "--p", "-1.5", "--s-re", "1.0"], None),
    (["zeta-lp", "--p", "0.5", "--s-re", "nan"], None),
    (["zeta-lp", "--p", "0.5", "--s-re", "-110", "--s-im", "0.3"], None),
    (["zeta-lp", "--p", "0.5", "--s-im", "0.3", "--grid", "s-re=-100:-120:5"], None),
    (["zeta-lp", "--in", "@in"], {"p": 2.0, "s_re": 0.7, "s_im": 0.1}),
    (["zeta-op", "--in", _CIRCLE, "--s-re", "1.6"], None),
    (["zeta-op", "--in", _CIRCLE, "--s-re", "-5.3"], None),
    # exponent 2 by default: Gauss's closed form, -827.46 (the fold printed 3.1e7)
    (["zeta-op", "--in", '{"data": [], "tail": {"kind": "riemann"}}', "--s-re", "-5.3"], None),
    (["zeta-op", "--in", _CIRCLE, "--s-re", "nan"], None),
    (["zeta-op", "--in", _CIRCLE, "--s-re", "0.4", "--s-im", "inf"], None),
    (["zeta-op", "--in", _HURWITZ, "--s-re", "0.7", "--s-im", "1.1", "--format", "csv"], None),
    (["zeta-op", "--in", "@in", "--order", "4"], {"spectrum": json.loads(_HURWITZ), "s_re": 1.3}),
    (["zeta-op", "--in", "[1, 2]"], None),
    (["zeta-op", "--in", _CIRCLE, "--s-re", "1.6", "--order", "10"], None),
    (["zeta-op", "--in", _CIRCLE, "--s-re", "1.6", "--order", "11"], None),
    (["zeta-op", "--in", _CIRCLE, "--s-re", "1.6", "--order", "-1"], None),
    # a datum at the negative order -0.3 replaces the Gauss tail's first term
    # 0.09: finite at that term's pole s = 1.3 and next to it
    (["zeta-op", "--in", _REPLACED, "--s-re", "1.3"], None),
    (["zeta-op", "--in", _REPLACED, "--s-re", "1.3000001"], None),
    # 100000 tail terms below 10, short of the head bound 64
    (["zeta-op", "--in", '{"data": [], "tail": {"kind": "riemann", "exponent": 0.2}}',
      "--s-re", "1.6"], None),
    # a datum on the 200000th term of j^0.2, past the 100000 terms the match reads
    (["heat-trace", "--in", "@in"],
     {"spectrum": {"data": [{"lambda": 200000.0**0.2}],
                   "tail": {"kind": "riemann", "exponent": 0.2}},
      "phi_moments": [1, 1, 1], "b_coeffs": [0.5, 0.25, 0.125]}),
    (["zeta-op", "--in", "@in"], {"spectrum": json.loads(_CIRCLE), "s_re": 1.6, "order": 6.5}),
    (["zeta-op", "--in", "@in"], {"spectrum": json.loads(_CIRCLE), "s_re": 1.6, "order": "4"}),
    (["eta", "--in", _ETA_DATA, "--s-re", "0.6"], None),
    (["eta", "--in", _ETA_DATA, "--s-re", "nan"], None),
    (["eta", "--in", '{"s_data": [], "eta_tail": {"kind": "shifted-integer", "a": 0.3}}'], None),
    (["eta", "--in", '{"s_data": [{"lambda": -0.5, "weight_re": 1.0}, '
      '{"lambda": 0.5, "weight_re": 1.0}], "eta_tail": {"kind": "shifted-integer", "a": 0.5}}'],
     None),
    (["eta", "--in", '{"s_data": [], "eta_tail": {"kind": "riemann", "scale": 1, "exponent": 1}}',
      "--s-re", "2.5"], None),
    (["eta", "--in", '{"s_data": [], "eta_tail": {"kind": "hurwitz", "a": 0.5}}'], None),
    (["eta", "--in", '"text"'], None),
    (["heat-trace", "--in", "@in"],
     {"spectrum": {"data": [{"lambda": 1.0}, {"lambda": 4.0}]}, "phi_moments": [1, 1, 1, 1]}),
    (["heat-trace", "--in", "@in"],
     {"spectrum": {"data": [{"lambda": 1600}, {"lambda": 2500}]}, "phi_moments": [1, 1, 1]}),
    (["heat-trace", "--in", "@in", "--out", "@out"],
     {"spectrum": {"data": [{"lambda": 1.0}]}, "mu": 1, "phi_moments": [1, 1, 1]}),
    (["heat-trace", "--in", "@in"],
     {"spectrum": {"data": [{"lambda": 1.0}]}, "m": 1.9, "phi_moments": [1, 1, 1]}),
    (["heat-trace", "--in", "@in"],
     {"spectrum": {"data": [{"lambda": 1.0}]}, "m": True, "phi_moments": [1, 1, 1]}),
    (["deficiency", "--in", '{"kernel_plus": 1, "kernel_minus": 1, '
      '"positive": [{"mu": 0.3, "weight": 2}]}'], None),
    (["deficiency", "--in", "[1, 2]"], None),
    (["deficiency", "--in", "null"], None),
    (["deficiency", "--in", "{not json"], None),
    (["sal-expand", "--in", '{"families": [{"alpha": -1.0}], "order": 3}'], None),
    (["sal-expand", "--in", '{"phi": "gauss", "families": [{"alpha": -2.0, "k": 1}, '
      '{"alpha": 0.25, "coef": 2.0}], "order": 4}'], None),
    (["sal-expand", "--in", '{"families": [{"alpha": -1.0}], "order": 40}'], None),
    (["sal-expand", "--in", '{"families": [{"alpha": -1.0}]}', "--order", "7"], None),
    (["sal-expand", "--in", '{"families": []}'], None),
    # the boundary moment x^-1.5 e^-x^2 is Gamma(-1/4)/2, a real closed form
    (["sal-expand", "--in", '{"phi": "gauss", "families": [{"alpha": -1.5, "k": 0}], "order": 3}'],
     None),
    (["sal-expand", "--in", '{"families": [{"alpha": -1.0, "k": "1"}], "order": 3}'], None),
    # boundary moments on the pole of phi's x^6 Taylor term, by quadrature
    (["sal-expand", "--in", '{"phi": "gauss", "families": [{"alpha": -7.0}], "order": 13}'],
     None),
    (["sal-expand", "--in",
      '{"phi": "gauss", "families": [{"alpha": -6.5, "k": 1}], "order": 13}'], None),
    # no positive remainder order is left for the moments of phi: exit 2
    (["sal-expand", "--in", '{"phi": "exp", "families": [{"alpha": -9.0}]}'], None),
    # a log power past 170, where k! is past the largest double: exit 2
    (["sal-expand", "--in", '{"families": [{"alpha": -0.5, "k": 1000000}]}'], None),
    # malformed payloads: each is an input error that names its field
    (["zeta-lp", "--in", '{"p": "0.5"}'], None),
    (["zeta-op", "--in", '{"tail": {"kind": "riemann"}, "s_re": true}'], None),
    (["zeta-op", "--in", '{"data": [{"lambda": 1.0, "weight_re": true}], "s_re": 1.6}'], None),
    (["zeta-op", "--in", '{"tail": {"kind": "riemann"}, "p_choice": {"negative_below": NaN}}'],
     None),
    (["zeta-op", "--in", '{"data": [5], "s_re": 1.6}'], None),
    (["eta", "--in", '{"s_data": {"lambda": 0.8}}'], None),
    (["eta", "--in", '{"s_data": [{"lambda": 0.8, "weight_re": 1.0}], "s_im": 0.5}'], None),
    (["heat-trace", "--in", '{"spectrum": {"data": [{"lambda": 1.0}]}, "phi_moments": "123"}'],
     None),
    (["heat-trace", "--in", '{"spectrum": 5, "phi_moments": [1, 1, 1]}'], None),
    (["deficiency", "--in", '{"kernel_plus": "1"}'], None),
    (["deficiency", "--in", '{"kernel_plus": NaN}'], None),
    (["deficiency", "--in", '{"positive": [{"mu": NaN}]}'], None),
    (["deficiency", "--in", '{"positive": [{"mu": 0.3}], "lambda": Infinity}'], None),
    (["deficiency", "--in", '{"positive": [{"mu": 0.3, "weight": Infinity}]}'], None),
    (["deficiency", "--in", '{"kernel_plus": 1, "kernel_minus": 1, "fredholm": "false"}'], None),
    (["sal-expand", "--in", '{"families": [{"alpha": "-1.5"}], "order": 3}'], None),
    (["sal-expand", "--in", '{"families": [{"alpha": -1.5, "coef": "2j"}], "order": 3}'], None),
    (["sal-expand", "--in", '{"phi": 5, "families": [{"alpha": -1.0}]}'], None),
    # a key that is not a field of its object, and a grid's variable given again
    (["deficiency", "--in", '{"kernel_plus": 1, "positve": [{"mu": 0.3}]}'], None),
    (["zeta-op", "--in", "@in"], {"spectrum": json.loads(_CIRCLE), "data": [], "s_re": 1.6}),
    (["zeta-op", "--in", '{"data": [], "tail": {"kind": "riemann", "a": 1.5}}', "--s-re", "1.6"],
     None),
    (["zeta-lp", "--p", "1.0", "--grid", "p=0:1:2", "--s-re", "1.2"], None),
    (["zeta-lp", "--in", "@in", "--grid", "p=0:1:2"], {"p": 1.0, "s_re": 1.2}),
    # real p and s: the imaginary parts of the four log-Gammas cancel to 0.0
    (["zeta-lp", "--p", "0", "--s-re", "1.2"], None),
    (["zeta-lp", "--p", "0.5", "--s-re", "1.7"], None),
    (["verify", "--seed", "0"], None),
    (["verify", "--seed", "5", "--format", "csv"], None),
]


def _requests() -> list:
    """(key, argv, payload text or None) for every request of the corpus."""
    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    cases = []
    for seed in GEN_SEEDS:
        for task in gen.pool("cli", seed):
            text = json.dumps(task["payload"]) if "payload" in task else None
            cases.append(([text if a == "@inline" else a for a in task["argv"]], text))
    cases += [(argv, None if payload is None else json.dumps(payload))
              for argv, payload in EDGE_CASES]
    reqs = []
    for argv, text in cases:
        shown = [f"@in={text}" if a == "@in" else a for a in argv]
        reqs.append((shlex.join(shown), argv, text))
    return reqs


def _run(argv: list, text, scratch: str) -> list:
    from conespec import cli

    files = {"@in": os.path.join(scratch, "in.json"), "@out": os.path.join(scratch, "out.txt")}
    for path in files.values():
        if os.path.exists(path):
            os.remove(path)
    if text is not None:
        with open(files["@in"], "w") as fh:
            fh.write(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([files.get(a, a) for a in argv])
        except SystemExit as exc:  # argparse rejects
            code = exc.code
        except Exception as exc:  # an uncaught error is what a user would see
            code = f"raise:{type(exc).__name__}"
    out_file = None
    if "@out" in argv and os.path.exists(files["@out"]):
        with open(files["@out"]) as fh:
            out_file = fh.read()
    return [code, stdout.getvalue(), out_file]


def record(path: str) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    corpus = {}
    with tempfile.TemporaryDirectory() as scratch:
        for key, argv, text in _requests():
            corpus[key] = _run(argv, text, scratch)
    with open(path, "w") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
    print(f"{len(corpus)} requests recorded in {path}")


# a decimal number not inside a name (b_5) or another number
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def numeric_change(ea, eb):
    """The largest relative change between the numbers of two entries whose
    exit codes and text apart from the numbers agree; None otherwise."""
    if ea is None or eb is None or ea[0] != eb[0]:
        return None
    ta, tb = f"{ea[1]}\0{ea[2]}", f"{eb[1]}\0{eb[2]}"
    if _NUMBER.sub("#", ta) != _NUMBER.sub("#", tb):
        return None
    worst = 0.0
    for x, y in zip(map(float, _NUMBER.findall(ta)), map(float, _NUMBER.findall(tb))):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    differ = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    for key in differ:
        ea, eb = a.get(key), b.get(key)
        exits = f"exit {ea[0] if ea else '-'} -> {eb[0] if eb else '-'}"
        change = numeric_change(ea, eb)
        if change is not None:
            exits += f", numbers only, max rel change {change:.1e}"
        print(f"{exits}: {key}")
    print(f"{len(differ)} of {len(set(a) | set(b))} requests differ")
    return 1 if differ else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", help="OUT.json, or A.json B.json with --compare")
    ap.add_argument("--compare", action="store_true", help="compare two recordings")
    args = ap.parse_args()
    if args.compare:
        if len(args.paths) != 2:
            ap.error("--compare takes two recordings")
        return compare(*args.paths)
    if len(args.paths) != 1:
        ap.error("record mode takes one output path")
    record(args.paths[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
