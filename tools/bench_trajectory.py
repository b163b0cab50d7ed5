"""Run the benchmark over workloads and seeds and record one trajectory point.

    python tools/bench_trajectory.py TAG

Run from the root of a source checkout.  For each workload in WORKLOADS and
seed in SEEDS it runs ``python3 bench/run.py --workload W --seed N --seconds
13`` one after the other, and writes ``BENCH_<TAG>.json`` at the root of the checkout.  Per
workload the file holds each end-to-end metric's median and quartiles over
the seeds (with the per-seed values), the failure share per operation summed
over the seeds, and each run's stamp (commit, ``src`` sha256, nproc,
pinning and versions), as ``bench/run.py`` prints them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("series", "calculus", "heat", "cli")
SEEDS = (0, 1, 7, 23, 31)
SECONDS = 13.0


def run_once(workload: str, seed: int) -> dict:
    """One ``bench/run.py`` run: its stamp, failures per operation and metrics."""
    proc = subprocess.run(
        ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"bench/run.py --workload {workload} --seed {seed} "
                           f"exited with {proc.returncode}")
    *_, head, last = proc.stdout.splitlines()
    return {"seed": seed, **json.loads(head), **json.loads(last)}


def quartiles(values: list) -> dict:
    """Median and quartiles of the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(runs: list) -> dict:
    """The metrics' median and quartiles over the runs of one workload, and the
    failure share per operation over all of them."""
    metrics = {}
    for name, metric in runs[0]["metrics"].items():
        metrics[name] = {"unit": metric["unit"],
                         **quartiles([run["metrics"][name]["value"] for run in runs])}
    tally: dict = {}
    for run in runs:
        for op, b in run["fail_share_by_operation"].items():
            t = tally.setdefault(op, [0, 0])
            t[0] += b["attempted"]
            t[1] += b["failed"]
    by_op = {op: {"attempted": a, "failed": f, "fail_share": f / a}
             for op, (a, f) in sorted(tally.items())}
    return {"metrics": metrics, "fail_share_by_operation": by_op,
            "runs": [{"seed": run["seed"], "stamp": run["stamp"],
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": {k: m["value"] for k, m in run["metrics"].items()}}
                     for run in runs]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tag", help="names the output file, BENCH_<tag>.json")
    tag = ap.parse_args().tag
    out = {"tag": tag, "seconds": SECONDS, "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed))
            print(f"{workload} seed {seed}: tasks_per_s "
                  f"{runs[-1]['metrics']['tasks_per_s']['value']:.4g}", file=sys.stderr)
        out["workloads"][workload] = summarize(runs)
    path = ROOT / f"BENCH_{tag}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
