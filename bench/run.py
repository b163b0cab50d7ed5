"""Oracle-checked benchmark of conespec.

    python3 bench/run.py --workload {series,calculus,heat,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; conespec is imported from ``src``.
One client drives the library in a closed loop (each task starts when the
previous one ends) in a fresh worker process, in whole passes over the
task pool, for S seconds, at least 110 tasks and at least 3 passes.  Every
time is scaled to the machine's reference speed by the probe runs around it
(see probe.py); task latency and CPU time are then the medians over each
pool entry's repeats.  Every output is checked against an independent
oracle in this process, so oracle work is neither timed nor counted in the
worker's memory.  With --trace 1 the worker instead runs the same tasks once
untraced and once traced, and per-layer numbers are reported.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Earlier lines give the failure
share per operation and a stamp of the code and machine; the full record is
written to .bench_out/.  ``correct`` is true when every output could be
checked; an output that misses its oracle is a counted failure.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 9
PROBE_REACH_S = 0.1
WORKER_TIMEOUT_S = 170
END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "cpu_ms_per_task": "ms",
    "peak_rss_mb": "MB",
    "fail_share": "ratio",
}


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CONE_SPECTRA_THREADS", None)  # the program's default pool
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(args: list, timeout: float = WORKER_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=timeout)


def _worker(workload: str, seed: int, seconds: float, mode: str, scratch: Path) -> dict:
    proc = _python([str(HERE / "worker.py"), workload, str(seed), str(seconds), mode,
                    str(scratch)])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _fresh_import() -> dict:
    """Wall time of a fresh interpreter that only imports conespec.cli, with probes around it."""
    before = [probe.probe_s() for _ in range(probe.AROUND_SETUP)]
    start = time.perf_counter()
    proc = _python(["-c", "import conespec.cli"])
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr[-2000:])
    after = [probe.probe_s() for _ in range(probe.AROUND_SETUP)]
    return {"setup_s": elapsed, "setup_probe_s": before + after}


def _cli_startup() -> dict:
    """Start-up of the cli process: a single-point request, and scipy.integrate's import share."""
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        proc = _python(["-m", "conespec.cli", "zeta-lp", "--p", "0.5", "--s-re", "1.0"])
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr[-2000:])
    proc = _python(["-X", "importtime", "-c", "import conespec.cli"])
    integrate_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(3) == "scipy.integrate":
            integrate_us = int(m.group(2))
    return {"cli.startup_s": statistics.median(walls),
            "cli.import.scipy_integrate_s": integrate_us / 1e6}


def _stamp(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:  # no git on this machine
        commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "pinning": "none",
        "cache_control": "none",
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def _check(workload: str, seed: int, outputs: list) -> tuple:
    """(attempted, failed, {operation: [attempted, failed]}) over all executed tasks."""
    import check

    checker = check.Checker(workload, gen.pool(workload, seed))
    per_op: dict = {}
    for k, count, encoded in outputs:
        for name, ok in checker.check(k, encoded):
            tally = per_op.setdefault(name, [0, 0])
            tally[0] += count
            tally[1] += 0 if ok else count
    attempted = sum(a for a, _ in per_op.values())
    failed = sum(f for _, f in per_op.values())
    return attempted, failed, per_op


def _at_reference_speed(samples: list, result: dict) -> list:
    """Each task's sample scaled by the probe times around it.

    A shared machine's speed changes within a few tenths of a second (probe
    times lose most of their correlation over 0.1-0.5 s), so task i is
    scaled by the probes right before and after it (``probes[i]`` and
    ``probes[i + 1]``) and by any others that ran within PROBE_REACH_S of
    it, or within half its duration if it ran longer.
    """
    at = [a for a, _ in result["probes"]]
    out = []
    for i, (x, t0, dt) in enumerate(zip(samples, result["started_s"], result["latency_s"])):
        reach = max(PROBE_REACH_S, dt / 2)
        lo = min(i, bisect.bisect_left(at, t0 - reach))
        hi = max(i + 2, bisect.bisect_right(at, t0 + dt + reach))
        out.append(probe.scale([d for _, d in result["probes"][lo:hi]]) * x)
    return out


def _per_entry_median(samples: list, pool_size: int) -> list:
    """Each execution's sample replaced by the median over its pool entry's repeats.

    The loop runs whole passes over the pool, so every entry repeats equally
    often; the median over repeats of one input drops the bursts in which
    other work on a shared machine slows a task down.
    """
    medians = [statistics.median(samples[k::pool_size]) for k in range(pool_size)]
    return [medians[i % pool_size] for i in range(len(samples))]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "conespec" / "__init__.py").is_file():
        print(f"error: no conespec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    stamp = _stamp(args.seed)

    if args.trace:
        result = _worker(args.workload, args.seed, args.seconds, "trace", scratch)
        per_layer = result["per_layer"]
        per_layer.update(_cli_startup())
        metrics = {name: {"value": per_layer[name], "unit": spans.unit(name)}
                   for name in spans.per_layer_names()}
    else:
        if args.workload == "cli":
            setup_runs = [_fresh_import() for _ in range(SETUP_REPEATS)]
        else:
            setup_runs = [_worker(args.workload, args.seed, 0, "setup", scratch)
                          for _ in range(SETUP_REPEATS - 1)]
        result = _worker(args.workload, args.seed, args.seconds, "run", scratch)
        if args.workload != "cli":
            setup_runs.append(result)
        # every time is scaled to the machine speed the probe measured beside it
        setups = [r["setup_s"] * probe.scale(r["setup_probe_s"]) for r in setup_runs]
        pool_size = len(gen.pool(args.workload, args.seed))
        latency = _per_entry_median(_at_reference_speed(result["latency_s"], result), pool_size)
        cpu = _per_entry_median(_at_reference_speed(result["cpu_s"], result), pool_size)
        values = {
            "setup_s": statistics.median(setups),
            "tasks_per_s": len(latency) / sum(latency),
            "task_p50_ms": 1e3 * statistics.median(latency),
            "task_p90_ms": 1e3 * statistics.quantiles(latency, n=10)[8],
            "cpu_ms_per_task": 1e3 * sum(cpu) / len(cpu),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    attempted, failed, per_op = _check(args.workload, args.seed, result["outputs"])
    if not args.trace:
        values["fail_share"] = failed / attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    breakdown = {name: {"attempted": a, "failed": f, "fail_share": f / a}
                 for name, (a, f) in sorted(per_op.items())}
    record = {"workload": args.workload, "trace": args.trace, "stamp": stamp,
              "breakdown": breakdown, "correct": True, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if not args.trace:
        record["tasks"] = len(result["latency_s"])
        record["setup_samples_s"] = setups
        record["raw"] = {"setup": [{k: r[k] for k in ("setup_s", "setup_probe_s")}
                                   for r in setup_runs],
                         **{k: result[k] for k in ("started_s", "latency_s", "cpu_s", "probes")}}
    (scratch / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    for name, b in breakdown.items():
        print(f"{name}: {b['failed']}/{b['attempted']} failed", file=sys.stderr)
    print(json.dumps({"stamp": stamp, "fail_share_by_operation": breakdown}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
