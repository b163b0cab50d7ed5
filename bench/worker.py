"""Benchmark worker: one fresh interpreter that imports conespec and runs tasks.

    python bench/worker.py WORKLOAD SEED SECONDS MODE SCRATCH_DIR

MODE is ``setup`` (import and one warm-up task, then exit), ``run`` (the
timed closed loop) or ``trace`` (an untraced and a traced pass over the same
tasks).  Set-up and every task of the loop are timed next to the machine
probe (``probe.py``).  The worker prints one JSON object on stdout.  It needs
``src`` on PYTHONPATH; ``run.py`` starts it that way.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

MIN_TASKS = 110  # leaves at least ten tasks beyond the 90th percentile
MIN_PASSES = 3  # repeats per pool entry, for the per-entry medians
MAX_LOOP_S = 100.0  # a slow program cannot hold a run past its time limit


def _input_files(workload: str, tasks: list, scratch: str) -> list:
    """Per task, what the argv placeholders of a cli task stand for."""
    out = []
    for i, task in enumerate(tasks):
        files = {}
        if workload == "cli":
            if "payload" in task:
                text = json.dumps(task["payload"])
                files["@inline"] = text
                files["@in"] = os.path.join(scratch, f"in-{i}.json")
                with open(files["@in"], "w") as fh:
                    fh.write(text)
            files["@out"] = os.path.join(scratch, f"out-{i}.{task['format']}")
        out.append(files)
    return out


def _record(outputs: dict, k: int, encoded: list) -> None:
    key = json.dumps(encoded, sort_keys=True)
    seen = outputs.setdefault(k, {})
    if key in seen:
        seen[key][1] += 1
    else:
        seen[key] = [encoded, 1]


def _closed_loop(tasks, probe, workload, pool, files, seconds):
    started, latency, cpu, outputs, probes = [], [], [], {}, []
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(pool)
        # the machine's speed next to each task: a probe before it, and one at the end
        probes.append([time.perf_counter() - start, probe.probe_s()])
        elapsed = time.perf_counter() - start
        # stop only between whole passes, so every pool entry weighs the same
        enough = elapsed >= seconds and i >= max(MIN_TASKS, MIN_PASSES * len(pool))
        if k == 0 and (enough or elapsed >= MAX_LOOP_S):
            break
        c0, w0 = time.process_time(), time.perf_counter()
        res = tasks.run(workload, pool[k], files[k])
        w1, c1 = time.perf_counter(), time.process_time()
        started.append(w0 - start)
        latency.append(w1 - w0)
        cpu.append(c1 - c0)
        _record(outputs, k, tasks.encode(res))
        i += 1
    return started, latency, cpu, outputs, probes


def _pass(tasks, workload, pool, files, n, outputs=None):
    start = time.perf_counter()
    for i in range(n):
        k = i % len(pool)
        res = tasks.run(workload, pool[k], files[k])
        if outputs is not None:
            outputs.append((k, res))
    return time.perf_counter() - start


def main() -> int:
    workload, seed, seconds, mode, scratch = sys.argv[1:6]
    seed, seconds = int(seed), float(seconds)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import gen
    import probe

    pool = gen.pool(workload, seed)
    warm = gen.warmup_task(workload, seed)
    files = _input_files(workload, pool + [warm], scratch)

    before = [probe.probe_s() for _ in range(probe.AROUND_SETUP)]
    t0 = time.perf_counter()
    import conespec  # noqa: F401  (the import is what set-up time measures)
    import tasks

    tracer = None
    if mode == "trace":
        import spans
        from conespec import cli, cone, deficiency, expansions, mellin, sal, specfun

        modules = {"specfun": specfun, "expansions": expansions, "mellin": mellin,
                   "sal": sal, "cone": cone, "deficiency": deficiency, "cli": cli}
        tracer = spans.Tracer(modules)
        tracer.install()
    tasks.run(workload, warm, files[-1])
    setup_s = time.perf_counter() - t0
    after = [probe.probe_s() for _ in range(probe.AROUND_SETUP)]
    result = {"setup_s": setup_s, "setup_probe_s": before + after}

    if mode == "run":
        started, latency, cpu, outputs, probes = _closed_loop(tasks, probe, workload, pool,
                                                              files, seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(started_s=started, latency_s=latency, cpu_s=cpu, probes=probes)
    elif mode == "trace":
        # warm-up spans stay (they hold the cold-cache work); then the same
        # tasks run once untraced and once traced, so the counts are exact
        n = 2 * len(pool)
        tracer.uninstall()
        untraced = _pass(tasks, workload, pool, files, n)
        tracer.install()
        raw: list = []
        traced = _pass(tasks, workload, pool, files, n, raw)
        tracer.uninstall()
        outputs = {}
        for k, res in raw:
            _record(outputs, k, tasks.encode(res))
        per_layer = tracer.metrics()
        per_layer["trace_overhead"] = traced / untraced
        tracer.write(os.path.join(scratch, "spans.tsv.gz"))
        result.update(per_layer=per_layer, n_spans=len(tracer.spans))
    if mode in ("run", "trace"):
        result["outputs"] = [[k, count, enc] for k, seen in sorted(outputs.items())
                             for enc, count in seen.values()]
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
