"""Tests of the benchmark itself (not of conespec).

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_repeats_for_a_seed(workload):
    first = json.dumps(gen.pool(workload, 7))
    assert json.dumps(gen.pool(workload, 7)) == first
    assert json.dumps(gen.warmup_task(workload, 7)) == json.dumps(gen.warmup_task(workload, 7))
    other = gen.pool(workload, 8)
    assert json.dumps(other) != first
    if gen.JITTER_SCALE.get(workload, 1.0):  # another seed moves the inputs themselves
        assert sorted(map(json.dumps, other)) != sorted(map(json.dumps, gen.pool(workload, 7)))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_makes_inputs_for_every_seed(workload):
    # seeds whose moved poles once closed every gap near an s prototype (heat 31, 34)
    for seed in list(range(300)) + [-1, 2**63]:
        gen.pool(workload, seed)
        gen.warmup_task(workload, seed)


def test_times_are_scaled_by_the_probes_around_them():
    import probe
    import run

    ref = probe.REFERENCE_S
    # a short task at half speed, a long one, and a short one at full speed
    result = {"probes": [[0.0, 2 * ref], [0.011, 2 * ref], [5.0, ref], [5.012, ref]],
              "started_s": [0.001, 0.013, 5.002], "latency_s": [0.01, 4.987, 0.01]}
    scaled = run._at_reference_speed(result["latency_s"], result)
    assert scaled == pytest.approx([0.005, 4.987 / 1.5, 0.01])


def _traced(workload, seed, scratch):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("CONE_SPECTRA_THREADS", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), "0", "trace", str(scratch)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["per_layer"]


@pytest.mark.parametrize("workload, busiest", [("series", "specfun.hurwitz_zeta.calls"),
                                               ("heat", "specfun.bessel_i_scaled.calls")])
def test_per_layer_counts_repeat_at_a_seed(workload, busiest, tmp_path):
    one = _traced(workload, 3, tmp_path)
    two = _traced(workload, 3, tmp_path)
    counts = [n for n in spans.per_layer_names() if spans.unit(n) == "count"]
    assert {n: one[n] for n in counts} == {n: two[n] for n in counts}
    assert one[busiest] > 0


def test_checker_counts_a_perturbed_result():
    import tasks

    pool = gen.pool("heat", 5)
    checker = check.Checker("heat", pool)
    outputs = tasks.encode(tasks.run("heat", pool[0], {}))
    verdicts = checker.check(0, outputs)
    k = next(i for i, (name, ok) in enumerate(verdicts) if name == "zeta_hat_lp" and ok)
    name, (re, im) = outputs[k]
    outputs[k] = [name, [re * (1 + 1e-6), im * (1 + 1e-6)]]
    assert checker.check(0, outputs)[k] == (name, False)
    outputs[k] = [name, [float("nan"), 0.0]]
    assert checker.check(0, outputs)[k] == (name, False)


def test_checker_refuses_output_it_cannot_read():
    pool = gen.pool("heat", 5)
    with pytest.raises(check.CheckError):
        check.Checker("heat", pool).check(0, [["zeta_hat_lp", [1.0, 0.0]]])
