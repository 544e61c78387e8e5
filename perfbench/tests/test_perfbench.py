"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import reference_load  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from domchrom import cli  # noqa: E402
from domchrom.graphs import cycle_base  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def make_batch(seed: int) -> list[workloads.Instance]:
    return workloads.make_batch(workloads.make_pool(), REFERENCE["cost"], seed)


def small_batch(seed: int, size: int = 24) -> list[workloads.Instance]:
    return make_batch(seed)[:size]


def run_main(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv)
    return rc, json.loads(out.getvalue().splitlines()[-1])


def test_generator_is_deterministic_for_a_seed():
    pool = workloads.make_pool()
    assert workloads.pool_digest(pool) == REFERENCE["pool_digest"]
    assert make_batch(7) == make_batch(7)
    assert {inst.index for inst in make_batch(7)} != {inst.index for inst in make_batch(8)}


def test_every_seed_gets_the_same_mix_and_work():
    cost = REFERENCE["cost"]
    work = set()
    for seed in (1, 2, 3):
        batch = make_batch(seed)
        assert len({inst.index for inst in batch}) == len(batch) >= 1200
        assert sum(inst.mode == "strict" for inst in batch[:1200]) == 300
        for i, inst in enumerate(batch[:1200]):
            assert inst.mode == ("strict" if i % 4 == 3 else "sink-exempt")
            assert workloads.N_MIN <= inst.n <= workloads.N_MAX
        sink_free = [inst for i, inst in enumerate(batch[:1200]) if i % 8 == 3]
        assert all({u for u, _ in inst.arcs} == set(range(inst.n)) for inst in sink_free)
        work.add(sum(cost[inst.index] for inst in batch))
    assert max(work) / min(work) < 1.01


def test_correct_batch_has_no_failures(tmp_path):
    batch = small_batch(5)
    workloads.write_inputs(tmp_path, batch)
    client = workloads.Client(cli)
    workloads.batch_pass(client, tmp_path, batch, REFERENCE["solve"])
    assert client.failed == 0, client.failures
    assert client.attempted > len(batch)


def test_corrupted_answer_raises_fail_ratio(tmp_path, monkeypatch):
    real = cli.dominator_chromatic_number

    def corrupted(d, mode):
        out = real(d, mode)
        return out if out.value is None else dataclasses.replace(out, value=out.value + 1)

    monkeypatch.setattr(cli, "dominator_chromatic_number", corrupted)
    batch = small_batch(5)
    workloads.write_inputs(tmp_path, batch)
    client = workloads.Client(cli)
    workloads.batch_pass(client, tmp_path, batch, REFERENCE["solve"])
    assert client.failed / client.attempted > 0


def test_corrupted_sweep_fails_the_run(monkeypatch):
    real = cli.sweep
    monkeypatch.setattr(cli, "sweep", lambda base, mode, **kw: real(cycle_base(5), mode))
    rc, result = run_main(["--workload", "sweep-cycle", "--seed", "1", "--seconds", "0.01"])
    assert rc == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_result_line_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= {*workloads.SWEEP_ARGV, "solve-batch"}
    rc, result = run_main(["--workload", "sweep-cycle", "--seed", "2", "--seconds", "0.01"])
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def traced_pass(batch, workdir) -> tuple[dict, list]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.pass"):
            workloads.batch_pass(workloads.Client(cli), workdir, batch, REFERENCE["solve"])
    finally:
        tracer.remove()
    return tracing.layer_metrics(tracer.spans), tracer.spans


def test_counts_repeat_exactly_and_self_times_add_up(tmp_path):
    batch = small_batch(9)
    workloads.write_inputs(tmp_path, batch)
    first, spans = traced_pass(batch, tmp_path)
    second, _ = traced_pass(batch, tmp_path)
    for key in tracing.COUNT_KEYS:
        assert first[key] == second[key], key
    assert first["solver.orientation_solves"] == len(batch)
    assert first["kernel.dom_calls"] == first["kernel.found_calls"] + first["kernel.refuted_calls"]
    assert first["cli.calls"] == len(batch) + first["coloring.verify_calls"]
    root = spans[0]
    assert root[tracing.NAME] == "bench.pass"
    wall = root[tracing.END] - root[tracing.START]
    assert sum(tracing.self_times(spans)) == pytest.approx(wall)
    assert first["trace.layer_self_sum_s"] == pytest.approx(wall)


def test_tracer_restores_every_binding():
    from domchrom import kernel

    before = {name: getattr(cli, name) for name in dir(cli)}
    dom = kernel.solve_fixed_k_dominator
    tracer = tracing.Tracer()
    tracer.install()
    assert kernel.solve_fixed_k_dominator is not dom
    tracer.remove()
    assert kernel.solve_fixed_k_dominator is dom
    assert {name: getattr(cli, name) for name in dir(cli)} == before


def test_reference_load_is_frozen():
    load = reference_load.ReferenceLoad()
    assert load.run() == reference_load.NODES
    host = run.HostScale(reps=1)
    assert 0 < host.next() < 100
