"""The domchrom benchmark.

    python3 perfbench/run.py --workload sweep-cycle|sweep-star|solve-batch \\
        --seed N --seconds S --trace 0|1

Runs one workload through ``domchrom.cli.run`` in this process, from the
``src`` tree of the checkout it sits in, and checks every answer against
reference.json.  ``--trace 0`` times the workload untraced, scales the
times to a fixed host speed (see reference_load.py) and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference_load
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 21
ORACLE_SAMPLE = 2
# A solve-batch segment: this many requests (about 0.1 s), then one run
# of the reference load.  A sweep segment is the whole call (seconds),
# followed by SWEEP_LOAD_REPS runs of the load.
SEGMENT_REQUESTS = 12
SWEEP_LOAD_REPS = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "kernel.dom_calls": "count",
    "kernel.dom_nodes": "count",
    "kernel.dom_s": "s",
    "kernel.ns_per_node": "ns",
    "kernel.found_calls": "count",
    "kernel.found_nodes": "count",
    "kernel.found_s": "s",
    "kernel.refuted_calls": "count",
    "kernel.refuted_nodes": "count",
    "kernel.refuted_s": "s",
    "kernel.useful_node_ratio": "ratio",
    "kernel.proper_calls": "count",
    "kernel.proper_s": "s",
    "solver.lower_calls": "count",
    "solver.lower_s": "s",
    "solver.budgets_tried": "count",
    "solver.budgets_refuted": "count",
    "solver.useful_budget_ratio": "ratio",
    "solver.orientation_solves": "count",
    "solver.self_s": "s",
    "solver.us_per_orientation": "us",
    "solver.pool_efficiency": "ratio",
    "solver.pool_overhead_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "formats.calls": "count",
    "formats.parse_s": "s",
    "formats.emit_s": "s",
    "coloring.verify_calls": "count",
    "coloring.verify_s": "s",
    "bench.self_s": "s",
    "setup.interpreter_s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.layer_self_sum_s": "s",
    "trace.spans": "count",
}


@dataclass
class Workload:
    """One workload: the segments one pass runs in order, the pass the
    trace splits by layer (the serial twin for a pooled sweep), and how
    many runs of the reference load are timed after each segment."""

    name: str
    digraphs_per_pass: int
    segments: list[Callable[[workloads.Client], None]]
    traced_pass: Callable[[workloads.Client], None]
    load_reps: int
    pooled: bool = False
    batch: list = field(default_factory=list)

    def run_pass(self, client: workloads.Client) -> None:
        for segment in self.segments:
            segment(client)


def load_program():
    """Import domchrom.cli from this checkout's src tree, and nowhere else."""
    if not (SRC / "domchrom" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'domchrom'} not found; run from a domchrom checkout")
    sys.path.insert(0, str(SRC))
    from domchrom import cli

    if Path(cli.__file__).resolve().parent != SRC / "domchrom":
        raise SystemExit(f"error: imported domchrom from {cli.__file__}, not {SRC}")
    return cli


def run_record() -> dict:
    """Backend, machine and code identity: a backend change must not read
    as a regression or a gain."""
    from domchrom import kernel

    digest = hashlib.sha256()
    for path in sorted((SRC / "domchrom").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
        commit = proc.stdout.strip() or "none"
    return {
        "kernel.backend_name": kernel.backend_name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def build(name: str, seed: int, reference: dict, workdir: Path) -> Workload:
    if name in workloads.SWEEP_ARGV:
        argv = workloads.SWEEP_ARGV[name]
        want = reference["sweeps"][name]
        pooled = name == "sweep-star"
        serial = workloads.STAR_SERIAL_ARGV if pooled else argv
        return Workload(
            name,
            want["orientations"],
            [lambda c: workloads.sweep_pass(c, argv, want)],
            lambda c: workloads.sweep_pass(c, serial, want),
            SWEEP_LOAD_REPS,
            pooled,
        )
    pool = workloads.make_pool()
    if workloads.pool_digest(pool) != reference["pool_digest"]:
        raise SystemExit("error: the request pool no longer matches reference.json")
    batch = workloads.make_batch(pool, reference["cost"], seed)
    workloads.write_inputs(workdir, batch)
    want = reference["solve"]

    def segment(chunk):
        return lambda c: workloads.batch_pass(c, workdir, chunk, want)

    segments = [
        segment(batch[i : i + SEGMENT_REQUESTS]) for i in range(0, len(batch), SEGMENT_REQUESTS)
    ]

    def one_pass(c):
        for seg in segments:
            seg(c)

    return Workload(name, len(batch), segments, one_pass, 1, batch=batch)


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def until(seconds: float, step: Callable[[], None]) -> float:
    """Repeat step until seconds have passed, finishing the step under
    way; returns the elapsed time."""
    start = time.perf_counter()
    while True:
        step()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed


def percentile_ms(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0] * 1000
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1] * 1000


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (a pool
    worker); read after the first timed pass, so that neither the pass
    count nor a set-up interpreter moves it."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


class HostScale:
    """Times the reference load between segments of work; a segment's
    scale is NOMINAL_S over the mean of the load's times on either side
    of it (see reference_load.py)."""

    def __init__(self, reps: int):
        self.load = reference_load.ReferenceLoad()
        self.load.check()
        self.reps = reps
        self.before = self.load.time(reps)

    def next(self) -> float:
        after = self.load.time(self.reps)
        scale = reference_load.NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return scale


def measure_setup() -> tuple[float, float]:
    """Median, host-scaled wall of a fresh interpreter finishing
    ``import domchrom.cli`` (warm bytecode cache), and of a bare
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - t0

    spawn("import domchrom.cli")
    host = HostScale(reps=2)
    bare, full = [], []
    for _ in range(SETUP_SAMPLES):
        b, f = spawn("pass"), spawn("import domchrom.cli")
        scale = host.next()
        bare.append(b * scale)
        full.append(f * scale)
    return statistics.median(full), statistics.median(bare)


def untraced_run(wl: Workload, client: workloads.Client, seconds: float, notes: list) -> dict:
    """Times each segment of each pass, scaled to the nominal host speed
    by the reference load timed between segments.  Every pass repeats
    identical calls, so each segment's time is its median over the
    passes, and wall_s is their sum; each call's latency is likewise its
    median scaled latency over the passes."""
    wl.segments[0](client)  # warm-up, untimed
    host = HostScale(wl.load_reps)
    passes: list[list[tuple[float, float, dict]]] = []
    rss = 0.0

    def step():
        nonlocal rss
        rows = []
        for segment in wl.segments:
            client.latencies = {"solve": [], "verify": []}
            took = timed(lambda: segment(client))
            rows.append((took, host.next(), client.latencies))
        passes.append(rows)
        if len(passes) == 1:
            rss = peak_rss_mb()

    elapsed = until(seconds, step)
    setup_s, _ = measure_setup()

    wall = sum(
        statistics.median(p[j][0] * p[j][1] for p in passes) for j in range(len(wl.segments))
    )

    def latencies(kind: str) -> list[float]:
        per_pass = [[t * scale for _, scale, lat in p for t in lat[kind]] for p in passes]
        return [statistics.median(times) for times in zip(*per_pass)]

    solves, verifies = latencies("solve"), latencies("verify")
    raw = [sum(row[0] for row in p) for p in passes]
    scales = [row[1] for p in passes for row in p]
    notes.append(
        f"passes: {len(passes)} in {elapsed:.3f} s; unscaled pass median {statistics.median(raw):.4f} s, "
        f"fastest {min(raw):.4f} s; host scale median {statistics.median(scales):.4f}, "
        f"range {min(scales):.4f}-{max(scales):.4f}"
    )
    notes.append(f"calls per pass: {len(solves)} solving, {len(verifies)} verify")
    notes.append(f"requests_per_s: {(len(solves) + len(verifies)) / wall:.6g} 1/s")
    notes.append(f"orientations_per_s: {wl.digraphs_per_pass / wall:.6g} 1/s")
    if len(solves) >= 1000:
        notes.append(f"solve_p99_ms: {percentile_ms(solves, 99):.4f} ms")
    if verifies:
        notes.append(f"verify_p50_ms: {percentile_ms(verifies, 50):.4f} ms")
    if len(verifies) >= 1000:
        notes.append(f"verify_p99_ms: {percentile_ms(verifies, 99):.4f} ms")
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "solve_p50_ms": percentile_ms(solves, 50),
        "peak_rss_mb": rss,
    }


def traced_run(wl: Workload, client: workloads.Client, seconds: float, notes: list) -> dict:
    tracer = tracing.Tracer()
    parallel: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []

    def cycle():
        if wl.pooled:
            parallel.append(timed(lambda: wl.run_pass(client)))
        untraced.append(timed(lambda: wl.traced_pass(client)))
        tracer.reset()
        tracer.install()
        try:
            with tracer.span("bench.pass") as root:
                wl.traced_pass(client)
        finally:
            tracer.remove()
        traced.append(root[tracing.END] - root[tracing.START])
        layers.append(tracing.layer_metrics(tracer.spans))

    until(seconds, cycle)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{wl.name}.tsv")

    for key in tracing.COUNT_KEYS:
        values = {m[key] for m in layers}
        if len(values) > 1:
            client.fail(f"{key} differs between traced passes of one seed: {sorted(values)}")
    for m, wall in zip(layers, traced):
        if abs(m["trace.layer_self_sum_s"] - wall) > 1e-3:
            client.fail(f"layer self times sum to {m['trace.layer_self_sum_s']}, pass took {wall}")

    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    serial = statistics.median(untraced)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = serial
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - serial
    if wl.pooled:
        par = statistics.median(parallel)
        workers = workloads.STAR_WORKERS
        metrics["solver.pool_efficiency"] = serial / (workers * par)
        metrics["solver.pool_overhead_s"] = par - serial / workers
    else:
        metrics["solver.pool_efficiency"] = 0.0
        metrics["solver.pool_overhead_s"] = 0.0
    setup_s, bare = measure_setup()
    metrics["setup.interpreter_s"] = bare
    metrics["setup.import_s"] = setup_s - bare
    notes.append(f"traced passes: {len(traced)}; spans in the last: {len(tracer.spans)}")
    return metrics


def check_oracle(wl: Workload, seed: int, reference: dict, client: workloads.Client, notes):
    """Outside the timed phase: a seeded sample of the small requests
    against the exhaustive oracle."""
    small = [inst for inst in wl.batch if inst.n <= workloads.ORACLE_MAX_N]
    sample = random.Random(seed).sample(small, min(ORACLE_SAMPLE, len(small)))
    for inst in sample:
        want = reference["solve"][inst.index][0]
        client.check(f"oracle g{inst.index} {inst.mode}", inst, workloads.oracle_value, want)
    notes.append(f"oracle-checked requests: {[inst.index for inst in sample]}")


def check_repeat(name: str, seed: int, record: dict, metrics: dict, client) -> None:
    """Deterministic counts must repeat exactly across runs of one seed
    on the same source."""
    counts = {key: metrics[key] for key in tracing.COUNT_KEYS}
    path = WORK / f"counts-{name}-{seed}-{record['source_sha256']}.json"
    if path.exists():
        before = json.loads(path.read_text())
        for key, value in counts.items():
            if before.get(key) != value:
                client.fail(f"{key} was {before.get(key)} in an earlier run of seed {seed}, now {value}")
    else:
        path.write_text(json.dumps(counts, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="domchrom benchmark")
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.SWEEP_ARGV, "solve-batch"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    reference = json.loads((HERE / "reference.json").read_text())
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    notes: list[str] = []
    try:
        wl = build(args.workload, args.seed, reference, workdir)
        client = workloads.Client(cli)
        if args.trace:
            metrics = traced_run(wl, client, args.seconds, notes)
            units = PER_LAYER_UNITS
        else:
            metrics = untraced_run(wl, client, args.seconds, notes)
            units = END_TO_END_UNITS
        if wl.batch:
            check_oracle(wl, args.seed, reference, client, notes)
        record = run_record()  # after peak_rss_mb: git would count as a child
        if args.trace:
            check_repeat(wl.name, args.seed, record, metrics, client)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("run: " + "  ".join(f"{k}={v}" for k, v in record.items()))
    for line in notes:
        print(line)
    for message in client.failures:
        print(f"FAILED: {message}")
    print(f"fail_ratio: {client.failed / client.attempted:.6f} ({client.failed} of {client.attempted} calls)")
    for key, unit in units.items():
        print(f"{key}: {metrics[key]:.6g} {unit}")
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
