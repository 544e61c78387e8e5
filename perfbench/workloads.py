"""Seeded inputs, answer fingerprints and one pass of each workload.

Every workload is a closed loop with one client: the next CLI call is
sent only after the previous one returned, because CLI callers wait for
each reply.  Calls go through the public entry ``domchrom.cli.run(argv)``
in this process, with stdout captured; the program sees only argv and
the generated input files.

``solve-batch`` draws its requests from a fixed pool of random digraphs
whose answers and costs were recorded once (see make_reference.py), so
every seed's answers can be checked exactly without solving them twice.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

SWEEP_ARGV = {
    "sweep-cycle": ["sweep", "cycle", "--n", "12", "--json"],
    "sweep-star": ["sweep", "star", "--n", "16", "--workers", "2", "--json"],
}
# The serial twin of sweep-star: the traced run takes its layer split
# from this, because forked pool workers lose their spans.
STAR_SERIAL_ARGV = ["sweep", "star", "--n", "16", "--json"]
STAR_WORKERS = 2

POOL_SEED = 190207241
POOL_SIZE = 2400
TOP_SHARE = 0.01
N_MIN, N_MAX = 8, 16
DENSITIES = (0.25, 0.4, 0.55)
ORACLE_MAX_N = 10

SWEEP_FINGERPRINT_KEYS = (
    "orientations",
    "distribution",
    "infeasible_count",
    "min_value",
    "max_value",
    "argmin_codes",
    "argmax_codes",
    "argmin_overflow",
    "argmax_overflow",
)


@dataclass(frozen=True)
class Instance:
    """One solve request: a pool digraph and its domination mode."""

    index: int
    n: int
    arcs: tuple[tuple[int, int], ...]
    mode: str

    def text(self) -> str:
        body = "".join(f"{u} {v}\n" for u, v in self.arcs)
        return f"digraph {self.n}\n{body}"


def _random_arcs(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return arcs


def _remove_sinks(rng: random.Random, n: int, arcs: list[tuple[int, int]]) -> None:
    """Give every sink an out-arc: to a non-neighbour when it has one,
    else by reversing an in-arc whose tail keeps another out-arc."""
    while True:
        outdeg = [0] * n
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in arcs:
            outdeg[u] += 1
            nbrs[u].add(v)
            nbrs[v].add(u)
        sinks = [v for v in range(n) if outdeg[v] == 0]
        if not sinks:
            return
        v = sinks[0]
        free = [w for w in range(n) if w != v and w not in nbrs[v]]
        if free:
            arcs.append((v, rng.choice(free)))
            continue
        tails = [u for u, w in arcs if w == v and outdeg[u] > 1] or [
            u for u, w in arcs if w == v
        ]
        u = rng.choice(tails)
        arcs[arcs.index((u, v))] = (v, u)


def make_pool() -> list[Instance]:
    """The fixed request pool.  Every fourth entry is strict; strict
    entries alternate between sink-free digraphs (mostly feasible) and
    unrestricted ones (mostly infeasible once every budget is refuted)."""
    rng = random.Random(POOL_SEED)
    pool = []
    for i in range(POOL_SIZE):
        n = rng.randint(N_MIN, N_MAX)
        arcs = _random_arcs(rng, n, rng.choice(DENSITIES))
        strict = i % 4 == 3
        if strict and (i // 4) % 2 == 0:
            _remove_sinks(rng, n, arcs)
        pool.append(Instance(i, n, tuple(arcs), "strict" if strict else "sink-exempt"))
    return pool


def pool_digest(pool: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in pool:
        h.update(f"{inst.mode}\n{inst.text()}".encode())
    return h.hexdigest()


def _request_class(inst: Instance) -> int:
    """0 sink-exempt, 3 strict sink-free, 7 strict unrestricted."""
    return inst.index % 8 if inst.index % 4 == 3 else 0


def make_batch(pool: list[Instance], cost: list[int], seed: int) -> list[Instance]:
    """About half of the pool, with the same work for every seed.

    A few digraphs carry most of the kernel work (in the pool, 1% of
    them carry 40% of the nodes), so a plain half-sample would change
    the work by up to 30% from seed to seed.  Within each request class
    the costliest TOP_SHARE is therefore always taken; the rest, ranked
    by cost (kernel nodes at the reference commit), form adjacent pairs
    and the seed picks one of each pair.  The seed also sets the order;
    strict requests keep every fourth slot while they last.
    """
    rng = random.Random(seed)
    picked: dict[int, list[Instance]] = {}
    for key in (0, 3, 7):
        members = sorted(
            (inst for inst in pool if _request_class(inst) == key),
            key=lambda inst: (-cost[inst.index], inst.index),
        )
        top = math.ceil(len(members) * TOP_SHARE)
        chosen = members[:top]
        rest = members[top:]
        chosen += [rest[j + rng.randrange(2)] for j in range(0, len(rest) - 1, 2)]
        chosen += rest[len(rest) - len(rest) % 2 :]
        rng.shuffle(chosen)
        picked[key] = chosen
    batch = []
    while any(picked.values()):
        i = len(batch)
        source = picked[i % 8 if i % 4 == 3 else 0]
        if not source:
            source = next(insts for insts in picked.values() if insts)
        batch.append(source.pop())
    return batch


def oracle_value(inst: Instance) -> int | None:
    """The exhaustive reference value; shares no code with the kernel."""
    from domchrom.coloring import DominationMode
    from domchrom.graphs import Digraph
    from domchrom.solver import dominator_chromatic_number_oracle

    return dominator_chromatic_number_oracle(
        Digraph(inst.n, inst.arcs), DominationMode(inst.mode)
    )


def sweep_fingerprint(payload: dict) -> dict:
    row = payload["outputs"]["rows"][0]
    return {key: row[key] for key in SWEEP_FINGERPRINT_KEYS}


def solve_fingerprint(payload: dict) -> list:
    out = payload["outputs"]
    return [out["value"], out["witness"]]


class Client:
    """Calls ``cli.run`` with captured output and counts every call.

    A call fails on an unexpected exit code, an exception, output that is
    not JSON, or an answer that differs from the reference; ``check``
    records the last.
    """

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: dict[str, list[float]] = {"solve": [], "verify": []}

    def call(self, argv: list[str]) -> tuple[dict | None, float]:
        """One CLI call; returns its parsed JSON envelope (None when the
        call failed) and its latency in seconds."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.run(argv)
        except Exception as exc:  # a traceback is a failed call, not a crash
            latency = time.perf_counter() - t0
            self.fail(f"{argv}: raised {exc!r}")
            return None, latency
        latency = time.perf_counter() - t0
        if rc != 0:
            self.fail(f"{argv}: exit {rc}: {err.getvalue().strip()}")
            return None, latency
        try:
            return json.loads(out.getvalue()), latency
        except json.JSONDecodeError:
            self.fail(f"{argv}: output is not JSON")
            return None, latency

    def check(self, what: str, data, extract, want) -> bool:
        """Whether extract(data) equals the reference; a mismatch or a
        malformed envelope fails the call."""
        try:
            got = extract(data)
        except (KeyError, IndexError, TypeError) as exc:
            self.fail(f"{what}: malformed output ({exc!r})")
            return False
        if got != want:
            self.fail(f"{what}: got {got!r}, reference {want!r}")
            return False
        return True

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def sweep_pass(client: Client, argv: list[str], reference: dict) -> None:
    payload, latency = client.call(argv)
    client.latencies["solve"].append(latency)
    if payload is not None:
        client.check(" ".join(argv), payload, sweep_fingerprint, reference)


def write_inputs(workdir: Path, batch: list[Instance]) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for inst in batch:
        (workdir / f"g{inst.index}.txt").write_text(inst.text())


def batch_pass(client: Client, workdir: Path, batch: list[Instance], reference: list) -> None:
    """Solve every request; verify each feasible answer's witness."""
    for inst in batch:
        graph = str(workdir / f"g{inst.index}.txt")
        payload, latency = client.call(["solve", graph, "--mode", inst.mode, "--json"])
        client.latencies["solve"].append(latency)
        want = reference[inst.index]
        if payload is None or not client.check(
            f"solve g{inst.index} {inst.mode}", payload, solve_fingerprint, want
        ):
            continue
        value, witness = want
        if value is None:
            continue
        coloring = workdir / f"c{inst.index}.txt"
        body = "".join(f"{v} {c}\n" for v, c in enumerate(witness))
        coloring.write_text(f"coloring {inst.n} {value}\n{body}")
        payload, latency = client.call(
            ["verify", graph, str(coloring), "--mode", inst.mode, "--json"]
        )
        client.latencies["verify"].append(latency)
        if payload is not None:
            client.check(f"verify g{inst.index}", payload, lambda p: p["outputs"]["ok"], True)
