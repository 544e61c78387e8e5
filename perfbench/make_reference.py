"""Write reference.json: the exact answers every benchmark run is checked against.

    python3 perfbench/make_reference.py [--jobs 2]

It fingerprints, through the CLI, the two sweeps and every digraph of the
solve-batch pool, records each pool digraph's kernel nodes (the cost
make_batch balances seeds by; never compared), and checks each pool
digraph with n <= 10 against the exhaustive oracle.  The committed file was computed once from the commit
that introduced the benchmark; regenerate it only for a change that is
meant to alter answers, never to make a failing run pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from domchrom import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2, help="oracle worker processes")
    args = parser.parse_args()

    client = workloads.Client(cli)
    swept = {name: client.call(argv)[0] for name, argv in workloads.SWEEP_ARGV.items()}
    pool = workloads.make_pool()
    workdir = HERE.parent / ".perfbench-work" / "reference"
    workloads.write_inputs(workdir, pool)
    solved = [
        client.call(
            ["solve", str(workdir / f"g{inst.index}.txt"), "--mode", inst.mode, "--json"]
        )[0]
        for inst in pool
    ]
    if client.failed:
        print("\n".join(client.failures), file=sys.stderr)
        return 1
    sweeps = {name: workloads.sweep_fingerprint(p) for name, p in swept.items()}
    solve = [workloads.solve_fingerprint(p) for p in solved]
    cost = [p["outputs"]["nodes_explored"] for p in solved]

    small = [inst for inst in pool if inst.n <= workloads.ORACLE_MAX_N]
    with ProcessPoolExecutor(max_workers=args.jobs) as ex:
        values = list(ex.map(workloads.oracle_value, small, chunksize=8))
    wrong = [
        (inst.index, value, solve[inst.index][0])
        for inst, value in zip(small, values)
        if value != solve[inst.index][0]
    ]
    if wrong:
        print(f"oracle disagrees with the solver on {wrong}", file=sys.stderr)
        return 1

    reference = {
        "pool_digest": workloads.pool_digest(pool),
        "oracle_checked": len(small),
        "sweeps": sweeps,
        "solve": solve,
        "cost": cost,
    }
    out = HERE / "reference.json"
    out.write_text(json.dumps(reference, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {out.name}: {len(solve)} solves, {len(small)} oracle-checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
