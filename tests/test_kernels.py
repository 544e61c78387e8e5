"""Backend parity.

The compiled kernel and the pure-Python kernel implement the same
search with the same branching order, so they must agree not only on
values and witnesses but on the number of nodes explored.  Both must
also agree, node for node, with the loop-based domination check kept
below as the reference.
"""

import os
import random
import subprocess
import sys

import pytest

from conftest import random_connected_digraph
from domchrom import DominationMode, dominator_chromatic_number, find_dominator_coloring
from domchrom import kernel


def test_python_backend_is_always_available():
    names = kernel.available_backends()
    assert names[0] == "python"
    assert kernel.backend_name in names


def test_unknown_backend_is_rejected():
    before = kernel.backend_name
    with pytest.raises(ValueError):
        kernel.load_backend("fortran")
    with pytest.raises(ValueError):
        kernel.use_backend("fortran")
    assert kernel.backend_name == before


@pytest.mark.skipif(
    "c" not in kernel.available_backends(), reason="compiled kernel not built"
)
def test_backends_agree_exactly():
    rng = random.Random(7)
    cases = [random_connected_digraph(rng, rng.randint(2, 7)) for _ in range(30)]
    results = {}
    for name in ("python", "c"):
        kernel.use_backend(name)
        try:
            per_backend = []
            for d in cases:
                for mode in DominationMode:
                    out = dominator_chromatic_number(d, mode)
                    witness = out.witness.assignment if out.witness else None
                    per_backend.append((out.value, witness, out.nodes_explored))
            results[name] = per_backend
        finally:
            kernel.use_backend(None)
    assert results["python"] == results["c"]


@pytest.mark.skipif(
    "c" not in kernel.available_backends(), reason="compiled kernel not built"
)
def test_backend_switch_affects_fixed_budget_search():
    d = random_connected_digraph(random.Random(11), 6)
    kernel.use_backend("python")
    try:
        a = find_dominator_coloring(d, 4)
    finally:
        kernel.use_backend(None)
    kernel.use_backend("c")
    try:
        b = find_dominator_coloring(d, 4)
    finally:
        kernel.use_backend(None)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.assignment == b.assignment


def _reference_dominator(n, adj, outs, required, k):
    """The loop-based search: every placement scans each due requirement
    against the opened classes."""
    req = [((outs[v]).bit_length() - 1, ~outs[v]) for v in required]
    color = [-1] * n
    class_masks = [0] * k
    used_stack = [0] * (n + 1)
    trial = [0] * n
    nodes = 0
    i = 0
    while True:
        used = used_stack[i]
        c = trial[i]
        placed = False
        while c <= min(used, k - 1):
            cm = class_masks[c]
            if not cm & adj[i]:
                nodes += 1
                class_masks[c] = cm | 1 << i
                new_used = used + (c == used)
                feasible = all(
                    maxout > i and new_used < k
                    or any(not class_masks[j] & not_out for j in range(new_used))
                    for maxout, not_out in req
                )
                if feasible:
                    color[i], trial[i], used_stack[i + 1] = c, c + 1, new_used
                    placed = True
                    break
                class_masks[c] = cm
            c += 1
        if placed:
            i += 1
            if i == n:
                return color, nodes
            trial[i] = 0
            continue
        i -= 1
        if i < 0:
            return None, nodes
        class_masks[color[i]] &= ~(1 << i)
        color[i] = -1


def test_kernel_matches_reference_predicate():
    rng = random.Random(20261018)
    backends = [kernel.load_backend(name) for name in kernel.available_backends()]
    required_sinks = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        density = rng.choice((0.2, 0.35, 0.5, 0.7))
        adj = [0] * n
        outs = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    a, b = (u, v) if rng.random() < 0.5 else (v, u)
                    outs[a] |= 1 << b
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        for mode in DominationMode:
            if mode is DominationMode.STRICT:
                required = list(range(n))
                required_sinks += outs.count(0)
            else:
                required = [v for v in range(n) if outs[v]]
            for k in range(1, n + 1):
                expected = _reference_dominator(n, adj, outs, required, k)
                for impl in backends:
                    got = impl.solve_fixed_k_dominator(n, adj, outs, required, k)
                    assert got == expected, (impl.__name__, n, outs, required, k)
    assert required_sinks > 0


def _backend_name_under_env(value: str) -> str:
    env = dict(os.environ, DOMCHROM_KERNEL=value)
    proc = subprocess.run(
        [sys.executable, "-c", "import domchrom.kernel as k; print(k.backend_name)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_env_variable_forces_python_backend():
    assert _backend_name_under_env("python") == "python"


@pytest.mark.skipif(
    "c" not in kernel.available_backends(), reason="compiled kernel not built"
)
def test_env_variable_forces_compiled_backend():
    assert _backend_name_under_env("c") == "c"


def test_env_variable_with_bad_value_fails_loudly():
    proc = subprocess.run(
        [sys.executable, "-c", "import domchrom.kernel"],
        capture_output=True,
        text=True,
        env=dict(os.environ, DOMCHROM_KERNEL="fortran"),
    )
    assert proc.returncode != 0
    assert "fortran" in proc.stderr
