"""Backend parity.

The compiled kernel and the pure-Python kernel implement the same
search with the same branching order, so they must agree not only on
values and witnesses but on the number of nodes explored.  Both must
also agree, node for node, with the loop-based domination check and
class-packing rule kept below as the reference.  The compiled kernel
is built here from its C source into a temporary directory, so these
checks need only a C compiler and the Python headers, not an installed
extension.
"""

import importlib.util
import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from conftest import random_connected_digraph
from domchrom import DominationMode, dominator_chromatic_number, find_dominator_coloring
from domchrom import _kernel_py, kernel, solver


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


@pytest.mark.usefixtures("compiled_backend")
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


@pytest.mark.usefixtures("compiled_backend")
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


def _reference_dominator(n, adj, outs, required, k, packing=True, forced_open=True):
    """The loop-based search: every placement scans each due requirement
    against the opened classes.

    With forced_open, a vertex due for a join that dominates no opened
    class rules out every join at that depth, so only a new class is
    tried.  With packing, a placement that passes then lists the
    requirements that dominate no opened class, takes them in the order
    of required whenever their uncolored out-neighbors miss those of the
    ones taken before, and refutes the placement when it takes more than
    the classes still left to open.  packing=False, forced_open=False is
    the search with no rule beyond the domination check."""
    req = [((outs[v]).bit_length() - 1, ~outs[v]) for v in required]
    out_lists = [[w for w in range(n) if outs[v] >> w & 1] for v in required]
    color = [-1] * n
    class_masks = [0] * k
    used_stack = [0] * (n + 1)
    trial = [0] * n
    nodes = 0
    i = 0
    while True:
        used = used_stack[i]
        c = trial[i]
        if forced_open and any(
            (maxout <= i or used == k)
            and all(class_masks[j] & not_out for j in range(used))
            for maxout, not_out in req
        ):
            c = max(c, used)
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
                if feasible and packing:
                    classes = [
                        [u for u in range(i + 1) if color[u] == j] for j in range(new_used)
                    ]
                    classes[c].append(i)
                    taken: set[int] = set()
                    disjoint = 0
                    for out in out_lists:
                        if any(set(members) <= set(out) for members in classes):
                            continue
                        reach = {w for w in out if w > i}
                        if not reach & taken:
                            taken |= reach
                            disjoint += 1
                    feasible = disjoint <= k - new_used
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


def _random_instances():
    """Every budget of 300 random digraphs on at most 12 vertices, under
    both requirements: (n, adj, outs, required, k), required as the
    solver orders it."""
    rng = random.Random(20261018)
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
            required = solver._required_vertices(n, outs, mode)
            for k in range(1, n + 1):
                yield n, adj, outs, required, k


def test_kernel_matches_reference_predicate():
    backends = [kernel.load_backend(name) for name in kernel.available_backends()]
    rng = random.Random(19)
    required_sinks = reordered = 0
    nodes = ascending_nodes = unpruned_nodes = 0
    for n, adj, outs, required, k in _random_instances():
        required_sinks += sum(1 for v in required if not outs[v])
        expected = _reference_dominator(n, adj, outs, required, k)
        # the rules cut only subtrees without a coloring
        unpruned = _reference_dominator(
            n, adj, outs, required, k, packing=False, forced_open=False
        )
        assert expected[0] == unpruned[0] and expected[1] <= unpruned[1]
        ascending = _reference_dominator(
            n, adj, outs, sorted(required), k, forced_open=False
        )
        assert ascending[0] == expected[0]
        # the kernels walk required as given: any order finds the same
        # coloring, on the nodes of the reference walking that order
        shuffled = rng.sample(required, len(required))
        walked = _reference_dominator(n, adj, outs, shuffled, k)
        assert walked[0] == expected[0]
        reordered += walked[1] != expected[1]
        nodes += expected[1]
        ascending_nodes += ascending[1]
        unpruned_nodes += unpruned[1]
        for impl in backends:
            got = impl.solve_fixed_k_dominator(n, adj, outs, required, k)
            assert got == expected, (impl.__name__, n, outs, required, k)
            got = impl.solve_fixed_k_dominator(n, adj, outs, shuffled, k)
            assert got == walked, (impl.__name__, n, outs, shuffled, k)
    assert required_sinks > 0
    # a kernel that sorted required itself would make every order cost
    # the same
    assert reordered > 0
    # the degree walk and the forced open cut more than an ascending walk
    assert nodes < ascending_nodes < unpruned_nodes


def test_proper_search_finds_the_first_canonical_coloring():
    """With no vertex required, the search returns the first proper
    canonical coloring with at most k classes in label order, or None
    when there is none: the answers of a dedicated proper search."""
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 7)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        adj = solver._adjacency_masks(n, edges)
        for k in range(1, n + 1):
            proper = [
                a
                for j in range(1, k + 1)
                for a in solver._partitions_exact(n, j)
                if all(a[u] != a[v] for u, v in edges)
            ]
            expected = list(min(proper)) if proper else None
            assert kernel.solve_fixed_k_proper(n, adj, k) == expected, (n, edges, k)


@pytest.fixture(scope="module")
def compiled_twin(tmp_path_factory):
    """_kernel_c.c compiled into a temporary directory and loaded from
    there, whether or not an in-place build exists."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    includes = {sysconfig.get_paths()[key] for key in ("include", "platinclude")}
    if compiler is None or not any(
        os.path.exists(os.path.join(d, "Python.h")) for d in includes
    ):
        pytest.skip("no C compiler or no Python headers")
    source = Path(kernel.__file__).with_name("_kernel_c.c")
    target = tmp_path_factory.mktemp("kernel") / (
        "_kernel_c" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    flags = [f"-I{d}" for d in sorted(includes)]
    subprocess.run(
        [compiler, "-O2", "-shared", "-fPIC", *flags, str(source), "-o", str(target)],
        check=True,
    )
    spec = importlib.util.spec_from_file_location("domchrom._kernel_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled_backend(compiled_twin, monkeypatch):
    """The compiled twin, importable as domchrom._kernel_c for one test,
    so that kernel.use_backend("c") selects it without an in-place
    build."""
    monkeypatch.setitem(sys.modules, "domchrom._kernel_c", compiled_twin)


def _same_dominator(twin, *instance):
    got = twin.solve_fixed_k_dominator(*instance)
    assert got == _kernel_py.solve_fixed_k_dominator(*instance), instance
    return got[0]


def _same_proper(twin, n, adj, k):
    """The search with no vertex required, as kernel.solve_fixed_k_proper
    runs it: the same coloring and node count on both backends."""
    got = twin.solve_fixed_k_dominator(n, adj, adj, [], k)
    assert got == _kernel_py.solve_fixed_k_dominator(n, adj, adj, [], k), (n, adj, k)
    return got[0]


def test_compiled_source_matches_python_kernel(compiled_twin):
    rng = random.Random(19)
    for n, adj, outs, required, k in _random_instances():
        found = _same_dominator(compiled_twin, n, adj, outs, required, k)
        # a shuffled walk: the same coloring, node for node on both
        shuffled = rng.sample(required, len(required))
        assert _same_dominator(compiled_twin, n, adj, outs, shuffled, k) == found
        _same_proper(compiled_twin, n, adj, k)


def test_compiled_source_matches_python_kernel_on_64_vertices(compiled_twin):
    """Sparse digraphs on 64 vertices, with arcs 62 -> 63 -> 0, put the
    top mask bit through every step.  Budgets: the three smallest, n,
    and the class count of the coloring found at n.  A search at that
    count finds the same coloring and is no larger than the one at n, as
    every check is at least as strict; this keeps the exponential
    budgets just below the answer out of the test.

    Each instance but 11 is also solved sink-exempt at its packing
    bound, which is its value, so the first coloring there is the one
    a solve returns.  Instance 1 takes 212 nodes there, against
    22,951,174 with an ascending packing walk and no forced open;
    instance 11 takes hundreds of millions."""
    rng = random.Random(64)
    n = 64
    for index in range(12):
        adj = [0] * n
        outs = [0] * n

        def arc(a, b):
            if not adj[a] >> b & 1:
                outs[a] |= 1 << b
                adj[a] |= 1 << b
                adj[b] |= 1 << a

        p = rng.choice((1.0, 1.5, 2.0)) / n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    arc(*((u, v) if rng.random() < 0.5 else (v, u)))
        arc(n - 2, n - 1)
        arc(n - 1, 0)
        for mode in DominationMode:
            required = solver._required_vertices(n, outs, mode)
            for k in (1, 2, 3):
                _same_dominator(compiled_twin, n, adj, outs, required, k)
            found = _same_dominator(compiled_twin, n, adj, outs, required, n)
            if found is not None:
                _same_dominator(compiled_twin, n, adj, outs, required, max(found) + 1)
        found = _same_proper(compiled_twin, n, adj, n)
        _same_proper(compiled_twin, n, adj, max(found) + 1)
        if index != 11:
            sink_exempt = solver._required_vertices(n, outs, DominationMode.SINK_EXEMPT)
            bound, _ = solver._lower_bound(n, adj, outs, sink_exempt)
            instance = (n, adj, outs, sink_exempt, bound)
            assert _same_dominator(compiled_twin, *instance) is not None
            if index == 1:
                assert compiled_twin.solve_fixed_k_dominator(*instance)[1] <= 1000
    with pytest.raises(ValueError):
        compiled_twin.solve_fixed_k_dominator(65, [0] * 65, [0] * 65, [], 3)


def _backend_name_under_env(value: str, preamble: str = "") -> str:
    env = dict(os.environ, DOMCHROM_KERNEL=value)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            preamble + "import domchrom.kernel as k; print(k.backend_name)",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_env_variable_forces_python_backend():
    assert _backend_name_under_env("python") == "python"


def test_env_variable_forces_compiled_backend(compiled_twin):
    # the subprocess registers the twin as domchrom._kernel_c before the
    # package imports, as an in-place build would provide it
    preamble = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location(\n"
        f"    'domchrom._kernel_c', {compiled_twin.__file__!r})\n"
        "twin = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(twin)\n"
        "sys.modules['domchrom._kernel_c'] = twin\n"
    )
    assert _backend_name_under_env("c", preamble) == "c"


def test_env_variable_with_bad_value_fails_loudly():
    proc = subprocess.run(
        [sys.executable, "-c", "import domchrom.kernel"],
        capture_output=True,
        text=True,
        env=dict(os.environ, DOMCHROM_KERNEL="fortran"),
    )
    assert proc.returncode != 0
    assert "fortran" in proc.stderr


def test_bench_refuses_a_repeat_below_one(monkeypatch, capsys):
    from domchrom import bench

    def refuse(*args, **kwargs):
        raise AssertionError("spawned an interpreter")

    monkeypatch.setattr(bench.subprocess, "run", refuse)
    monkeypatch.setattr(sys, "argv", ["bench", "--repeat", "0"])
    with pytest.raises(SystemExit) as exc:
        bench.main()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "--repeat must be at least 1" in err


def test_bench_runs_once_per_workload():
    proc = subprocess.run(
        [sys.executable, "-m", "domchrom.bench", "--repeat", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"nproc: {os.cpu_count()}" in proc.stdout
    assert "cli solve --json fig4" in proc.stdout
    assert "cli verify --json fig4" in proc.stdout
    # per-code sweeps compare the backends; automaton sweeps call no kernel
    for label in ("sweep cycle n=10 reversed", "sweep path n=1000", "sweep cycle n=200"):
        assert label in proc.stdout
    # a row that calls no kernel runs the same Python on both backends,
    # so it carries no speedup; the others carry one when both ran
    rows = {
        line[: line.index("  ")]: line
        for line in proc.stdout.splitlines()
        if line.startswith(("solve ", "sweep ", "cli "))
    }
    no_kernel = (
        "sweep star n=10 reversed",
        "sweep path n=14 strict reversed",
        "sweep star n=16",
        "sweep path n=1000",
        "sweep cycle n=200",
        "cli verify --json fig4",
    )
    compared = "backends available: python, c" in proc.stdout
    assert len(rows) == 15
    # the ladder row prints its budgets and kernel nodes before any speedup
    assert re.search(
        r"ms  budgets \d+ \(refuted \d+\), nodes \d+(  +\d+\.\dx)?$",
        rows["solve random n=8..16 x40 both modes"],
    ), proc.stdout
    for label, row in rows.items():
        has_ratio = re.search(r"\dx$", row) is not None
        assert has_ratio == (compared and label not in no_kernel), row
    assert re.search(
        r"^cold start: import domchrom\.cli \d+\.\d ms, bare interpreter \d+\.\d ms "
        r"\(median of 1 spawns each; PYTHONDONTWRITEBYTECODE (un)?set\)$",
        proc.stdout,
        re.MULTILINE,
    ), proc.stdout
