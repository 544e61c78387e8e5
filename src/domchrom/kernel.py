"""Import-time selection of the search kernel backend.

Prefers the compiled extension and falls back to the pure-Python twin.
Set DOMCHROM_KERNEL=python or DOMCHROM_KERNEL=c to force a backend
(forcing "c" fails loudly when the extension was not built).

Each backend has one search, solve_fixed_k_dominator.  A proper coloring
is that search with no vertex required, so solve_fixed_k_proper is
defined here once, on whichever backend is active.  Neither backend
sorts required: the solver orders it for the class-packing walk.
"""

from __future__ import annotations

import os


def load_backend(name: str):
    if name == "python":
        from . import _kernel_py

        return _kernel_py
    if name == "c":
        from . import _kernel_c  # type: ignore[attr-defined]

        return _kernel_c
    raise ValueError(f"unknown kernel backend {name!r}")


def available_backends() -> tuple[str, ...]:
    """Backends importable in this environment, python always first."""
    names = ["python"]
    try:
        load_backend("c")
        names.append("c")
    except ImportError:
        pass
    return tuple(names)


_default_name = os.environ.get("DOMCHROM_KERNEL")
if _default_name is None:
    _default_name = available_backends()[-1]
_impl = load_backend(_default_name)
backend_name = _default_name
solve_fixed_k_dominator = _impl.solve_fixed_k_dominator


def solve_fixed_k_proper(n: int, adj: list[int], k: int) -> list[int] | None:
    """Proper coloring with at most k classes, or None: the dominator
    search with adj as the out-sets and no vertex required.  It reads
    _impl, not this module's solve_fixed_k_dominator, so a wrapper around
    that name never counts a chromatic search."""
    return _impl.solve_fixed_k_dominator(n, adj, adj, (), k)[0]


def use_backend(name: str | None) -> str:
    """Rebind the active kernel in this process; None restores the
    import-time default.  The bench and the tests switch backends with
    it; a subprocess picks its backend at import, honoring
    DOMCHROM_KERNEL."""
    global _impl, backend_name, solve_fixed_k_dominator
    target = _default_name if name is None else name
    _impl = load_backend(target)
    backend_name = target
    solve_fixed_k_dominator = _impl.solve_fixed_k_dominator
    return backend_name
