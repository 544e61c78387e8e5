"""Import-time selection of the search kernel backend.

Prefers the compiled extension and falls back to the pure-Python twin.
Set DOMCHROM_KERNEL=python or DOMCHROM_KERNEL=c to force a backend
(forcing "c" fails loudly when the extension was not built).
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


_forced = os.environ.get("DOMCHROM_KERNEL")
if _forced is not None:
    _impl = load_backend(_forced)
    backend_name = _forced
else:
    try:
        from . import _kernel_c as _impl  # type: ignore[attr-defined,no-redef]

        backend_name = "c"
    except ImportError:
        from . import _kernel_py as _impl  # type: ignore[no-redef]

        backend_name = "python"

_default_name = backend_name

solve_fixed_k_proper = _impl.solve_fixed_k_proper
solve_fixed_k_dominator = _impl.solve_fixed_k_dominator


def use_backend(name: str | None) -> str:
    """Rebind the active kernel in this process; None restores the
    import-time default.  Sweep pool workers run it once at start-up with
    the parent's name; other subprocesses pick their backend at import,
    honoring DOMCHROM_KERNEL."""
    global _impl, backend_name, solve_fixed_k_proper, solve_fixed_k_dominator
    target = _default_name if name is None else name
    _impl = load_backend(target)
    backend_name = target
    solve_fixed_k_proper = _impl.solve_fixed_k_proper
    solve_fixed_k_dominator = _impl.solve_fixed_k_dominator
    return backend_name
