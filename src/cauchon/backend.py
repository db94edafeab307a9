"""Kernel selection: compiled condensation core with pure-Python fallback.

The compiled kernel (Cython, 64-bit with 128-bit intermediates) is used
whenever the ``cauchon._kernel`` extension imports; it is exact for 0/+-1
skew matrices up to dimension 44, and anything larger routes to the
pure-Python big-integer kernel. Without the extension every call goes to
the pure-Python kernel, which gives the same results.
"""

from __future__ import annotations

from typing import Sequence

from . import _kernel_py

try:
    from . import _kernel as _compiled  # type: ignore[attr-defined]
except ImportError:  # extension not built; pure Python still works
    _compiled = None

COMPILED_MAX_DIM = 44

__all__ = [
    "COMPILED_MAX_DIM",
    "active_backend",
    "classify_cells",
]


def active_backend() -> str:
    """Name of the kernel used for small 0/+-1 problems."""
    return "python" if _compiled is None else "compiled"


def classify_cells(rows: Sequence[int], cols: Sequence[int]) -> tuple[int, int]:
    """(Pfaffian, nullity) for the white squares at the given coordinates."""
    if _compiled is not None and len(rows) <= COMPILED_MAX_DIM:
        return _compiled.classify_cells(rows, cols)
    return _kernel_py.classify_cells(rows, cols)
