"""Kernel selection: compiled condensation core with pure-Python fallback.

The compiled kernel (Cython, 64-bit with 128-bit intermediates) is picked at
import when available and is exact for 0/+-1 skew matrices up to dimension
44; anything larger silently routes to the pure-Python big-integer kernel.
Set CAUCHON_BACKEND=python or =compiled to force a choice (forcing
'compiled' fails fast if the extension is missing).
"""

from __future__ import annotations

import os
from typing import Sequence

from . import _kernel_py

try:
    from . import _kernel as _compiled  # type: ignore[attr-defined]
except ImportError:  # extension not built; pure Python still works
    _compiled = None

_forced = os.environ.get("CAUCHON_BACKEND", "").strip().lower()
if _forced == "python":
    _compiled = None
elif _forced == "compiled" and _compiled is None:
    raise ImportError(
        "CAUCHON_BACKEND=compiled but the cauchon._kernel extension is not built"
    )
elif _forced not in ("", "python", "compiled"):
    raise ValueError(f"CAUCHON_BACKEND must be 'python' or 'compiled', got {_forced!r}")

COMPILED_MAX_DIM = 44

__all__ = [
    "COMPILED_MAX_DIM",
    "active_backend",
    "classify_cells",
    "determinant",
]


def active_backend() -> str:
    """Name of the kernel used for small 0/+-1 problems."""
    return "python" if _compiled is None else "compiled"


def classify_cells(rows: Sequence[int], cols: Sequence[int]) -> tuple[int, int]:
    """(Pfaffian, nullity) for the white squares at the given coordinates."""
    if _compiled is not None and len(rows) <= COMPILED_MAX_DIM:
        return _compiled.classify_cells(rows, cols)
    return _kernel_py.classify_cells(rows, cols)


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (pure Python; not on the census hot path)."""
    return _kernel_py.determinant(matrix)
