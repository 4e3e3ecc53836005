"""Process-wide cache of compiled predictor-kernel code objects.

The TAGE and BTB kernels are generated Python source (geometry inlined as
literals, per-thread state bound in the function globals).  The set of
distinct sources is fixed by the predictor geometry and the isolation arm,
while every simulated case builds a fresh branch prediction unit, so the
code objects are cached for the whole process keyed by the source text: a
kernel is compiled once per process, never once per predictor instance.
There is no eviction — the number of distinct sources is small and bounded.
"""

from __future__ import annotations

from types import CodeType
from typing import Dict

__all__ = ["build_kernel"]

_CODE: Dict[str, CodeType] = {}


def build_kernel(source: str, filename: str, namespace: dict):
    """Execute a generated kernel source in ``namespace``; return ``_kernel``.

    ``source`` must define a function named ``_kernel``.  ``filename`` labels
    the code object (tracebacks, profilers) on its first compilation.
    """
    code = _CODE.get(source)
    if code is None:
        code = _CODE[source] = compile(source, filename, "exec")
    exec(code, namespace)
    return namespace["_kernel"]
