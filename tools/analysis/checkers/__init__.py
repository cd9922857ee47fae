"""The repo-specific rule set.

Seven checkers, one per invariant class the repository's correctness
story rests on (see ``docs/static_analysis.md`` for the full catalogue):

* :class:`~tools.analysis.checkers.determinism.DeterminismChecker` —
  bit-exactness-critical modules may not consult wall clocks, global
  RNGs or set iteration order;
* :class:`~tools.analysis.checkers.fingerprint.FingerprintChecker` —
  content-addressed cache keys must consume every field of the
  dataclasses they fingerprint;
* :class:`~tools.analysis.checkers.locks.LockDisciplineChecker` —
  attributes annotated ``#: guarded-by: <lock>`` are only touched under
  ``with self.<lock>``;
* :class:`~tools.analysis.checkers.lifecycle.ResourceLifecycleChecker` —
  shared-memory segments unlink, executors shut down, process-pool
  dispatch accounts for ``BaseException``, ``open()`` uses ``with``;
* :class:`~tools.analysis.checkers.atomicwrite.AtomicWriteChecker` —
  durable artifacts land via the temp + ``os.replace`` idiom;
* :class:`~tools.analysis.checkers.asyncdiscipline.AsyncDisciplineChecker` —
  ``async def``\\ s on the runtime spine never call blocking primitives
  (``time.sleep``, blocking sockets, non-awaited ``.wait()``);
* :class:`~tools.analysis.checkers.surface.PublicSurfaceChecker` —
  every public top-level function and class in ``repro`` has a caller
  outside ``tests/``.
"""

from __future__ import annotations

from typing import List

from tools.analysis.core import Checker
from tools.analysis.checkers.asyncdiscipline import AsyncDisciplineChecker
from tools.analysis.checkers.atomicwrite import AtomicWriteChecker
from tools.analysis.checkers.determinism import DeterminismChecker
from tools.analysis.checkers.fingerprint import FingerprintChecker
from tools.analysis.checkers.lifecycle import ResourceLifecycleChecker
from tools.analysis.checkers.locks import LockDisciplineChecker
from tools.analysis.checkers.surface import PublicSurfaceChecker

__all__ = [
    "AsyncDisciplineChecker",
    "AtomicWriteChecker",
    "DeterminismChecker",
    "FingerprintChecker",
    "LockDisciplineChecker",
    "PublicSurfaceChecker",
    "ResourceLifecycleChecker",
    "all_checkers",
]


def all_checkers() -> List[Checker]:
    """One fresh instance of every registered checker."""
    return [
        DeterminismChecker(),
        FingerprintChecker(),
        LockDisciplineChecker(),
        ResourceLifecycleChecker(),
        AtomicWriteChecker(),
        AsyncDisciplineChecker(),
        PublicSurfaceChecker(),
    ]
