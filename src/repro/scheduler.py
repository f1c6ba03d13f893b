"""Public alias for the stage scheduler layer.

``repro.scheduler.disable_pipelining()`` is the documented escape
hatch for running shuffle map stages one at a time behind barriers
(like ``repro.engine.batches.disable_columnar``); the implementation
lives in :mod:`repro.engine.scheduler`.

This module re-exports the implementation's scheduling surface — the
drift-guard test in ``tests/engine/test_scheduler.py`` asserts the two
stay identical.
"""

from repro.engine.scheduler import (
    ExecutorPool,
    StageScheduler,
    disable_pipelining,
    enable_pipelining,
    pipelining_enabled,
)

__all__ = [
    "ExecutorPool",
    "StageScheduler",
    "disable_pipelining",
    "enable_pipelining",
    "pipelining_enabled",
]
