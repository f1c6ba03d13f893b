"""Public alias for the logical rewrite optimizer.

``repro.optimizer.disable()`` lowers recorded plans exactly as
written — the plans-as-written reference the optimizer's byte-identity
tests compare against; the implementation lives in
:mod:`repro.core.optimizer`.
"""

from repro.core.optimizer import (
    disable,
    enable,
    enabled,
    optimize,
    plan_cost,
)

__all__ = [
    "disable",
    "enable",
    "enabled",
    "optimize",
    "plan_cost",
]
