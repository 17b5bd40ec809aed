"""Behavioral simulator of the accelerator's scheduling, caching, and cost."""

from .scheduler import ScheduleBatch, schedule_epoch
from .cache import Cache, CACHE_POLICIES
from .cost import CostConfig, SimReport, simulate, sweep_capacities, PRESETS

__all__ = [
    "ScheduleBatch", "schedule_epoch",
    "Cache", "CACHE_POLICIES",
    "CostConfig", "SimReport", "simulate", "sweep_capacities", "PRESETS",
]
