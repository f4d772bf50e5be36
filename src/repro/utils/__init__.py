"""Shared utilities: seeding, logging, perf counters, arenas and tables."""

from . import arena, perf
from .arena import ActivationArena
from .logging import get_logger, set_verbosity
from .rng import SeedSequence, seeded_rng, spawn_rngs
from .tables import format_table

__all__ = [
    "get_logger",
    "set_verbosity",
    "seeded_rng",
    "spawn_rngs",
    "SeedSequence",
    "format_table",
    "arena",
    "ActivationArena",
    "perf",
]
