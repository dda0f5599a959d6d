"""Shared utilities: array windows, table rendering, deterministic RNG."""

from repro.utils.arrays import (
    as_chunks,
    ceil_div,
    round_up,
    sliding_windows,
)
from repro.utils.rng import default_rng
from repro.utils.tables import format_table

__all__ = [
    "as_chunks",
    "ceil_div",
    "default_rng",
    "format_table",
    "round_up",
    "sliding_windows",
]
