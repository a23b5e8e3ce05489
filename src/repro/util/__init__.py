"""Shared utilities: seeding, bit packing, formatting.

These are deliberately dependency-free (NumPy only) so every other
subpackage can import them without cycles.
"""

from repro.util.bitpack import (
    pack_bitmap,
    pack_uints,
    unpack_bitmap,
    unpack_uints,
)
from repro.util.charts import stacked_bars
from repro.util.checkpoint import (
    SCHEMA_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.util.seeding import spawn_rng
from repro.util.tables import format_table

__all__ = [
    "pack_bitmap",
    "unpack_bitmap",
    "pack_uints",
    "unpack_uints",
    "spawn_rng",
    "CheckpointError",
    "SCHEMA_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "format_table",
    "stacked_bars",
]
