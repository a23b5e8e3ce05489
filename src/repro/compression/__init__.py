"""Lossy gradient compressors: quantisation primitives and baselines.

COMPSO itself lives in :mod:`repro.core`; this package holds the shared
compressor interface, the rounding/quantisation primitives of sections
2.3 and 4.2, and the three baseline compressors the paper evaluates
against (QSGD, cuSZ, CocktailSGD) plus a generic Top-k sparsifier.
"""

from repro.compression.base import (
    METADATA_BYTES,
    CompressedTensor,
    GradientCompressor,
)
from repro.compression.cocktail import CocktailSgdCompressor
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.oktopk import OkTopkCompressor
from repro.compression.qsgd import QsgdCompressor
from repro.compression.quantize import (
    ROUNDING_MODES,
    quant_step,
    round_codes,
    round_nearest,
    round_p05,
    round_stochastic,
)
from repro.compression.szlike import SzCompressor
from repro.compression.topk import TopKCompressor, topk_mask

__all__ = [
    "CompressedTensor",
    "GradientCompressor",
    "METADATA_BYTES",
    "QsgdCompressor",
    "SzCompressor",
    "CocktailSgdCompressor",
    "ErrorFeedback",
    "OkTopkCompressor",
    "TopKCompressor",
    "topk_mask",
    "ROUNDING_MODES",
    "quant_step",
    "round_codes",
    "round_nearest",
    "round_stochastic",
    "round_p05",
]
