"""COMPSO: the paper's primary contribution.

* :class:`CompsoCompressor` — filter + bitmap + SR + lossless encoder
  (Algorithm 1's compression pipeline);
* :class:`AdaptiveCompso` with Step/Smooth LR schedules — iteration-wise
  adaptive error bounds (Algorithm 1's control flow);
* :class:`LayerAggregator` — layer-wise aggregation;
* :class:`PerformanceModel` — Eq. 5 with the offline lookup table and
  online profiling, driving aggregation-factor and encoder selection.
"""

from repro.core.adaptive import AdaptiveCompso, Bounds, SmoothLrSchedule, StepLrSchedule
from repro.core.compso import CompsoCompressor
from repro.core.factor_compression import FactorCompressor
from repro.core.layer_aggregation import LayerAggregator
from repro.core.perf_model import CommLookupTable, PerformanceModel, ProfiledStats

__all__ = [
    "CompsoCompressor",
    "AdaptiveCompso",
    "Bounds",
    "StepLrSchedule",
    "SmoothLrSchedule",
    "LayerAggregator",
    "PerformanceModel",
    "CommLookupTable",
    "ProfiledStats",
    "FactorCompressor",
]
