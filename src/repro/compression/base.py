"""Compressor interface shared by COMPSO and all baselines.

A ``GradientCompressor`` turns a float32 tensor into a
:class:`CompressedTensor` — an honest container whose ``nbytes`` counts
every byte a real implementation would put on the wire (payload segments
plus fixed per-tensor metadata) — and back.  Compression ratios reported
by the benchmarks are computed from these sizes, never estimated.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry import get_metrics

__all__ = ["CompressedTensor", "GradientCompressor", "METADATA_BYTES"]

#: Fixed per-tensor wire overhead we charge every compressor: shape/dtype
#: descriptor, scale factors, segment lengths.  Kept small and identical
#: across compressors so ratio comparisons are fair.
METADATA_BYTES = 16


@dataclass
class CompressedTensor:
    """Wire representation of one compressed gradient tensor."""

    #: Named binary segments (e.g. "bitmap", "codes", "outliers").
    segments: dict[str, bytes]
    shape: tuple[int, ...]
    #: Scalar metadata needed for decompression (scales, counts...).
    meta: dict[str, float | int] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Total wire size in bytes, including fixed metadata overhead."""
        return sum(len(seg) for seg in self.segments.values()) + METADATA_BYTES

    @property
    def n_elements(self) -> int:
        return math.prod(self.shape)


class GradientCompressor(ABC):
    """Lossy gradient compressor: float32 tensor <-> wire bytes."""

    #: Human-readable identifier used in benchmark tables.
    name: str = "base"

    @abstractmethod
    def compress(self, x: np.ndarray) -> CompressedTensor:
        """Compress ``x`` (any shape, float32) into wire form."""

    @abstractmethod
    def decompress(self, ct: CompressedTensor) -> np.ndarray:
        """Reconstruct a float32 tensor of ``ct.shape``."""

    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        """The lossy channel: compress then decompress."""
        return self.decompress(self.compress(x))

    def ratio(self, x: np.ndarray) -> float:
        """Compression ratio = original bytes / wire bytes."""
        x = np.asarray(x, dtype=np.float32)
        if x.size == 0:
            return 1.0
        return x.nbytes / self.compress(x).nbytes

    def _record_compression(self, raw_nbytes: int, ct: CompressedTensor) -> CompressedTensor:
        """Feed the active metrics registry with honest wire accounting."""
        m = get_metrics()
        if m.enabled and raw_nbytes:
            m.counter("compress.raw_bytes", compressor=self.name).inc(raw_nbytes)
            m.counter("compress.wire_bytes", compressor=self.name).inc(ct.nbytes)
            m.histogram("compress.ratio", compressor=self.name).observe(raw_nbytes / ct.nbytes)
        return ct

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class IdentityCompressor(GradientCompressor):
    """No-compression baseline: stores raw float32 bytes."""

    name = "none"

    def compress(self, x: np.ndarray) -> CompressedTensor:
        x = np.asarray(x, dtype=np.float32)
        return CompressedTensor({"raw": x.tobytes()}, x.shape)

    def decompress(self, ct: CompressedTensor) -> np.ndarray:
        return np.frombuffer(ct.segments["raw"], dtype=np.float32).reshape(ct.shape).copy()
