"""Compressor interface shared by COMPSO and all baselines.

A ``GradientCompressor`` turns a float32 tensor into a
:class:`CompressedTensor` — an honest container whose ``nbytes`` counts
every byte a real implementation would put on the wire (payload segments
plus fixed per-tensor metadata) — and back.  Compression ratios reported
by the benchmarks are computed from these sizes, never estimated.

A compressor is also steered (Algorithm 1 moves its bounds, section 4.4
swaps its encoder, the fault layer degrades it), inspected and saved.
That surface is declared here once so callers ask instead of probing
(DESIGN.md decision 21): every call has the neutral answer ``None`` /
``{}`` on a plain compressor and forwards to :attr:`inner` on a wrapper;
a class overrides only what it has something to say about.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry import get_metrics

__all__ = ["Bounds", "CompressedTensor", "GradientCompressor", "METADATA_BYTES"]

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


@dataclass(frozen=True)
class Bounds:
    """Error bounds for one iteration; ``eb_f == 0`` means SR-only mode."""

    eb_f: float
    eb_q: float

    def __post_init__(self) -> None:
        # A negative bound would silently invert the filtering threshold
        # (|g| < eb_f * max|g| never holds) and poison every downstream
        # schedule computation; reject it at construction.
        if self.eb_f < 0:
            raise ValueError(f"filter bound eb_f must be >= 0, got {self.eb_f}")
        if self.eb_q < 0:
            raise ValueError(f"quantisation bound eb_q must be >= 0, got {self.eb_q}")


class GradientCompressor(ABC):
    """Lossy gradient compressor: float32 tensor <-> wire bytes."""

    #: Human-readable identifier used in benchmark tables.
    name: str = "base"
    #: The compressor a wrapper delegates to; ``None`` on a plain one.
    inner: GradientCompressor | None = None

    @abstractmethod
    def compress(self, x: np.ndarray) -> CompressedTensor:
        """Compress ``x`` (any shape, float32) into wire form."""

    @abstractmethod
    def decompress(self, ct: CompressedTensor) -> np.ndarray:
        """Reconstruct a float32 tensor of ``ct.shape``."""

    def compress_each(self, tensors: list[np.ndarray]) -> list[CompressedTensor]:
        """``compress`` of each tensor, in order: the same frames, the same
        draws.  A compressor that can share work between tensors overrides
        it (COMPSO codes every tensor's frames in one encoder call)."""
        return [self.compress(x) for x in tensors]

    def decompress_each(self, cts: list[CompressedTensor]) -> list[np.ndarray]:
        """``decompress`` of each frame, in order; raises what the first
        failing ``decompress`` raises."""
        return [self.decompress(ct) for ct in cts]

    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        """The lossy channel: compress then decompress."""
        return self.decompress(self.compress(x))

    def ratio(self, x: np.ndarray) -> float:
        """Compression ratio = original bytes / wire bytes."""
        x = np.asarray(x, dtype=np.float32)
        if x.size == 0:
            return 1.0
        return x.nbytes / self.compress(x).nbytes

    def group_nbytes(self, tensors: list[np.ndarray]) -> int:
        """Wire bytes of ``tensors`` sent as one aggregation group (section
        4.4): one frame per tensor unless the compressor aggregates."""
        return sum(self.compress(t).nbytes for t in tensors)

    # -- steering, inspection, persistence: neutral here, forwarded by a wrapper;
    # a steering call answers None when nothing in the stack acted on it ------

    @property
    def bounds(self) -> Bounds | None:
        """The pointwise contract ``(eb_f + eb_q) * max|x|`` in force on
        ``roundtrip``; ``None`` when none is promised."""
        return None if self.inner is None else self.inner.bounds

    def set_bounds(self, eb_f: float, eb_q: float) -> Bounds | None:
        """Move the error bounds; returns the bounds now in force."""
        return None if self.inner is None else self.inner.set_bounds(eb_f, eb_q)

    def set_encoder(self, name: str) -> str | None:
        """Swap the lossless encoder; returns the encoder now in use."""
        return None if self.inner is None else self.inner.set_encoder(name)

    def degrade(self, iterations: int = 2) -> Bounds | None:
        """Enter the conservative mode for ``iterations``; returns its bounds."""
        return None if self.inner is None else self.inner.degrade(iterations)

    def step(self) -> Bounds | None:
        """One training iteration finished; returns the next one's bounds."""
        return None if self.inner is None else self.inner.step()

    def reset(self) -> int | None:
        """Drop error-compensation state; returns how many buffers went."""
        return None if self.inner is None else self.inner.reset()

    def residual_norm(self) -> float | None:
        """L2 norm of the error-compensation state carried between calls."""
        return None if self.inner is None else self.inner.residual_norm()

    def state_dict(self) -> dict[str, np.ndarray]:
        """What an exact resume needs, as named arrays (checkpoint sections)."""
        return {} if self.inner is None else self.inner.state_dict()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict`; names absent from ``state`` keep
        their current value (archives older than a field still load)."""
        if self.inner is not None:
            self.inner.load_state_dict(state)

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
