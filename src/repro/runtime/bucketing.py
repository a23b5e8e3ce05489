"""Gradient/factor bucketing: coalesce small tensors, flush by bytes.

Eager per-layer exchange pays the per-message alpha cost once per layer;
DDP-style bucketing coalesces small per-layer payloads into buckets that
flush when a byte threshold is reached, issuing a single nonblocking
collective per bucket.  Because per-element reduction math is unchanged
by concatenation (same per-rank addition order, same averaging), bucketed
results are bit-identical to per-tensor collectives.

``wire_nbytes`` overrides per item let callers account for payloads that
travel smaller than they are held (compressed upstream, or the K-FAC
factor exchange's float32 triangles).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.distributed.plane import RepView, map_payloads

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import StreamRuntime

__all__ = ["Bucketer", "split_bounds"]


def split_bounds(array: np.ndarray, bucket_bytes: int) -> list[tuple[int, int]]:
    """(lo, hi) element bounds splitting a flat array into byte buckets."""
    if bucket_bytes < 1:
        raise ValueError(f"bucket_bytes must be positive, got {bucket_bytes}")
    n = array.size
    if n == 0:
        return []
    per = max(1, int(bucket_bytes // array.itemsize))
    return [(lo, min(lo + per, n)) for lo in range(0, n, per)]


class Bucketer:
    """Byte-threshold coalescing front-end for nonblocking allreduce.

    ``add`` accumulates per-rank tensors; once the pending bytes reach
    ``threshold_bytes`` the bucket is flushed as one ``iallreduce``.
    ``wait`` flushes the remainder, waits every in-flight bucket, and
    returns the reduced tensors keyed and shaped as they were added.
    """

    def __init__(
        self,
        runtime: "StreamRuntime",
        *,
        threshold_bytes: int | None = None,
        category: str = "allreduce",
        average: bool = True,
    ):
        self.runtime = runtime
        self.threshold_bytes = (
            int(threshold_bytes) if threshold_bytes is not None else runtime.bucket_bytes
        )
        if self.threshold_bytes < 1:
            raise ValueError(f"threshold_bytes must be positive, got {self.threshold_bytes}")
        self.category = category
        self.average = average
        #: Buckets issued over this bucketer's lifetime.
        self.n_buckets = 0
        #: Wire bytes modelled across all flushed buckets.
        self.wire_bytes = 0.0
        self._items: list[tuple[object, list[np.ndarray], tuple, float | None]] = []
        self._pending_bytes = 0
        self._inflight: list[tuple[object, list[tuple[object, int, int, tuple]]]] = []

    def add(
        self, key: object, per_rank_arrays: list[np.ndarray], *, wire_nbytes: float | None = None
    ) -> None:
        """Queue one logical tensor (per-rank list); flush on threshold.

        ``wire_nbytes`` overrides this item's modelled wire contribution
        (e.g. when the payload was already compressed upstream and only
        the compressed bytes travel).  A :class:`RepView` input (the
        timing track's representative payloads) stays a RepView all the
        way through flush — one concatenation.
        """
        arrays = map_payloads(per_rank_arrays, np.asarray)
        flats = map_payloads(arrays, lambda a: a.ravel())
        self._items.append((key, flats, arrays[0].shape, wire_nbytes))
        self._pending_bytes += flats[0].nbytes
        if self._pending_bytes >= self.threshold_bytes:
            self.flush()

    def flush(self) -> None:
        """Issue the pending bucket (no-op when nothing is queued)."""
        if not self._items:
            return
        world = self.runtime.cluster.world_size
        if all(isinstance(flats, RepView) for _, flats, _, _ in self._items):
            rep = np.concatenate([flats.payload for _, flats, _, _ in self._items])
            payloads = RepView(rep, world)
        else:
            payloads = [
                np.concatenate([flats[r] for _, flats, _, _ in self._items])
                for r in range(world)
            ]
        slices: list[tuple[object, int, int, tuple]] = []
        pos = 0
        for key, flats, shape, _ in self._items:
            slices.append((key, pos, pos + flats[0].size, shape))
            pos += flats[0].size
        wire: float | None = None
        if any(w is not None for _, _, _, w in self._items):
            wire = float(
                sum(w if w is not None else flats[0].nbytes for _, flats, _, w in self._items)
            )
        handle = self.runtime.iallreduce(
            payloads, average=self.average, category=self.category, nbytes=wire
        )
        self.wire_bytes += wire if wire is not None else payloads[0].nbytes
        self.n_buckets += 1
        self._inflight.append((handle, slices))
        self._items = []
        self._pending_bytes = 0

    def wait(self) -> dict:
        """Flush the tail bucket, wait everything, return key -> result."""
        self.flush()
        out: dict = {}
        for handle, slices in self._inflight:
            res = handle.wait()[0]
            for key, lo, hi, shape in slices:
                out[key] = res[lo:hi].reshape(shape)
        self._inflight = []
        return out
