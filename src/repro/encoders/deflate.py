"""Deflate, Gdeflate and Zstd stand-ins.

Deflate is an open format available in the Python standard library
(``zlib``), so we use it directly rather than reimplementing.  Gdeflate is
NVIDIA's GPU-friendly Deflate variant with the same entropy backend; we
model it as maximum-effort Deflate (the paper observes "a high compression
ratio through entropy coding but low throughput (similar to Deflate)").
Zstd is stood in for by stdlib ``lzma`` (documented substitution in
DESIGN.md): like Zstd in Table 2 it pairs the highest compression ratio
with the lowest throughput of the candidate set.
"""

from __future__ import annotations

import lzma
import zlib

from repro.encoders.base import Encoder, EncodeError

__all__ = ["DeflateEncoder", "GdeflateEncoder", "ZstdLikeEncoder"]


class DeflateEncoder(Encoder):
    """zlib Deflate at the default effort level."""

    name = "deflate"
    level = 6

    def _encode_payload(self, data: bytes, item_size: int) -> bytes:
        return zlib.compress(data, self.level)

    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        try:
            return zlib.decompress(payload)
        except zlib.error as exc:  # pragma: no cover - corrupt input
            raise EncodeError(f"deflate: {exc}") from exc


class GdeflateEncoder(DeflateEncoder):
    """Gdeflate stand-in: Deflate at maximum effort."""

    name = "gdeflate"
    level = 9


class ZstdLikeEncoder(Encoder):
    """Zstd stand-in backed by stdlib LZMA (high ratio, low throughput)."""

    name = "zstd"

    def _encode_payload(self, data: bytes, item_size: int) -> bytes:
        return lzma.compress(data, preset=2)

    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        try:
            return lzma.decompress(payload)
        except lzma.LZMAError as exc:  # pragma: no cover - corrupt input
            raise EncodeError(f"zstd: {exc}") from exc
