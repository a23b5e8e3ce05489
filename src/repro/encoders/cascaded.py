"""Cascaded (run-length + delta + bit-packing) encoder.

nvCOMP's Cascaded scheme chains run-length encoding, delta encoding and
bit packing.  It shines on data with long runs (here: the zero runs that
COMPSO's filter creates) but, as the paper notes, loses to entropy coders
on non-uniform gradient value distributions.

Layout of the coded payload::

    <u32 n_runs> <u8 val_width> <u8 run_width>
    <packed run values> <packed run lengths>

Run lengths are capped at 2**run_width - 1; longer runs are split, which
keeps the packer width small without a escape mechanism.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.encoders.base import Encoder, EncodeError, as_u8
from repro.util.bitpack import pack_uints, required_width, unpack_uints

__all__ = ["CascadedEncoder"]

_MAX_RUN = 0xFFFF  # cap run length at 16 bits


def _run_length(u8: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised RLE: returns (values, run_lengths) with runs <= _MAX_RUN."""
    if u8.size == 0:
        return np.empty(0, np.uint8), np.empty(0, np.uint32)
    change = np.flatnonzero(np.diff(u8)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [u8.size]))
    values = u8[starts]
    lengths = (ends - starts).astype(np.uint32)
    # Split runs longer than the cap.
    over = lengths > _MAX_RUN
    if np.any(over):
        reps = (lengths + _MAX_RUN - 1) // _MAX_RUN
        values = np.repeat(values, reps)
        split = np.full(int(reps.sum()), _MAX_RUN, dtype=np.uint32)
        # Last piece of each original run carries the remainder.
        last_idx = np.cumsum(reps) - 1
        rem = lengths - (reps - 1) * _MAX_RUN
        split[last_idx] = rem
        lengths = split
    return values, lengths


class CascadedEncoder(Encoder):
    """RLE -> minimal-width bit packing of values and run lengths."""

    name = "cascaded"

    def _encode_payload(self, data: bytes, item_size: int) -> bytes:
        u8 = as_u8(data)
        values, lengths = _run_length(u8)
        val_width = required_width(int(values.max())) if values.size else 1
        run_width = required_width(int(lengths.max())) if lengths.size else 1
        pv = pack_uints(values, val_width)
        pl = pack_uints(lengths, run_width)
        header = struct.pack("<IBBI", values.size, val_width, run_width, len(pv))
        return header + pv + pl

    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        if len(payload) < 10:
            raise EncodeError("cascaded: truncated header")
        n_runs, val_width, run_width, pv_len = struct.unpack_from("<IBBI", payload, 0)
        pos = 10
        values = unpack_uints(payload[pos : pos + pv_len], val_width, n_runs)
        pos += pv_len
        lengths = unpack_uints(payload[pos:], run_width, n_runs)
        out = np.repeat(values.astype(np.uint8), lengths)
        if out.size != n:
            raise EncodeError(f"cascaded: reconstructed {out.size} bytes, expected {n}")
        return out.tobytes()
