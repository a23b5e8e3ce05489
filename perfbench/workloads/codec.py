"""``codec_dense`` and ``codec_sparse``: the compressor on its own.

Dense: per-layer ``compress``/``decompress`` of Gaussian gradients at
``eb_f = eb_q = 4e-3`` — almost nothing is filtered, every element is
quantised, packed at 16 bits and entropy-coded, so ``encoders`` and
``util.bitpack`` do nearly all the work.

Sparse: ``compress_many``/``decompress_many`` (aggregation factor 4)
over the largest ResNet-50 shapes with heavy-tailed values and
``eb_f = 1e-2`` — ≈95 % of the elements are filtered, the encoder sees
a skewed bitmap and a sixth of the bytes, and the compressor's own
filter/quantise pass is the largest share.  A gain bought for one kind
of stream at the cost of the other shows as a regression here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import inputs as gen
from perfbench import stats
from perfbench.harness import Round
from perfbench.inputs import digest
from perfbench.layers import ENCODER_NAMES

__all__ = ["CodecWorkload"]

_ZOO_SLICE = 1 << 20


@dataclass
class _State:
    compressor: object
    groups: list[list[np.ndarray]]
    raw_bytes: int
    wire_bytes: list[int] = field(default_factory=list)
    last_outputs: list = field(default_factory=list)


class CodecWorkload:
    warmup_rounds = 1
    fixed_rounds = 1
    quick_fixed_rounds = 1

    def __init__(self, name: str):
        self.name = name
        self.sparse = name == "codec_sparse"
        self.eb_f = 1e-2 if self.sparse else 4e-3
        self.eb_q = 4e-3

    def make_inputs(self, seed: int, *, quick: bool):
        if self.sparse:
            groups = gen.sparse_gradients(seed, quick=quick)
        else:
            groups = [[x] for x in gen.dense_gradients(seed, quick=quick)]
        return {"groups": groups, "sr_seed": int(gen.rng_for(seed, "sr").integers(2**31 - 1))}

    def build(self, inputs, workdir, compressor=None) -> _State:
        """``compressor`` lets a test substitute one that breaks its bound."""
        if compressor is None:
            from repro.core import CompsoCompressor

            compressor = CompsoCompressor(
                self.eb_f, self.eb_q, encoder="ans", seed=inputs["sr_seed"]
            )
        groups = inputs["groups"]
        return _State(compressor, groups, sum(x.nbytes for g in groups for x in g))

    def round(self, state: _State) -> Round:
        c = state.compressor
        compress_s = decompress_s = 0.0
        wire = failed = 0
        outputs = []
        for group in state.groups:
            if self.sparse:
                t0 = time.perf_counter()
                ct = c.compress_many(group)
                t1 = time.perf_counter()
                out = c.decompress_many(ct)
                t2 = time.perf_counter()
            else:
                t0 = time.perf_counter()
                ct = c.compress(group[0])
                t1 = time.perf_counter()
                out = [c.decompress(ct)]
                t2 = time.perf_counter()
            compress_s += t1 - t0
            decompress_s += t2 - t1
            wire += ct.nbytes
            failed += not self._within_bound(group, out)
            outputs.append(out)
        state.wire_bytes.append(wire)
        state.last_outputs = outputs
        return Round(
            ops=len(state.groups),
            busy_s=compress_s + decompress_s,
            failed=failed,
            parts={"compress_s": compress_s, "decompress_s": decompress_s},
        )

    def _within_bound(self, tensors, decoded) -> bool:
        """The (eb_f + eb_q)·max|x| contract, per tensor of the operation."""
        if len(decoded) != len(tensors):
            return False
        for x, y in zip(tensors, decoded):
            limit = (self.eb_f + self.eb_q) * float(np.abs(x).max()) * (1.0 + 1e-6)
            if y.size != x.size or not float(np.abs(y.ravel() - x.ravel()).max()) <= limit:
                return False
        return True

    def exact(self, state: _State) -> dict:
        wire = state.wire_bytes[-1]
        return {
            "compression_ratio": state.raw_bytes / wire,
            "wire_bytes": wire,
            "decoded_sha256": digest(state.last_outputs),
        }

    def layer_exact(self, exact: dict) -> dict:
        return {}

    def describe(self, inputs, rounds: list[Round]) -> dict:
        mb = sum(x.nbytes for g in inputs["groups"] for x in g) / 1e6
        return {
            "raw_MB_per_pass": mb,
            "compress_MBps": mb / stats.median([r.parts["compress_s"] for r in rounds]),
            "decompress_MBps": mb / stats.median([r.parts["decompress_s"] for r in rounds]),
        }

    def side_runs(self, state: _State, inputs, workdir, *, quick: bool):
        """Dense only: a fixed slice of this workload's quantised code
        stream through every registered encoder."""
        if self.sparse:
            return {}, 0
        from repro.encoders import ENCODERS, get_encoder

        ans = get_encoder("ans")
        stream = b"".join(
            ans.decode(state.compressor.compress(g[0]).segments["codes"]) for g in state.groups
        )[: _ZOO_SLICE >> 4 if quick else _ZOO_SLICE]
        out = {}
        failed = 0
        for name in ENCODER_NAMES:
            if name not in ENCODERS:
                continue
            enc = get_encoder(name)
            t0 = time.perf_counter()
            blob = enc.encode(stream)
            t1 = time.perf_counter()
            back = enc.decode(blob)
            t2 = time.perf_counter()
            failed += back != stream
            out[f"encoders.{name}.enc_MBps"] = len(stream) / 1e6 / (t1 - t0)
            out[f"encoders.{name}.dec_MBps"] = len(stream) / 1e6 / (t2 - t1)
            out[f"encoders.{name}.cr"] = len(stream) / len(blob)
        return out, failed

    def finish(self, state: _State) -> int:
        return 0
