"""Ablation: variable-width bit packing vs fixed 8-bit codes.

Section 4.3's example: an error bound of 1E-2 needs only ~100
quantisation bins, i.e. a 7-bit representation; packing 7-bit groups
into bytes instead of using QSGD's fixed 256-bin/8-bit format yields
~14% higher ratio.  We reproduce the arithmetic exactly on the packed
stream (8/7 = +14%) and show how much of it the entropy encoder retains,
plus the full-pipeline comparison against QSGD at matched accuracy.

At COMPSO's default bound (4E-3, ~500 bins) a code needs 9 bits, so the
byte-aligned field is two bytes wide.  The second table follows that
stream through the three packings the first table's finding points at:
misaligned, byte-aligned with ANS modelling bytes, and byte-aligned with
ANS told the field size so that one code is one symbol (what
``CompsoCompressor`` does).
"""

import numpy as np

from benchmarks._common import emit
from repro.compression import QsgdCompressor
from repro.compression.quantize import quant_step, round_codes
from repro.core.compso import CompsoCompressor
from repro.encoders import get_encoder
from repro.util.bitpack import pack_uints, required_width
from repro.util.seeding import spawn_rng
from repro.util.tables import format_table

#: SR step = eb, so eb 2E-2 over a [-1, 1] normalised range gives ~100
#: bins — the paper's 7-bit example.
EB = 2e-2
#: COMPSO's default quantisation bound: ~500 bins, 9-bit codes.
EB_DEFAULT = 4e-3


def _payload(seed, n=400_000):
    rng = spawn_rng(seed)
    small = rng.standard_normal(n) * 1e-4
    big = rng.standard_normal(n) * np.exp(rng.standard_normal(n)) * 5e-2
    return np.where(rng.random(n) < 0.12, big, small).astype(np.float32)


def _coded_rows(x, eb, packings):
    """``[label, bits, packed bytes, ANS-coded bytes]`` per ``(width, item_size, label)``
    that ``packings(minimal_width)`` names, for the SR codes of ``x`` at bound ``eb``."""
    enc = get_encoder("ans")
    step = quant_step(float(np.abs(x).max()), "sr", eb=eb)
    codes = round_codes(x, step, "sr", spawn_rng(0)).astype(np.int32)
    shifted = (codes - codes.min()).astype(np.uint64)
    minimal = required_width(int(shifted.max()))
    rows = []
    for width, item_size, label in packings(minimal):
        packed = pack_uints(shifted, width)
        rows.append([label, width, len(packed), len(enc.encode(packed, item_size))])
    return rows, minimal


def run_experiment():
    x = _payload(5)
    rows, minimal = _coded_rows(
        x,
        EB,
        lambda minimal: [
            (minimal, 1, f"minimal ({minimal}-bit, paper arithmetic)"),
            (8, 1, "byte-aligned 8-bit (COMPSO)"),
            (16, 1, "fixed 16-bit"),
        ],
    )
    symbol_rows, _ = _coded_rows(
        x,
        EB_DEFAULT,
        lambda minimal: [
            (minimal, 1, f"minimal ({minimal}-bit, misaligned)"),
            (16, 1, "byte-aligned 16-bit, bytes as symbols"),
            (16, 2, "byte-aligned 16-bit, codes as symbols (COMPSO)"),
        ],
    )
    compso_cr = CompsoCompressor(0.0, EB, seed=0).ratio(x)
    qsgd_cr = QsgdCompressor(8, seed=0).ratio(x)
    return rows, minimal, compso_cr, qsgd_cr, symbol_rows


def test_ablation_variable_width_packing(benchmark):
    rows, minimal, compso_cr, qsgd_cr, symbol_rows = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    packed = {r[1]: r[2] for r in rows}
    coded = {r[1]: r[3] for r in rows}
    packed_gain = packed[8] / packed[minimal] - 1
    out = format_table(
        ["packing", "bits", "packed bytes", "ANS-coded bytes"],
        rows,
        title=f"Ablation — code packing width for SR codes (eb {EB:g})",
    )
    out += (
        f"\n\npacked-stream gain from {minimal}-bit packing: +{packed_gain * 100:.0f}% "
        "(paper section 4.3: ~+14%), but misaligned packing defeats the"
        "\nbyte-wise entropy coder — COMPSO therefore byte-aligns and lets ANS"
        "\nrecover the sub-byte entropy, which beats both alternatives:"
        f"\n  coded bytes: minimal={coded[minimal]}, byte-aligned={coded[8]}, 16-bit={coded[16]}"
        f"\nfull pipeline at matched accuracy: COMPSO(SR-only) CR={compso_cr:.2f} "
        f"vs QSGD-8bit CR={qsgd_cr:.2f}"
    )
    misaligned, as_bytes, as_symbols = (r[3] for r in symbol_rows)
    out += "\n\n" + format_table(
        ["packing", "bits", "packed bytes", "ANS-coded bytes"],
        symbol_rows,
        title=f"Ablation — the same three steps at COMPSO's default bound (eb {EB_DEFAULT:g})",
    )
    out += (
        "\n\na 2-byte field splits every code over two byte symbols of one model; telling ANS the"
        f"\nfield size makes the code the symbol: {as_bytes} -> {as_symbols} coded bytes "
        f"(-{(1 - as_symbols / as_bytes) * 100:.0f}%), {misaligned / as_symbols:.1f}x under misaligned packing"
    )
    emit(
        "ablation_packing",
        out,
        data={
            "rows": [
                {"packing": r[0], "bits": r[1], "packed_bytes": r[2], "coded_bytes": r[3]}
                for r in rows
            ],
            "symbol_rows": [
                {"packing": r[0], "bits": r[1], "packed_bytes": r[2], "coded_bytes": r[3]}
                for r in symbol_rows
            ],
            "minimal_bits": minimal,
            "packed_gain": packed_gain,
            "compso_cr": compso_cr,
            "qsgd_cr": qsgd_cr,
        },
    )
    assert minimal <= 7
    # The paper's arithmetic on the packed stream: 8/minimal - 1 >= 14%.
    assert packed_gain == 8 / minimal - 1
    assert packed_gain >= 0.14 - 1e-9
    # The entropy-coded byte-aligned stream beats everything else.
    assert coded[8] < coded[minimal]
    assert coded[8] < coded[16]
    assert compso_cr > qsgd_cr
    # One symbol per code beats two byte symbols per code, which beats misaligned fields.
    assert as_symbols < 0.9 * as_bytes < misaligned
