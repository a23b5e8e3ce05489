"""Encoder registry: the candidate vector COMPSO selects from (section 4.4).

Mirrors the paper's eight nvCOMP candidates.  ``get_encoder`` constructs a
fresh instance per call; encoders are stateless and take no settings.
"""

from __future__ import annotations

from repro.encoders.ans import RansEncoder
from repro.encoders.base import Encoder
from repro.encoders.bitcomp import BitcompEncoder
from repro.encoders.cascaded import CascadedEncoder
from repro.encoders.deflate import DeflateEncoder, GdeflateEncoder, ZstdLikeEncoder
from repro.encoders.huffman import HuffmanEncoder
from repro.encoders.lz import Lz4LikeEncoder, SnappyLikeEncoder

__all__ = ["ENCODERS", "get_encoder", "list_encoders"]

ENCODERS: dict[str, type[Encoder]] = {
    "ans": RansEncoder,
    "bitcomp": BitcompEncoder,
    "cascaded": CascadedEncoder,
    "deflate": DeflateEncoder,
    "gdeflate": GdeflateEncoder,
    "lz4": Lz4LikeEncoder,
    "snappy": SnappyLikeEncoder,
    "zstd": ZstdLikeEncoder,
    "huffman": HuffmanEncoder,  # SZ's entropy stage; not an nvCOMP candidate
}

#: The candidate set considered by COMPSO's encoder selection (Table 2).
NVCOMP_CANDIDATES = (
    "ans",
    "bitcomp",
    "cascaded",
    "deflate",
    "gdeflate",
    "lz4",
    "snappy",
    "zstd",
)


def get_encoder(name: str) -> Encoder:
    """Instantiate the encoder registered under ``name``."""
    try:
        return ENCODERS[name]()
    except KeyError:
        raise KeyError(f"unknown encoder {name!r}; available: {sorted(ENCODERS)}") from None


def list_encoders() -> list[str]:
    """Names of all registered encoders."""
    return sorted(ENCODERS)
