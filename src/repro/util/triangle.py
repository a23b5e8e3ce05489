"""The upper triangle of a symmetric matrix, as one flat vector.

A Kronecker factor is symmetric, so only its upper triangle (diagonal
included, row-major: ``(0,0) (0,1) .. (0,n-1) (1,1) ..``) ever travels —
as the K-FAC trainer's factor message and inside a
:class:`~repro.core.factor_compression.FactorCompressor` frame.  This is
the one place that order is defined and the one place its index is
built: ``np.triu_indices`` costs more than the gather it feeds (0.22 ms
against 0.04 ms at n = 289), so the flat index is cached per dimension.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["mirror_upper", "pack_upper", "triangle_size"]


def triangle_size(n: int) -> int:
    """Elements in the upper triangle of an ``n x n`` matrix."""
    return n * (n + 1) // 2


@lru_cache(maxsize=64)
def _triangle_maps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(upper, full)`` for dimension ``n``, both read-only.

    ``upper[k]`` is the flat position of triangle element ``k`` in the
    ravelled matrix; ``full[p]`` is the triangle element that flat
    position ``p`` — on either side of the diagonal — holds.  Together
    ``1.5 n^2`` machine integers per cached dimension; a model has a
    handful of distinct factor dimensions.
    """
    rows, cols = np.triu_indices(n)
    upper = rows * n + cols
    full = np.empty((n, n), dtype=np.intp)
    full[rows, cols] = full[cols, rows] = np.arange(upper.size)
    full = full.ravel()
    upper.setflags(write=False)
    full.setflags(write=False)
    return upper, full


def pack_upper(mat: np.ndarray) -> np.ndarray:
    """The upper triangle of square ``mat`` as a new 1-D array."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat.ravel().take(_triangle_maps(mat.shape[0])[0])


def mirror_upper(tri: np.ndarray, n: int) -> np.ndarray:
    """The symmetric ``n x n`` matrix whose upper triangle is ``tri``.

    Both halves are copies of the same elements, so the result is
    symmetric bit for bit.
    """
    if tri.shape != (triangle_size(n),):
        raise ValueError(f"a {n}x{n} triangle has {triangle_size(n)} elements, got {tri.shape}")
    return tri.take(_triangle_maps(n)[1]).reshape(n, n)
