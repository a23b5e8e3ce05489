"""Seeded input generators.

Everything a workload feeds to ``repro`` is made here from the run's
``--seed``: the program receives arrays and plain specs, never the seed
of the benchmark itself.  Shapes and sizes are constants of this file so
that every commit is measured on the same work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib

import numpy as np

__all__ = [
    "DENSE_SHAPES",
    "SPARSE_GROUPS",
    "rng_for",
    "dense_gradients",
    "sparse_gradients",
    "image_task",
    "batch_stream",
    "fleet_specs",
    "digest",
]

#: K-FAC gradient shapes (out_f, in_f) of ResNet-50, one per size class
#: from the smallest layer (4 160 elements) to ≈1 M elements: a
#: size-stratified ≈7.7 MB sample of ``resnet50_catalog()``.  The largest
#: is in because ``pack_uints`` slows down once its bit matrix leaves
#: the cache, and that is where ``util.bitpack`` earns its share.
DENSE_SHAPES = (
    (64, 65),
    (64, 148),
    (256, 65),
    (64, 577),
    (512, 129),
    (128, 1153),
    (256, 2305),
    (512, 2049),
)

#: Aggregation groups (factor 4) over the largest ResNet-50 shapes plus
#: one group of mid-size layers: ≈8.5 M elements, 34 MB.
SPARSE_GROUPS = (
    ((512, 4609), (2048, 513), (256, 2305), (1024, 257)),
    ((1000, 2049), (512, 2049), (512, 1025), (128, 1153)),
    ((256, 1025), (512, 257), (128, 513), (64, 577)),
)

_QUICK_DENSE = ((64, 65), (64, 148), (256, 65))
_QUICK_SPARSE = (((256, 65), (64, 257), (64, 148), (64, 65)),)

_DENSE_CLIP = 3.5

#: Heavy tail of the sparse workload: Gaussian x log-normal(sigma),
#: clipped at exp(_TAIL_CLIP) so that the tensor maximum — which the
#: relative error bounds scale by — is the same on every seed.
_TAIL_SIGMA = 2.0
_TAIL_CLIP = 7.5

#: The ``scale`` fleet preset's shape: ten jobs at 1k/2k/4k ranks.
_FLEET_WORLDS = (1024, 2048, 4096, 1024, 2048, 4096, 1024, 2048, 1024, 4096)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator for one named input stream of one seed."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def dense_gradients(seed: int, *, quick: bool = False) -> list[np.ndarray]:
    """Gaussian gradients: almost nothing falls under the filter bound.

    Clipped at ``_DENSE_CLIP`` standard deviations, so that the tensor
    maximum the relative bounds scale by — and with it the number of
    quantisation bins and the compression ratio — is the same on every
    seed.
    """
    rng = rng_for(seed, "dense")
    shapes = _QUICK_DENSE if quick else DENSE_SHAPES
    return [
        np.clip(rng.standard_normal(shape), -_DENSE_CLIP, _DENSE_CLIP).astype(np.float32)
        for shape in shapes
    ]


def sparse_gradients(seed: int, *, quick: bool = False) -> list[list[np.ndarray]]:
    """Heavy-tailed gradients in aggregation groups: ≈95 % filtered."""
    rng = rng_for(seed, "sparse")
    groups = _QUICK_SPARSE if quick else SPARSE_GROUPS
    clip = float(np.exp(_TAIL_CLIP))
    out = []
    for group in groups:
        tensors = []
        for shape in group:
            x = rng.standard_normal(shape) * np.exp(_TAIL_SIGMA * rng.standard_normal(shape))
            tensors.append((np.clip(x, -clip, clip) / clip).astype(np.float32))
        out.append(tensors)
    return out


def image_task(
    seed: int, *, n: int, n_classes: int, size: int, noise: float
) -> tuple[np.ndarray, np.ndarray]:
    """Class prototypes plus Gaussian noise; returns ``(x, y)`` arrays.

    ``noise`` is set by the caller high enough that the training loss
    does not saturate within a run.
    """
    rng = rng_for(seed, "images")
    prototypes = rng.standard_normal((n_classes, 3, size, size)).astype(np.float32)
    y = rng.integers(0, n_classes, n)
    x = prototypes[y] + noise * rng.standard_normal((n, 3, size, size)).astype(np.float32)
    return x.astype(np.float32), y


def batch_stream(seed: int, n: int, batch_size: int):
    """Endless seeded stream of index batches."""
    rng = rng_for(seed, "batches")
    while True:
        yield rng.integers(0, n, batch_size)


def fleet_specs(seed: int, *, quick: bool = False) -> list[dict]:
    """Job specs of the ``scale`` preset's shape, with seeded job seeds.

    Plain dicts (``JobSpec`` keyword arguments); mixed priorities and
    staggered arrivals as in the preset, six iterations per job.
    """
    rng = rng_for(seed, "fleet")
    worlds = _FLEET_WORLDS[:3] if quick else _FLEET_WORLDS
    return [
        {
            "name": f"job{i}",
            "world_size": world,
            "iterations": 2 if quick else 6,
            "priority": 2.0 if i % 3 == 0 else 1.0,
            "seed": int(rng.integers(0, 2**31 - 1)),
            "arrival": 0.01 * i,
        }
        for i, world in enumerate(worlds)
    ]


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(str((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(f"{{{len(obj)}".encode())
        for key in sorted(obj):
            h.update(str(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, float):
        h.update(float(obj).hex().encode())
    elif dataclasses.is_dataclass(obj):
        _feed(h, dataclasses.asdict(obj))
    else:
        h.update(json.dumps(obj).encode())


def digest(obj) -> str:
    """SHA-256 over nested arrays, lists, dicts and scalars; floats enter
    by their exact bits, so equal digests mean equal work to the last digit."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()
