"""Synthetic datasets standing in for ImageNet / COCO / enwiki / Pile / SQuAD.

Each generator produces a *learnable* task with controllable difficulty,
so optimizer/compressor comparisons measure real convergence behaviour:

* **images** — Gaussian class prototypes + noise (classification);
* **detection** — prototypes whose class determines a box location, with
  jitter (joint classification + box regression);
* **lm** — first-order Markov chains with a random peaked transition
  matrix (next-token prediction);
* **mlm** — the same chains with 15% of tokens masked (BERT-style);
* **squad** — token sequences containing a marked answer span whose
  marker token is announced by the leading "question" token
  (extractive-QA span prediction).

The compressor studies draw their tensors from one K-FAC-like gradient
mixture (:func:`kfac_like_gradient`, per catalog layer
:func:`catalog_gradients`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.seeding import spawn_rng

__all__ = [
    "ImageDataset",
    "DetectionDataset",
    "LmDataset",
    "MlmBatch",
    "SquadDataset",
    "make_image_data",
    "make_detection_data",
    "make_lm_data",
    "make_mlm_batches",
    "make_squad_data",
    "MASK_TOKEN",
    "kfac_like_gradient",
    "catalog_gradients",
]

MASK_TOKEN = 1  # reserved; 0 is padding/ignore
#: SQuAD proxy: the question tokens, the last ids of the vocabulary.
_N_MARKERS = 4


@dataclass
class ImageDataset:
    x: np.ndarray  # (n, 3, size, size) float32
    y: np.ndarray  # (n,) int class ids
    n_classes: int


def make_image_data(
    n: int, n_classes: int = 10, size: int = 16, noise: float = 0.6, seed: int = 0
) -> ImageDataset:
    """Classification images: per-class prototype + Gaussian noise."""
    rng = spawn_rng(seed)
    prototypes = rng.standard_normal((n_classes, 3, size, size)).astype(np.float32)
    y = rng.integers(0, n_classes, n)
    x = prototypes[y] + noise * rng.standard_normal((n, 3, size, size)).astype(np.float32)
    return ImageDataset(x.astype(np.float32), y, n_classes)


@dataclass
class DetectionDataset:
    x: np.ndarray  # (n, 3, size, size)
    y_cls: np.ndarray  # (n,) class ids
    y_box: np.ndarray  # (n, 4*n_boxes) normalised box targets
    n_classes: int
    n_boxes: int


def make_detection_data(
    n: int,
    n_classes: int = 8,
    n_boxes: int = 4,
    size: int = 16,
    noise: float = 0.5,
    seed: int = 0,
) -> DetectionDataset:
    """Detection-style data: class prototype + class-determined boxes."""
    rng = spawn_rng(seed)
    prototypes = rng.standard_normal((n_classes, 3, size, size)).astype(np.float32)
    box_protos = rng.uniform(0.1, 0.9, (n_classes, 4 * n_boxes)).astype(np.float32)
    y = rng.integers(0, n_classes, n)
    x = prototypes[y] + noise * rng.standard_normal((n, 3, size, size)).astype(np.float32)
    boxes = box_protos[y] + 0.05 * rng.standard_normal((n, 4 * n_boxes)).astype(np.float32)
    return DetectionDataset(x.astype(np.float32), y, boxes.astype(np.float32), n_classes, n_boxes)


@dataclass
class LmDataset:
    ids: np.ndarray  # (n, seq) int token ids
    vocab: int

    @property
    def inputs(self) -> np.ndarray:
        return self.ids[:, :-1]

    @property
    def targets(self) -> np.ndarray:
        return self.ids[:, 1:]


def make_lm_data(
    n: int, seq: int = 17, vocab: int = 64, concentration: float = 0.1, seed: int = 0
) -> LmDataset:
    """Markov-chain token sequences; smaller concentration = more learnable."""
    rng = spawn_rng(seed)
    # Peaked random transition matrix via Dirichlet rows.
    trans = rng.dirichlet(np.full(vocab - 2, concentration), size=vocab)
    ids = np.empty((n, seq), dtype=np.int64)
    ids[:, 0] = rng.integers(2, vocab, n)
    for t in range(1, seq):
        u = rng.random(n)
        cdf = np.cumsum(trans[ids[:, t - 1]], axis=1)
        ids[:, t] = 2 + (u[:, None] > cdf).sum(axis=1).clip(0, vocab - 3)
    return LmDataset(ids, vocab)


@dataclass
class MlmBatch:
    inputs: np.ndarray  # (n, seq) with MASK_TOKEN at masked positions
    targets: np.ndarray  # (n, seq) original ids at masked positions, 0 elsewhere


def make_mlm_batches(ds: LmDataset, seed: int = 0) -> MlmBatch:
    """BERT-style masking of 15 % of the tokens: targets are 0 (ignored)
    except at masked slots."""
    rng = spawn_rng(seed)
    mask = rng.random(ds.ids.shape) < 0.15
    # Ensure at least one masked token per sequence.
    none_masked = ~mask.any(axis=1)
    mask[none_masked, 0] = True
    inputs = np.where(mask, MASK_TOKEN, ds.ids)
    targets = np.where(mask, ds.ids, 0)
    return MlmBatch(inputs.astype(np.int64), targets.astype(np.int64))


@dataclass
class SquadDataset:
    ids: np.ndarray  # (n, seq)
    starts: np.ndarray  # (n,) answer-span start positions
    ends: np.ndarray  # (n,) inclusive end positions
    vocab: int


def make_squad_data(n: int, seq: int = 24, vocab: int = 32, seed: int = 0) -> SquadDataset:
    """Extractive-QA proxy: find the span of the question-indicated marker.

    Position 0 holds a "question" token q, one of the last ``_N_MARKERS``
    ids of the vocabulary;
    somewhere in the body a contiguous run of the token q appears (the
    answer); distractor runs of *other* markers are inserted so the model
    must condition on the question.
    """
    rng = spawn_rng(seed)
    body_vocab = vocab - _N_MARKERS
    if body_vocab < 4:
        raise ValueError("vocab too small for the marker alphabet")
    ids = rng.integers(2, body_vocab, (n, seq)).astype(np.int64)
    markers = vocab - _N_MARKERS + rng.integers(0, _N_MARKERS, n)
    starts = np.empty(n, dtype=np.int64)
    ends = np.empty(n, dtype=np.int64)
    for i in range(n):
        span_len = int(rng.integers(1, 4))
        s = int(rng.integers(1, seq - span_len))
        ids[i, 0] = markers[i]
        ids[i, s : s + span_len] = markers[i]
        starts[i] = s
        ends[i] = s + span_len - 1
        # One distractor run of a different marker, if it fits elsewhere.
        other = vocab - _N_MARKERS + int(rng.integers(0, _N_MARKERS))
        if other != markers[i]:
            ds_len = int(rng.integers(1, 3))
            cand = int(rng.integers(1, seq - ds_len))
            if cand + ds_len <= s or cand > ends[i]:
                ids[i, cand : cand + ds_len] = other
    return SquadDataset(ids, starts, ends, vocab)


def kfac_like_gradient(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` float32 values resembling K-FAC gradients: 88 % tiny,
    ``N(0,1)·1e-4``, and 12 % heavy-tailed, ``N·exp(N)·5e-2`` — the regime
    where COMPSO's 4e-3 relative filter reaches the paper's ~22x ratio."""
    small = rng.standard_normal(n) * 1e-4
    big = rng.standard_normal(n) * np.exp(rng.standard_normal(n)) * 5e-2
    return np.where(rng.random(n) < 0.12, big, small).astype(np.float32)


def catalog_gradients(
    rng: np.random.Generator, catalog, n_layers: int, cap: int
) -> list[np.ndarray]:
    """One :func:`kfac_like_gradient` per layer of ``catalog[:n_layers]``,
    at the layer's gradient size capped at ``cap`` elements."""
    return [kfac_like_gradient(rng, min(l.grad_elems, cap)) for l in catalog[:n_layers]]
