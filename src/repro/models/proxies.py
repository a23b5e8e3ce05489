"""Trainable proxy models for the four paper workloads.

Convergence/accuracy experiments (Figs. 3, 5, 6; Table 1) need *relative*
accuracy comparisons between compressors, not ImageNet-scale absolute
numbers.  Each proxy is a small NumPy model of the same architectural
family trained with real K-FAC on a synthetic dataset, so it has the same
kind of per-layer gradient statistics and the same sensitivity ordering
(RN vs SR vs filtered errors) as the paper's workloads.
"""

from __future__ import annotations

import numpy as np

from repro.models.transformer import TransformerLM
from repro.nn.activations import ReLU
from repro.nn.container import Residual, Sequential
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.norm import BatchNorm2d
from repro.nn.pooling import GlobalAvgPool2d, MaxPool2d
from repro.util.seeding import spawn_rng

__all__ = ["resnet_proxy", "maskrcnn_proxy", "bert_proxy", "gpt_proxy", "DetectionProxy"]


def resnet_proxy(
    n_classes: int = 10, channels: int = 16, *, rng=0
) -> Sequential:
    """Small residual CNN classifier (ResNet-50 stand-in); input (N,3,16,16)."""
    rng = spawn_rng(rng)
    c = channels
    return Sequential(
        Conv2d(3, c, 3, padding=1, rng=spawn_rng(rng, 0)),
        BatchNorm2d(c),
        ReLU(),
        MaxPool2d(2),
        Residual(
            Sequential(
                Conv2d(c, c, 3, padding=1, rng=spawn_rng(rng, 1)),
                BatchNorm2d(c),
                ReLU(),
                Conv2d(c, c, 3, padding=1, rng=spawn_rng(rng, 2)),
                BatchNorm2d(c),
            )
        ),
        ReLU(),
        Conv2d(c, 2 * c, 3, padding=1, rng=spawn_rng(rng, 3)),
        BatchNorm2d(2 * c),
        ReLU(),
        MaxPool2d(2),
        GlobalAvgPool2d(),
        Linear(2 * c, n_classes, rng=spawn_rng(rng, 4)),
    )


class DetectionProxy(Module):
    """Mask R-CNN stand-in: shared CNN trunk + classification & box heads.

    ``forward`` returns the concatenation ``[class_logits | box_deltas]``
    so the Sequential-style single-tensor backward API holds; the
    detection loss in :mod:`repro.train.metrics` splits the two heads.
    """

    #: The trunk's first width; the second is twice it.
    channels = 16

    def __init__(self, n_classes: int = 8, n_boxes: int = 4, *, rng=0):
        super().__init__()
        rng = spawn_rng(rng)
        c = self.channels
        self.trunk = Sequential(
            Conv2d(3, c, 3, padding=1, rng=spawn_rng(rng, 0)),
            BatchNorm2d(c),
            ReLU(),
            MaxPool2d(2),
            Conv2d(c, 2 * c, 3, padding=1, rng=spawn_rng(rng, 1)),
            BatchNorm2d(2 * c),
            ReLU(),
            MaxPool2d(2),
            GlobalAvgPool2d(),
        )
        self.cls_head = Linear(2 * c, n_classes, rng=spawn_rng(rng, 2))
        self.box_head = Linear(2 * c, 4 * n_boxes, rng=spawn_rng(rng, 3))
        self.n_classes = n_classes
        self.n_boxes = n_boxes

    def forward(self, x: np.ndarray) -> np.ndarray:
        feat = self.trunk(x)
        return np.concatenate([self.cls_head(feat), self.box_head(feat)], axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g_cls = grad_out[:, : self.n_classes]
        g_box = grad_out[:, self.n_classes :]
        g_feat = self.cls_head.backward(g_cls) + self.box_head.backward(g_box)
        return self.trunk.backward(g_feat)


def maskrcnn_proxy(n_classes: int = 8, n_boxes: int = 4, *, rng=0) -> DetectionProxy:
    """Detection-style proxy with classification + box-regression heads."""
    return DetectionProxy(n_classes, n_boxes, rng=rng)


def bert_proxy(
    vocab: int = 64, dim: int = 32, n_layers: int = 2, max_seq: int = 32, *, rng=0
) -> TransformerLM:
    """Bidirectional (non-causal) transformer for masked-LM tasks."""
    return TransformerLM(
        vocab, dim=dim, heads=4, n_layers=n_layers, max_seq=max_seq, causal=False, rng=rng
    )


def gpt_proxy(
    vocab: int = 64, dim: int = 32, n_layers: int = 2, max_seq: int = 32, *, rng=0
) -> TransformerLM:
    """Causal transformer for next-token language modelling."""
    return TransformerLM(
        vocab, dim=dim, heads=4, n_layers=n_layers, max_seq=max_seq, causal=True, rng=rng
    )
