"""NumPy neural-network substrate with K-FAC statistics capture."""

from repro.nn.activations import GELU, ReLU
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.container import Residual, Sequential
from repro.nn.conv import Conv2d, col2im
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.nn.losses import smooth_l1_loss, softmax_cross_entropy
from repro.nn.module import KfacLayerMixin, Module, Parameter
from repro.nn.norm import BatchNorm2d, LayerNorm
from repro.nn.pooling import GlobalAvgPool2d, MaxPool2d

__all__ = [
    "Module",
    "Parameter",
    "KfacLayerMixin",
    "Linear",
    "Conv2d",
    "col2im",
    "ReLU",
    "GELU",
    "LayerNorm",
    "BatchNorm2d",
    "Sequential",
    "Residual",
    "Embedding",
    "MultiHeadSelfAttention",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "softmax_cross_entropy",
    "smooth_l1_loss",
]
