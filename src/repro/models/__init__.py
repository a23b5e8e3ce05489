"""Models: real-architecture layer catalogs and trainable proxies."""

from repro.models.catalogs import (
    MODEL_CATALOGS,
    LayerShape,
    bert_large_catalog,
    gpt_neo_125m_catalog,
    maskrcnn_catalog,
    resnet50_catalog,
)
from repro.models.squad import SpanQaModel
from repro.models.proxies import (
    DetectionProxy,
    bert_proxy,
    gpt_proxy,
    maskrcnn_proxy,
    resnet_proxy,
)
from repro.models.transformer import TransformerBlock, TransformerLM

__all__ = [
    "LayerShape",
    "MODEL_CATALOGS",
    "resnet50_catalog",
    "maskrcnn_catalog",
    "bert_large_catalog",
    "gpt_neo_125m_catalog",
    "resnet_proxy",
    "maskrcnn_proxy",
    "bert_proxy",
    "gpt_proxy",
    "DetectionProxy",
    "SpanQaModel",
    "TransformerLM",
    "TransformerBlock",
]
