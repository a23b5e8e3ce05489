"""Layer-shape catalogs of the paper's four real models.

Communication-volume and timing experiments (Figs. 1, 7, 9; Table 2) do
not need trainable weights — only the exact per-layer K-FAC gradient
shapes, Kronecker-factor dimensions and forward FLOPs of ResNet-50,
Mask R-CNN, BERT-large and GPT-neo-125M.  These catalogs enumerate every
K-FAC layer of the real architectures.

A K-FAC layer's communication payload is its preconditioned gradient
matrix ``out_f x in_f`` (bias column folded in); its factor-allreduce
payload is ``in_f^2 + out_f^2`` floats; its eigendecomposition cost is
``O(in_f^3 + out_f^3)``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LayerShape",
    "resnet50_catalog",
    "maskrcnn_catalog",
    "bert_large_catalog",
    "gpt_neo_125m_catalog",
    "MODEL_CATALOGS",
]


@dataclass(frozen=True)
class LayerShape:
    """One K-FAC layer of a real architecture."""

    name: str
    #: Output features (rows of the gradient matrix).
    out_f: int
    #: Input features including the bias column (columns of the gradient).
    in_f: int
    #: Forward FLOPs per sample for this layer.
    fwd_flops: float

    @property
    def grad_elems(self) -> int:
        return self.out_f * self.in_f

    @property
    def grad_bytes(self) -> int:
        return 4 * self.grad_elems

    @property
    def factor_elems(self) -> int:
        return self.in_f**2 + self.out_f**2

    @property
    def factor_bytes(self) -> int:
        return 4 * self.factor_elems


def _conv(name: str, cin: int, cout: int, k: int, h: int, w: int, stride: int = 1) -> LayerShape:
    """Conv layer shape at input resolution h x w."""
    oh, ow = h // stride, w // stride
    in_f = cin * k * k + 1
    flops = 2.0 * cout * (cin * k * k) * oh * ow
    return LayerShape(name, cout, in_f, flops)


def _fc(name: str, fin: int, fout: int, seq: int = 1) -> LayerShape:
    return LayerShape(name, fout, fin + 1, 2.0 * fin * fout * seq)


def resnet50_catalog(resolution: int = 224) -> list[LayerShape]:
    """All 54 K-FAC layers of ResNet-50 (53 convs + final FC), ~25.6M params."""
    r = resolution
    layers = [_conv("conv1", 3, 64, 7, r, r, stride=2)]
    r //= 4  # stride-2 conv + maxpool
    # (blocks, mid_channels, out_channels, stride of first block)
    stages = [(3, 64, 256, 1), (4, 128, 512, 2), (6, 256, 1024, 2), (3, 512, 2048, 2)]
    cin = 64
    for si, (blocks, mid, cout, stride) in enumerate(stages):
        for b in range(blocks):
            s = stride if b == 0 else 1
            prefix = f"layer{si + 1}.{b}"
            layers.append(_conv(f"{prefix}.conv1", cin, mid, 1, r, r, stride=1))
            layers.append(_conv(f"{prefix}.conv2", mid, mid, 3, r, r, stride=s))
            r_out = r // s
            layers.append(_conv(f"{prefix}.conv3", mid, cout, 1, r_out, r_out))
            if b == 0:
                layers.append(_conv(f"{prefix}.downsample", cin, cout, 1, r, r, stride=s))
            cin = cout
            r = r_out
    layers.append(_fc("fc", 2048, 1000))
    return layers


def maskrcnn_catalog(resolution: int = 544) -> list[LayerShape]:
    """Mask R-CNN with ResNet-50-FPN backbone (~44M params).

    Backbone at detection resolution (default 544px; COCO training uses
    ~800px shorter side, 544 keeps FLOPs in the calibrated envelope),
    FPN lateral/output convs, RPN head, box head (two 1024-wide FCs and
    predictors), and the 4-conv mask head.
    """
    layers = list(resnet50_catalog(resolution=resolution))[:-1]  # drop the fc
    # FPN: 4 lateral 1x1 convs + 4 output 3x3 convs at 256 channels.
    fpn_res = [resolution // 4 // s for s in (1, 2, 4, 8)]
    for i, (cin, r) in enumerate(zip([256, 512, 1024, 2048], fpn_res)):
        layers.append(_conv(f"fpn.lateral{i}", cin, 256, 1, r, r))
        layers.append(_conv(f"fpn.output{i}", 256, 256, 3, r, r))
    # RPN head: shared 3x3 conv + objectness/bbox 1x1 convs.
    r0 = resolution // 4
    layers.append(_conv("rpn.conv", 256, 256, 3, r0, r0))
    layers.append(_conv("rpn.cls", 256, 3, 1, r0, r0))
    layers.append(_conv("rpn.bbox", 256, 12, 1, r0, r0))
    # Box head: 7x7x256 pooled features -> 1024 -> 1024 -> (81 cls, 320 box).
    layers.append(_fc("roi.box_fc1", 256 * 7 * 7, 1024))
    layers.append(_fc("roi.box_fc2", 1024, 1024))
    layers.append(_fc("roi.cls_score", 1024, 81))
    layers.append(_fc("roi.bbox_pred", 1024, 324))
    # Mask head: four 3x3 convs + deconv + predictor at 14x14.
    for i in range(4):
        layers.append(_conv(f"roi.mask_fcn{i + 1}", 256, 256, 3, 14, 14))
    layers.append(_conv("roi.mask_deconv", 256, 256, 2, 14, 14))
    layers.append(_conv("roi.mask_pred", 256, 80, 1, 28, 28))
    return layers


def _transformer_catalog(
    prefix: str, n_layers: int, hidden: int, ffn: int, seq: int
) -> list[LayerShape]:
    layers = []
    for i in range(n_layers):
        p = f"{prefix}.{i}"
        for proj in ("q", "k", "v", "o"):
            layers.append(_fc(f"{p}.attn.{proj}", hidden, hidden, seq=seq))
        layers.append(_fc(f"{p}.mlp.fc1", hidden, ffn, seq=seq))
        layers.append(_fc(f"{p}.mlp.fc2", ffn, hidden, seq=seq))
    return layers


def bert_large_catalog(seq: int = 512) -> list[LayerShape]:
    """BERT-large encoder: 24 layers, hidden 1024, FFN 4096 (~303M K-FAC params)."""
    layers = _transformer_catalog("encoder", 24, 1024, 4096, seq)
    layers.append(_fc("pooler", 1024, 1024, seq=1))
    # MLM transform head (decoder weight is tied to the embedding).
    layers.append(_fc("mlm.transform", 1024, 1024, seq=seq))
    return layers


def gpt_neo_125m_catalog(seq: int = 2048) -> list[LayerShape]:
    """GPT-neo-125M: 12 layers, hidden 768, FFN 3072 (~85M K-FAC params)."""
    return _transformer_catalog("decoder", 12, 768, 3072, seq)


MODEL_CATALOGS = {
    "resnet50": resnet50_catalog,
    "maskrcnn": maskrcnn_catalog,
    "bert-large": bert_large_catalog,
    "gpt-neo-125m": gpt_neo_125m_catalog,
}
