"""Minimal NumPy neural-network substrate.

A deliberately small module system with hand-written backward passes.
Its one K-FAC-specific feature: layers that support K-FAC (Linear,
Conv2d) cache the activation input ``a`` and the gradient w.r.t. their
pre-activation output ``g`` during forward/backward — the two statistics
Eq. 1 builds the Kronecker factors from.

Conventions:
* batch dimension first; losses are means over the batch;
* ``backward(grad_out)`` consumes dL/d(output), accumulates dL/d(param)
  into ``Parameter.grad`` and returns dL/d(input);
* K-FAC layers additionally store ``last_a`` (with bias column appended)
  and ``last_g`` (per-sample grads of the *summed* loss, i.e. the mean
  gradient times batch size, following the kfac-pytorch convention).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["Parameter", "Module", "KfacLayerMixin"]


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class: composable forward/backward with parameter discovery."""

    def __init__(self) -> None:
        self.training = True

    # -- graph traversal ----------------------------------------------------

    def children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self.children():
            yield from child.modules()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in self.__dict__.items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def state_dict(self) -> dict[str, np.ndarray]:
        """The parameters by name: what a checkpoint stores of the model."""
        return {name: p.data for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Rebind every parameter to its float32 copy of ``state[name]``.

        Raises ``KeyError`` for a parameter ``state`` lacks and
        ``ValueError`` for one of another shape, before any is rebound.
        """
        params = list(self.named_parameters())
        for name, p in params:
            if name not in state:
                raise KeyError(f"state missing parameter {name!r}")
            if state[name].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: state {state[name].shape}, "
                    f"model {p.data.shape}"
                )
        for name, p in params:
            p.data = state[name].astype(np.float32)

    def kfac_layers(self) -> list["KfacLayerMixin"]:
        """All K-FAC-capable layers in forward order."""
        return [m for m in self.modules() if isinstance(m, KfacLayerMixin)]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self

    # -- compute ------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class KfacLayerMixin:
    """Marker + storage for layers that expose K-FAC statistics.

    After a forward/backward pass, ``last_a`` holds the activation input
    (samples x in_features, bias column included when the layer has a
    bias) and ``last_g`` the per-sample pre-activation gradients
    (samples x out_features).
    """

    last_a: np.ndarray | None = None
    last_g: np.ndarray | None = None

    def kfac_weight_grad(self) -> np.ndarray:
        """Combined (out, in[+1]) gradient matrix the preconditioner acts on."""
        raise NotImplementedError

    def set_kfac_weight_grad(self, grad: np.ndarray) -> None:
        """Write a preconditioned (out, in[+1]) gradient back to the params."""
        raise NotImplementedError
