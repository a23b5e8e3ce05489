"""First-order optimizer: SGD with momentum."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Sgd"]


class Sgd:
    """SGD with (Nesterov-free) momentum and weight decay."""

    #: Every run trains without weight decay.
    weight_decay = 0.0

    def __init__(self, params: list[Parameter], lr: float = 0.1, momentum: float = 0.9):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
