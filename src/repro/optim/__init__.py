"""Optimizers and learning-rate schedules."""

from repro.optim.kfac import FactorNumericsError, Kfac, LayerFactors
from repro.optim.schedulers import StepLr
from repro.optim.sgd import Sgd

__all__ = [
    "Sgd",
    "FactorNumericsError",
    "Kfac",
    "LayerFactors",
    "StepLr",
]
