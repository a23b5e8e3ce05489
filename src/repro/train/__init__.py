"""Training loops, task adapters and evaluation metrics."""

from repro.train.metrics import accuracy, predict_spans, span_em_f1
from repro.train.tasks import (
    ClassificationTask,
    DetectionTask,
    LmTask,
    MlmTask,
    SquadTask,
)
from repro.train.trainer import DistributedSgdTrainer, TrainHistory

__all__ = [
    "accuracy",
    "span_em_f1",
    "predict_spans",
    "ClassificationTask",
    "DetectionTask",
    "LmTask",
    "MlmTask",
    "SquadTask",
    "TrainHistory",
    "DistributedSgdTrainer",
]
