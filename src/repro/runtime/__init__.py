"""Nonblocking collectives, comm streams, and scheduled overlap.

``repro.runtime`` is the execution engine layered over
:mod:`repro.distributed`: nonblocking collective variants that return
wait handles, per-rank compute/comm streams advanced by a deterministic
scheduler, a byte-threshold bucketing layer, and deadlock/unmatched-
collective detection.  Both trainers accept a :class:`StreamRuntime` to
issue K-FAC and gradient communication during compute and *measure* the
hidden fraction, replacing the assumed overlap constants of
:mod:`repro.kfac_dist.timing`::

    from dataclasses import replace

    from repro import scenarios

    # ``repro overlap``'s run: ``schedule="overlapped"`` builds the
    # StreamRuntime, ``train_flops`` its ComputeModel.
    overlap = scenarios.SCENARIOS["overlap"]["overlap"]
    trainer = scenarios.build(replace(overlap, nodes=4, iterations=10, batch_size=64))
    trainer.train(iterations=10, batch_size=64)
    print(trainer.runtime.hidden_fraction())   # measured, not assumed

The overlapped path is bit-identical to the blocking one — the same
SimCluster data-plane helpers move the same arrays; only the clocks
differ.
"""

from repro.runtime.bucketing import Bucketer, split_bounds
from repro.runtime.compute import ComputeModel
from repro.runtime.engine import CollectiveHandle, StreamRuntime
from repro.runtime.errors import (
    DeadlockError,
    RuntimeSchedulerError,
    UnmatchedCollectiveError,
)

__all__ = [
    "Bucketer",
    "CollectiveHandle",
    "ComputeModel",
    "DeadlockError",
    "RuntimeSchedulerError",
    "StreamRuntime",
    "UnmatchedCollectiveError",
    "split_bounds",
]
