"""Digest-identical ledgers: the proof that a trainer refactor changed nothing.

Two groups.  The first re-records each committed
``benchmarks/out/baselines/*.ledger`` with exactly the command
``.github/workflows/ci.yml`` uses and requires the fresh ledger's
:meth:`RunLedger.digest` (every field but ``manifest.created_unix``) to
equal the committed one's.  The second pins, as hex digests,
configurations no committed ledger covers: the blocking K-FAC step under
guard + xray, K-FAC behind the checksummed channel under a fault plan,
K-FAC whose guard remediates in the middle of a step, and the
first-order trainer — each on every schedule it can run
(``runtime=None``, ``StreamRuntime(overlap=False)``,
``StreamRuntime(overlap=True)``).

How the pinned digests were captured: this file was copied into a
``git clone`` of commit e7b1eab — the last commit whose trainers carried
a separate blocking path beside ``_finish_step_runtime`` /
``_bucketed_allreduce`` — and each ``CONFIGURATIONS`` entry's
``load_ledger(out).digest()`` was printed there.  A digest that moves
means an observable of the training step moved; re-pin only for a change
that is meant to move it, and say so in the commit.
"""

from pathlib import Path

import pytest

from repro import telemetry
from repro.cli import main
from repro.core import AdaptiveCompso, CompsoCompressor, StepLrSchedule
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.faults import FaultPlan
from repro.guard import GuardConfig
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.obsv import LedgerConfig, diff_ledgers, load_ledger
from repro.optim import Sgd
from repro.runtime import ComputeModel, StreamRuntime
from repro.train import ClassificationTask, DistributedSgdTrainer

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "out" / "baselines"

#: committed ledger -> (argv before ``--out``, path of the ledger under
#: the ``--out`` location; "" when ``--out`` names the ledger itself).
COMMITTED = {
    "smoke": (["record", "--preset", "smoke"], ""),
    "xray-smoke": (["record", "--preset", "smoke", "--xray"], ""),
    "autotune-smoke": (["autotune", "--preset", "autotuned-degraded"], ""),
    "fleet-smoke": (["fleet", "--preset", "smoke"], "job0.ledger"),
    "fleet-chaos": (["fleet", "--preset", "chaos-smoke"], "job0.ledger"),
    "storage-smoke": (["fleet", "--preset", "storage-smoke"], "job0.ledger"),
}


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_committed_ledger_reproduces(name, tmp_path, capsys):
    argv, inner = COMMITTED[name]
    out = tmp_path / (name if inner else f"{name}.ledger")
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    expected, fresh = load_ledger(BASELINES / f"{name}.ledger"), load_ledger(out / inner)
    if fresh.digest() != expected.digest():
        pytest.fail(
            "ledger body moved:\n" + diff_ledgers(expected, fresh).format_table(),
            pytrace=False,
        )


# -- configurations no committed ledger covers ---------------------------------

ITERS = 4


def _task():
    return ClassificationTask(make_image_data(200, n_classes=5, size=8, noise=0.4, seed=0))


def _runtime(cluster, schedule):
    if schedule == "none":
        return None
    return StreamRuntime(
        cluster,
        overlap=schedule == "overlapped",
        compute=ComputeModel(train_flops=5e7),
        bucket_bytes=2048,
    )


def _record_blocking_xray(out):
    assert main(["record", "--preset", "smoke", "--xray", "--no-overlap", "--out", str(out)]) == 0


def _kfac_reliable_channel(schedule):
    """Corruption, jitter and a straggler; transfers behind the checksummed channel."""

    def run(out):
        plan = (
            FaultPlan(seed=7)
            .add_straggler(1, start=1, slowdown=3.0)
            .add_jitter(0.3, start=0)
            .add_corruption(0.3, n_bits=2)
        )
        cluster = SimCluster(1, 4, seed=0, fault_plan=plan)
        trainer = DistributedKfacTrainer(
            resnet_proxy(n_classes=5, channels=8, rng=3),
            _task(),
            cluster,
            lr=0.05,
            inv_update_freq=2,
            compressor=CompsoCompressor(4e-3, 4e-3, seed=0),
            runtime=_runtime(cluster, schedule),
            guard=GuardConfig(),
            obsv=LedgerConfig(out),
        )
        assert trainer._channel is not None
        with telemetry.session():
            trainer.train(iterations=ITERS, batch_size=64)

    return run


def _kfac_guard_remediates(schedule):
    """Bit flips reach ``decompress`` unchecked, so a layer's contract
    violation tightens the compressor's bounds in the middle of a step.
    Whether the next layer is compressed before or after that — where a
    schedule receives a broadcast relative to the next send — changes
    the whole remediation timeline, and the digest pins it."""

    def run(out):
        plan = FaultPlan(seed=2).add_corruption(
            0.6, start=2, stop=7, n_bits=2, ops=("broadcast",)
        )
        cluster = SimCluster(1, 4, seed=0, fault_plan=plan)
        trainer = DistributedKfacTrainer(
            resnet_proxy(n_classes=5, channels=8, rng=3),
            _task(),
            cluster,
            lr=0.05,
            inv_update_freq=2,
            compressor=AdaptiveCompso(StepLrSchedule(3), seed=0),
            runtime=_runtime(cluster, schedule),
            guard=GuardConfig(),
            obsv=LedgerConfig(out),
            reliable_channel=False,
        )
        with telemetry.session():
            trainer.train(iterations=9, batch_size=32)
        fired = {r["action"] for r in load_ledger(out).final["guard"]["remediations"]}
        assert "tighten_bounds" in fired

    return run


def _sgd(schedule):
    def run(out):
        cluster = SimCluster(1, 4, seed=0)
        model = resnet_proxy(n_classes=5, channels=8, rng=3)
        trainer = DistributedSgdTrainer(
            model,
            _task(),
            Sgd(model.parameters(), lr=0.05),
            cluster,
            compressor=CompsoCompressor(4e-3, 4e-3, seed=0),
            runtime=_runtime(cluster, schedule),
            guard=GuardConfig(),
            obsv=LedgerConfig(out),
        )
        with telemetry.session():
            trainer.train(iterations=ITERS, batch_size=64)

    return run


CONFIGURATIONS = {
    "kfac-blocking-guard-xray": _record_blocking_xray,
    "kfac-reliable-faults-none": _kfac_reliable_channel("none"),
    "kfac-reliable-faults-overlapped": _kfac_reliable_channel("overlapped"),
    "kfac-guard-remediates-none": _kfac_guard_remediates("none"),
    "kfac-guard-remediates-blocking": _kfac_guard_remediates("blocking"),
    "kfac-guard-remediates-overlapped": _kfac_guard_remediates("overlapped"),
    "sgd-compso-guard-none": _sgd("none"),
    "sgd-compso-guard-blocking": _sgd("blocking"),
    "sgd-compso-guard-overlapped": _sgd("overlapped"),
}

#: Ledger digests of CONFIGURATIONS at commit e7b1eab (see the module docstring).
PINNED = {
    "kfac-blocking-guard-xray": "6ac88e3b23fddfd8faf9fd99249edf21fba6913854149d44480d72f4c28193a8",
    "kfac-reliable-faults-none": "ca37f47486c94bbebaf74d7d973790e6820a92676d4c3050515922a7cfbb9a6c",
    "kfac-reliable-faults-overlapped": "2a2ceb90cc3d28d5b0eedcaa52923ea0a80f4b7e24a7828b15d586e039d4395e",
    "kfac-guard-remediates-none": "3300e8550f99d8d488cdff074850201235946cc49f26bdc84c1e1d7ec003b224",
    "kfac-guard-remediates-blocking": "724bdf68a3fa3adf80f42d6fb1c2ea708fac3acd01e632a5ab2b190c186cab6e",
    "kfac-guard-remediates-overlapped": "9b1499598c31a8a1ace0f401e90eabc028446c2771a218b05f23e6b3a901a21b",
    "sgd-compso-guard-none": "bdb0bba6107e45c14859963c38ed2687d76600e436fe109835e17d331d89fd92",
    "sgd-compso-guard-blocking": "e502731f7fce8f996142cb435bf6a747d682b692993be0b8da75ad47d961d4ef",
    "sgd-compso-guard-overlapped": "0589fbf51f88a191ed72f76e5c27b1a79dda24cb934b312edf303830c6a0118f",
}


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_pinned_configuration(name, tmp_path, capsys):
    out = tmp_path / f"{name}.ledger"
    CONFIGURATIONS[name](out)
    capsys.readouterr()
    assert load_ledger(out).digest() == PINNED[name]
