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

Re-pinned once since, for the ANS frame that codes 16-bit quantisation
codes as one symbol each (wire bytes shrink).  Field by field against
the digests' ledgers at b5a6b53, the six re-pinned configurations moved
only in wire bytes, ratios and sim-time-derived fields; losses, steps
and guard verdicts are identical.  The three ``kfac-guard-remediates-*``
ones flip bits of the broadcast payload itself, so under ANS a frame
layout change moves which fields the flips hit and, from there,
verdicts, bounds and losses.  They therefore run the Huffman coder,
whose payload a codec change to ANS cannot touch: their digests were
captured the same way at b5a6b53 and are identical at the commit that
changed the ANS frame.
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
    the whole remediation timeline, and the digest pins it.  Huffman, not
    ANS: where a flip lands depends on the frame layout, and this pin is
    about the step body, not the codec (see the module docstring)."""

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
            compressor=AdaptiveCompso(StepLrSchedule(3), encoder="huffman", seed=0),
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

#: Ledger digests of CONFIGURATIONS (see the module docstring for their provenance).
PINNED = {
    "kfac-blocking-guard-xray": "e977643d1d7bc4a120d9bb6204b0c61777318bd63ed3759e6c37e37cd5419950",
    "kfac-reliable-faults-none": "ae804ee7cf53a800c156a54420a9be628ea189a4e8879d3f5749c1e12e042518",
    "kfac-reliable-faults-overlapped": "41d10caa88d6aca4c47295eb668c01a350b2a3bf911cfd6e3df7ee55700863a4",
    "kfac-guard-remediates-none": "7d4900847ffa9bd96814473ca57d2765b860a002ffaad702f02b96a68099da8f",
    "kfac-guard-remediates-blocking": "660db6d50d385596a65a65b229bcd3b250303f6ff4a9f527f2619624edf57e28",
    "kfac-guard-remediates-overlapped": "cf72106431c1df3248969dbf81f37daaff6ea560848faad7202ac55c78237109",
    "sgd-compso-guard-none": "bbd0dc9522fcc08e1b6deebd29623eac03c66faa279d9942cb3dcbe766bc932a",
    "sgd-compso-guard-blocking": "1dee6fb507485119a70113cf88bb74ecfa2d4ae9a5b4ea430b751e44ef443dae",
    "sgd-compso-guard-overlapped": "9a2c1394eb3d8bbbf6d7665ef549e266c32bba5eb91028d703b499cfcc4f93d5",
}


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_pinned_configuration(name, tmp_path, capsys):
    out = tmp_path / f"{name}.ledger"
    CONFIGURATIONS[name](out)
    capsys.readouterr()
    assert load_ledger(out).digest() == PINNED[name]
