"""Digest-identical ledgers and result documents: the proof that a
refactor changed nothing.

Three groups.  The first re-records each committed
``benchmarks/out/baselines/*.ledger`` from the ``repro.scenarios`` entry
(or fleet) whose ``baseline`` names it — no command line is spelled here
or in ``.github/workflows/ci.yml`` to know which run a ledger is — and
requires the fresh ledger's :meth:`RunLedger.digest` (every field but
``manifest.created_unix``) to equal the committed one's.  The second
pins, as hex digests, configurations no committed ledger covers: the
blocking K-FAC step under guard + xray, K-FAC behind the checksummed
channel under a fault plan, K-FAC whose guard remediates in the middle
of a step, and the first-order trainer — each on every schedule it can
run (``runtime=None``, ``StreamRuntime(overlap=False)``,
``StreamRuntime(overlap=True)``).  The third pins the JSON result
documents the CLI writes (``chaos``, ``guard``, ``overlap``, ``fleet``
``--json``) as the sha256 of their sorted-key serialisation; a last test
holds ci.yml to the registry's names.

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

The result-document pins were captured by PR 13's method again: this
same file was run (``-k result_document``) in a ``git clone`` of
b279dc0 — the last commit whose CLI built each of these jobs by hand,
before ``repro.scenarios`` existed — and the digests it printed as
mismatches were pasted below; the registry reproduces every one.
"""

import hashlib
import json
import re
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

REPO = Path(__file__).resolve().parent.parent
BASELINES = REPO / "benchmarks" / "out" / "baselines"


def _baselined():
    """Committed ledger stem -> the ``(command, preset)`` registered as
    reproducing it.  Imported here, not at module level, so this file
    also collects at a commit that has no registry (see the docstring)."""
    from repro.scenarios import FLEETS, SCENARIOS

    named = [
        (s.baseline, (command, name))
        for command, group in SCENARIOS.items()
        for name, s in group.items()
    ]
    named += [(fleet.baseline, ("fleet", name)) for name, fleet in FLEETS.items()]
    named = [(baseline, run) for baseline, run in named if baseline is not None]
    assert len(dict(named)) == len(named), "two registry entries claim one baseline"
    return dict(named)


def test_every_committed_ledger_is_named_by_one_registry_entry():
    assert set(_baselined()) == {p.stem for p in BASELINES.glob("*.ledger")}
    assert [p.name for p in BASELINES.iterdir() if p.suffix != ".ledger"] == []


@pytest.mark.parametrize("name", sorted(p.stem for p in BASELINES.glob("*.ledger")))
def test_committed_ledger_reproduces(name, tmp_path, capsys):
    command, preset = _baselined()[name]
    # A fleet's ``--out`` is a directory of per-job ledgers; job0 is its anchor.
    out = tmp_path / (name if command == "fleet" else f"{name}.ledger")
    assert main([command, "--preset", preset, "--out", str(out)]) == 0
    capsys.readouterr()
    fresh = load_ledger(out / "job0.ledger" if command == "fleet" else out)
    expected = load_ledger(BASELINES / f"{name}.ledger")
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


# -- result documents the CLI writes -------------------------------------------

CI_SHAPE = ["--nodes", "1", "--gpus-per-node", "2", "--iterations", "6", "--batch-size", "16"]
CHAOS = ("stragglers", "degraded-link", "corruption", "rank-loss", "mixed", "smoke")

#: name -> argv before ``--json``.  Fleets run without ``--out``, so the
#: document carries no ledger path.
DOCUMENTS = {
    **{f"chaos-{name}": ["chaos", "--scenario", name] for name in CHAOS},
    **{f"chaos-{name}-ci-shape": ["chaos", "--scenario", name, *CI_SHAPE] for name in CHAOS},
    "guard": ["guard"],
    "overlap-ranks4-iters3": ["overlap", "--ranks", "4", "--iters", "3"],
    "overlap-ranks8": ["overlap", "--ranks", "8"],
    "fleet-smoke": ["fleet", "--preset", "smoke"],
    "fleet-chaos-smoke": ["fleet", "--preset", "chaos-smoke"],
    "fleet-storage-smoke": ["fleet", "--preset", "storage-smoke"],
}

#: sha256 of each DOCUMENTS entry (see the module docstring for their provenance).
PINNED_DOCUMENTS = {
    "chaos-corruption": "ded0478516b4a757ee4c4a7d1af77d0c7f5a52430f48fa8d4766503f750ac016",
    "chaos-corruption-ci-shape": "bfbd9d05e7f495d9d74414c22733d9b1fa86c8d1797ec002eb99af5aa3329fb0",
    "chaos-degraded-link": "1c7e5d36cdb7e016e9f1dedf11a1b1a73c4481ed6c36052d385e56806f17d3c8",
    "chaos-degraded-link-ci-shape": "6350242b3410daf549eb64aeb2fd36295c36edf5b51c3157e6fc71e1195beea4",
    "chaos-mixed": "b70cb9c7ece844a92d696e830efdf83fe1ec4ef818b415930a84cfb100433f4d",
    "chaos-mixed-ci-shape": "29b723e447ab4d0f7b880650694057b09c81107b671a1a963654b850490f631f",
    "chaos-rank-loss": "84863e8379ed6aaaed8513362464319aa6444ca786d0c267145c7755de13a447",
    "chaos-rank-loss-ci-shape": "0c9f5a9e99fc6a68bc3403b60938c261dcd1fced684183280d0727ed61ccf9e6",
    "chaos-smoke": "79126068cc14981b1c5b45213254e7ad5aff22a6c753ba699dc9f4685d8a54d0",
    "chaos-smoke-ci-shape": "46838f6db53ae87fcf662fa605f68d4cb9ac9f69e145fc20437e642a06b30f6c",
    "chaos-stragglers": "93737f742dc9957a6041cd74d70e8e02b2785aebf83bfe2dc06a0e8e7a2680b3",
    "chaos-stragglers-ci-shape": "0607f3992fc2ee8452154699490816df7867f1f549171cb24dd0f6ecc0199098",
    "fleet-chaos-smoke": "3bce31de331f58d5247168bc6806e989c5098fe14be19cccb5b8d2b34afcf7be",
    "fleet-smoke": "58a1f1ecdd8579702ce0aa7e4ad71c4a365a699923caf05ba833a78e926f44ae",
    "fleet-storage-smoke": "0de7884521e8af6cc4c962d89dda119eaead9f3531b1a8c6185671fa7a5b6695",
    "guard": "c61cecf5ab1e5ae6dd05183de401b3b92628ffba578ee8d2a51e2cc3a5c04590",
    "overlap-ranks4-iters3": "0bdc3b38f617a4f8cec67ffd604b3e45b0005065e1cb87e6e797545fd410e235",
    "overlap-ranks8": "3ac5df6cac1045b97d0c218064fc22c6fd655ab1b7e22a6e3859357e4054d34d",
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_result_document(name, tmp_path, capsys):
    path = tmp_path / "result.json"
    assert main([*DOCUMENTS[name], "--json", str(path)]) == 0
    capsys.readouterr()
    text = json.dumps(json.loads(path.read_text()), sort_keys=True)
    # The guard's rollbacks name a checkpoint in a temporary directory.
    text = re.sub(r'"[^"]*/latest\.npz"', '"latest.npz"', text)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DOCUMENTS.get(name)


def test_ci_names_its_runs_from_the_registry():
    """Every ``--preset X`` / ``--scenario X`` in ci.yml is a registry key
    of the command it is passed to."""
    from repro.scenarios import FLEETS, SCENARIOS

    text = (REPO / ".github" / "workflows" / "ci.yml").read_text().replace("\\\n", " ")
    runs = re.findall(r"-m repro ([\w-]+)[^\n]*?--(?:preset|scenario)[ =]([\w-]+)", text)
    assert runs, "ci.yml runs no named scenario"
    for command, name in runs:
        registered = FLEETS if command == "fleet" else SCENARIOS[command]
        assert name in registered, f"ci.yml: repro {command} has no run named {name!r}"
