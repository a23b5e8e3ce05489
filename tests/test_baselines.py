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

Re-pinned a second time, together with the six committed ledgers, for
the change that forms the K-FAC factor statistics in float32 and ships
their upper triangles: the six ``kfac-*`` configurations and all
eighteen documents moved, the three ``sgd-*`` ones did not.  Field by
field against the same runs at c3bf950: losses move by at most 7e-5
relative (chaos ``rank-loss``; 1e-5 elsewhere) and the guard's
``*_over_bound`` / ``*_over_median`` details with them, allreduce bytes
fall by 69 %, and the sim-time-derived fields follow; steps, verdict
kinds, remediations fired, restart and preemption counts are identical.
Where ``bucket_bytes=2048``, a step now issues 11 allreduces instead of
12 (the smaller factor messages fill fewer buckets), and the per-
collective jitter/straggler injection counts follow.
``tests/test_factor_exchange.py`` holds what these digests used to
prove about the factor path.
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
    "kfac-blocking-guard-xray": "c019ddb51101d661ba9f102bf7ae03553516788a953bbd94cc9ea1f06142cee7",
    "kfac-reliable-faults-none": "996367c8ddabb7d4149b0d32ece886b3685c902f49279fb643bff017b5c23fbe",
    "kfac-reliable-faults-overlapped": "90f4ab344e61fb2894f093f4391bc38355a6230d8e3f19e85f0ef8f0c2d1283f",
    "kfac-guard-remediates-none": "92f124c2c2f01d47fc74a9eb6e88431505590eeb318b39cdec4f37509ddc2c33",
    "kfac-guard-remediates-blocking": "b4a70a132fedf755f94d7ae2a09ce4ff1aa32989375f0bc2ed92389abeed165d",
    "kfac-guard-remediates-overlapped": "623326ac9e9d501978fd6f43dc31caffb7c7ffff81cd1f8c6f96af99524d600d",
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
    "chaos-corruption": "5a5ff684d1b7bd4391b0f2f78c22ee7e838cf922c3ca04fcb81cfa6643c3ac79",
    "chaos-corruption-ci-shape": "3e434226896be96eb4ac7984f1f7a915065b8e1ed17b896da2fc5ca9a1c474eb",
    "chaos-degraded-link": "f9bbae6084d5586fd6e3c53fcb788e4a85653f32156e7b07aa626a749e58c86e",
    "chaos-degraded-link-ci-shape": "f50750781aba874275ab31350defd74bc60032eea8a06662c8d7f640f9697fa8",
    "chaos-mixed": "f4359cc72217e6b5c0e8f4cc6b971bb108819236b04850f112d96084bbdf23e4",
    "chaos-mixed-ci-shape": "aeace9592b98897c9484513701ecfac9cd0680bf1e748a187271b328424799ad",
    "chaos-rank-loss": "7b0402d436a4c62791eaa1e94bce8bbaef65f4f52ab05297425a92d13dcd0a13",
    "chaos-rank-loss-ci-shape": "5055b57352757b3aa5a44db2802638324ed8b68c86e9e83d51c7b7cb92225ebb",
    "chaos-smoke": "a7ecf136b6db5a3d895891d974e9aba8470b9fd7e9f843f9a6f33f911eae7b0e",
    "chaos-smoke-ci-shape": "d59078514f3617e1a4a42030d0e363291dab69432c2df681ca57455387efcda4",
    "chaos-stragglers": "3e5ab948b581b378f7973bc5a02bf11bdb5c7ca0e78c36b660d5ccdf58b34f10",
    "chaos-stragglers-ci-shape": "2fe6c0ec8c0f4a4458fae02fc36a0f4ff3e98769c94170debb61358ffba32a14",
    "fleet-chaos-smoke": "209700f30b451665b5f4dbd579286b5db0356ebe6e25c484f266a34d89dcb106",
    "fleet-smoke": "389881f218134e076190355d8efb0334b2b2ab85de1c97a9f20b18ef1f3d838f",
    "fleet-storage-smoke": "9f6b2fceedfcc9da54cf9367ab8d0d5474704a9890e3f32e568dce25b0999293",
    "guard": "6fee474270c65a5a20734e9a87c23f60b1d9dfb946870037ca8a8ef7158417a5",
    "overlap-ranks4-iters3": "c59d6ce14e39333aae8ce7a1385f1895a2d29628228641714ccd8b06f5dae792",
    "overlap-ranks8": "f06a7d95593aa9a09443497e3dfa30a94a77ef8946c8f0af8f2cef5b3cfe7ed6",
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
