"""Digest-identical ledgers and result documents: the proof that a
refactor changed nothing.

Three groups.  The first re-records each committed
``benchmarks/out/baselines/*.ledger`` from the ``repro.scenarios`` entry
(or fleet) whose ``baseline`` names it — no command line is spelled here
or in ``.github/workflows/ci.yml`` to know which run a ledger is — and
requires the fresh ledger's :meth:`RunLedger.digest` (every field but
``manifest.created_unix``) to equal the committed one's.  The second
pins, as hex digests, configurations no committed ledger covers: the
blocking K-FAC step under guard + xray, the overlapped one under guard,
autotune and xray together, K-FAC behind the checksummed
channel under a fault plan, and K-FAC whose guard remediates in the
middle of a step — the last two on the schedules they pin
(``runtime=None``, ``StreamRuntime(overlap=False)``,
``StreamRuntime(overlap=True)``), with 2 048-byte buckets so a step of
the toy proxy fills more than one.  The third pins the JSON result
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

Re-pinned a third time, with the six ledgers, for the ANS frame whose
lane count is stored, whose frequency table is bit-packed and which
carries a checksum: every run that codes with ANS moved (six
configurations, sixteen documents); the three ``kfac-guard-remediates-*``
(Huffman) and the two ``overlap`` documents (no compressor) did not.
Field by field against the same runs at 8654adf: wire bytes fall by up
to 15 % (0.3 % where the autotuner has most layers on other encoders)
(the per-layer byte lists, ``cr``, ``mean_cr``, the byte metrics), and
sim time, the overlap split, span digests, xray paths, fleet goodput and
the autotuner's fitted ``alpha``/``beta``/CR signals follow them; step 4
of ``smoke`` records 27 ``kfac_allgather`` spans where it recorded 30
(smaller frames fill one bucket fewer).  Losses,
steps, verdicts, remediations, autotune decisions, restart and
preemption counts, and every chaos document's detection and retransmit
counts are identical: the lossless stage cannot change a decoded tensor.

The ``guard`` document alone was re-pinned once more, when a trainer's
checkpoints became checkpoint-store generations only: its one rollback
used to name the bare checkpoint file in the run's temporary directory
(a path this test had to scrub) and now names the generation and its
step.  Leaf by leaf against the same run at 34f2e3b, that rollback's
``detail`` is the only difference; every ledger and every other document
held without a re-pin.

Re-pinned a fourth time, with the ``smoke``, ``xray-smoke`` and
``autotune-smoke`` ledgers, when the config fields no call site set were
deleted (DESIGN.md decision 26): every configuration here runs a guard,
and the guard, autotune and xray sections of a manifest record only what
a run can set.  Each ledger was recorded at e7a695a and at the commit
that deleted the fields; with exactly the deleted keys stripped from the
older manifest (17 guard, 5 autotune, 1 xray), the two are equal line
for line, and every step and final line is byte-identical.  The fleet
ledgers and every result document held without a re-pin.

Re-pinned a fifth time, with the same three ledgers, when the knobs only
tests set became constants (DESIGN.md decision 27): the guard section
lost its last four keys, the autotune section ``menu`` / ``safe`` /
``max_error`` / ``min_improvement`` and the xray section ``top_segments``,
and the runtime section ``bucket_bytes``.  Checked the same way against
3cdbb09 (EXPERIMENTS.md "PR 30"): exactly those keys stripped, every line
equal.  The three first-order pins went with the SGD trainer's runtime,
guard and ledger.

Re-pinned for the ANS lane rule that buys lanes at 1/16 of the coded
bytes and keeps 64 rows from 2**12 symbols: the ``autotune-smoke`` ledger
alone moved, because its K-FAC layers' frames are the only ones here
large enough to gain lanes.  Leaf by leaf against the same run at
f3f76be, only the per-layer wire bytes, ``cr`` / ``mean_cr``, the byte,
ratio and ``comm.seconds`` metrics, sim time, the ``kfac_allgather`` span
times and the autotuner's fitted ``alpha`` / ``beta`` / predictions
moved; losses, steps, verdicts and both autotune decisions are
identical.  Every other ledger, configuration and document held without
a re-pin, under ``PYTHONHASHSEED=1`` and with two BLAS threads too.

Re-pinned for the defaulted parameters no run set, which became the
constants every run passes (DESIGN.md decision 27(g)): a compressor's
``relative`` is now a class constant, not an attribute of the instance,
so it left ``manifest.compressor.params`` (and the ``inner`` compressor's)
of all six ledgers and all six configurations.  Each was recorded at
4b93212 and at the change; with exactly that key stripped from the older
manifest, the two are equal line for line, and every step and final line
is byte-identical (EXPERIMENTS.md "PR 35").  No result document moved.

``kfac-every-collaborator`` was added when the trainer's collaborators
became objects built from the trainer and the ledger began folding them
through one section table: no committed ledger runs autotune together
with xray or with the overlapped runtime.  Its digest was captured at
c208b92, before that change, by this method, under the default hash seed
and again under ``PYTHONHASHSEED=1`` with two BLAS threads (equal).

Re-pinned, with the six ledgers, when ANS frames of at most 2**14
symbols began to carry their symbol counts instead of their quantised
frequencies (DESIGN.md decision 19(h)): four configurations and sixteen
documents moved; the three ``kfac-guard-remediates-*`` (Huffman) and the
two ``overlap`` documents did not.  Leaf by leaf against the same runs
at d2357ff: wire bytes, ``cr`` / ``mean_cr``, the byte and ratio
metrics, sim time, the overlap split, span and xray times, fleet goodput
and the autotuner's fitted ``alpha`` / ``beta`` / predictions moved;
step 4 of ``smoke`` and ``xray-smoke`` records 30 ``kfac_allgather``
spans where it recorded 27 (three 0.01 us slivers on ranks 1-3 whose
transfers now end elsewhere against the compute).  Losses, steps,
verdict kinds, remediations, autotune decisions and restart counts are
identical, with one byte-driven exception: the seeded corruption of the
chaos runs draws its flipped bit positions over the payload, so shorter
payloads move that draw stream — ``chaos-smoke`` detects 285 corruptions
where it detected 286, and ``chaos-smoke-ci-shape``'s faulted loss moves
from 0.87247163 to 0.87247181.
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
from repro.runtime import ComputeModel, StreamRuntime
from repro.train import ClassificationTask

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


class _ToyBuckets(StreamRuntime):
    """Toy-scale buckets: the proxy's gradient fills several of them, as
    a real model's fills several of the 4 MiB default."""

    bucket_bytes = 2048


def _runtime(cluster, schedule):
    if schedule == "none":
        return None
    return _ToyBuckets(
        cluster, overlap=schedule == "overlapped", compute=ComputeModel(train_flops=5e7)
    )


def _record_blocking_xray(out):
    assert main(["record", "--preset", "smoke", "--xray", "--no-overlap", "--out", str(out)]) == 0


def _record_every_collaborator(out):
    """The ``autotuned`` run on the overlapped runtime with xray: the one
    configuration whose ledger folds the runtime, guard, autotune and
    xray sections together."""
    from dataclasses import replace

    from repro.scenarios import SCENARIOS, run

    run(replace(SCENARIOS["autotune"]["autotuned"], schedule="overlapped", xray=True), out)


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


CONFIGURATIONS = {
    "kfac-blocking-guard-xray": _record_blocking_xray,
    "kfac-every-collaborator": _record_every_collaborator,
    "kfac-reliable-faults-none": _kfac_reliable_channel("none"),
    "kfac-reliable-faults-overlapped": _kfac_reliable_channel("overlapped"),
    "kfac-guard-remediates-none": _kfac_guard_remediates("none"),
    "kfac-guard-remediates-blocking": _kfac_guard_remediates("blocking"),
    "kfac-guard-remediates-overlapped": _kfac_guard_remediates("overlapped"),
}

#: Ledger digests of CONFIGURATIONS (see the module docstring for their provenance).
PINNED = {
    "kfac-blocking-guard-xray": "c4f0bffc263841b81c748d45f0ec95ff8134b8193926e4bd45a13a2e1f567c9d",
    "kfac-every-collaborator": "303a1d6d178201f4aa689b5b6bac536e57c5a8cd9b589448629b4abcbe3c88e6",
    "kfac-reliable-faults-none": "284b002c87bb1ac04e45f9fc1eacbb8c7a81ad1f8712b885fab5bc8235144633",
    "kfac-reliable-faults-overlapped": "f87b8e25f9a44d4c56b8cebaa4c4d88c87c3747ae9ff804899fef8e41352255f",
    "kfac-guard-remediates-none": "314f6fa339bac72efd65e29c7264a15dabf0b641a066652d90f697d3b10cde7f",
    "kfac-guard-remediates-blocking": "9ac6a5cad59df033fbe1c32acff150fac783ef12a5d7c0080f0ccef503e50e4f",
    "kfac-guard-remediates-overlapped": "30b2d2285d9bfae7ca3f478d66f1d6f4a22a5a70ec34a0eeb2dde97366ba104f",
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
    "chaos-corruption": "361de107712368533917bbf3e0564e653075c03ec0ca82629b081112a5810aa3",
    "chaos-corruption-ci-shape": "b4960905b4bce1b542ae8f502f18c1dee2f81e7b748ec48bbb1465eae49864ea",
    "chaos-degraded-link": "a91f24c927dd1da783b011f0f4f0d3c780e4b78295e16f904d2f30f3f91816db",
    "chaos-degraded-link-ci-shape": "0dcebed4400e828bd34b7e47269c9c6b9c5ea35d843c38a17abcefca647dc1d7",
    "chaos-mixed": "88728ddc16060ed45b0c3d17de4bf8103c1754a1d5d0fc258a6b5cd9ce5d3543",
    "chaos-mixed-ci-shape": "7d83751e7e896f09202143d426331bfa56fbfdcb81cfdf1dfbf9cd8755a1fe91",
    "chaos-rank-loss": "06d7cd4cd92129296d5bcb32692de826849511924ae980906ffd350adaddaf48",
    "chaos-rank-loss-ci-shape": "36e6c30e1e600490b98796a70efadfb8a94b8236f0fce1149f7101081f3ce6d9",
    "chaos-smoke": "f0183871cbd68d251f54da6204544c27960810acc2890c105e8425c3f149e72f",
    "chaos-smoke-ci-shape": "2c84c11d5ec2edfdac3a619cee8aad576bc28143a9c67863df1744d8cdae8c8c",
    "chaos-stragglers": "b6ed33e0379b5e390f51db3c37540029581633e9f3b72ea2783a30e820a8b9be",
    "chaos-stragglers-ci-shape": "74f2e89adf692201869049d1fab98f6d7f2059a6fb2b06c20dbb593d4d8dbba8",
    "fleet-chaos-smoke": "4d62a78ebb52ee602ff2d36cccdaab156b965552ccda801b497618561c3ac024",
    "fleet-smoke": "769ccae2ffaaa041abdbd588ae5fb7e398452e51d7a73cad5ec7e1fa54b1bc98",
    "fleet-storage-smoke": "2cc48ae9e0589bd4213ef8c8e6f5d9bf04935f1e509d1e4a8d781f8e4d3cbe10",
    "guard": "c837c2fb165cc694125ac66c3d6b0d1bd90ce4e62d38e3abd89f37ddd572a712",
    "overlap-ranks4-iters3": "c59d6ce14e39333aae8ce7a1385f1895a2d29628228641714ccd8b06f5dae792",
    "overlap-ranks8": "f06a7d95593aa9a09443497e3dfa30a94a77ef8946c8f0af8f2cef5b3cfe7ed6",
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_result_document(name, tmp_path, capsys):
    path = tmp_path / "result.json"
    assert main([*DOCUMENTS[name], "--json", str(path)]) == 0
    capsys.readouterr()
    text = json.dumps(json.loads(path.read_text()), sort_keys=True)
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
