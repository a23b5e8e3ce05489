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
    "kfac-blocking-guard-xray": "c33c3218f1a67e8a6444e492488dc673bfbb59ea5a5bc6ee683cf9f21411655f",
    "kfac-every-collaborator": "775d712b3fa831d59bf24f60f658798886b6e6585ccf616b113034793c922075",
    "kfac-reliable-faults-none": "5cfae88f36e2d72366999617bac384765218d6f05bd7c98b5d1e9b04809eacfe",
    "kfac-reliable-faults-overlapped": "73120bfc37e8882744d138faf8f6a806bc1c6871eb5364e02376af1eb0209903",
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
    "chaos-corruption": "c58e5a0b266c846b8eee6bdd62a6e08229a3245d1d6c0ccf013a55a310ba56f7",
    "chaos-corruption-ci-shape": "e4c7df8b46fbdf6520046c455f70044bf319bd89d58578688d7d3dde7c242b0d",
    "chaos-degraded-link": "fcbf7bd8f7721b553f34a293b1a475913873a623ee5d7ffd0eae214b3f7910a6",
    "chaos-degraded-link-ci-shape": "f298ca4c1c3982dc67c2fd72cc671ff44ab4c7d598d248f63a62e4223b1cb7de",
    "chaos-mixed": "3bc90997b9f7ae66a04d56e3b74c000cfe83d087722baabcb54e3b382c8ed3bc",
    "chaos-mixed-ci-shape": "f152c01af57dfac99e0d9aee7bbb5c36df42af7455a2dcb633423dd54175c70d",
    "chaos-rank-loss": "f34112de5419452b0e8f5e46f9c7bbcabbe4944fc36610a021b4adf37b9980a2",
    "chaos-rank-loss-ci-shape": "9d39b7d1bed1c9d2e50fae75cb246ebf3dae5a6256946d1847ff8f400a5d92c0",
    "chaos-smoke": "9065d6ca74b58ad3d37a794b8e754f56d31143cf425f42c535414a4d8f6c02c5",
    "chaos-smoke-ci-shape": "923fb634099e60ab35724d1539467b4644bedf726bd13d0b0f2e26f15cb409eb",
    "chaos-stragglers": "b926e32b31dcfce4cd3cb5d392d6ac177277a898636d6777689884d18fbb8805",
    "chaos-stragglers-ci-shape": "ffad0795912339d23613163a8baab7bab2985f9fc15f027dc42de2d276ed171d",
    "fleet-chaos-smoke": "d0972d476897e775bfa87ff6460ceca25047f8c5468dde40d5cc033ac30f1057",
    "fleet-smoke": "ded4c6e94c4230fd67ef449a7b0e491bc555c075295519e15c58b582724b5675",
    "fleet-storage-smoke": "6fb346e9a214d98da23f0a91e404bcae2b321b102fa1ffc24a3364e3af2de9a6",
    "guard": "2f51c0b40525540ec03f473cfac2ffaf845c720003f7b248641ff7a1d83de0cf",
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
