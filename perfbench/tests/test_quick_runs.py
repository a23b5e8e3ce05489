"""Every workload end to end in ``--quick`` mode, each in its own process."""

import json
import shutil
import subprocess
import sys

from conftest import ROOT

# Deterministic outputs that must not move between runs or under tracing.


def test_every_declared_metric_is_emitted(spec, quick_runs):
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload, (plain, again, traced) in quick_runs.items():
        for run, declared in ((plain, end_to_end), (again, end_to_end), (traced, per_layer)):
            assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, workload
            assert {k: v["unit"] for k, v in run["metrics"].items()} == declared, workload
        for name, metric in plain["metrics"].items():
            assert metric["value"] > 0, (workload, name)  # end-to-end metrics are never 0


def test_exact_outputs_repeat_bit_for_bit(quick_runs):
    for workload, (plain, again, traced) in quick_runs.items():
        assert plain["exact"] == again["exact"] == traced["exact"], workload
        assert plain["outputs_sha256"] == again["outputs_sha256"] == traced["outputs_sha256"]
        assert plain["inputs_sha256"] == again["inputs_sha256"] == traced["inputs_sha256"]
        assert (
            plain["metrics"]["compression_ratio"]["value"]
            == again["metrics"]["compression_ratio"]["value"]
        )


def test_hosts_are_fingerprinted(quick_runs):
    host = quick_runs["codec_dense"][0]["host"]
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas", "loadavg_at_start"} <= set(host)
    assert set(host["thread_env"].values()) == {"1"}


def test_layers_show_up_only_where_they_run(quick_runs):
    layer = {w: runs[2]["metrics"] for w, runs in quick_runs.items()}

    def value(workload, name):
        return layer[workload][name]["value"]

    for workload in layer:
        assert value(workload, "encoders.share") > 0
        assert 0.9 <= value(workload, "trainer.accounted_share") <= 1.0 + 1e-9
        assert value(workload, "tracing.unwrapped_targets") == 0
        in_fleet = workload == "fleet_scale"
        assert (value(workload, "checkpoint.share") > 0) == in_fleet
        assert (value(workload, "fleet.fabric_calls") > 0) == in_fleet
        trains = workload in ("kfac_train", "fleet_scale")
        assert (value(workload, "nn.share") > 0) == trains
        assert (value(workload, "sim.time_s") > 0) == trains
    assert value("kfac_train", "runtime.issue_wait_ms_per_step") > 0
    assert value("kfac_train", "observers.overhead_ratio") > 0
    assert value("codec_dense", "encoders.zstd.cr") > 1
    assert value("codec_sparse", "compso.filter_hit_rate") > 0.8 > value(
        "codec_dense", "compso.filter_hit_rate"
    )


def test_last_line_of_stdout_is_the_result(spec):
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "codec_dense", "--seed", "2",
         "--seconds", "0.2", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert not (ROOT / ".perfbench_tmp").exists()


def test_fails_without_the_program(tmp_path, spec):
    """A directory with only BENCHMARK.json and perfbench/: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "codec_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
