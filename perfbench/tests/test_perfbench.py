"""The benchmark's own tests: tiny runs of every workload, the oracle,
and the tracer's install/uninstall and self-time contracts."""

from __future__ import annotations

import json
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import layers, run, tracer, workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class TinySweep(workloads.SweepCold):
    TEMPLATE = (("crc32", "full", "xor-repeating", workloads.HEAVY_POLICY,
                 "csa"),)
    digest_units = 3


class TinyFleet(workloads.FleetRollout):
    FLEET_SIZE = 2
    min_rounds = 2
    digest_units = 2


class TinyDaemon(workloads.DaemonWarm):
    PROGRAMS = ("basicmath", "bitcount", "crc32")
    PREFILL = 4
    PER_ROUND = 2
    digest_units = 2


TINY = {"sweep-cold": TinySweep, "fleet-rollout": TinyFleet,
        "daemon-warm": TinyDaemon}


def tiny_run(name, tmp_path, capsys, trace=0):
    args = Namespace(workload=name, seed=1, seconds=0.0, trace=trace,
                     setup_only=False)
    assert run.run(args, TINY[name], tmp_path, [0.5, 0.5]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) \
        == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] \
        == list(layers.PER_LAYER)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric_with_units(name, tmp_path, capsys):
    lines, result = tiny_run(name, tmp_path, capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("digest: ") for line in lines)
    assert any(line.startswith("probe_s: ") for line in lines)
    assert tracer.installed_wrappers() == []


def test_digest_repeats_for_a_seed(tmp_path, capsys):
    first, _ = tiny_run("fleet-rollout", tmp_path / "a", capsys)
    second, _ = tiny_run("fleet-rollout", tmp_path / "b", capsys)
    assert first[0].startswith("digest: ") and first[0] == second[0]


def test_corrupted_oracle_counts_as_failure(tmp_path, capsys, monkeypatch):
    real = workloads._registry
    monkeypatch.setattr(workloads, "_registry", lambda: {
        name: replace(program, expected_stdout=program.expected_stdout + "!")
        for name, program in real().items()})
    _, result = tiny_run("sweep-cold", tmp_path, capsys)
    # the compile-only job has no console; both simulated jobs fail
    assert result["failed"] == 2 and not result["correct"]


def test_traced_run_restores_entry_points_and_self_time(tmp_path, capsys,
                                                        monkeypatch):
    seen = []
    install = tracer.Tracer.install

    def spy(self):
        install(self)
        seen.append(self)
        assert tracer.installed_wrappers()

    monkeypatch.setattr(tracer.Tracer, "install", spy)
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path / "traces")
    _, result = tiny_run("daemon-warm", tmp_path, capsys, trace=1)
    assert tracer.installed_wrappers() == []
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    (traced,) = seen
    assert traced.spans
    assert min(span.self_time() for span in traced.spans) >= 0
    assert metrics["daemon.run_self_s"]["value"] > 0
    assert metrics["farm.hit_ratio"]["value"] == 1.0
    assert metrics["soc.runs"]["value"] == metrics["cc.compiles"]["value"] \
        == 0
    dumped = (tmp_path / "traces" / "daemon-warm-seed1.jsonl").read_text()
    assert len(dumped.splitlines()) == len(traced.spans)
