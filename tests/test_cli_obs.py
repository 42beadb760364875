"""CLI observability: sweep --trace/--metrics, eric trace/metrics/doctor."""

import json

import pytest

from repro.cli import main
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE_FILENAME, Tracer

SPEC = {
    "programs": [
        {"name": "hello",
         "source": "int main() { print_int(41); return 0; }\n"},
        {"name": "answer",
         "source": "int main() { print_int(42); return 0; }\n"},
    ],
    "simulate": False,
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


class TestSweepTraceMetrics:
    def test_traced_sweep_renders_and_diagnoses(self, spec_file,
                                                tmp_path, capsys):
        store = str(tmp_path / "farm")
        METRICS.reset()  # the dump reads the process-wide registry
        assert main(["sweep", spec_file, "--store", store,
                     "--trace", "--metrics", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert f"trace: {store}/{TRACE_FILENAME}" in out
        assert f"metrics: {store}/metrics.json" in out
        assert "profile:" in out

        assert main(["trace", store]) == 0
        out = capsys.readouterr().out
        assert "farm.sweep" in out and "farm.job" in out
        assert "critical path: farm.sweep -> farm.job" in out

        assert main(["metrics", store]) == 0
        out = capsys.readouterr().out
        assert "eric_farm_executed 2" in out.splitlines()

        assert main(["doctor", "--store", store, "--trace", store]) == 0
        assert "verdict: healthy" in capsys.readouterr().out

    def test_trace_needs_a_store(self, spec_file, capsys):
        assert main(["sweep", spec_file, "--no-store", "--trace"]) == 1
        assert "--trace/--metrics" in capsys.readouterr().err

    def test_trace_id_filter(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "farm")
        main(["sweep", spec_file, "--store", store, "--trace", "--quiet"])
        capsys.readouterr()
        assert main(["trace", store, "--trace-id", "zzzz"]) == 0
        assert "no matching trace" in capsys.readouterr().out


class TestTraceCommandEdges:
    def test_empty_directory(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path)]) == 0
        assert "no traces recorded" in capsys.readouterr().out

    def test_metrics_without_snapshot_is_an_error(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path)]) == 1
        assert "no metrics snapshot" in capsys.readouterr().err


class TestDoctorTrace:
    def test_unfinished_root_fails_doctor(self, tmp_path, capsys):
        tracer = Tracer(tmp_path)
        tracer.start("daemon.request")  # crash: never finished
        assert main(["doctor", "--trace", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "unfinished root" in out
        assert "NEEDS ATTENTION" in out

    def test_empty_trace_dir_is_healthy(self, tmp_path, capsys):
        assert main(["doctor", "--trace", str(tmp_path)]) == 0
        assert "nothing recorded" in capsys.readouterr().out
