"""Trace context across process boundaries: pool, shards, daemon.

These are the acceptance tests for end-to-end tracing: every layer of
a real run — daemon request, scheduler batch, farm sweep, worker
subprocess, job — must land in ONE connected tree per request, even
when the spans were written by different processes into different
files and merged back afterwards.
"""

import asyncio

from repro.core.config import EncryptionMode, EricConfig
from repro.farm import JobMatrix, JobSpec, ResultStore, SimulationFarm
from repro.obs.metrics import METRICS
from repro.obs.trace import Tracer, build_trees, read_trace
from repro.service.daemon import JournalStore, ServeDaemon, submit_fleets

HELLO = 'int main() { print_int(41); print_char(10); return 0; }\n'
GOODBYE = 'int main() { print_int(13); print_char(10); return 0; }\n'

#: packaging-only jobs: fast enough to fan out in tests
MATRIX = JobMatrix(programs=(("hello", HELLO), ("goodbye", GOODBYE)),
                   simulate=False)


def one_connected_tree(root):
    spans, skipped = read_trace(root)
    assert skipped == 0
    trees = build_trees(spans.values())
    assert len(trees) == 1, [t.trace_id for t in trees]
    (tree,) = trees
    assert tree.connected, f"roots={tree.roots} orphans={tree.orphans}"
    return tree


def names(tree):
    return sorted(span.name for span in tree.spans)


class TestPoolPropagation:
    def test_subprocess_jobs_join_the_sweep_trace(self, tmp_path):
        store = ResultStore(tmp_path)
        farm = SimulationFarm(store, jobs=2, tracer=Tracer(store.root))
        farm.run(MATRIX).require_ok()
        tree = one_connected_tree(store.root)
        assert names(tree) == ["farm.job", "farm.job", "farm.sweep"]
        # pool workers parent their job spans under the sweep
        (sweep,) = tree.roots
        assert sweep.name == "farm.sweep"
        assert all(span.finished and span.ok for span in tree.spans)


class TestShardPropagation:
    def test_merged_shard_traces_reconstruct_one_tree(self, tmp_path):
        store = ResultStore(tmp_path)
        farm = SimulationFarm(store, shards=2, tracer=Tracer(store.root))
        matrix = JobMatrix(
            programs=(("hello", HELLO), ("goodbye", GOODBYE)),
            configs=(EricConfig(),
                     EricConfig(mode=EncryptionMode.PARTIAL)),
            simulate=False)
        farm.run(matrix).require_ok()
        tree = one_connected_tree(store.root)
        # sharded sweep -> 2 worker shards -> their sweeps -> jobs
        assert names(tree) == (["farm.job"] * 4 + ["farm.sweep"] * 3
                               + ["worker.shard"] * 2)
        (root,) = tree.roots
        assert root.name == "farm.sweep"
        shard_spans = [s for s in tree.spans if s.name == "worker.shard"]
        assert {s.parent_id for s in shard_spans} == {root.span_id}

    def test_untraced_shard_run_stays_untraced(self, tmp_path):
        store = ResultStore(tmp_path)
        SimulationFarm(store, shards=2).run(MATRIX).require_ok()
        spans, _ = read_trace(store.root)
        assert spans == {}


class TestDaemonPropagation:
    def test_served_request_is_one_connected_trace(self, tmp_path):
        journal = JournalStore(tmp_path / "journal")
        submit_fleets(journal, {"fleets": [
            {"name": "edge",
             "programs": [{"name": "hello", "source": HELLO}],
             "device_seeds": [1, 2]}]})
        daemon = ServeDaemon(journal,
                             store=ResultStore(tmp_path / "store"),
                             tracer=Tracer(journal.root))
        report = asyncio.run(daemon.run(once=True))
        assert report.completed == 1 and report.all_ok
        tree = one_connected_tree(journal.root)
        (root,) = tree.roots
        assert root.name == "daemon.request"
        assert root.attrs["fleet"] == "edge"
        assert "scheduler.batch" in names(tree)
        assert names(tree).count("farm.job") == 2
        # the request span records its terminal state
        assert "done" in root.detail

    def test_two_requests_make_two_disjoint_traces(self, tmp_path):
        journal = JournalStore(tmp_path / "journal")
        submit_fleets(journal, {"fleets": [
            {"name": name,
             "programs": [{"name": "hello", "source": HELLO}],
             "device_seeds": [seed]}
            for name, seed in (("a", 1), ("b", 2))]})
        daemon = ServeDaemon(journal,
                             store=ResultStore(tmp_path / "store"),
                             tracer=Tracer(journal.root))
        asyncio.run(daemon.run(once=True))
        spans, _ = read_trace(journal.root)
        trees = build_trees(spans.values())
        assert len(trees) == 2
        assert all(tree.connected for tree in trees)
        assert sorted(tree.roots[0].attrs["fleet"] for tree in trees) \
            == ["a", "b"]


class TestMetricsFromRealRuns:
    def test_warm_rerun_counts_every_job_as_store_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        farm = SimulationFarm(store)
        farm.run(MATRIX).require_ok()
        before = METRICS.counter("store.hits")
        report = farm.run(MATRIX)
        report.require_ok()
        assert report.hits == len(report.results) == 2
        assert METRICS.counter("store.hits") - before == 2

    def test_one_shard_run_counts_its_job_once(self, tmp_path):
        """A one-key matrix plans one shard, whose worker farm runs in
        this process: it must run with metrics off, or the job would
        count twice."""
        farm = SimulationFarm(ResultStore(tmp_path), shards=2)
        before = METRICS.counter("farm.executed")
        report = farm.run([JobSpec(source=HELLO, name="hello",
                                   simulate=False)])
        report.require_ok()
        assert len(farm.last_merge) == 1
        assert METRICS.counter("farm.executed") - before \
            == report.executed == 1

    def test_sharded_rerun_counts_hits_at_the_coordinator(self, tmp_path):
        store = ResultStore(tmp_path)
        farm = SimulationFarm(store, shards=2)
        farm.run(MATRIX).require_ok()
        before = METRICS.counter("store.hits")
        report = farm.run(MATRIX)
        # shard farms run with metrics off; only the sharded farm's
        # own announcement counts, so no double counting
        assert METRICS.counter("store.hits") - before \
            == report.hits == 2
