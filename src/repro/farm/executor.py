"""SimulationFarm: fan a job matrix out over worker processes or shards.

The MiniC interpreter and the SoC timing loop are pure-Python and
CPU-bound, so the farm uses a :class:`~concurrent.futures.ProcessPoolExecutor`
(threads would serialize on the GIL).  ``jobs=1`` runs inline in the
calling process — the baseline the parallel benchmark compares against,
and the mode unit tests use.  ``shards=N`` instead cuts the pending
jobs into key ranges run as separate worker farms
(:mod:`repro.farm.coordinator`).

Per-job failure isolation: a job that raises records an error outcome
and the rest of the matrix proceeds; failed jobs are never persisted,
so the next run retries them.  Every run is a ``farm.sweep`` span and
every completion a ``farm.job`` event on the farm's
:class:`~repro.obs.trace.Tracer`, and goes to an optional
``progress(done, total, result)`` callback.
"""

from __future__ import annotations

import gc
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from pathlib import Path

import hashlib

from repro.core.compiler_driver import EricCompiler, source_digest
from repro.core.device import Device
from repro.errors import ConfigError, EricError
from repro.farm.coordinator import run_shards
from repro.farm.spec import JobMatrix, JobSpec
from repro.farm.store import FarmRecord, MergeStats, ResultStore
from repro.obs.trace import TraceContext, Tracer
from repro.statics.fingerprint import model_fingerprint

#: Non-target device seeds the dynamic-analysis attack runs on when a
#: job is measured with ``analyze=True``.  A seed that collides with
#: the job's own device would be the target itself (it decrypts and
#: runs the package), so the worker skips it rather than record a
#: bogus "leak".
DYNAMIC_ATTACKER_SEEDS = (1, 2, 3)


def execute_job(spec: JobSpec) -> FarmRecord:
    """Measure one job, start to finish, in this process.

    This is the farm's worker entry point (top-level so it pickles);
    it is also a convenient one-job API for tests and notebooks.
    The record's ``key_failure`` is the exact probability that the
    device's majority-voted PUF key misses its noiseless value at the
    job's environment (:meth:`PufKeyGenerator.failure_probability`),
    read from the job's own device without drawing any noise.
    """
    spec.validate()
    start = time.perf_counter()
    source, expected_stdout = spec.resolve_source()
    params = spec.params
    policy = params.policy
    overlapped = params.overlapped_hde
    if policy is not None and policy.overlap_hde is not None:
        overlapped = policy.overlap_hde
    device = Device(device_seed=params.device_seed,
                    pipeline=params.pipeline_model(),
                    overlapped_hde=overlapped,
                    environment=params.environment,
                    noise_sigma=params.puf_noise_sigma,
                    votes=params.puf_votes,
                    margin_sigmas=params.puf_margin_sigmas)
    compiler = EricCompiler(spec.config, policy=policy)
    target_key = device.enrollment_key()
    key_failure = device.pkg.failure_probability(params.environment)

    baseline = None
    if policy is not None:
        # A policy job's plain baseline is the *unpolicied* compile:
        # overhead_pct then prices the whole protection stack
        # (obfuscation + HDE), not just decryption.
        for _ in range(spec.repeats):
            outcome = compiler.compile_baseline(source, spec.display_name)
            if baseline is None or outcome[1] < baseline[1]:
                baseline = outcome
    best = None
    for _ in range(spec.repeats):
        stage_start = time.perf_counter()
        result = compiler.compile_and_package(source, target_key,
                                              name=spec.display_name)
        elapsed = time.perf_counter() - stage_start
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    package_total_s, result = best
    if baseline is None:
        # Without a policy the plain program is bit-identical to the
        # packaged one, so the packaging run's own compile is the
        # baseline: Fig. 6's overhead is timed within one run.
        plain_program, baseline_s = result.program, result.timings.compile_s
    else:
        plain_program, baseline_s = baseline[0].program, baseline[1]
    signed_bytes = len(result.program.text)
    if spec.config.sign_data:
        signed_bytes += len(result.program.data)

    record = {
        "key": spec.key(),
        "name": spec.display_name,
        "workload": spec.workload,
        "source_digest": source_digest(source),
        "model_fingerprint": model_fingerprint(),
        "config": _config_dict(spec.config),
        "params": asdict(params),
        "simulate": spec.simulate,
        "analyze": spec.analyze,
        "repeats": spec.repeats,
        "plain_size": result.plain_size,
        "package_size": result.package_size,
        "signed_bytes": signed_bytes,
        "baseline_s": baseline_s,
        "package_total_s": package_total_s,
        "compile_s": result.timings.compile_s,
        "signature_s": result.timings.signature_s,
        "encryption_s": result.timings.encryption_s,
        "packaging_s": result.timings.packaging_s,
        "key_failure": key_failure,
        "key_digest": hashlib.sha256(target_key).hexdigest(),
    }

    if spec.simulate:
        plain = device.run_plain(plain_program,
                                 max_instructions=params.max_instructions)
        eric = device.load_and_run(result.package_bytes,
                                   max_instructions=params.max_instructions)
        record["sim_wall_s"] = plain.wall_s + eric.run.wall_s
        record.update(
            plain_cycles=plain.counters.cycles,
            hde_cycles=eric.hde.total_cycles,
            hde_serial_cycles=eric.hde.serial_cycles,
            eric_cycles=eric.total_cycles,
            stdout_ok=(None if expected_stdout is None
                       else eric.run.stdout == expected_stdout),
            plain_run=plain.to_record(),
            eric_run=eric.run.to_record(),
            hde=asdict(eric.hde),
        )

    if spec.analyze:
        from repro.net.dynamic_attacker import attempt_execution
        from repro.net.static_attacker import analyze_blob
        report = analyze_blob(result.package.enc_text)
        plain_report = analyze_blob(plain_program.text)
        dynamic = []
        for seed in DYNAMIC_ATTACKER_SEEDS:
            if seed == params.device_seed:
                continue  # that is the target, not an attacker
            attacker = Device(device_seed=seed)
            outcome = attempt_execution(attacker, result.package_bytes)
            dynamic.append(outcome.to_record(device_seed=seed))
        record["analysis"] = {
            "enc_slots": result.encrypted.enc_map.encrypted_count,
            "decode_fraction": report.valid_decode_fraction,
            "byte_entropy": report.byte_entropy_bits,
            "looks_like_code": report.looks_like_code,
            "plain": {
                "decode_fraction": plain_report.valid_decode_fraction,
                "byte_entropy": plain_report.byte_entropy_bits,
                "looks_like_code": plain_report.looks_like_code,
            },
            "dynamic": dynamic,
        }

    record["wall_s"] = time.perf_counter() - start
    return FarmRecord(**record)


def _config_dict(config) -> dict:
    from repro.core.interface import config_to_dict
    return config_to_dict(config)


#: Stack frames kept in a failed job's error string (innermost last).
ERROR_TRACE_FRAMES = 3


def _format_error(exc: BaseException) -> str:
    """One line: the exception plus its last few stack frames.

    Farm failures travel as strings — across process pools and, for the
    distributed farm, across machines — so the message itself must
    carry enough of the traceback to debug a remote shard.  Kept to one
    line so ``require_ok``'s joined summary stays readable.
    """
    head = traceback.format_exception_only(type(exc), exc)[-1].strip()
    # Simulator faults carry the partial counters at the point of death
    # (IllegalInstruction and ExecutionLimitExceeded both attach them):
    # a remote shard's one-liner can then say *where* and *how far in*.
    counters = getattr(exc, "counters", None)
    if counters is not None:
        pc = getattr(exc, "pc", None)
        where = f" pc={pc:#x}" if isinstance(pc, int) else ""
        head += (f" [partial: cycles={counters.cycles}"
                 f" instret={counters.instret}{where}]")
    frames = traceback.extract_tb(exc.__traceback__)[-ERROR_TRACE_FRAMES:]
    if not frames:
        return head
    trail = " <- ".join(f"{Path(f.filename).name}:{f.lineno} in {f.name}"
                        for f in reversed(frames))
    return f"{head} [at {trail}]"


def format_failures(failures, what: str = "job(s)",
                    limit: int | None = None) -> str:
    """Every failed-jobs line: ``"N <what> failed: label: error; ..."``
    over ``(label, error)`` pairs, naming at most ``limit``."""
    lines = [f"{label}: {error}" for label, error in failures[:limit]]
    if limit is not None and len(failures) > limit:
        lines.append(f"... and {len(failures) - limit} more")
    return f"{len(failures)} {what} failed: " + "; ".join(lines)


def _job_span(spec: JobSpec, trace: dict | None):
    """Open a ``farm.job`` span from a cross-process trace payload
    (``{"trace_id", "span_id", "dir"}``): the worker subprocess appends
    to the *same* trace.jsonl as the dispatching farm — whole-line
    appends interleave safely across processes.  None when the payload
    is absent or unusable (tracing must never fail a job)."""
    if not isinstance(trace, dict) or not trace.get("dir"):
        return None
    parent = TraceContext.from_wire(trace)
    if parent is None:
        return None
    try:
        tracer = Tracer(trace["dir"])
        return tracer.start("farm.job", parent=parent,
                            attrs={"program": spec.display_name,
                                   "key": spec.key()[:12]})
    except OSError:
        return None


def _execute_safe(spec: JobSpec, trace: dict | None = None,
                  ) -> tuple[FarmRecord | None, str | None, float]:
    """Worker wrapper: never raises on job errors, returns
    (record, error, wall_s).  ``wall_s`` is timed here, in the process
    that runs the job, so time a pooled job spent queued is not part of
    it.  KeyboardInterrupt/SystemExit still propagate — an interactive
    abort must stop the sweep, not count as a job failure."""
    start = time.perf_counter()
    span = _job_span(spec, trace)
    try:
        record = execute_job(spec)
    except Exception as exc:  # noqa: BLE001 — isolation boundary
        error = _format_error(exc)
        if span is not None:
            span.finish(ok=False, detail=error)
        return None, error, time.perf_counter() - start
    if span is not None:
        if record.sim_cycles is not None:
            span.attrs.update(
                sim_cycles=record.sim_cycles,
                instructions_retired=record.instructions_retired)
        span.finish()
    return record, None, time.perf_counter() - start


@dataclass(frozen=True)
class FarmJobResult:
    """One matrix slot's outcome, in submission order."""

    spec: JobSpec
    record: FarmRecord | None
    error: str | None
    from_store: bool
    #: seconds the job ran, timed in the process that ran it (never its
    #: wait in a pool queue); 0.0 for store hits and shared slots
    wall_s: float
    #: True when this slot shares the outcome of an identical job
    #: earlier in the same matrix (deduplicated, not executed)
    shared: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def kind(self) -> str:
        """What every count reads: ``"hit"`` (from a store),
        ``"shared"`` (a duplicate's copy of another slot's outcome),
        ``"failed"`` or ``"executed"``, tested in that order."""
        if self.from_store:
            return "hit"
        if self.shared:
            return "shared"
        return "executed" if self.error is None else "failed"


@dataclass(frozen=True)
class FarmReport:
    """Aggregate of one farm run over a matrix."""

    results: tuple[FarmJobResult, ...]
    wall_s: float
    jobs: int
    store_path: str | None
    #: the farm's *configured* shard count (like ``jobs``, this reports
    #: configuration, not how many shards a possibly-warm run actually
    #: dispatched); 0 for an unsharded run
    shards: int = 0

    @property
    def records(self) -> tuple[FarmRecord, ...]:
        """Successful records, aligned with matrix submission order."""
        return tuple(r.record for r in self.results if r.record is not None)

    @property
    def failures(self) -> tuple[FarmJobResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    @property
    def hits(self) -> int:
        """Jobs served straight from the result store."""
        return sum(1 for r in self.results if r.kind == "hit")

    @property
    def executed(self) -> int:
        """Jobs this run actually measured (compiled and, for
        simulate=True specs, simulated)."""
        return sum(1 for r in self.results if r.kind == "executed")

    @property
    def hit_rate(self) -> float:
        return self.hits / len(self.results) if self.results else 0.0

    @property
    def total_eric_cycles(self) -> int:
        """Cycles across *simulated* records only.

        ``simulate=False`` records carry ``eric_cycles is None`` — never
        measured, which is not the same thing as a measured 0 — and are
        excluded from the sum rather than conflated with zero (the same
        distinction :meth:`FarmRecord.overhead_pct` draws).
        """
        return sum(r.eric_cycles for r in self.records
                   if r.eric_cycles is not None)

    # -- interpreter profiling (aggregated over simulated records) --------

    @property
    def sim_cycles(self) -> int:
        """Simulated cycles across records carrying profiling data."""
        return sum(r.sim_cycles for r in self.records
                   if r.sim_cycles is not None and r.sim_wall_s)

    @property
    def sim_wall_s(self) -> float:
        """Interpreter wall seconds behind those cycles (whichever
        machine originally measured each record)."""
        return sum(r.sim_wall_s for r in self.records
                   if r.sim_cycles is not None and r.sim_wall_s)

    @property
    def sim_cycles_per_sec(self) -> float | None:
        """Aggregate interpreter throughput; None when no record
        carries profiling data (simulate=False, or pre-profiling
        store records)."""
        wall = self.sim_wall_s
        if not wall:
            return None
        return self.sim_cycles / wall

    def profile_summary(self) -> str:
        """One line of interpreter-throughput accounting."""
        rate = self.sim_cycles_per_sec
        if rate is None:
            return "profile: no simulated records with profiling data"
        return (f"profile: {self.sim_cycles} simulated cycle(s) in "
                f"{self.sim_wall_s:.3f} s of interpreter time "
                f"({rate / 1e6:.2f} Mcycles/s)")

    def require_ok(self) -> None:
        if self.failures:
            raise EricError(format_failures(
                [(f.spec.display_name, f.error) for f in self.failures],
                "farm job(s)"))

    def summary(self) -> str:
        sharding = f", shards={self.shards}" if self.shards else ""
        return (f"farm: {len(self.results)} jobs -> {self.hits} store "
                f"hits, {self.executed} executed, {len(self.failures)} "
                f"failed in {self.wall_s * 1e3:.1f} ms "
                f"(hit rate {self.hit_rate:.0%}, jobs={self.jobs}"
                f"{sharding})")

    def render(self, stable: bool = False) -> str:
        """Sorted per-job table (stable across runs for stable stores).

        The ``Mcyc/s`` column is interpreter throughput — wall-clock
        derived, so it is a :class:`~repro.eval.report.Volatile` cell
        masked under ``stable=True`` (the same mechanism that keeps
        benchmark ``.txt`` outputs byte-stable)."""
        # local import: repro.eval pulls in the fig modules, which in
        # turn import repro.farm — a cycle at module-import time
        from repro.eval.report import Volatile, format_table

        rows = []
        for result in sorted(
                self.results,
                key=lambda r: (r.spec.display_name,
                               r.spec.config.mode.value,
                               (r.spec.params.policy.name
                                if r.spec.params.policy else ""),
                               r.spec.params.pipeline,
                               r.spec.params.device_seed,
                               r.spec.params.environment.describe(),
                               r.spec.params.overlapped_hde,
                               r.spec.key())):
            spec, record = result.spec, result.record
            status = ("hit" if result.from_store
                      else "ok" if result.ok else "FAILED")
            rate = record.sim_cycles_per_sec if record else None
            rows.append([
                spec.display_name,
                spec.config.mode.value,
                (spec.params.policy.name if spec.params.policy
                 else "-"),
                spec.params.pipeline,
                f"{spec.params.device_seed:#x}",
                spec.params.environment.describe(),
                "overlap" if spec.params.overlapped_hde else "serial",
                record.package_size if record else "-",
                (record.eric_cycles
                 if record and record.eric_cycles is not None else "-"),
                (Volatile(f"{rate / 1e6:.2f}") if rate is not None
                 else "-"),
                status,
            ])
        return format_table(
            ["job", "mode", "policy", "pipeline", "seed", "env", "hde",
             "package B", "ERIC cycles", "Mcyc/s", "status"],
            rows, title="Simulation-farm sweep", stable=stable)


class SimulationFarm:
    """Executes job matrices against a result store.

    Every run serves store hits, lets duplicate keys in one matrix
    share a single measurement, and dispatches the remaining jobs in
    one of three ways: inline (``jobs=1``), over a process pool, or —
    with ``shards`` — as per-shard worker farms whose stores merge back
    into this one (:func:`repro.farm.coordinator.run_shards`).

    Args:
        store: persistent record store; None measures everything
            in-memory (nothing skipped, nothing persisted).  Sharded
            runs require one: merging is how their records come back.
        jobs: worker processes; 1 = inline in this process.  With
            ``shards``, the processes *inside* each shard's farm.
        shards: 0 runs pending jobs here; N > 0 cuts them into at most
            N contiguous key ranges (:class:`~repro.farm.spec.ShardPlan`)
            and runs each as its own worker farm.
        shard_root: where per-shard stores and specs live (default:
            ``<store>/shards``); used only with ``shards``.
        progress: optional ``callback(done, total, result)`` fired once
            per job as outcomes land (store hits first; a sharded run's
            jobs once their shard store has merged).
        tracer: the :class:`~repro.obs.trace.Tracer` the farm emits
            through (a memory-only one if not given): every run is a
            ``farm.sweep`` span, every outcome a ``farm.job`` event
            (with its ``kind``) and every completed shard a
            ``farm.shard`` event.  When it is file-backed, each
            executed job is also a worker-side ``farm.job`` span under
            the sweep, written by the worker *subprocesses* themselves;
            a sharded run writes the sweep's context into every
            shard.json and merges each worker's shard-store trace file
            back next to the records.
    """

    def __init__(self, store: ResultStore | None = None, jobs: int = 1,
                 shards: int = 0, shard_root: str | Path | None = None,
                 progress=None, tracer: Tracer | None = None) -> None:
        if jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if shards < 0:
            raise ConfigError("shards must be non-negative")
        if shards and store is None:
            raise ConfigError(
                "a sharded farm needs a main store to merge shard "
                "results into; pass store= or run with shards=0")
        self.store = store
        self.jobs = jobs
        self.shards = shards
        self.shard_root = None
        if shards:
            self.shard_root = (Path(shard_root) if shard_root is not None
                               else store.root / "shards")
        self.progress = progress
        self.tracer = tracer if tracer is not None else Tracer()
        #: per-shard merge outcomes of the last sharded run (CLI
        #: reporting)
        self.last_merge: tuple[MergeStats, ...] = ()

    def run(self, matrix: JobMatrix | tuple[JobSpec, ...] | list[JobSpec],
            force: bool = False,
            trace_parent: TraceContext | None = None) -> FarmReport:
        """Measure every job of ``matrix``, resuming from the store.

        ``force`` re-measures (and re-persists) even stored keys.
        Duplicate keys inside one matrix execute once and share the
        record.  Results keep matrix submission order.  The whole run
        is a ``farm.sweep`` span parented under ``trace_parent`` (e.g.
        a scheduler batch span).
        """
        specs = (matrix.jobs() if isinstance(matrix, JobMatrix)
                 else tuple(s.validate() for s in matrix))
        if not specs:
            raise ConfigError("nothing to run: empty job list")
        start = time.perf_counter()
        keys = [spec.key() for spec in specs]
        total = len(specs)
        results: list[FarmJobResult | None] = [None] * total
        attrs = {"jobs": total}
        if self.shards:
            attrs["shards"] = self.shards
        span = self.tracer.start("farm.sweep", parent=trace_parent,
                                 attrs=attrs)

        # -- phase 1: serve store hits; dedupe within the matrix ----------
        pending: list[int] = []
        leaders: dict[str, int] = {}
        followers: dict[int, int] = {}
        done = 0
        for i, (spec, key) in enumerate(zip(specs, keys)):
            record = None if (force or self.store is None) \
                else self.store.get(key)
            if record is not None:
                results[i] = FarmJobResult(spec=spec, record=record,
                                           error=None, from_store=True,
                                           wall_s=0.0)
                done += 1
                self._announce(done, total, results[i])
            elif key in leaders:
                followers[i] = leaders[key]
            else:
                leaders[key] = i
                pending.append(i)

        # -- phase 2: dispatch the rest -----------------------------------
        # trace context crosses into worker processes only when their
        # spans have a file to land in
        wire = (span.context.to_wire() if self.tracer.path is not None
                else None)
        if self.shards:
            finished, self.last_merge = run_shards(
                self.store, specs, pending, shards=self.shards,
                shard_root=self.shard_root, jobs=self.jobs, force=force,
                tracer=self.tracer, trace=wire)
        else:
            trace = None if wire is None else {
                **wire, "dir": str(self.tracer.path.parent)}
            finished = self._execute(specs, pending, trace)
        for i, record, error, wall_s, from_store in finished:
            if record is not None and self.store is not None \
                    and not self.shards:  # shard records arrive merged
                self.store.put(record)
            results[i] = FarmJobResult(spec=specs[i], record=record,
                                       error=error, from_store=from_store,
                                       wall_s=wall_s)
            done += 1
            self._announce(done, total, results[i])

        # -- phase 3: duplicates share the executing slot's outcome -------
        for i, leader in followers.items():
            outcome = results[leader]
            results[i] = FarmJobResult(spec=specs[i], record=outcome.record,
                                       error=outcome.error,
                                       from_store=outcome.from_store,
                                       wall_s=0.0, shared=True)
            done += 1
            self._announce(done, total, results[i])

        report = FarmReport(
            results=tuple(results), wall_s=time.perf_counter() - start,
            jobs=self.jobs,
            store_path=str(self.store.path) if self.store else None,
            shards=self.shards)
        detail = (f"{report.hits} hits / {report.executed} executed / "
                  f"{len(report.failures)} failed")
        if self.shards:
            detail += f" across {len(self.last_merge)} shard(s)"
        span.finish(ok=not report.failures, detail=detail)
        return report

    def _execute(self, specs, pending, trace: dict | None = None):
        """Run pending jobs here or over a process pool; yield
        (index, record, error, wall_s, from_store) as jobs finish."""
        if not pending:
            return
        if self.jobs == 1 or len(pending) == 1:
            for i in pending:
                yield (i, *_execute_safe(specs[i], trace), False)
            return
        workers = min(self.jobs, len(pending))
        # a forked worker freezes the heap it inherits, so its own
        # garbage collections never traverse (and copy on write) the
        # parent's objects: in a large parent one full collection over
        # them costs a good share of a short job
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=gc.freeze) as pool:
            submitted = {pool.submit(_execute_safe, specs[i], trace): i
                         for i in pending}
            outstanding = set(submitted)
            while outstanding:
                finished, outstanding = wait(outstanding,
                                             return_when=FIRST_COMPLETED)
                for future in finished:
                    try:
                        record, error, wall_s = future.result()
                    except Exception as exc:  # pool/pickle failure
                        record, error, wall_s = None, (
                            f"{type(exc).__name__}: {exc}"), 0.0
                    yield submitted[future], record, error, wall_s, False

    def _announce(self, done: int, total: int,
                  result: FarmJobResult) -> None:
        kind = result.kind
        detail = {"hit": "store hit", "failed": result.error}.get(kind, kind)
        if kind == "executed" and self.shards:
            detail = "merged from shard"
        self.tracer.event("farm.job", result.wall_s, ok=result.ok,
                          detail=detail,
                          attrs={"program": result.spec.display_name,
                                 "kind": kind})
        if self.progress is not None:
            try:
                self.progress(done, total, result)
            except Exception:
                pass  # progress hooks must never break a sweep
