"""The persistent, resumable result store.

Farm measurements are append-only JSONL records under a store directory
(``benchmarks/results/farm/`` by convention), one line per completed
job, keyed by the job's content address.  Re-running a matrix loads the
file, serves every already-measured key from disk, and only simulates
the rest — resumability is just "the key is already in the file".

The file follows the append-only log discipline of :mod:`repro.jsonlog`,
with :data:`STORE_SCHEMA` as its schema: a ``--force`` re-measure simply
appends and wins.

The JSONL layout is also the distributed farm's merge format:
concatenating two stores *is* a last-record-wins merge, and
:meth:`ResultStore.merge_from` performs exactly that (treating the
source as the newer writer) when a shard store comes back from a
worker.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path

from repro.jsonlog import AppendLog

#: Record layout version; see repro.jsonlog for the mismatch rule.
#: 2: records grew hde_serial_cycles, key_failure, key_digest, and the
#:    analysis dict grew "plain" and "dynamic" sub-payloads.
#: 3: records grew model_fingerprint (the timing-model digest of the
#:    tree that measured them; see repro.statics.fingerprint).
STORE_SCHEMA = 3

DEFAULT_STORE_DIR = Path("benchmarks") / "results" / "farm"

#: Fields that measure the executing machine's wall clock — the only
#: fields on which two measurements of the same job key may legitimately
#: differ (everything else is a deterministic function of the key).
WALL_CLOCK_FIELDS = frozenset({
    "baseline_s", "package_total_s", "compile_s", "signature_s",
    "encryption_s", "packaging_s", "wall_s", "sim_wall_s",
})


@dataclass(frozen=True)
class FarmRecord:
    """One persisted measurement — everything a figure needs, re-derivable
    from nothing but this record.

    Wall-clock fields (``baseline_s`` … ``wall_s``) are measurements of
    the machine that executed the job; cycle counts, sizes, and analysis
    metrics are deterministic functions of the job key.
    """

    key: str
    name: str
    workload: str | None
    source_digest: str
    config: dict
    params: dict
    simulate: bool
    analyze: bool
    repeats: int

    # -- packaging (always present) --------------------------------------
    plain_size: int
    package_size: int
    signed_bytes: int
    baseline_s: float
    package_total_s: float
    compile_s: float
    signature_s: float
    encryption_s: float
    packaging_s: float

    # -- simulation (None when simulate=False) ---------------------------
    plain_cycles: int | None = None
    hde_cycles: int | None = None
    #: serial-accounting HDE total of the same decryption — equals
    #: ``hde_cycles`` for serial jobs, exceeds it for overlapped ones
    hde_serial_cycles: int | None = None
    eric_cycles: int | None = None
    stdout_ok: bool | None = None
    #: ``RunResult.to_record()`` payloads (exit code, console, counters)
    plain_run: dict | None = None
    eric_run: dict | None = None
    hde: dict | None = None

    # -- analysis (None when analyze=False); carries the static-attacker
    # metrics plus "plain" (same metrics on the unencrypted text) and
    # "dynamic" (attempt_execution outcomes on non-target devices) ------
    analysis: dict | None = None

    # -- PUF key stability (recorded on every job) ------------------------
    #: exact probability that one PKG readout at the job's environment
    #: misses the noiseless key (since KEY_SCHEMA 5; see
    #: :meth:`~repro.puf.key_generator.PufKeyGenerator.failure_probability`)
    key_failure: float | None = None
    #: SHA-256 of the enrollment (PUF-based) key — uniqueness studies
    #: compare digests across device seeds without storing keys raw
    key_digest: str | None = None

    #: timing-model fingerprint of the tree that measured this record
    #: (:func:`repro.statics.fingerprint.model_fingerprint`).  ``eric
    #: doctor --fingerprint`` compares it against the current tree's
    #: digest; None marks a hand-migrated record that predates the
    #: column (reported, not fatal).
    model_fingerprint: str | None = None

    #: host wall seconds the interpreter spent inside the SoC run loop
    #: (plain + ERIC runs); a wall-clock field like ``wall_s``, and the
    #: denominator of :attr:`sim_cycles_per_sec`.  None for records
    #: that predate profiling or carry ``simulate=False``.
    sim_wall_s: float | None = None

    wall_s: float = 0.0
    schema: int = STORE_SCHEMA

    @property
    def overhead_pct(self) -> float:
        """Fig. 7's per-row headline; requires a simulated record."""
        # plain_cycles is None for simulate=False jobs; a stored 0 would
        # be a measured (if degenerate) value and gets its own message
        if self.plain_cycles is None or self.eric_cycles is None:
            raise ValueError(f"record {self.key[:12]} was not simulated")
        if self.plain_cycles == 0:
            raise ValueError(
                f"record {self.key[:12]} measured zero baseline cycles; "
                f"overhead is undefined")
        return 100.0 * (self.eric_cycles / self.plain_cycles - 1.0)

    @property
    def size_increase_pct(self) -> float:
        # plain_size is always measured (never None); zero means an
        # empty program image, for which a ratio is meaningless
        if self.plain_size == 0:
            return 0.0
        return 100.0 * (self.package_size - self.plain_size) / self.plain_size

    # -- interpreter profiling (derived; all None-safe) -------------------

    @property
    def sim_cycles(self) -> int | None:
        """Simulated cycles this job cost the interpreter (baseline
        plus ERIC run); None for simulate=False records."""
        if self.plain_cycles is None or self.eric_cycles is None:
            return None
        return self.plain_cycles + self.eric_cycles

    @property
    def instructions_retired(self) -> int | None:
        """Instructions the interpreter retired across both runs."""
        total = 0
        for run in (self.plain_run, self.eric_run):
            if not isinstance(run, dict):
                return None
            counters = run.get("counters")
            if not isinstance(counters, dict):
                return None
            total += counters.get("instret", 0)
        return total

    @property
    def sim_cycles_per_sec(self) -> float | None:
        """Interpreter throughput for this job — the baseline number
        the ROADMAP's fast-interpreter item must beat.  Wall-clock
        derived, hence volatile across machines."""
        cycles = self.sim_cycles
        if cycles is None or not self.sim_wall_s:
            return None
        return cycles / self.sim_wall_s

    def cache_hit_rates(self) -> dict | None:
        """ERIC-run L1 hit rates, ``{"icache": ..., "dcache": ...}``;
        None when the record was not simulated (or predates them)."""
        if not isinstance(self.eric_run, dict):
            return None
        counters = self.eric_run.get("counters")
        if not isinstance(counters, dict):
            return None
        rates = {}
        for label in ("icache", "dcache"):
            hits = counters.get(f"{label}_hits", 0)
            misses = counters.get(f"{label}_misses", 0)
            total = hits + misses
            rates[label] = hits / total if total else 0.0
        return rates

    @property
    def stdout(self) -> str | None:
        """Simulated console text, when the record was simulated."""
        if self.eric_run is None:
            return None
        return self.eric_run.get("console")

    def output_ok(self, expected: str | None = None) -> bool:
        """Did the simulated run produce the right output?

        Uses the worker-recorded oracle verdict when the measuring job
        had one.  Job keys deliberately ignore how a source was
        provided, so a registry-workload lookup may be served a record
        measured from the same source passed inline — such records
        carry no verdict (``stdout_ok is None``) and the caller's
        ``expected`` text is compared against the stored console
        instead.
        """
        if self.stdout_ok is not None:
            return self.stdout_ok
        if expected is None:
            return True
        return self.stdout == expected

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True,
                          separators=(",", ":"))

    def stable_dict(self) -> dict:
        """The record minus :data:`WALL_CLOCK_FIELDS`: two measurements
        of the same key — whichever machine or shard ran them — compare
        equal here field for field."""
        data = asdict(self)
        for name in WALL_CLOCK_FIELDS:
            data.pop(name, None)
        return data

    @classmethod
    def from_json(cls, line: str) -> "FarmRecord | None":
        """Parse one store line; None for corrupt or schema-mismatched
        records (the caller skips them)."""
        try:
            data = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data) -> "FarmRecord | None":
        """Revive an already-parsed store line; None when it is not a
        current-schema record (the shared log scan parses each line
        once and revives it here)."""
        if not isinstance(data, dict) or data.get("schema") != STORE_SCHEMA:
            return None
        names = {f.name for f in fields(cls)}
        try:
            return cls(**{k: v for k, v in data.items() if k in names})
        except TypeError:
            return None


@dataclass(frozen=True)
class MergeStats:
    """Outcome of one :meth:`ResultStore.merge_from` call."""

    #: records adopted under keys this store did not hold
    added: int
    #: records that overwrote an existing key (last wins: the source is
    #: the newer writer, even when the payloads happen to be identical)
    replaced: int
    #: corrupt or schema-mismatched source lines (counted, never fatal —
    #: a torn final line from a killed worker merges as "one line less")
    skipped: int
    #: valid source records left out by the caller's ``keys`` filter
    ignored: int = 0

    @property
    def merged(self) -> int:
        return self.added + self.replaced

    def describe(self) -> str:
        text = (f"{self.merged} record(s) merged "
                f"({self.added} new, {self.replaced} replaced)")
        if self.skipped:
            text += f", {self.skipped} line(s) skipped"
        if self.ignored:
            text += f", {self.ignored} out-of-plan record(s) ignored"
        return text


class ResultStore(AppendLog[FarmRecord]):
    """Keyed JSONL persistence with last-record-wins load semantics.

    Thread-safe: the farm's completion path may put records from the
    result-collection loop while CLI progress hooks read counts.
    """

    filename = "results.jsonl"
    record_type = FarmRecord
    key = attrgetter("key")
    order = key
    skipped_hint = "run `eric sweep --compact` to drop them"

    def __init__(self, root: str | Path = DEFAULT_STORE_DIR) -> None:
        super().__init__(root)

    def put(self, record: FarmRecord) -> None:
        """Remember and append; the new record wins future lookups."""
        self._append(record)

    def merge_from(self, path: str | Path,
                   keys: "set[str] | frozenset[str] | None" = None
                   ) -> MergeStats:
        """Last-record-wins merge of another store's file into this one.

        ``path`` is a store directory (its ``results.jsonl`` is read) or
        a JSONL file directly — e.g. a per-shard store a worker machine
        shipped back.  The source is treated as the *newer* writer:
        where both stores hold a key, the source's record wins, exactly
        as if its lines had been appended after this store's.  Corrupt
        or schema-mismatched source lines (including the torn final
        line of a killed worker) are counted in the returned
        :class:`MergeStats`, never fatal.  The merged file is rewritten
        atomically (and therefore also compacted).

        ``keys``, when given, restricts the merge to those job keys.
        A sharded farm passes each shard's *planned* key set so a
        reused shard directory cannot resurrect leftover records from
        an earlier run — stale lines outside the plan would otherwise
        win over fresher (e.g. ``--force``-re-measured) main-store
        records.  Records filtered out are counted as ``ignored``.
        """
        source = Path(path)
        if source.is_dir():
            source = source / self.filename
        incoming = self.scan(source, only=keys)
        with self._lock:
            merged = self._reread()
            added = sum(1 for key in incoming.records if key not in merged)
            merged.update(incoming.records)
            self._rewrite(merged)
        return MergeStats(added=added,
                          replaced=len(incoming.records) - added,
                          skipped=incoming.skipped,
                          ignored=incoming.ignored)
