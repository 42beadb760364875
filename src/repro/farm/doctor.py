"""Store diagnostics without running a sweep.

``eric sweep --compact`` can *drop* dead weight from a result store,
but an operator first wants to know what is in there: how many live
records, how many superseded duplicates, whether any lines are corrupt
or were written under a different :data:`~repro.farm.store.STORE_SCHEMA`,
and whether a distributed run left per-shard stores (and under which
:data:`~repro.farm.spec.KEY_SCHEMA` their specs were planned).  This
module answers all of that by *reading* — it never simulates, rewrites,
or deletes anything; ``eric doctor --store DIR`` is the CLI wrapper and
CI runs it after every sharded smoke sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.farm.coordinator import SHARD_SPEC_FILENAME
from repro.farm.spec import KEY_SCHEMA, job_key
from repro.farm.store import STORE_SCHEMA, FarmRecord, ResultStore


@dataclass(frozen=True)
class ShardLeftover:
    """One per-shard directory found under the store's shard root."""

    path: str
    #: parseable current-schema records in the shard's JSONL (0 when the
    #: store file is missing — e.g. a spec written but never executed)
    records: int
    #: KEY_SCHEMA the shard spec was planned under; None when the
    #: directory carries no readable shard.json
    spec_key_schema: int | None
    #: jobs the spec carries; None without a readable spec
    spec_jobs: int | None

    @property
    def drifted(self) -> bool:
        """The spec was planned by a different code version — running
        it would address jobs under the wrong key schema."""
        return (self.spec_key_schema is not None
                and self.spec_key_schema != KEY_SCHEMA)


@dataclass(frozen=True)
class StoreDiagnosis:
    """Everything ``eric doctor`` reports about one store directory."""

    path: str
    exists: bool
    #: non-blank lines in the JSONL
    total_lines: int
    #: distinct keys that would be served (last record per key)
    live_records: int
    #: valid current-schema lines shadowed by a later line for the
    #: same key (what ``--compact`` would drop)
    superseded: int
    #: lines that are not valid JSON objects / not valid records
    corrupt: int
    #: valid records written under a different STORE_SCHEMA
    foreign_schema: int
    #: line count per declared schema version (valid records only)
    schema_counts: dict[int, int]
    shard_leftovers: tuple[ShardLeftover, ...]

    @property
    def drifted_shards(self) -> tuple[ShardLeftover, ...]:
        return tuple(s for s in self.shard_leftovers if s.drifted)

    @property
    def healthy(self) -> bool:
        """Nothing needs operator attention: no corrupt lines, no
        foreign-schema records, no drifted shard specs.  Superseded
        duplicates and clean shard leftovers are informational —
        normal residue of ``--force`` re-measures and sharded runs."""
        return (not self.corrupt and not self.foreign_schema
                and not self.drifted_shards)

    def describe(self) -> str:
        lines = [f"store: {self.path}"]
        if not self.exists:
            lines.append("  no results.jsonl — nothing measured yet")
        else:
            lines.append(
                f"  {self.total_lines} line(s): {self.live_records} "
                f"live record(s), {self.superseded} superseded, "
                f"{self.corrupt} corrupt, {self.foreign_schema} "
                f"foreign-schema")
            for schema in sorted(self.schema_counts):
                marker = ("" if schema == STORE_SCHEMA
                          else f" (current is {STORE_SCHEMA})")
                lines.append(f"  schema {schema}: "
                             f"{self.schema_counts[schema]} "
                             f"record(s){marker}")
        lines.append(f"  code: KEY_SCHEMA={KEY_SCHEMA} "
                     f"STORE_SCHEMA={STORE_SCHEMA}")
        if self.shard_leftovers:
            lines.append(f"  {len(self.shard_leftovers)} shard "
                         f"dir(s) left over:")
            for shard in self.shard_leftovers:
                spec = ("no shard.json" if shard.spec_key_schema is None
                        else f"{shard.spec_jobs} job(s), "
                             f"KEY_SCHEMA={shard.spec_key_schema}"
                             + (" [DRIFTED]" if shard.drifted else ""))
                lines.append(f"    {shard.path}: {shard.records} "
                             f"record(s), {spec}")
        if self.superseded:
            lines.append("  hint: `eric sweep --compact` drops "
                         "superseded lines")
        if self.corrupt or self.foreign_schema:
            lines.append("  hint: corrupt/foreign lines are skipped at "
                         "load; `eric sweep --compact` rewrites "
                         "without them")
        lines.append("  verdict: " + ("healthy" if self.healthy
                                      else "NEEDS ATTENTION"))
        return "\n".join(lines)


@dataclass(frozen=True)
class FingerprintAudit:
    """``eric doctor --fingerprint``: live records vs. the current
    tree's timing-model fingerprint and key derivation."""

    path: str
    exists: bool
    #: the tree's current :func:`~repro.statics.fingerprint.model_fingerprint`
    current: str
    live_records: int
    matching: int
    #: live records whose recorded fingerprint differs from ``current``
    #: — their measurements came from a different timing model
    drifted: int
    #: live records without the column (pre-schema-3 migrations);
    #: reported, not fatal
    missing: int
    #: fingerprint -> live-record count for every drifted fingerprint
    drifted_fingerprints: dict[str, int]
    #: live records whose own fields (and own fingerprint) no longer
    #: derive their key — addressed under another ``KEY_SCHEMA``, so no
    #: current job key can reach them; records without a fingerprint
    #: cannot be re-derived and count as ``missing`` only
    orphaned: int = 0

    @property
    def healthy(self) -> bool:
        return not self.drifted and not self.orphaned

    def describe(self) -> str:
        lines = [f"fingerprint: current model is {self.current[:16]}..."]
        if not self.exists:
            lines.append("  no results.jsonl — nothing to audit")
        else:
            lines.append(
                f"  {self.live_records} live record(s): "
                f"{self.matching} matching, {self.drifted} drifted, "
                f"{self.missing} without a fingerprint, {self.orphaned} "
                f"orphaned")
            for fp in sorted(self.drifted_fingerprints):
                lines.append(f"  drifted {fp[:16]}...: "
                             f"{self.drifted_fingerprints[fp]} "
                             f"record(s)")
        if self.drifted:
            lines.append("  hint: drifted records were measured by a "
                         "different timing model; their keys no "
                         "longer match (KEY_SCHEMA embeds the "
                         "fingerprint) — re-run the sweep and "
                         "`eric sweep --compact`")
        if self.orphaned:
            lines.append(f"  hint: orphaned records were keyed under a "
                         f"KEY_SCHEMA other than {KEY_SCHEMA}, so no "
                         f"current job reaches them — regenerate the "
                         f"store")
        lines.append("  verdict: " + ("healthy" if self.healthy
                                      else "NEEDS ATTENTION"))
        return "\n".join(lines)


def record_key(record: FarmRecord) -> str:
    """The job key the current derivation gives ``record``'s own
    fields, fingerprint included."""
    return job_key(model=record.model_fingerprint,
                   source_digest=record.source_digest,
                   config=record.config, params=record.params,
                   simulate=record.simulate, analyze=record.analyze,
                   repeats=record.repeats)


def audit_fingerprints(root: str | Path) -> FingerprintAudit:
    """Compare every live record's recorded ``model_fingerprint``
    against the current tree's, and re-derive its key from its own
    fields.  Read-only, like everything here."""
    from repro.statics.fingerprint import model_fingerprint
    current = model_fingerprint()
    path = Path(root) / ResultStore.filename
    found = ResultStore.scan(path)
    matching = missing = orphaned = 0
    drifted: dict[str, int] = {}
    for record in found.records.values():
        fingerprint = record.model_fingerprint
        if fingerprint is None:
            missing += 1
            continue
        if fingerprint == current:
            matching += 1
        else:
            drifted[fingerprint] = drifted.get(fingerprint, 0) + 1
        if record_key(record) != record.key:
            orphaned += 1
    return FingerprintAudit(
        path=str(path), exists=found.exists, current=current,
        live_records=len(found.records), matching=matching,
        drifted=sum(drifted.values()), missing=missing,
        drifted_fingerprints=drifted, orphaned=orphaned)


def _scan_shard_dir(shard_dir: Path) -> ShardLeftover:
    spec_schema = spec_jobs = None
    spec_path = shard_dir / SHARD_SPEC_FILENAME
    if spec_path.is_file():
        try:
            spec = json.loads(spec_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            spec = None  # unreadable spec == no spec, still reported
        if isinstance(spec, dict):  # valid JSON that is not an object
            schema = spec.get("key_schema")  # counts as unreadable too
            if isinstance(schema, int) and not isinstance(schema, bool):
                spec_schema = schema
            jobs = spec.get("jobs")
            spec_jobs = len(jobs) if isinstance(jobs, list) else None
    records = ResultStore.scan(shard_dir / ResultStore.filename).valid
    return ShardLeftover(path=str(shard_dir), records=records,
                         spec_key_schema=spec_schema,
                         spec_jobs=spec_jobs)


def diagnose_store(root: str | Path,
                   shard_root: str | Path | None = None) -> StoreDiagnosis:
    """Inspect a result store directory without touching it.

    ``shard_root`` defaults to ``<root>/shards`` — the same convention
    a sharded :class:`~repro.farm.executor.SimulationFarm` writes to.
    """
    root = Path(root)
    path = root / ResultStore.filename
    found = ResultStore.scan(path)
    shards_dir = Path(shard_root) if shard_root is not None \
        else root / "shards"
    leftovers = []
    if shards_dir.is_dir():
        for shard_dir in sorted(shards_dir.iterdir()):
            if shard_dir.is_dir():
                leftovers.append(_scan_shard_dir(shard_dir))
    return StoreDiagnosis(
        path=str(path), exists=found.exists, total_lines=found.total,
        live_records=len(found.records), superseded=found.superseded,
        corrupt=found.corrupt, foreign_schema=found.foreign,
        schema_counts=found.schemas, shard_leftovers=tuple(leftovers))
