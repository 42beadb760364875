"""Timing-model fingerprints.

The farm's job key deliberately excludes code version; before this
module, every committed store record was only valid while humans
remembered to bump ``KEY_SCHEMA`` after timing-model edits.
``model_fingerprint()`` closes that gap mechanically: a SHA-256 over
the normalized ASTs (:mod:`repro.statics.astnorm`) of every module
whose source text determines simulated timing or package content —
the SoC pipeline/cache/predecode stack, the HDE datapath, the default
configuration surface, and the cipher/signature identities.

Properties the tests pin down:

* **byte-stable** — two processes (or two CPython versions in CI)
  computing the fingerprint of the same tree agree;
* **formatting-blind** — comments, docstrings, and reflowing change
  nothing;
* **semantics-sensitive** — editing a latency constant, a cache
  default, or a cipher's keystream derivation changes it.

:func:`~repro.farm.spec.JobSpec.key` folds the fingerprint into every
job key (``KEY_SCHEMA`` >= 3), so a timing edit orphans stale records
the same way a schema bump always has.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.statics.astnorm import source_fingerprint

#: Modules (relative to the ``repro`` package root) whose normalized
#: AST feeds the model fingerprint.  The list is the contract: a module
#: belongs here iff editing it can change simulated cycle counts,
#: package bytes, or key derivation for an unchanged job spec.
FINGERPRINT_MODULES: tuple[str, ...] = (
    # SoC timing: pipeline charges, cache geometry/LRU, the reference
    # interpreter, the superblock compiler, counters, memory faults.
    "soc/pipeline.py",
    "soc/cache.py",
    "soc/cpu.py",
    "soc/counters.py",
    "soc/memory.py",
    "soc/soc.py",
    "soc/predecode.py",
    # HDE datapath widths and walk accounting; key derivation.
    "core/hde.py",
    "core/keys.py",
    "core/signature.py",
    # Default configuration surface (every job key embeds a config the
    # defaults of which live here).
    "core/config.py",
    # Cipher and hash identities; the MAC and KDF behind every derived
    # key and the hashing cipher's keystream; the PRNG behind PUF
    # fabrication and noise and encryption-slot selection.
    "crypto/xor_cipher.py",
    "crypto/sha256.py",
    "crypto/hmac.py",
    "crypto/kdf.py",
    "crypto/prng.py",
    # Protection policies: region resolution and per-region selection
    # determine the encryption map, and the opaque-predicate pass
    # determines the instruction stream itself — both change package
    # bytes and cycle counts for an unchanged job spec.
    "policy/policy.py",
    "policy/opaque.py",
)


def _package_root() -> Path:
    import repro
    return Path(repro.__file__).resolve().parent


@dataclass(frozen=True)
class FingerprintReport:
    """The combined fingerprint plus its per-module contributions."""

    fingerprint: str
    #: module (relative posix path) -> per-module digest
    modules: dict[str, str]

    def to_dict(self) -> dict:
        return {"fingerprint": self.fingerprint,
                "modules": dict(self.modules)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data) -> "FingerprintReport":
        if not isinstance(data, dict) \
                or not isinstance(data.get("fingerprint"), str) \
                or not isinstance(data.get("modules"), dict):
            raise ValueError(
                'not a fingerprint report: expected {"fingerprint": ..., '
                '"modules": {...}}')
        return cls(fingerprint=data["fingerprint"],
                   modules=dict(data["modules"]))

    def explain(self) -> str:
        lines = [f"model fingerprint: {self.fingerprint}"]
        for name in sorted(self.modules):
            lines.append(f"  {self.modules[name][:16]}  {name}")
        return "\n".join(lines)

    def diff(self, old: "FingerprintReport") -> str:
        """Human-readable module-level diff against an older report."""
        if old.fingerprint == self.fingerprint:
            return f"fingerprints match: {self.fingerprint}"
        lines = [f"fingerprint drifted: {old.fingerprint[:16]}... -> "
                 f"{self.fingerprint[:16]}..."]
        names = sorted(set(old.modules) | set(self.modules))
        for name in names:
            was, now = old.modules.get(name), self.modules.get(name)
            if was == now:
                continue
            if was is None:
                lines.append(f"  added    {name} ({now[:16]})")
            elif now is None:
                lines.append(f"  removed  {name} (was {was[:16]})")
            else:
                lines.append(f"  changed  {name} "
                             f"({was[:16]} -> {now[:16]})")
        return "\n".join(lines)


def compute_report(root: str | Path | None = None) -> FingerprintReport:
    """Fingerprint the tree rooted at ``root`` (default: the imported
    ``repro`` package).  Uncached — callers wanting the process-wide
    memo use :func:`fingerprint_report`/:func:`model_fingerprint`."""
    base = Path(root) if root is not None else _package_root()
    modules: dict[str, str] = {}
    for rel in FINGERPRINT_MODULES:
        path = base / rel
        source = path.read_text(encoding="utf-8")
        modules[rel] = source_fingerprint(source, filename=str(path))
    combined = "\n".join(f"{name}:{modules[name]}"
                         for name in sorted(modules))
    from hashlib import sha256
    return FingerprintReport(
        fingerprint=sha256(combined.encode("utf-8")).hexdigest(),
        modules=modules)


_MEMO: FingerprintReport | None = None


def fingerprint_report() -> FingerprintReport:
    """The current tree's report, computed once per process (the
    sources cannot change under a running interpreter in any way the
    simulator would see — modules are imported exactly once)."""
    global _MEMO
    if _MEMO is None:
        _MEMO = compute_report()
    return _MEMO


def model_fingerprint() -> str:
    """The combined digest every new job key and farm record embeds."""
    return fingerprint_report().fingerprint
