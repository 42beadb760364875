"""Compiled-artifact cache: the compile-once half of fleet deployment.

A :class:`CompiledArtifact` is a pure function of ``(source, config)``
(see :mod:`repro.core.compiler_driver`), so a deployment session can keep
it and bind it to any number of device keys.  The cache is a small LRU
keyed by ``(source digest, program name, config)`` —
:class:`repro.core.config.EricConfig` is a frozen dataclass, hence
hashable as-is — with hit/miss counters so tests and reports can prove
that an N-device rollout compiled exactly once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.compiler_driver import CompiledArtifact
from repro.core.config import EricConfig


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of cache effectiveness counters."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def compiles(self) -> int:
        """Times the MiniC compiler actually ran (one per miss)."""
        return self.misses


class ArtifactCache:
    """LRU of device-independent compiled artifacts."""

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, CompiledArtifact] = OrderedDict()
        self._lookups = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_build(self, source_digest: str, name: str,
                     config: EricConfig, build) -> CompiledArtifact:
        """Return the cached artifact or build (and remember) it.

        A ``build`` that raises leaves no entry, so the next call for
        the same key builds again.
        """
        key = (source_digest, name, config)
        self._lookups += 1
        artifact = self._entries.get(key)
        if artifact is not None:
            self._hits += 1
            self._entries.move_to_end(key)
            return artifact
        artifact = build()
        self._misses += 1
        self._entries[key] = artifact
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1
        return artifact

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(lookups=self._lookups, hits=self._hits,
                          misses=self._misses, evictions=self._evictions,
                          entries=len(self._entries))
