"""Process-wide metrics: counters, gauges, quantile histograms.

One :data:`METRICS` registry per process, fed directly by the stack's
hot paths (the scheduler's coalescer, the farm's result-collection
loop, daemon admission) — instrumentation must never
add a lock-ordering or failure dependency, so every operation is a
single short critical section and never raises on bad input.

Snapshots persist as ``metrics.json`` next to the store or journal they
describe (rewritten atomically by :func:`repro.jsonlog.atomic_rewrite`,
like every other on-disk artifact here), and ``eric metrics DIR``
renders them Prometheus-style.
Counters increment monotonically for the life of the process: a CLI
invocation's dump therefore describes exactly that run.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from pathlib import Path

from repro.jsonlog import atomic_rewrite

METRICS_FILENAME = "metrics.json"
METRICS_SCHEMA = 1

#: Reported histogram quantiles (nearest-rank over the window).
QUANTILES = (0.5, 0.95, 0.99)

#: Observations kept per histogram — quantiles describe the most recent
#: window, bounding memory for arbitrarily long daemon runs.
HISTOGRAM_WINDOW = 4096


def format_duration(seconds: float) -> str:
    """Adaptive duration rendering: milliseconds under 10 s (the
    resolution every per-job line wants), whole seconds above (an
    hour-long sweep as ``3600123.0 ms`` is unreadable)."""
    if seconds < 10.0:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.1f} s"


class _Histogram:
    __slots__ = ("count", "total", "window")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.window: deque[float] = deque(maxlen=HISTOGRAM_WINDOW)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.window.append(value)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained window."""
        ordered = sorted(self.window)
        if not ordered:
            return 0.0
        rank = max(math.ceil(q * len(ordered)), 1)
        return ordered[rank - 1]

    def snapshot(self) -> dict:
        data = {"count": self.count, "sum": self.total}
        for q in QUANTILES:
            data[f"p{int(q * 100)}"] = self.quantile(q)
        return data


class MetricsRegistry:
    """Thread-safe counters, gauges, and histograms, keyed by dotted
    names (``store.hits``, ``telemetry.sink_errors``, …)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # -- writes ------------------------------------------------------------

    def inc(self, name: str, by: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = _Histogram()
            histogram.observe(value)

    # -- reads -------------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def snapshot(self) -> dict:
        """JSON-safe view of everything observed so far."""
        with self._lock:
            return {
                "schema": METRICS_SCHEMA,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {name: h.snapshot()
                               for name, h in self._histograms.items()},
            }

    def reset(self) -> None:
        """Forget everything (tests; never called by serving code)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- persistence -------------------------------------------------------

    def dump(self, root: str | Path) -> Path:
        """Atomically write the snapshot as ``<root>/metrics.json``."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        path = root / METRICS_FILENAME
        atomic_rewrite(path, (json.dumps(self.snapshot(), sort_keys=True,
                                         indent=2) + "\n").encode("utf-8"))
        return path

    def render(self) -> str:
        return render_snapshot(self.snapshot())


#: The process-wide registry every emit site feeds.
METRICS = MetricsRegistry()


def load_metrics(path: str | Path) -> dict:
    """Read a dumped snapshot; ``path`` is a ``metrics.json`` file or a
    directory holding one.  Raises ``ValueError`` on a missing or
    unparsable file (the doctor and ``eric metrics`` surface it)."""
    path = Path(path)
    if path.is_dir():
        path = path / METRICS_FILENAME
    if not path.exists():
        raise ValueError(f"no metrics snapshot at {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"metrics snapshot {path} is corrupt: "
                         f"{exc}") from None
    if not isinstance(data, dict) or data.get("schema") != METRICS_SCHEMA:
        raise ValueError(f"metrics snapshot {path} has unsupported "
                         f"schema {data.get('schema')!r}"
                         if isinstance(data, dict) else
                         f"metrics snapshot {path} is not a JSON object")
    return data


def _prom_name(name: str) -> str:
    cleaned = "".join(c if c.isalnum() else "_" for c in name)
    return f"eric_{cleaned}"


def _prom_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def render_snapshot(snapshot: dict) -> str:
    """Prometheus-style text exposition of a snapshot."""
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} "
                     f"{_prom_value(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("gauges", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        for q in QUANTILES:
            key = f"p{int(q * 100)}"
            lines.append(f'{prom}{{quantile="{q}"}} '
                         f"{repr(float(data.get(key, 0.0)))}")
        lines.append(f"{prom}_sum {repr(float(data.get('sum', 0.0)))}")
        lines.append(f"{prom}_count {int(data.get('count', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")
