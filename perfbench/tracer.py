"""Span tracing installed from outside the program, for traced runs.

A traced run wraps the public entry points behind each layer (class
methods, plus module functions that callers re-bind with
``from ... import``) and records one span per call: name, start, end,
parent, the timed unit it belongs to, and a few attributes taken from
the call's arguments or result.  Spans are held in memory; when the run
ends they become the per-layer metrics and are written out as JSON
lines.  An untraced run never calls
:meth:`Tracer.install`, so every entry point stays the program's own
function.

Parent stacks live in a :mod:`contextvars` variable, so each thread and
each asyncio task has its own.  ``loop.run_in_executor`` does not carry
the context into the worker thread, so a span that opens on a worker
thread with an empty stack is parented under the innermost open
coroutine span (the caller awaiting that work).
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import importlib
import inspect
import json
import sys
import threading
import time
import types

_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "perfbench_span_stack", default=())

#: marker attribute set on every installed wrapper
MARKER = "_perfbench_span"


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "phase", "ok",
                 "attrs", "children")

    def __init__(self, name, start, parent, unit, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.phase = phase
        self.ok = True
        self.attrs = None
        self.children = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        if not self.children:
            return self.duration
        covered = 0.0
        cursor = self.start
        for start, end in sorted((max(c.start, self.start),
                                  min(c.end, self.end))
                                 for c in self.children):
            if end <= cursor:
                continue
            covered += end - max(start, cursor)
            cursor = end
        return self.duration - covered


# -- attribute hooks: run after the span's end timestamp ----------------------

def _puf_tuple(tracer, args, kwargs, result, state):
    params = args[0] if args else kwargs["params"]
    return {"tuple": (params.device_seed, params.environment,
                      params.puf_noise_sigma, params.puf_votes,
                      params.puf_margin_sigmas)}


def _compile_input(tracer, args, kwargs, result, state):
    """Source digest plus every option except the display name."""
    source = args[0] if args else kwargs["source"]
    options = {k: v for k, v in kwargs.items() if k not in ("source", "name")}
    return {"input": (hashlib.sha256(source.encode()).hexdigest(),
                      args[2:], tuple(sorted(options.items())))}


def _soc_run(tracer, args, kwargs, result, state):
    program = args[1] if len(args) > 1 else kwargs["program"]
    digest = hashlib.sha256(program.text + program.data
                            + repr((program.text_base, program.data_base,
                                    program.entry)).encode()).digest()
    attrs = {"image": digest}
    if result is not None:
        attrs["cycles"] = result.counters.cycles
    return attrs


def _farm_run(tracer, args, kwargs, result, state):
    if result is None:
        return None
    return {"hits": result.hits, "results": len(result.results)}


def _cache_before(args, kwargs):
    return args[0].stats.hits


def _cache_lookup(tracer, args, kwargs, result, state):
    return {"hit": args[0].stats.hits > state}


def _journal_lines(tracer, args, kwargs, result, state):
    """Lines this reload parsed, and how many were new since the last
    reload of the same file (harness resets included)."""
    path = args[0].path
    try:
        lines = path.read_bytes().count(b"\n")
    except OSError:
        lines = 0
    previous = tracer.journal_lines.get(path, 0)
    tracer.journal_lines[path] = lines
    return {"lines": lines,
            "new": lines - previous if lines >= previous else lines}


#: (span name, module, attribute path, after-hook, before-hook).  The
#: attribute path is "Class.method" or a module-level function name.
TARGETS: tuple = (
    ("puf.readout", "repro.puf.key_generator",
     "PufKeyGenerator.generate", None, None),
    ("puf.fabricate", "repro.puf.arbiter", "PufArray.__init__", None, None),
    ("puf.fabricate", "repro.puf.key_generator",
     "PufKeyGenerator.__init__", None, None),
    ("puf.key_failure", "repro.farm.executor", "_measure_key_failure",
     _puf_tuple, None),
    ("cc.compile", "repro.cc.driver", "compile_source", _compile_input,
     None),
    ("asm.assemble", "repro.asm.assembler", "Assembler.assemble", None,
     None),
    ("policy.opaque", "repro.policy.opaque", "insert_opaque_predicates",
     None, None),
    ("core.prepare", "repro.core.compiler_driver", "EricCompiler.prepare",
     None, None),
    ("core.sign", "repro.core.signature", "compute_signature", None, None),
    ("core.encrypt", "repro.core.encryptor", "encrypt_program", None, None),
    ("core.package", "repro.core.compiler_driver",
     "EricCompiler.package_artifact", None, None),
    ("hde.process", "repro.core.hde", "HardwareDecryptionEngine.process",
     None, None),
    ("soc.run", "repro.soc.soc", "RocketLikeSoC.run", _soc_run, None),
    ("net.static", "repro.net.static_attacker", "analyze_blob", None, None),
    ("net.dynamic", "repro.net.dynamic_attacker", "attempt_execution",
     None, None),
    ("farm.job", "repro.farm.executor", "execute_job", None, None),
    ("farm.run", "repro.farm.executor", "SimulationFarm.run", _farm_run,
     None),
    ("farm.key", "repro.farm.spec", "JobSpec.key", None, None),
    ("farm.store_load", "repro.farm.store", "ResultStore.__init__", None,
     None),
    ("farm.store_get", "repro.farm.store", "ResultStore.get", None, None),
    ("farm.store_put", "repro.farm.store", "ResultStore.put", None, None),
    ("service.deploy", "repro.service.session", "DeploymentSession.deploy",
     None, None),
    ("service.enroll", "repro.core.provisioning",
     "DeviceRegistry.ensure_enrolled", None, None),
    ("service.cache", "repro.service.cache", "ArtifactCache.get_or_build",
     _cache_lookup, _cache_before),
    ("daemon.submit", "repro.service.daemon.client", "submit_fleets", None,
     None),
    ("daemon.run", "repro.service.daemon.daemon", "ServeDaemon.run", None,
     None),
    ("daemon.journal_reload", "repro.service.daemon.journal",
     "JournalStore.reload", _journal_lines, None),
    ("daemon.journal_append", "repro.service.daemon.journal",
     "JournalStore.append", None, None),
    ("scheduler.measure", "repro.service.scheduler",
     "FleetScheduler.measure", None, None),
    ("obs.metrics_dump", "repro.obs.metrics", "MetricsRegistry.dump", None,
     None),
    ("statics.fingerprint", "repro.statics.fingerprint", "compute_report",
     None, None),
)


def resolve(module_name: str, path: str):
    """(owner, attribute name, current value) of one target."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


class Tracer:
    """Records spans from wrapped entry points; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: the timed unit in progress (None outside timed calls)
        self.unit: int | None = None
        #: "setup", "unit" or "harness"; harness spans are dropped
        self.phase = "setup"
        self._installed: list[tuple] = []
        self._open_async: list[Span] = []
        self._lock = threading.Lock()
        #: journal path -> line count at its last reload
        self.journal_lines: dict = {}
        #: seconds spent in after-hooks (tracing cost outside any span)
        self.hook_s = 0.0
        #: hooks that raised (their span keeps ``attrs=None``)
        self.hook_errors = 0
        #: targets install() could not resolve
        self.missing: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; one the program no longer has is listed in
        :attr:`missing` instead (its metrics then read 0)."""
        for name, module, path, after, before in TARGETS:
            try:
                owner, attr, original = resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            wrapper = self._wrap(name, original, after, before)
            self._patch(owner, attr, original, wrapper)
            if inspect.ismodule(owner):
                # callers that did `from module import fn` hold their
                # own reference: re-bind it in every loaded module
                for other in list(sys.modules.values()):
                    if (other is not owner and other is not None
                            and getattr(other, "__name__", "").startswith(
                                "repro")
                            and other.__dict__.get(attr) is original):
                        self._patch(other, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, is_async: bool) -> tuple[Span, object]:
        stack = _STACK.get()
        parent = stack[-1] if stack else None
        if parent is None and \
                threading.current_thread() is not threading.main_thread():
            with self._lock:
                parent = self._open_async[-1] if self._open_async else None
        span = Span(name, time.perf_counter(), parent, self.unit,
                    self.phase)
        token = _STACK.set(stack + (span,))
        if is_async:
            with self._lock:
                self._open_async.append(span)
        return span, token

    def _close(self, span: Span, token, is_async: bool, ok: bool,
               after, args, kwargs, result, state) -> None:
        span.end = time.perf_counter()
        span.ok = ok
        _STACK.reset(token)
        if is_async:
            with self._lock:
                self._open_async.remove(span)
        if after is not None:
            start = time.perf_counter()
            try:
                span.attrs = after(self, args, kwargs,
                                   result if ok else None, state)
            except Exception:  # noqa: BLE001 — never fail the traced call
                self.hook_errors += 1
            self.hook_s += time.perf_counter() - start
        if span.phase != "harness":
            if span.parent is not None:
                span.parent.children.append(span)
            self.spans.append(span)

    def calibrate(self, calls: int = 20_000) -> float:
        """Seconds one wrapper adds to a call, from a no-op function
        called bare and wrapped (the spans are not recorded)."""
        def noop():
            return None

        wrapped = self._wrap("calibrate", noop, None, None)
        phase, self.phase = self.phase, "harness"
        try:
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - start
        finally:
            self.phase = phase
        return max(traced - bare, 0.0) / calls

    def dump(self, path) -> None:
        """Write every recorded span as one JSON line (start-ordered;
        ``parent`` is the parent's line number, or null)."""
        spans = sorted(self.spans, key=lambda span: span.start)
        index = {id(span): i for i, span in enumerate(spans)}
        origin = spans[0].start if spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps({
                    "name": span.name, "unit": span.unit,
                    "phase": span.phase, "ok": span.ok,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "self": span.self_time(),
                    "parent": (index.get(id(span.parent))
                               if span.parent is not None else None),
                }) + "\n")

    def _before(self, before, args, kwargs):
        if before is None:
            return None
        try:
            return before(args, kwargs)
        except Exception:  # noqa: BLE001 — never fail the traced call
            self.hook_errors += 1
            return None

    def _wrap(self, name, fn, after, before):
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                state = tracer._before(before, args, kwargs)
                span, token = tracer._open(name, True)
                ok = False
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    tracer._close(span, token, True, ok, after, args,
                                  kwargs, result, state)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = tracer._before(before, args, kwargs)
                span, token = tracer._open(name, False)
                ok = False
                result = None
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    tracer._close(span, token, False, ok, after, args,
                                  kwargs, result, state)
        setattr(wrapper, MARKER, name)
        return wrapper


def installed_wrappers() -> list[str]:
    """Entry points currently wrapped by a tracer, including re-bound
    module references (empty when nothing is traced)."""
    found = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            members = {"": value}
            if isinstance(value, type) \
                    and value.__module__ == module.__name__:
                members = {f".{name}": member
                           for name, member in vars(value).items()}
            for suffix, member in members.items():
                if isinstance(member, types.FunctionType) \
                        and getattr(member, MARKER, None) is not None:
                    found.append(f"{module.__name__}.{attr}{suffix}")
    return found
