"""Per-layer metrics from a traced run's spans.

Scope: unless noted, a metric covers the spans of timed units and is
given per unit (counts are calls per unit, ``*_s`` are seconds of self
time per unit: span time minus the part its traced children cover).
``puf.fabricate_s``, ``farm.store_load_s`` and ``statics.fingerprint_s``
are whole-run totals, set-up included, because that is where those
costs land.  Ratios are taken over the timed units; a layer the workload
never calls reports 0.  ``share.<layer>`` is the layer's self time over
all unit time; ``share.untraced`` is unit time outside every traced span
(the benchmark loop and program code between entry points).
``trace.overhead`` estimates what tracing added to unit time: spans per
unit times the calibrated cost of one wrapper, plus the time spent in
attribute hooks.
"""

from __future__ import annotations

from collections import defaultdict

#: name -> unit, in output order (BENCHMARK.json lists the same names)
PER_LAYER = {
    "puf.readouts": "count",
    "puf.readout_s": "s",
    "puf.key_failure_calls": "count",
    "puf.key_failure_reuse": "ratio",
    "puf.fabricate_s": "s",
    "cc.compiles": "count",
    "cc.compile_s": "s",
    "cc.compile_reuse": "ratio",
    "asm.assembles": "count",
    "asm.assemble_s": "s",
    "policy.opaque_s": "s",
    "core.prepare_s": "s",
    "core.signs": "count",
    "core.sign_s": "s",
    "core.encrypts": "count",
    "core.encrypt_s": "s",
    "core.package_s": "s",
    "hde.processes": "count",
    "hde.process_s": "s",
    "hde.rejects": "count",
    "soc.runs": "count",
    "soc.cold_run_s": "s",
    "soc.warm_run_s": "s",
    "soc.sim_cycles": "cycles",
    "soc.warm_mcyc_per_s": "Mcyc/s",
    "net.static_s": "s",
    "net.dynamic_s": "s",
    "farm.job_self_s": "s",
    "farm.keys": "count",
    "farm.key_s": "s",
    "farm.store_puts": "count",
    "farm.store_put_s": "s",
    "farm.store_gets": "count",
    "farm.store_get_s": "s",
    "farm.store_load_s": "s",
    "farm.hit_ratio": "ratio",
    "service.deploy_self_s": "s",
    "service.enroll_s": "s",
    "service.cache_hit_ratio": "ratio",
    "daemon.submit_s": "s",
    "daemon.journal_reloads": "count",
    "daemon.journal_reload_s": "s",
    "daemon.journal_lines_read": "count",
    "daemon.journal_read_ratio": "ratio",
    "daemon.journal_append_s": "s",
    "daemon.run_self_s": "s",
    "scheduler.measure_s": "s",
    "obs.metrics_dump_s": "s",
    "statics.fingerprint_s": "s",
    "trace.work_per_s": "1/s",
    "trace.unit_s": "s",
    "trace.untraced_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
    "trace.hook_s": "s",
    "trace.overhead": "ratio",
}

#: layers whose share of unit time is reported as ``share.<layer>``
LAYERS = ("puf", "cc", "asm", "policy", "core", "hde", "soc", "net",
          "farm", "service", "daemon", "scheduler", "obs", "statics")
PER_LAYER.update({f"share.{layer}": "ratio"
                  for layer in LAYERS + ("untraced",)})

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, rec, work_per_s: float,
                      span_cost_s: float) -> dict:
    """name -> (value, unit) for every :data:`PER_LAYER` metric;
    ``span_cost_s`` is :meth:`Tracer.calibrate`'s per-call cost."""
    units = max(len(rec.latencies), 1)
    timed = defaultdict(list)
    whole = defaultdict(list)
    for span in tracer.spans:
        whole[span.name].append(span)
        if span.phase == "unit":
            timed[span.name].append(span)

    def count(name):
        return len(timed[name]) / units

    def self_s(name, spans=None):
        spans = timed[name] if spans is None else spans
        return sum(s.self_time() for s in spans) / units

    def total_s(name):
        return sum(s.self_time() for s in whole[name])

    # cold = first run of a program image in this process (set-up runs
    # included: fleet-rollout warms its images there)
    seen = set()
    cold, warm = [], []
    for span in sorted(whole["soc.run"], key=lambda s: s.start):
        image = (span.attrs or {}).get("image")
        is_cold = image not in seen
        seen.add(image)
        if span.phase == "unit":
            (cold if is_cold else warm).append(span)
    warm_cycles = sum((s.attrs or {}).get("cycles", 0) for s in warm)
    warm_s = sum(s.self_time() for s in warm)

    key_failure = [s for s in timed["puf.key_failure"] if s.attrs]
    compiles = [s for s in timed["cc.compile"] if s.attrs]
    farm_runs = [s for s in timed["farm.run"] if s.attrs]
    lookups = [s for s in timed["service.cache"] if s.attrs]
    reloads = [s for s in timed["daemon.journal_reload"] if s.attrs]
    lines = sum(s.attrs["lines"] for s in reloads)

    values = {
        "puf.readouts": count("puf.readout"),
        "puf.readout_s": self_s("puf.readout"),
        "puf.key_failure_calls": count("puf.key_failure"),
        "puf.key_failure_reuse": _ratio(
            len({s.attrs["tuple"] for s in key_failure}), len(key_failure)),
        "puf.fabricate_s": total_s("puf.fabricate"),
        "cc.compiles": count("cc.compile"),
        "cc.compile_s": self_s("cc.compile"),
        "cc.compile_reuse": _ratio(
            len({s.attrs["input"] for s in compiles}), len(compiles)),
        "asm.assembles": count("asm.assemble"),
        "asm.assemble_s": self_s("asm.assemble"),
        "policy.opaque_s": self_s("policy.opaque"),
        "core.prepare_s": self_s("core.prepare"),
        "core.signs": count("core.sign"),
        "core.sign_s": self_s("core.sign"),
        "core.encrypts": count("core.encrypt"),
        "core.encrypt_s": self_s("core.encrypt"),
        "core.package_s": self_s("core.package"),
        "hde.processes": count("hde.process"),
        "hde.process_s": self_s("hde.process"),
        "hde.rejects": sum(not s.ok for s in timed["hde.process"]) / units,
        "soc.runs": count("soc.run"),
        "soc.cold_run_s": self_s("soc.run", cold),
        "soc.warm_run_s": self_s("soc.run", warm),
        "soc.sim_cycles": sum((s.attrs or {}).get("cycles", 0)
                              for s in timed["soc.run"]) / units,
        "soc.warm_mcyc_per_s": _ratio(warm_cycles, warm_s) / 1e6,
        "net.static_s": self_s("net.static"),
        "net.dynamic_s": self_s("net.dynamic"),
        "farm.job_self_s": self_s("farm.job"),
        "farm.keys": count("farm.key"),
        "farm.key_s": self_s("farm.key"),
        "farm.store_puts": count("farm.store_put"),
        "farm.store_put_s": self_s("farm.store_put"),
        "farm.store_gets": count("farm.store_get"),
        "farm.store_get_s": self_s("farm.store_get"),
        "farm.store_load_s": total_s("farm.store_load"),
        "farm.hit_ratio": _ratio(sum(s.attrs["hits"] for s in farm_runs),
                                 sum(s.attrs["results"] for s in farm_runs)),
        "service.deploy_self_s": self_s("service.deploy"),
        "service.enroll_s": self_s("service.enroll"),
        "service.cache_hit_ratio": _ratio(
            sum(s.attrs["hit"] for s in lookups), len(lookups)),
        "daemon.submit_s": self_s("daemon.submit"),
        "daemon.journal_reloads": count("daemon.journal_reload"),
        "daemon.journal_reload_s": self_s("daemon.journal_reload"),
        "daemon.journal_lines_read": lines / units,
        "daemon.journal_read_ratio": _ratio(
            sum(s.attrs["new"] for s in reloads), lines),
        "daemon.journal_append_s": self_s("daemon.journal_append"),
        "daemon.run_self_s": self_s("daemon.run"),
        "scheduler.measure_s": self_s("scheduler.measure"),
        "obs.metrics_dump_s": self_s("obs.metrics_dump"),
        "statics.fingerprint_s": total_s("statics.fingerprint"),
        "trace.work_per_s": work_per_s,
        "trace.unit_s": sum(rec.latencies) / units,
    }
    unit_total = sum(rec.latencies)
    by_layer = defaultdict(float)
    for name, spans in timed.items():
        by_layer[name.split(".")[0]] += sum(s.self_time() for s in spans)
    untraced = max(unit_total - sum(by_layer.values()), 0.0)
    values["trace.untraced_s"] = untraced / units
    for layer in LAYERS:
        values[f"share.{layer}"] = _ratio(by_layer[layer], unit_total)
    values["share.untraced"] = _ratio(untraced, unit_total)
    spans = sum(len(spans) for spans in timed.values())
    values["trace.spans"] = spans / units
    values["trace.span_cost_s"] = span_cost_s
    values["trace.hook_s"] = tracer.hook_s / units
    values["trace.overhead"] = _ratio(spans * span_cost_s + tracer.hook_s,
                                      unit_total)
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}
