"""repro.service — fleet-scale deployment on top of the core flow.

* :mod:`repro.service.session`   — :class:`DeploymentSession`: registry +
  compiler + artifact cache + a tracer for its stage events behind
  ``deploy``, ``deploy_fleet`` and ``package_for``
* :mod:`repro.service.cache`     — thread-safe LRU of device-independent
  compiled artifacts with hit/miss statistics
* :mod:`repro.service.scheduler` — the asyncio service layer:
  :class:`AsyncDeploymentSession` (coroutine session API, single-flight
  compiles) and :class:`FleetScheduler` (many concurrent fleets
  multiplexed over one artifact cache and one farm/store pair)

Every layer observes its stages through one
:class:`~repro.obs.trace.Tracer`, shared down the stack (daemon →
scheduler → session and farm); attach sinks from :mod:`repro.obs.sinks`
with ``tracer.add_sink``.

The split this package rides on lives in
:mod:`repro.core.compiler_driver`: ``prepare()`` (compile + sign +
select, device-independent, cacheable) vs ``package_artifact()``
(encrypt + package under one device key).
"""

from repro.service.cache import ArtifactCache, CacheStats
from repro.service.session import (ChannelFactory, DeploymentSession,
                                   FleetDeploymentReport,
                                   FleetDeviceOutcome, build_fleet_report)

#: Scheduler names resolve lazily (PEP 562): the scheduler module
#: imports asyncio, and importing it eagerly here would pull asyncio
#: into every ``import repro``.
_SCHEDULER_EXPORTS = frozenset({
    "AsyncDeploymentSession", "AsyncSingleFlight", "FleetRequest",
    "FleetScheduler", "FleetServiceReport", "SchedulerReport",
    "load_fleet_specs",
})


def __getattr__(name: str):
    if name in _SCHEDULER_EXPORTS:
        from repro.service import scheduler
        return getattr(scheduler, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArtifactCache",
    "AsyncDeploymentSession",
    "AsyncSingleFlight",
    "CacheStats",
    "ChannelFactory",
    "DeploymentSession",
    "FleetDeploymentReport",
    "FleetDeviceOutcome",
    "FleetRequest",
    "FleetScheduler",
    "FleetServiceReport",
    "SchedulerReport",
    "build_fleet_report",
    "load_fleet_specs",
]
