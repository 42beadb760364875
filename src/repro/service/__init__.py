"""repro.service — fleet-scale deployment on top of the core flow.

* :mod:`repro.service.session`   — :class:`DeploymentSession`: registry +
  compiler + artifact cache + a tracer for its stage events behind
  ``deploy``, ``deploy_fleet`` and ``package_for``
* :mod:`repro.service.cache`     — LRU of device-independent compiled
  artifacts with hit/miss statistics
* :mod:`repro.service.scheduler` — the asyncio service layer:
  :class:`FleetScheduler` multiplexes many concurrent fleets over one
  farm/store pair, measuring each unique job once

Every layer observes its stages through one
:class:`~repro.obs.trace.Tracer`, shared down the stack (daemon →
scheduler → farm); attach sinks from :mod:`repro.obs.sinks` with
``tracer.add_sink``.

The split :class:`DeploymentSession` rides on lives in
:mod:`repro.core.compiler_driver`: ``prepare()`` (compile + sign +
select, device-independent, cacheable) vs ``package_artifact()``
(encrypt + package under one device key).
"""

from repro.service.cache import ArtifactCache, CacheStats
from repro.service.session import (ChannelFactory, DeploymentSession,
                                   FleetDeploymentReport,
                                   FleetDeviceOutcome)

#: Scheduler names resolve lazily (PEP 562): the scheduler module
#: imports asyncio, and importing it eagerly here would pull asyncio
#: into every ``import repro``.
_SCHEDULER_EXPORTS = frozenset({
    "FleetRequest", "FleetScheduler", "FleetServiceReport",
    "SchedulerReport", "load_fleet_specs",
})


def __getattr__(name: str):
    if name in _SCHEDULER_EXPORTS:
        from repro.service import scheduler
        return getattr(scheduler, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArtifactCache",
    "CacheStats",
    "ChannelFactory",
    "DeploymentSession",
    "FleetDeploymentReport",
    "FleetDeviceOutcome",
    "FleetRequest",
    "FleetScheduler",
    "FleetServiceReport",
    "SchedulerReport",
    "load_fleet_specs",
]
