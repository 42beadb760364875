"""DeploymentSession: the fleet-scale front door of the reproduction.

The one-shot :func:`repro.core.workflow.deploy` re-runs the whole
software-source flow for every call.  A session amortises it: one
:class:`~repro.core.provisioning.DeviceRegistry`, one
:class:`~repro.core.compiler_driver.EricCompiler`, and one
:class:`~repro.service.cache.ArtifactCache` of device-independent
compile products, so deploying a program to N devices costs one
compile+sign and N encrypt+package+run stages — the paper's
"efficient and practical at deployment scale" claim as an API.

    session = DeploymentSession()
    report = session.deploy_fleet(SOURCE, devices)
    print(report.summary())

Per-device failures inside :meth:`DeploymentSession.deploy_fleet` are
isolated: a device that rejects its package (``ValidationError``) marks
its own :class:`FleetDeviceOutcome` failed while the rest of the fleet
proceeds.

Every pipeline stage (``compile``, ``cache.hit``, ``package``,
``transfer``, ``execute``, ``fleet``) is an event on the session's
:class:`~repro.obs.trace.Tracer`; attach sinks with
``session.tracer.add_sink(...)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.compiler_driver import (CompiledArtifact, EricCompiler,
                                        EricCompileResult,
                                        PackagingTimings, source_digest)
from repro.core.config import EricConfig
from repro.core.device import Device
from repro.core.provisioning import DeviceRegistry
from repro.core.workflow import DeploymentResult
from repro.errors import EricError, ProvisioningError
from repro.net.channel import UntrustedChannel
from repro.obs.trace import Tracer
from repro.service.cache import ArtifactCache, CacheStats

#: Builds one transfer channel per deployment, so interceptor state is
#: never shared across devices.
ChannelFactory = Callable[[], UntrustedChannel]


@dataclass(frozen=True)
class FleetDeviceOutcome:
    """What happened to one device during a fleet rollout."""

    device_id: str
    result: DeploymentResult | None
    error: EricError | None
    wall_s: float
    #: stage timings for the work actually done — present even when the
    #: device later failed validation (the encrypt+package cost was
    #: still paid); None only if packaging itself failed
    timings: PackagingTimings | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class FleetDeploymentReport:
    """Aggregate of one program pushed to a whole fleet."""

    program: str
    outcomes: tuple[FleetDeviceOutcome, ...]
    wall_s: float
    #: the artifact's one-time build cost (the compile-once guarantee).
    #: When ``cache_hit`` is True this rollout *embodies* but did not
    #: incur it — don't sum these fields across rollouts of one session
    compile_s: float
    signature_s: float
    #: summed across devices (the O(devices) residue); includes one
    #: share of the artifact's map-selection time
    encryption_s: float
    packaging_s: float
    cache_hit: bool

    @property
    def succeeded(self) -> tuple[FleetDeviceOutcome, ...]:
        return tuple(o for o in self.outcomes if o.ok)

    @property
    def failed(self) -> tuple[FleetDeviceOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def failures(self) -> dict[str, EricError]:
        """Error per failed device id.

        Convenience view; if several failed outcomes share a (spoofed)
        device id only the last error survives the dict — iterate
        :attr:`failed` when identities may collide.
        """
        return {o.device_id: o.error for o in self.outcomes if o.error}

    @property
    def device_count(self) -> int:
        return len(self.outcomes)

    @property
    def all_ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        lines = [
            f"fleet deployment of {self.program!r}: "
            f"{len(self.succeeded)}/{self.device_count} devices ok "
            f"in {self.wall_s * 1e3:.1f} ms",
            f"  compile+sign (paid once{', cached' if self.cache_hit else ''})"
            f" : {(self.compile_s + self.signature_s) * 1e3:.1f} ms",
            f"  encrypt+package (all devices): "
            f"{(self.encryption_s + self.packaging_s) * 1e3:.1f} ms",
        ]
        for outcome in self.failed:
            lines.append(f"  FAILED {outcome.device_id}: "
                         f"{type(outcome.error).__name__}: {outcome.error}")
        return "\n".join(lines)


class DeploymentSession:
    """A long-lived software source deploying to many devices.

    A session is used from one thread: :meth:`deploy_fleet` deploys its
    devices one after another, in order, on the calling thread.

    Args:
        config: packaging configuration shared by every deployment.
        registry: enrollment database; a fresh one if not given.
        channel_factory: builds the untrusted transfer channel used per
            deployment (default: a clean :class:`UntrustedChannel`).

    Stage events go to :attr:`tracer`, a fresh memory-only
    :class:`~repro.obs.trace.Tracer`.
    """

    def __init__(self, config: EricConfig | None = None, *,
                 registry: DeviceRegistry | None = None,
                 channel_factory: ChannelFactory | None = None) -> None:
        self.config = (config or EricConfig()).validate()
        self.registry = registry or DeviceRegistry()
        self.compiler = EricCompiler(self.config)
        self.channel_factory = channel_factory or UntrustedChannel
        self.cache = ArtifactCache()
        self.tracer = Tracer()

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    # -- the compile-once stage -------------------------------------------

    def prepare(self, source: str, name: str = "program",
                ) -> CompiledArtifact:
        """Fetch or build the device-independent artifact for a source."""
        return self._prepare(source, name)[0]

    def _prepare(self, source: str, name: str,
                 ) -> tuple[CompiledArtifact, bool]:
        """As :meth:`prepare`, also reporting whether this call compiled
        (False = served from cache)."""
        digest = source_digest(source)
        built: list[float] = []

        def build() -> CompiledArtifact:
            start = time.perf_counter()
            artifact = self.compiler.prepare(source, name)
            built.append(time.perf_counter() - start)
            return artifact

        artifact = self.cache.get_or_build(digest, name, self.config,
                                           build)
        # emitted after get_or_build: sinks may inspect cache_stats
        if built:
            self.tracer.event("compile", built[0], detail=digest[:12],
                              attrs={"program": name})
        else:
            self.tracer.event("cache.hit", detail=digest[:12],
                              attrs={"program": name})
        return artifact, bool(built)

    # -- per-device stages ------------------------------------------------

    def package_for(self, source: str, device: Device,
                    name: str = "program") -> EricCompileResult:
        """Ship-without-run: enroll, compile (cached), encrypt for one
        device; returns the packaged result without executing it."""
        artifact = self.prepare(source, name)
        target_key = self.registry.ensure_enrolled(device)
        return self._package_stage(artifact, device.device_id, target_key)

    def deploy(self, source: str, device: Device,
               channel: UntrustedChannel | None = None,
               name: str = "program",
               max_instructions: int = 20_000_000) -> DeploymentResult:
        """The full ①-⑥ flow for one device, with artifact caching.

        Any :class:`repro.errors.ValidationError` raised by the device
        propagates, exactly like :func:`repro.core.workflow.deploy`.
        """
        artifact = self.prepare(source, name)
        target_key = self.registry.ensure_enrolled(device)
        packaged = self._package_stage(artifact, device.device_id,
                                       target_key)
        return self._ship_and_run(packaged, device,
                                  channel or self.channel_factory(),
                                  artifact.name, max_instructions)

    def _package_stage(self, artifact: CompiledArtifact, device_id: str,
                       target_key: bytes) -> EricCompileResult:
        start = time.perf_counter()
        result = self.compiler.package_artifact(artifact, target_key)
        self.tracer.event("package", time.perf_counter() - start,
                          attrs={"program": artifact.name,
                                 "device_id": device_id})
        return result

    def _ship_and_run(self, result: EricCompileResult, device: Device,
                      channel: UntrustedChannel, name: str,
                      max_instructions: int) -> DeploymentResult:
        attrs = {"program": name, "device_id": device.device_id}
        start = time.perf_counter()
        delivered = channel.transfer(result.package_bytes)
        self.tracer.event("transfer", time.perf_counter() - start,
                          attrs=attrs)

        start = time.perf_counter()
        try:
            run_result = device.load_and_run(
                delivered, max_instructions=max_instructions)
        except EricError as exc:
            self.tracer.event("execute", time.perf_counter() - start,
                              ok=False, detail=str(exc), attrs=attrs)
            raise
        self.tracer.event("execute", time.perf_counter() - start,
                          attrs=attrs)
        return DeploymentResult(compile_result=result,
                                delivered_bytes=delivered,
                                run_result=run_result)

    # -- fleet rollout ----------------------------------------------------

    def deploy_fleet(self, source: str, devices: Sequence[Device], *,
                     name: str = "program",
                     max_instructions: int = 20_000_000,
                     ) -> FleetDeploymentReport:
        """Push one program to many devices, compiling exactly once.

        Enrollment and handshake happen up front (the registry is the
        trusted vendor database); then each device in turn is
        encrypted for, shipped to and run.  A device failing validation
        records an error in its outcome instead of aborting the fleet.
        """
        if not devices:
            raise ProvisioningError("deploy_fleet needs at least one device")
        fleet_start = time.perf_counter()

        artifact, compiled = self._prepare(source, name)
        keys = [self.registry.ensure_enrolled(device) for device in devices]

        outcomes = []
        for device, target_key in zip(devices, keys):
            # package/ship/run, never raising: failures land in the
            # device's outcome
            start = time.perf_counter()
            packaged = result = error = None
            try:
                packaged = self._package_stage(artifact, device.device_id,
                                               target_key)
                result = self._ship_and_run(packaged, device,
                                            self.channel_factory(),
                                            artifact.name,
                                            max_instructions)
            except EricError as exc:
                error = exc
            outcomes.append(FleetDeviceOutcome(
                device_id=device.device_id, result=result, error=error,
                wall_s=time.perf_counter() - start,
                timings=packaged.timings if packaged else None))
        wall_s = time.perf_counter() - fleet_start
        # failed devices still paid for encrypt+package, so the "(all
        # devices)" aggregate counts their timings too
        timings = [o.timings for o in outcomes if o.timings is not None]
        # per-device encryption_s carries the once-paid map-selection
        # time (single-device parity); the fleet paid it once, not N×
        encryption_s = (sum(t.encryption_s for t in timings)
                        - max(0, len(timings) - 1) * artifact.selection_s)
        report = FleetDeploymentReport(
            program=name, outcomes=tuple(outcomes), wall_s=wall_s,
            compile_s=artifact.compile_s,
            signature_s=artifact.signature_s,
            encryption_s=encryption_s,
            packaging_s=sum(t.packaging_s for t in timings),
            cache_hit=not compiled)
        self.tracer.event(
            "fleet", wall_s, ok=report.all_ok,
            detail=f"{len(report.succeeded)}/{len(outcomes)} ok",
            attrs={"program": name})
        return report
