"""repro — a Python reproduction of ERIC (DSN 2022).

*ERIC: An Efficient and Practical Software Obfuscation Framework* encrypts
program binaries under keys derived from a target device's physical
unclonable function (PUF), so that only that device can decrypt,
integrity-check and execute them — defeating both static and dynamic
analysis by anyone else.

Quickstart — one device::

    from repro import Device, deploy

    device = Device(device_seed=42)
    result = deploy("int main() { print_str(\\"hi\\"); return 0; }", device)
    print(result.stdout, result.total_cycles)

Quickstart — a fleet (compile once, encrypt per device)::

    from repro import Device, DeploymentSession

    session = DeploymentSession()
    fleet = [Device(device_seed=s) for s in range(100, 110)]
    report = session.deploy_fleet(SOURCE, fleet)
    print(report.summary())          # per-device outcomes + stage costs
    print(session.cache_stats)       # proves the single compile

``deploy`` is a convenience wrapper over a throwaway
:class:`DeploymentSession`; hold a session whenever you deploy more than
once and the artifact cache makes repeat compiles free.

Package map (see DESIGN.md for the full inventory):

=====================  ====================================================
``repro.core``         ERIC itself: keys, encryptor, package, HDE, device;
                       the compiler split into a device-independent
                       ``prepare`` and per-device ``package_artifact``
``repro.service``      fleet-scale deployment: ``DeploymentSession``,
                       artifact cache, fleet reports, async scheduler,
                       durable daemon
``repro.farm``         matrix-scale evaluation: content-addressed job
                       matrices, a resumable result store, and a
                       process-pool simulation farm (``eric sweep``)
``repro.crypto``       XOR ciphers, AES, KDF, PRNGs (from scratch);
                       SHA-256 and HMAC over ``hashlib``/``hmac``
``repro.puf``          arbiter-PUF model, key generator, metrics
``repro.isa``          RV64IM + RVC encode/decode/disassemble
``repro.asm``          assembler and program images
``repro.cc``           MiniC optimizing compiler (the LLVM stand-in)
``repro.soc``          Rocket-like SoC simulator (caches, timing model)
``repro.hw``           structural LUT/FF area model (Table II)
``repro.net``          untrusted channel + static/dynamic attackers
``repro.workloads``    MiBench-counterpart benchmark programs
``repro.eval``         regenerates every table and figure of the paper
``repro.obs``          tracing (every layer's one event channel: spans
                       and events to sinks), metrics registry
=====================  ====================================================
"""

from repro.core.config import EncryptionMode, EricConfig
from repro.core.compiler_driver import (CompiledArtifact, EricCompiler,
                                        EricCompileResult)
from repro.core.device import Device, DeviceRunResult
from repro.core.provisioning import DeviceRegistry
from repro.core.workflow import DeploymentResult, deploy
from repro.errors import (
    EricError,
    PackageFormatError,
    ValidationError,
)
from repro.farm import (
    FarmRecord,
    FarmReport,
    JobMatrix,
    JobSpec,
    ResultStore,
    SimParams,
    SimulationFarm,
)
from repro.obs import RecordingTelemetry
from repro.service import (
    ArtifactCache,
    CacheStats,
    DeploymentSession,
    FleetDeploymentReport,
    FleetDeviceOutcome,
)

__version__ = "1.2.0"

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "CompiledArtifact",
    "DeploymentSession",
    "FarmRecord",
    "FarmReport",
    "JobMatrix",
    "JobSpec",
    "ResultStore",
    "SimParams",
    "SimulationFarm",
    "EncryptionMode",
    "EricConfig",
    "EricCompiler",
    "EricCompileResult",
    "Device",
    "DeviceRunResult",
    "DeviceRegistry",
    "DeploymentResult",
    "FleetDeploymentReport",
    "FleetDeviceOutcome",
    "RecordingTelemetry",
    "deploy",
    "EricError",
    "PackageFormatError",
    "ValidationError",
    "__version__",
]
