#!/usr/bin/env python3
"""Fleet deployment: compile once, encrypt per device (paper §III.1).

ERIC's practicality claim is that device-keyed encryption is cheap
enough to run at deployment scale.  ``DeploymentSession.deploy_fleet``
makes that concrete: the program is compiled and signed exactly once
(the device-independent artifact), then encrypted under each target's
PUF-based key and shipped to it, one device after another.  A device
that fails validation is reported, not fatal — the rest of the fleet
still ships.

The registry's *device groups* remain available for the paper's
single-package variant (one group key + per-device helper data); this
example shows the per-device-key pipeline, which keeps every package
unique to its die.

Run:  python examples/fleet_deployment.py
"""

from repro import DeploymentSession, Device, RecordingTelemetry

SOURCE = """
int main() {
    print_str("fleet firmware v2\\n");
    return 0;
}
"""


def main() -> None:
    session = DeploymentSession()
    telemetry = RecordingTelemetry()
    session.tracer.add_sink(telemetry)

    fleet = [Device(device_seed=5000 + i) for i in range(10)]

    # A saboteur: its enrollment record claims the identity of the first
    # fleet member, so its package decrypts under the wrong PUF key.
    impostor = Device(device_seed=0xBAD5EED)
    impostor.device_id = fleet[0].device_id

    report = session.deploy_fleet(SOURCE, fleet + [impostor],
                                  name="firmware")
    print(report.summary())
    print()

    for outcome in report.succeeded:
        print(f"  {outcome.device_id}: "
              f"{outcome.result.stdout.strip()!r} "
              f"({outcome.result.total_cycles} cycles)")
    for outcome in report.failed:
        print(f"  {outcome.device_id}: BLOCKED "
              f"({type(outcome.error).__name__})")

    stats = session.cache_stats
    print(f"\ncompiled {stats.compiles}x for {report.device_count} "
          f"devices; per-stage telemetry events: "
          f"{len(telemetry.stages('package'))} package, "
          f"{len(telemetry.stages('execute'))} execute")


if __name__ == "__main__":
    main()
