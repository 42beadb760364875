"""DeploymentSession: artifact cache, fleet rollout, wrapper parity."""

import threading

import pytest

from repro.core.config import EncryptionMode, EricConfig
from repro.core.device import Device
from repro.core.workflow import deploy
from repro.errors import ProvisioningError, ValidationError
from repro.net.channel import BitFlipper, UntrustedChannel
from repro.service.cache import ArtifactCache
from repro.service.session import DeploymentSession
from repro.obs.sinks import RecordingTelemetry

SOURCE = """
int main() {
    print_str("fleet says hi\\n");
    return 9;
}
"""

OTHER_SOURCE = """
int main() {
    print_str("other\\n");
    return 2;
}
"""


@pytest.fixture
def session():
    return DeploymentSession()


class TestArtifactCache:
    def test_miss_then_hit(self, session):
        a = session.prepare(SOURCE, name="p")
        b = session.prepare(SOURCE, name="p")
        assert a is b
        stats = session.cache_stats
        assert (stats.lookups, stats.hits, stats.misses) == (2, 1, 1)
        assert stats.compiles == 1

    def test_distinct_sources_miss(self, session):
        session.prepare(SOURCE, name="p")
        session.prepare(OTHER_SOURCE, name="p")
        assert session.cache_stats.misses == 2

    def test_distinct_names_miss(self, session):
        session.prepare(SOURCE, name="a")
        session.prepare(SOURCE, name="b")
        assert session.cache_stats.misses == 2

    def test_config_partitions_cache(self):
        full = DeploymentSession(EricConfig())
        partial = DeploymentSession(
            EricConfig(mode=EncryptionMode.PARTIAL))
        a = full.prepare(SOURCE)
        b = partial.prepare(SOURCE)
        assert a.enc_map.encrypted_count != b.enc_map.encrypted_count

    def test_lru_eviction(self, session):
        cache = ArtifactCache(max_entries=2)
        build = lambda n: (lambda: n)
        cache.get_or_build("d1", "p", None, build(1))
        cache.get_or_build("d2", "p", None, build(2))
        cache.get_or_build("d3", "p", None, build(3))
        stats = cache.stats
        assert stats.evictions == 1
        assert stats.entries == 2
        # d1 was evicted: asking again rebuilds
        cache.get_or_build("d1", "p", None, build(1))
        assert cache.stats.misses == 4

    def test_failed_build_not_cached_and_retryable(self):
        cache = ArtifactCache()

        def boom():
            raise RuntimeError("compile exploded")

        with pytest.raises(RuntimeError):
            cache.get_or_build("d", "p", None, boom)
        # the failure left no entry
        assert len(cache) == 0
        assert cache.get_or_build("d", "p", None, lambda: "ok") == "ok"

    def test_deploys_share_artifact(self, session):
        session.deploy(SOURCE, Device(device_seed=0xA1))
        session.deploy(SOURCE, Device(device_seed=0xA2))
        session.package_for(SOURCE, Device(device_seed=0xA3))
        assert session.cache_stats.compiles == 1


class TestFleetDeployment:
    def test_compile_once_for_ten_devices(self, session):
        devices = [Device(device_seed=0x100 + i) for i in range(10)]
        report = session.deploy_fleet(SOURCE, devices)
        assert report.all_ok
        assert report.device_count == 10
        # the acceptance criterion: one MiniC invocation for the fleet
        stats = session.cache_stats
        assert stats.compiles == 1
        assert stats.misses == 1
        for outcome in report.outcomes:
            assert outcome.result.stdout == "fleet says hi\n"
            assert outcome.result.exit_code == 9

    def test_packages_differ_per_device(self, session):
        devices = [Device(device_seed=0x200 + i) for i in range(3)]
        report = session.deploy_fleet(SOURCE, devices)
        blobs = {o.result.compile_result.package_bytes
                 for o in report.outcomes}
        assert len(blobs) == 3  # same program, device-unique ciphertext

    def test_failure_isolation(self, session):
        good = [Device(device_seed=0x300 + i) for i in range(3)]
        # an impostor claiming an enrolled identity: its package is
        # encrypted under good[0]'s key, which its own PUF cannot derive
        impostor = Device(device_seed=0xBAD)
        impostor.device_id = good[0].device_id
        report = session.deploy_fleet(SOURCE, good + [impostor])
        assert not report.all_ok
        assert len(report.succeeded) == 3
        assert len(report.failed) == 1
        bad = report.failed[0]
        assert isinstance(bad.error, ValidationError)
        assert bad.result is None
        # the failed device still paid encrypt+package: its timings are
        # recorded and included in the report aggregates
        assert bad.timings is not None
        assert report.encryption_s >= bad.timings.encryption_s
        # the good devices were untouched by the failure
        for outcome in report.succeeded:
            assert outcome.result.exit_code == 9

    def test_hostile_channel_failures_reported(self):
        session = DeploymentSession(
            channel_factory=lambda: UntrustedChannel(
                [BitFlipper(flips=3, seed=7)]))
        devices = [Device(device_seed=0x400 + i) for i in range(2)]
        report = session.deploy_fleet(SOURCE, devices)
        assert len(report.failed) == 2
        assert all(isinstance(e, ValidationError)
                   for e in report.failures.values())

    def test_fleet_matches_single_deploys(self, session):
        devices = [Device(device_seed=0x500 + i) for i in range(4)]
        report = session.deploy_fleet(SOURCE, devices)
        single = DeploymentSession()
        assert [o.result.compile_result.package_bytes
                for o in report.outcomes] == \
               [single.deploy(SOURCE, Device(device_seed=0x500 + i))
                .compile_result.package_bytes for i in range(4)]

    def test_fleet_runs_on_the_calling_thread(self):
        threads = []

        def channel():
            threads.append(threading.get_ident())
            return UntrustedChannel()

        session = DeploymentSession(channel_factory=channel)
        devices = [Device(device_seed=0x580 + i) for i in range(4)]
        assert session.deploy_fleet(SOURCE, devices).all_ok
        assert threads == [threading.get_ident()] * 4

    def test_empty_fleet_rejected(self, session):
        with pytest.raises(ProvisioningError):
            session.deploy_fleet(SOURCE, [])

    def test_report_timings_and_summary(self, session):
        devices = [Device(device_seed=0x600 + i) for i in range(3)]
        report = session.deploy_fleet(SOURCE, devices, name="fw")
        assert report.compile_s > 0
        assert report.encryption_s > 0
        assert not report.cache_hit
        text = report.summary()
        assert "3/3 devices ok" in text
        assert "paid once" in text
        # second rollout of the same program: artifact comes from cache
        again = session.deploy_fleet(
            SOURCE, [Device(device_seed=0x700)], name="fw")
        assert again.cache_hit
        assert "cached" in again.summary()


class TestDeployWrapperParity:
    def test_wrapper_equivalent_to_session(self, session):
        device = Device(device_seed=0xD0)
        via_session = session.deploy(SOURCE, device, name="program")
        via_wrapper = deploy(SOURCE, Device(device_seed=0xD0))
        assert via_wrapper.stdout == via_session.stdout == "fleet says hi\n"
        assert via_wrapper.exit_code == via_session.exit_code == 9
        assert (via_wrapper.compile_result.package_bytes
                == via_session.compile_result.package_bytes)
        assert via_wrapper.total_cycles == via_session.total_cycles

    def test_wrapper_propagates_validation_error(self):
        device = Device(device_seed=0xD0)
        channel = UntrustedChannel([BitFlipper(flips=3, seed=9)])
        with pytest.raises(ValidationError):
            deploy(SOURCE, device, channel=channel)


class TestPackageFor:
    def test_package_runs_on_target_only(self, session):
        device = Device(device_seed=0xE0)
        result = session.package_for(SOURCE, device)
        outcome = device.load_and_run(result.package_bytes)
        assert outcome.run.stdout == "fleet says hi\n"
        with pytest.raises(ValidationError):
            Device(device_seed=0xE1).load_and_run(result.package_bytes)

    def test_package_for_enrolls_via_registry(self, session):
        device = Device(device_seed=0xE2)
        session.package_for(SOURCE, device)
        assert device.device_id in session.registry.enrolled


class TestTelemetry:
    def test_stage_events_emitted(self):
        telemetry = RecordingTelemetry()
        session = DeploymentSession()
        session.tracer.add_sink(telemetry)
        devices = [Device(device_seed=0x800 + i) for i in range(2)]
        session.deploy_fleet(SOURCE, devices)
        assert len(telemetry.stages("compile")) == 1
        assert len(telemetry.stages("package")) == 2
        assert len(telemetry.stages("execute")) == 2
        assert len(telemetry.stages("fleet")) == 1
        session.deploy(SOURCE, Device(device_seed=0x900))
        assert len(telemetry.stages("cache.hit")) == 1
        assert len(telemetry.stages("compile")) == 1

    def test_sink_may_read_cache_stats(self):
        # regression: compile events were emitted while holding the
        # cache lock, so a sink touching cache_stats deadlocked
        seen = []
        session = DeploymentSession()
        session.tracer.add_sink(
            lambda record: seen.append(session.cache_stats.compiles))
        session.deploy(SOURCE, Device(device_seed=0xB00))
        assert seen and seen[-1] == 1

    def test_broken_sink_is_isolated(self):
        def broken(record):
            raise RuntimeError("sink crashed")
        session = DeploymentSession()
        session.tracer.add_sink(broken)
        result = session.deploy(SOURCE, Device(device_seed=0xA00))
        assert result.exit_code == 9
