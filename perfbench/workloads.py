"""The benchmark's three workloads.

Each workload is a closed loop of timed *units* grouped in *rounds*.
``setup()`` is everything before the first timed call; ``run_round(r,
rec)`` performs round ``r`` and reports every finished unit to the
recorder ``rec``.  A workload's cost structure (which programs, shapes,
policies and fleet sizes) is fixed; ``--seed`` draws the identities
inside it: device seeds, environments, pipelines, selection seeds,
request names, the release order, and the programs of each daemon
request from a cost-matched pool.  Runs on different seeds therefore
measure the same amount of work, which is what lets the run-to-run
spread be compared across seeds.

Oracle: a unit fails when it raises, when any simulated console differs
from the workload's ``expected_stdout``, or (daemon-warm) when a warm
request executes anything.
"""

from __future__ import annotations

import asyncio
import random
import shutil
from pathlib import Path

#: Operating points drawn for PUF tuples: nominal plus two mild corners
#: whose noise scale keeps majority-voted keys stable (no failed jobs).
ENVIRONMENTS = ({}, {"temperature_c": 40.0}, {"voltage": 0.97})

#: Policies of the sweep template (the ``docs/policy.md`` dialect).
LIGHT_POLICY = {"name": "light",
                "encrypt": [{"region": {"kind": "program"},
                             "fraction": 0.25}]}
HEAVY_POLICY = {"name": "heavy",
                "encrypt": [{"region": {"kind": "program"},
                             "fraction": 1.0}],
                "obfuscate": [{"region": {"kind": "program"},
                               "density": 0.1, "junk": 3}]}


def _rng(seed: int, *labels) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def _registry() -> dict:
    """Program name -> registry ``Workload`` (source and oracle)."""
    from repro.workloads import all_workloads
    return all_workloads()


class SweepCold:
    """A cold ``eric sweep``: ``SimulationFarm(jobs=1)`` over a fresh
    ``ResultStore`` per round.

    One round is the template below, 24 jobs over the 8 registry
    programs: 13 compile-only, 9 simulated (2 of them also analyzed),
    the committed store's 55/38/7 shape mix.  Each program is one
    (source, config, policy) compile input shared by 3 jobs, and each
    of the round's 8 PUF tuples is shared by 3 jobs.  Every round gets
    fresh device seeds and a fresh source text (an unused global holding
    a per-round token: same code, new data word), so neither the store,
    the predecode cache, nor any cache keyed on source, image or PUF
    tuple can serve a later round from an earlier one.
    """

    name = "sweep-cold"
    min_rounds = 1
    digest_units = 24

    #: program, mode, cipher, policy, shapes (c compile-only, s
    #: simulated, a simulated and analyzed).  Heavy policies sit on the
    #: cheap programs, which keeps a round at 12-18 s on a 2-vCPU VM.
    TEMPLATE = (
        ("basicmath", "full", "xor-repeating", HEAVY_POLICY, "ccs"),
        ("bitcount", "partial", "xor-sha256ctr", None, "ccs"),
        ("qsort", "full", "xor-repeating", LIGHT_POLICY, "ccs"),
        ("crc32", "full", "xor-repeating", HEAVY_POLICY, "csa"),
        ("dijkstra", "field", "xor-repeating", None, "ccs"),
        ("fft", "partial", "xor-sha256ctr", LIGHT_POLICY, "css"),
        ("sha", "full", "xor-sha256ctr", None, "ccs"),
        ("stringsearch", "field", "xor-sha256ctr", None, "csa"),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        from repro.farm.spec import PIPELINE_VARIANTS
        from repro.statics.fingerprint import model_fingerprint
        model_fingerprint()
        self.programs = _registry()
        self.pipelines = sorted(PIPELINE_VARIANTS)

    def round_specs(self, r: int) -> list:
        from repro.core.interface import config_from_dict
        from repro.farm import JobSpec, SimParams
        from repro.policy import policy_from_dict
        from repro.puf.environment import Environment

        rng = _rng(self.seed, self.name, r)
        token = rng.getrandbits(31)
        tuples = [(rng.getrandbits(32), Environment.from_dict(
                   rng.choice(ENVIRONMENTS)))
                  for _ in range(len(self.TEMPLATE))]
        specs = []
        for p, (program, mode, cipher, policy, shapes) in enumerate(
                self.TEMPLATE):
            source = (self.programs[program].source
                      + f"\nint perfbench_round = {token};\n")
            config = config_from_dict({
                "mode": mode, "cipher": cipher,
                "selection_seed": rng.getrandbits(16)})
            policy = policy_from_dict(policy) if policy else None
            for k, shape in enumerate(shapes):
                device_seed, environment = tuples[(p + k) % len(tuples)]
                params = SimParams(device_seed=device_seed,
                                   environment=environment,
                                   pipeline=rng.choice(self.pipelines),
                                   policy=policy)
                specs.append(JobSpec(source=source, name=program,
                                     config=config, params=params,
                                     simulate=shape != "c",
                                     analyze=shape == "a"))
        return specs

    def run_round(self, r: int, rec) -> None:
        from repro.farm.executor import SimulationFarm
        from repro.farm.store import ResultStore

        specs = self.round_specs(r)
        root = self.workdir / f"sweep-{r}"
        rec.begin()
        store = ResultStore(root)
        farm = SimulationFarm(store=store, jobs=1,
                              progress=lambda done, total, result:
                              rec.unit_done(result, self.check))
        farm.run(specs)
        rec.end()
        shutil.rmtree(root, ignore_errors=True)

    def digest_extra(self):
        return None

    def check(self, result) -> tuple[bool, dict]:
        record = result.record
        if not result.ok or record is None:
            return False, {"error": result.error}
        expected = self.programs[result.spec.name].expected_stdout
        ok = True
        if record.simulate:
            ok = (record.plain_run["console"] == expected
                  and record.eric_run["console"] == expected
                  and record.plain_run["exit_code"]
                  == record.eric_run["exit_code"])
        if record.analyze:
            ok = ok and not any(d["leaked"]
                                for d in record.analysis["dynamic"])
        return ok, {"key": record.key[:16],
                    "plain_cycles": record.plain_cycles,
                    "eric_cycles": record.eric_cycles,
                    "hde_cycles": record.hde_cycles,
                    "instret": record.instructions_retired,
                    "package_bytes": record.package_size,
                    "key_failure": record.key_failure}


class FleetRollout:
    """One long-lived ``DeploymentSession`` rolling a 3-program release
    out to a fleet, one device per unit.

    ``FLEET_SIZE`` devices are fabricated in setup, their memory images
    zeroed (a physical device's RAM exists before any rollout), and the
    artifact and predecode caches are warmed there by deploying the
    release once to a spare device, as a long-lived vendor session would
    have.  A unit is a device's first contact: enrollment, then package,
    transfer, HDE and SoC run for each program, each checked against the
    oracle.  After its unit a device leaves the fleet and the next one
    arrives, fabricated outside the timed region, so every unit is a
    first contact and memory holds ``FLEET_SIZE`` devices whatever the
    speed.
    """

    name = "fleet-rollout"
    min_rounds = 20
    digest_units = 20

    #: the release: the seed draws its order, never its programs, so
    #: every seed's unit does the same work
    RELEASE = ("basicmath", "crc32", "stringsearch")
    FLEET_SIZE = 64

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        from repro.core.device import Device
        from repro.service.session import DeploymentSession
        from repro.statics.fingerprint import model_fingerprint

        model_fingerprint()
        self.rng = _rng(self.seed, self.name)
        self.used_seeds: set[int] = set()
        programs = _registry()
        self.release = [(name, programs[name].source,
                         programs[name].expected_stdout)
                        for name in self.rng.sample(self.RELEASE, 3)]
        self.devices = [self.fabricate() for _ in range(self.FLEET_SIZE)]
        self.session = DeploymentSession()
        spare = Device(device_seed=self.next_seed())
        for name, source, expected in self.release:
            result = self.session.deploy(source, spare, name=name)
            if result.run_result.run.stdout != expected:
                raise RuntimeError(f"warm-up deploy of {name} failed "
                                   f"its oracle")

    def next_seed(self) -> int:
        while True:
            seed = self.rng.getrandbits(32)
            if seed not in self.used_seeds:
                self.used_seeds.add(seed)
                return seed

    def fabricate(self):
        from repro.core.device import Device
        device = Device(device_seed=self.next_seed())
        device.soc.memory.clear()
        return device

    def run_round(self, r: int, rec) -> None:
        slot = r % len(self.devices)
        device = self.devices[slot]
        rec.begin()
        results = []
        try:
            for name, source, _ in self.release:
                results.append(self.session.deploy(source, device,
                                                   name=name))
        except Exception as exc:  # noqa: BLE001 — a failed unit
            results = exc
        rec.unit_done(results, self.check)
        rec.end()
        self.devices[slot] = self.fabricate()

    def digest_extra(self):
        return [name for name, _, _ in self.release]

    def check(self, results) -> tuple[bool, dict]:
        if isinstance(results, Exception):
            return False, {"error": f"{type(results).__name__}: {results}"}
        ok = True
        stats = []
        for (name, _, expected), result in zip(self.release, results):
            run = result.run_result.run
            ok = ok and run.stdout == expected and run.exit_code == 0
            stats.append({"program": name,
                          "eric_cycles": result.run_result.total_cycles,
                          "hde_cycles": result.run_result.hde.total_cycles,
                          "instret": run.counters.instret,
                          "package_bytes":
                              result.compile_result.package_size})
        return ok, {"deploys": stats}


class DaemonWarm:
    """``eric submit`` + ``eric daemon --once`` against a warm store.

    Setup fills a result store with a small pool of compile-only jobs
    and pre-fills the request journal with finished requests through
    ``JournalStore.submit``/``transition``.  A unit journals one fleet
    request whose jobs are all store hits (``submit_fleets``) and serves
    it with ``ServeDaemon.run(once=True)``.  Per-request cost grows with
    the journal, so every round restores the pre-filled journal and
    serves the same number of requests: a faster commit serves more
    rounds, never a longer journal.
    """

    name = "daemon-warm"
    min_rounds = 1
    digest_units = 20

    PROGRAMS = ("basicmath", "bitcount", "crc32", "qsort")
    #: finished requests in the journal at every round's first request
    PREFILL = 300
    PER_ROUND = 20

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        from repro.farm import JobMatrix, ResultStore, SimulationFarm
        from repro.service.daemon import JournalStore, ServeDaemon
        from repro.statics.fingerprint import model_fingerprint

        model_fingerprint()
        rng = _rng(self.seed, self.name)
        self.device_seeds = sorted(rng.sample(range(1 << 16, 1 << 32), 2))
        self.store = ResultStore(self.workdir / "store")
        report = SimulationFarm(store=self.store, jobs=1).run(JobMatrix(
            workloads=self.PROGRAMS,
            params=tuple(_sim_params(s) for s in self.device_seeds),
            simulate=False))
        report.require_ok()
        self.served = sorted((r.key[:16], r.package_size, r.plain_size,
                              r.key_failure) for r in report.records)
        self.journal = JournalStore(self.workdir / "journal")
        for i in range(self.PREFILL):
            entry = self.fleet_entry(rng, f"prefill-{i}")
            jobs = len(entry["workloads"]) * len(self.device_seeds)
            rid = f"{rng.getrandbits(64):016x}"
            self.journal.submit(entry, total_jobs=jobs, request_id=rid)
            self.journal.transition(rid, "admitted")
            self.journal.transition(rid, "running", attempts=1)
            self.journal.transition(
                rid, "done", done_jobs=jobs,
                result={"jobs": jobs, "store_hits": jobs, "failures": 0,
                        "wall_s": 0.0})
        self.snapshot = self.journal.path.read_bytes()
        self.daemon = ServeDaemon(self.journal, store=self.store)
        # one served request warms the serve path's lazy imports
        outcome = self._serve(self.fleet_entry(rng, "warm-up"))
        ok, _ = self.check(outcome)
        if not ok:
            raise RuntimeError("warm-up request did not complete as a "
                               "pure store hit")

    def fleet_entry(self, rng: random.Random, name: str) -> dict:
        return {"name": name,
                "workloads": sorted(rng.sample(self.PROGRAMS, 3)),
                "device_seeds": self.device_seeds,
                "simulate": False}

    def _serve(self, entry: dict):
        from repro.service.daemon import client
        try:
            (record,) = client.submit_fleets(self.journal, entry)
            report = asyncio.run(self.daemon.run(once=True))
        except Exception as exc:  # noqa: BLE001 — a failed unit
            return exc
        return record.request_id, report

    def run_round(self, r: int, rec) -> None:
        self.journal.path.write_bytes(self.snapshot)
        self.journal.reload()
        rng = _rng(self.seed, self.name, r)
        entries = [self.fleet_entry(rng, f"round-{r}-{i}")
                   for i in range(self.PER_ROUND)]
        rec.begin()
        for entry in entries:
            rec.unit_done(self._serve(entry), self.check)
        rec.end()

    def check(self, outcome) -> tuple[bool, dict]:
        if isinstance(outcome, Exception):
            return False, {"error": f"{type(outcome).__name__}: {outcome}"}
        request_id, report = outcome
        record = self.journal.get(request_id)
        result = (record.result or {}) if record is not None else {}
        jobs = result.get("jobs")
        ok = (record is not None and record.state == "done"
              and report.completed == 1 and report.failed == 0
              and report.executed == 0 and result.get("failures") == 0
              and jobs == record.total_jobs == result.get("store_hits"))
        return ok, {"jobs": jobs, "store_hits": result.get("store_hits"),
                    "executed": report.executed}

    def digest_extra(self):
        """The store records every request is served from."""
        return self.served


def _sim_params(device_seed: int):
    from repro.farm import SimParams
    return SimParams(device_seed=device_seed)


WORKLOADS = {cls.name: cls for cls in (SweepCold, FleetRollout, DaemonWarm)}
