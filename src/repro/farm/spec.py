"""Job specifications for the simulation farm.

A :class:`JobSpec` names one workload × :class:`EricConfig` ×
SoC-parameter combination and derives a **content-addressed key** from
exactly the inputs that determine its measurement: the source text, the
packaging configuration, the simulation parameters, and the measurement
shape (simulate/analyze/repeats).  Two specs with the same key measure
the same thing, so the :class:`~repro.farm.store.ResultStore` can serve
one's record for the other — across processes, sessions, and matrix
definitions.

:class:`JobMatrix` expands workload/config/parameter grids into a
deterministic, sorted job list; ``JobMatrix.from_spec`` parses the small
JSON dialect the ``eric sweep`` command reads.

:class:`ShardPlan` partitions a matrix's deduplicated, sorted key space
into contiguous ranges for the distributed farm: each
:class:`ShardSpec` is self-contained (it carries its jobs in full, not
a reference to the original spec file), serializes to JSON, and can be
executed on another machine by ``eric worker``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from itertools import product

from repro.core.config import EricConfig
from repro.core.interface import config_from_dict, config_to_dict
from repro.errors import ConfigError
from repro.puf.arbiter import NOISE_SIGMA
from repro.puf.environment import NOMINAL, Environment
from repro.policy.policy import ProtectionPolicy, policy_from_dict
from repro.puf.key_generator import MARGIN_SIGMAS
from repro.soc.pipeline import PipelineModel

#: Bumped whenever key-relevant semantics change (timing model, record
#: schema): old store entries then simply stop matching instead of
#: serving stale measurements.
#: 2: SimParams grew environment + PUF knobs; records grew
#:    hde_serial_cycles / key_failure / key_digest and analysis.dynamic.
#: 3: keys embed the timing-model fingerprint
#:    (:func:`repro.statics.fingerprint.model_fingerprint`), so timing
#:    edits orphan stale records without a manual schema bump; records
#:    grew the model_fingerprint column.
#: 4: SimParams grew the ``policy`` axis (declarative per-region
#:    protection, :mod:`repro.policy`): every key payload now carries a
#:    policy entry (null for unpolicied jobs) with the display-only
#:    policy ``name`` stripped, and the plain baseline of policied jobs
#:    is the *unobfuscated* program.
#: 5: records' ``key_failure`` is the exact probability that a PUF key
#:    readout misses the noiseless key
#:    (:meth:`~repro.puf.key_generator.PufKeyGenerator.failure_probability`),
#:    no longer a 40-readout Monte Carlo estimate.
KEY_SCHEMA = 5

#: Named SoC pipeline variants a job may select.  Names (not
#: :class:`PipelineModel` instances) travel in :class:`SimParams` so
#: specs stay JSON-serializable and hash stably.
PIPELINE_VARIANTS: dict[str, PipelineModel] = {
    "default": PipelineModel(),
    "slow-divider": PipelineModel(div_latency=64, div32_latency=32),
    "fast-memory": PipelineModel(miss_penalty=8),
    "slow-memory": PipelineModel(miss_penalty=60),
    "costly-flush": PipelineModel(flush_penalty=4),
}


def _registry():
    # Imported lazily: repro.workloads pulls in every workload source.
    from repro.workloads import all_workloads
    return all_workloads()


@dataclass(frozen=True)
class SimParams:
    """Device/SoC-side knobs of one simulation (the matrix's third axis).

    Attributes:
        device_seed: selects the die (PUF identity and therefore key).
        pipeline: a :data:`PIPELINE_VARIANTS` name.
        environment: the operating point (temperature/voltage) the
            device boots at — scales PUF evaluation noise, so it is a
            measurement input like any other.
        overlapped_hde: run the HDE decrypt/signature units overlapped.
        puf_noise_sigma: nominal PUF evaluation-noise sigma.
        puf_votes: PKG majority votes per response bit.
        puf_margin_sigmas: enrollment reliability-screening threshold
            (0 disables screening — the reliability ablations' knob).
        max_instructions: simulator instruction budget.
        policy: optional :class:`~repro.policy.ProtectionPolicy` the
            job compiles under (per-region encryption, opaque-predicate
            obfuscation, overlap/signing overrides).  A measurement
            input like the config — part of the job key — except for
            its display-only ``name``.
    """

    device_seed: int = 0xFA53
    pipeline: str = "default"
    environment: Environment = NOMINAL
    overlapped_hde: bool = False
    puf_noise_sigma: float = NOISE_SIGMA
    puf_votes: int = 11
    puf_margin_sigmas: float = MARGIN_SIGMAS
    max_instructions: int = 20_000_000
    policy: ProtectionPolicy | None = None

    def validate(self) -> "SimParams":
        if not isinstance(self.device_seed, int) \
                or isinstance(self.device_seed, bool):
            raise ConfigError(
                f"device_seed must be an integer, got "
                f"{self.device_seed!r}")
        if self.pipeline not in PIPELINE_VARIANTS:
            raise ConfigError(
                f"unknown pipeline variant {self.pipeline!r}; "
                f"available: {sorted(PIPELINE_VARIANTS)}")
        if not isinstance(self.environment, Environment):
            raise ConfigError(
                f"environment must be an Environment, got "
                f"{self.environment!r}")
        self.environment.validate()
        if self.puf_noise_sigma < 0:
            raise ConfigError("puf_noise_sigma must be non-negative")
        if self.puf_votes < 1 or self.puf_votes % 2 == 0:
            raise ConfigError("puf_votes must be a positive odd number")
        if self.puf_margin_sigmas < 0:
            raise ConfigError("puf_margin_sigmas must be non-negative")
        if self.max_instructions < 1:
            raise ConfigError("max_instructions must be positive")
        if self.policy is not None:
            if not isinstance(self.policy, ProtectionPolicy):
                raise ConfigError(
                    f"policy must be a ProtectionPolicy or None, got "
                    f"{self.policy!r}")
            self.policy.validate()
        return self

    def pipeline_model(self) -> PipelineModel:
        return PIPELINE_VARIANTS[self.pipeline]

    @classmethod
    def from_dict(cls, data: dict) -> "SimParams":
        """Revive ``asdict(params)`` output (shard specs, store records)."""
        if not isinstance(data, dict):
            raise ConfigError(f"params must be an object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown params keys {sorted(unknown)}; "
                              f"known: {sorted(known)}")
        options = dict(data)
        environment = options.pop("environment", None)
        if environment is not None:
            options["environment"] = Environment.from_dict(environment)
        policy = options.pop("policy", None)
        if policy is not None:
            options["policy"] = policy_from_dict(policy)
        return cls(**options).validate()


def job_key(*, model: str | None, source_digest: str, config: dict,
            params: dict, simulate: bool, analyze: bool,
            repeats: int) -> str:
    """The content address (SHA-256 hex) of one measurement's inputs.

    ``params`` is ``asdict(SimParams)``; a policy's display-only
    ``name`` is stripped here.  :meth:`JobSpec.key` passes a spec's own
    fields; ``eric doctor --fingerprint`` passes a stored record's, so
    a record that no current derivation reaches shows as orphaned.
    """
    policy = params.get("policy")
    if policy is not None:
        params = {**params, "policy": {name: value for name, value
                                       in policy.items() if name != "name"}}
    payload = {
        "schema": KEY_SCHEMA,
        "model": model,
        "source": source_digest,
        "config": config,
        "params": params,
        "simulate": simulate,
        "analyze": analyze,
        "repeats": repeats,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One farm job: measure a (program, config, device) combination.

    Exactly one of ``workload`` (a registry name) or ``source`` (inline
    MiniC text) must be set.  ``name`` is display-only and deliberately
    excluded from the job key: renaming a job must not re-measure it.

    ``simulate=False`` jobs stop after packaging (enough for the size
    and compile-time figures); ``analyze=True`` additionally runs the
    static attacker over the ciphertext and records its metrics.
    ``repeats`` re-runs the timed compile+package stages and keeps the
    minimum (the Fig. 6 protocol).
    """

    workload: str | None = None
    source: str | None = None
    name: str | None = None
    config: EricConfig = EricConfig()
    params: SimParams = SimParams()
    simulate: bool = True
    analyze: bool = False
    repeats: int = 1

    def validate(self) -> "JobSpec":
        if (self.workload is None) == (self.source is None):
            raise ConfigError(
                "a JobSpec needs exactly one of workload= or source=")
        if self.workload is not None and self.workload not in _registry():
            raise ConfigError(
                f"unknown workload {self.workload!r}; "
                f"available: {sorted(_registry())}")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        self.config.validate()
        self.params.validate()
        return self

    @property
    def display_name(self) -> str:
        return self.name or self.workload or "program"

    def resolve_source(self) -> tuple[str, str | None]:
        """The MiniC text and, for registry workloads, the exact
        expected stdout (the oracle the record's ``stdout_ok`` checks)."""
        if self.workload is not None:
            workload = _registry()[self.workload]
            return workload.source, workload.expected_stdout
        return self.source, None

    def key(self) -> str:
        """Content address of this measurement (SHA-256 hex).

        Covers everything the outcome depends on — and nothing else:
        ``name`` is cosmetic, and a registry workload hashes identically
        to the same source passed inline.  The same discipline applies
        one level down: a policy's ``name`` is display-only, so the
        params payload strips it — renaming a policy must not
        re-measure its jobs any more than renaming the job itself.

        Memoized per instance (the spec is frozen, so the address can
        never change): sharding re-derives keys at plan, dispatch, and
        merge time, and hashing the full source each time would scale
        poorly with fleet-size matrices.  The memo is keyed on
        :data:`KEY_SCHEMA` so a schema bump re-addresses even
        already-hashed specs.
        """
        cached = self.__dict__.get("_key_memo")
        if cached is not None and cached[0] == KEY_SCHEMA:
            return cached[1]
        # Imported lazily so that building a spec stays cheap; the
        # fingerprint itself is memoized per process.
        from repro.statics.fingerprint import model_fingerprint
        source, _ = self.resolve_source()
        digest = job_key(
            model=model_fingerprint(),
            source_digest=hashlib.sha256(source.encode("utf-8")).hexdigest(),
            config=config_to_dict(self.config), params=asdict(self.params),
            simulate=self.simulate, analyze=self.analyze,
            repeats=self.repeats)
        object.__setattr__(self, "_key_memo", (KEY_SCHEMA, digest))
        return digest

    def to_dict(self) -> dict:
        """JSON-portable form; ``from_dict`` revives it key-identically.

        Unlike the ``eric sweep`` dialect (a grid description), this is
        one fully-expanded job — the currency shard specs ship in.
        """
        return {
            "workload": self.workload,
            "source": self.source,
            "name": self.name,
            "config": config_to_dict(self.config),
            "params": asdict(self.params),
            "simulate": self.simulate,
            "analyze": self.analyze,
            "repeats": self.repeats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"job entry must be an object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown job keys {sorted(unknown)}; "
                              f"known: {sorted(known)}")
        options = dict(data)
        options["config"] = config_from_dict(options.get("config", {}))
        options["params"] = SimParams.from_dict(options.get("params", {}))
        return cls(**options).validate()


@dataclass(frozen=True)
class JobMatrix:
    """A workload × config × parameter grid, expanded deterministically.

    ``jobs()`` is workload-major (all configs and parameter sets of one
    program are adjacent) and stable across runs — the expansion order
    is part of the farm's reporting contract.
    """

    workloads: tuple[str, ...] = ()
    #: inline programs as (name, source) pairs
    programs: tuple[tuple[str, str], ...] = ()
    configs: tuple[EricConfig, ...] = (EricConfig(),)
    params: tuple[SimParams, ...] = (SimParams(),)
    simulate: bool = True
    analyze: bool = False
    repeats: int = 1

    def jobs(self) -> tuple[JobSpec, ...]:
        if not self.workloads and not self.programs:
            raise ConfigError("empty matrix: no workloads or programs")
        if not self.configs or not self.params:
            raise ConfigError("empty matrix: no configs or params")
        specs = []
        named: list[tuple[str, str | None, str | None]] = (
            [(name, name, None) for name in self.workloads]
            + [(name, None, source) for name, source in self.programs])
        for (name, workload, source), config, params in product(
                named, self.configs, self.params):
            specs.append(JobSpec(
                workload=workload, source=source, name=name,
                config=config, params=params, simulate=self.simulate,
                analyze=self.analyze, repeats=self.repeats).validate())
        return tuple(specs)

    @property
    def job_count(self) -> int:
        return ((len(self.workloads) + len(self.programs))
                * len(self.configs) * len(self.params))

    @classmethod
    def from_spec(cls, spec: dict) -> "JobMatrix":
        """Parse the ``eric sweep`` JSON dialect.

        ::

            {
              "workloads": ["crc32", "fft"],
              "programs": [{"name": "hello", "source": "int main() ..."}],
              "configs": [{}, {"mode": "partial", "partial_fraction": 0.25}],
              "device_seeds": [64083],
              "pipelines": ["default"],
              "environments": [{}, {"temperature_c": 85.0, "voltage": 0.9}],
              "overlapped_hde": [false, true],
              "policies": [null, {"name": "locked", "encrypt": [...]}],
              "max_instructions": 20000000,
              "simulate": true,
              "analyze": false,
              "repeats": 1
            }

        Every key is optional except at least one of
        ``workloads``/``programs``.  ``configs`` entries use the same
        schema as ``eric describe --config`` files.

        ``environments`` entries hold any of ``temperature_c`` /
        ``voltage`` / ``frequency_mhz`` (missing keys default to the
        nominal 25 C / 1.00 V point, so ``{}`` is nominal).
        ``overlapped_hde`` is a sweep axis: a list of booleans expands
        the parameter grid; a bare boolean (the pre-``environments``
        scalar form) still means a single-value axis.

        ``policies`` entries are protection-policy objects in the
        ``docs/policy.md`` dialect; ``null`` means "no policy" (the
        plain ERIC flow), so ``[null, {...}]`` sweeps unprotected vs
        protected in one matrix.
        """
        known = {"workloads", "programs", "configs", "device_seeds",
                 "pipelines", "environments", "overlapped_hde",
                 "policies", "max_instructions", "simulate", "analyze",
                 "repeats"}
        if not isinstance(spec, dict):
            raise ConfigError("sweep spec must be a JSON object")
        unknown = set(spec) - known
        if unknown:
            raise ConfigError(f"unknown sweep keys {sorted(unknown)}; "
                              f"known: {sorted(known)}")
        programs = []
        for entry in spec.get("programs", []):
            if (not isinstance(entry, dict)
                    or set(entry) != {"name", "source"}):
                raise ConfigError(
                    'each program needs exactly {"name": ..., "source": ...}')
            programs.append((entry["name"], entry["source"]))
        configs = tuple(config_from_dict(options)
                        for options in spec.get("configs", [{}]))
        environments = spec.get("environments", [{}])
        if not isinstance(environments, list) or not environments:
            raise ConfigError(
                f"environments must be a non-empty list of objects, "
                f"got {environments!r}")
        policies = spec.get("policies", [None])
        if not isinstance(policies, list) or not policies:
            raise ConfigError(
                f"policies must be a non-empty list of policy objects "
                f"or nulls, got {policies!r}")
        policy_axis = tuple(
            None if entry is None else policy_from_dict(entry)
            for entry in policies)
        params = tuple(
            SimParams(
                device_seed=seed, pipeline=pipeline,
                environment=Environment.from_dict(environment),
                overlapped_hde=overlapped, policy=policy,
                max_instructions=_int_option(spec, "max_instructions",
                                             20_000_000),
            ).validate()
            for seed, pipeline, environment, overlapped, policy in product(
                [_parse_seed(seed)
                 for seed in spec.get("device_seeds",
                                      [SimParams.device_seed])],
                spec.get("pipelines", ["default"]),
                environments,
                _bool_axis(spec, "overlapped_hde", False),
                policy_axis)
        )
        matrix = cls(
            workloads=tuple(spec.get("workloads", ())),
            programs=tuple(programs),
            configs=configs,
            params=params,
            simulate=bool(spec.get("simulate", True)),
            analyze=bool(spec.get("analyze", False)),
            repeats=_int_option(spec, "repeats", 1),
        )
        matrix.jobs()  # validates workload names, fractions, emptiness
        return matrix


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous slice of a matrix's sorted, deduplicated key space.

    Self-contained by design: ``jobs`` carries every job of the slice in
    full (via :meth:`JobSpec.to_dict`), so the JSON form can be shipped
    to another machine and executed there by ``eric worker`` without the
    original sweep spec.  ``start``/``stop`` are the slice's first and
    last job keys (inclusive); the worker re-derives each job's key and
    refuses a shard whose keys fall outside the range — the signature
    of a spec planned by a different code version.
    """

    index: int
    count: int
    start: str
    stop: str
    jobs: tuple[JobSpec, ...]

    def validate(self) -> "ShardSpec":
        # type-check first: hand-edited/truncated shard.json must fail
        # with the curated ConfigError path, not a raw TypeError
        for label, value in (("index", self.index), ("count", self.count)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(
                    f"shard {label} must be an integer, got {value!r}")
        for label, value in (("start", self.start), ("stop", self.stop)):
            if not isinstance(value, str):
                raise ConfigError(
                    f"shard {label} must be a job-key string, "
                    f"got {value!r}")
        if not 0 <= self.index < self.count:
            raise ConfigError(
                f"shard index {self.index} out of range for "
                f"{self.count} shard(s)")
        if not self.jobs:
            raise ConfigError(f"shard {self.index} carries no jobs")
        if self.start > self.stop:
            raise ConfigError(
                f"shard {self.index} has an inverted key range "
                f"{self.start[:12]}..{self.stop[:12]}")
        for job in self.jobs:
            key = job.key()
            if not self.start <= key <= self.stop:
                raise ConfigError(
                    f"job {job.display_name!r} (key {key[:12]}) falls "
                    f"outside shard {self.index}'s range "
                    f"{self.start[:12]}..{self.stop[:12]}; the shard "
                    f"spec was planned by a different code version")
        return self

    def to_spec(self) -> dict:
        """The JSON document ``eric worker`` consumes."""
        from repro.statics.fingerprint import model_fingerprint
        return {
            "kind": "eric-shard",
            "key_schema": KEY_SCHEMA,
            "model_fingerprint": model_fingerprint(),
            "index": self.index,
            "count": self.count,
            "start": self.start,
            "stop": self.stop,
            "jobs": [job.to_dict() for job in self.jobs],
        }

    @classmethod
    def from_spec(cls, data: dict) -> "ShardSpec":
        if not isinstance(data, dict) or data.get("kind") != "eric-shard":
            raise ConfigError(
                'not a shard spec: expected {"kind": "eric-shard", ...}')
        schema = data.get("key_schema")
        if schema != KEY_SCHEMA:
            raise ConfigError(
                f"shard spec was planned under KEY_SCHEMA={schema!r}, "
                f"this farm addresses jobs under KEY_SCHEMA={KEY_SCHEMA}; "
                f"re-plan the sweep")
        from repro.statics.fingerprint import model_fingerprint
        pinned = data.get("model_fingerprint")
        if pinned != model_fingerprint():
            raise ConfigError(
                f"shard spec was planned against timing-model "
                f"fingerprint {str(pinned)[:16]!r}, this tree computes "
                f"{model_fingerprint()[:16]!r}; the timing model "
                f"changed since planning — re-plan the sweep")
        required = {"index", "count", "start", "stop", "jobs"}
        missing = required - set(data)
        if missing:
            raise ConfigError(f"shard spec misses {sorted(missing)}")
        jobs = data["jobs"]
        if not isinstance(jobs, list):
            raise ConfigError(f"shard jobs must be a list, got {jobs!r}")
        return cls(
            index=data["index"], count=data["count"],
            start=data["start"], stop=data["stop"],
            jobs=tuple(JobSpec.from_dict(job) for job in jobs),
        ).validate()


@dataclass(frozen=True)
class ShardPlan:
    """A matrix partitioned into contiguous key ranges for distribution.

    The partition is a pure function of the matrix content: jobs are
    deduplicated by key, the keys sorted, and the sorted sequence cut
    into ``count`` near-even contiguous slices.  Keys are content
    addresses, so the same matrix yields the same plan on every machine
    and every run — the coordinator and remote workers never have to
    negotiate an assignment.
    """

    shards: tuple[ShardSpec, ...]

    @property
    def count(self) -> int:
        return len(self.shards)

    @property
    def job_count(self) -> int:
        """Deduplicated jobs across all shards."""
        return sum(len(shard.jobs) for shard in self.shards)

    @classmethod
    def partition(cls, matrix: "JobMatrix | tuple[JobSpec, ...] | list[JobSpec]",
                  shards: int) -> "ShardPlan":
        """Cut ``matrix`` into at most ``shards`` contiguous key ranges.

        Fewer unique keys than requested shards yields one single-job
        shard per key (never an empty shard).
        """
        if shards < 1:
            raise ConfigError("shards must be at least 1")
        specs = (matrix.jobs() if isinstance(matrix, JobMatrix)
                 else tuple(s.validate() for s in matrix))
        if not specs:
            raise ConfigError("nothing to shard: empty job list")
        by_key: dict[str, JobSpec] = {}
        for spec in specs:
            by_key.setdefault(spec.key(), spec)
        keys = sorted(by_key)
        count = min(shards, len(keys))
        base, extra = divmod(len(keys), count)
        out = []
        position = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            chunk = keys[position:position + size]
            position += size
            out.append(ShardSpec(
                index=index, count=count, start=chunk[0], stop=chunk[-1],
                jobs=tuple(by_key[key] for key in chunk)).validate())
        return cls(shards=tuple(out))


def _parse_seed(seed) -> int:
    """Accept JSON integers and "0x…" strings (JSON has no hex)."""
    if isinstance(seed, bool):
        raise ConfigError(f"device_seeds entries must be integers, "
                          f"got {seed!r}")
    if isinstance(seed, int):
        return seed
    if isinstance(seed, str):
        try:
            return int(seed, 0)
        except ValueError:
            pass
    raise ConfigError(f"device_seeds entries must be integers or "
                      f"0x-strings, got {seed!r}")


def _int_option(spec: dict, key: str, default: int) -> int:
    value = spec.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _bool_axis(spec: dict, key: str, default: bool) -> tuple[bool, ...]:
    """A sweep axis that historically was a scalar: a bare boolean still
    parses (as a single-value axis), a list of booleans sweeps."""
    value = spec.get(key, default)
    if isinstance(value, bool):
        return (value,)
    if (isinstance(value, list) and value
            and all(isinstance(v, bool) for v in value)):
        return tuple(value)
    raise ConfigError(
        f"{key} must be a boolean or a non-empty list of booleans, "
        f"got {value!r}")
