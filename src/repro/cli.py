"""``eric`` — command-line front end (the paper's GUI, headless).

Subcommands::

    eric describe --config cfg.json       show an encryption configuration
    eric package  prog.c -o prog.eric     compile+sign+encrypt a program
    eric fleet    prog.c --devices 10     compile once, deploy to a fleet
    eric run      prog.eric               decrypt+validate+run on a device
    eric inspect  prog.eric               parse a package header
    eric disasm   prog.c                  compile and disassemble (plain)
    eric eval     [fig7 ...] --jobs 4     regenerate paper tables/figures
    eric sweep    matrix.json --jobs 4    run a simulation-farm matrix
    eric sweep    matrix.json --shards 4  shard it over coordinated workers
    eric frontier matrix.json             security-vs-overhead per policy
    eric worker   shard.json --store DIR  run one shard (e.g. remotely)
    eric serve    --fleets fleets.json    schedule many fleets over one farm
    eric daemon   --journal DIR           durable serve loop (submit/resume)
    eric submit   spec.json --journal DIR journal fleet requests for a daemon
    eric status   --journal DIR           journal state, no daemon needed
    eric doctor   --store DIR             store health report, no sweep
    eric doctor   --journal DIR           ... plus request-journal health
    eric doctor   --store DIR --fingerprint  ... plus drift and orphan audit
    eric lint     [--rule NAME] [paths]   project AST lint rules
    eric fingerprint [--explain]          timing-model fingerprint
    eric docs-cli                         regenerate docs/cli.md content

Device identity is simulated: ``--device-seed`` selects the die.  The
same seed on ``package`` and ``run`` is the happy path; different seeds
demonstrate the two-way authentication failure.  ``fleet`` takes either
``--devices N`` (seeds ``--seed-base .. --seed-base+N-1``) or an
explicit ``--device-seeds 0x10,0x11,...`` list.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.device import Device
from repro.core.interface import config_from_dict, describe
from repro.core.package import ProgramPackage
from repro.errors import EricError
from repro.service.session import DeploymentSession


def _load_json(path: str, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise EricError(f"{what} {path!r} is not valid JSON: "
                            f"{exc}") from None


def _load_config(path: str | None):
    if path is None:
        return config_from_dict({})
    return config_from_dict(_load_json(path, "config file"))


def _cmd_describe(args: argparse.Namespace) -> int:
    print(describe(_load_config(args.config)))
    return 0


def _cmd_package(args: argparse.Namespace) -> int:
    with open(args.source, "r", encoding="utf-8") as handle:
        source = handle.read()
    config = _load_config(args.config)
    device = Device(device_seed=args.device_seed)
    # package_for goes through the session's DeviceRegistry, so the CLI
    # exercises the same step-① enrollment path as deploy().
    session = DeploymentSession(config)
    result = session.package_for(source, device, name=args.source)
    with open(args.output, "wb") as handle:
        handle.write(result.package_bytes)
    t = result.timings
    print(f"packaged {args.source} -> {args.output}")
    print(f"  plain size   : {result.plain_size} B")
    print(f"  package size : {result.package_size} B "
          f"({100 * result.size_increase_fraction:+.2f}%)")
    print(f"  stages       : compile {t.compile_s * 1e3:.1f} ms, "
          f"sign {t.signature_s * 1e3:.1f} ms, "
          f"encrypt {t.encryption_s * 1e3:.1f} ms")
    return 0


def _fleet_seeds(args: argparse.Namespace) -> list[int]:
    if args.device_seeds is not None:
        try:
            return [int(s, 0) for s in args.device_seeds.split(",")
                    if s.strip()]
        except ValueError:
            raise EricError(
                f"bad --device-seeds {args.device_seeds!r}: expected "
                "comma-separated integers (0x... allowed)") from None
    return [args.seed_base + i for i in range(args.devices)]


def _cmd_fleet(args: argparse.Namespace) -> int:
    with open(args.source, "r", encoding="utf-8") as handle:
        source = handle.read()
    seeds = _fleet_seeds(args)
    # an empty fleet raises EricError in deploy_fleet, which main()
    # renders as a clean "eric: error:" line
    session = DeploymentSession(_load_config(args.config))
    devices = [Device(device_seed=seed) for seed in seeds]
    report = session.deploy_fleet(
        source, devices, name=args.source,
        max_instructions=args.max_instructions)
    print(report.summary())
    stats = session.cache_stats
    print(f"  compiles     : {stats.compiles} "
          f"(cache {stats.hits} hits / {stats.misses} misses)")
    for outcome in report.succeeded:
        print(f"  {outcome.device_id}: exit "
              f"{outcome.result.exit_code}, "
              f"{outcome.result.total_cycles} cycles")
    return 0 if report.all_ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.package, "rb") as handle:
        blob = handle.read()
    device = Device(device_seed=args.device_seed)
    outcome = device.load_and_run(blob,
                                  max_instructions=args.max_instructions)
    sys.stdout.write(outcome.run.stdout)
    print(f"[exit {outcome.run.exit_code}; "
          f"hde {outcome.hde.total_cycles} + "
          f"run {outcome.run.counters.cycles} cycles]")
    return outcome.run.exit_code


def _cmd_inspect(args: argparse.Namespace) -> int:
    with open(args.package, "rb") as handle:
        package = ProgramPackage.deserialize(handle.read())
    print(f"mode          : {package.mode.value}")
    print(f"cipher        : {package.cipher}")
    if package.field_classes:
        print(f"field classes : {', '.join(package.field_classes)}")
    print(f"entry         : {package.entry:#x}")
    print(f"text          : {len(package.enc_text)} B at "
          f"{package.text_base:#x}")
    print(f"data          : {len(package.data)} B at "
          f"{package.data_base:#x} "
          f"({'signed' if package.data_signed else 'unsigned'})")
    print(f"instructions  : {package.enc_map.count} "
          f"({package.enc_map.encrypted_count} encrypted)")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.cc.driver import compile_source
    from repro.isa.disassembler import disassemble_text

    with open(args.source, "r", encoding="utf-8") as handle:
        source = handle.read()
    program = compile_source(source, name=args.source,
                             compress=args.compress).program
    for line in disassemble_text(program.text, program.text_base):
        print(line)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.eval.__main__ import main as eval_main

    argv = list(args.experiments) + ["--jobs", str(args.jobs)]
    if args.store:
        argv += ["--store", args.store]
    if args.shards:
        argv += ["--shards", str(args.shards)]
    if args.force:
        argv.append("--force")
    return eval_main(argv)


def _warn_skipped_lines(store) -> None:
    """Surface corrupt/schema-mismatched store lines (silently skipped
    at load) so operators know the file carries dead weight."""
    warning = store.skipped_warning() if store is not None else None
    if warning:
        print(f"eric: warning: {warning}", file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.farm import JobMatrix, ResultStore, SimulationFarm
    from repro.obs import METRICS, StagePrinter, Tracer

    if args.compact and args.no_store:
        raise EricError("--compact rewrites the result store; "
                        "drop --no-store to use it")
    if args.shards and args.no_store:
        raise EricError("--shards merges shard stores into the main "
                        "store; drop --no-store to use it")
    if (args.trace or args.metrics) and args.no_store:
        raise EricError("--trace/--metrics persist next to the result "
                        "store; drop --no-store to use them")
    matrix = JobMatrix.from_spec(_load_json(args.spec, "sweep spec"))
    store = None if args.no_store else ResultStore(args.store)
    _warn_skipped_lines(store)
    tracer = Tracer(store.root) if args.trace else None
    farm = SimulationFarm(store=store, jobs=args.jobs, shards=args.shards,
                          shard_root=args.shard_root, tracer=tracer)
    if not args.quiet:
        # a sharded sweep's per-job events stay inside the worker
        # processes; narrate shard completions instead
        farm.tracer.add_sink(StagePrinter(
            stages="farm.shard" if args.shards else "farm.job"))
    report = farm.run(matrix, force=args.force)
    print(report.render())
    print(report.summary())
    print(report.profile_summary())
    if args.shards:
        for index, stats in enumerate(farm.last_merge):
            print(f"shard {index + 1}/{len(farm.last_merge)} merged: "
                  f"{stats.describe()}")
    if store is not None:
        if args.compact:
            print(f"store compacted: {store.compact()} live record(s)")
        print(f"store: {store.path} ({len(store)} records)")
    if tracer is not None:
        print(f"trace: {tracer.path}")
    if args.metrics:
        print(f"metrics: {METRICS.dump(store.root)}")
    return 0 if not report.failures else 1


def _cmd_frontier(args: argparse.Namespace) -> int:
    from repro.eval.frontier import frontier_report
    from repro.farm import JobMatrix, ResultStore, SimulationFarm
    from repro.obs import StagePrinter

    spec = _load_json(args.spec, "frontier spec")
    matrix = JobMatrix.from_spec(spec)
    # the frontier scores overhead *and* attacker resistance; a matrix
    # that skips either measurement cannot be scored, so fail before
    # spending any simulation time rather than after
    if not matrix.simulate or not matrix.analyze:
        raise EricError('frontier specs must set "simulate": true and '
                        '"analyze": true — the table scores both '
                        "overhead and attacker resistance")
    store = None if args.no_store else ResultStore(args.store)
    _warn_skipped_lines(store)
    farm = SimulationFarm(store=store, jobs=args.jobs)
    if not args.quiet:
        farm.tracer.add_sink(StagePrinter(stages="farm.job"))
    report = farm.run(matrix, force=args.force)
    if report.failures:
        for failure in report.failures:
            print(f"  FAILED {failure.spec.display_name}: "
                  f"{failure.error}", file=sys.stderr)
        return 1
    print(frontier_report(report).render(stable=args.stable))
    print(report.summary())
    if store is not None:
        print(f"store: {store.path} ({len(store)} records)")
    return 0


def _cmd_docs_cli(args: argparse.Namespace) -> int:
    from repro.cli_docs import render_cli_docs

    text = render_cli_docs(build_parser())
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            committed = handle.read()
        if committed != text:
            print(f"eric: error: {args.check} is stale — regenerate "
                  f"with: eric docs-cli > {args.check}",
                  file=sys.stderr)
            return 1
        print(f"{args.check} is current")
        return 0
    print(text, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.farm import ResultStore
    from repro.obs import METRICS, StagePrinter, Tracer
    from repro.service.scheduler import FleetScheduler, load_fleet_specs

    if args.shards and args.no_store:
        raise EricError("--shards merges shard stores into the main "
                        "store; drop --no-store to use it")
    if (args.trace or args.metrics) and args.no_store:
        raise EricError("--trace/--metrics persist next to the result "
                        "store; drop --no-store to use them")
    requests = load_fleet_specs(_load_json(args.fleets, "fleets spec"))
    store = None if args.no_store else ResultStore(args.store)
    _warn_skipped_lines(store)
    tracer = Tracer(store.root) if args.trace else None
    scheduler = FleetScheduler(store=store, jobs=args.jobs,
                               shards=args.shards,
                               shard_root=args.shard_root, tracer=tracer)
    if not args.quiet:
        scheduler.tracer.add_sink(StagePrinter(stages="scheduler."))
    report = scheduler.run(requests, force=args.force)
    for fleet in report.fleets:
        print(fleet.summary())
        # failed jobs exit nonzero below; name each one so the
        # operator does not have to re-run with narration on
        for failure in fleet.failures:
            print(f"  FAILED {fleet.name}/"
                  f"{failure.spec.display_name}: {failure.error}")
    print(report.summary())
    if store is not None:
        print(f"store: {store.path} ({len(store)} records)")
    if tracer is not None:
        print(f"trace: {tracer.path}")
    if args.metrics:
        print(f"metrics: {METRICS.dump(store.root)}")
    return 0 if report.all_ok else 1


def _cmd_daemon(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.farm import ResultStore
    from repro.obs import StagePrinter, Tracer
    from repro.service.daemon import (AdmissionPolicy, JournalStore,
                                      ServeDaemon, submit_fleets)

    if args.shards and args.no_store:
        raise EricError("--shards merges shard stores into the main "
                        "store; drop --no-store to use it")

    journal = JournalStore(args.journal)
    _warn_skipped_lines(journal)
    if args.fleets:
        records = submit_fleets(
            journal, _load_json(args.fleets, "fleets spec"),
            tenant=args.tenant, priority=args.priority)
        for record in records:
            print(f"submitted {record.request_id}: fleet "
                  f"{record.fleet_name!r} ({record.total_jobs} job(s))")
    store = None if args.no_store else ResultStore(args.store)
    _warn_skipped_lines(store)
    tracer = Tracer(journal.root) if args.trace else None
    daemon = ServeDaemon(
        journal, store=store,
        policy=AdmissionPolicy(
            max_pending_jobs=args.max_pending_jobs,
            tenant_quota=args.tenant_quota, overflow=args.overflow,
            retry_after_s=args.retry_after),
        jobs=args.jobs, shards=args.shards, shard_root=args.shard_root,
        max_active=args.max_active,
        checkpoint_every=args.checkpoint_every,
        poll_interval=args.poll_interval, tracer=tracer,
        metrics_interval=args.metrics_interval)
    if not args.quiet:
        daemon.tracer.add_sink(StagePrinter(stages="daemon."))

    async def _run():
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum,
                                        daemon.request_shutdown)
            except (NotImplementedError, ValueError):
                # non-main thread or exotic loop: the sync handler
                # still only flips a flag, which is signal-safe
                signal.signal(signum,
                              lambda *_: daemon.request_shutdown())
        return await daemon.run(once=args.once)

    report = asyncio.run(_run())
    print(report.summary())
    print(f"journal: {journal.path} ({len(journal)} request(s))")
    if store is not None:
        print(f"store: {store.path} ({len(store)} records)")
    if tracer is not None:
        print(f"trace: {tracer.path}")
    return 0 if report.all_ok else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.daemon import JournalStore, submit_fleets

    journal = JournalStore(args.journal)
    _warn_skipped_lines(journal)
    records = submit_fleets(
        journal, _load_json(args.spec, "submission spec"),
        tenant=args.tenant, priority=args.priority)
    for record in records:
        print(f"submitted {record.request_id}: fleet "
              f"{record.fleet_name!r} ({record.total_jobs} job(s), "
              f"tenant {record.tenant}, priority {record.priority})")
    print(f"journal: {journal.path} ({len(journal)} request(s))")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service.daemon import JournalStore, format_status

    journal = JournalStore(args.journal)
    if args.compact:
        print(f"journal compacted: {journal.compact()} request "
              f"line(s)")
    print(format_status(journal))
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.farm.doctor import diagnose_store

    diagnosis = diagnose_store(args.store, shard_root=args.shard_root)
    print(diagnosis.describe())
    healthy = diagnosis.healthy
    if args.fingerprint:
        from repro.farm.doctor import audit_fingerprints

        audit = audit_fingerprints(args.store)
        print(audit.describe())
        healthy = healthy and audit.healthy
    if args.journal:
        from repro.service.daemon import diagnose_journal

        journal_diagnosis = diagnose_journal(
            args.journal, stale_after_s=args.stale_after)
        print(journal_diagnosis.describe())
        healthy = healthy and journal_diagnosis.healthy
    if args.trace:
        from repro.obs import diagnose_trace

        trace_diagnosis = diagnose_trace(args.trace)
        print(trace_diagnosis.describe())
        healthy = healthy and trace_diagnosis.healthy
    return 0 if healthy else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.statics import all_rules, lint_paths

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name}: {rule.description}")
        return 0
    try:
        findings = lint_paths(paths=args.paths or None, rule=args.rule)
    except ValueError as exc:  # unknown --rule name
        raise EricError(str(exc)) from None
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    from repro.statics import FingerprintReport, fingerprint_report

    report = fingerprint_report()
    if args.diff:
        try:
            old = FingerprintReport.from_dict(
                _load_json(args.diff, "fingerprint report"))
        except ValueError as exc:
            raise EricError(f"{args.diff}: {exc}") from None
        print(report.diff(old))
        return 0 if old.fingerprint == report.fingerprint else 1
    if args.json:
        print(report.to_json())
    elif args.explain:
        print(report.explain())
    else:
        print(report.fingerprint)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render_traces

    print(render_traces(args.dir, trace_id=args.trace_id))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import load_metrics, render_snapshot

    try:
        snapshot = load_metrics(args.dir)
    except ValueError as exc:
        raise EricError(str(exc)) from None
    print(render_snapshot(snapshot), end="")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.farm.worker import main as worker_main

    argv = [args.shard, "--store", args.store, "--jobs", str(args.jobs)]
    if args.force:
        argv.append("--force")
    if args.quiet:
        argv.append("--quiet")
    return worker_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eric",
        description="ERIC software-obfuscation framework (reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="show an encryption configuration")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("package", help="compile+sign+encrypt a program")
    p.add_argument("source", help="MiniC source file")
    p.add_argument("-o", "--output", default="program.eric")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--device-seed", type=lambda s: int(s, 0),
                   default=0xC0FFEE)
    p.set_defaults(func=_cmd_package)

    p = sub.add_parser("fleet",
                       help="compile once, deploy to a whole fleet")
    p.add_argument("source", help="MiniC source file")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--devices", type=int, default=4,
                   help="fleet size (seeds seed-base..seed-base+N-1)")
    p.add_argument("--seed-base", type=lambda s: int(s, 0),
                   default=0xF1EE7)
    p.add_argument("--device-seeds",
                   help="explicit comma-separated seed list (overrides "
                        "--devices/--seed-base)")
    p.add_argument("--max-instructions", type=int, default=20_000_000)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser("run", help="decrypt+validate+run a package")
    p.add_argument("package", help=".eric package file")
    p.add_argument("--device-seed", type=lambda s: int(s, 0),
                   default=0xC0FFEE)
    p.add_argument("--max-instructions", type=int, default=20_000_000)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("inspect", help="parse a package header")
    p.add_argument("package")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("disasm", help="compile and disassemble (plain)")
    p.add_argument("source")
    p.add_argument("--compress", action="store_true")
    p.set_defaults(func=_cmd_disasm)

    p = sub.add_parser("eval", help="regenerate paper tables/figures")
    p.add_argument("experiments", nargs="*",
                   help="table1 table2 fig5 fig6 fig7 (default: all)")
    p.add_argument("--jobs", type=int, default=1,
                   help="simulation-farm worker processes (default 1)")
    p.add_argument("--store",
                   help="farm result store directory to resume from")
    p.add_argument("--shards", type=int, default=0,
                   help="shard farm matrices over N coordinated worker "
                        "processes (requires --store)")
    p.add_argument("--force", action="store_true",
                   help="re-measure even stored results")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "sweep",
        help="run a workload x config x device matrix on the farm")
    p.add_argument("spec", help="JSON matrix spec (see repro.farm."
                                "JobMatrix.from_spec)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1); with --shards, "
                        "processes per shard")
    p.add_argument("--store", default="benchmarks/results/farm",
                   help="result-store directory "
                        "(default: benchmarks/results/farm)")
    p.add_argument("--shards", type=int, default=0,
                   help="shard the matrix's key space over N "
                        "coordinated workers, then merge their stores "
                        "(0 = unsharded)")
    p.add_argument("--shard-root",
                   help="per-shard store/spec directory "
                        "(default: <store>/shards)")
    p.add_argument("--no-store", action="store_true",
                   help="measure in-memory; skip and persist nothing")
    p.add_argument("--force", action="store_true",
                   help="re-measure (and re-persist) stored keys")
    p.add_argument("--compact", action="store_true",
                   help="after the sweep, rewrite the store with one "
                        "line per live key (drops superseded and "
                        "corrupt lines)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress lines")
    p.add_argument("--trace", action="store_true",
                   help="record a span per sweep/shard/job into "
                        "<store>/trace.jsonl (see eric trace)")
    p.add_argument("--metrics", action="store_true",
                   help="dump the run's metrics registry to "
                        "<store>/metrics.json (see eric metrics)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "frontier",
        help="sweep a policy matrix and render the security-vs-"
             "overhead frontier per policy")
    p.add_argument("spec",
                   help="JSON matrix spec with a policies axis; must "
                        'set "simulate": true and "analyze": true')
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1)")
    p.add_argument("--store", default="benchmarks/results/farm",
                   help="result-store directory "
                        "(default: benchmarks/results/farm)")
    p.add_argument("--no-store", action="store_true",
                   help="measure in-memory; skip and persist nothing")
    p.add_argument("--force", action="store_true",
                   help="re-measure (and re-persist) stored keys")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress lines")
    p.add_argument("--stable", action="store_true",
                   help="render with the stable-table contract (the "
                        "frontier is deterministic either way; this "
                        "asserts it)")
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser(
        "serve",
        help="multiplex many fleet deployments over one farm/store pair")
    p.add_argument("--fleets", required=True,
                   help='JSON fleets spec: {"fleets": [{"name": ..., '
                        "<sweep matrix keys>}, ...]}")
    p.add_argument("--store", default="benchmarks/results/farm",
                   help="shared result-store directory "
                        "(default: benchmarks/results/farm)")
    p.add_argument("--jobs", type=int, default=1,
                   help="farm worker processes per batch (default 1); "
                        "with --shards, processes per shard")
    p.add_argument("--shards", type=int, default=0,
                   help="shard each farm batch's key space over N "
                        "workers, then merge their stores "
                        "(0 = unsharded)")
    p.add_argument("--shard-root",
                   help="per-shard store/spec directory "
                        "(default: <store>/shards)")
    p.add_argument("--no-store", action="store_true",
                   help="measure in-memory; skip and persist nothing")
    p.add_argument("--force", action="store_true",
                   help="re-measure (and re-persist) stored keys")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-fleet/per-batch progress lines")
    p.add_argument("--trace", action="store_true",
                   help="record fleet/batch/farm/job spans into "
                        "<store>/trace.jsonl (see eric trace)")
    p.add_argument("--metrics", action="store_true",
                   help="dump the run's metrics registry to "
                        "<store>/metrics.json (see eric metrics)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "daemon",
        help="serve a durable journaled fleet queue (admission "
             "control, priorities, crash-safe resume)")
    p.add_argument("--journal", required=True,
                   help="request-journal directory (journal.jsonl)")
    p.add_argument("--fleets",
                   help="optional fleets spec to submit before serving "
                        "(same format as eric serve --fleets)")
    p.add_argument("--tenant", default="default",
                   help="tenant for --fleets submissions "
                        "(default: default)")
    p.add_argument("--priority", type=int, default=0,
                   help="priority for --fleets submissions; higher "
                        "dispatches first (default 0)")
    p.add_argument("--store", default="benchmarks/results/farm",
                   help="shared result-store directory "
                        "(default: benchmarks/results/farm)")
    p.add_argument("--no-store", action="store_true",
                   help="measure in-memory; resume loses progress")
    p.add_argument("--jobs", type=int, default=1,
                   help="farm worker processes per batch (default 1)")
    p.add_argument("--shards", type=int, default=0,
                   help="shard each farm batch's key space over N "
                        "workers, then merge their stores "
                        "(0 = unsharded)")
    p.add_argument("--shard-root",
                   help="per-shard store/spec directory "
                        "(default: <store>/shards)")
    p.add_argument("--max-active", type=int, default=4,
                   help="fleet requests served concurrently "
                        "(default 4)")
    p.add_argument("--max-pending-jobs", type=int, default=256,
                   help="admission watermark: pending-job bound across "
                        "admitted+running requests (default 256)")
    p.add_argument("--tenant-quota", type=int, default=8,
                   help="live requests allowed per tenant (default 8)")
    p.add_argument("--overflow", choices=("defer", "reject"),
                   default="defer",
                   help="watermark overflow: defer (leave submitted) "
                        "or reject with retry-after (default defer)")
    p.add_argument("--retry-after", type=float, default=30.0,
                   help="retry hint attached to rejections "
                        "(default 30s)")
    p.add_argument("--checkpoint-every", type=int, default=8,
                   help="jobs measured between journal checkpoints "
                        "(default 8); smaller = finer-grained resume")
    p.add_argument("--poll-interval", type=float, default=0.25,
                   help="idle seconds between journal polls "
                        "(default 0.25)")
    p.add_argument("--once", action="store_true",
                   help="drain the journal and exit instead of "
                        "serving forever")
    p.add_argument("--quiet", action="store_true",
                   help="suppress daemon progress lines")
    p.add_argument("--trace", action="store_true",
                   help="record one connected trace per served request "
                        "into <journal>/trace.jsonl (see eric trace)")
    p.add_argument("--metrics-interval", type=float, default=5.0,
                   help="seconds between metrics.json dumps into the "
                        "journal directory (default 5)")
    p.set_defaults(func=_cmd_daemon)

    p = sub.add_parser(
        "submit",
        help="journal fleet requests for a (possibly not yet running) "
             "daemon")
    p.add_argument("spec",
                   help="JSON spec: one fleet object or "
                        '{"fleets": [...]}')
    p.add_argument("--journal", required=True,
                   help="request-journal directory")
    p.add_argument("--tenant", default="default",
                   help="tenant the requests count against "
                        "(default: default)")
    p.add_argument("--priority", type=int, default=0,
                   help="higher dispatches first (default 0)")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "status",
        help="show journaled request states without running a daemon")
    p.add_argument("--journal", required=True,
                   help="request-journal directory")
    p.add_argument("--compact", action="store_true",
                   help="first rewrite the journal with one line per "
                        "request (drops superseded and corrupt lines)")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser(
        "doctor",
        help="report store health (schema drift, corrupt lines, shard "
             "leftovers) without running a sweep")
    p.add_argument("--store", default="benchmarks/results/farm",
                   help="result-store directory to inspect "
                        "(default: benchmarks/results/farm)")
    p.add_argument("--shard-root",
                   help="shard directory to scan for leftovers "
                        "(default: <store>/shards)")
    p.add_argument("--journal",
                   help="also diagnose a request journal (live/"
                        "terminal/corrupt counts, stuck-running "
                        "detection)")
    p.add_argument("--stale-after", type=float, default=600.0,
                   help="seconds before a running request with no "
                        "journal activity counts as stuck "
                        "(default 600)")
    p.add_argument("--trace",
                   help="also diagnose a trace directory (dangling "
                        "parents, unfinished root spans, corrupt "
                        "metrics.json)")
    p.add_argument("--fingerprint", action="store_true",
                   help="also audit live records against the current "
                        "timing-model fingerprint and key derivation "
                        "(drifted or orphaned records fail the doctor)")
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser(
        "lint",
        help="run the project lint rules (store determinism, schema "
             "pins, span hygiene, superblock codegen)")
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default: "
                        "src/ tests/ benchmarks/ examples/)")
    p.add_argument("--rule",
                   help="run only the named rule")
    p.add_argument("--list-rules", action="store_true",
                   help="list the shipped rules and exit")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "fingerprint",
        help="print the timing-model fingerprint job keys embed")
    p.add_argument("--explain", action="store_true",
                   help="also list per-module digest contributions")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON (the format "
                        "--diff consumes)")
    p.add_argument("--diff", metavar="OLD.json",
                   help="compare against a previously saved --json "
                        "report; exit 1 on drift")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser(
        "docs-cli",
        help="render docs/cli.md from the live argparse tree")
    p.add_argument("--check", metavar="DOCS.md",
                   help="diff against a committed page instead of "
                        "printing; exit 1 when it is stale")
    p.set_defaults(func=_cmd_docs_cli)

    p = sub.add_parser(
        "trace",
        help="render recorded traces as waterfalls with critical paths")
    p.add_argument("dir",
                   help="directory holding trace.jsonl (a store or "
                        "journal dir swept with --trace), or the file "
                        "itself")
    p.add_argument("--trace-id",
                   help="render only the trace whose ID starts with "
                        "this prefix")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="render a dumped metrics.json Prometheus-style")
    p.add_argument("dir",
                   help="directory holding metrics.json (or the file "
                        "itself)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "worker",
        help="run one distributed-farm shard against a local store")
    p.add_argument("shard", help="shard spec JSON (written by "
                                 "eric sweep --shards)")
    p.add_argument("--store", required=True,
                   help="per-shard result-store directory")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes on this machine (default 1)")
    p.add_argument("--force", action="store_true",
                   help="re-measure (and re-persist) stored keys")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress lines")
    p.set_defaults(func=_cmd_worker)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EricError as exc:
        print(f"eric: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"eric: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
