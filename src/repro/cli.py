"""Command-line interface.

The subcommands cover the operational workflow end to end::

    repro network    --caches 100 --seed 7 --out net.npz
    repro form-groups --network net.npz --scheme SDSL --k 10 --out g.json
    repro simulate   --network net.npz --groups g.json --seed 7
    repro simulate   --network net.npz --scheme SDSL --trace t.jsonl \\
                     --sample-ms 1000 --manifest run.json
    repro report     run.json
    repro experiment fig4 --repetitions 2 --plot

``repro experiment`` runs one registered paper-figure experiment (or
``all`` of them) and prints its table (optionally an ASCII sketch of
the curves); results can be archived as JSON/CSV for later comparison.
It, ``repro chaos run`` and ``repro sanitize run`` share their run
options and hand them to :func:`repro.experiments.run_suite`, the one
function that runs figures.  ``repro simulate``
optionally instruments the run (``--trace``, ``--sample-ms``,
``--manifest``); ``repro report`` pretty-prints an archived manifest
and its time-series summary.  ``repro lint`` runs the determinism
invariant linter (see :mod:`repro.lint` and docs/static-analysis.md)::

    repro lint [paths...] [--format json] [--baseline PATH]

``repro sanitize`` is the linter's runtime companion: it records a
draw ledger while an experiment runs and diffs two ledgers to locate
the first non-deterministic site (see :mod:`repro.sanitize`)::

    repro sanitize run --figure fig6 --out ledger.json [--jobs N]
    repro sanitize diff serial.json parallel.json

``repro runs`` queries the run registry — the append-only history that
``experiment``/``simulate``/``chaos run``/``sanitize run`` write to
when ``--registry DIR`` (or ``REPRO_REGISTRY``) is set (see
:mod:`repro.obs.registry`)::

    repro runs list --registry runs/
    repro runs compare -2 -1 --registry runs/

``repro bench`` is the engine events/s regression gate: it measures
named scenarios and gates them against the committed baseline (see
:mod:`repro.bench` and docs/performance.md; the end-to-end benchmark
is ``perfbench/run.py``)::

    repro bench run --scenarios default,large --out BENCH_dev.json
    repro bench gate --baseline benchmarks/baselines/BENCH_engine_main.json

``repro chaos`` proves the supervised runtime survives worker failure:
deterministic kills/delays at content-derived task indices must leave
the archived results byte-identical to a clean run (see
:mod:`repro.runtime.chaos` and docs/robustness.md)::

    repro chaos run --figure fig6 --kill-rate 0.2 --jobs 2 --out r.json
    repro chaos plan --tasks 9 --kill-rate 0.2

An interrupted registry-backed sweep resumes from its task journals,
re-running only unfinished work units::

    repro experiment fig6 --registry runs/ --resume auto
    repro experiment all --registry runs/ --resume auto
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis import average_group_interaction_cost
from repro.analysis.asciiplot import sketch
from repro.analysis.export import (
    export_cache_stats,
    export_experiment_result,
)
from repro.bench.cli import (
    configure_parser as configure_bench_parser,
    run_bench_cli,
)
from repro.config import LandmarkConfig, WorkloadConfig, DocumentConfig
from repro.core.schemes import SCHEME_NAMES, scheme_by_name
from repro.errors import ReproError
from repro.experiments import REGISTRY
from repro.faults import FaultSchedule
from repro.lint.cli import configure_parser as configure_lint_parser, run_lint
from repro.obs.registry_cli import (
    configure_parser as configure_runs_parser,
    run_runs,
)
from repro.runtime.chaos_cli import (
    add_figure_run_args,
    add_registry_arg,
    configure_parser as configure_chaos_parser,
    non_negative_float,
    run_chaos,
)
from repro.sanitize.cli import (
    configure_parser as configure_sanitize_parser,
    run_sanitize,
)
from repro.persist import (
    load_grouping,
    load_network,
    save_grouping,
    save_network,
    save_result,
)
from repro.simulator import simulate
from repro.topology import build_network
from repro.utils.tables import Table
from repro.workload import generate_workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Edge cache group formation (SL/SDSL) — reproduction of "
            "Ramaswamy, Liu & Zhang, ICDCS 2006"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    net = sub.add_parser(
        "network", help="generate a transit-stub edge cache network"
    )
    net.add_argument("--caches", type=int, default=100)
    net.add_argument("--seed", type=int, default=7)
    net.add_argument("--out", help="write the network as .npz")

    form = sub.add_parser(
        "form-groups", help="partition a network into cooperative groups"
    )
    form.add_argument("--network", required=True, help=".npz network file")
    form.add_argument("--scheme", default="SDSL", choices=SCHEME_NAMES)
    form.add_argument("--k", type=int, required=True)
    form.add_argument("--landmarks", type=int, default=25)
    form.add_argument("--seed", type=int, default=7)
    form.add_argument("--out", help="write the group table as JSON")
    _add_formation_fault_args(form)

    sim = sub.add_parser(
        "simulate", help="simulate a grouped network under a workload"
    )
    sim.add_argument("--network", required=True)
    sim.add_argument(
        "--groups",
        help="JSON group table; omit to form groups in-process "
             "(see --scheme/--k)",
    )
    sim.add_argument(
        "--scheme", default="SDSL", choices=SCHEME_NAMES,
        help="scheme for in-process group formation (without --groups)",
    )
    sim.add_argument(
        "--k", type=int,
        help="group count for in-process formation "
             "(default: 10%% of caches)",
    )
    sim.add_argument("--landmarks", type=int, default=25)
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--requests-per-cache", type=int, default=150)
    sim.add_argument("--documents", type=int, default=400)
    sim.add_argument("--export-csv", help="write per-cache stats as CSV")
    sim.add_argument(
        "--per-group", action="store_true",
        help="print the per-group breakdown table",
    )
    sim.add_argument(
        "--trace-stats", action="store_true",
        help="print workload statistics (Zipf fit, cache similarity)",
    )
    sim.add_argument(
        "--trace", metavar="PATH",
        help="record a per-request JSONL trace to PATH",
    )
    sim.add_argument(
        "--trace-capacity", type=int, metavar="N",
        help="keep only the most recent N trace records (ring buffer)",
    )
    sim.add_argument(
        "--sample-ms", type=float, metavar="MS",
        help="sample windowed time-series metrics every MS simulated ms",
    )
    sim.add_argument(
        "--manifest", metavar="PATH",
        help="write a run manifest (config, phase timings, time series)",
    )
    add_registry_arg(sim)
    _add_formation_fault_args(sim)
    sim.add_argument(
        "--crash", action="append", default=[], metavar="NODE:FAIL[:RECOVER]",
        help="crash cache NODE at FAIL ms (optionally recover at RECOVER "
             "ms); repeatable",
    )
    sim.add_argument(
        "--partition", action="append", default=[],
        metavar="START:END:N1,N2,...",
        help="cut nodes N1,N2,... off from the rest during [START, END) "
             "ms; repeatable",
    )
    timeout_ms = FaultSchedule.partition_timeout_ms
    sim.add_argument(
        "--partition-timeout-ms", type=float, default=timeout_ms,
        metavar="MS",
        help=f"wait charged when a query crosses a partition "
             f"(default {timeout_ms:g})",
    )

    rep = sub.add_parser(
        "report", help="pretty-print an archived run manifest"
    )
    rep.add_argument("manifest", help="manifest JSON written by --manifest")
    rep.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="output_format",
        help="json emits the full machine-readable manifest payload",
    )

    exp = sub.add_parser(
        "experiment", help="run a registered paper-figure experiment"
    )
    exp.add_argument("figure", choices=[*sorted(REGISTRY), "all"])
    add_figure_run_args(exp)
    exp.add_argument("--plot", action="store_true", help="ASCII chart")
    exp.add_argument("--out", help="write the result as JSON")
    exp.add_argument("--csv", help="write the result as CSV")
    exp.add_argument(
        "--out-dir",
        help="archive every figure run as JSON/CSV + summary.md",
    )
    exp.add_argument(
        "--figures",
        help="(with 'all') comma-separated subset, e.g. fig4,fig8",
    )
    exp.add_argument(
        "--worker-perf", action="store_true",
        help="record per-task worker telemetry (wall, queue wait, cache "
             "hits, events/s) into each figure's manifest",
    )
    exp.add_argument(
        "--progress", action="store_true",
        help="print a throttled stderr heartbeat (tasks done/total, ETA, "
             "aggregate events/s) while a figure's units run",
    )
    exp.add_argument(
        "--resume", metavar="SWEEP_ID",
        help="resume an interrupted sweep from its task journals in the "
             "registry: completed work units are skipped and the "
             "archive matches an uninterrupted run byte for byte "
             "(needs --registry; pass 'auto', or the sweep id printed "
             "by the original single-figure run)",
    )

    lint = sub.add_parser(
        "lint",
        help="check the determinism / simulated-time / fork-safety "
             "invariants (repro.lint)",
    )
    configure_lint_parser(lint)

    san = sub.add_parser(
        "sanitize",
        help="capture or diff runtime draw ledgers (repro.sanitize)",
    )
    configure_sanitize_parser(san)

    chaos = sub.add_parser(
        "chaos",
        help="deterministic worker kills/delays against the supervised "
             "runtime (repro.runtime.chaos)",
    )
    configure_chaos_parser(chaos)

    runs = sub.add_parser(
        "runs",
        help="query the run registry: list/show/compare/gc archived runs "
             "(repro.obs.registry)",
    )
    configure_runs_parser(runs)

    bench = sub.add_parser(
        "bench",
        help="measure and gate throughput against committed baselines "
             "(repro.bench)",
    )
    configure_bench_parser(bench)

    cmp_parser = sub.add_parser(
        "compare", help="diff two archived experiment results (JSON)"
    )
    cmp_parser.add_argument("baseline", help="baseline result JSON")
    cmp_parser.add_argument("candidate", help="candidate result JSON")
    cmp_parser.add_argument(
        "--tolerance", type=non_negative_float, default=0.15,
        help="relative increase treated as a regression (default 0.15)",
    )

    return parser


def _resolve_registry(args: argparse.Namespace):
    """The RunRegistry requested by --registry/$REPRO_REGISTRY, or None."""
    from repro.obs.registry import resolve_registry

    return resolve_registry(getattr(args, "registry", None))


def _add_formation_fault_args(parser: argparse.ArgumentParser) -> None:
    """Fault-injection flags shared by form-groups and simulate."""
    parser.add_argument(
        "--probe-loss", type=float, default=0.0, metavar="P",
        help="per-probe loss probability during group formation "
             "(0 disables fault injection)",
    )
    parser.add_argument(
        "--fail-landmarks", type=int, default=0, metavar="N",
        help="crash N cache landmarks right after selection and exercise "
             "the coordinator's failover path",
    )


def _formation_faults(args: argparse.Namespace):
    """The FaultConfig requested by the CLI flags, or None when all-zero."""
    if args.probe_loss == 0.0 and args.fail_landmarks == 0:
        return None
    from repro.faults import FaultConfig

    config = FaultConfig(
        probe_loss_rate=args.probe_loss,
        crashed_landmarks=args.fail_landmarks,
    )
    config.validate()
    return config


def _parse_crash(spec: str):
    """``NODE:FAIL_MS[:RECOVER_MS]`` -> (node, fail_ms, recover_ms|None)."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ReproError(
            f"--crash expects NODE:FAIL_MS[:RECOVER_MS], got {spec!r}"
        )
    try:
        node = int(parts[0])
        fail_ms = float(parts[1])
        recover_ms = float(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise ReproError(
            f"--crash expects numeric NODE:FAIL_MS[:RECOVER_MS], got "
            f"{spec!r}"
        ) from None
    return node, fail_ms, recover_ms


def _parse_partition(spec: str):
    """``START:END:N1,N2,...`` -> PartitionSpec (validated later)."""
    from repro.faults import PartitionSpec

    parts = spec.split(":")
    if len(parts) != 3:
        raise ReproError(
            f"--partition expects START_MS:END_MS:N1,N2,..., got {spec!r}"
        )
    try:
        start_ms = float(parts[0])
        end_ms = float(parts[1])
        nodes = tuple(int(n) for n in parts[2].split(",") if n.strip())
    except ValueError:
        raise ReproError(
            f"--partition expects numeric START_MS:END_MS:N1,N2,..., got "
            f"{spec!r}"
        ) from None
    return PartitionSpec(start_ms=start_ms, end_ms=end_ms, nodes=nodes)


def _fault_schedule(args: argparse.Namespace):
    """The FaultSchedule requested by --crash/--partition, or None."""
    if not args.crash and not args.partition:
        return None
    crashes, recoveries = [], []
    for spec in args.crash:
        node, fail_ms, recover_ms = _parse_crash(spec)
        crashes.append((fail_ms, node))
        if recover_ms is not None:
            recoveries.append((recover_ms, node))
    schedule = FaultSchedule(
        crashes=tuple(crashes),
        recoveries=tuple(recoveries),
        partitions=tuple(_parse_partition(s) for s in args.partition),
        partition_timeout_ms=args.partition_timeout_ms,
    )
    schedule.validate()
    return schedule


def _cmd_network(args: argparse.Namespace) -> int:
    from repro.topology.stats import network_stats

    network = build_network(num_caches=args.caches, seed=args.seed)
    print(f"generated: {network_stats(network)}")
    if args.out:
        save_network(network, args.out)
        print(f"wrote {args.out}")
    return 0


def _formation_scheme(args: argparse.Namespace, network):
    """The ``--scheme`` to form groups with, for form-groups and simulate.

    ``--landmarks`` is clamped to what the network can supply.
    """
    if args.scheme == "vivaldi":
        # The decentralised scheme has no landmark step to configure.
        return scheme_by_name(args.scheme)
    landmarks = min(args.landmarks, network.num_caches + 1)
    return scheme_by_name(
        args.scheme, landmark_config=LandmarkConfig(num_landmarks=landmarks)
    )


def _cmd_form_groups(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    scheme = _formation_scheme(args, network)
    grouping = scheme.form_groups(
        network, args.k, seed=args.seed, faults=_formation_faults(args)
    )
    gicost = average_group_interaction_cost(network, grouping)
    print(
        f"{grouping.scheme}: {grouping.num_groups} groups, sizes "
        f"{sorted(grouping.sizes())}, gicost {gicost:.2f} ms"
    )
    if grouping.degraded:
        print(f"degraded formation: {grouping.fault_report}")
    if args.out:
        save_grouping(grouping, args.out)
        print(f"wrote {args.out}")
    return 0


def _build_observer(args: argparse.Namespace):
    """Assemble the Observer requested by the CLI flags (or None)."""
    from repro.obs import MetricsSampler, Observer, TraceCollector

    trace = None
    if args.trace or args.trace_capacity is not None:
        trace = TraceCollector(capacity=args.trace_capacity)
    sampler = None
    if args.sample_ms is not None:
        sampler = MetricsSampler(interval_ms=args.sample_ms)
    if trace is None and sampler is None and args.manifest:
        # A manifest alone still wants throughput numbers; an empty
        # observer keeps the engine's bookkeeping on.
        return Observer()
    if trace is None and sampler is None:
        return None
    return Observer(trace=trace, sampler=sampler)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.obs import PhaseRegistry, activate, build_manifest, phase_timer

    formation_faults = _formation_faults(args)
    schedule = _fault_schedule(args)
    registry = PhaseRegistry()
    with activate(registry):
        network = load_network(args.network)
        if args.groups:
            if formation_faults is not None:
                raise ReproError(
                    "--probe-loss/--fail-landmarks affect group formation; "
                    "they cannot be combined with a pre-formed --groups "
                    "table (re-run form-groups with these flags instead)"
                )
            grouping = load_grouping(args.groups)
        else:
            k = args.k or max(1, network.num_caches // 10)
            scheme = _formation_scheme(args, network)
            with phase_timer("form_groups"):
                grouping = scheme.form_groups(
                    network, k, seed=args.seed, faults=formation_faults
                )
            print(
                f"formed {grouping.num_groups} {grouping.scheme} groups "
                f"(k={k})"
            )
            if grouping.degraded:
                print(f"degraded formation: {grouping.fault_report}")
        with phase_timer("workload"):
            workload = generate_workload(
                network.cache_nodes,
                WorkloadConfig(
                    documents=DocumentConfig(num_documents=args.documents),
                    requests_per_cache=args.requests_per_cache,
                ),
                seed=args.seed,
            )
        if args.trace_stats:
            from repro.workload.stats import summarize_trace

            print(f"workload: {summarize_trace(workload.requests)}")
        observer = _build_observer(args)
        result = simulate(
            network, grouping, workload, observer=observer, faults=schedule
        )
    rates = result.hit_rates()
    table = Table(["metric", "value"])
    table.add_row(["requests", result.metrics.total_requests()])
    table.add_row(["avg latency (ms)", result.average_latency_ms()])
    table.add_row(["p95 latency (ms)", result.metrics.latency_p95_ms()])
    table.add_row(["local hit share", rates["local"]])
    table.add_row(["group hit share", rates["group"]])
    table.add_row(["origin share", rates["origin"]])
    table.add_row(["group hit rate (of misses)", result.group_hit_rate()])
    table.add_row(
        ["invalidation messages", result.metrics.invalidation_messages]
    )
    print(table.render())
    if args.per_group:
        from repro.analysis import group_report_table

        print()
        print(group_report_table(result).render())
    if args.export_csv:
        export_cache_stats(result.metrics, args.export_csv)
        print(f"wrote {args.export_csv}")
    if observer is not None and observer.trace is not None and args.trace:
        count = observer.trace.write_jsonl(args.trace)
        print(f"wrote {count} trace records to {args.trace}")
    run_registry = _resolve_registry(args)
    if args.manifest or run_registry is not None:
        from repro.persist import save_manifest

        totals = {
            "requests": float(result.metrics.total_requests()),
            "avg_latency_ms": result.average_latency_ms(),
            "p95_latency_ms": result.metrics.latency_p95_ms(),
            "hit_rate_local": rates["local"],
            "hit_rate_group": rates["group"],
            "hit_rate_origin": rates["origin"],
        }
        manifest = build_manifest(
            label=f"simulate:{grouping.scheme}",
            seed=args.seed,
            registry=registry,
            observer=observer,
            totals=totals,
            trace_path=args.trace,
        )
        manifest.config = {
            "network": args.network,
            "scheme": grouping.scheme,
            "num_groups": grouping.num_groups,
            "requests_per_cache": args.requests_per_cache,
            "documents": args.documents,
            "sample_ms": args.sample_ms,
            "trace_capacity": args.trace_capacity,
        }
        # Fault counters land in the manifest only when fault options
        # were active, keeping fault-free manifests byte-identical.
        if formation_faults is not None:
            manifest.config["probe_loss"] = args.probe_loss
            manifest.config["fail_landmarks"] = args.fail_landmarks
            manifest.run_stats["degraded"] = 1.0 if grouping.degraded else 0.0
            for key, value in (grouping.fault_report or {}).items():
                manifest.run_stats[key] = float(value)
        if schedule is not None:
            metrics = result.metrics
            manifest.run_stats["partition_timeouts"] = float(sum(
                metrics.cache_stats(node).partition_timeouts
                for node in metrics.cache_nodes()
            ))
            manifest.run_stats["scheduled_crashes"] = float(
                len(schedule.crashes)
            )
            manifest.run_stats["scheduled_partitions"] = float(
                len(schedule.partitions)
            )
        if args.manifest:
            save_manifest(manifest, args.manifest)
            print(f"wrote manifest to {args.manifest}")
        if run_registry is not None:
            appended = run_registry.append(manifest, kind="simulate")
            print(f"registered run {appended.record.run_id}")
    return 0


def render_manifest_text(manifest) -> str:
    """Human-readable report for a run manifest.

    Shared by ``repro report`` and ``repro runs show``.  Plain run
    stats, testbed-cache counters, and worker telemetry each get their
    own section so parallel-run manifests stay scannable.
    """
    sections: List[str] = []
    info = Table(["field", "value"])
    info.add_row(["label", manifest.label])
    info.add_row(["version", manifest.version])
    if manifest.seed is not None:
        info.add_row(["seed", manifest.seed])
    for key in sorted(manifest.config):
        info.add_row([f"config.{key}", str(manifest.config[key])])
    for key in sorted(manifest.totals):
        info.add_row([key, manifest.totals[key]])
    plain = {
        key: value for key, value in manifest.run_stats.items()
        if not key.startswith(("testbed_cache_", "worker_"))
    }
    for key in sorted(plain):
        info.add_row([key, plain[key]])
    for key in sorted(manifest.trace_info):
        info.add_row([f"trace.{key}", str(manifest.trace_info[key])])
    sections.append(info.render())

    for prefix, title in (
        ("testbed_cache_", "testbed cache"),
        ("worker_", "workers"),
    ):
        group = {
            key: value for key, value in manifest.run_stats.items()
            if key.startswith(prefix)
        }
        if group:
            table = Table([title, "value"], float_format="{:.4f}")
            for key in sorted(group):
                table.add_row([key[len(prefix):], group[key]])
            sections.append(table.render())

    if manifest.phase_timings_s:
        phases = Table(["phase", "seconds"], float_format="{:.4f}")
        for name in sorted(manifest.phase_timings_s):
            phases.add_row([name, manifest.phase_timings_s[name]])
        sections.append(phases.render())

    if manifest.timeseries is not None and len(manifest.timeseries) > 0:
        series = manifest.timeseries
        ts = Table(["series", "first", "mean", "last", "max"])
        for name in ("hit_rate", "request_rate_rps", "origin_rate_rps",
                     "mean_latency_ms", "p95_latency_ms",
                     "origin_utilisation", "cache_occupancy"):
            column = getattr(series, name)
            ts.add_row([
                name, column[0], float(column.mean()), column[-1],
                float(column.max()),
            ])
        sections.append(
            f"time series: {len(series)} samples, "
            f"{series.time_ms[0]:.0f}..{series.time_ms[-1]:.0f} ms\n"
            + ts.render()
        )
    return "\n\n".join(sections)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.persist.results import load_manifest, manifest_json

    manifest = load_manifest(args.manifest)
    if args.output_format == "json":
        sys.stdout.write(manifest_json(manifest))
    else:
        print(render_manifest_text(manifest))
    return 0


def _reject_ignored_experiment_options(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Exit 2 for options the chosen ``experiment`` form would ignore."""
    if args.figure == "all":
        ignored = [
            flag for flag, value in (
                ("--out", args.out), ("--csv", args.csv),
                ("--plot", args.plot),
            ) if value
        ]
        if ignored:
            parser.error(
                f"experiment all: {', '.join(ignored)} apply to a single "
                f"figure; use --out-dir to archive every figure"
            )
    elif args.figures:
        parser.error(
            f"experiment {args.figure}: --figures selects figures for "
            f"'experiment all' only"
        )


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import run_suite

    single = args.figure != "all"
    figures = None
    if single:
        figures = [args.figure]
    elif args.figures:
        figures = [f.strip() for f in args.figures.split(",") if f.strip()]
    registry = _resolve_registry(args)
    run = run_suite(
        figures=figures,
        output_dir=args.out_dir,
        paper_scale=args.paper_scale,
        repetitions=args.repetitions,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        worker_perf=args.worker_perf,
        progress=args.progress,
        registry_dir=registry.root if registry is not None else None,
        resume=args.resume,
        task_timeout_s=args.task_timeout,
        max_retries=args.max_retries,
        retry_backoff_s=args.retry_backoff,
    )
    for experiment_id in sorted(run.results):
        journal = run.journals.get(experiment_id)
        if journal is not None:
            sweep_id = journal.path.stem
            resumed = (
                f", {journal.hits} unit(s) resumed" if journal.resume else ""
            )
            print(
                f"task journal {sweep_id}: {journal.completed} unit(s) on "
                f"record{resumed} (resume with --resume {sweep_id})"
            )
        if experiment_id in run.run_ids:
            print(f"registered run {run.run_ids[experiment_id]}")
        print(run.results[experiment_id].render())
        if not single:
            print()
    if single:
        result = run.results[args.figure]
        if args.plot:
            print()
            print(sketch(result))
        if args.out:
            save_result(result, args.out)
            print(f"wrote {args.out}")
        if args.csv:
            export_experiment_result(result, args.csv)
            print(f"wrote {args.csv}")
    if run.output_dir is not None:
        print(f"archived to {run.output_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis import compare_results
    from repro.persist import load_result

    report = compare_results(
        load_result(args.baseline), load_result(args.candidate)
    )
    print(report.render())
    return 1 if report.regressions(args.tolerance) else 0


_COMMANDS = {
    "network": _cmd_network,
    "form-groups": _cmd_form_groups,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
    "experiment": _cmd_experiment,
    "lint": run_lint,
    "sanitize": run_sanitize,
    "chaos": run_chaos,
    "runs": run_runs,
    "bench": run_bench_cli,
    "compare": _cmd_compare,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment":
        _reject_ignored_experiment_options(parser, args)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
