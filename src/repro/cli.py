"""Command-line interface: ``python -m repro <command>``.

Commands
--------
workloads   print the Table 1 benchmark registry
machines    print the Xeon catalogue
simulate    run a collocation on the testbed and report response times
profile     run a Stage 1 profiling campaign and save it as .npz
policy      profile, train the model and print a recommended timeout vector
report      render a telemetry run-manifest as tables

Every pipeline command accepts ``--telemetry``: enable the metrics
registry + span tracing and write a JSON run-manifest plus a JSONL span
log to ``--trace-dir``.  Telemetry never changes results: outputs are
bit-identical with it on or off.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.analysis import format_table
from repro.baselines import RuntimeEvaluator, no_sharing_policy
from repro.core import StacModel, model_driven_policy, uniform_conditions
from repro.core.profile_vec import RuntimeCondition
from repro.core.profiler import Profiler, ProfilerSettings, run_condition
from repro.testbed import MACHINES, get_machine
from repro.workloads import table1_rows


def _cmd_workloads(args) -> int:
    rows = [
        [r["wrk_id"], r["description"], r["cache_access_pattern"]]
        for r in table1_rows()
    ]
    print(
        format_table(
            ["wrk id", "description", "cache access pattern"],
            rows,
            title="Table 1 workloads",
        )
    )
    return 0


def _cmd_machines(args) -> int:
    rows = [
        [m.name, m.n_cores, m.llc_mb, m.llc_ways, m.max_collocated]
        for m in MACHINES.values()
    ]
    print(
        format_table(
            ["machine", "cores", "LLC MB", "ways", "max collocated"],
            rows,
            title="Xeon catalogue",
            precision=1,
        )
    )
    return 0


def _parse_timeout(value: str) -> float:
    if value.lower() in ("inf", "never"):
        return np.inf
    t = float(value)
    if not t >= 0:
        raise argparse.ArgumentTypeError("timeout must be >= 0 (or 'inf')")
    return t


def _parse_utilization(value: str) -> float:
    u = float(value)
    if not 0 < u < 1:
        raise argparse.ArgumentTypeError(f"utilization must be in (0, 1), got {value}")
    return u


def _parse_megabytes(value: str) -> float:
    mb = float(value)
    if not 0 <= mb < np.inf:
        raise argparse.ArgumentTypeError(f"MB must be finite and >= 0, got {value}")
    return mb


def _parse_positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return n


def _cmd_simulate(args) -> int:
    machine = get_machine(args.machine)
    timeouts = args.timeouts or [np.inf] * len(args.pair)
    if len(timeouts) != len(args.pair):
        print("error: need one timeout per workload", file=sys.stderr)
        return 2
    condition = RuntimeCondition(
        tuple(args.pair), (args.utilization,) * len(args.pair), tuple(timeouts)
    )
    res = run_condition(condition, machine, _profiler_settings(args), args.seed)
    rows = []
    for s in res.services:
        rt = s.response_times_norm
        rows.append(
            [
                s.name,
                float(rt.mean()),
                float(np.percentile(rt, 50)),
                float(np.percentile(rt, 95)),
                s.boost_fraction,
                s.effective_allocation(),
            ]
        )
    print(
        format_table(
            ["service", "mean RT", "p50", "p95", "boost frac", "EA"],
            rows,
            title=(
                f"Collocation on {machine.name} at {args.utilization:.0%} load "
                "(response times relative to each service's baseline)"
            ),
        )
    )
    return 0


def _profiler_settings(args) -> ProfilerSettings:
    return ProfilerSettings(
        n_queries=args.queries, private_mb=args.private_mb, shared_mb=args.shared_mb
    )


def _cmd_profile(args) -> int:
    conditions = uniform_conditions(tuple(args.pair), n=args.conditions, rng=args.seed)
    profiler = Profiler(
        machine=get_machine(args.machine),
        settings=_profiler_settings(args),
        rng=args.seed,
    )
    ds = profiler.profile(conditions)
    from repro.core.io import save_dataset

    save_dataset(args.out, ds)
    print(f"profiled {len(ds)} rows over {args.conditions} conditions -> {args.out}")
    return 0


def _cmd_policy(args) -> int:
    from repro.core.sampling import grid_anchor_conditions

    pair = tuple(args.pair)
    conditions = uniform_conditions(
        pair, n=args.conditions, rng=args.seed
    ) + grid_anchor_conditions(pair, args.utilization)
    machine = get_machine(args.machine)
    profiler = Profiler(
        machine=machine,
        settings=_profiler_settings(args),
        rng=args.seed,
    )
    print(f"profiling {pair} ({args.conditions} conditions)...")
    ds = profiler.profile(conditions)
    print(f"training {args.learner} model on {len(ds)} rows...")
    model = StacModel(
        learner=args.learner, n_jobs=args.train_jobs, rng=args.seed
    ).fit(ds)
    utils = tuple([args.utilization] * len(pair))
    decision = model_driven_policy(model, pair, utils)
    print(f"recommended timeouts (x service time): {decision.timeouts}")
    if args.verify:
        evaluator = RuntimeEvaluator(
            ds,
            pair,
            utilization=args.utilization,
            n_queries=args.queries * 3,
            rng=args.seed + 1,
        )
        base = evaluator.p95(no_sharing_policy(len(pair)).timeouts)
        ours = evaluator.p95(decision.timeouts)
        rows = [
            [name, base[i], ours[i], base[i] / ours[i]]
            for i, name in enumerate(pair)
        ]
        print(
            format_table(
                ["service", "p95 no-sharing", "p95 chosen", "speedup"],
                rows,
                title="Verification on the testbed",
            )
        )
    return 0


def _cmd_report(args) -> int:
    """Render a run manifest as ASCII tables."""
    from repro.telemetry import exporters

    manifest_path = Path(args.manifest)
    if not manifest_path.exists():
        print(f"error: no such manifest: {manifest_path}", file=sys.stderr)
        return 2
    manifest = exporters.load_manifest(manifest_path)
    print(exporters.manifest_tables(manifest))
    return 0


def _run_with_telemetry(args, command_line) -> int:
    """Execute one instrumented command and export its telemetry."""
    from repro.telemetry import exporters

    trace_dir = Path(args.trace_dir)
    telemetry.configure()
    try:
        with telemetry.span(f"repro.{args.command}"):
            rc = args.func(args)
        trace_dir.mkdir(parents=True, exist_ok=True)
        n_spans = exporters.write_spans_jsonl(
            trace_dir / "spans.jsonl", telemetry.get_span_log()
        )
        manifest = exporters.build_manifest(
            command=command_line,
            config={k: v for k, v in vars(args).items() if k != "func"},
            seeds={"seed": getattr(args, "seed", 0)},
            registry=telemetry.get_registry(),
            span_log=telemetry.get_span_log(),
        )
        exporters.write_manifest(trace_dir / "manifest.json", manifest)
        print(
            f"telemetry: wrote {trace_dir / 'manifest.json'} "
            f"({n_spans} spans); render with "
            f"'python -m repro report {trace_dir / 'manifest.json'}'"
        )
        return rc
    finally:
        telemetry.disable()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Short-term cache allocation modeling (ICPP'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="print the Table 1 registry").set_defaults(
        func=_cmd_workloads
    )
    sub.add_parser("machines", help="print the Xeon catalogue").set_defaults(
        func=_cmd_machines
    )

    def common(p, timeouts=False):
        p.add_argument("--pair", nargs="+", required=True, metavar="WORKLOAD")
        p.add_argument("--machine", default="e5-2683")
        p.add_argument("--utilization", type=_parse_utilization, default=0.9)
        p.add_argument("--queries", type=int, default=800)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--private-mb", type=_parse_megabytes, default=2.0)
        p.add_argument("--shared-mb", type=_parse_megabytes, default=2.0)
        p.add_argument(
            "--telemetry",
            action="store_true",
            help="collect metrics + spans and write a run manifest to "
            "--trace-dir (results are bit-identical either way)",
        )
        p.add_argument(
            "--trace-dir",
            default="telemetry",
            help="directory for manifest.json / spans.jsonl "
            "(default: %(default)s)",
        )
        if timeouts:
            p.add_argument(
                "--timeouts",
                nargs="+",
                type=_parse_timeout,
                help="per-workload STA timeout (x service time; 'inf' disables)",
            )

    p_sim = sub.add_parser("simulate", help="run one collocation on the testbed")
    common(p_sim, timeouts=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_prof = sub.add_parser("profile", help="run a profiling campaign, save .npz")
    common(p_prof)
    p_prof.add_argument("--conditions", type=int, default=10)
    p_prof.add_argument("--out", default="profile.npz")
    p_prof.set_defaults(func=_cmd_profile)

    p_pol = sub.add_parser("policy", help="profile + train + recommend timeouts")
    common(p_pol)
    p_pol.add_argument("--conditions", type=int, default=10)
    p_pol.add_argument(
        "--learner",
        default="deep_forest",
        choices=("deep_forest", "cascade", "random_forest", "tree", "linear"),
    )
    p_pol.add_argument("--verify", action="store_true")
    p_pol.add_argument(
        "--train-jobs",
        type=_parse_positive_int,
        default=1,
        help="worker processes for forest training (one process pool per "
        "cascade level / MGS pass; identical model for any value)",
    )
    p_pol.set_defaults(func=_cmd_policy)

    p_rep = sub.add_parser(
        "report", help="render a telemetry run-manifest as tables"
    )
    p_rep.add_argument("manifest", help="path to a manifest.json")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "telemetry", False):
            command_line = list(argv) if argv is not None else sys.argv[1:]
            return _run_with_telemetry(args, command_line)
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
