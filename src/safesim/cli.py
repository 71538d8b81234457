"""Command-line front end: single runs, percentile tables, policy comparisons.

Exit codes: 0 success, 1 runtime failure (e.g. unwritable output or a
refused policy decision), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# summarize_trajectories is not called here; it is imported because the
# benchmark's span tracer (bench/spans.py) wraps safesim.cli:summarize_trajectories.
from .engine import HorizonError, run_ensemble, run_simulation, summarize_trajectories
from .observation import ProportionError
from .policies import FixedWeightsPolicy, Policy, PolicyError, make_policy, policy_names
from .reports import (
    write_compare_csv,
    write_metric_svgs,
    write_severity_csv,
    write_table2_csv,
    write_trajectory_csv,
)
from .scenario import Scenario, ScenarioError, load_scenario_file

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, with_reps: bool) -> None:
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--seed", type=nonnegative_int, default=42, help="base random seed (default 42)")
    parser.add_argument(
        "--horizon",
        type=positive_int,
        default=None,
        help="days to simulate (default: the scenario's horizon_days)",
    )
    parser.add_argument(
        "--out-dir", default=".", help="directory for output files (default: current directory)"
    )
    if with_reps:
        parser.add_argument(
            "--reps", type=positive_int, default=100, help="number of replications (default 100)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safesim",
        description="Simulate a workplace safety environment and benchmark observer-allocation policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one seeded simulation and write trajectory.csv")
    _add_common(p_run, with_reps=False)
    p_run.add_argument(
        "--policy",
        default="none",
        help=f"allocation policy ({', '.join(policy_names())}; weighted:w1,w2,...)",
    )

    p_table = sub.add_parser(
        "table2",
        help="incident-count percentiles without feedback; writes table2.csv",
    )
    _add_common(p_table, with_reps=True)

    p_cmp = sub.add_parser(
        "compare",
        help="compare policies over replicated runs; writes CSVs and SVG plots",
    )
    _add_common(p_cmp, with_reps=True)
    p_cmp.add_argument(
        "--policy",
        action="append",
        required=True,
        dest="policies",
        help="policy to compare (repeatable); the no-observation baseline is always included",
    )

    return parser


def _safe_label(policy_spec: str) -> str:
    return policy_spec.replace(":", "_").replace(",", "-").replace("/", "-")


def _make_policy(spec: str, scenario: Scenario) -> Policy:
    """Build a policy from its spec; a weighted spec needs one weight per area."""
    policy = make_policy(spec)
    if isinstance(policy, FixedWeightsPolicy) and len(policy.weights) != scenario.n_areas:
        raise PolicyError(
            f"policy {spec!r} has {len(policy.weights)} weights; "
            f"the scenario has {scenario.n_areas} areas"
        )
    return policy


def _check_out_dir(path: str) -> Path:
    """The --out-dir, refused before the run unless it or its nearest existing
    ancestor is a directory; the commands create it only after the run."""
    existing = Path(path)
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise NotADirectoryError(f"--out-dir {path!r}: {str(existing)!r} is not a directory")
    return Path(path)


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario_file(args.scenario)
    policy = _make_policy(args.policy, scenario)
    out_dir = _check_out_dir(args.out_dir)
    trajectory = run_simulation(scenario, policy, seed=args.seed, horizon=args.horizon)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(trajectory, out_dir / "trajectory.csv")
    print(f"wrote {out_dir / 'trajectory.csv'}")
    return EXIT_OK


def cmd_table2(args: argparse.Namespace) -> int:
    scenario = load_scenario_file(args.scenario).without_incident_feedback()
    out_dir = _check_out_dir(args.out_dir)
    summary = run_ensemble(
        scenario, make_policy("none"), n_reps=args.reps, base_seed=args.seed, horizon=args.horizon
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    write_table2_csv(summary, out_dir / "table2.csv")
    print(f"wrote {out_dir / 'table2.csv'}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the baseline and each distinct policy once; write their CSVs and plots of the CSVs' values."""
    scenario = load_scenario_file(args.scenario)
    specs = list(dict.fromkeys(["none", *args.policies]))  # each spec once, the baseline first
    policies = [(spec, _make_policy(spec, scenario)) for spec in specs]
    out_dir = _check_out_dir(args.out_dir)
    summaries = [
        (spec, run_ensemble(scenario, policy, args.reps, base_seed=args.seed, horizon=args.horizon))
        for spec, policy in policies
    ]
    out_dir.mkdir(parents=True, exist_ok=True)

    severity_rows = []
    for spec, summary in summaries:
        csv_path = out_dir / f"compare_{_safe_label(spec)}.csv"
        write_compare_csv(summary, csv_path)
        severity_rows.append((spec, summary.incident_totals[0].sum(axis=0)))  # the base seed
        print(f"wrote {csv_path}")

    write_severity_csv(severity_rows, out_dir / "severity_counts.csv")
    print(f"wrote {out_dir / 'severity_counts.csv'}")
    for svg_path in write_metric_svgs(summaries, scenario, out_dir):
        print(f"wrote {svg_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "table2":
            return cmd_table2(args)
        return cmd_compare(args)
    except (ScenarioError, PolicyError, HorizonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ProportionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
