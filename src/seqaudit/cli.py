"""Command-line interface: audit a record file, simulate scenario presets,
and benchmark betting against permutation-test protocols.

Exit codes: 0 = ran to stream end without rejecting, 1 = rejected,
2 = usage or validation error.  Python also exits with 1 on an uncaught
exception, so callers should read the report's decision, not the code
alone.  All randomness flows from --seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import baselines, ingest, payoffs, simulate
from .core import (
    AuditConfig,
    AuditError,
    Batched,
    Composite,
    EstimatedDensity,
    Propensity,
    Simple,
    strategy_tag,
)
from .engine import run_args, run_stream

EXIT_NO_REJECT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2


def _build_strategy(args: argparse.Namespace, scenario=None):
    name = args.strategy
    if name == "simple":
        return Simple()
    if name == "batched":
        return Batched()
    if name == "propensity":
        scale = args.scale
        if scale is None and isinstance(scenario, simulate.PolicyPopulation):
            scale = simulate.policy_corrective_scale(scenario)
        if scale is None:
            raise AuditError("propensity strategy requires --scale")
        return Propensity(scale=scale)
    if name == "estimated-density":
        if args.delta_min is None or args.delta_max is None:
            raise AuditError("estimated-density strategy requires --delta-min and --delta-max")
        scale = args.scale
        if scale is None and isinstance(scenario, simulate.PolicyPopulation):
            scale = simulate.estimated_density_scale(scenario, args.delta_min)
        if scale is None:
            raise AuditError("estimated-density strategy requires --scale")
        return EstimatedDensity(delta_min=args.delta_min, delta_max=args.delta_max, scale=scale)
    if name == "composite":
        if args.epsilon is None:
            raise AuditError("composite strategy requires --epsilon")
        return Composite(epsilon=args.epsilon)
    raise AuditError(f"unknown strategy {name!r}")


def _add_strategy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strategy",
        choices=["simple", "batched", "propensity", "estimated-density", "composite"],
        default="simple",
    )
    parser.add_argument("--epsilon", type=float, default=None, help="composite null tolerance")
    parser.add_argument(
        "--scale", type=float, default=None,
        help="corrective factor for weighted payoffs (bounds the argument in [-1, 1])",
    )
    parser.add_argument("--delta-min", type=float, default=None)
    parser.add_argument("--delta-max", type=float, default=None)


def cmd_audit(args: argparse.Namespace) -> int:
    fmt = args.format
    if fmt == "auto":
        fmt = "csv" if str(args.input).endswith(".csv") else "jsonl"
    strategy = _build_strategy(args)
    config = AuditConfig(
        alpha=args.alpha,
        strategy=strategy,
        group_count=args.groups,
        randomized_final_step=args.randomized_final,
        seed=args.seed,
    )
    source = sys.stdin if args.input == "-" else args.input
    mode = "lenient" if args.lenient else "strict"
    want_trajectory = args.trajectory_out is not None or args.embed_trajectory
    stream = ingest.parse_stream(source, format=fmt, mode=mode)
    report = run_stream(config, stream, record_trajectory=want_trajectory)
    if args.trajectory_out is not None:
        with open(args.trajectory_out, "w", encoding="utf-8") as fh:
            ingest.write_trajectory_csv(report, fh)
    emitted = report
    if not args.embed_trajectory and report.trajectory is not None:
        per_game = report.per_game
        if per_game is not None:
            per_game = [replace(g, trajectory=None) for g in per_game]
        emitted = replace(report, trajectory=None, per_game=per_game)
    ingest.emit_report(emitted, sys.stdout)
    return EXIT_REJECT if report.decision.is_rejection else EXIT_NO_REJECT


# Default (alpha, horizon) of each preset, in the order --preset lists them.
_PRESET_DEFAULTS = {"fig1": (0.01, 1000), "fig2a": (0.01, 1000), "fig2b": (0.01, 500), "fig5": (0.05, 2000)}


def _preset_rows(name: str, args: argparse.Namespace) -> list[tuple[str, object, object, float]]:
    """Rows of (label, scenario, strategy, alpha) for a preset."""
    if name not in _PRESET_DEFAULTS:
        raise AuditError(f"unknown preset {name!r}")
    alpha, horizon = _PRESET_DEFAULTS[name]
    alpha = alpha if args.alpha is None else args.alpha
    horizon = horizon if args.horizon is None else args.horizon
    seed = args.seed
    rows = []
    if name == "fig1":
        for i, delta in enumerate((0.0, 0.1, 0.2, 0.5)):
            scen = simulate.FixedMeans.from_gap(delta, horizon=horizon, seed=simulate.derive_seed(seed, i))
            rows.append((f"fig1-delta{delta}", scen, Simple(), alpha))
        return rows
    if name == "fig2a":
        scen = simulate.LogisticDrift(horizon=horizon, seed=simulate.derive_seed(seed, 0))
        return [("fig2a-logistic", scen, Simple(), alpha)]
    if name == "fig2b":
        scen = simulate.SinusoidalDrift(horizon=horizon, seed=simulate.derive_seed(seed, 0))
        return [("fig2b-sinusoidal", scen, Simple(), alpha)]
    for i, (label, policy) in enumerate(simulate.REGION_POLICIES.items()):
        scen = simulate.region_population(policy, horizon=horizon, seed=simulate.derive_seed(seed, i))
        strategy = Propensity(scale=simulate.policy_corrective_scale(scen))
        rows.append((f"fig5-{label}", scen, strategy, alpha))
    return rows


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.replicates < 1:
        raise AuditError("--replicates must be at least 1")
    if args.preset is not None:
        rows = _preset_rows(args.preset, args)
    else:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise AuditError(f"scenario file {args.scenario} is not JSON: {exc}") from None
        scenario = simulate.scenario_from_dict(doc)
        if args.horizon is not None:
            scenario = replace(scenario, horizon=args.horizon)
        alpha = 0.05 if args.alpha is None else args.alpha
        strategy = _build_strategy(args, scenario)
        import pathlib

        label = pathlib.Path(args.scenario).stem
        rows = [(label, scenario, strategy, alpha)]
    out_rows = []
    clamped = 0
    for label, scenario, strategy, alpha in rows:
        config = AuditConfig(
            alpha=alpha,
            strategy=strategy,
            group_count=scenario.group_count,
            randomized_final_step=args.randomized_final,
            seed=args.seed,
        )
        summary = simulate.monte_carlo(config, scenario, replicates=args.replicates)
        clamped += summary.noise_clamped
        out_rows.append(
            {
                "scenario": label,
                "alpha": alpha,
                "strategy": strategy_tag(strategy),
                "fpr_or_power": summary.fpr_or_power,
                "tau_mean": summary.tau_mean,
                "tau_q10": summary.tau_q10,
                "tau_q50": summary.tau_q50,
                "tau_q90": summary.tau_q90,
            }
        )
    if clamped:
        print(f"note: {clamped} noisy means clamped to [0, 1]", file=sys.stderr)
    if args.out is None:
        ingest.write_summary_csv(out_rows, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            ingest.write_summary_csv(out_rows, fh)
    return EXIT_NO_REJECT


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise AuditError(f"{flag} expects a comma-separated list of numbers") from exc
    if not values:
        raise AuditError(f"{flag} must not be empty")
    return values


def cmd_bench(args: argparse.Namespace) -> int:
    """FPR (null scenario) versus mean stopping time (alternative scenario)
    for each method across the alpha grid.  Stopping times are counted in
    records for all methods (one betting step consumes two records)."""
    alphas = _parse_float_list(args.alphas, "--alphas")
    if any(not (0.0 < a < 1.0) for a in alphas):
        raise AuditError("--alphas entries must lie in (0, 1)")
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    if not methods:
        raise AuditError("--methods must not be empty")
    for method in methods:
        if method not in ("betting", "perm-m1", "perm-m2"):
            raise AuditError(f"unknown method {method!r}")
    batch_sizes = _parse_float_list(args.batch_sizes, "--batch-sizes")
    if any(not k.is_integer() for k in batch_sizes):
        raise AuditError("--batch-sizes entries must be whole numbers")
    batch_sizes = [int(k) for k in batch_sizes]
    if args.replicates < 1:
        raise AuditError("--replicates must be at least 1")
    horizon_records = args.horizon
    if horizon_records < 2 or horizon_records % 2:
        raise AuditError("--horizon must be an even number of records, at least 2")
    pairs = horizon_records // 2

    null_scen = simulate.FixedMeans(
        (args.center, args.center), horizon=pairs, seed=simulate.derive_seed(args.seed, 101)
    )
    alt_scen = simulate.FixedMeans.from_gap(
        args.delta, center=args.center, horizon=pairs, seed=simulate.derive_seed(args.seed, 202)
    )

    # Streams are shared across methods so every method sees the same data:
    # one (pairs, 2) array of outputs per replicate, group 0 then group 1 at
    # every step.
    null_y = [
        simulate.draw_outputs(null_scen, seed=simulate.derive_seed(null_scen.seed, i))
        for i in range(args.replicates)
    ]
    alt_y = [
        simulate.draw_outputs(alt_scen, seed=simulate.derive_seed(alt_scen.seed, i))
        for i in range(args.replicates)
    ]

    # Betting replays each stream's simple-payoff arguments, one row per step.
    null_args = [payoffs.simple_args(y) for y in null_y]
    alt_args = [payoffs.simple_args(y) for y in alt_y]

    # One lazy p-value sequence per (stream, batch size), shared by M1, M2
    # and every alpha: a batch's p-value does not depend on the protocol.
    pvalues = {}
    if any(method != "betting" for method in methods):
        groups = np.tile(np.arange(2), pairs)
        for i in range(args.replicates):
            test_config = baselines.PermutationTestConfig(
                n_permutations=args.permutations, seed=simulate.derive_seed(args.seed, 10_000 + i)
            )
            for k in batch_sizes:
                pvalues[k, i] = tuple(
                    baselines.PValueSequence(y.ravel(), groups, k, test_config)
                    for y in (null_y[i], alt_y[i])
                )

    rows = []
    for alpha in alphas:
        for method in methods:
            if method == "betting":
                rejected = 0
                taus = []
                for i in range(args.replicates):
                    config = AuditConfig(
                        alpha=alpha, strategy=Simple(), seed=simulate.derive_seed(args.seed, i)
                    )
                    null_report = run_args(config, [null_args[i]], record_trajectory=False)
                    if null_report.decision.is_rejection:
                        rejected += 1
                    alt_report = run_args(config, [alt_args[i]], record_trajectory=False)
                    if alt_report.decision.is_rejection:
                        taus.append(2 * alt_report.decision.tau)
                    else:
                        taus.append(horizon_records)
                rows.append(
                    {
                        "method": "betting",
                        "k": "",
                        "alpha": alpha,
                        "fpr": rejected / args.replicates,
                        "tau_mean": sum(taus) / len(taus),
                    }
                )
                continue
            kind = "m1" if method == "perm-m1" else "m2"
            for k in batch_sizes:
                protocol = baselines.BatchProtocol(kind=kind, batch_size=k, alpha=alpha)
                rejected = 0
                taus = []
                for i in range(args.replicates):
                    null_pvalues, alt_pvalues = pvalues[k, i]
                    hit, _ = baselines.walk_protocol(protocol, null_pvalues)
                    if hit:
                        rejected += 1
                    hit, tau = baselines.walk_protocol(protocol, alt_pvalues)
                    taus.append(tau if hit else horizon_records)
                rows.append(
                    {
                        "method": method,
                        "k": k,
                        "alpha": alpha,
                        "fpr": rejected / args.replicates,
                        "tau_mean": sum(taus) / len(taus),
                    }
                )

    import csv as _csv

    def write(sink):
        writer = _csv.writer(sink, lineterminator="\n")
        writer.writerow(("method", "k", "alpha", "fpr", "tau_mean"))
        for row in rows:
            writer.writerow((row["method"], row["k"], row["alpha"], row["fpr"], row["tau_mean"]))

    if args.out is None:
        write(sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(fh)
    return EXIT_NO_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqaudit",
        description="Anytime-valid sequential auditing of group fairness by betting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="run a sequential audit over a record file")
    p_audit.add_argument("input", help="record file (JSONL or CSV), or - for stdin")
    p_audit.add_argument("--format", choices=["auto", "jsonl", "csv"], default="auto")
    p_audit.add_argument("--alpha", type=float, default=0.05)
    _add_strategy_flags(p_audit)
    p_audit.add_argument("--groups", type=int, default=2)
    p_audit.add_argument("--randomized-final", action="store_true")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--trajectory-out", default=None, help="write (step, wealth) CSV here")
    p_audit.add_argument("--embed-trajectory", action="store_true",
                         help="include the trajectory in the report document")
    p_audit.add_argument("--lenient", action="store_true",
                         help="warn on unknown input keys and accept numbers written as strings")
    p_audit.set_defaults(func=cmd_audit)

    p_sim = sub.add_parser("simulate", help="Monte Carlo over a scenario or preset")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=list(_PRESET_DEFAULTS))
    group.add_argument("--scenario", help="path to a scenario JSON file")
    p_sim.add_argument("--replicates", type=int, default=100)
    p_sim.add_argument("--horizon", type=int, default=None)
    p_sim.add_argument("--alpha", type=float, default=None)
    _add_strategy_flags(p_sim)
    p_sim.add_argument("--randomized-final", action="store_true")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None, help="summary CSV path (default: stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser(
        "bench", help="betting vs permutation protocols: FPR and stopping-time frontier"
    )
    p_bench.add_argument("--alphas", default="0.01,0.05,0.1")
    p_bench.add_argument("--methods", default="betting,perm-m2")
    p_bench.add_argument("--batch-sizes", default="100")
    p_bench.add_argument("--replicates", type=int, default=100)
    p_bench.add_argument("--horizon", type=int, default=5000, help="horizon in records")
    p_bench.add_argument("--delta", type=float, default=0.2, help="mean gap of the alternative")
    p_bench.add_argument("--center", type=float, default=0.5)
    p_bench.add_argument("--permutations", type=int, default=300)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (AuditError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
