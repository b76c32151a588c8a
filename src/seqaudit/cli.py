"""Command-line interface: audit a record file, simulate scenario presets,
and benchmark betting against permutation-test protocols.

Exit codes: 0 = ran to stream end without rejecting, 1 = rejected,
2 = usage or validation error.  Python also exits with 1 on an uncaught
exception, so callers should read the report's decision, not the code
alone.  All randomness flows from --seed.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import pathlib
import sys
from dataclasses import fields, replace

from . import ingest
from .core import _STRATEGY_TAGS, AuditConfig, AuditError, Batched, Propensity, Simple, strategy_tag
from .engine import STRATEGIES, run_stream

EXIT_NO_REJECT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2

# --strategy names each strategy by its tag, with "_" written as "-".
_STRATEGIES = {tag.replace("_", "-"): cls for cls, tag in _STRATEGY_TAGS.items()}

# The flags that set strategy fields, each named after the field it sets.
_FIELD_FLAGS = {
    "epsilon": "composite null tolerance",
    "scale": "corrective factor for weighted payoffs (bounds the argument in [-1, 1])",
    "delta_min": "lower bound on the ratio of estimated to true density",
    "delta_max": "upper bound on the ratio of estimated to true density",
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _refuse_flags(args: argparse.Namespace, names, reason: str) -> None:
    for name in names:
        if getattr(args, name) is not None:
            raise AuditError(f"{_flag(name)} {reason}")


def _build_strategy(args: argparse.Namespace, scenario=None):
    """The strategy ``--strategy`` names (simple when unset), each field read
    from the flag of the same name.  On a population, a missing ``--scale``
    takes the largest corrective factor the population admits.  A flag the
    strategy has no field for is refused."""
    name = args.strategy or "simple"
    cls = _STRATEGIES[name]
    names = [f.name for f in fields(cls)]
    unused = [flag for flag in _FIELD_FLAGS if flag not in names]
    _refuse_flags(args, unused, f"does not apply to the {name} strategy")
    values = {}
    for field_name in names:
        value = getattr(args, field_name)
        if value is None and field_name == "scale" and scenario is not None:
            from . import simulate

            if isinstance(scenario, simulate.PolicyPopulation):
                value = simulate.policy_corrective_scale(scenario, STRATEGIES[cls].weight, values.get("delta_min", 1.0))
        if value is None:
            raise AuditError(f"{name} strategy requires {_flag(field_name)}")
        values[field_name] = value
    return cls(**values)


def _add_strategy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", choices=list(_STRATEGIES), help="default: simple; batched is valid only "
                        "when the arrival order does not depend on the outputs")
    for name, text in _FIELD_FLAGS.items():
        parser.add_argument(_flag(name), type=float, default=None, help=text)


def _write_out(path: str | None, write) -> None:
    """Call ``write`` on stdout, or on the file at ``path`` when one is given."""
    if path is None:
        write(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)


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
    mode = "lenient" if args.lenient else "strict"
    record_trajectory = args.trajectory_out is not None
    if args.input == "-" or isinstance(strategy, Batched) or (mode == "lenient" and fmt == "jsonl"):
        # Live input decides at each record, a batched step is a single
        # record with nothing to pair, and any lenient JSONL line may warn:
        # all three go record by record.
        source = sys.stdin if args.input == "-" else args.input
        stream = ingest.parse_stream(source, format=fmt, mode=mode)
        report = run_stream(config, stream, record_trajectory=record_trajectory)
    else:
        from . import columns

        chunks = columns.parse_columns(args.input, format=fmt, mode=mode)
        report = columns.run_columns(config, chunks, record_trajectory=record_trajectory)
    if args.trajectory_out is not None:
        with open(args.trajectory_out, "w", encoding="utf-8") as fh:
            ingest.write_trajectory_csv(report, fh)
    ingest.emit_report(report, sys.stdout)
    return EXIT_REJECT if report.decision.is_rejection else EXIT_NO_REJECT


# Default (alpha, horizon) of each preset, in the order --preset lists them.
_PRESET_DEFAULTS = {"fig1": (0.01, 1000), "fig2a": (0.01, 1000), "fig2b": (0.01, 500), "fig5": (0.05, 2000)}


def _preset_rows(name: str, args: argparse.Namespace) -> list[tuple[str, object, object, float]]:
    """Rows of (label, scenario, strategy, alpha) for a preset."""
    from . import simulate

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
    from . import simulate

    if args.replicates < 1:
        raise AuditError("--replicates must be at least 1")
    if args.preset is not None:
        _refuse_flags(
            args, ["strategy", *_FIELD_FLAGS], "does not apply to --preset, which sets its own strategies"
        )
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
    _write_out(args.out, lambda sink: ingest.write_summary_csv(out_rows, sink))
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
    import numpy as np

    from . import baselines, simulate

    alphas = _parse_float_list(args.alphas, "--alphas")
    if any(not (0.0 < a < 1.0) for a in alphas):
        raise AuditError("--alphas entries must lie in (0, 1)")
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    if not methods:
        raise AuditError("--methods must not be empty")
    for method in methods:
        if method not in ("betting", "perm-m1", "perm-m2"):
            raise AuditError(f"--methods entries must be betting, perm-m1 or perm-m2, got {method!r}")
    batch_sizes = _parse_float_list(args.batch_sizes, "--batch-sizes")
    if any(not k.is_integer() for k in batch_sizes):
        raise AuditError("--batch-sizes entries must be whole numbers")
    batch_sizes = [int(k) for k in batch_sizes]
    if any(k < 2 for k in batch_sizes):
        raise AuditError("--batch-sizes entries must be at least 2, so that a batch can hold both groups")
    if args.permutations < 1:
        raise AuditError("--permutations must be at least 1")
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

    # One lazy p-value sequence per (stream, batch size), shared by M1, M2
    # and every alpha: a batch's p-value does not depend on the protocol.
    # No protocol tests above the largest alpha, so each test may stop
    # once its p-value is sure to exceed it.  Each stream is the one the
    # betting arm's Monte Carlo replicate draws.
    pvalues = {}
    if any(method != "betting" for method in methods):
        cap = max(alphas)
        groups = np.tile(np.arange(2), pairs)
        for i in range(args.replicates):
            test_config = baselines.PermutationTestConfig(
                n_permutations=args.permutations, seed=simulate.derive_seed(args.seed, 10_000 + i)
            )
            streams = [
                simulate.draw_outputs(scen, seed=simulate.derive_seed(scen.seed, i)).ravel()
                for scen in (null_scen, alt_scen)
            ]
            for k in batch_sizes:
                pvalues[k, i] = [baselines.PValueSequence(y, groups, k, test_config, cap) for y in streams]

    rows = []
    for alpha in alphas:
        for method in methods:
            if method == "betting":
                config = AuditConfig(alpha=alpha, strategy=Simple(), seed=args.seed)
                null = simulate.monte_carlo(config, null_scen, args.replicates)
                alt = simulate.monte_carlo(config, alt_scen, args.replicates)
                misses = args.replicates - alt.n_rejections
                tau_mean = (2 * sum(alt.taus) + misses * horizon_records) / args.replicates
                rows.append(("betting", "", alpha, null.fpr_or_power, tau_mean))
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
                rows.append((method, k, alpha, rejected / args.replicates, sum(taus) / len(taus)))

    def write(sink):
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(("method", "k", "alpha", "fpr", "tau_mean"))
        writer.writerows(rows)

    _write_out(args.out, write)
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


_parser = functools.cache(build_parser)  # parsing leaves a parser as it was: one serves a process


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
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
