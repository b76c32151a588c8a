"""seqaudit benchmark: one seeded workload, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/``;
nothing is installed.  Inputs are generated from ``--seed`` before timing.
Every output is checked against the independent reference in
``reference.py`` and the README's golden commands against ``tests/golden/``;
any mismatch makes the run exit 1.  With ``--trace 0`` the last line of
stdout holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics from a traced run.  Scratch files go under ``.bench_work/``.
See ``perfbench/README.md`` for what each metric means.
"""
from __future__ import annotations

import os

# One process, no extra threads: keep numpy's BLAS pool to the calling
# thread here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

SETUP_REPEATS = 5  # before and again after the timing worker
MC_SAMPLE = 8  # Monte Carlo replicates rechecked one by one from generate_stream
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "job_s": "s", "records_per_s": "1/s", "record_latency_us_p50": "us",
    "record_latency_us_p99": "us", "replicate_steps_per_s": "1/s", "peak_rss_mib": "MiB",
}
LAYER_UNITS = {
    "ingest.parse_us_per_record": "us", "ingest.records_in": "count", "ingest.write_ms": "ms",
    "engine.step_us": "us", "engine.steps": "count", "engine.pairing_us_per_record": "us",
    "engine.max_pending_records": "count", "engine.records_unpaired": "count",
    "engine.overhead_ratio": "ratio", "payoffs.us_per_call": "us", "payoffs.batch_pending_max": "count",
    "betting.ons_us_per_step": "us", "simulate.draw_us_per_step": "us",
    "simulate.draw_useful_ratio": "ratio", "baselines.pvalue_ms": "ms",
    "baselines.protocol_self_ms": "ms", "baselines.pvalues": "count", "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Gate:
    """Operations attempted and failed; an operation is one audit, one
    replicate, one frontier row or one golden command."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str, ops: int = 1) -> None:
        self.tally(ops, 0 if ok else ops, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(what)


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "not_measurable": "no hardware counters and no isolated cores in a shared sandbox",
    }


def setup_seconds() -> list[float]:
    """Fresh interpreter to ``import seqaudit.cli`` finished, per attempt."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import seqaudit.cli, time; print(time.monotonic())"
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        out.append(float(done.stdout.strip()) - t0)
    return out


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def golden_records(path: Path) -> list:
    recs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        d = json.loads(line)
        recs.append(wl.Rec(d["t"], d["group"], d["y_hat"], d.get("propensity"), d.get("density")))
    return recs


def report_matches(doc: dict, ref) -> bool:
    decision = doc["decision"]
    if decision["kind"] != ("reject" if ref.rejected else "continue") or decision["tau"] != ref.tau:
        return False
    if not reference.close(doc["log_wealth_final"], ref.log_wealth_final):
        return False
    games = doc["per_game"] or [{"log_wealth_final": doc["log_wealth_final"]}]
    return len(games) == len(ref.log_wealth) and all(
        reference.close(g["log_wealth_final"], lw) for g, lw in zip(games, ref.log_wealth)
    )


def trajectory_matches(rows: list[list[str]], ref) -> bool:
    """The ``(step, wealth[, game_id])`` CSV against the reference paths."""
    expected = []
    for path in ref.paths:
        expected += [(i + 1, lw) for i, lw in enumerate(path)]
    body = rows[1:]
    if len(body) != len(expected):
        return False
    for row, (step, lw) in zip(body, expected):
        wealth = math.exp(lw) if lw <= 709.0 else math.inf
        if int(row[0]) != step or not reference.close(float(row[1]), wealth):
            return False
    return True


def latency_matches(got: dict, ref) -> bool:
    return (
        got["kind"] == ("reject" if ref.rejected else "continue")
        and got["tau"] == ref.tau
        and len(got["log_wealth"]) == len(ref.log_wealth)
        and all(reference.close(a, b) for a, b in zip(got["log_wealth"], ref.log_wealth))
    )


def row_matches(got: list[str], want: list) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if isinstance(w, float):
            if not reference.close(float(g), w):
                return False
        elif g != str(w):
            return False
    return True


def check_probe(gate: Gate, work: Path) -> Path:
    """The README's golden commands byte for byte, and the golden input
    under the batched strategy against the reference."""
    import worker

    out = work / "probe"
    out.mkdir()
    results = worker.run_commands(wl.probe_commands(GOLDEN, out), out)
    gate.check(
        results[0]["rc"] == 1
        and (out / "cmd0.stdout").read_bytes() == (GOLDEN / "audit_report.json").read_bytes()
        and (out / "audit_trajectory.csv").read_bytes() == (GOLDEN / "audit_trajectory.csv").read_bytes(),
        "golden audit differs from tests/golden",
    )
    for name in ("simulate_fig1.csv", "bench_small.csv"):
        gate.check((out / name).read_bytes() == (GOLDEN / name).read_bytes(),
                   f"golden {name} differs from tests/golden")
    ref = reference.audit(golden_records(GOLDEN / "audit_input.jsonl"), {"kind": "batched"}, 0.05)
    doc = json.loads((out / "cmd3.stdout").read_text(encoding="utf-8"))
    gate.check(report_matches(doc, ref), "batched audit of the golden input disagrees with the reference")
    return out


def reference_job(workload: str, seed: int, records: dict, keep_args: bool):
    """Reference results for every audit and replicate of the job, keyed as
    the latency pass keys them; the expected CSV rows of every output file;
    and the number of p-values one job computes."""
    from seqaudit import simulate

    refs: dict = {}
    rows: dict = {}
    pvalues = 0
    if workload in wl.AUDITS:
        for a in wl.AUDITS[workload]:
            refs[a.name] = reference.audit(records[a.input], a.strategy, float(wl.AUDIT_ALPHA),
                                           a.groups, keep_paths=a.trajectory, keep_args=keep_args)
    elif workload == "montecarlo":
        for preset in wl.MC_PRESETS:
            for k, call_seed in enumerate(wl.call_seeds(seed)):
                rows[f"{preset}-{k}"] = []
                for label, scen, strategy, alpha in wl.preset_rows(preset, call_seed):
                    results = []
                    for i in range(wl.MC_REPLICATES):
                        stream = simulate.stream_to_iterable(scen, seed=wl.replicate_seed(scen, i))
                        results.append(reference.audit(stream, strategy, alpha, scen.group_count,
                                                       keep_args=keep_args))
                        refs[f"{call_seed}/{label}/{i}"] = results[-1]
                    rows[f"{preset}-{k}"].append(reference.summary_row(label, alpha, strategy["kind"], results))
    elif workload == "frontier":
        for k, call_seed in enumerate(wl.call_seeds(seed)):
            rows[f"bench-{k}"], n = frontier_rows(call_seed, refs, keep_args)
            pvalues += n
    return refs, rows, pvalues


def frontier_rows(seed: int, refs: dict, keep_args: bool) -> tuple[list[list], int]:
    """The rows ``seqaudit bench`` writes for one call seed, and the number
    of p-values behind them; the betting audits are added to ``refs``."""
    from seqaudit import simulate

    alpha = float(wl.FRONTIER_ALPHAS)
    horizon = wl.FRONTIER_HORIZON
    reps = range(wl.FRONTIER_REPLICATES)
    streams = {}
    for name, scen in zip(("null", "alt"), wl.frontier_scenarios(seed)):
        for i in reps:
            streams[name, i] = simulate.generate_stream(scen, seed=wl.replicate_seed(scen, i))
            refs[f"{seed}/{name}/{i}"] = reference.audit(streams[name, i], {"kind": "simple"}, alpha,
                                                         keep_args=keep_args)
    alt = [refs[f"{seed}/alt/{i}"] for i in reps]
    taus = [2 * r.tau if r.rejected else horizon for r in alt]
    fpr = sum(refs[f"{seed}/null/{i}"].rejected for i in reps) / len(reps)
    out = [["betting", "", alpha, fpr, sum(taus) / len(taus)]]
    pvalues = 0
    for method in wl.FRONTIER_METHODS.split(",")[1:]:
        for k in (int(x) for x in wl.FRONTIER_BATCH_SIZES.split(",")):
            hits, taus = 0, []
            for i in reps:
                pseed = simulate.derive_seed(seed, 10_000 + i)
                for name in ("null", "alt"):
                    hit, tau, n = reference.protocol(method[-2:], k, alpha, streams[name, i],
                                                     wl.FRONTIER_PERMUTATIONS, pseed, horizon)
                    pvalues += n
                    if name == "null":
                        hits += hit
                    else:
                        taus.append(tau if hit else horizon)
            out.append([method, str(k), alpha, hits / len(reps), sum(taus) / len(taus)])
    return out, pvalues


def check_rows(gate: Gate, got: list[list[str]], want: list[list], what: str, ops: int) -> None:
    """CSV rows (after the header) against the reference; a missing or
    extra row is a failed operation too."""
    body = got[1:]
    for i, w in enumerate(want):
        gate.check(i < len(body) and row_matches(body[i], w), f"{what} row {w[0]} {w[1]} disagrees with the reference",
                   ops=ops)
    if len(body) > len(want):
        gate.tally(1, 1, f"{what} has {len(body) - len(want)} rows too many")


def check_job(gate: Gate, workload: str, out: Path, first: list[dict], refs: dict, rows: dict) -> int:
    """Outputs of the job against the reference; returns the number of
    operations one job performs."""
    if workload in wl.AUDITS:
        for i, a in enumerate(wl.AUDITS[workload]):
            ref = refs[a.name]
            doc = json.loads((out / f"cmd{i}.stdout").read_text(encoding="utf-8"))
            ok = first[i]["rc"] == int(ref.rejected) and report_matches(doc, ref)
            if ok and a.trajectory:
                ok = trajectory_matches(read_csv(out / f"{a.name}.csv"), ref)
            gate.check(ok, f"audit {a.name} disagrees with the reference")
        return len(wl.AUDITS[workload])
    # A Monte Carlo summary row stands for its replicates, a frontier row
    # for itself.
    ops = wl.MC_REPLICATES if workload == "montecarlo" else 1
    for name, want in rows.items():
        check_rows(gate, read_csv(out / f"{name}.csv"), want, name, ops)
    return ops * sum(len(want) for want in rows.values())


def check_mc_sample(gate: Gate, seed: int, refs: dict) -> None:
    """A seeded sample of Monte Carlo replicates rebuilt from
    ``simulate.generate_stream``: the engine and the reference must agree."""
    import worker
    from seqaudit import engine, simulate

    rows = [(s, *r) for s in wl.call_seeds(seed) for p in wl.MC_PRESETS for r in wl.preset_rows(p, s)]
    pick = random.Random(seed)
    for _ in range(MC_SAMPLE):
        call_seed, label, scen, strategy, alpha = pick.choice(rows)
        i = pick.randrange(wl.MC_REPLICATES)
        records = simulate.generate_stream(scen, seed=wl.replicate_seed(scen, i))
        ref = reference.audit(records, strategy, alpha, scen.group_count)
        report = engine.run_stream(worker.config(strategy, alpha, scen.group_count), records,
                                   record_trajectory=False)
        got = {"kind": report.decision.kind.value, "tau": report.decision.tau,
               "log_wealth": [report.log_wealth_final]}
        key = f"{call_seed}/{label}/{i}"
        gate.check(latency_matches(got, ref) and latency_matches(got, refs[key]),
                   f"replicate {key} disagrees with the reference")


def ons_us_per_step(refs: dict) -> float:
    """``betting.ons_bets`` replayed on the payoff arguments the job's
    audits bet on: the arithmetic floor of one engine step."""
    import numpy as np
    from seqaudit import betting

    series = [(np.asarray(args), dom) for r in refs.values() for args, dom in zip(r.args, r.domains) if args]
    n = sum(len(a) for a, _ in series)
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for args, dom in series:
            betting.ons_bets(args, dom)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / n / 1e3


def main() -> int:
    ap = argparse.ArgumentParser(description="seqaudit benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "seqaudit" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"error: no seqaudit sources under {SRC} or goldens under {GOLDEN}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOAD_NAMES or args.seed < 0 or args.seconds <= 0:
        print(f"error: workload must be one of {wl.WORKLOAD_NAMES}, seed >= 0 and seconds > 0",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    gate = Gate()
    records, props = wl.make_inputs(args.workload, args.seed, work)
    probe_out = check_probe(gate, work)
    setup = setup_seconds() if not args.trace else []

    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
         "--golden", str(GOLDEN)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: timing worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        setup += setup_seconds()

    refs, rows, pvalues = reference_job(args.workload, args.seed, records, keep_args=bool(args.trace))
    ops = check_job(gate, args.workload, work / "out", res["first"], refs, rows)
    jobs = len(res["job_s_runs"]) + len(res.get("traced_job_s_runs", []))
    gate.tally(ops * (jobs - 1), ops * res["job_mismatches"], "a repeated job wrote different outputs")
    if args.workload == "montecarlo":
        check_mc_sample(gate, args.seed, refs)

    props.update(
        max_pending_records=max((r.max_pending_records for r in refs.values()), default=0),
        records_unpaired=sum(r.records_unpaired for r in refs.values()),
    )
    if pvalues:
        props["pvalues"] = pvalues
    records_in = (2 * wl.SIM_CALLS * wl.FRONTIER_REPLICATES * wl.FRONTIER_HORIZON if args.workload == "frontier"
                  else sum(r.records_in for r in refs.values()))
    steps = sum(r.steps for r in refs.values())

    if not args.trace:
        for key, got in res["latency"].items():
            gate.check(latency_matches(got, refs[key]), f"latency audit {key} disagrees with the reference")
        lat_ops = len(res["latency"])
        gate.tally(lat_ops * (res["latency_passes"] - 1), lat_ops * res["latency_mismatches"],
                   "a repeated latency pass gave different results")
        job_s = res["job_s"]
        values = {
            "setup_s": statistics.median(setup),
            "job_s": job_s,
            "records_per_s": records_in / job_s,
            "record_latency_us_p50": res["latency_us"]["p50"],
            "record_latency_us_p99": res["latency_us"]["p99"],
            "replicate_steps_per_s": steps / job_s,
            "peak_rss_mib": res["peak_rss_mib"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        detail = {
            "job_s_runs": res["job_s_runs"], "job_wall_s": res["job_wall_s"], "job_factors": res["job_factors"],
            "setup_s_runs": setup,
            "latency_samples": res["latency_us"]["samples"], "latency_pass_p99_us": res["latency_us"]["pass_p99"],
        }
    else:
        import worker

        gate.check(worker.snapshot(work / "probe-traced") == worker.snapshot(probe_out),
                   "tracing changed the output of the golden commands", ops=len(wl.PROBE_COMMANDS))
        counts = res["counts"]
        gate.check(all(c == counts[0] for c in counts), "per-job counts differ between traced repeats",
                   ops=len(counts))
        layer = res["layer"]
        batched = [r.batch_pending_max for r in refs.values()]
        layer.update({
            "engine.max_pending_records": props["max_pending_records"],
            "engine.records_unpaired": props["records_unpaired"],
            "payoffs.batch_pending_max": max(batched, default=0),
            "betting.ons_us_per_step": ons_us_per_step(refs),
        })
        layer["engine.overhead_ratio"] = layer["engine.step_us"] / layer["betting.ons_us_per_step"]
        metrics = {name: (layer[name], unit) for name, unit in LAYER_UNITS.items()}
        detail = {"from_probe": res["from_probe"], "trace_file": res["trace_file"],
                  "job_s_runs": res["job_s_runs"], "traced_job_s_runs": res["traced_job_s_runs"]}

    failed_ratio = gate.failed / gate.attempted
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
        "input": props, "records_in_per_job": records_in, "steps_per_job": steps,
        "failed_ratio": failed_ratio, "errors": gate.errors, **detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (bench_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>12}  {name:<30} {value:14.6g} {unit}")
    print(f"{args.workload:>12}  {'failed_ratio':<30} {failed_ratio:14.6g} ratio "
          f"({gate.failed} of {gate.attempted} operations)")
    for err in gate.errors:
        print(f"MISMATCH: {err}", file=sys.stderr)
    print(json.dumps(summary))
    print(json.dumps({
        "correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
        "metrics": summary["metrics"],
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
