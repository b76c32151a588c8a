"""Timing process of the benchmark: runs one workload's job and nothing
else, so its peak RSS is the workload's, and prints what it measured as one
JSON line.  ``run.py`` starts it after writing the inputs; it is not meant to
be run by hand.

Untraced (``--trace 0``): for ``--seconds``, timed repeats of the job
alternate with closed-loop latency passes through the library, and every
repeat and pass is rescaled to the reference speed of ``calibrate.py``.
Traced (``--trace 1``): untraced and traced repeats alternate for
``--seconds``, then the golden probe commands run once under the tracer.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from seqaudit import cli, engine, ingest, simulate  # noqa: E402
from seqaudit.core import AuditConfig, Batched, strategy_from_dict  # noqa: E402

import calibrate  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

MIN_REPEATS = 3


def run_commands(commands: list[list[str]], out: Path, main=cli.main) -> list[dict]:
    """Run CLI calls in this process, timing each; their stdout is saved
    next to the files they write, so one directory holds every output."""
    results = []
    for i, argv in enumerate(commands):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            rc = main(argv)
            seconds = time.perf_counter() - t0
        (out / f"cmd{i}.stdout").write_text(stdout.getvalue(), encoding="utf-8")
        results.append({"rc": rc, "stderr": stderr.getvalue(), "s": seconds})
    return results


def snapshot(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def timed_job(commands, out, tracer=None) -> list[float]:
    """Seconds each CLI call of the job took."""
    if tracer is None:
        return [r["s"] for r in run_commands(commands, out)]
    with tr.installed(tracer), tracer.span("job"):
        return [r["s"] for r in run_commands(commands, out, tracer.spanned("cli.main", cli.main))]


class Stamped:
    """Closed-loop latency probe around a record iterator.  A record's
    latency runs from the auditor pulling it to the auditor pulling the next
    one: parsing or drawing it plus folding it into the decision.  Samples
    are taken per block of ``block`` consecutive records (one step's worth)
    as the mean per record, because single records are bimodal: the record
    that completes a step also pays for the step, and the median of an even
    mix of the two modes jumps between them from run to run.

    Every ``calibrate.EVERY_S``, between two blocks, the speed probe
    runs and the clock restarts after it; ``rescaled`` turns the samples
    into reference-speed nanoseconds."""

    __slots__ = ("_next", "_start", "_left", "_block", "_probe", "_probe_at", "samples", "probes")

    def __init__(self, iterable, block: int, probe):
        self._next = iter(iterable).__next__
        self._start = 0
        self._left = 0
        self._block = block
        self._probe = probe
        self._probe_at = 0
        self.samples = array("d")
        self.probes: list[tuple[int, float]] = []  # (samples taken before it, probe seconds)

    def __iter__(self):
        return self

    def __next__(self):
        if not self._left:
            now = time.perf_counter_ns()
            if self._start:
                self.samples.append((now - self._start) / self._block)
            if now >= self._probe_at:
                self.probes.append((len(self.samples), self._probe()))
                now = time.perf_counter_ns()
                self._probe_at = now + PROBE_EVERY_NS
            self._start = now
            self._left = self._block
        self._left -= 1
        return self._next()

    def rescaled(self) -> array:
        """The samples, each times the factor of the probes around it."""
        self.probes.append((len(self.samples), self._probe()))
        out = array("d")
        for (lo, before), (hi, after) in zip(self.probes, self.probes[1:]):
            factor = calibrate.factor((before, after))
            out.extend(x * factor for x in self.samples[lo:hi])
        return out


PROBE_EVERY_NS = int(calibrate.EVERY_S * 1e9)


def config(strategy: dict, alpha: float, groups: int = 2) -> AuditConfig:
    s = {k: float(v) if k != "kind" else v for k, v in strategy.items()}
    return AuditConfig(alpha=float(alpha), strategy=strategy_from_dict(s), group_count=groups)


def latency_plan(workload: str, seed: int, work: Path):
    """(key, config, source) for every audit of the latency pass.
    ``source`` makes the record iterator handed to the engine."""
    if workload in wl.AUDITS:
        for a in wl.AUDITS[workload]:
            if not a.latency:
                continue
            path = wl.input_path(work, a.input)
            yield (a.name, config(a.strategy, wl.AUDIT_ALPHA, a.groups),
                   lambda p=path: ingest.parse_stream(p))
    elif workload == "montecarlo":
        for call_seed in wl.call_seeds(seed):
            for preset in wl.MC_LATENCY_PRESETS:
                for label, scen, strategy, alpha in wl.preset_rows(preset, call_seed):
                    cfg = config(strategy, alpha, scen.group_count)
                    for i in range(wl.MC_REPLICATES):
                        s = wl.replicate_seed(scen, i)
                        yield (f"{call_seed}/{label}/{i}", cfg,
                               lambda sc=scen, s=s: simulate.stream_to_iterable(sc, seed=s))
    elif workload == "frontier":
        cfg = config({"kind": "simple"}, wl.FRONTIER_ALPHAS)
        for call_seed in wl.call_seeds(seed):
            for name, scen in zip(("null", "alt"), wl.frontier_scenarios(call_seed)):
                for i in range(wl.FRONTIER_REPLICATES):
                    records = simulate.generate_stream(scen, seed=wl.replicate_seed(scen, i))
                    yield f"{call_seed}/{name}/{i}", cfg, lambda r=records: r


def latency_pass(plan, probe) -> tuple[dict[str, dict], array]:
    """Run every audit of the plan once; return the decisions and the
    rescaled samples, in the plan's order."""
    results = {}
    samples = array("d")
    for key, cfg, source in plan:
        block = 1 if isinstance(cfg.strategy, Batched) else cfg.group_count
        stamped = Stamped(source(), block, probe)
        report = engine.run_stream(cfg, stamped, record_trajectory=False)
        samples += stamped.rescaled()
        results[key] = {
            "kind": report.decision.kind.value,
            "tau": report.decision.tau,
            "log_wealth": [g.log_wealth_final for g in report.per_game]
            if report.per_game else [report.log_wealth_final],
        }
    return results, samples


def record_latencies(passes: list[array]) -> np.ndarray:
    """Each sample's median over the passes.  Every pass audits the same
    records, so sample i is the same block of the same audit in each; the
    median keeps what the program does to that block every time and drops
    a stall of the host that hit it in a minority of passes."""
    return np.median(np.asarray(passes), axis=0)


# Per-layer figures from the traced spans (see tracer.layer_figures):
# metric -> (figure, count that shows the job calls the layer, unit scale).
LAYER_RATES = {
    "ingest.parse_us_per_record": ("fold:ingest.parse:self", "fold:ingest.parse:calls", 1e3),
    "engine.step_us": ("fold:engine.step:self", "fold:engine.step:calls", 1e3),
    "engine.pairing_us_per_record": ("span:engine.run_stream:self", "engine:records_pulled", 1e3),
    "payoffs.us_per_call": ("fold:payoffs:self", "fold:payoffs:calls", 1e3),
    "simulate.draw_us_per_step": ("fold:simulate.draw:self", "fold:simulate.draw:calls", 1e3),
    "simulate.draw_useful_ratio": ("engine:simulated_records_pulled", "fold:simulate.draw:items", 1),
    "baselines.pvalue_ms": ("span:baselines.pvalue:dur", "span:baselines.pvalue:count", 1e6),
}
LAYER_TOTALS = {  # per job
    "ingest.write_ms": ("span:ingest.write:dur", "span:ingest.write:count", 1e6),
    "baselines.protocol_self_ms": ("span:baselines.run_protocol:self", "span:baselines.run_protocol:count", 1e6),
    "cli.self_ms": ("span:cli.main:self", "span:cli.main:count", 1e6),
}
LAYER_COUNTS = {  # per job; they must repeat exactly
    "ingest.records_in": "fold:ingest.parse:calls",
    "engine.steps": "fold:engine.step:calls",
    "baselines.pvalues": "span:baselines.pvalue:count",
}
COUNT_KEYS = (*LAYER_COUNTS.values(), "engine:records_pulled", "fold:simulate.draw:items")


def layer_metrics(job: dict, probe: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one job.  Where the job never calls a layer, its
    time comes from the traced probe commands and the metric is listed."""
    metrics: dict = {name: int(job.get(key, 0)) for name, key in LAYER_COUNTS.items()}
    from_probe: list[str] = []
    for name, (figure, count, scale) in {**LAYER_RATES, **LAYER_TOTALS}.items():
        src = job
        if not job.get(count):
            src = probe
            from_probe.append(name)
        per = src[count] if name in LAYER_RATES else 1
        metrics[name] = src.get(figure, 0) / per / scale
    return metrics, from_probe


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--golden", type=Path, required=True)
    args = ap.parse_args()

    work = args.work
    out = work / "out"
    out.mkdir()
    commands = wl.job_commands(args.workload, args.seed, work, out)
    result: dict = {"commands": commands}
    # The first repeat is the warm-up and fixes the outputs every later
    # repeat must reproduce; it is left out of every timing figure.
    deadline = time.perf_counter() + args.seconds
    result["first"] = run_commands(commands, out)
    expected = snapshot(out)
    job_mismatches = latency_mismatches = 0
    untraced: list[list[float]] = [[r["s"] for r in result["first"]]]
    traced: list[list[float]] = []

    if not args.trace:
        # The job's own high-water mark, read before the latency pass holds
        # anything; then job repeats and latency passes alternate, so both
        # sample the same stretch of machine time.  The first repeat above
        # is the warm-up.  job_s is the median repeat, each rescaled by the
        # speed probes taken during it; latency samples are rescaled by the
        # probes around them, and p50 and p99 are taken over the records'
        # median latencies (see record_latencies).
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plan = list(latency_plan(args.workload, args.seed, work))
        probe = calibrate.Probe()
        sampler = calibrate.Sampler(probe)
        passes: list[array] = []
        first: dict | None = None
        jobs: list[tuple[float, float]] = []  # (wall s, factor) per repeat
        latency_s = job_total_s = 0.0
        while len(passes) < MIN_REPEATS or len(jobs) < MIN_REPEATS or time.perf_counter() < deadline:
            # Latency passes get as much of the run as the job repeats.
            while True:
                t0 = time.perf_counter()
                results, samples = latency_pass(plan, probe)
                latency_s += time.perf_counter() - t0
                passes.append(samples)
                if first is None:
                    first = results
                latency_mismatches += results != first or len(samples) != len(passes[0])
                if latency_s >= job_total_s:
                    break
            wall, factor, calls = sampler.timed(lambda: timed_job(commands, out))
            job_total_s += wall
            untraced.append(calls)
            jobs.append((wall, factor))
            job_mismatches += snapshot(out) != expected
        per_record = record_latencies(passes)
        result.update(
            latency=first, latency_passes=len(passes),
            latency_us={"p50": float(np.percentile(per_record, 50)) / 1e3,
                        "p99": float(np.percentile(per_record, 99)) / 1e3, "samples": len(per_record),
                        "pass_p99": [float(np.percentile(p, 99)) / 1e3 for p in passes]},
            job_s=statistics.median(w * f for w, f in jobs),
            job_wall_s=[w for w, _ in jobs], job_factors=[f for _, f in jobs],
        )
    else:
        t = tr.Tracer()
        figures = []
        while min(len(untraced), len(traced)) < 2 or time.perf_counter() < deadline:
            untraced.append(timed_job(commands, out))
            job_mismatches += snapshot(out) != expected
            first_span = len(t.spans)
            traced.append(timed_job(commands, out, t))
            job_mismatches += snapshot(out) != expected
            figures.append(tr.layer_figures(t.spans[first_span:]))
        counts = [{k: f.get(k, 0) for k in COUNT_KEYS} for f in figures]
        job_fig: dict = {}
        for f in figures:
            for k, v in f.items():
                job_fig[k] = job_fig.get(k, 0) + v
        probe_out = work / "probe-traced"
        probe_out.mkdir()
        first_span = len(t.spans)
        with tr.installed(t), t.span("probe"):
            run_commands(wl.probe_commands(args.golden, probe_out), probe_out)
        probe_fig = tr.layer_figures(t.spans[first_span:])
        tracefile = work.parent / f"trace-{args.workload}-{args.seed}.jsonl"
        t.write(tracefile)
        per_job = {k: v / len(figures) for k, v in job_fig.items()}
        metrics, from_probe = layer_metrics(per_job, probe_fig)
        # Each traced repeat against the untraced one just before it.
        metrics["trace.overhead_ratio"] = statistics.median(
            sum(on) / sum(off) for off, on in zip(untraced[1:], traced))
        result.update(layer=metrics, from_probe=from_probe, traced_job_s_runs=traced, counts=counts,
                      trace_file=str(tracefile))
        result["job_s"] = statistics.median(sum(r) for r in untraced[1:])
    result.update(job_s_runs=untraced, job_mismatches=job_mismatches, latency_mismatches=latency_mismatches)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
