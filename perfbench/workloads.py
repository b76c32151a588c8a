"""The four benchmark workloads: seeded input generators and the fixed job
each one runs through the ``seqaudit`` command line.

Inputs are made from the workload seed alone, before any timing starts; the
program only ever sees the generated files and command-line arguments.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# A record as the benchmark generates it; the reference reads the same
# attribute names from the program's own AuditRecord objects.
Rec = namedtuple("Rec", "t group y_hat propensity density")

WORKLOAD_NAMES = ("audit-stream", "audit-async", "montecarlo", "frontier")

# Both groups share one support with equal outputs and densities, so every
# audit below tests a true null.  At this alpha an audit reads its whole file
# with probability at least 0.999, which keeps the work the same for every
# seed.  Sampling goes through a non-uniform policy so that the propensity
# payoff has real weights to undo.
AUDIT_ALPHA = "0.001"
POINT_Y = (0.9, 0.6, 0.4, 0.2)
POINT_DENSITY = (0.25, 0.25, 0.25, 0.25)
POINT_POLICY = (0.1, 0.2, 0.3, 0.4)
PROPENSITY_SCALE = "0.2"  # 1 / (2 * max density / policy) = 1 / (2 * 2.5)
COMPOSITE_EPSILON = "0.05"

STREAM_STEPS_2 = 10_000  # two-group file, audited three times
STREAM_STEPS_4 = 5_000  # four-group file, audited once (three adjacent games)

# audit-async: one group is silent while the other emits a burst, then the
# silent group catches up with a burst of the same length.  The multiset of
# burst lengths is fixed and only their order and the leading group depend on
# the seed, so the backlog the audit must hold is the same for every seed.
ASYNC_BURSTS = (1_000, 2_000, 5_000, 10_000)
ASYNC_GAP = 2_000  # balanced, interleaved records between bursts
ASYNC_TAIL = 500  # trailing group-0 records that never find a partner

# The simulation workloads run several CLI calls with seeds of their own
# instead of one long call, so one job mixes the stopping times of several
# seeds and its work varies less from one workload seed to the next.
SIM_CALLS = 4

MC_PRESETS = ("fig1", "fig2a", "fig2b", "fig5")
# The latency pass keeps to one scenario family: steps of different families
# cost different amounts, and a median at the boundary between two of them
# jumps from run to run.  The same holds for the audits marked ``latency``.
MC_LATENCY_PRESETS = ("fig1",)
MC_REPLICATES = 5  # per call, so 20 per preset

FRONTIER_ALPHAS = "0.05"
FRONTIER_METHODS = "betting,perm-m1,perm-m2"
FRONTIER_BATCH_SIZES = "50,200"
FRONTIER_REPLICATES = 5  # per call, so 20
FRONTIER_HORIZON = 2_000
FRONTIER_PERMUTATIONS = 200
FRONTIER_DELTA = 0.2
FRONTIER_CENTER = 0.5


@dataclass(frozen=True)
class Audit:
    """One ``seqaudit audit`` call of a job."""

    name: str
    input: str  # input file key, see input_path
    strategy: dict
    groups: int = 2
    trajectory: bool = False
    latency: bool = False  # also audited in the latency pass

    def argv(self, work: Path, out: Path) -> list[str]:
        argv = ["audit", str(input_path(work, self.input)), "--alpha", AUDIT_ALPHA,
                "--strategy", self.strategy["kind"], "--groups", str(self.groups)]
        if self.strategy["kind"] == "composite":
            argv += ["--epsilon", self.strategy["epsilon"]]
        if self.strategy["kind"] == "propensity":
            argv += ["--scale", self.strategy["scale"]]
        if self.trajectory:
            argv += ["--trajectory-out", str(out / f"{self.name}.csv")]
        return argv


def call_seeds(seed: int) -> list[int]:
    """The ``--seed`` of each CLI call of a simulation workload."""
    return [seed * SIM_CALLS + k for k in range(SIM_CALLS)]


def input_path(work: Path, key: str) -> Path:
    return work / f"{key}.jsonl"


STREAM_AUDITS = (
    Audit("simple", "stream2", {"kind": "simple"}, trajectory=True),
    Audit("composite", "stream2", {"kind": "composite", "epsilon": COMPOSITE_EPSILON}, trajectory=True),
    Audit("propensity", "stream2", {"kind": "propensity", "scale": PROPENSITY_SCALE}, trajectory=True,
          latency=True),
    Audit("four-groups", "stream4", {"kind": "simple"}, groups=4),
)
ASYNC_AUDITS = (
    Audit("batched", "async", {"kind": "batched"}, latency=True),
    Audit("simple", "async", {"kind": "simple"}),
)
AUDITS = {"audit-stream": STREAM_AUDITS, "audit-async": ASYNC_AUDITS}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _records(rng: np.random.Generator, groups: list[int], weighted: bool) -> list[Rec]:
    """Records for a group sequence: each draws a support point through the
    policy and carries that point's output (and, weighted, its propensity
    and density); time indices count up per group."""
    points = rng.choice(len(POINT_POLICY), size=len(groups), p=POINT_POLICY).tolist()
    t = [0] * (max(groups) + 1)
    out = []
    for g, x in zip(groups, points):
        t[g] += 1
        if weighted:
            out.append(Rec(t[g], g, POINT_Y[x], POINT_POLICY[x], POINT_DENSITY[x]))
        else:
            out.append(Rec(t[g], g, POINT_Y[x], None, None))
    return out


def interleaved_groups(rng: np.random.Generator, steps: int, groups: int) -> list[int]:
    """One record per group per step, in a random order within the step."""
    order = np.argsort(rng.random((steps, groups)), axis=1)
    return order.ravel().tolist()


def async_groups(rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """Bursty two-group arrival order; returns it with the burst order."""
    bursts = rng.permutation(ASYNC_BURSTS).tolist()
    seq: list[int] = []
    for length in bursts:
        first = int(rng.integers(2))
        seq += [first] * length + [1 - first] * length
        seq += rng.permutation([0, 1] * (ASYNC_GAP // 2)).tolist()
    seq += [0] * ASYNC_TAIL
    return seq, bursts


def write_jsonl(records: list[Rec], path: Path) -> None:
    lines = []
    for r in records:
        if r.propensity is None:
            lines.append(f'{{"t": {r.t}, "group": {r.group}, "y_hat": {r.y_hat!r}}}\n')
        else:
            lines.append(
                f'{{"t": {r.t}, "group": {r.group}, "y_hat": {r.y_hat!r}, '
                f'"propensity": {r.propensity!r}, "density": {r.density!r}}}\n'
            )
    path.write_text("".join(lines), encoding="utf-8")


def make_inputs(workload: str, seed: int, work: Path) -> tuple[dict[str, list[Rec]], dict]:
    """Write the workload's input files into ``work``; return their records
    (for the reference) and the input properties recorded with the result."""
    records: dict[str, list[Rec]] = {}
    props: dict = {}
    if workload == "audit-stream":
        for key, steps, groups, weighted, stream in (
            ("stream2", STREAM_STEPS_2, 2, True, 1),
            ("stream4", STREAM_STEPS_4, 4, False, 2),
        ):
            rng = _rng(seed, stream)
            records[key] = _records(rng, interleaved_groups(rng, steps, groups), weighted)
            props[key] = {"records": len(records[key]), "groups": groups}
    elif workload == "audit-async":
        rng = _rng(seed, 3)
        seq, bursts = async_groups(rng)
        records["async"] = _records(rng, seq, True)
        props["async"] = {
            "records": len(seq), "groups": 2, "burst_lengths": bursts, "gap_records": ASYNC_GAP,
            "tail_records": ASYNC_TAIL,
        }
    for key, recs in records.items():
        write_jsonl(recs, input_path(work, key))
    if workload in AUDITS:
        props["strategies"] = [a.strategy["kind"] for a in AUDITS[workload]]
    elif workload == "montecarlo":
        props.update(presets=list(MC_PRESETS), call_seeds=call_seeds(seed), replicates_per_call=MC_REPLICATES)
    elif workload == "frontier":
        props.update(
            methods=FRONTIER_METHODS, batch_sizes=FRONTIER_BATCH_SIZES, call_seeds=call_seeds(seed),
            replicates_per_call=FRONTIER_REPLICATES, horizon_records=FRONTIER_HORIZON,
            permutations=FRONTIER_PERMUTATIONS,
        )
    return records, props


def job_commands(workload: str, seed: int, work: Path, out: Path) -> list[list[str]]:
    """The argv of every CLI call in the workload's fixed job."""
    if workload in AUDITS:
        return [a.argv(work, out) for a in AUDITS[workload]]
    if workload == "montecarlo":
        return [
            ["simulate", "--preset", p, "--replicates", str(MC_REPLICATES), "--seed", str(s),
             "--out", str(out / f"{p}-{k}.csv")]
            for p in MC_PRESETS for k, s in enumerate(call_seeds(seed))
        ]
    if workload == "frontier":
        return [[
            "bench", "--alphas", FRONTIER_ALPHAS, "--methods", FRONTIER_METHODS,
            "--batch-sizes", FRONTIER_BATCH_SIZES, "--replicates", str(FRONTIER_REPLICATES),
            "--horizon", str(FRONTIER_HORIZON), "--permutations", str(FRONTIER_PERMUTATIONS),
            "--delta", str(FRONTIER_DELTA), "--center", str(FRONTIER_CENTER),
            "--seed", str(s), "--out", str(out / f"bench-{k}.csv"),
        ] for k, s in enumerate(call_seeds(seed))]
    raise ValueError(f"unknown workload {workload!r}")


# The presets behind ``seqaudit simulate --preset``, rebuilt from the
# documented figures (default horizons and alphas) so that the reference can
# regenerate every replicate without calling into the command line.
REGION_DENSITY = (0.25, 0.25, 0.25, 0.25)
REGION_OUTPUTS = ((0.9, 0.7, 0.5, 0.3), (0.6, 0.4, 0.2, 0.0))
REGION_POLICIES = (
    ("uniform", (0.25, 0.25, 0.25, 0.25)),
    ("pi1", (0.1, 0.2, 0.3, 0.4)),
    ("pi2", (0.05, 0.15, 0.25, 0.55)),
    ("pi3", (0.05, 0.1, 0.15, 0.7)),
)


def preset_rows(preset: str, seed: int) -> list[tuple[str, object, dict, float]]:
    """(label, scenario, strategy, alpha) for each summary row of a preset."""
    from seqaudit import simulate

    derive = simulate.derive_seed
    if preset == "fig1":
        return [
            (f"fig1-delta{d}", simulate.FixedMeans.from_gap(d, horizon=1000, seed=derive(seed, i)),
             {"kind": "simple"}, 0.01)
            for i, d in enumerate((0.0, 0.1, 0.2, 0.5))
        ]
    if preset == "fig2a":
        scen = simulate.LogisticDrift(horizon=1000, seed=derive(seed, 0))
        return [("fig2a-logistic", scen, {"kind": "simple"}, 0.01)]
    if preset == "fig2b":
        scen = simulate.SinusoidalDrift(horizon=500, seed=derive(seed, 0))
        return [("fig2b-sinusoidal", scen, {"kind": "simple"}, 0.01)]
    if preset == "fig5":
        rows = []
        for i, (label, policy) in enumerate(REGION_POLICIES):
            scen = simulate.PolicyPopulation(
                density=(REGION_DENSITY, REGION_DENSITY), outputs=REGION_OUTPUTS, policy=policy,
                labels=("NE", "NW", "SE", "SW"), horizon=2000, seed=derive(seed, i),
            )
            w_max = max(r / p for r, p in zip(REGION_DENSITY, policy))
            rows.append((f"fig5-{label}", scen, {"kind": "propensity", "scale": 1.0 / (2.0 * w_max)}, 0.05))
        return rows
    raise ValueError(f"unknown preset {preset!r}")


def replicate_seed(scenario, index: int) -> int:
    from seqaudit import simulate

    return simulate.derive_seed(scenario.seed, index)


def frontier_scenarios(seed: int):
    """(null, alternative) scenarios of ``seqaudit bench`` at the workload's
    settings; replicate i of each is ``generate_stream`` at
    ``replicate_seed(scenario, i)``."""
    from seqaudit import simulate

    pairs = FRONTIER_HORIZON // 2
    null = simulate.FixedMeans(
        (FRONTIER_CENTER, FRONTIER_CENTER), horizon=pairs, seed=simulate.derive_seed(seed, 101)
    )
    alt = simulate.FixedMeans.from_gap(
        FRONTIER_DELTA, center=FRONTIER_CENTER, horizon=pairs, seed=simulate.derive_seed(seed, 202)
    )
    return null, alt


# The README's three golden commands (their outputs are committed under
# tests/golden/) and the golden input audited under the batched strategy,
# which no golden covers; every run checks them before timing.
GOLDEN_AUDIT = ("audit", "{golden}/audit_input.jsonl", "--alpha", "0.05", "--seed", "3")
PROBE_COMMANDS = (
    ("golden-audit", GOLDEN_AUDIT + ("--trajectory-out", "{out}/audit_trajectory.csv")),
    ("golden-simulate", ("simulate", "--preset", "fig1", "--replicates", "5", "--horizon", "300",
                         "--seed", "1", "--out", "{out}/simulate_fig1.csv")),
    ("golden-bench", ("bench", "--alphas", "0.05", "--methods", "betting,perm-m2",
                      "--batch-sizes", "50", "--replicates", "10", "--horizon", "600",
                      "--permutations", "100", "--seed", "2", "--out", "{out}/bench_small.csv")),
    ("golden-batched", GOLDEN_AUDIT + ("--strategy", "batched")),
)


def probe_commands(golden: Path, out: Path) -> list[list[str]]:
    return [[a.format(golden=golden, out=out) for a in argv] for _, argv in PROBE_COMMANDS]
