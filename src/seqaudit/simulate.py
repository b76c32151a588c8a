"""Deterministic, seeded generators for the synthetic audit streams used in
experiments: fixed-mean Bernoulli groups, two drift shapes (a smooth logistic
onset and noisy sinusoids with a linear drift), and finite populations
sampled through a non-uniform region policy with known propensities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import repeat
from typing import Callable, Iterator

import numpy as np

from .core import (
    AuditConfig, AuditRecord, DecisionKind, ValidationError, _from_dict, _is_number, check_seed, is_count,
)
from .columns import batched_args, block_args, refused_weights
from .engine import AuditSession, run_args, session_new, session_step
from .engine import run_stream  # noqa: F401  (perfbench's tracer wraps it here)


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-replicate seed: adding replicates never changes earlier
    streams, and the derivation is independent of scheduling."""
    check_seed(master_seed)
    ss = np.random.SeedSequence([master_seed, int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


@dataclass(frozen=True, slots=True)
class FixedMeans:
    """Each group b emits Bernoulli(means[b]) outputs at every step."""

    means: tuple[float, ...]
    horizon: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_run(self)
        if len(self.means) < 2:
            raise ValidationError("need at least two group means")
        for m in self.means:
            if not (0.0 <= m <= 1.0):
                raise ValidationError(f"group mean {m!r} outside [0, 1]")

    @property
    def group_count(self) -> int:
        return len(self.means)

    @staticmethod
    def from_gap(delta: float, center: float = 0.5, horizon: int = 1000, seed: int = 0) -> "FixedMeans":
        """Two groups straddling ``center`` with mean difference ``delta``."""
        return FixedMeans((center + delta / 2.0, center - delta / 2.0), horizon=horizon, seed=seed)


@dataclass(frozen=True, slots=True)
class LogisticDrift:
    """Equal means until ``onset``, after which group 1 climbs a logistic
    curve: base + amplitude / (1 + exp((midpoint - t) / scale))."""

    base: float = 0.3
    amplitude: float = 0.5
    onset: int = 100
    midpoint: int = 250
    scale: float = 25.0
    horizon: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_run(self)
        if not (0.0 <= self.base <= 1.0 and 0.0 <= self.base + self.amplitude <= 1.0):
            raise ValidationError("logistic drift means leave [0, 1]")
        if self.onset < 1 or self.scale <= 0:
            raise ValidationError("onset must be >= 1 and scale positive")

    @property
    def group_count(self) -> int:
        return 2


@dataclass(frozen=True, slots=True)
class SinusoidalDrift:
    """Both means oscillate; group 1 additionally drifts upward linearly.
    Gaussian noise (sd ``noise_sd``) is added to the mean before each
    Bernoulli draw and clamped to [0, 1]; clamp events are counted."""

    level: float = 0.4
    amplitude_0: float = 0.1
    wavelength_0: float = 40.0
    amplitude_1: float = 0.1
    wavelength_1: float = 20.0
    drift_rate: float = 0.001
    noise_sd: float = 0.1
    horizon: int = 500
    seed: int = 0

    def __post_init__(self):
        _check_run(self)
        if self.noise_sd < 0 or self.wavelength_0 <= 0 or self.wavelength_1 <= 0:
            raise ValidationError("noise sd must be >= 0 and wavelengths positive")
        t = np.arange(1, self.horizon + 1, dtype=float)
        for b in (0, 1):
            mu = _sinusoid_mean(self, b, t)
            if mu.min() < 0.0 or mu.max() > 1.0:
                raise ValidationError(f"noiseless mean of group {b} leaves [0, 1] within the horizon")

    @property
    def group_count(self) -> int:
        return 2


@dataclass(frozen=True, slots=True)
class PolicyPopulation:
    """Finite support with per-group population shares and model outputs;
    observations are sampled through ``policy`` and carry their propensity
    and density, so weighted payoffs can undo the sampling bias exactly.

    ``density_estimates`` optionally holds per-group estimated shares for
    exercising the estimated-density payoff.
    """

    density: tuple[tuple[float, ...], ...]
    outputs: tuple[tuple[float, ...], ...]
    policy: tuple[float, ...]
    density_estimates: tuple[tuple[float, ...], ...] | None = None
    labels: tuple[str, ...] | None = None
    horizon: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_run(self)
        n = len(self.policy)
        if n == 0:
            raise ValidationError("empty support")
        if abs(math.fsum(self.policy) - 1.0) > 1e-9 or min(self.policy) < 0.0:
            raise ValidationError("policy must be a probability vector")
        if len(self.density) < 2 or len(self.outputs) != len(self.density):
            raise ValidationError("need density and outputs for at least two groups")
        for b, (rho, phi) in enumerate(zip(self.density, self.outputs)):
            if len(rho) != n or len(phi) != n:
                raise ValidationError(f"group {b} rows must match the support size {n}")
            if abs(math.fsum(rho) - 1.0) > 1e-9 or min(rho) < 0.0:
                raise ValidationError(f"density of group {b} must be a probability vector")
            for p, r in zip(self.policy, rho):
                if r > 0.0 and p <= 0.0:
                    raise ValidationError("policy must place positive mass wherever the population does")
            for v in phi:
                if not (0.0 <= v <= 1.0):
                    raise ValidationError(f"model output {v!r} outside [0, 1]")
        if self.density_estimates is not None:
            if len(self.density_estimates) != len(self.density):
                raise ValidationError("density estimates need one row per group")
            for row in self.density_estimates:
                if len(row) != n or min(row) <= 0.0:
                    raise ValidationError("density estimates must be positive per support point")
        if self.labels is not None and len(self.labels) != n:
            raise ValidationError("labels must match the support size")

    @property
    def group_count(self) -> int:
        return len(self.density)


Scenario = FixedMeans | LogisticDrift | SinusoidalDrift | PolicyPopulation


def _check_run(scenario: Scenario) -> None:
    """Refuse a boolean (never the number 0 or 1), a non-finite number or an
    int beyond the float range, which no range check sees, anywhere in a
    field; then a bad horizon or seed."""
    for f in fields(scenario):
        _check_finite(f.name, getattr(scenario, f.name))
    horizon = scenario.horizon
    if not is_count(horizon, 1):
        raise ValidationError(f"horizon must be a positive integer, got {horizon!r}")
    check_seed(scenario.seed)


def _check_finite(name: str, value) -> None:
    if isinstance(value, (int, float)) and not _is_number(value):
        raise ValidationError(f"scenario field {name!r} must hold finite numbers, got {value!r}")
    if isinstance(value, (tuple, list)):
        for v in value:
            _check_finite(name, v)


def _sinusoid_mean(s: SinusoidalDrift, group: int, t):
    if group == 0:
        return s.level + s.amplitude_0 * np.sin(t / s.wavelength_0)
    return s.level + s.amplitude_1 * np.sin(t / s.wavelength_1) + s.drift_rate * t


# Region-policy preset (fig5): uniform population over four regions, group 0
# scored higher than group 1 everywhere, and three sampling policies that
# deviate from the population shares to an increasing degree.
_REGIONS = ("NE", "NW", "SE", "SW")
_REGION_DENSITY = (0.25, 0.25, 0.25, 0.25)
_REGION_OUTPUTS = ((0.9, 0.7, 0.5, 0.3), (0.6, 0.4, 0.2, 0.0))
REGION_POLICIES = {
    "uniform": (0.25, 0.25, 0.25, 0.25),
    "pi1": (0.1, 0.2, 0.3, 0.4),
    "pi2": (0.05, 0.15, 0.25, 0.55),
    "pi3": (0.05, 0.1, 0.15, 0.7),
}


def region_population(policy: tuple[float, ...], horizon: int = 1000, seed: int = 0) -> PolicyPopulation:
    return PolicyPopulation(density=(_REGION_DENSITY, _REGION_DENSITY), outputs=_REGION_OUTPUTS, policy=policy,
                            labels=_REGIONS, horizon=horizon, seed=seed)


def policy_corrective_scale(pop: PolicyPopulation, weight: str = "density", delta_min: float = 1.0) -> float:
    """Largest admissible corrective factor of a weighted payoff on this
    population: delta_min / (2 * max weight) over the points the policy
    draws.  ``weight`` names the record field that, over the propensity,
    gives a point's weight, as the engine's strategy rows name it:
    ``density`` (the propensity payoff, delta_min 1) or ``density_estimate``."""
    rows = pop.density if weight == "density" else pop.density_estimates
    if rows is None:
        raise ValidationError("population carries no density estimates")
    w_max = max(r / p for row in rows for r, p in zip(row, pop.policy) if p > 0.0)
    return delta_min / (2.0 * w_max)


def draw_records(t: int, y: list[float], point_fields: list | None = None) -> tuple[AuditRecord, ...]:
    """The records of one drawn step ``t``, in group order: group b's output
    ``y[b]`` and, for a population, the drawn point's (propensity, density
    and, where the population has them, estimate) in ``point_fields[b]``."""
    records = []  # a loop: before Python 3.12 a comprehension builds a frame per step
    for b, v in enumerate(y):
        if point_fields is None:
            records.append(AuditRecord(t, b, v))
        else:
            records.append(AuditRecord(t, b, v, *point_fields[b]))
    return tuple(records)


def stream_to_iterable(
    scenario: Scenario, seed: int | None = None, clamped: list | None = None
) -> Iterator[AuditRecord]:
    """The scenario's records, interleaved by step then group, drawn lazily.
    The sampler draws up to ``_BLOCK_CAP`` steps at a time and each step's
    records are built when the stream reaches them.  Identical (scenario,
    seed) always yields identical records.  Each step whose noisy mean was
    clamped is appended to ``clamped``, steps drawn ahead of where the caller
    stops included."""
    rng = _rng(scenario.seed if seed is None else seed)
    draw = _block_drawer(scenario)
    clamped = [] if clamped is None else clamped
    for t, y, point_fields in _blocks(draw, rng, scenario.horizon, clamped, _BLOCK_CAP):
        if point_fields is None:
            per_step = repeat(None)
        else:  # (steps, groups, fields) as nested lists
            per_step = np.stack(list(point_fields.values()), axis=-1).tolist()
        for step, (outputs, step_fields) in enumerate(zip(y.tolist(), per_step), t + 1):
            yield from draw_records(step, outputs, step_fields)


def generate_stream(
    scenario: Scenario, seed: int | None = None, clamped: list | None = None
) -> list[AuditRecord]:
    """The whole of :func:`stream_to_iterable` as a list."""
    return list(stream_to_iterable(scenario, seed, clamped))


def draw_outputs(scenario: Scenario, seed: int | None = None) -> np.ndarray:
    """The model outputs of ``generate_stream(scenario, seed)`` as a
    (horizon, groups) array, row t - 1 holding step t's outputs in group
    order, drawn in one block.  Step 1's records are built through
    :func:`draw_records` once per stream: perfbench's tracer times the
    sampler by its ``draw_records`` calls, and a traced command that draws
    only here would otherwise make none."""
    rng = _rng(scenario.seed if seed is None else seed)
    y, _ = _block_drawer(scenario)(rng, 0, scenario.horizon, [])
    draw_records(1, y[0].tolist())
    return y


@dataclass(frozen=True, slots=True)
class MonteCarloSummary:
    replicates: int
    n_rejections: int
    fpr_or_power: float
    tau_mean: float
    tau_q10: float
    tau_q50: float
    tau_q90: float
    taus: tuple[int, ...] = ()
    n_final_rejections: int = 0  # rejections decided by the terminal U draw
    noise_clamped: int = 0
    trajectories: tuple[tuple[tuple[int, float], ...], ...] | None = None


def monte_carlo(
    config: AuditConfig,
    scenario: Scenario,
    replicates: int,
    record_trajectories: bool = False,
) -> MonteCarloSummary:
    """Run ``replicates`` independent audits of the scenario and summarize
    the rejection fraction and the stopping-time distribution over rejecting
    runs.  Per-replicate seeds derive from (seed, index), so results do not
    depend on execution order and adding replicates extends, never perturbs,
    the suite.

    Each replicate draws its steps in blocks and replays their payoff
    arguments through :func:`engine.run_args`.  The draws and arguments are
    the record path's, so every field equals that of a loop of
    ``run_stream(cfg_i, stream_to_iterable(scenario, seed_i))``, errors
    included; ``noise_clamped`` counts the steps each replicate consumed.
    """
    if not is_count(replicates, 1):
        raise ValidationError(f"replicates must be >= 1, got {replicates!r}")
    if scenario.group_count != config.group_count:
        raise ValidationError(
            f"scenario has {scenario.group_count} groups but the audit expects {config.group_count}"
        )
    taus: list[int] = []
    rejections = 0
    final_rejections = 0
    noise_clamped = 0
    trajectories: list | None = [] if record_trajectories else None
    draw = _block_drawer(scenario)
    session = session_new(config, record_trajectory=False)  # its step, shared by every replicate
    rows_per_step = 2 if session.row.batched else 1
    for i in range(replicates):
        rng = _rng(derive_seed(scenario.seed, i))
        clamped: list[int] = []
        # Only the randomized terminal step reads a replicate's own seed.
        cfg = replace(config, seed=derive_seed(config.seed, i)) if config.randomized_final_step else config
        blocks = _arg_blocks(session, scenario.horizon, draw, rng, clamped)
        report = run_args(cfg, blocks, record_trajectory=record_trajectories)
        decision = report.decision
        if decision.is_rejection:
            rejections += 1
            taus.append(decision.tau)
            if decision.kind is DecisionKind.FINAL_RANDOMIZED_REJECT:
                final_rejections += 1
        if clamped:
            # Blocks are drawn ahead of the stop: count the steps consumed.
            last = scenario.horizon
            if decision.kind is DecisionKind.REJECT:
                last = decision.tau // rows_per_step
            noise_clamped += sum(1 for t in clamped if t <= last)
        if trajectories is not None:
            trajectories.append(tuple(report.trajectory or ()))
    if taus:
        arr = np.asarray(taus, dtype=float)
        q10, q50, q90 = (float(q) for q in np.quantile(arr, [0.1, 0.5, 0.9]))
        tau_mean = float(arr.mean())
    else:
        tau_mean = q10 = q50 = q90 = math.nan
    return MonteCarloSummary(
        replicates=replicates,
        n_rejections=rejections,
        fpr_or_power=rejections / replicates,
        tau_mean=tau_mean,
        tau_q10=q10,
        tau_q50=q50,
        tau_q90=q90,
        taus=tuple(taus),
        n_final_rejections=final_rejections,
        noise_clamped=noise_clamped,
        trajectories=None if trajectories is None else tuple(trajectories),
    )


# Monte Carlo draws each replicate in blocks of steps.  The first block is
# small, so a replicate that stops early draws little past its stopping
# time; blocks double up to a cap that keeps memory flat.  The record path
# draws blocks of the cap from the start.
_BLOCK_FIRST = 32
_BLOCK_CAP = 2048


def _block_drawer(scenario: Scenario) -> Callable:
    """The sampler of a scenario.  The returned ``draw(rng, t, n, clamped)``
    gives steps t+1..t+n: an (n, groups) array of outputs ``y``, and for a
    population the record fields of the drawn points as arrays keyed by
    field name, in record order (propensity, density and, where the
    population has them, density_estimate), None otherwise.  Generator
    calls go in step then group order, so a stream does not depend on how
    it is cut into blocks; each clamped noisy mean appends its step to
    ``clamped``."""
    groups = scenario.group_count
    if isinstance(scenario, PolicyPopulation):
        cum = np.cumsum(scenario.policy)
        last_massive = max(i for i, p in enumerate(scenario.policy) if p > 0.0)
        cols = np.arange(groups)
        outputs = np.array(scenario.outputs)
        density = np.array(scenario.density)
        policy = np.array(scenario.policy)
        estimates = None if scenario.density_estimates is None else np.array(scenario.density_estimates)

        def draw_population(rng, t, n, clamped):
            # One uniform per group and step, in row-major order; the min
            # guards the float edge of a cumulative sum rounded below 1.
            x = np.minimum(np.searchsorted(cum, rng.random((n, groups)), side="right"), last_massive)
            point_fields = {"propensity": policy[x], "density": density[cols, x]}
            if estimates is not None:
                point_fields["density_estimate"] = estimates[cols, x]
            return outputs[cols, x], point_fields

        return draw_population
    if isinstance(scenario, FixedMeans):
        means = np.array([scenario.means])
    else:
        table = _drift_table(scenario)
        if isinstance(scenario, SinusoidalDrift) and scenario.noise_sd > 0.0:
            return _noisy_drawer(table, scenario.noise_sd)
        means = np.array(table)

    def draw_bernoulli(rng, t, n, clamped):
        p = means if len(means) == 1 else means[t:t + n]  # one row serves every step
        return (rng.random((n, groups)) < p).astype(float), None

    return draw_bernoulli


def _drift_table(scenario: LogisticDrift | SinusoidalDrift) -> list[list[float]]:
    """Each step's row of noiseless group means, from scalar float
    operations; noise, where a scenario has it, is added at draw time."""
    steps = range(1, scenario.horizon + 1)
    if isinstance(scenario, SinusoidalDrift):
        return [[float(_sinusoid_mean(scenario, b, float(t))) for b in (0, 1)] for t in steps]
    base, amplitude, midpoint, scale = scenario.base, scenario.amplitude, scenario.midpoint, scenario.scale
    return [
        [base, base if t < scenario.onset else base + amplitude / (1.0 + math.exp((midpoint - t) / scale))]
        for t in steps
    ]


def _noisy_drawer(table: list[list[float]], noise_sd: float) -> Callable:
    """Scalar loop for noisy means: each output's normal and uniform draws
    interleave, so no single array call yields them in order."""

    def draw_noisy(rng, t, n, clamped):
        # normal(0.0, sd) is 0.0 + sd * standard_normal(), the same sum for a mean >= 0;
        # a uniform in [0, 1) is below a noisy mean exactly when below it clamped to [0, 1].
        normal, uniform = rng.standard_normal, rng.random
        y = []
        for step in range(t + 1, t + n + 1):
            row = []
            for mean in table[step - 1]:
                noisy = mean + noise_sd * normal()
                if noisy < 0.0 or noisy > 1.0:
                    clamped.append(step)
                row.append(1.0 if uniform() < noisy else 0.0)
            y.append(row)
        return np.array(y), None

    return draw_noisy


def _blocks(
    draw: Callable, rng: np.random.Generator, horizon: int, clamped: list, first: int
) -> Iterator[tuple]:
    """(t, y, point_fields) for each block ``draw`` gives of steps
    1..horizon, t the steps before the block: ``first`` steps, then doubling
    up to _BLOCK_CAP."""
    t = 0
    n = first
    while t < horizon:
        n = min(n, horizon - t)
        yield t, *draw(rng, t, n, clamped)
        t += n
        n = min(2 * n, _BLOCK_CAP)


def _arg_blocks(
    session: AuditSession, horizon: int, draw: Callable, rng: np.random.Generator, clamped: list
) -> Iterator[np.ndarray]:
    """Payoff-argument blocks of one replicate for :func:`engine.run_args`:
    the session's own step run on each block's columns by
    ``columns.block_args``, or ``columns.batched_args`` for a batched
    audit.  A weighted strategy's weights (its row's field over the
    propensity, NaN where the draw lacks that field) are derived once per
    block and checked as the record path checks each record as it
    arrives, by step, then group: a block that reaches a record the check
    refuses yields the rows before its step, and on the next pull the
    session refuses that record, built from the draw, with the record
    path's error, so it surfaces at the step the record path raises it,
    and never once the run has stopped."""
    row, s = session.row, session.config.strategy
    for t, y, point_fields in _blocks(draw, rng, horizon, clamped, _BLOCK_FIRST):
        if row.batched:
            yield batched_args(y)
        elif row.weight is None:
            yield block_args(session, y)
        else:
            point_fields = point_fields or {}
            if row.weight in point_fields:
                w = point_fields[row.weight] / point_fields["propensity"]
            else:  # every record lacks it: the first is refused
                w = np.full(y.shape, math.nan)
            refused = np.flatnonzero(refused_weights(w, s.scale, s.delta_min))
            if not refused.size:
                yield block_args(session, y, w)
                continue
            j, b = divmod(int(refused[0]), w.shape[1])  # records arrive by step, then group
            yield block_args(session, y[:j], w[:j])
            point = (f[j, b].item() for f in point_fields.values())
            session_step(session, AuditRecord(t + j + 1, b, y[j, b].item(), *point))  # refuses it


_SCENARIO_TAGS = {
    FixedMeans: "fixed_means",
    LogisticDrift: "logistic_drift",
    SinusoidalDrift: "sinusoidal_drift",
    PolicyPopulation: "policy_population",
}


def scenario_from_dict(d: dict) -> Scenario:
    """The scenario a JSON object describes, lists read as tuples; a missing
    field that has a default takes the scenario class's default.  Anything
    else that does not describe a valid scenario, an unknown key or a
    boolean or non-finite value included, raises ValidationError."""
    return _from_dict(d, _SCENARIO_TAGS, "scenario")
