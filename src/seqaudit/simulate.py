"""Deterministic, seeded generators for the synthetic audit streams used in
experiments: fixed-mean Bernoulli groups, two drift shapes (a smooth logistic
onset and noisy sinusoids with a linear drift), and finite populations
sampled through a non-uniform region policy with known propensities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from . import payoffs
from .core import (
    AuditConfig,
    AuditRecord,
    Batched,
    Composite,
    DecisionKind,
    EstimatedDensity,
    PayoffStrategy,
    Simple,
    ValidationError,
)
from .engine import run_args, run_stream  # noqa: F401  (run_stream: perfbench's tracer wraps it here)


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-replicate seed: adding replicates never changes earlier
    streams, and the derivation is independent of scheduling."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
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
        if len(self.means) < 2:
            raise ValidationError("need at least two group means")
        for m in self.means:
            if not (0.0 <= m <= 1.0):
                raise ValidationError(f"group mean {m!r} outside [0, 1]")
        _check_horizon(self.horizon)

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
        _check_horizon(self.horizon)
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
        _check_horizon(self.horizon)
        if self.noise_sd < 0 or self.wavelength_0 <= 0 or self.wavelength_1 <= 0:
            raise ValidationError("noise sd must be >= 0 and wavelengths positive")
        t = np.arange(1, self.horizon + 1, dtype=float)
        for b in (0, 1):
            mu = _sinusoid_mean(self, b, t)
            if mu.min() < 0.0 or mu.max() > 1.0:
                raise ValidationError(
                    f"noiseless mean of group {b} leaves [0, 1] within the horizon"
                )

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
        _check_horizon(self.horizon)
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
                    raise ValidationError(
                        "policy must place positive mass wherever the population does"
                    )
            for v in phi:
                if not (0.0 <= v <= 1.0):
                    raise ValidationError(f"model output {v!r} outside [0, 1]")
        if self.density_estimates is not None:
            for row in self.density_estimates:
                if len(row) != n or min(row) <= 0.0:
                    raise ValidationError("density estimates must be positive per support point")
        if self.labels is not None and len(self.labels) != n:
            raise ValidationError("labels must match the support size")

    @property
    def group_count(self) -> int:
        return len(self.density)


Scenario = FixedMeans | LogisticDrift | SinusoidalDrift | PolicyPopulation


def _check_horizon(horizon: int) -> None:
    if not isinstance(horizon, int) or horizon < 1:
        raise ValidationError(f"horizon must be a positive integer, got {horizon!r}")


def _sinusoid_mean(s: SinusoidalDrift, group: int, t):
    if group == 0:
        return s.level + s.amplitude_0 * np.sin(t / s.wavelength_0)
    return s.level + s.amplitude_1 * np.sin(t / s.wavelength_1) + s.drift_rate * t


def mean_at(scenario: Scenario, group: int, t: int) -> float:
    """Noiseless mean of ``group`` at step ``t`` (noise, where a scenario has
    it, is added at draw time)."""
    if t < 1 or t > scenario.horizon:
        raise ValidationError(f"t={t} outside the scenario horizon {scenario.horizon}")
    if group < 0 or group >= scenario.group_count:
        raise ValidationError(f"group {group} out of range")
    if isinstance(scenario, FixedMeans):
        return scenario.means[group]
    if isinstance(scenario, LogisticDrift):
        if group == 0 or t < scenario.onset:
            return scenario.base
        return scenario.base + scenario.amplitude / (1.0 + math.exp((scenario.midpoint - t) / scenario.scale))
    if isinstance(scenario, SinusoidalDrift):
        return float(_sinusoid_mean(scenario, group, float(t)))
    mu = 0.0
    for phi, rho in zip(scenario.outputs[group], scenario.density[group]):
        mu += phi * rho
    return mu


def policy_corrective_scale(pop: PolicyPopulation) -> float:
    """Largest admissible corrective factor for the propensity payoff on this
    population: 1 / (2 * max importance weight) over observable points."""
    w_max = 0.0
    for rho in pop.density:
        for r, p in zip(rho, pop.policy):
            if p > 0.0 and r / p > w_max:
                w_max = r / p
    if w_max <= 0.0:
        raise ValidationError("population has no observable mass")
    return 1.0 / (2.0 * w_max)


def estimated_density_bounds(pop: PolicyPopulation) -> tuple[float, float]:
    """(delta_min, delta_max): extreme ratios of estimated to true density
    over points with population mass."""
    if pop.density_estimates is None:
        raise ValidationError("population carries no density estimates")
    ratios = [
        est / r
        for rho, est_row in zip(pop.density, pop.density_estimates)
        for r, est in zip(rho, est_row)
        if r > 0.0
    ]
    return min(ratios), max(ratios)


def estimated_density_scale(pop: PolicyPopulation, delta_min: float) -> float:
    """Largest admissible corrective factor for the estimated-density payoff."""
    if pop.density_estimates is None:
        raise ValidationError("population carries no density estimates")
    w_max = 0.0
    for est_row in pop.density_estimates:
        for est, p in zip(est_row, pop.policy):
            if p > 0.0 and est / p > w_max:
                w_max = est / p
    return delta_min / (2.0 * w_max)


def draw_records(
    scenario: Scenario, t: int, rng: np.random.Generator, stats: dict | None = None
) -> tuple[AuditRecord, ...]:
    """One record per group at step ``t``; consumes the generator in group
    order so the stream is reproducible byte for byte."""
    if isinstance(scenario, PolicyPopulation):
        cum = np.cumsum(scenario.policy)
        last_massive = max(i for i, p in enumerate(scenario.policy) if p > 0.0)
        records = []
        for b in range(scenario.group_count):
            x = int(np.searchsorted(cum, rng.random(), side="right"))
            if x > last_massive:  # float edge: cumulative sum rounded below 1
                x = last_massive
            records.append(
                AuditRecord(
                    t=t,
                    group=b,
                    y_hat=scenario.outputs[b][x],
                    propensity=scenario.policy[x],
                    density=scenario.density[b][x],
                    density_estimate=None
                    if scenario.density_estimates is None
                    else scenario.density_estimates[b][x],
                )
            )
        return tuple(records)
    records = []
    for b in range(scenario.group_count):
        p = mean_at(scenario, b, t)
        if isinstance(scenario, SinusoidalDrift) and scenario.noise_sd > 0.0:
            noisy = p + rng.normal(0.0, scenario.noise_sd)
            clipped = min(1.0, max(0.0, noisy))
            if stats is not None and clipped != noisy:
                stats["noise_clamped"] = stats.get("noise_clamped", 0) + 1
            p = clipped
        y = 1.0 if rng.random() < p else 0.0
        records.append(AuditRecord(t=t, group=b, y_hat=y))
    return tuple(records)


def generate_stream(
    scenario: Scenario, seed: int | None = None, stats: dict | None = None
) -> list[AuditRecord]:
    """The full record stream of a scenario, interleaved by step then group.
    Identical (scenario, seed) always yields identical records."""
    rng = _rng(scenario.seed if seed is None else seed)
    out: list[AuditRecord] = []
    for t in range(1, scenario.horizon + 1):
        out.extend(draw_records(scenario, t, rng, stats))
    return out


def draw_outputs(scenario: Scenario, seed: int | None = None) -> np.ndarray:
    """The model outputs of ``generate_stream(scenario, seed)`` as a
    (horizon, groups) array, row t - 1 holding step t's outputs in group
    order.  Step 1 goes through :func:`draw_records` and the rest through
    one block of the sampler Monte Carlo uses; the two make the same
    generator calls.  (The one record draw per stream keeps perfbench's
    tracer, which times the sampler by its ``draw_records`` calls, able to
    trace commands that draw only here.)"""
    rng = _rng(scenario.seed if seed is None else seed)
    first = [r.y_hat for r in draw_records(scenario, 1, rng)]
    rest, _, _ = _block_drawer(scenario)(rng, 1, scenario.horizon - 1, [])
    return np.vstack([first, rest])


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
    horizon: int | None = None,
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
    if replicates < 1:
        raise ValidationError(f"replicates must be >= 1, got {replicates!r}")
    if horizon is not None:
        scenario = replace(scenario, horizon=horizon)
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
    rows_per_step = 2 if isinstance(config.strategy, Batched) else 1
    for i in range(replicates):
        rng = _rng(derive_seed(scenario.seed, i))
        clamped: list[int] = []
        cfg = replace(config, seed=derive_seed(config.seed, i))
        blocks = _arg_blocks(cfg.strategy, scenario.horizon, draw, rng, clamped)
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
# time; blocks double up to a cap that keeps memory flat.
_BLOCK_FIRST = 32
_BLOCK_CAP = 2048


def _block_drawer(scenario: Scenario) -> Callable:
    """Block form of :func:`draw_records` for one scenario.  The returned
    ``draw(rng, t, n, clamped)`` gives steps t+1..t+n as an (n, groups)
    array of outputs ``y`` and, for a population, the arrays of importance
    weights ``w`` and of estimated weights ``w_hat`` (None where the records
    would lack the fields).  It makes the generator calls of
    :func:`draw_records` in the same order, so the values are the record
    path's; each clamped noisy mean appends its step to ``clamped``."""
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
            # rng.random((n, groups)) yields the doubles of n * groups scalar calls.
            x = np.minimum(np.searchsorted(cum, rng.random((n, groups)), side="right"), last_massive)
            propensity = policy[x]
            w_hat = None if estimates is None else estimates[cols, x] / propensity
            return outputs[cols, x], density[cols, x] / propensity, w_hat

        return draw_population
    if isinstance(scenario, FixedMeans):
        means = np.array([scenario.means])
    else:
        # Through mean_at, once per call, so each mean is the one the record
        # path compares its uniform against.
        table = [
            [mean_at(scenario, b, t) for b in range(groups)] for t in range(1, scenario.horizon + 1)
        ]
        if isinstance(scenario, SinusoidalDrift) and scenario.noise_sd > 0.0:
            return _noisy_drawer(table, scenario.noise_sd)
        means = np.array(table)

    def draw_bernoulli(rng, t, n, clamped):
        p = means if len(means) == 1 else means[t:t + n]  # one row serves every step
        return (rng.random((n, groups)) < p).astype(float), None, None

    return draw_bernoulli


def _noisy_drawer(table: list[list[float]], noise_sd: float) -> Callable:
    """Scalar loop for noisy means: each output's normal and uniform draws
    interleave, so no single array call yields them in order."""

    def draw_noisy(rng, t, n, clamped):
        y = []
        for step in range(t + 1, t + n + 1):
            row = []
            for mean in table[step - 1]:
                noisy = mean + rng.normal(0.0, noise_sd)
                p = min(1.0, max(0.0, noisy))
                if p != noisy:
                    clamped.append(step)
                row.append(1.0 if rng.random() < p else 0.0)
            y.append(row)
        return np.array(y), None, None

    return draw_noisy


def _arg_blocks(
    strategy: PayoffStrategy, horizon: int, draw: Callable, rng: np.random.Generator, clamped: list
) -> Iterator[np.ndarray]:
    """Payoff-argument blocks of one replicate for :func:`engine.run_args`.
    A block that reaches a step the strategy's payoff rejects is cut before
    that step and the error raised on the next pull, so it surfaces at the
    step the record path raises it, and never once the run has stopped."""
    t = 0
    n = _BLOCK_FIRST
    while t < horizon:
        n = min(n, horizon - t)
        y, w, w_hat = draw(rng, t, n, clamped)
        error = None
        if isinstance(strategy, Simple):
            args = payoffs.simple_args(y)
        elif isinstance(strategy, Batched):
            args = payoffs.batched_args(y)
        elif isinstance(strategy, Composite):
            args = payoffs.composite_args(y, strategy.epsilon)
        else:
            estimated = isinstance(strategy, EstimatedDensity)
            weights = w_hat if estimated else w
            if weights is None:  # the scenario's records lack the fields
                raise payoffs.missing_weight_error(1, 0, estimated)
            if estimated:
                args, error = payoffs.estimated_density_args(y, weights, strategy)
            else:
                args, error = payoffs.propensity_args(y, weights, strategy.scale)
        if len(args):
            yield args
        if error is not None:
            raise error
        t += n
        n = min(2 * n, _BLOCK_CAP)


_SCENARIO_TAGS = {
    FixedMeans: "fixed_means",
    LogisticDrift: "logistic_drift",
    SinusoidalDrift: "sinusoidal_drift",
    PolicyPopulation: "policy_population",
}


def scenario_to_dict(scenario: Scenario) -> dict:
    d: dict = {"kind": _SCENARIO_TAGS[type(scenario)], "horizon": scenario.horizon, "seed": scenario.seed}
    if isinstance(scenario, FixedMeans):
        d["means"] = list(scenario.means)
    elif isinstance(scenario, LogisticDrift):
        d.update(
            base=scenario.base,
            amplitude=scenario.amplitude,
            onset=scenario.onset,
            midpoint=scenario.midpoint,
            scale=scenario.scale,
        )
    elif isinstance(scenario, SinusoidalDrift):
        d.update(
            level=scenario.level,
            amplitude_0=scenario.amplitude_0,
            wavelength_0=scenario.wavelength_0,
            amplitude_1=scenario.amplitude_1,
            wavelength_1=scenario.wavelength_1,
            drift_rate=scenario.drift_rate,
            noise_sd=scenario.noise_sd,
        )
    else:
        d.update(
            density=[list(row) for row in scenario.density],
            outputs=[list(row) for row in scenario.outputs],
            policy=list(scenario.policy),
        )
        if scenario.density_estimates is not None:
            d["density_estimates"] = [list(row) for row in scenario.density_estimates]
        if scenario.labels is not None:
            d["labels"] = list(scenario.labels)
    return d


def scenario_from_dict(d: dict) -> Scenario:
    kind = d.get("kind")
    common = {"horizon": d.get("horizon", 1000), "seed": d.get("seed", 0)}
    if kind == "fixed_means":
        return FixedMeans(means=tuple(d["means"]), **common)
    if kind == "logistic_drift":
        keys = ("base", "amplitude", "onset", "midpoint", "scale")
        return LogisticDrift(**{k: d[k] for k in keys if k in d}, **common)
    if kind == "sinusoidal_drift":
        keys = (
            "level", "amplitude_0", "wavelength_0", "amplitude_1",
            "wavelength_1", "drift_rate", "noise_sd",
        )
        return SinusoidalDrift(**{k: d[k] for k in keys if k in d}, **common)
    if kind == "policy_population":
        return PolicyPopulation(
            density=tuple(tuple(row) for row in d["density"]),
            outputs=tuple(tuple(row) for row in d["outputs"]),
            policy=tuple(d["policy"]),
            density_estimates=None
            if "density_estimates" not in d
            else tuple(tuple(row) for row in d["density_estimates"]),
            labels=None if "labels" not in d else tuple(d["labels"]),
            **common,
        )
    raise ValidationError(f"unknown scenario kind {kind!r}")


def stream_to_iterable(
    scenario: Scenario, seed: int | None = None, stats: dict | None = None
) -> Iterable[AuditRecord]:
    """Lazy variant of :func:`generate_stream`; draws the same records in the
    same order, one step at a time."""
    rng = _rng(scenario.seed if seed is None else seed)
    for t in range(1, scenario.horizon + 1):
        yield from draw_records(scenario, t, rng, stats)
