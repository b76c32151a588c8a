"""Deterministic, seeded generators for the synthetic audit streams used in
experiments: fixed-mean Bernoulli groups, two drift shapes (a smooth logistic
onset and noisy sinusoids with a linear drift), and finite populations
sampled through a non-uniform region policy with known propensities.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from itertools import repeat
from typing import Callable, Iterator

import numpy as np

from .core import AuditConfig, AuditRecord, DecisionKind, PayoffStrategy, ValidationError
from .engine import STRATEGIES, run_args, run_stream  # noqa: F401  (run_stream: perfbench's tracer wraps it here)


def derive_seed(master_seed: int, index: int) -> int:
    """Stable per-replicate seed: adding replicates never changes earlier
    streams, and the derivation is independent of scheduling."""
    _check_seed(master_seed)
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
        if len(self.means) < 2:
            raise ValidationError("need at least two group means")
        for m in self.means:
            if not (0.0 <= m <= 1.0):
                raise ValidationError(f"group mean {m!r} outside [0, 1]")
        _check_run(self)

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


def _check_seed(seed: int) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


def _check_run(scenario: Scenario) -> None:
    horizon = scenario.horizon
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise ValidationError(f"horizon must be a positive integer, got {horizon!r}")
    _check_seed(scenario.seed)


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


def region_population(
    policy: tuple[float, ...], equalize_means: bool = False, horizon: int = 1000, seed: int = 0
) -> PolicyPopulation:
    outputs = _REGION_OUTPUTS
    if equalize_means:
        gap = sum(
            (a - b) * r for a, b, r in zip(outputs[0], outputs[1], _REGION_DENSITY)
        )
        outputs = (outputs[0], tuple(v + gap for v in outputs[1]))
    return PolicyPopulation(
        density=(_REGION_DENSITY, _REGION_DENSITY),
        outputs=outputs,
        policy=policy,
        labels=_REGIONS,
        horizon=horizon,
        seed=seed,
    )


def policy_corrective_scale(pop: PolicyPopulation) -> float:
    """Largest admissible corrective factor for the propensity payoff on this
    population: 1 / (2 * max importance weight) over observable points."""
    weights = (r / p for rho in pop.density for r, p in zip(rho, pop.policy) if p > 0.0)
    w_max = max(weights, default=0.0)
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
    weights = (e / p for row in pop.density_estimates for e, p in zip(row, pop.policy) if p > 0.0)
    return delta_min / (2.0 * max(weights))


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
            per_step = np.stack([a for a in point_fields if a is not None], axis=-1).tolist()
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
    rows_per_step = 2 if STRATEGIES[type(config.strategy)].batched else 1
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
# time; blocks double up to a cap that keeps memory flat.  The record path
# draws blocks of the cap from the start.
_BLOCK_FIRST = 32
_BLOCK_CAP = 2048


def _block_drawer(scenario: Scenario) -> Callable:
    """The sampler of a scenario.  The returned ``draw(rng, t, n, clamped)``
    gives steps t+1..t+n: an (n, groups) array of outputs ``y``, and for a
    population the record fields of the drawn points as arrays (propensity,
    density, estimate or None), None otherwise.  Generator calls go in step
    then group order, so a stream does not depend on how it is cut into
    blocks; each clamped noisy mean appends its step to ``clamped``."""
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
            estimate = None if estimates is None else estimates[cols, x]
            return outputs[cols, x], (policy[x], density[cols, x], estimate)

        return draw_population
    if isinstance(scenario, FixedMeans):
        means = np.array([scenario.means])
    else:
        # Through mean_at, so each draw compares against the mean it documents.
        table = [
            [mean_at(scenario, b, t) for b in range(groups)] for t in range(1, scenario.horizon + 1)
        ]
        if isinstance(scenario, SinusoidalDrift) and scenario.noise_sd > 0.0:
            return _noisy_drawer(table, scenario.noise_sd)
        means = np.array(table)

    def draw_bernoulli(rng, t, n, clamped):
        p = means if len(means) == 1 else means[t:t + n]  # one row serves every step
        return (rng.random((n, groups)) < p).astype(float), None

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
    strategy: PayoffStrategy, horizon: int, draw: Callable, rng: np.random.Generator, clamped: list
) -> Iterator[np.ndarray]:
    """Payoff-argument blocks of one replicate for :func:`engine.run_args`,
    from the array form in the strategy's row, with the weights
    density / propensity and estimate / propensity that the record path's
    payoffs form.  A block that reaches a step the strategy's payoff rejects
    is cut before that step and the error raised on the next pull, so it
    surfaces at the step the record path raises it, and never once the run
    has stopped."""
    block_args = STRATEGIES[type(strategy)].block
    for _, y, point_fields in _blocks(draw, rng, horizon, clamped, _BLOCK_FIRST):
        w = w_hat = None
        if point_fields is not None:
            propensity, density, estimate = point_fields
            w = density / propensity
            w_hat = None if estimate is None else estimate / propensity
        args, error = block_args(strategy, y, w, w_hat)
        if len(args):
            yield args
        if error is not None:
            raise error


_SCENARIO_TAGS = {
    FixedMeans: "fixed_means",
    LogisticDrift: "logistic_drift",
    SinusoidalDrift: "sinusoidal_drift",
    PolicyPopulation: "policy_population",
}


def _as_lists(value):
    return [_as_lists(v) for v in value] if isinstance(value, tuple) else value


def _as_tuples(value):
    return tuple(_as_tuples(v) for v in value) if isinstance(value, list) else value


def scenario_to_dict(scenario: Scenario) -> dict:
    """The JSON object of a scenario: its kind and every field that is not
    None, tuples written as lists."""
    d: dict = {"kind": _SCENARIO_TAGS[type(scenario)]}
    for f in fields(scenario):
        value = getattr(scenario, f.name)
        if value is not None:
            d[f.name] = _as_lists(value)
    return d


def scenario_from_dict(d: dict) -> Scenario:
    """The scenario a JSON object describes, lists read as tuples; a missing
    field that has a default takes the scenario class's default.  Anything
    else that does not describe a valid scenario, an unknown key included,
    raises ValidationError."""
    if not isinstance(d, dict):
        raise ValidationError(f"a scenario must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    cls = next((c for c, tag in _SCENARIO_TAGS.items() if tag == kind), None)
    if cls is None:
        raise ValidationError(f"unknown scenario kind {kind!r}")
    names = [f.name for f in fields(cls)]
    for key in d:
        if key != "kind" and key not in names:
            raise ValidationError(f"scenario {kind!r} has no field {key!r}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in d:
            raise ValidationError(f"scenario {kind!r} lacks the field {f.name!r}")
    try:
        return cls(**{name: _as_tuples(d[name]) for name in names if name in d})
    except TypeError as exc:
        raise ValidationError(f"scenario {kind!r} holds a value of the wrong type: {exc}") from None
