"""Scenario generators: formula checks, determinism, and the seeded Monte
Carlo harness."""
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from seqaudit.core import (
    AuditConfig,
    AuditError,
    Batched,
    Composite,
    DecisionKind,
    EstimatedDensity,
    InvariantError,
    Propensity,
    Simple,
    ValidationError,
)
from seqaudit.engine import run_stream
from seqaudit.ingest import record_to_dict
from seqaudit.simulate import (
    FixedMeans,
    LogisticDrift,
    PolicyPopulation,
    SinusoidalDrift,
    derive_seed,
    draw_outputs,
    estimated_density_bounds,
    estimated_density_scale,
    generate_stream,
    mean_at,
    monte_carlo,
    policy_corrective_scale,
    scenario_from_dict,
    scenario_to_dict,
    stream_to_iterable,
)


def test_fixed_means_from_gap():
    scen = FixedMeans.from_gap(0.2)
    assert scen.means == pytest.approx((0.6, 0.4))
    for t in (1, 500, 1000):
        assert mean_at(scen, 0, t) == scen.means[0]
        assert mean_at(scen, 1, t) == scen.means[1]


def test_logistic_drift_means():
    scen = LogisticDrift(horizon=1000)
    assert mean_at(scen, 1, 250) == pytest.approx(0.55)
    assert mean_at(scen, 1, 99) == 0.3
    assert mean_at(scen, 1, 100) == pytest.approx(0.3012363115783174)
    assert mean_at(scen, 0, 900) == 0.3
    assert mean_at(scen, 1, 900) == pytest.approx(0.8, abs=1e-9)


def test_sinusoidal_means_and_validation():
    scen = SinusoidalDrift(horizon=500)
    assert mean_at(scen, 0, 100) == pytest.approx(0.4 + math.sin(100 / 40) / 10)
    assert mean_at(scen, 1, 100) == pytest.approx(0.4 + math.sin(100 / 20) / 10 + 0.1)
    with pytest.raises(ValidationError):
        SinusoidalDrift(horizon=5000)  # linear drift escapes [0, 1]


def test_mean_at_bounds_checked():
    scen = FixedMeans.from_gap(0.0, horizon=10)
    with pytest.raises(ValidationError):
        mean_at(scen, 0, 11)
    with pytest.raises(ValidationError):
        mean_at(scen, 2, 1)


def test_degenerate_bernoulli_draws():
    scen = FixedMeans((1.0, 0.0), horizon=50)
    stream = generate_stream(scen)
    assert len(stream) == 100
    for rec0, rec1 in zip(stream[::2], stream[1::2]):
        assert (rec0.y_hat, rec1.y_hat) == (1.0, 0.0)


def test_policy_population_attaches_weights():
    pop = PolicyPopulation(
        density=((0.5, 0.5), (0.5, 0.5)),
        outputs=((1.0, 0.0), (0.5, 0.5)),
        policy=(0.25, 0.75),
        horizon=10,
    )
    assert policy_corrective_scale(pop) == pytest.approx(0.25)
    rec0, rec1 = generate_stream(pop, seed=1)[:2]
    for rec in (rec0, rec1):
        assert rec.propensity in (0.25, 0.75)
        assert rec.density == 0.5
    assert mean_at(pop, 0, 1) == pytest.approx(0.5)
    assert mean_at(pop, 1, 1) == pytest.approx(0.5)


def test_policy_identity_weights_when_policy_matches_population():
    pop = PolicyPopulation(
        density=((0.3, 0.7), (0.3, 0.7)),
        outputs=((0.8, 0.1), (0.4, 0.2)),
        policy=(0.3, 0.7),
        horizon=10,
    )
    for rec in generate_stream(pop, seed=2):
        assert rec.density == rec.propensity  # weight is exactly 1


def test_policy_sampling_frequencies_match_policy():
    policy = (0.05, 0.1, 0.15, 0.7)
    outputs_0 = (0.9, 0.7, 0.5, 0.3)  # distinct, so group 0's output names the point
    n = 100_000
    pop = PolicyPopulation(
        density=((0.25,) * 4, (0.25,) * 4),
        outputs=(outputs_0, (0.6, 0.4, 0.2, 0.0)),
        policy=policy,
        horizon=n,
        seed=3,
    )
    y0 = draw_outputs(pop)[:, 0]
    counts = np.array([np.count_nonzero(y0 == v) for v in outputs_0])
    assert counts.sum() == n
    assert np.all(np.abs(counts / n - np.asarray(policy)) < 0.01)


def test_policy_validation():
    with pytest.raises(ValidationError):
        PolicyPopulation(
            density=((0.5, 0.5), (0.5, 0.5)),
            outputs=((1.0, 0.0), (0.5, 0.5)),
            policy=(1.0, 0.0),  # no mass on a populated point
        )
    with pytest.raises(ValidationError):
        PolicyPopulation(
            density=((0.6, 0.5), (0.5, 0.5)),  # not a probability vector
            outputs=((1.0, 0.0), (0.5, 0.5)),
            policy=(0.5, 0.5),
        )


def test_estimated_density_helpers():
    pop = PolicyPopulation(
        density=((0.2, 0.8), (0.5, 0.5)),
        outputs=((1.0, 0.0), (0.5, 0.5)),
        policy=(0.4, 0.6),
        density_estimates=((0.24, 0.96), (0.6, 0.6)),
    )
    lo, hi = estimated_density_bounds(pop)
    assert lo == pytest.approx(1.2) and hi == pytest.approx(1.2)
    scale = estimated_density_scale(pop, delta_min=lo)
    assert scale == pytest.approx(1.2 / (2.0 * 1.6))
    rec0 = next(stream_to_iterable(pop, seed=4))
    assert rec0.density_estimate == pytest.approx(1.2 * rec0.density)


def test_stream_determinism():
    scen = LogisticDrift(horizon=300, seed=42)
    a = [record_to_dict(r) for r in generate_stream(scen)]
    b = [record_to_dict(r) for r in generate_stream(scen)]
    assert a == b
    c = [record_to_dict(r) for r in generate_stream(scen, seed=43)]
    assert a != c


def test_sinusoidal_clamp_counting():
    scen = SinusoidalDrift(horizon=200, noise_sd=0.5, seed=7)
    clamped: list = []
    generate_stream(scen, clamped=clamped)
    assert len(clamped) > 0


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seeds = {derive_seed(5, i) for i in range(100)}
    assert len(seeds) == 100


def test_monte_carlo_deterministic_and_prefix_stable():
    cfg = AuditConfig(alpha=0.05, seed=9)
    scen = FixedMeans.from_gap(0.5, horizon=400, seed=10)
    a = monte_carlo(cfg, scen, replicates=10)
    b = monte_carlo(cfg, scen, replicates=10)
    assert a == b
    wider = monte_carlo(cfg, scen, replicates=20)
    assert wider.taus[:10] == a.taus  # adding replicates never reshuffles earlier ones


def test_monte_carlo_power_ordering():
    cfg = AuditConfig(alpha=0.05, seed=11)
    taus = []
    for delta in (0.2, 0.4):
        scen = FixedMeans.from_gap(delta, horizon=3000, seed=12)
        summary = monte_carlo(cfg, scen, replicates=30)
        assert summary.fpr_or_power == 1.0
        taus.append(summary.tau_mean)
    assert taus[1] < taus[0]


def test_monte_carlo_null_rarely_rejects():
    cfg = AuditConfig(alpha=0.05, seed=13)
    scen = FixedMeans((0.5, 0.5), horizon=500, seed=14)
    summary = monte_carlo(cfg, scen, replicates=60)
    assert summary.fpr_or_power <= 0.1
    assert math.isnan(summary.tau_mean) or summary.n_rejections > 0


def test_monte_carlo_group_count_mismatch():
    cfg = AuditConfig(alpha=0.05, group_count=3)
    scen = FixedMeans.from_gap(0.2, horizon=100)
    with pytest.raises(ValidationError):
        monte_carlo(cfg, scen, replicates=2)


def test_three_group_stream_generation():
    scen = FixedMeans((0.5, 0.5, 0.8), horizon=20, seed=15)
    stream = generate_stream(scen)
    assert len(stream) == 60
    assert {r.group for r in stream} == {0, 1, 2}
    cfg = AuditConfig(alpha=0.05, group_count=3, seed=16)
    summary = monte_carlo(cfg, scen, replicates=3, horizon=1500)
    assert summary.fpr_or_power == 1.0


@pytest.mark.parametrize(
    "scenario",
    [
        FixedMeans.from_gap(0.3, horizon=77, seed=5),
        LogisticDrift(horizon=200, seed=6),
        SinusoidalDrift(horizon=150, seed=7),
        PolicyPopulation(
            density=((0.25,) * 4, (0.25,) * 4),
            outputs=((0.9, 0.7, 0.5, 0.3), (0.6, 0.4, 0.2, 0.0)),
            policy=(0.05, 0.1, 0.15, 0.7),
            labels=("NE", "NW", "SE", "SW"),
            horizon=99,
            seed=8,
        ),
    ],
)
def test_scenario_dict_round_trip(scenario):
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


@pytest.mark.parametrize(
    "kind, cls", [("logistic_drift", LogisticDrift), ("sinusoidal_drift", SinusoidalDrift)]
)
def test_scenario_dict_defaults_are_the_class_defaults(kind, cls):
    assert scenario_from_dict({"kind": kind}) == cls()


def test_scenario_dict_omits_none_and_writes_lists():
    d = scenario_to_dict(_HOSTILE)
    assert d["kind"] == "policy_population" and "labels" not in d
    assert d["density_estimates"] == [[0.5] * 4, [0.125] * 4]
    assert json.loads(json.dumps(d)) == d


@pytest.mark.parametrize("d", [
    {"kind": "fixed_means", "means": [0.5, 0.5], "horizn": 5},
    {"kind": "logistic_drift", "noise_sd": 0.1},
    {"kind": "fixed_means"},
    {"kind": "fixed_noise", "means": [0.5, 0.5]},
    {"means": [0.5, 0.5]},
], ids=["misspelt", "other-class-field", "missing", "unknown-kind", "no-kind"])
def test_scenario_dict_refuses_unknown_and_missing_keys(d):
    with pytest.raises(ValidationError):
        scenario_from_dict(d)


@pytest.mark.parametrize("seed", [-1, True, 1.0, "1", None])
def test_scenario_and_derived_seeds_must_be_non_negative_integers(seed):
    with pytest.raises(ValidationError):
        FixedMeans((0.5, 0.5), seed=seed)
    with pytest.raises(ValidationError):
        derive_seed(seed, 0)


@pytest.mark.parametrize("horizon", [0, True, 1.0])
def test_horizon_must_be_a_positive_integer(horizon):
    with pytest.raises(ValidationError):
        FixedMeans((0.5, 0.5), horizon=horizon)


def test_propensity_payoff_runs_through_monte_carlo():
    pop = PolicyPopulation(
        density=((0.25,) * 4, (0.25,) * 4),
        outputs=((0.9, 0.7, 0.5, 0.3), (0.6, 0.4, 0.2, 0.0)),
        policy=(0.05, 0.1, 0.15, 0.7),
        horizon=4000,
        seed=20,
    )
    cfg = AuditConfig(alpha=0.05, strategy=Propensity(scale=policy_corrective_scale(pop)), seed=21)
    summary = monte_carlo(cfg, pop, replicates=10)
    assert summary.fpr_or_power == 1.0  # the mean gap is 0.3


def _noting_steps(stream, steps):
    """``stream``, appending the step of each record pulled to ``steps``."""
    for record in stream:
        steps.append(record.t)
        yield record


# Monte Carlo replays payoff-argument rows; the record path below is the
# reference it must match exactly.
def _record_loop(config, scenario, replicates):
    """``monte_carlo`` as a loop of record-path audits: the per-replicate
    summary fields and the clamps of the steps each replicate ran.  The
    record path draws ahead of the step it stops at, so clamps past the last
    step pulled do not count."""
    taus, finals, trajectories, clamps = [], 0, [], 0
    for i in range(replicates):
        cfg = replace(config, seed=derive_seed(config.seed, i))
        clamped, steps = [], []
        stream = stream_to_iterable(scenario, seed=derive_seed(scenario.seed, i), clamped=clamped)
        report = run_stream(cfg, _noting_steps(stream, steps))
        if report.decision.is_rejection:
            taus.append(report.decision.tau)
            finals += report.decision.kind is DecisionKind.FINAL_RANDOMIZED_REJECT
        trajectories.append(tuple(report.trajectory))
        clamps += sum(1 for t in clamped if t <= steps[-1])
    return tuple(taus), finals, tuple(trajectories), clamps


# Sizes are set so that most cases mix stopped and unstopped replicates, and
# with the randomized final step some replicates reject at the terminal draw.
_FAMILIES = {
    "fixed": FixedMeans.from_gap(0.2, horizon=100, seed=31),
    "logistic": LogisticDrift(onset=20, midpoint=80, scale=10.0, horizon=120, seed=32),
    "sinusoidal": SinusoidalDrift(noise_sd=0.5, drift_rate=0.002, horizon=200, seed=33),
    "population": PolicyPopulation(
        density=((0.25,) * 4, (0.25,) * 4), outputs=((0.9, 0.7, 0.5, 0.3), (0.8, 0.6, 0.4, 0.2)),
        policy=(0.05, 0.1, 0.15, 0.7), horizon=150, seed=34,
    ),
}
_THREE_GROUPS = {
    "fixed3": FixedMeans((0.5, 0.5, 0.75), horizon=150, seed=35),
    "population3": PolicyPopulation(
        density=((0.5, 0.5),) * 3, outputs=((0.9, 0.1), (0.5, 0.5), (0.9, 0.6)),
        policy=(0.3, 0.7), horizon=40, seed=36,
    ),
}
_WEIGHTED = dict(
    density=((0.25,) * 4, (0.25,) * 4), outputs=((0.9, 0.7, 0.5, 0.3), (0.6, 0.4, 0.2, 0.0)),
    policy=(0.1, 0.2, 0.3, 0.4),
)
_PROPENSITY = PolicyPopulation(**_WEIGHTED, horizon=120, seed=38)
_ESTIMATED = PolicyPopulation(
    **_WEIGHTED, density_estimates=((0.25,) * 4, (0.3,) * 4), horizon=300, seed=39,
)
# Estimates off by 2x for group 0 and 0.5x for group 1: the lower game's
# argument is biased, and only the upper game can see the 0.3 gap.
_HOSTILE = PolicyPopulation(
    **_WEIGHTED, density_estimates=((0.5,) * 4, (0.125,) * 4), horizon=600, seed=41,
)


@pytest.mark.parametrize(
    "scenario",
    [*_FAMILIES.values(), *_THREE_GROUPS.values(), FixedMeans((0.5, 0.5), horizon=1, seed=37)],
    ids=[*_FAMILIES, *_THREE_GROUPS, "one-step"],
)
def test_draw_outputs_matches_record_path(scenario):
    for seed in (None, 5, 6):
        y = draw_outputs(scenario, seed=seed)
        records = generate_stream(scenario, seed=seed)
        assert y.shape == (scenario.horizon, scenario.group_count)
        assert y.ravel().tolist() == [r.y_hat for r in records]


def _differential_cases():
    cases = [
        (strategy, scen, f"{type(strategy).__name__}-{name}")
        for name, scen in _FAMILIES.items()
        for strategy in (Simple(), Composite(epsilon=0.05), Batched())
    ]
    cases += [(Simple(), scen, f"Simple-{name}") for name, scen in _THREE_GROUPS.items()]
    propensity = Propensity(scale=policy_corrective_scale(_PROPENSITY))
    cases.append((propensity, _PROPENSITY, "Propensity-population"))
    for scen, name in ((_ESTIMATED, "population"), (_HOSTILE, "hostile")):
        lo, hi = estimated_density_bounds(scen)
        estimated = EstimatedDensity(delta_min=lo, delta_max=hi, scale=estimated_density_scale(scen, lo))
        cases.append((estimated, scen, f"EstimatedDensity-{name}"))
    return [pytest.param(strategy, scen, id=name) for strategy, scen, name in cases]


@pytest.mark.parametrize("final", [False, True], ids=["running", "final"])
@pytest.mark.parametrize("strategy,scenario", _differential_cases())
def test_monte_carlo_matches_record_path(strategy, scenario, final):
    config = AuditConfig(alpha=0.05, strategy=strategy, group_count=scenario.group_count,
                         randomized_final_step=final, seed=40)
    replicates = 12
    summary = monte_carlo(config, scenario, replicates=replicates, record_trajectories=True)
    taus, finals, trajectories, clamped = _record_loop(config, scenario, replicates)
    assert summary.taus == taus
    assert summary.n_rejections == len(taus)
    assert summary.n_final_rejections == finals
    assert summary.trajectories == trajectories  # bit-equal log wealth
    assert summary.noise_clamped == clamped
    if isinstance(scenario, SinusoidalDrift):
        # Clamps after an early stop are drawn ahead and must not count.
        stopped = [t for t in taus if t < scenario.horizon * (2 if isinstance(strategy, Batched) else 1)]
        assert stopped and clamped > 0


def _record_error_step(config, scenario):
    """(exception, step) of the record path's first replicate, or None."""
    steps: list = []
    cfg = replace(config, seed=derive_seed(config.seed, 0))
    stream = stream_to_iterable(scenario, seed=derive_seed(scenario.seed, 0))
    try:
        run_stream(cfg, _noting_steps(stream, steps), record_trajectory=False)
    except AuditError as exc:
        return exc, steps[-1]
    return None


_RARE_HEAVY = PolicyPopulation(  # point 0 is rarely drawn and carries weight 25
    density=((0.25,) * 4, (0.25,) * 4), outputs=((0.5,) * 4, (0.5,) * 4),
    policy=(0.01, 0.33, 0.33, 0.33), horizon=600, seed=50,
)
_UNPOPULATED = PolicyPopulation(  # group 0 has no mass on point 0, which is drawn
    density=((0.0, 0.5, 0.5), (0.4, 0.3, 0.3)), outputs=((0.5,) * 3, (0.5,) * 3),
    policy=(0.1, 0.45, 0.45), horizon=600, seed=51,
)


# SHA-256 over the records and outputs of the scenarios below at seeds None,
# 1, 2 and 3.  The draws of every stream depend on the order of the
# generator calls, so any change to that order changes this digest.
_STREAM_DIGEST = "998498b111f8ded092f0325675b07ab6e421a49b91f49a38ac1ceae872d529ba"


def test_streams_are_pinned():
    digest = hashlib.sha256()
    for scenario in [*_FAMILIES.values(), *_THREE_GROUPS.values(), _HOSTILE, _UNPOPULATED]:
        for seed in (None, 1, 2, 3):
            records = [record_to_dict(r) for r in generate_stream(scenario, seed=seed)]
            digest.update(json.dumps(records).encode())
            digest.update(draw_outputs(scenario, seed=seed).tobytes())
    assert digest.hexdigest() == _STREAM_DIGEST


_HOSTILE_RARE_HEAVY = replace(_RARE_HEAVY, density_estimates=((0.5,) * 4, (0.125,) * 4))


@pytest.mark.parametrize("strategy,scenario,error", [
    (Propensity(scale=0.5 / (0.25 / 0.33)), _RARE_HEAVY, InvariantError),
    (Propensity(scale=0.1), _UNPOPULATED, ValidationError),
    (Propensity(scale=0.1), FixedMeans.from_gap(0.0, horizon=100, seed=52), ValidationError),
    (EstimatedDensity(delta_min=0.5, delta_max=2.0, scale=0.5 / (2 * 0.5 / 0.33)),
     _HOSTILE_RARE_HEAVY, InvariantError),
    (EstimatedDensity(delta_min=0.5, delta_max=2.0, scale=0.1), _RARE_HEAVY, ValidationError),
], ids=["scale-too-large", "zero-density", "no-propensity-fields",
        "hostile-estimate-scale-too-large", "no-estimate-fields"])
def test_monte_carlo_errors_at_the_record_path_step(strategy, scenario, error):
    config = AuditConfig(alpha=0.05, strategy=strategy, seed=53)
    found = _record_error_step(config, scenario)
    assert found is not None
    exc, step = found
    assert type(exc) is error
    with pytest.raises(error) as info:
        monte_carlo(config, scenario, replicates=3, horizon=step)
    assert str(info.value) == str(exc)
    if step > 1:  # one step short of it, the replicate runs through
        monte_carlo(config, scenario, replicates=1, horizon=step - 1)


def test_monte_carlo_rejection_before_an_offending_step_raises_nothing():
    scen = PolicyPopulation(  # strong gap; point 0 is rare and too heavy for the scale
        density=((0.25,) * 4, (0.25,) * 4), outputs=((1.0,) * 4, (0.0,) * 4),
        policy=(0.01, 0.33, 0.33, 0.33), horizon=600, seed=72,
    )
    strategy = Propensity(scale=0.5 / (0.25 / 0.33))
    config = AuditConfig(alpha=0.05, strategy=strategy, seed=55)
    # Where the offending point comes, from a run that cannot reject that soon.
    exc, step = _record_error_step(replace(config, alpha=1e-300), scen)
    assert isinstance(exc, InvariantError)
    summary = monte_carlo(config, scen, replicates=1, record_trajectories=True)
    taus, _, trajectories, _ = _record_loop(config, scen, 1)
    assert summary.taus == taus and summary.trajectories == trajectories
    assert taus[0] < step <= 32  # the offending step is drawn in the block that rejects
