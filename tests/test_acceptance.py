"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -s`` to see them live).

Criterion 1 checks the wealth floor at every step with V_t > 0.  The stated
form (1/V_t) * exp(S_t^2 / (4 (V_t + |S_t|))) cannot hold there: it exceeds
1 whenever 0 < V_t <= 1, while the first bet is pinned to zero, so K_1 = 1
sits below it for every nonzero first element (and a nonzero first bet loses
against a g_1 of the opposite sign).  Criterion 1 therefore checks the floor
that the Online Newton Step regret bound gives at every step,

    log K_t >= S_t^2 / (4 (V_t + |S_t|)) - ln(1 + sum z_i^2) / (2 - ln 3)
               - (2 - ln 3) / 16,

with z_i = g_i / (1 + lam_i g_i) the bettor's own gradients (derivation in
:func:`_derived_floor_violations`), and criterion 1a checks the stated
-ln V_t form beyond the burn-in V_t >= 16.
"""
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from seqaudit.baselines import BatchProtocol, PermutationTestConfig, PValueSequence, walk_protocol
from seqaudit.betting import CURVATURE, ons_bets
from seqaudit.columns import block_args
from seqaudit.core import (
    AuditConfig,
    AuditRecord,
    Batched,
    Composite,
    DecisionKind,
    EstimatedDensity,
    Propensity,
    SessionStateError,
    Simple,
)
from seqaudit.engine import STRATEGIES, run_args, run_stream, session_finalize, session_new
from seqaudit.payoffs import payoff_propensity
from seqaudit.simulate import (
    REGION_POLICIES,
    FixedMeans,
    LogisticDrift,
    PolicyPopulation,
    derive_seed,
    draw_outputs,
    generate_stream,
    monte_carlo,
    policy_corrective_scale,
    region_population,
    stream_to_iterable,
)

from conftest import child_env

GOLDEN = Path(__file__).parent / "golden"


def mc_slack(alpha: float, n: int) -> float:
    return 2.0 * math.sqrt(alpha * (1.0 - alpha) / n)


@contextmanager
def criterion(num: str, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} [{label}]: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num} [{label}]: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget ({elapsed:.1f}s)"


def _oracle_suite():
    """1,000 seeded random payoff-argument sequences with entries in [-1, 1]
    and lengths up to 10^4."""
    rng = np.random.default_rng(20240517)
    lengths = (
        [int(rng.integers(2, 601)) for _ in range(850)]
        + [int(rng.integers(601, 3001)) for _ in range(100)]
        + [10_000] * 50
    )
    for n in lengths:
        kind = int(rng.integers(0, 3))
        if kind == 0:
            yield rng.uniform(-1.0, 1.0, n)
        elif kind == 1:
            yield rng.choice([-1.0, 1.0], n)
        else:
            drift = rng.uniform(-0.4, 0.4)
            p0 = min(1.0, max(0.0, 0.5 + drift / 2))
            p1 = min(1.0, max(0.0, 0.5 - drift / 2))
            yield (rng.random(n) < p0).astype(float) - (rng.random(n) < p1)


def _bound_violations(gs: np.ndarray):
    """(violation mask over steps with v > 0, v values, t values)."""
    lams = ons_bets(gs)
    log_k = np.cumsum(np.log1p(lams * gs))
    s = np.cumsum(gs)
    v = np.cumsum(gs * gs)
    mask = v > 0
    log_bound = np.full(len(gs), -np.inf)
    log_bound[mask] = -np.log(v[mask]) + s[mask] ** 2 / (4.0 * (v[mask] + np.abs(s[mask])))
    violated = (log_k < log_bound + math.log1p(-1e-9)) & mask
    return violated, v, np.arange(1, len(gs) + 1)


def _flipped_ons_bets(gs: np.ndarray) -> np.ndarray:
    """The ONS update with the sign of its step reversed: it bets against
    the gradient, so the floor that certifies the bettor should not hold
    for it."""
    out = np.empty(len(gs))
    lam, acc = 0.0, 0.0
    for i, g in enumerate(gs):
        out[i] = lam
        z = g / (1.0 + lam * g)
        acc += z * z
        lam = min(0.5, max(-0.5, lam - CURVATURE * z / (1.0 + acc)))
    return out


def _derived_floor_violations(gs: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Violation mask, over steps with V_t > 0, of the ONS regret floor

        log K_t >= S_t^2 / (4 (V_t + |S_t|)) - ln(1 + sum z_i^2) / (2 - ln 3)
                   - (2 - ln 3) / 16,    z_i = g_i / (1 + lam_i g_i),

    at relative tolerance 1e-9.  With gamma = (2 - ln 3) / 2 = 1 / CURVATURE,
    bets and comparator in [-1/2, 1/2] and |g| <= 1, the ratio
    1 + r = (1 + u g) / (1 + lam g) lies in [1/3, 3], where
    ln(1 + r) <= r - (gamma / 2) r^2; the ONS regret lemma (A_0 = 1,
    lam_1 = 0) then gives log K_t >= max_{|u| <= 1/2} sum ln(1 + u g_i)
    - ln(1 + sum z_i^2) / (2 gamma) - gamma / 8.  As ln(1 + x) >= x - x^2
    for x >= -1/2, u = S / (2 (V + |S|)) makes the max at least
    S^2 / (4 (V + |S|)).
    """
    log_k = np.cumsum(np.log1p(lams * gs))
    z = gs / (1.0 + lams * gs)
    s = np.cumsum(gs)
    v = np.cumsum(gs * gs)
    mask = v > 0
    two_gamma = 2.0 - math.log(3.0)
    log_floor = np.full(len(gs), -np.inf)
    log_floor[mask] = (
        s[mask] ** 2 / (4.0 * (v[mask] + np.abs(s[mask])))
        - np.log1p(np.cumsum(z * z))[mask] / two_gamma
        - two_gamma / 16.0
    )
    return (log_k < log_floor + math.log1p(-1e-9)) & mask


def test_criterion_01_wealth_bound_oracle_as_stated():
    """Criterion 1: the bettor's wealth stays above the S^2 / (4 (V + |S|))
    floor at EVERY step with V_t > 0, less the burn-in term the ONS regret
    bound gives (see :func:`_derived_floor_violations`).  The stated -ln V_t
    burn-in term fails at t = 1 for any predictable bettor (module
    docstring); criterion 1a keeps checking it beyond burn-in.  The
    sign-flipped update must break the floor, so the check can fail."""
    with criterion("01", "wealth-bound oracle, every step", 30.0):
        total_sequences = 0
        violating_sequences = 0
        first_example = None
        flipped_violating = 0
        for gs in _oracle_suite():
            total_sequences += 1
            violated = _derived_floor_violations(gs, ons_bets(gs))
            if violated.any():
                violating_sequences += 1
                if first_example is None:
                    i = int(np.argmax(violated))
                    first_example = (total_sequences - 1, i + 1)
            flipped_violating += bool(_derived_floor_violations(gs, _flipped_ons_bets(gs)).any())
        assert total_sequences == 1000
        assert violating_sequences == 0, (
            f"{violating_sequences}/1000 sequences fall below the ONS regret floor "
            f"(first: sequence {first_example[0]} at t={first_example[1]})"
        )
        assert flipped_violating > 500, (
            f"the sign-flipped bettor breaks the floor on only {flipped_violating}/1000 sequences"
        )


def test_criterion_01a_wealth_bound_oracle_beyond_burn_in():
    """Companion: on the same 1,000 sequences, every violation sits in the
    burn-in region v_sum < 16, and the floor holds at every step with
    v_sum >= 16 at relative tolerance 1e-9."""
    with criterion("01a", "wealth-bound oracle beyond burn-in", 30.0):
        checked = 0
        for gs in _oracle_suite():
            violated, v, _ = _bound_violations(gs)
            assert not np.any(violated & (v >= 16.0))
            checked += int(np.count_nonzero(v >= 16.0))
        assert checked > 500_000  # the bound is exercised massively past burn-in


def test_criterion_02_exact_martingale_means():
    with criterion("02", "exact martingale mean by enumeration", 1.0):
        lams = (-0.5, -0.25, 0.0, 0.3, 0.5)
        outcomes = np.array(list(product((0.0, 1.0), repeat=2)))  # rows (y0, y1)
        # simple payoff over the mean grid
        simple_g = block_args(session_new(AuditConfig(alpha=0.05)), outcomes)[:, 0].tolist()
        for mu in [k / 10 for k in range(1, 10)]:
            for lam in lams:
                expectation = 0.0
                for (y0, y1), g in zip(outcomes.tolist(), simple_g):
                    p = (mu if y0 else 1 - mu) * (mu if y1 else 1 - mu)
                    expectation += p * (1.0 + lam * g)
                assert abs(expectation - 1.0) < 1e-12
        # propensity payoff on a 3-point population with exact weights
        rho = (0.2, 0.3, 0.5)
        pi = (0.5, 0.25, 0.25)
        omega = tuple(r / p for r, p in zip(rho, pi))
        phi0 = (0.9, 0.4, 0.1)
        phi1 = (0.05, 0.3, 0.5)  # equal population means
        scale = 1.0 / (2.0 * max(omega))
        for lam in lams:
            expectation = 0.0
            for x0, x1 in product(range(3), repeat=2):
                g, _ = payoff_propensity(phi0[x0], phi1[x1], omega[x0], omega[x1], scale, 1.0, 1.0)
                expectation += pi[x0] * pi[x1] * (1.0 + lam * g)
            assert abs(expectation - 1.0) < 1e-12
        # upper one-sided game at the boundary mean gap = epsilon
        mu0, mu1, eps = 0.55, 0.45, 0.1
        composite = session_new(AuditConfig(alpha=0.05, strategy=Composite(epsilon=eps)))
        upper_g = block_args(composite, outcomes)[:, 0].tolist()
        for lam in lams:
            expectation = 0.0
            for (y0, y1), g in zip(outcomes.tolist(), upper_g):
                p = (mu0 if y0 else 1 - mu0) * (mu1 if y1 else 1 - mu1)
                expectation += p * (1.0 + lam * g)
            assert abs(expectation - 1.0) < 1e-12


def test_criterion_03_sequential_validity():
    with criterion("03", "level-alpha validity on equal means", 120.0):
        seeds = 500
        for alpha in (0.05, 0.01):
            config = AuditConfig(alpha=alpha, randomized_final_step=True, seed=31)
            scen = FixedMeans((0.3, 0.3), horizon=2000, seed=131)
            summary = monte_carlo(config, scen, replicates=seeds)
            bound = alpha + mc_slack(alpha, seeds)
            plain = (summary.n_rejections - summary.n_final_rejections) / seeds
            with_final = summary.fpr_or_power
            assert plain <= bound, f"alpha={alpha}: running FPR {plain} > {bound}"
            assert with_final <= bound, f"alpha={alpha}: FPR with final step {with_final} > {bound}"


def test_criterion_04_power_and_stopping_time_scaling():
    with criterion("04", "power one and stopping-time scaling", 180.0):
        alpha = 0.05
        config = AuditConfig(alpha=alpha, seed=41)
        tau_means = []
        ratios = []
        for delta in (0.1, 0.2, 0.4):
            scen = FixedMeans.from_gap(delta, horizon=20_000, seed=141)
            summary = monte_carlo(config, scen, replicates=200)
            assert summary.fpr_or_power >= 0.99, f"delta={delta}: power {summary.fpr_or_power}"
            tau_means.append(summary.tau_mean)
            ratios.append(summary.tau_mean * delta**2 / math.log(1.0 / (delta**2 * alpha)))
        assert tau_means[0] > tau_means[1] > tau_means[2]
        assert max(ratios) / min(ratios) < 10.0, f"normalized ratios {ratios}"


def test_criterion_05_wealth_behavior_under_null_and_strong_gap():
    with criterion("05", "flat wealth at zero gap; fast rejection at 0.5", 60.0):
        config = AuditConfig(alpha=0.01, seed=51)
        null = monte_carlo(config, FixedMeans((0.5, 0.5), horizon=1000, seed=151), replicates=100)
        assert 1.0 - null.fpr_or_power >= 0.95  # wealth stayed below 1/alpha throughout
        strong = monte_carlo(config, FixedMeans.from_gap(0.5, horizon=1000, seed=152), replicates=100)
        assert strong.fpr_or_power == 1.0
        assert 20.0 <= strong.tau_q50 <= 300.0, f"median tau {strong.tau_q50}"


def test_criterion_06_propensity_weighted_sampling():
    with criterion("06", "region-policy sampling: validity, power, slowdown", 180.0):
        alpha = 0.05
        pi3 = REGION_POLICIES["pi3"]
        base = region_population(pi3, horizon=2000, seed=161)
        (phi0, phi1), rho = base.outputs, base.density[0]
        gap = sum((a - b) * r for a, b, r in zip(phi0, phi1, rho))
        fair = replace(base, outputs=(phi0, tuple(v + gap for v in phi1)))
        cfg = AuditConfig(alpha=alpha, strategy=Propensity(scale=policy_corrective_scale(fair)), seed=61)
        fpr = monte_carlo(cfg, fair, replicates=500).fpr_or_power
        assert fpr <= alpha + mc_slack(alpha, 500), f"FPR {fpr}"

        unfair_pi3 = region_population(pi3, horizon=20_000, seed=162)
        cfg_pi3 = AuditConfig(
            alpha=alpha, strategy=Propensity(scale=policy_corrective_scale(unfair_pi3)), seed=62
        )
        power = monte_carlo(cfg_pi3, unfair_pi3, replicates=200)
        assert power.fpr_or_power >= 0.95

        unfair_uniform = region_population(
            REGION_POLICIES["uniform"], horizon=20_000, seed=163
        )
        cfg_uni = AuditConfig(
            alpha=alpha, strategy=Propensity(scale=policy_corrective_scale(unfair_uniform)), seed=63
        )
        uniform = monte_carlo(cfg_uni, unfair_uniform, replicates=200)
        assert power.tau_mean >= uniform.tau_mean, (
            f"skewed-policy audit should be slower: {power.tau_mean} vs {uniform.tau_mean}"
        )


def test_criterion_07_distribution_shift():
    with criterion("07", "logistic drift: detection after onset", 60.0):
        config = AuditConfig(alpha=0.01, seed=71)
        scen = LogisticDrift(horizon=2000, seed=171)
        summary = monte_carlo(config, scen, replicates=100)
        assert summary.fpr_or_power >= 0.95
        assert min(summary.taus) > 100, f"min tau {min(summary.taus)}"


def test_criterion_08_composite_null():
    with criterion("08", "composite null: boundary validity and power", 120.0):
        alpha, eps = 0.05, 0.1
        config = AuditConfig(alpha=alpha, strategy=Composite(epsilon=eps), seed=81)
        boundary = FixedMeans((0.55, 0.45), horizon=2000, seed=181)
        fpr = monte_carlo(config, boundary, replicates=500).fpr_or_power
        assert fpr <= alpha + mc_slack(alpha, 500), f"boundary FPR {fpr}"
        alt = FixedMeans((0.65, 0.35), horizon=20_000, seed=182)
        power = monte_carlo(config, alt, replicates=200).fpr_or_power
        assert power >= 0.99


def test_criterion_09_multiple_groups():
    with criterion("09", "three groups: validity and localized rejection", 120.0):
        alpha = 0.05
        config = AuditConfig(alpha=alpha, group_count=3, seed=91)
        null = FixedMeans((0.5, 0.5, 0.5), horizon=2000, seed=191)
        fpr = monte_carlo(config, null, replicates=500).fpr_or_power
        assert fpr <= alpha + mc_slack(alpha, 500), f"FPR {fpr}"

        scen = FixedMeans((0.5, 0.5, 0.8), horizon=20_000, seed=192)
        hits = 0
        localized = 0
        for i in range(200):
            cfg = AuditConfig(alpha=alpha, group_count=3, seed=derive_seed(92, i))
            report = run_stream(
                cfg, stream_to_iterable(scen, seed=derive_seed(scen.seed, i)), record_trajectory=False
            )
            if report.decision.is_rejection:
                hits += 1
                if [g.game_id for g in report.per_game if g.rejected] == ["1v2"]:
                    localized += 1
        assert hits / 200 >= 0.99
        assert localized / hits >= 0.95, f"rejections localized to the unequal pair: {localized}/{hits}"


# Hostile nulls: equal group means with different output distributions,
# density estimates that are wrong, or one group flooding the stream.
_SPREAD, _FLAT = (0.9, 0.7, 0.5, 0.3), (0.6,) * 4  # both have mean 0.6
_REGION_SKEW = (0.125, 0.125, 0.5, 0.5)  # estimates at 0.5x on NE/NW, 2x on SE/SW


def _estimated_audit(outputs, estimates, seed):
    """A uniform-policy population over four regions with the given outputs
    and estimated shares, and the estimated-density strategy with its error
    bounds and largest admissible scale."""
    pop = PolicyPopulation(
        density=((0.25,) * 4,) * 2, outputs=outputs, policy=(0.25,) * 4,
        density_estimates=estimates, horizon=2000, seed=seed,
    )
    ratios = [e / r for rho, est in zip(pop.density, pop.density_estimates)
              for r, e in zip(rho, est) if r > 0.0]
    lo, hi = min(ratios), max(ratios)
    return EstimatedDensity(delta_min=lo, delta_max=hi, scale=policy_corrective_scale(pop, "density_estimate", lo)), pop


def _groups_with_equal_means(groups, seed):
    """Outputs 0.5, 0 or 1, 0.25 or 0.75, 1 or 0 with even odds: mean 0.5
    in every group, spread from none to the widest."""
    outputs = ((0.5, 0.5), (0.0, 1.0), (0.25, 0.75), (1.0, 0.0))[:groups]
    pop = PolicyPopulation(
        density=((0.5, 0.5),) * groups, outputs=outputs, policy=(0.5, 0.5), horizon=2000, seed=seed,
    )
    return Simple(), pop


def _flooding_stream(seed, n_records, drift=False):
    """Group 1 floods in bursts of 1 to 20 uniform outputs between single
    Bernoulli(1/2) records of group 0: both means are 1/2.  With ``drift``,
    every output is a Bernoulli draw whose mean follows one logistic curve
    from 0.2 to 0.8 over the records' arrival order, so both means are
    equal at each arrival, though a burst and the record after it are
    drawn at different means."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = [0, 0]
    emitted = 0
    while True:
        for group, n in ((1, int(rng.integers(1, 21))), (0, 1)):
            for _ in range(n):
                if emitted == n_records:
                    return
                t[group] += 1
                mean = 0.5
                if drift:
                    mean = 0.2 + 0.6 / (1.0 + math.exp(-(emitted - n_records / 2) / (n_records / 20)))
                y = float(rng.random()) if group and not drift else float(rng.random() < mean)
                yield AuditRecord(t=t[group], group=group, y_hat=y)
                emitted += 1


def _policy_switch_draw(seed, steps=2000, switch=1000):
    """Outputs, record fields (one row per step, one column per group) and
    the records of a policy that changes mid-stream: group 0 is sampled through
    ``pi1``, then through ``pi3`` after step ``switch``, and group 1
    through the uniform policy, over four regions of equal density.  Group
    0 outputs _SPREAD and group 1 _FLAT, so both weighted means are 0.6 at
    every step."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    policies = np.array([REGION_POLICIES[name] for name in ("pi1", "pi3", "uniform")])
    which = np.column_stack((np.where(np.arange(1, steps + 1) <= switch, 0, 1), np.full(steps, 2)))
    # region = number of the first three cumulative shares the uniform draw
    # passes; the fourth (1 up to rounding) is left out, so it stays in 0-3
    cdf = np.cumsum(policies, axis=1)[which, :3]
    x = (rng.random((steps, 2, 1)) >= cdf).sum(axis=2)
    propensity = policies[which, x]
    y = np.array((_SPREAD, _FLAT))[[0, 1], x]
    return y, {"propensity": propensity, "density": np.full_like(propensity, 0.25)}, lambda: [
        AuditRecord(t=t, group=b, y_hat=y_b, propensity=p_b, density=0.25)
        for t, (ys, ps) in enumerate(zip(y.tolist(), propensity.tolist()), 1)
        for b, y_b, p_b in zip((0, 1), ys, ps)
    ]


def _logistic_shift_draw(seed, steps=2000):
    """Outputs and records of two groups whose Bernoulli mean follows one
    logistic curve from 0.2 to 0.8 over ``steps`` steps: the model shifts,
    but alike in both groups, so every step is a null."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = np.arange(1, steps + 1)
    mean = 0.2 + 0.6 / (1.0 + np.exp(-(t - steps / 2) / (steps / 20)))
    y = (rng.random((steps, 2)) < mean[:, None]).astype(float)
    return y, None, lambda: [
        AuditRecord(t=t, group=b, y_hat=y_b) for t, ys in enumerate(y.tolist(), 1) for b, y_b in enumerate(ys)
    ]


def _block_fpr(strategy, draw, seed, alpha, reps):
    """FPR of the audit under ``strategy`` over replicates of ``draw``,
    through ``run_args`` on the strategy's step run by ``block_args``.
    ``draw`` maps a seed to one replicate's outputs, record fields and
    records; the fields' weights go to ``block_args`` with the outputs.
    The first replicate is checked against ``run_stream`` over its records,
    bit for bit."""
    hits = 0
    for i in range(reps):
        y, fields, records = draw(derive_seed(seed, i))
        config = AuditConfig(alpha=alpha, strategy=strategy, seed=derive_seed(seed + 1, i))
        session = session_new(config)
        w = None if fields is None else fields[session.row.weight] / fields["propensity"]
        report = run_args(config, [block_args(session, y, w)], record_trajectory=i == 0)
        if i == 0:
            assert run_stream(config, records()) == report
        hits += report.decision.is_rejection
    return hits / reps


def _output_flood(outputs, seed, n_records=2000):
    """Outputs, record fields and records of an adversary whose arrivals follow
    the outputs: group-0 records come until their pending mean (over those
    since the last group-1 record) exceeds 1/2 or 20 are pending, then one
    group-1 record comes.  ``outputs(rng, n)`` draws the k-th output of each
    group, one row per k, and for a weighted audit the (propensity,
    density) arrays of the drawn points, else None.  Step k pairs the k-th
    record of each group, so the outputs and fields are cut to the steps
    the records complete."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    y, fields = outputs(rng, n_records)
    ys = y.tolist()
    order, counts, pending = [], [0, 0], []
    for _ in range(n_records):
        group = int(bool(pending) and (sum(pending) / len(pending) > 0.5 or len(pending) == 20))
        k = counts[group]
        counts[group] += 1
        order.append((group, k))
        pending = [] if group else [*pending, ys[k][0]]
    steps = min(counts)
    cut = None if fields is None else {"propensity": fields[0][:steps], "density": fields[1][:steps]}
    per_point = [] if fields is None else [f.tolist() for f in fields]
    return y[:steps], cut, lambda: [
        AuditRecord(k + 1, g, ys[k][g], *(f[k][g] for f in per_point)) for g, k in order
    ]


def _bernoulli_outputs(means):
    return lambda rng, n: ((rng.random((n, 2)) < means).astype(float), None)


def _policy_outputs(rng, n):
    """Group 0 sampled through ``pi1`` with outputs _SPREAD, group 1 through
    the uniform policy with _FLAT, over four regions of density 1/4: both
    weighted means are 0.6, while group 0's unweighted mean is 1/2."""
    policies = np.array([REGION_POLICIES["pi1"], REGION_POLICIES["uniform"]])
    x = (rng.random((n, 2, 1)) >= np.cumsum(policies, axis=1)[:, :3]).sum(axis=2)
    return np.array((_SPREAD, _FLAT))[[0, 1], x], (policies[[0, 1], x], np.full((n, 2), 0.25))


# The propensity audit of the switch takes the scale 1 / (2 max w) over
# all three policies.
_SWITCH_W_MAX = 0.25 / min(min(REGION_POLICIES[name]) for name in ("pi1", "pi3", "uniform"))
# Nulls drawn as arrays: (strategy, draw, seed).
_BLOCK_NULLS = {
    "propensity-policy-switch": (Propensity(scale=1.0 / (2.0 * _SWITCH_W_MAX)), _policy_switch_draw, 211),
    "simple-logistic-shift": (Simple(), _logistic_shift_draw, 213),
    # Arrivals that depend on the outputs: first in first out, step k pairs
    # the k-th record of each group whenever it arrives.
    "simple-output-flood": (Simple(), lambda seed: _output_flood(_bernoulli_outputs((0.5, 0.5)), seed), 216),
    "composite-boundary-output-flood": (
        Composite(epsilon=0.1), lambda seed: _output_flood(_bernoulli_outputs((0.55, 0.45)), seed), 218
    ),
    "propensity-policy-output-flood": (
        Propensity(scale=1.0 / (2.0 * 0.25 / min(REGION_POLICIES["pi1"]))),
        lambda seed: _output_flood(_policy_outputs, seed), 220,
    ),
}


_HOSTILE_NULLS = {
    "estimates-0.5x-2x": lambda: _estimated_audit((_SPREAD, _FLAT), (_REGION_SKEW,) * 2, 201),
    "estimates-2x-0.5x": lambda: _estimated_audit(
        (_SPREAD, _FLAT), (_REGION_SKEW[::-1],) * 2, 202
    ),
    "estimates-group-1-at-1.2x": lambda: _estimated_audit(
        (_SPREAD, _FLAT), ((0.25,) * 4, (0.3,) * 4), 203
    ),
    "simple-3-groups": lambda: _groups_with_equal_means(3, 204),
    "simple-4-groups": lambda: _groups_with_equal_means(4, 205),
}


@pytest.mark.parametrize("case", [*_HOSTILE_NULLS, "batched-flooding", "batched-drift", *_BLOCK_NULLS])
def test_null_validity_under_hostile_nulls(case):
    """Every strategy keeps FPR <= alpha + slack under its own null when the
    null is hostile: 200 replicates, 2,000 steps (records for batched and
    for the output floods)."""
    alpha, reps = 0.05, 200
    if case in _BLOCK_NULLS:
        fpr = _block_fpr(*_BLOCK_NULLS[case], alpha, reps)
    elif case in ("batched-flooding", "batched-drift"):
        drift = case == "batched-drift"
        hits = 0
        for i in range(reps):
            cfg = AuditConfig(alpha=alpha, strategy=Batched(), seed=derive_seed(214 if drift else 206, i))
            stream = _flooding_stream(derive_seed(215 if drift else 207, i), 2000, drift)
            report = run_stream(cfg, stream, record_trajectory=False)
            hits += report.decision.is_rejection
        fpr = hits / reps
    else:
        strategy, pop = _HOSTILE_NULLS[case]()
        config = AuditConfig(alpha=alpha, strategy=strategy, group_count=pop.group_count, seed=208)
        fpr = monte_carlo(config, pop, replicates=reps).fpr_or_power
    assert fpr <= alpha + mc_slack(alpha, reps), f"{case}: FPR {fpr}"


def _adaptive_audit(
    strategy, seed: int, alpha: float, steps: int, p_big: float, groups: int = 2, randomized: bool = False
) -> bool:
    """Whether an audit of ``groups`` groups rejects against an adversary
    that sees every bet before it picks the step's arguments, one row per
    step fed to run_args, with the randomized terminal step at the horizon
    when ``randomized``.  The adversary tracks each game's bet with its own
    copy of the ONS recursion (pinned to betting.ons_bets at the end) and
    writes, independently per game, the argument +1 on the bet's side with
    probability ``p_big``, else -1/2 on the other: a mean of zero at
    p_big = 1/3, so log(1 + lam g) spreads as a rare large gain against
    frequent losses."""
    config = AuditConfig(alpha=alpha, strategy=strategy, group_count=groups,
                         randomized_final_step=randomized, seed=seed)
    row = STRATEGIES[type(strategy)]
    lo, games = row.lo, len(row.games(config))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.random((steps, games)).tolist()
    lam, grad_acc, gs, bets = [0.0] * games, [0.0] * games, [], []

    def blocks():
        for u in draws:
            side = [1.0 if b >= 0.0 else -1.0 for b in lam]
            g = [s if x < p_big else -0.5 * s for s, x in zip(side, u)]
            bets.append(list(lam))
            gs.append(g)
            for k in range(games):  # the documented update, clamped to [lo, 1/2]
                z = g[k] / (1.0 + lam[k] * g[k])
                grad_acc[k] += z * z
                lam[k] = min(max(lam[k] + CURVATURE * z / (1.0 + grad_acc[k]), lo), 0.5)
            yield np.array([g])

    report = run_args(config, blocks(), record_trajectory=False)
    assert np.array_equal(np.array(bets).T, [ons_bets(col, (lo, 0.5)) for col in np.array(gs).T])
    return report.decision.is_rejection


@pytest.mark.parametrize(
    "strategy, groups, randomized",
    [(Simple(), 2, False), (Composite(epsilon=0.1), 2, False), (Simple(), 4, False), (Simple(), 2, True)],
    ids=["simple", "composite", "three-adjacent-games", "randomized-final"],
)
def test_null_validity_against_an_adaptive_adversary(strategy, groups, randomized):
    """Ville's bound holds for any predictable arguments of conditional
    mean zero: an adversary that reacts to each bet keeps the FPR of one
    signed game, of composite's two one-sided games against their shared
    2/alpha bar, of the three adjacent games of four groups against their
    3/alpha bar, and of one game with the randomized terminal step at a
    fixed horizon, within alpha plus slack.  The same adversary with the
    odds tilted to the bet's side (mean 1/4) must reject far more often, so
    the test has power to see a broken bar."""
    alpha, reps, steps = 0.1, 200, 250

    def rate(salt: int, replicates: int, p_big: float) -> float:
        hits = sum(_adaptive_audit(strategy, derive_seed(salt, i), alpha, steps, p_big, groups, randomized)
                   for i in range(replicates))
        return hits / replicates

    fpr = rate(231, reps, 1 / 3)
    assert fpr <= alpha + mc_slack(alpha, reps), f"FPR {fpr}"
    power = rate(232, 50, 1 / 2)
    assert power >= 5 * alpha, f"control rejected {power}"


@pytest.mark.parametrize("outputs", [(_SPREAD, (0.6, 0.4, 0.2, 0.0)), ((0.6, 0.4, 0.2, 0.0), _SPREAD)],
                         ids=["gap+0.3", "gap-0.3"])
def test_estimated_density_power_under_estimate_error(outputs):
    """The two one-sided games still find a 0.3 gap either way when group
    1's estimated shares are 1.2x the truth."""
    strategy, pop = _estimated_audit(outputs, ((0.25,) * 4, (0.3,) * 4), 209)
    summary = monte_carlo(AuditConfig(alpha=0.05, strategy=strategy, seed=210), pop, replicates=200)
    assert summary.n_rejections >= 190, f"power {summary.fpr_or_power}"


def _alternating_stream(seed: int, horizon_records: int, mu0: float, mu1: float):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for t in range(1, horizon_records + 1):
        if t % 2 == 1:
            yield AuditRecord(t=t, group=0, y_hat=float(rng.random() < mu0))
        else:
            yield AuditRecord(t=t, group=1, y_hat=float(rng.random() < mu1))


def test_criterion_10_batched_arrivals():
    with criterion("10", "batched arrivals: reduction and power", 60.0):
        # dense stream: batched equals the simple payoff bit for bit
        stream = generate_stream(FixedMeans.from_gap(0.2, horizon=800, seed=1101))
        simple = run_stream(AuditConfig(alpha=0.01, seed=101), stream)
        batched = run_stream(AuditConfig(alpha=0.01, strategy=Batched(), seed=101), stream)
        simple_path = [lw for _, lw in simple.trajectory]
        batched_path = [lw for _, lw in batched.trajectory][1::2]
        assert batched_path == simple_path

        hits = 0
        for i in range(100):
            cfg = AuditConfig(alpha=0.05, strategy=Batched(), seed=derive_seed(102, i))
            report = run_stream(
                cfg, _alternating_stream(derive_seed(103, i), 40_000, 0.7, 0.3),
                record_trajectory=False,
            )
            hits += report.decision.is_rejection
        assert hits / 100 >= 0.99


def test_criterion_11_baseline_protocols():
    with criterion("11", "permutation protocols vs betting", 300.0):
        alpha_grid = (0.01, 0.05, 0.1)
        k, horizon = 100, 5000
        reps = 200
        perms = 200
        null_scen = FixedMeans((0.5, 0.5), horizon=horizon // 2, seed=1111)
        alt_scen = FixedMeans.from_gap(0.2, horizon=horizon // 2, seed=1112)
        # Outputs of each stream as a (steps, 2) array, group 0 then group 1
        # at every step, drawn by the block sampler.
        null_y = [draw_outputs(null_scen, seed=derive_seed(null_scen.seed, i)) for i in range(reps)]
        alt_y = [draw_outputs(alt_scen, seed=derive_seed(alt_scen.seed, i)) for i in range(reps)]
        # One lazy p-value sequence per stream, shared by every protocol sweep
        # and capped at the largest alpha any sweep tests at.
        groups = np.tile([0, 1], horizon // 2)
        pvalues = []
        for i in range(reps):
            cfg = PermutationTestConfig(n_permutations=perms, seed=derive_seed(1113, i))
            pvalues.append(
                [PValueSequence(y.ravel(), groups, k, cfg, cap=max(alpha_grid)) for y in (null_y[i], alt_y[i])]
            )

        def protocol_cells(kind: str, alpha: float) -> tuple[float, float]:
            protocol = BatchProtocol(kind=kind, batch_size=k, alpha=alpha)
            hits = 0
            taus = []
            for null_pvalues, alt_pvalues in pvalues:
                hits += walk_protocol(protocol, null_pvalues)[0]
                hit, tau = walk_protocol(protocol, alt_pvalues)
                taus.append(tau if hit else horizon)
            return hits / reps, sum(taus) / reps

        def betting_cells(alpha: float) -> tuple[float, float]:
            hits = 0
            taus = []
            session = session_new(AuditConfig(alpha=alpha))
            for i in range(reps):
                cfg = AuditConfig(alpha=alpha, seed=derive_seed(1114, i))
                null_args = [block_args(session, null_y[i])]
                if run_args(cfg, null_args, record_trajectory=False).decision.is_rejection:
                    hits += 1
                report = run_args(cfg, [block_args(session, alt_y[i])], record_trajectory=False)
                taus.append(2 * report.decision.tau if report.decision.is_rejection else horizon)
            return hits / reps, sum(taus) / reps

        # the uncorrected protocol is grossly invalid at alpha = 0.05 while
        # the corrected one keeps its level
        m1_fpr, _ = protocol_cells("m1", 0.05)
        assert m1_fpr > 2 * 0.05, f"M1 FPR {m1_fpr} not inflated?"
        m2_fpr_at_05, _ = protocol_cells("m2", 0.05)
        assert m2_fpr_at_05 <= 0.05 + mc_slack(0.05, reps), f"M2 FPR {m2_fpr_at_05}"

        # Pareto comparison at matched valid levels
        compared = 0
        for alpha in alpha_grid:
            bet_fpr, bet_tau = betting_cells(alpha)
            m2_fpr, m2_tau = protocol_cells("m2", alpha)
            if bet_fpr <= alpha and m2_fpr <= alpha:
                compared += 1
                assert bet_tau <= m2_tau, (
                    f"alpha={alpha}: betting mean tau {bet_tau} > corrected protocol {m2_tau}"
                )
        assert compared >= 2, "too few comparable grid points"


def test_criterion_12_randomized_terminal_step():
    with criterion("12", "terminal randomized step at half threshold", 60.0):
        alpha = 0.05
        hits = 0
        n = 10_000
        for seed in range(n):
            config = AuditConfig(alpha=alpha, randomized_final_step=True, seed=seed)
            session = session_new(config, record_trajectory=False)
            session.games[0].log_wealth = math.log(0.5 / alpha)
            _, decision = session_finalize(session)
            hits += decision.kind is DecisionKind.FINAL_RANDOMIZED_REJECT
        assert abs(hits / n - 0.5) <= 0.02, f"frequency {hits / n}"
        with pytest.raises(SessionStateError):
            session_finalize(session)


def _run_cli(*argv, cwd):
    """Run ``python -m seqaudit`` in ``cwd`` (see :func:`child_env`)."""
    return subprocess.run(
        [sys.executable, "-m", "seqaudit", *argv], capture_output=True, text=True, cwd=cwd,
        env=child_env(),
    )


def test_criterion_13_end_to_end_determinism_and_goldens(tmp_path):
    with criterion("13", "CLI determinism and committed golden outputs", 120.0):
        audit_args = (
            "audit", str(GOLDEN / "audit_input.jsonl"), "--alpha", "0.05", "--seed", "3",
        )
        runs = []
        for run_idx in range(2):
            traj = tmp_path / f"traj_{run_idx}.csv"
            result = _run_cli(*audit_args, "--trajectory-out", str(traj), cwd=tmp_path)
            # 1: the committed stream has a 0.4 mean gap.  A child that never
            # reached the CLI also exits 1, but writes no trajectory.
            assert result.returncode == 1 and traj.exists(), result.stderr
            runs.append((result.returncode, result.stdout, traj.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][1] == (GOLDEN / "audit_report.json").read_text()
        assert runs[0][2] == (GOLDEN / "audit_trajectory.csv").read_bytes()

        sim_args = (
            "simulate", "--preset", "fig1", "--replicates", "5", "--horizon", "300",
            "--seed", "1",
        )
        sim_outs = []
        for run_idx in range(2):
            out = tmp_path / f"sim_{run_idx}.csv"
            result = _run_cli(*sim_args, "--out", str(out), cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            sim_outs.append(out.read_bytes())
        assert sim_outs[0] == sim_outs[1]
        assert sim_outs[0] == (GOLDEN / "simulate_fig1.csv").read_bytes()

        bench_args = (
            "bench", "--alphas", "0.05", "--methods", "betting,perm-m2",
            "--batch-sizes", "50", "--replicates", "10", "--horizon", "600",
            "--permutations", "100", "--seed", "2",
        )
        bench_outs = []
        for run_idx in range(2):
            out = tmp_path / f"bench_{run_idx}.csv"
            result = _run_cli(*bench_args, "--out", str(out), cwd=tmp_path)
            assert result.returncode == 0, result.stderr
            bench_outs.append(out.read_bytes())
        assert bench_outs[0] == bench_outs[1]
        assert bench_outs[0] == (GOLDEN / "bench_small.csv").read_bytes()
