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
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import seqaudit
from seqaudit.baselines import BatchProtocol, PermutationTestConfig, PValueSequence, walk_protocol
from seqaudit.betting import CURVATURE, ons_bets
from seqaudit.cli import REGION_POLICIES, region_population
from seqaudit.core import (
    AuditConfig,
    AuditRecord,
    Batched,
    Composite,
    DecisionKind,
    Propensity,
    SessionStateError,
)
from seqaudit.engine import run_args, run_stream, session_finalize, session_new
from seqaudit.payoffs import (
    PropensityContext,
    payoff_composite,
    payoff_propensity,
    payoff_simple,
    simple_args,
)
from seqaudit.simulate import (
    FixedMeans,
    LogisticDrift,
    derive_seed,
    draw_outputs,
    generate_stream,
    monte_carlo,
    policy_corrective_scale,
    stream_to_iterable,
)

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
        # simple payoff over the mean grid
        for mu in [k / 10 for k in range(1, 10)]:
            for lam in lams:
                expectation = 0.0
                for y0, y1 in product((0.0, 1.0), repeat=2):
                    p = (mu if y0 else 1 - mu) * (mu if y1 else 1 - mu)
                    expectation += p * payoff_simple(y0, y1, lam)[0]
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
                ctx = PropensityContext(omega_0=omega[x0], omega_1=omega[x1], scale=scale)
                expectation += pi[x0] * pi[x1] * payoff_propensity(phi0[x0], phi1[x1], ctx, lam)[0]
            assert abs(expectation - 1.0) < 1e-12
        # upper one-sided game at the boundary mean gap = epsilon
        mu0, mu1, eps = 0.55, 0.45, 0.1
        for lam in lams:
            expectation = 0.0
            for y0, y1 in product((0.0, 1.0), repeat=2):
                p = (mu0 if y0 else 1 - mu0) * (mu1 if y1 else 1 - mu1)
                expectation += p * payoff_composite(y0, y1, eps, lam, lam)[0]
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
        fair = region_population(pi3, equalize_means=True, horizon=2000, seed=161)
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
        # One lazy p-value sequence per stream, shared by every protocol sweep.
        groups = np.tile([0, 1], horizon // 2)
        pvalues = []
        for i in range(reps):
            cfg = PermutationTestConfig(n_permutations=perms, seed=derive_seed(1113, i))
            pvalues.append(
                [PValueSequence(y.ravel(), groups, k, cfg) for y in (null_y[i], alt_y[i])]
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
            for i in range(reps):
                cfg = AuditConfig(alpha=alpha, seed=derive_seed(1114, i))
                null_args = [simple_args(null_y[i])]
                if run_args(cfg, null_args, record_trajectory=False).decision.is_rejection:
                    hits += 1
                report = run_args(cfg, [simple_args(alt_y[i])], record_trajectory=False)
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
    """Run ``python -m seqaudit`` in ``cwd``.  The child finds the package
    this process imported through an absolute ``PYTHONPATH`` entry (any
    inherited entries follow it, made absolute), so a relative path such as
    ``PYTHONPATH=src`` does not break when ``cwd`` differs."""
    paths = [str(Path(seqaudit.__file__).resolve().parents[1])]
    paths += [
        os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, "-m", "seqaudit", *argv], capture_output=True, text=True, cwd=cwd, env=env
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
