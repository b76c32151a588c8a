"""Bettor unit tests plus the wealth-floor oracle properties that certify the
update direction."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqaudit.betting import (
    CURVATURE,
    log_wealth_lower_bound,
    ons_bets,
    wealth_lower_bound,
)
from seqaudit.core import AuditConfig, ConfigurationError, ValidationError
from seqaudit.engine import run_args


def test_init_defaults():
    # The first bet is 0; the default domain clamps at -1/2 and 1/2.
    assert ons_bets([-1.0, 0.0]).tolist() == [0.0, -0.5]
    assert ons_bets([1.0, 0.0]).tolist() == [0.0, 0.5]


def test_init_wider_domain_kept_but_clamp_stays_half():
    eps = 0.1
    domain = (-1 / (1 - eps), 1 / (1 + eps))
    assert ons_bets([1.0, 0.0], domain).tolist() == [0.0, 0.5]  # clamp never widens past 1/2
    assert ons_bets([-1.0, 0.0], domain).tolist() == [0.0, -0.5]


@pytest.mark.parametrize("domain", [(0.1, 0.5), (-0.5, -0.1), (0.5, -0.5), (-math.inf, 0.5)])
def test_init_rejects_bad_domain(domain):
    with pytest.raises(ConfigurationError):
        ons_bets([0.1], domain)


def test_zero_gradient_is_a_fixed_point():
    # Zero gradients leave the bet at 0 and the gradient sum empty: the
    # bets that follow are those of a fresh bettor.
    gs = np.random.default_rng(5).uniform(-1, 1, 50)
    bets = ons_bets(np.concatenate(([0.0, 0.0], gs)))
    assert bets[:3].tolist() == [0.0, 0.0, 0.0]
    assert np.array_equal(bets[2:], ons_bets(gs))


def test_first_step_on_unit_gradient_clamps_to_half():
    # unclamped value is c * 1 / (1 + 1) = 1.1094005248001444
    assert CURVATURE / 2.0 == pytest.approx(1.1094005248001444)
    up = ons_bets([1.0, -1.0, 0.0])
    assert up[1] == 0.5
    # gradient sum 1 after the first step: z_2 = -1 / (1 - 1/2) = -2
    assert up[2] == 0.5 + CURVATURE * -2.0 / (1.0 + 1.0 + 4.0)
    down = ons_bets([-1.0, 1.0, 0.0])
    assert down[1] == -0.5
    assert down[2] == -0.5 + CURVATURE * 2.0 / (1.0 + 1.0 + 4.0)


def test_update_is_deterministic_and_pure():
    gs = np.array([0.3, -0.2, 0.9])
    a = ons_bets(gs)
    b = ons_bets(gs)
    assert np.array_equal(a, b)
    assert gs.tolist() == [0.3, -0.2, 0.9]  # input untouched


def test_narrow_domain_clamps_tighter():
    assert ons_bets([1.0, 0.0], (-0.25, 0.25))[1] == 0.25


def test_wealth_lower_bound_values():
    assert wealth_lower_bound(0.0, 1.0) == 1.0
    assert wealth_lower_bound(10.0, 10.0) == pytest.approx(0.34903429574618416, rel=1e-12)
    assert wealth_lower_bound(50.0, 100.0) == pytest.approx(0.6450009306485578, rel=1e-12)
    with pytest.raises(ValidationError):
        wealth_lower_bound(1.0, 0.0)
    with pytest.raises(ValidationError):
        wealth_lower_bound(1.0, -2.0)


def test_log_wealth_lower_bound_matches_linear():
    for s, v in [(0.0, 1.0), (10.0, 10.0), (3.0, 0.5), (-7.0, 2.0)]:
        assert math.exp(log_wealth_lower_bound(s, v)) == pytest.approx(
            wealth_lower_bound(s, v), rel=1e-12
        )


@given(gs=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_bets_stay_in_half_interval_and_payoffs_positive(gs):
    lams = ons_bets(gs)
    assert np.all(np.abs(lams) <= 0.5)
    payoffs = 1.0 + lams * np.asarray(gs)
    assert np.all(payoffs >= 0.5)


@given(gs=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_sign_antisymmetry(gs):
    gs = np.asarray(gs)
    assert np.array_equal(ons_bets(gs), -ons_bets(-gs))


def test_bets_match_repeated_updates():
    """ons_bets places the engine's bets: the wealth path of a one-game
    audit over ``gs`` is the product of 1 + lam_i * g_i with its bets."""
    rng = np.random.default_rng(3)
    gs = rng.uniform(-1, 1, 500)
    report = run_args(AuditConfig(alpha=1e-300), [gs[:, None]])
    log_wealth = 0.0
    expected = []
    for t, (lam, g) in enumerate(zip(ons_bets(gs).tolist(), gs.tolist()), start=1):
        log_wealth += math.log(1.0 + lam * g)
        expected.append((t, log_wealth))
    assert report.trajectory == expected


def _bound_gaps(gs: np.ndarray) -> np.ndarray:
    """log wealth minus log bound at every step with positive v_sum."""
    lams = ons_bets(gs)
    log_k = np.cumsum(np.log1p(lams * gs))
    s = np.cumsum(gs)
    v = np.cumsum(gs * gs)
    mask = v > 0
    log_bound = -np.log(v[mask]) + s[mask] ** 2 / (4.0 * (v[mask] + np.abs(s[mask])))
    return log_k[mask] - log_bound


def test_wealth_floor_tracked_after_burn_in():
    """The certified floor is respected everywhere past the bettor's burn-in:
    across a seeded random suite, every violation sits at v_sum < 16 (the
    first step alone always violates: the bet there is pinned to zero while
    the floor exceeds one)."""
    rng = np.random.default_rng(99)
    for _ in range(150):
        n = int(rng.integers(2, 3000))
        kind = rng.integers(0, 3)
        if kind == 0:
            gs = rng.uniform(-1, 1, n)
        elif kind == 1:
            gs = rng.choice([-1.0, 1.0], n)
        else:
            gs = (rng.random(n) < 0.6).astype(float) - (rng.random(n) < 0.4)
        lams = ons_bets(gs)
        log_k = np.cumsum(np.log1p(lams * gs))
        s = np.cumsum(gs)
        v = np.cumsum(gs * gs)
        mask = v > 0
        log_bound = np.full(n, -np.inf)
        log_bound[mask] = -np.log(v[mask]) + s[mask] ** 2 / (4.0 * (v[mask] + np.abs(s[mask])))
        violated = log_k < log_bound + math.log1p(-1e-9)
        assert not np.any(violated & (v >= 16.0))


def test_wealth_floor_grows_with_drift():
    """Under sustained drift the wealth dominates the floor by a widening
    margin, while the sign-flipped (wrong) update direction falls
    exponentially below it; this is the oracle that pins the update sign."""
    rng = np.random.default_rng(7)
    gs = (rng.random(4000) < 0.6).astype(float) - (rng.random(4000) < 0.4)

    gaps = _bound_gaps(gs)
    assert gaps[-1] > 10.0

    # Wrong direction: bet against the gradient.
    lam, acc = 0.0, 0.0
    log_k = 0.0
    for g in gs:
        log_k += math.log1p(lam * g)
        z = g / (1.0 + lam * g)
        acc += z * z
        lam = min(0.5, max(-0.5, lam - CURVATURE * z / (1.0 + acc)))
    s, v = float(np.sum(gs)), float(np.sum(gs * gs))
    assert log_k < log_wealth_lower_bound(s, v) - 10.0
