"""Payoff constructions: exact arithmetic examples, enumeration oracles for
the null-mean property, and the reduction chain between variants."""
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqaudit.columns import block_args
from seqaudit.core import AuditConfig, AuditRecord, Batched, Composite, InvariantError, Propensity, ValidationError
from seqaudit.engine import session_new, session_step
from seqaudit.payoffs import (
    BatchAccumulator,
    batch_payoff,
    batch_push,
    payoff_propensity,
    propensity_context,
    weight_from_record,
)

unit = st.floats(min_value=0.0, max_value=1.0)
bets = st.floats(min_value=-0.5, max_value=0.5)


# A 3-point population with known shares, policy, and outputs; both groups
# share the weight map and have exactly equal weighted means.
RHO = (0.2, 0.3, 0.5)
PI = (0.5, 0.25, 0.25)
OMEGA = tuple(r / p for r, p in zip(RHO, PI))  # (0.4, 1.2, 2.0)
PHI_0 = (0.9, 0.4, 0.1)
PHI_1 = (0.05, 0.3, 0.5)
SCALE = 1.0 / (2.0 * max(OMEGA))  # 0.25


def _simple(y0, y1):
    (g,) = block_args(session_new(AuditConfig(alpha=0.05)), np.array([[y0, y1]]))[0]
    return g


def _propensity(y0, y1, w0, w1, scale):
    """The propensity argument: the weighted payoff's upper game at exact
    weights, error bounds 1 and 1."""
    upper, _ = payoff_propensity(y0, y1, w0, w1, scale, 1.0, 1.0)
    return upper


def _composite(y0, y1, eps):
    session = session_new(AuditConfig(alpha=0.05, strategy=Composite(epsilon=eps)))
    g_q, g_r = block_args(session, np.array([[y0, y1]]))[0]
    return g_q, g_r


def test_simple_direct_arithmetic():
    g = _simple(1.0, 0.0)
    assert (1.0 + 0.5 * g, g) == (1.5, 1.0)


@given(y0=unit, y1=unit)
def test_simple_zero_bet_gives_unit_payoff(y0, y1):
    g = _simple(y0, y1)
    assert 1.0 + 0.0 * g == 1.0
    assert g == y0 - y1


@given(y0=unit, y1=unit, lam=bets)
def test_simple_payoff_at_least_half(y0, y1, lam):
    g = _simple(y0, y1)
    assert 1.0 + lam * g >= 0.5
    assert -1.0 <= g <= 1.0


@pytest.mark.parametrize("mu", [0.1 * k for k in range(1, 10)])
@pytest.mark.parametrize("lam", [-0.5, -0.2, 0.0, 0.3, 0.5])
def test_simple_null_mean_by_enumeration(mu, lam):
    """Equal Bernoulli means: the enumerated payoff expectation is exactly 1."""
    expectation = 0.0
    for y0, y1 in product((0.0, 1.0), repeat=2):
        p = (mu if y0 else 1 - mu) * (mu if y1 else 1 - mu)
        expectation += p * (1.0 + lam * _simple(y0, y1))
    assert abs(expectation - 1.0) < 1e-12


def test_propensity_scale_of_two_region_population():
    # shares (0.5, 0.5) sampled with policy (0.25, 0.75): weights (2, 2/3),
    # so the largest admissible corrective factor is 1 / (2 * 2) = 0.25.
    omegas = [0.5 / 0.25, 0.5 / 0.75]
    assert min(1.0 / (2.0 * w) for w in omegas) == pytest.approx(0.25)


def test_propensity_uniform_weights_halves_the_simple_argument():
    for y0, y1 in product((0.0, 0.25, 1.0), repeat=2):
        assert _propensity(y0, y1, 1.0, 1.0, 0.5) == 0.5 * (y0 - y1)


def test_propensity_unbiasedness_on_finite_population():
    """E[weighted output under the policy] equals the population mean."""
    for phi in (PHI_0, PHI_1):
        weighted = sum(p * f * w for p, f, w in zip(PI, phi, OMEGA))
        population = sum(r * f for r, f in zip(RHO, phi))
        assert abs(weighted - population) < 1e-12


@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.25, 0.5])
def test_propensity_null_mean_by_enumeration(lam):
    mu0 = sum(r * f for r, f in zip(RHO, PHI_0))
    mu1 = sum(r * f for r, f in zip(RHO, PHI_1))
    assert abs(mu0 - mu1) < 1e-15
    expectation = 0.0
    for x0, x1 in product(range(3), repeat=2):
        g = _propensity(PHI_0[x0], PHI_1[x1], OMEGA[x0], OMEGA[x1], SCALE)
        expectation += PI[x0] * PI[x1] * (1.0 + lam * g)
    assert abs(expectation - 1.0) < 1e-12


def test_propensity_rejects_inconsistent_scale():
    """A weight the scale cannot take is refused as its record arrives."""
    session = session_new(AuditConfig(alpha=0.05, strategy=Propensity(scale=0.2)))
    with pytest.raises(InvariantError):
        session_step(session, AuditRecord(t=1, group=0, y_hat=1.0, propensity=0.25, density=1.0))  # 0.2 * 4 > 1/2


def test_estimated_density_zero_outputs_unit_payoff():
    assert payoff_propensity(0.0, 0.0, 1.0, 1.0, 0.4, 0.9, 1.1) == (0.0, 0.0)


def _estimated_expectations(factors, lam):
    """Enumerated E[1 + lam * g] of the (upper, lower) games on the 3-point
    population when group b's estimated shares are ``factors[b]`` times
    the truth, with those error bounds and the largest admissible scale."""
    d_min, d_max = min(factors), max(factors)
    omega_hat = [tuple(f * w for w in OMEGA) for f in factors]
    scale = d_min / (2.0 * max(max(row) for row in omega_hat))
    expectation = [0.0, 0.0]
    for x0, x1 in product(range(3), repeat=2):
        args = payoff_propensity(
            PHI_0[x0], PHI_1[x1], omega_hat[0][x0], omega_hat[1][x1], scale, d_min, d_max
        )
        for k, g in enumerate(args):
            expectation[k] += PI[x0] * PI[x1] * (1.0 + lam * g)
    return expectation


@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.3, 0.5])
def test_estimated_density_null_mean_with_uniform_overestimate(lam):
    """Estimated shares at 1.2x the truth make both error bounds 1.2; the
    enumerated drift per step of both games is +-scale * (mu0 - mu1) = 0
    under the null."""
    for expectation in _estimated_expectations((1.2, 1.2), lam):
        assert abs(expectation - 1.0) < 1e-12


@pytest.mark.parametrize("factors", [(0.5, 2.0), (2.0, 0.5), (1.0, 1.2)])
@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
def test_estimated_density_one_sided_games_under_skewed_estimates(factors, lam):
    """Under equal means and estimates off by a different factor per group,
    each game's argument has a nonpositive mean, so its payoff mean stays
    <= 1 for every bet in [0, 1/2], the range one-sided games bet in."""
    for expectation in _estimated_expectations(factors, lam):
        assert expectation <= 1.0 + 1e-12


def test_composite_direct_arithmetic():
    g_q, g_r = _composite(1.0, 0.0, 0.1)
    assert 1.0 + 0.5 * g_q == pytest.approx(1.45)
    assert 1.0 + 0.5 * g_r == pytest.approx(0.45)
    assert g_q == pytest.approx(0.9)
    assert g_r == pytest.approx(-1.1)


@given(y=unit, lam=bets, eps=st.floats(min_value=0.01, max_value=0.99))
def test_composite_symmetric_inputs(y, lam, eps):
    g_q, g_r = _composite(y, y, eps)
    assert g_q == g_r == -eps
    assert 1.0 + lam * g_q == 1.0 - lam * eps


@given(y0=unit, y1=unit, lam_q=bets, lam_r=bets, eps=st.floats(min_value=0.01, max_value=0.99))
def test_composite_payoffs_stay_positive(y0, y1, lam_q, lam_r, eps):
    g_q, g_r = _composite(y0, y1, eps)
    floor = 1.0 - 0.5 * (1.0 + eps) - 1e-12
    assert 1.0 + lam_q * g_q >= floor and 1.0 + lam_r * g_r >= floor and floor > -1e-12


@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.2, 0.5])
def test_composite_boundary_null_mean_by_enumeration(lam):
    """At the boundary mu0 - mu1 = eps, the upper one-sided game is exactly
    a martingale."""
    mu0, mu1, eps = 0.55, 0.45, 0.1
    expectation = 0.0
    for y0, y1 in product((0.0, 1.0), repeat=2):
        p = (mu0 if y0 else 1 - mu0) * (mu1 if y1 else 1 - mu1)
        g_q, _ = _composite(y0, y1, eps)
        expectation += p * (1.0 + lam * g_q)
    assert abs(expectation - 1.0) < 1e-12


def test_batch_push_joins_in_place_and_abstains():
    """A record of the pending group, or any record on an empty batch,
    joins the batch in place; the record path then plays 0.0 (payoff 1)."""
    acc = BatchAccumulator()
    outputs = acc.outputs
    assert batch_push(acc, AuditRecord(t=1, group=0, y_hat=0.7))
    assert batch_push(acc, AuditRecord(t=2, group=0, y_hat=0.4))
    assert acc.outputs is outputs and outputs == [0.7, 0.4] and acc.group == 0
    fire = AuditRecord(t=1, group=1, y_hat=0.2)
    assert not batch_push(acc, fire)
    assert outputs == [0.7, 0.4] and acc.group == 0


@pytest.mark.parametrize("pending,fire,want", [(0, 1, 0.4), (1, 0, -0.4)])
def test_batch_payoff_fires_on_the_mean_difference_and_empties(pending, fire, want):
    """A fire in either direction bets on group 0's mean minus group 1's."""
    acc = BatchAccumulator()
    for t, y in enumerate((0.7, 0.5), 1):
        assert batch_push(acc, AuditRecord(t=t, group=pending, y_hat=y))
    record = AuditRecord(t=1, group=fire, y_hat=0.2)
    assert not batch_push(acc, record)
    assert batch_payoff(acc, record) == pytest.approx(want)
    assert acc.outputs == []
    assert batch_push(acc, AuditRecord(t=2, group=fire, y_hat=0.3))  # a new batch opens


def test_batch_singletons_match_simple_bit_for_bit():
    rng_vals = [(0.13, 0.87), (1.0, 0.0), (0.5, 0.5), (0.999, 0.001)]
    for y0, y1 in rng_vals:
        for first, second in ((0, 1), (1, 0)):
            acc = BatchAccumulator()
            y = (y0, y1)
            assert batch_push(acc, AuditRecord(t=1, group=first, y_hat=y[first]))
            record = AuditRecord(t=1, group=second, y_hat=y[second])
            assert not batch_push(acc, record)
            assert batch_payoff(acc, record) == _simple(y0, y1)


def test_batched_session_refuses_group_two():
    """The session checks a record's group on arrival, before it reaches
    the pending batch."""
    session = session_new(AuditConfig(alpha=0.05, strategy=Batched()))
    session_step(session, AuditRecord(t=1, group=0, y_hat=0.5))
    with pytest.raises(ValidationError, match="group 2 out of range for 2 groups"):
        session_step(session, AuditRecord(t=1, group=2, y_hat=0.5))
    assert session.batch.outputs == [0.5] and session.steps == 1


def test_weight_helpers_from_records():
    rec0 = AuditRecord(t=1, group=0, y_hat=0.7, propensity=0.25, density=0.5)
    rec1 = AuditRecord(t=1, group=1, y_hat=0.2, propensity=0.5, density=0.5)
    assert weight_from_record(rec0, "density") == 2.0
    w0, w1 = propensity_context(rec0, rec1, "density")
    assert w0 == 2.0 and w1 == 1.0
    with pytest.raises(ValidationError):
        weight_from_record(AuditRecord(t=1, group=0, y_hat=0.7), "density")
    w_hat_0, w_hat_1 = propensity_context(
        AuditRecord(t=1, group=0, y_hat=0.7, propensity=0.25, density_estimate=0.6),
        AuditRecord(t=1, group=1, y_hat=0.2, propensity=0.5, density_estimate=0.55),
        "density_estimate",
    )
    assert w_hat_0 == pytest.approx(2.4)
    assert w_hat_1 == pytest.approx(1.1)
