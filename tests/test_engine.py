"""Session lifecycle, thresholds per orchestration mode, the randomized
terminal step, and the stopping-rule / determinism properties."""
import importlib
import math
import random
from collections import deque, namedtuple
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqaudit
from seqaudit.betting import _ons_step, ons_bets
from seqaudit.columns import block_args, refused_weights, run_columns
from seqaudit.core import (
    AuditConfig,
    AuditRecord,
    Batched,
    Composite,
    ConfigurationError,
    DecisionKind,
    EstimatedDensity,
    InvariantError,
    Propensity,
    SessionStateError,
    Simple,
    ValidationError,
)
from seqaudit.engine import (
    _Game,
    build_report,
    run_args,
    run_stream,
    session_finalize,
    session_new,
    session_step,
)
from seqaudit.ingest import report_to_dict
from seqaudit.payoffs import propensity_context

from conftest import bernoulli_pair_stream


def pair(t, y0, y1):
    return [AuditRecord(t=t, group=0, y_hat=y0), AuditRecord(t=t, group=1, y_hat=y1)]


def block(config, y):
    """Arguments of the steps whose outputs are the rows of ``y``, from the
    strategy's own step."""
    return block_args(session_new(config), y)


def queued(session, records):
    """The values ``session`` queues for a step's records as they arrive,
    one per group in group order: the output, or for a weighted strategy
    the (output, weight) pair of its arrival check."""
    weight, strategy = session.row.weight, session.config.strategy
    return [r.y_hat if weight is None else propensity_context(r, weight, strategy) for r in records]


def feed_step(session, records):
    """Feed a step's records to ``session`` one at a time, as a live audit
    does; returns what ``session_step`` returns for the last of them."""
    for record in records:
        result = session_step(session, record)
    return result


def test_session_new_thresholds():
    assert math.exp(session_new(AuditConfig(alpha=0.05)).log_threshold) == pytest.approx(20.0)
    composite = session_new(AuditConfig(alpha=0.05, strategy=Composite(epsilon=0.1)))
    assert math.exp(composite.log_threshold) == pytest.approx(40.0)
    assert [g.game_id for g in composite.games] == ["upper", "lower"]
    multi = session_new(AuditConfig(alpha=0.05, group_count=3))
    assert math.exp(multi.log_threshold) == pytest.approx(40.0)
    assert [g.game_id for g in multi.games] == ["0v1", "1v2"]
    estimated = EstimatedDensity(delta_min=0.5, delta_max=2.0, scale=0.1)
    one_sided = session_new(AuditConfig(alpha=0.05, strategy=estimated))
    assert math.exp(one_sided.log_threshold) == pytest.approx(40.0)
    assert [(g.game_id, g.lo) for g in one_sided.games] == [("upper", 0.0), ("lower", 0.0)]


def test_session_new_initial_state():
    session = session_new(AuditConfig(alpha=0.05))
    assert session.status.kind is DecisionKind.CONTINUE
    (game,) = session.games
    assert game.log_wealth == 0.0 and session.steps == 0
    assert build_report(session).wealth_final == 1.0
    assert game.lam == 0.0 and game.grad_acc == 0.0


def test_multi_group_requires_simple_strategy():
    with pytest.raises(ConfigurationError):
        session_new(AuditConfig(alpha=0.05, group_count=3, strategy=Composite(epsilon=0.1)))


def test_constant_gap_rejects_at_step_nine():
    """Oracle is the recursion itself: wealth 1.5^(t-1) crosses 20 at t=9."""
    config = AuditConfig(alpha=0.05)
    session = session_new(config)
    bets = ons_bets([1.0] * 19)
    expected_wealth = 1.0
    decision = session.status
    for t in range(1, 20):
        _, decision = feed_step(session, pair(t, 1.0, 0.0))
        expected_wealth *= 1.0 + bets[t - 1] * 1.0
        assert session.games[0].log_wealth == pytest.approx(math.log(expected_wealth), abs=1e-12)
        if decision.is_terminal:
            break
    assert decision.kind is DecisionKind.REJECT
    assert decision.tau == 9 <= 10


def test_identical_groups_never_reject():
    config = AuditConfig(alpha=0.05)
    session = session_new(config)
    for t in range(1, 101):
        _, decision = feed_step(session, pair(t, 0.7, 0.7))
    assert decision.kind is DecisionKind.CONTINUE
    assert session.games[0].log_wealth == 0.0


def test_step_refused_after_terminal():
    session = session_new(AuditConfig(alpha=0.5))
    for t in range(1, 30):
        _, decision = feed_step(session, pair(t, 1.0, 0.0))
        if decision.is_terminal:
            break
    assert decision.kind is DecisionKind.REJECT
    with pytest.raises(SessionStateError):
        feed_step(session, pair(99, 1.0, 0.0))


@pytest.mark.parametrize("strategy, groups", [(Simple(), 3), (Composite(epsilon=0.05), 2)])
def test_a_waiting_record_leaves_the_games_as_they_are(strategy, groups):
    """Until every group has a record waiting, a record only waits: the
    decision is continue and the step count and every game's state, bit
    for bit, stay as they are.  The record that completes the step takes
    the oldest waiting record of each group, and the newer ones wait on as
    the outputs their step reads."""
    session = session_new(AuditConfig(alpha=0.05, strategy=strategy, group_count=groups))
    for t in range(1, 4):
        feed_step(session, [AuditRecord(t=t, group=b, y_hat=(t * (b + 1)) % 5 / 4) for b in range(groups)])
    before = [_bits(game) for game in session.games]
    for t in (4, 5):
        for b in range(groups - 1):
            _, decision = session_step(session, AuditRecord(t=t, group=b, y_hat=(t + b) / 8))
            assert decision.kind is DecisionKind.CONTINUE
            assert session.steps == 3 and [_bits(game) for game in session.games] == before
    _, decision = session_step(session, AuditRecord(t=4, group=groups - 1, y_hat=0.0))
    assert session.steps == 4 and [_bits(game) for game in session.games] != before
    assert [list(queue) for queue in session.waiting] == [[(5 + b) / 8] for b in range(groups - 1)] + [[]]


def test_a_record_that_would_only_wait_is_refused_after_a_rejection():
    session = session_new(AuditConfig(alpha=0.5))
    decision = session.status
    while decision.kind is DecisionKind.CONTINUE:
        _, decision = feed_step(session, pair(session.steps + 1, 1.0, 0.0))
    with pytest.raises(SessionStateError, match="records refused"):
        session_step(session, AuditRecord(t=99, group=0, y_hat=1.0))
    assert session.waiting == [deque(), deque()]


_WEIGHT_2 = {"propensity": 0.5, "density": 1.0}  # weight 2, the heaviest a scale of 0.25 takes


@pytest.mark.parametrize(
    "fault, error",
    [({}, ValidationError), ({"propensity": 0.1, "density": 1.0}, InvariantError),
     ({"propensity": 0.5, "density": 0.0}, ValidationError)],
    ids=["no-weights", "weight-10", "weight-0"],
)
@pytest.mark.parametrize("waiting", [None, 0, 1], ids=["queues-empty", "group-0-waits", "group-1-waits"])
def test_a_record_the_strategy_refuses_is_refused_as_it_arrives(fault, error, waiting):
    """Each record's weight is checked as it arrives, so a faulty record is
    refused itself, whether it would wait or complete a step: the step
    count, the queues and the games stay as they were, nothing faulty
    waits, and valid records then step once."""
    session = session_new(AuditConfig(alpha=0.05, strategy=Propensity(scale=0.25)))
    feed_step(session, [AuditRecord(t=1, group=b, y_hat=0.5 * b, **_WEIGHT_2) for b in (0, 1)])
    if waiting is not None:
        session_step(session, AuditRecord(t=2, group=waiting, y_hat=1.0, **_WEIGHT_2))

    def state():
        return session.steps, session.status, [list(q) for q in session.waiting], [_bits(g) for g in session.games]

    before = state()
    for group in (0, 1):
        with pytest.raises(error):
            session_step(session, AuditRecord(t=3, group=group, y_hat=0.5, **fault))
        assert state() == before
    feed_step(session, [AuditRecord(t=3, group=b, y_hat=0.0, **_WEIGHT_2) for b in (0, 1) if not session.waiting[b]])
    assert session.steps == 2 and session.waiting == [deque(), deque()]
    assert [_bits(g) for g in session.games] != before[3]


def test_bundle_validation():
    """A session takes one record at a time, and a record whose group lies
    outside the audit's is refused on arrival, before it waits."""
    session = session_new(AuditConfig(alpha=0.05))
    with pytest.raises(ValidationError, match="group 2 out of range for 2 groups"):
        session_step(session, AuditRecord(t=1, group=2, y_hat=0.6))
    with pytest.raises(ValidationError, match="one record at a time, got list"):
        session_step(session, pair(1, 0.5, 0.6))
    assert session.waiting == [deque(), deque()] and session.steps == 0
    # A block of arguments, too, must hold one column per game.
    with pytest.raises(ValidationError, match=r"one column per game \(1\), got shape \(3, 2\)"):
        run_args(AuditConfig(alpha=0.05), [np.zeros((3, 2))])


# A record look-alike that skips AuditRecord's checks.
_LooseRecord = namedtuple("_LooseRecord", "t group y_hat propensity density density_estimate", defaults=(None,) * 3)


@pytest.mark.parametrize(
    "records",
    [
        [_LooseRecord(1, 0, 0.5), _LooseRecord(1, -1, 0.5)],  # would wait as group 1 and complete a step
        [r for t in range(1, 10) for r in (_LooseRecord(t, 0, 5.0), _LooseRecord(t, 1, 0.0))],  # argument 5
    ],
    ids=["negative-group", "output-5"],
)
def test_a_session_takes_only_audit_records(records):
    """Only an AuditRecord has passed the record checks the steps rely on,
    so any other object is refused before it waits or steps."""
    with pytest.raises(ValidationError, match="one record at a time, got _LooseRecord"):
        seqaudit.run_stream(AuditConfig(alpha=0.05), records)


def test_exact_one_step_supermartingale_mean():
    """Enumerated conditional expectation of wealth equals prior wealth under
    equal means, for several fixed bets and several prior wealths."""
    for mu, lam, prior in product((0.2, 0.5, 0.8), (-0.5, -0.1, 0.3, 0.5), (1.0, 3.7)):
        expected = 0.0
        for y0, y1 in product((0.0, 1.0), repeat=2):
            p = (mu if y0 else 1 - mu) * (mu if y1 else 1 - mu)
            (g,) = block(AuditConfig(alpha=0.05), np.array([[y0, y1]]))[0]
            expected += p * prior * (1.0 + lam * g)
        assert abs(expected - prior) < 1e-12


def test_composite_directional_games():
    """With a gap above epsilon, the aligned one-sided game rejects while the
    opposed game's wealth stays below 1."""
    config = AuditConfig(alpha=0.05, strategy=Composite(epsilon=0.1), seed=11)
    stream = bernoulli_pair_stream(0.8, 0.2, 2000, seed=21)
    report = run_stream(config, stream)
    assert report.decision.kind is DecisionKind.REJECT
    by_id = {g.game_id: g for g in report.per_game}
    assert by_id["upper"].rejected
    assert by_id["upper"].wealth_final >= 40.0 * (1 - 1e-12)
    assert not by_id["lower"].rejected
    assert by_id["lower"].wealth_final < 1.0


def test_composite_threshold_is_two_over_alpha():
    config = AuditConfig(alpha=0.05, strategy=Composite(epsilon=0.01))
    session = session_new(config)
    t = 0
    while True:
        t += 1
        _, decision = feed_step(session, pair(t, 1.0, 0.0))
        if decision.is_terminal:
            break
    assert max(g.log_wealth for g in session.games) >= math.log(40.0) - 1e-12


def test_multi_group_pairs_and_rejecting_game():
    config = AuditConfig(alpha=0.05, group_count=3, seed=5)
    rng = np.random.default_rng(17)
    session = session_new(config)
    decision = session.status
    for t in range(1, 5000):
        records = [
            AuditRecord(t=t, group=0, y_hat=float(rng.random() < 0.5)),
            AuditRecord(t=t, group=1, y_hat=float(rng.random() < 0.5)),
            AuditRecord(t=t, group=2, y_hat=float(rng.random() < 0.9)),
        ]
        _, decision = feed_step(session, records)
        if decision.is_terminal:
            break
    assert decision.kind is DecisionKind.REJECT
    report = build_report(session)
    rejecting = [g.game_id for g in report.per_game if g.rejected]
    assert rejecting == ["1v2"]


def test_two_group_orchestration_is_the_plain_engine():
    """group_count=2 runs one game at threshold 1/alpha whose wealth path is
    bit-identical to composing the public bettor and payoff arguments by
    hand."""
    stream = bernoulli_pair_stream(0.7, 0.3, 400, seed=3)
    config = AuditConfig(alpha=0.01)
    report = run_stream(config, stream)

    gs = block(config, np.array([r.y_hat for r in stream]).reshape(400, 2))[:, 0]
    log_wealth = 0.0
    trajectory = []
    for t, (lam, g) in enumerate(zip(ons_bets(gs).tolist(), gs.tolist())):
        log_wealth += math.log(1.0 + lam * g)
        trajectory.append((t + 1, log_wealth))
        if log_wealth >= math.log(1) - math.log(0.01):
            break
    assert report.trajectory == trajectory
    assert report.log_wealth_final == trajectory[-1][1]


def test_batched_dense_stream_equals_simple_bit_for_bit():
    stream = bernoulli_pair_stream(0.6, 0.4, 500, seed=9)
    simple_report = run_stream(AuditConfig(alpha=0.01), stream)
    batched_report = run_stream(AuditConfig(alpha=0.01, strategy=Batched()), stream)
    # One batched step per record; bets fire on every second record.
    simple_wealth = [lw for _, lw in simple_report.trajectory]
    batched_wealth = [lw for _, lw in batched_report.trajectory][1::2]
    assert batched_wealth == simple_wealth


def test_batched_single_group_stream_abstains_forever():
    config = AuditConfig(alpha=0.05, strategy=Batched())
    stream = [AuditRecord(t=t, group=0, y_hat=1.0) for t in range(1, 200)]
    report = run_stream(config, stream)
    assert report.decision.kind is DecisionKind.CONTINUE
    assert report.wealth_final == 1.0
    assert report.log_wealth_final == 0.0


def test_batched_mode_rejects_record_bundles():
    session = session_new(AuditConfig(alpha=0.05, strategy=Batched()))
    with pytest.raises(ValidationError, match="one record at a time"):
        session_step(session, pair(1, 0.5, 0.5))
    session_step(session, AuditRecord(t=1, group=0, y_hat=0.5))
    with pytest.raises(ValidationError, match="run them through run_stream"):
        run_columns(AuditConfig(alpha=0.05, strategy=Batched()), [])


def test_propensity_strategy_through_engine():
    config = AuditConfig(alpha=0.05, strategy=Propensity(scale=0.25))
    session = session_new(config)
    records = [
        AuditRecord(t=1, group=0, y_hat=1.0, propensity=0.25, density=0.5),
        AuditRecord(t=1, group=1, y_hat=0.0, propensity=0.5, density=0.5),
    ]
    # weights are (2.0, 1.0); g = 0.25 * (1 * 2 - 0) = 0.5; first bet is 0.
    assert session.row.step(session, queued(session, records)) == (0.5,)
    _, decision = feed_step(session, records)
    assert decision.kind is DecisionKind.CONTINUE
    assert session.games[0].log_wealth == 0.0
    missing = [
        AuditRecord(t=2, group=0, y_hat=1.0),
        AuditRecord(t=2, group=1, y_hat=0.0),
    ]
    with pytest.raises(ValidationError):
        feed_step(session, missing)


def test_estimated_density_strategy_through_engine():
    strategy = EstimatedDensity(delta_min=0.5, delta_max=2.0, scale=0.125)
    session = session_new(AuditConfig(alpha=0.05, strategy=strategy))
    records = [
        AuditRecord(t=1, group=0, y_hat=1.0, propensity=0.25, density_estimate=0.5),
        AuditRecord(t=1, group=1, y_hat=0.5, propensity=0.5, density_estimate=0.5),
    ]
    # estimated weights (2.0, 1.0): upper = 0.125 * (2 / 2 - 0.5 / 0.5) = 0,
    # lower = 0.125 * (0.5 / 2 - 2 / 0.5) = -0.46875
    assert session.row.step(session, queued(session, records)) == (0.0, -0.46875)
    feed_step(session, records)
    upper, lower = session.games
    assert upper.lam == lower.lam == 0.0  # a negative argument cannot push a bet below 0


def test_estimated_density_at_unit_bounds_is_propensity_bit_for_bit():
    """Exact weights are the estimated-density payoff at bounds 1 and 1: fed
    the same weighted records, each step's propensity argument is the
    estimated-density upper argument bit for bit.  Their games bet on
    different domains ([-1/2, 1/2] against [0, 1/2]), so the arguments,
    not the game states, are compared."""
    rng = random.Random(8)
    # Weights stay <= 0.5 / 0.25 = 2.  A scale that is not a power of two
    # rounds, so reordered arithmetic would show in the arguments.
    scale = 0.2
    prop = session_new(AuditConfig(alpha=0.05, strategy=Propensity(scale=scale)))
    est = session_new(AuditConfig(alpha=0.05, strategy=EstimatedDensity(1.0, 1.0, scale)))
    for t in range(1, 201):
        records = []
        for b in (0, 1):
            rho = rng.uniform(0.05, 0.5)
            records.append(AuditRecord(t=t, group=b, y_hat=rng.random(),
                                       propensity=rng.uniform(0.25, 1.0), density=rho,
                                       density_estimate=rho))
        (g,), (upper, _) = prop.row.step(prop, queued(prop, records)), est.row.step(est, queued(est, records))
        assert g.hex() == upper.hex(), f"step {t}"
        feed_step(prop, records)
        feed_step(est, records)
    assert prop.steps == est.steps == 200


def test_finalize_at_threshold_always_rejects():
    for seed in range(20):
        config = AuditConfig(alpha=0.05, randomized_final_step=True, seed=seed)
        session = session_new(config)
        session.games[0].log_wealth = math.log(20.0)
        report, decision = session_finalize(session)
        assert decision.kind is DecisionKind.FINAL_RANDOMIZED_REJECT
        assert 0.0 < decision.u_draw < 1.0
        assert report.decision is decision


def test_finalize_at_zero_wealth_never_rejects():
    for seed in range(20):
        config = AuditConfig(alpha=0.05, randomized_final_step=True, seed=seed)
        session = session_new(config)
        session.games[0].log_wealth = -1e9
        _, decision = session_finalize(session)
        assert decision.kind is DecisionKind.FINAL_FAIL_TO_REJECT


def test_finalize_half_threshold_rejects_half_the_time():
    hits = 0
    n = 2000
    for seed in range(n):
        config = AuditConfig(alpha=0.05, randomized_final_step=True, seed=seed)
        session = session_new(config)
        session.games[0].log_wealth = math.log(0.5 / 0.05)
        _, decision = session_finalize(session)
        hits += decision.kind is DecisionKind.FINAL_RANDOMIZED_REJECT
    assert hits / n == pytest.approx(0.5, abs=0.05)


def test_finalize_is_single_use_and_needs_flag():
    config = AuditConfig(alpha=0.05, randomized_final_step=True)
    session = session_new(config)
    session_finalize(session)
    with pytest.raises(SessionStateError, match="at most once"):
        session_finalize(session)
    with pytest.raises(SessionStateError, match="records refused"):
        feed_step(session, pair(1, 0.5, 0.5))

    disabled = session_new(AuditConfig(alpha=0.05))
    with pytest.raises(SessionStateError, match="disabled"):
        session_finalize(disabled)

    rejected = session_new(AuditConfig(alpha=0.5, randomized_final_step=True))
    for t in range(1, 50):
        _, decision = feed_step(rejected, pair(t, 1.0, 0.0))
        if decision.is_terminal:
            break
    with pytest.raises(SessionStateError, match="already decided"):
        session_finalize(rejected)


def test_finalize_draw_unaffected_by_trajectory_logging():
    """The terminal draw comes from a reserved substream, so toggling
    trajectory recording or feeding data cannot perturb it."""
    def final_u(record_trajectory, feed):
        config = AuditConfig(alpha=0.05, randomized_final_step=True, seed=77)
        session = session_new(config, record_trajectory=record_trajectory)
        if feed:
            for t in range(1, 20):
                feed_step(session, pair(t, 0.5, 0.5))
        _, decision = session_finalize(session)
        return decision.u_draw

    draws = {final_u(True, True), final_u(False, True), final_u(True, False), final_u(False, False)}
    assert len(draws) == 1


def test_empty_stream_no_finalize():
    report = run_stream(AuditConfig(alpha=0.05), [])
    assert report.decision.kind is DecisionKind.CONTINUE
    assert report.decision.tau is None
    assert report.wealth_final == 1.0


def test_run_stream_deterministic_reports():
    stream = bernoulli_pair_stream(0.55, 0.45, 300, seed=4)
    config = AuditConfig(alpha=0.05, randomized_final_step=True, seed=123)
    first = run_stream(config, stream)
    second = run_stream(config, stream)
    assert first == second
    assert report_to_dict(first) == report_to_dict(second)


def test_rejection_is_a_stopping_rule():
    """The decision at tau depends only on the stream prefix."""
    stream = bernoulli_pair_stream(0.8, 0.2, 500, seed=8)
    config = AuditConfig(alpha=0.01)
    report = run_stream(config, stream)
    assert report.decision.kind is DecisionKind.REJECT
    tau = report.decision.tau

    replay = run_stream(config, stream[: 2 * tau])
    assert replay.decision.kind is DecisionKind.REJECT
    assert replay.decision.tau == tau
    assert replay.log_wealth_final == report.log_wealth_final

    shorter = run_stream(config, stream[: 2 * (tau - 1)])
    assert shorter.decision.kind is DecisionKind.CONTINUE


def test_run_stream_buffers_unbalanced_arrivals():
    """Pair-consuming strategies wait for one record from each group."""
    records = [
        AuditRecord(t=1, group=0, y_hat=1.0),
        AuditRecord(t=2, group=0, y_hat=0.8),
        AuditRecord(t=3, group=1, y_hat=0.0),
        AuditRecord(t=4, group=1, y_hat=0.2),
    ]
    report = run_stream(AuditConfig(alpha=0.05), records)
    # bundles: (1.0, 0.0) then (0.8, 0.2); first bet 0 then 0.5
    assert report.log_wealth_final == pytest.approx(math.log(1.0) + math.log(1.3))


def test_wealth_positive_and_log_consistent():
    stream = bernoulli_pair_stream(0.5, 0.5, 200, seed=13)
    config = AuditConfig(alpha=0.05)
    session = session_new(config)
    for t in range(200):
        records = [stream[2 * t], stream[2 * t + 1]]
        assert all(abs(g) <= 1.0 for g in session.row.step(session, queued(session, records)))
        feed_step(session, records)
    report = build_report(session)
    assert report.wealth_final > 0.0
    for _, lw in report.trajectory:
        assert math.isfinite(lw)


def _batched_reference(records, alpha):
    """Decision, tau and log wealth of a batched audit recomputed by hand:
    fsum means of the pending batches once both groups have some, each bet
    advanced by the ONS step, abstentions leaving everything as it is."""
    lam, grad_acc, log_wealth = 0.0, 0.0, 0.0
    log_threshold = math.log(1) - math.log(alpha)
    pending = ([], [])
    for i, rec in enumerate(records, start=1):
        pending[rec.group].append(rec.y_hat)
        if pending[0] and pending[1]:
            g = math.fsum(pending[0]) / len(pending[0]) - math.fsum(pending[1]) / len(pending[1])
            log_wealth += math.log(1.0 + lam * g)
            lam, grad_acc = _ons_step(lam, grad_acc, g, -0.5, 0.5)
            pending = ([], [])
        if log_wealth >= log_threshold:
            return DecisionKind.REJECT, i, log_wealth
    return DecisionKind.CONTINUE, None, log_wealth


def _burst_records(bursts, seed, shrink):
    """Records arriving in the given (group, length) bursts; group 1's
    outputs are scaled by ``shrink`` so that some audits reject."""
    rng = random.Random(seed)
    t = [0, 0]
    out = []
    for group, length in bursts:
        for _ in range(length):
            t[group] += 1
            y = rng.random() * (shrink if group else 1.0)
            out.append(AuditRecord(t=t[group], group=group, y_hat=y))
    return out


@given(
    bursts=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 40)), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    shrink=st.sampled_from([1.0, 0.7, 0.3]),
)
@example(bursts=[(0, 3), (1, 20_000), (0, 5), (1, 2), (0, 40)], seed=7, shrink=1.0)
@settings(max_examples=60, deadline=None)
def test_batched_bursty_arrivals_match_reference(bursts, seed, shrink):
    records = _burst_records(bursts, seed, shrink)
    report = run_stream(AuditConfig(alpha=0.05, strategy=Batched()), records, record_trajectory=False)
    kind, tau, log_wealth = _batched_reference(records, 0.05)
    assert report.decision.kind is kind
    assert report.decision.tau == tau
    assert report.log_wealth_final == log_wealth


@given(data=st.data(), groups=st.integers(2, 4), randomized=st.booleans())
@settings(max_examples=60, deadline=None)
def test_simple_interleaving_gives_the_balanced_report(data, groups, randomized):
    lengths = data.draw(st.lists(st.integers(0, 25), min_size=groups, max_size=groups))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    per_group = [
        [AuditRecord(t=t, group=b, y_hat=rng.random() * (0.5 if b == groups - 1 else 1.0))
         for t in range(1, n + 1)]
        for b, n in enumerate(lengths)
    ]
    balanced = [seq[k] for k in range(max(lengths)) for seq in per_group if k < len(seq)]
    order = data.draw(st.permutations([b for b, n in enumerate(lengths) for _ in range(n)]))
    cursors = [iter(seq) for seq in per_group]
    interleaved = [next(cursors[b]) for b in order]
    config = AuditConfig(alpha=0.1, group_count=groups, randomized_final_step=randomized, seed=seed)
    assert run_stream(config, interleaved) == run_stream(config, balanced)


def _bits(game):
    """A game's state with every float as its exact bits."""
    floats = (game.lam, game.grad_acc, game.log_wealth)
    trajectory = None if game.trajectory is None else [x.hex() for x in game.trajectory]
    return [x.hex() for x in floats], trajectory


@given(
    data=st.data(),
    gs=st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), max_size=40),
    head=st.lists(st.floats(-1.0, 1.0), max_size=5),
    lo=st.sampled_from([0.0, -0.5]),
    bar=st.sampled_from(["mid", "last", "never"]),
    keep=st.booleans(),
)
@example(data=None, gs=[], head=[], lo=-0.5, bar="never", keep=True)
# Runs that hold the bet at each end of its interval: at 1/2, and at lo.
@example(data=None, gs=[0.5, 0.5, 0.0, 0.5], head=[], lo=-0.5, bar="never", keep=True)
@example(data=None, gs=[-0.5, -0.5, 0.0, -0.5], head=[], lo=-0.5, bar="never", keep=True)
@example(data=None, gs=[-0.5, -0.5, 0.0, -0.5], head=[], lo=0.0, bar="never", keep=False)
@settings(max_examples=150, deadline=None)
def test_advance_is_a_loop_of_apply(data, gs, head, lo, bar, keep):
    """``advance`` applies arguments as a loop of ``apply`` calls that stops
    after the first one bringing log wealth to the bar, bit for bit."""
    probe = _Game("probe", lo, True)
    for g in head + gs:
        probe.apply(g)
    path = probe.trajectory[len(head):]
    log_bar = math.inf
    if path and bar != "never":
        log_bar = path[-1] if bar == "last" else path[data.draw(st.integers(0, len(path) - 1))]
    loop, block = _Game("loop", lo, keep), _Game("block", lo, keep)
    for g in head:
        loop.apply(g)
        block.apply(g)
    applied = 0
    for g in gs:
        loop.apply(g)
        applied += 1
        if loop.log_wealth >= log_bar:
            break
    assert block.advance(gs, log_bar) == applied
    assert _bits(block) == _bits(loop)


def _records(y):
    return [
        AuditRecord(t=t, group=b, y_hat=v)
        for t, row in enumerate(y.tolist(), 1)
        for b, v in enumerate(row)
    ]


def _later_game_first():
    """Four groups whose widest gap is on the last adjacent pair."""
    y = (np.random.default_rng(5).random((400, 4)) < [0.8, 0.5, 0.5, 0.1]).astype(float)
    config = AuditConfig(alpha=0.05, group_count=4)
    return config, y, block(config, y)


def _tied_games():
    """Three groups whose two games see the same arguments, exactly."""
    gen = np.random.default_rng(6)
    d = gen.choice([-0.25, 0.0, 0.25, 0.5], size=(400, 1), p=[0.2, 0.2, 0.3, 0.3])
    y = 0.5 + np.hstack([d, np.zeros_like(d), -d])
    config = AuditConfig(alpha=0.05, group_count=3)
    return config, y, block(config, y)


def _composite_lower():
    """Composite, one-sided games (bet bound 0) where only the lower one crosses."""
    y = (np.random.default_rng(7).random((400, 2)) < [0.2, 0.8]).astype(float)
    config = AuditConfig(alpha=0.05, strategy=Composite(epsilon=0.05))
    return config, y, block(config, y)


@pytest.mark.parametrize(
    "case, rejecting",
    [
        (_later_game_first, [False, False, True]),
        (_tied_games, [True, True]),
        (_composite_lower, [False, True]),
    ],
)
@given(cuts=st.lists(st.integers(0, 400), max_size=8), keep=st.booleans())
@settings(max_examples=25, deadline=None)
def test_run_args_settles_a_rejection_inside_a_block(case, rejecting, cuts, keep):
    """Argument rows cut into blocks at any points, one-row blocks too, give
    ``run_stream``'s report on the records, per-game taus and trajectories
    included, whichever game reaches the threshold first."""
    config, y, args = case()
    reference = run_stream(config, _records(y), record_trajectory=keep)
    tau = reference.decision.tau
    assert reference.decision.kind is DecisionKind.REJECT
    assert [g.tau == tau for g in reference.per_game] == rejecting
    edges = [0, *sorted(cuts), len(args)]
    blocks = [args[a:b] for a, b in zip(edges, edges[1:])]
    assert run_args(config, blocks, record_trajectory=keep) == reference
    assert run_args(config, list(args[:, None]), record_trajectory=keep) == reference


_UNIT = st.floats(min_value=0.0, max_value=1.0)
_BIT_CASES = {
    "simple-2": lambda d: AuditConfig(alpha=0.05),
    "simple-4": lambda d: AuditConfig(alpha=0.05, group_count=4),
    "composite": lambda d: AuditConfig(alpha=0.05, strategy=Composite(epsilon=d.draw(st.floats(0.01, 0.99)))),
    # The heaviest weight is 4, so a scale of delta_min / 8 takes it exactly at the bound.
    "propensity": lambda d: AuditConfig(alpha=0.05, strategy=Propensity(scale=0.125)),
    "estimated-density": lambda d: _estimated_config(d.draw(st.floats(0.1, 1.0)), d.draw(st.floats(0.0, 2.0))),
}


def _estimated_config(delta_min, spread):
    strategy = EstimatedDensity(delta_min=delta_min, delta_max=delta_min + spread, scale=delta_min / 8.0)
    return AuditConfig(alpha=0.05, strategy=strategy)


@pytest.mark.parametrize("case", _BIT_CASES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_block_args_rows_are_the_record_steps_bits(case, data):
    """Each row of the array path's arguments holds the bits the strategy's
    step gives that step's records.  Weights are drawn up to the heaviest
    the scale takes, which one record carries exactly: scale * 4 ==
    delta_min / 2, where both arrival checks still let it through."""
    config = _BIT_CASES[case](data)
    session = session_new(config)
    groups, weight, strategy = config.group_count, session.row.weight, config.strategy
    y = data.draw(st.lists(st.lists(_UNIT, min_size=groups, max_size=groups), min_size=1, max_size=8))
    fields, w = {}, None
    if weight is not None:
        propensity = data.draw(st.lists(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
                                        min_size=len(y), max_size=len(y)))
        share = data.draw(st.lists(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
                                   min_size=len(y), max_size=len(y)))
        heaviest = data.draw(st.tuples(st.integers(0, len(y) - 1), st.integers(0, 1)))
        share[heaviest[0]][heaviest[1]] = 1.0
        fields = {"propensity": np.array(propensity), weight: 4.0 * np.array(share) * propensity}
        assert strategy.scale * 4.0 == strategy.delta_min / 2.0
        w = fields[weight] / fields["propensity"]
        assert not refused_weights(w, strategy.scale, strategy.delta_min).any()
    args = block_args(session, np.array(y), w)
    for k, row in enumerate(y):
        point = {name: col[k].tolist() for name, col in fields.items()}  # group b's value at index b
        records = [AuditRecord(k + 1, b, v, **{name: vs[b] for name, vs in point.items()}) for b, v in enumerate(row)]
        step_args = session.row.step(session, queued(session, records))
        assert [g.hex() for g in args[k].tolist()] == [g.hex() for g in step_args]


# Audits whose arrival checks "refusal is removal" covers.  Each weighted
# one takes weights up to 4: scale * 4 == delta_min / 2.
_REFUSAL_CASES = {
    "simple-2": AuditConfig(alpha=1e-6),
    "simple-3": AuditConfig(alpha=1e-6, group_count=3),
    "composite": AuditConfig(alpha=1e-6, strategy=Composite(epsilon=0.05)),
    "propensity": AuditConfig(alpha=1e-6, strategy=Propensity(scale=0.125)),
    "estimated-density": AuditConfig(alpha=1e-6, strategy=EstimatedDensity(0.5, 2.0, scale=0.0625)),
}
_ARRIVALS = st.tuples(
    st.sampled_from([None, None, None, "group", "missing", "heavy"]),  # the record's fault
    st.integers(0, 2), _UNIT, st.floats(0.05, 1.0), st.floats(0.01, 1.0),  # group, y_hat, propensity, share
)


@pytest.mark.parametrize("case", _REFUSAL_CASES)
@given(arrivals=st.lists(_ARRIVALS, max_size=40))
@settings(max_examples=60, deadline=None)
def test_refusal_is_removal(case, arrivals):
    """A session fed records one at a time, each refusal caught, ends as a
    session fed only the records it accepted: every game's state and
    trajectory bit for bit, the step count and the queued values.  It
    refuses exactly the faulty records: a group out of range, and under a
    weighted strategy a record without its weight field or with a weight
    above the heaviest its scale takes.  The threshold is out of reach, so
    no decision ends the stream early."""
    config = _REFUSAL_CASES[case]
    groups, weight = config.group_count, session_new(config).row.weight
    field = weight or "density"  # an unweighted audit ignores it
    records, faulty = [], []
    for t, (fault, g, y, p, share) in enumerate(arrivals, 1):
        fields = {} if fault == "missing" else {"propensity": p, field: 4.0 * share * p}
        if fault == "heavy":
            fields[field] = 4.0 * (1.0 + share) * p
        records.append(AuditRecord(t, groups + g if fault == "group" else g % groups, y, **fields))
        faulty.append(fault == "group" or fault is not None and weight is not None)
    fed, accepted, refused = session_new(config), session_new(config), []
    for record in records:
        try:
            session_step(fed, record)
        except (ValidationError, InvariantError):
            refused.append(True)
        else:
            refused.append(False)
            session_step(accepted, record)
    assert refused == faulty
    for session in (fed, accepted):
        assert session.status.kind is DecisionKind.CONTINUE
    assert [_bits(g) for g in fed.games] == [_bits(g) for g in accepted.games]
    assert fed.steps == accepted.steps
    assert [list(q) for q in fed.waiting] == [list(q) for q in accepted.waiting]


def test_run_stream_steps_through_the_module_globals(monkeypatch):
    """run_stream calls session_step, and the batched step calls batch_push,
    through the engine's globals, once per record on a paired audit and on
    a batched one.  A wrapper installed there, as the benchmark's
    tracer installs one, sees every call on both branches."""
    from seqaudit import engine

    calls = {}

    def count(name):
        original = getattr(engine, name)

        def counting(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(engine, name, counting)

    count("session_step")
    count("batch_push")
    records = _burst_records([(0, 30), (1, 20), (0, 5), (1, 1)], seed=3, shrink=1.0)
    paired = run_stream(AuditConfig(alpha=1e-9), records, record_trajectory=False)
    assert paired.decision.kind is DecisionKind.CONTINUE
    assert calls == {"session_step": len(records)}
    calls.clear()
    batched = run_stream(AuditConfig(alpha=1e-9, strategy=Batched()), records, record_trajectory=False)
    assert batched.decision.kind is DecisionKind.CONTINUE
    assert calls == {"session_step": len(records), "batch_push": len(records)}


def test_benchmark_tracer_patches_the_names_it_wraps(monkeypatch):
    """The benchmark's tracer wraps the engine's payoff helpers and step and
    the scenario draw by name; a rename would break its traced run."""
    from seqaudit import engine, simulate

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    names = [
        (engine, "payoff_propensity"), (engine, "propensity_context"),
        (engine, "session_step"), (simulate, "draw_records"),
    ]
    originals = [getattr(module, name) for module, name in names]
    with tracer.installed(tracer.Tracer()):
        for (module, name), original in zip(names, originals):
            assert getattr(module, name) is not original, name
    assert [getattr(module, name) for module, name in names] == originals


def test_benchmark_traced_probe_calls_every_layer_it_folds(monkeypatch, tmp_path):
    """perfbench's traced run takes the rate of a layer its job never calls
    from the golden probe commands, so those commands must call every layer
    the tracer folds; a layer that stopped being called breaks the run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    t = tracer.Tracer()
    with tracer.installed(t), t.span("probe"):
        worker.run_commands(workloads.probe_commands(Path(__file__).parent / "golden", tmp_path), tmp_path)
    figures = tracer.layer_figures(t.spans)
    for name, (_, count, _) in worker.LAYER_RATES.items():
        assert figures.get(count), (name, count)
    worker.layer_metrics({}, figures)
