"""Sequential test engine: drive a bettor and a payoff strategy over a record
stream, maintain the wealth process, stop the first time wealth crosses its
rejection threshold, and (optionally) apply the randomized terminal step.

Orchestration modes share one mechanism: a session owns one betting game per
tested pair of groups.  A plain two-group audit is one game with threshold
1/alpha; a composite audit runs the two one-sided games in lockstep, each
with threshold 2/alpha; a (J+1)-group audit runs J games on adjacent pairs
(b, b+1), each with threshold J/alpha.  Wealth is accumulated in log space;
the threshold comparison is log K >= log(threshold).
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .betting import _ons_step
from .core import (
    AuditConfig,
    AuditRecord,
    AuditReport,
    Batched,
    BettorState,
    Composite,
    ConfigurationError,
    Decision,
    DecisionKind,
    EstimatedDensity,
    GameReport,
    Propensity,
    SessionStateError,
    Simple,
    ValidationError,
    WealthState,
    wealth_from_log,
)
from .payoffs import (
    BatchAccumulator,
    batch_payoff,
    batch_push,
    estimated_density_context,
    payoff_estimated_density,
    payoff_propensity,
    propensity_context,
)

# Salt for the RNG substream reserved for the single terminal uniform draw,
# so that no other consumption of randomness can perturb it.
_FINAL_DRAW_SALT = 0x46494E


class _Game:
    """Mutable per-game state; plain floats on slots keep stepping cheap."""

    __slots__ = (
        "game_id", "lam", "grad_acc", "log_wealth", "s_sum", "v_sum", "w_sum",
        "steps", "rejected", "tau", "trajectory", "lo", "hi",
    )

    def __init__(self, game_id: str, record_trajectory: bool):
        self.game_id = game_id
        self.lam = 0.0
        self.grad_acc = 0.0
        self.log_wealth = 0.0
        self.s_sum = 0.0
        self.v_sum = 0.0
        self.w_sum = 0.0
        self.steps = 0
        self.rejected = False
        self.tau: int | None = None
        self.trajectory: list[tuple[int, float]] | None = [] if record_trajectory else None
        self.lo = -0.5
        self.hi = 0.5

    def apply(self, payoff: float, g: float, bet_placed: bool = True) -> None:
        self.log_wealth += math.log(payoff)
        self.s_sum += g
        self.v_sum += g * g
        self.w_sum += abs(g)
        self.steps += 1
        if self.trajectory is not None:
            self.trajectory.append((self.steps, self.log_wealth))
        if bet_placed:
            self.lam, self.grad_acc = _ons_step(self.lam, self.grad_acc, g, self.lo, self.hi)

    def bettor_state(self) -> BettorState:
        return BettorState(lam=self.lam, grad_sq_sum=self.grad_acc, domain=(self.lo, self.hi))

    def wealth_state(self) -> WealthState:
        return WealthState(
            log_wealth=self.log_wealth,
            step=self.steps,
            s_sum=self.s_sum,
            v_sum=self.v_sum,
            w_sum=self.w_sum,
            trajectory=None if self.trajectory is None else list(self.trajectory),
        )


@dataclass(slots=True)
class AuditSession:
    """One in-flight audit.  Not safe to share mid-update; cheap to move."""

    config: AuditConfig
    games: list[_Game]
    log_threshold: float
    threshold: float
    status: Decision
    batch: BatchAccumulator | None = None
    finalized: bool = False
    _max_abs_g: float = 1.0

    @property
    def bettors(self) -> list[BettorState]:
        return [g.bettor_state() for g in self.games]

    @property
    def wealths(self) -> list[WealthState]:
        return [g.wealth_state() for g in self.games]


def _n_games(config: AuditConfig) -> int:
    if isinstance(config.strategy, Composite):
        return 2
    return config.group_count - 1


def session_new(config: AuditConfig, record_trajectory: bool = True) -> AuditSession:
    """Fresh session: unit wealth, zero bets, status Continue."""
    strategy = config.strategy
    if config.group_count > 2 and not isinstance(strategy, Simple):
        raise ConfigurationError(
            "multi-group audits pair adjacent groups with the simple payoff; "
            f"got group_count={config.group_count} with {type(strategy).__name__}"
        )
    n = _n_games(config)
    if isinstance(strategy, Composite):
        ids = ["upper", "lower"]  # mu0 - mu1 > eps vs mu1 - mu0 > eps
    elif n == 1:
        ids = ["0v1"]
    else:
        ids = [f"{b}v{b + 1}" for b in range(n)]
    games = [_Game(i, record_trajectory) for i in ids]
    threshold = n / config.alpha
    session = AuditSession(
        config=config,
        games=games,
        log_threshold=math.log(n) - math.log(config.alpha),
        threshold=threshold,
        status=Decision(DecisionKind.CONTINUE),
        batch=BatchAccumulator() if isinstance(strategy, Batched) else None,
    )
    if isinstance(strategy, Composite):
        # One-sided arguments live in [-1-eps, 1-eps]; payoffs stay positive
        # for bets in [-1/2, 1/2], so the bettor accepts the wider range.
        session._max_abs_g = 1.0 + strategy.epsilon
        # Each one-sided null only bounds the argument's mean from above, so
        # the conditional payoff mean stays <= 1 only for nonnegative bets;
        # a signed bet would let the mirror game's wealth grow under its own
        # null.  One-sided games therefore bet in [0, 1/2].
        for game in session.games:
            game.lo = 0.0
    return session


def _bundle_by_group(records: Sequence[AuditRecord], group_count: int) -> list[AuditRecord]:
    if len(records) != group_count:
        raise ValidationError(
            f"this strategy consumes one record per group ({group_count}), got {len(records)}"
        )
    by_group: list[AuditRecord | None] = [None] * group_count
    for rec in records:
        if rec.group >= group_count:
            raise ValidationError(f"group {rec.group} out of range for {group_count} groups")
        if by_group[rec.group] is not None:
            raise ValidationError(f"duplicate record for group {rec.group} in one step")
        by_group[rec.group] = rec
    return by_group  # type: ignore[return-value]


def _check_open(session: AuditSession) -> None:
    if session.status.is_terminal or session.finalized:
        raise SessionStateError("session already reached a terminal decision; records refused")


def _post_step(session: AuditSession) -> Decision:
    rejecting = [g for g in session.games if g.log_wealth >= session.log_threshold]
    if rejecting:
        tau = rejecting[0].steps
        for g in rejecting:
            g.rejected = True
            g.tau = g.steps
        session.status = Decision(DecisionKind.REJECT, tau=tau)
    return session.status


def session_step(
    session: AuditSession, records: Sequence[AuditRecord] | AuditRecord
) -> tuple[AuditSession, Decision]:
    """Feed one step of data: a record per group, or a single record in
    batched mode.  Returns the session and the decision after this step."""
    _check_open(session)
    config = session.config
    strategy = config.strategy

    if isinstance(strategy, Batched):
        if isinstance(records, AuditRecord):
            record = records
        elif len(records) == 1:
            record = records[0]
        else:
            raise ValidationError("batched mode consumes a single record per step")
        game = session.games[0]
        batch = session.batch
        batch_push(batch, record)
        payoff, g, session.batch = batch_payoff(batch, game.lam)
        # A bet that fires hands back a fresh accumulator.
        game.apply(payoff, g, bet_placed=session.batch is not batch)
        return session, _post_step(session)

    if isinstance(records, AuditRecord):
        raise ValidationError("this strategy consumes one record per group, got a single record")
    bundle = _bundle_by_group(records, config.group_count)

    if isinstance(strategy, Composite):
        rec0, rec1 = bundle
        q_game, r_game = session.games
        eps = strategy.epsilon
        y0, y1 = rec0.y_hat, rec1.y_hat
        g_q = y0 - y1 - eps
        g_r = y1 - y0 - eps
        bound = session._max_abs_g * (1.0 + 1e-9)
        if abs(g_q) > bound or abs(g_r) > bound:
            raise ValidationError("composite payoff argument escaped its range")
        q_game.apply(1.0 + q_game.lam * g_q, g_q)
        r_game.apply(1.0 + r_game.lam * g_r, g_r)
        return session, _post_step(session)

    if isinstance(strategy, Simple):
        for b, game in enumerate(session.games):
            g = bundle[b].y_hat - bundle[b + 1].y_hat
            game.apply(1.0 + game.lam * g, g)
        return session, _post_step(session)

    rec0, rec1 = bundle
    game = session.games[0]
    if isinstance(strategy, Propensity):
        ctx = propensity_context(rec0, rec1, strategy.scale)
        payoff, g = payoff_propensity(rec0.y_hat, rec1.y_hat, ctx, game.lam)
    elif isinstance(strategy, EstimatedDensity):
        ctx = estimated_density_context(rec0, rec1, strategy)
        payoff, g = payoff_estimated_density(rec0.y_hat, rec1.y_hat, ctx, game.lam)
    else:  # pragma: no cover - exhaustive over strategy union
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    game.apply(payoff, g)
    return session, _post_step(session)


def _final_rng(config: AuditConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([config.seed, _FINAL_DRAW_SALT]))


def session_finalize(session: AuditSession) -> tuple[AuditReport, Decision]:
    """Terminal randomized step: draw U once from the reserved substream and
    reject if any game's wealth reaches U * threshold.  Usable exactly once,
    and only on a session that has not already rejected."""
    if session.finalized:
        raise SessionStateError("the randomized terminal step can be executed at most once")
    if session.status.is_terminal:
        raise SessionStateError("cannot finalize a session that already decided")
    if not session.config.randomized_final_step:
        raise SessionStateError("randomized final step is disabled in this configuration")
    rng = _final_rng(session.config)
    u = rng.random()
    while u == 0.0:  # measure-zero guard; U must land in the open interval
        u = rng.random()
    log_u = math.log(u)
    hit = [g for g in session.games if g.log_wealth >= log_u + session.log_threshold]
    if hit:
        tau = hit[0].steps
        for g in hit:
            g.rejected = True
            g.tau = g.steps
        session.status = Decision(DecisionKind.FINAL_RANDOMIZED_REJECT, tau=tau, u_draw=u)
    else:
        session.status = Decision(DecisionKind.FINAL_FAIL_TO_REJECT, u_draw=u)
    session.finalized = True
    return build_report(session), session.status


def build_report(session: AuditSession) -> AuditReport:
    games = session.games
    log_final = max(g.log_wealth for g in games)
    multi = len(games) > 1
    trajectory = None
    if games[0].trajectory is not None:
        if multi:
            by_step: dict[int, float] = {}
            for g in games:
                for step, lw in g.trajectory:
                    if step not in by_step or lw > by_step[step]:
                        by_step[step] = lw
            trajectory = sorted(by_step.items())
        else:
            trajectory = list(games[0].trajectory)
    per_game = None
    if multi:
        per_game = [
            GameReport(
                game_id=g.game_id,
                log_wealth_final=g.log_wealth,
                wealth_final=wealth_from_log(g.log_wealth),
                rejected=g.rejected,
                tau=g.tau,
                trajectory=None if g.trajectory is None else list(g.trajectory),
            )
            for g in games
        ]
    return AuditReport(
        decision=session.status,
        config_echo=session.config,
        wealth_final=wealth_from_log(log_final),
        log_wealth_final=log_final,
        trajectory=trajectory,
        per_game=per_game,
    )


def run_stream(
    config: AuditConfig,
    stream: Iterable[AuditRecord],
    record_trajectory: bool = True,
) -> AuditReport:
    """Convenience driver: bundle a per-group-ordered record stream into
    steps, run the session to rejection or stream end, and finalize when the
    randomized terminal step is enabled.  Deterministic given (config.seed,
    stream)."""
    session = session_new(config, record_trajectory=record_trajectory)
    strategy = config.strategy
    if isinstance(strategy, Batched):
        for record in stream:
            if record.group > 1:
                raise ValidationError("batched audits cover two groups")
            _, decision = session_step(session, record)
            if decision.is_terminal:
                return build_report(session)
    else:
        # First-in-first-out per group: a step takes the oldest unpaired
        # record of every group, at constant cost whatever the backlog.
        buffers: list[deque[AuditRecord]] = [deque() for _ in range(config.group_count)]
        pending = 0
        for record in stream:
            if record.group >= config.group_count:
                raise ValidationError(
                    f"group {record.group} out of range for {config.group_count} groups"
                )
            if not buffers[record.group]:
                pending += 1
            buffers[record.group].append(record)
            if pending == config.group_count:
                bundle = [buf.popleft() for buf in buffers]
                pending = sum(1 for buf in buffers if buf)
                _, decision = session_step(session, bundle)
                if decision.is_terminal:
                    return build_report(session)
    return _end_of_stream(session)


def run_args(
    config: AuditConfig,
    blocks: Iterable[np.ndarray],
    record_trajectory: bool = True,
) -> AuditReport:
    """Driver over payoff arguments computed ahead: each block is a 2-D
    float array with one row per step and one column per game, built by the
    array forms in :mod:`payoffs`, which have already checked them.  Every
    game advances by the payoff 1 + lam * g, the run stops at the first
    rejection and ends as :func:`run_stream` does, so both give the same
    report for the same arguments.  A block is pulled only when the steps
    before it ran without a terminal decision."""
    session = session_new(config, record_trajectory=record_trajectory)
    games = session.games
    for block in blocks:
        if block.ndim != 2 or block.shape[1] != len(games):
            raise ValidationError(
                f"argument blocks need one column per game ({len(games)}), got shape {block.shape}"
            )
        for row in block.tolist():
            for game, g in zip(games, row):
                game.apply(1.0 + game.lam * g, g)
            if _post_step(session).is_terminal:
                return build_report(session)
    return _end_of_stream(session)


def _end_of_stream(session: AuditSession) -> AuditReport:
    if session.config.randomized_final_step:
        report, _ = session_finalize(session)
        return report
    return build_report(session)
