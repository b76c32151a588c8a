"""Sequential test engine: drive a bettor and a payoff strategy over a record
stream, maintain the wealth process, stop the first time wealth crosses its
rejection threshold, and (optionally) apply the randomized terminal step.

A session owns one Online Newton Step game per tested hypothesis, and every
step advances each game by the payoff 1 + lam * g of its argument g.  The
strategies differ only in their row of :data:`STRATEGIES`: the games and
their bet bound, and how records (or drawn arrays) become one argument per
game.  The n games share the threshold n/alpha: 1/alpha for a plain
two-group audit, 2/alpha for the one-sided pairs of the composite and
estimated-density audits, J/alpha for the adjacent pairs (b, b+1) of J+1
groups.  Wealth is kept in log space, and one rule rejects: a game rejects
once its log wealth reaches a bar, log(n/alpha) while the stream runs (Ville's
inequality) and log(U * n/alpha) at the randomized terminal step.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import pairwise
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .betting import CURVATURE, _ons_step
from .core import (
    AuditConfig,
    AuditRecord,
    AuditReport,
    Batched,
    Composite,
    Decision,
    DecisionKind,
    EstimatedDensity,
    GameReport,
    Propensity,
    SessionStateError,
    Simple,
    ValidationError,
    group_range_error,
    wealth_from_log,
)
from .payoffs import (
    BatchAccumulator, batch_payoff, batch_push, check_record_weight, payoff_propensity, propensity_context,
)

if TYPE_CHECKING:
    import numpy as np

# Salt for the RNG substream reserved for the single terminal uniform draw,
# so that no other consumption of randomness can perturb it.
_FINAL_DRAW_SALT = 0x46494E

_CONTINUE = DecisionKind.CONTINUE


class _Game:
    """Mutable per-game state: the bet, the gradient sum, the log wealth and
    the trajectory; plain floats on slots keep stepping cheap."""

    __slots__ = ("game_id", "lam", "grad_acc", "log_wealth", "tau", "trajectory", "lo")

    def __init__(self, game_id: str, lo: float, record_trajectory: bool):
        self.game_id = game_id
        self.lam = 0.0
        self.grad_acc = 0.0
        self.log_wealth = 0.0
        self.tau: int | None = None
        self.trajectory: list[float] | None = [] if record_trajectory else None
        self.lo = lo

    def apply(self, g: float) -> None:
        """The one advance rule: wealth times 1 + lam * g, then the ONS
        update on g.  A zero argument, such as an abstention, would leave
        the wealth and the bet bit-identical, so it skips them."""
        if g != 0.0:
            self.log_wealth += math.log(1.0 + self.lam * g)
            self.lam, self.grad_acc = _ons_step(self.lam, self.grad_acc, g, self.lo, 0.5)
        if self.trajectory is not None:
            self.trajectory.append(self.log_wealth)

    def advance(self, gs: Sequence[float], log_bar: float = math.inf) -> int:
        """Apply ``gs`` in step order by the rule of :meth:`apply`, the state
        in locals and ``_ons_step`` written out with the same float operations,
        and stop after the first argument that brings the log wealth to
        ``log_bar``.  Returns how many arguments were applied."""
        lam, grad_acc, log_wealth = self.lam, self.grad_acc, self.log_wealth
        lo, trajectory = self.lo, self.trajectory
        log, c = math.log, CURVATURE
        n = 0
        for n, g in enumerate(gs, 1):
            if g != 0.0:
                d = 1.0 + lam * g
                log_wealth += log(d)
                z = g / d
                grad_acc += z * z
                lam += c * z / (1.0 + grad_acc)
                if lam > 0.5:
                    lam = 0.5
                elif lam < lo:
                    lam = lo
            if trajectory is not None:
                trajectory.append(log_wealth)
            if log_wealth >= log_bar:
                break
        self.lam, self.grad_acc, self.log_wealth = lam, grad_acc, log_wealth
        return n


@dataclass(frozen=True, slots=True)
class StrategyRow:
    """How one strategy type plays.

    ``games(config)`` gives the game ids; the games share the threshold
    len(games)/alpha.  ``lo`` is the lower bet bound: 0 for one-sided games,
    whose nulls only bound the argument's mean from above, -1/2 otherwise.
    ``step(session, records)`` maps one step's records, one per group in
    group order, to one payoff argument per game; ``columns.block_args``
    runs the same step once on a block of steps, each group's records as
    columns.  ``weight`` names the record field that, over the propensity,
    gives the weights a weighted strategy reads and checks as each record
    arrives (None for the others).  ``batched`` marks a strategy whose step
    is a single record rather than one per group: ``step`` takes that record.
    """

    games: Callable[[AuditConfig], list[str]]
    lo: float
    step: Callable[[AuditSession, Sequence[AuditRecord] | AuditRecord], Sequence[float]]
    weight: str | None = None
    batched: bool = False


@dataclass(slots=True)
class AuditSession:
    """One in-flight audit.  Not safe to share mid-update; cheap to move.

    ``status`` is the only lifecycle state: records are refused once it is
    terminal, and a terminal decision carrying ``u_draw`` is the randomized
    terminal step's.  ``steps`` counts the steps every game has taken.
    Records not yet in a step wait in ``batch`` when batched, and otherwise
    in ``waiting``, one first-in-first-out queue per group."""

    config: AuditConfig
    row: StrategyRow
    games: list[_Game]
    log_threshold: float
    status: Decision
    batch: BatchAccumulator | None = None
    waiting: list[deque[AuditRecord]] | None = None
    steps: int = 0


def _adjacent_pairs(config: AuditConfig) -> list[str]:
    return [f"{b}v{b + 1}" for b in range(config.group_count - 1)]


def _one_sided_pair(config: AuditConfig) -> list[str]:
    return ["upper", "lower"]  # mu0 - mu1 > 0 (or eps), then mu1 - mu0


# Argument functions.  They call the payoff helpers through this module's
# globals on every step, so a wrapper installed there sees each call.  The
# paired ones use only + - * / on the records' fields, so they also take
# per-group column views of a block of steps (``columns.block_args``).


def _simple_step(session: AuditSession, records) -> list[float]:
    args = []  # a loop: before Python 3.12 a comprehension builds a frame per step
    for rec0, rec1 in pairwise(records):
        args.append(rec0.y_hat - rec1.y_hat)
    return args


def _batched_step(session: AuditSession, record: AuditRecord) -> tuple[float]:
    if batch_push(session.batch, record):
        return (0.0,)
    return (batch_payoff(session.batch, record),)


def _composite_step(session: AuditSession, records) -> tuple[float, float]:
    rec0, rec1 = records
    eps = session.config.strategy.epsilon
    return rec0.y_hat - rec1.y_hat - eps, rec1.y_hat - rec0.y_hat - eps


def _weighted_step(session: AuditSession, records) -> tuple[float, ...]:
    rec0, rec1 = records
    w0, w1 = propensity_context(rec0, rec1, session.row.weight)
    s = session.config.strategy
    args = payoff_propensity(rec0.y_hat, rec1.y_hat, w0, w1, s.scale, s.delta_min, s.delta_max)
    return args[:len(session.games)]


STRATEGIES: dict[type, StrategyRow] = {
    Simple: StrategyRow(_adjacent_pairs, -0.5, _simple_step),
    Batched: StrategyRow(_adjacent_pairs, -0.5, _batched_step, batched=True),
    # One-sided games (mu0 - mu1 > eps, then mu1 - mu0 > eps): a signed bet
    # would let the mirror game's wealth grow under its own null.
    Composite: StrategyRow(_one_sided_pair, 0.0, _composite_step),
    # Propensity is the estimated-density payoff at bounds (1, 1), where the
    # upper argument's mean is 0 under the null: one signed game on it alone.
    Propensity: StrategyRow(_adjacent_pairs, -0.5, _weighted_step, weight="density"),
    # The estimate's error bounds make each side's argument mean only <= 0
    # under the null, so it plays one-sided games like composite.
    EstimatedDensity: StrategyRow(_one_sided_pair, 0.0, _weighted_step, weight="density_estimate"),
}


def session_new(config: AuditConfig, record_trajectory: bool = True) -> AuditSession:
    """Fresh session: unit wealth, zero bets, status Continue."""
    row = STRATEGIES[type(config.strategy)]
    games = [_Game(i, row.lo, record_trajectory) for i in row.games(config)]
    return AuditSession(
        config=config,
        row=row,
        games=games,
        log_threshold=math.log(len(games)) - math.log(config.alpha),
        status=Decision(DecisionKind.CONTINUE),
        batch=BatchAccumulator() if row.batched else None,
        waiting=None if row.batched else [deque() for _ in range(config.group_count)],
    )


def _reject(session: AuditSession, log_bar: float) -> int | None:
    """The one threshold rule: every game whose log wealth reaches
    ``log_bar`` rejects at the current step, which is returned as tau (None
    when no game reaches it)."""
    tau = None
    for g in session.games:
        if g.log_wealth >= log_bar:
            g.tau = tau = session.steps
    return tau


def _post_step(session: AuditSession) -> Decision:
    tau = _reject(session, session.log_threshold)
    if tau is not None:
        session.status = Decision(DecisionKind.REJECT, tau=tau)
    return session.status


def session_step(session: AuditSession, record: AuditRecord) -> tuple[AuditSession, Decision]:
    """Feed one record; return the session and the decision after it.  A
    batched session steps on every record.  Otherwise the record waits
    until every group has one; then the oldest record of each group, in
    group order, forms the step.  Until then the games stay as they are.
    Each record's group, and weight under a weighted strategy, is checked
    as it arrives: a refused record leaves the session as it was."""
    if session.status.kind is not _CONTINUE:
        raise SessionStateError("session already reached a terminal decision; records refused")
    if not isinstance(record, AuditRecord):
        raise ValidationError(f"a session takes one record at a time, got {type(record).__name__}")
    group = record.group
    if group >= session.config.group_count:
        raise group_range_error(group, session.config.group_count)
    step, waiting = record, session.waiting
    if waiting is not None:
        if session.row.weight is not None:
            check_record_weight(record, session.row.weight, session.config.strategy)
        queue = waiting[group]
        queue.append(record)
        # Only a record that found its queue empty can complete a step.
        if len(queue) > 1 or not all(waiting):
            return session, session.status
        step = list(map(deque.popleft, waiting))
    games, args = session.games, session.row.step(session, step)
    if len(games) == 1:
        games[0].apply(args[0])
    else:
        for game, g in zip(games, args):
            game.apply(g)
    session.steps += 1
    return session, _post_step(session)


def _final_rng(config: AuditConfig) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence([config.seed, _FINAL_DRAW_SALT]))


def session_finalize(session: AuditSession) -> tuple[AuditReport, Decision]:
    """Terminal randomized step: draw U once from the reserved substream and
    reject if any game's wealth reaches U * threshold.  Usable exactly once,
    and only on a session that has not already rejected."""
    if session.status.u_draw is not None:
        raise SessionStateError("the randomized terminal step can be executed at most once")
    if session.status.is_terminal:
        raise SessionStateError("cannot finalize a session that already decided")
    if not session.config.randomized_final_step:
        raise SessionStateError("randomized final step is disabled in this configuration")
    rng = _final_rng(session.config)
    u = rng.random()
    while u == 0.0:  # measure-zero guard; U must land in the open interval
        u = rng.random()
    tau = _reject(session, math.log(u) + session.log_threshold)
    if tau is not None:
        session.status = Decision(DecisionKind.FINAL_RANDOMIZED_REJECT, tau=tau, u_draw=u)
    else:
        session.status = Decision(DecisionKind.FINAL_FAIL_TO_REJECT, u_draw=u)
    return build_report(session), session.status


def build_report(session: AuditSession) -> AuditReport:
    games = session.games
    log_final = max(g.log_wealth for g in games)
    multi = len(games) > 1
    trajectory = None
    if games[0].trajectory is not None:
        # The decision statistic: each step's largest log wealth over games.
        path = map(max, zip(*(g.trajectory for g in games))) if multi else games[0].trajectory
        trajectory = list(enumerate(path, 1))
    per_game = None
    if multi:
        per_game = [
            GameReport(
                game_id=g.game_id,
                log_wealth_final=g.log_wealth,
                wealth_final=wealth_from_log(g.log_wealth),
                rejected=g.tau is not None,
                tau=g.tau,
                trajectory=None if g.trajectory is None else list(enumerate(g.trajectory, 1)),
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
    """Convenience driver: feed a record stream to a session one record at
    a time through :func:`session_step`, to rejection or stream end, and
    finalize when the randomized terminal step is enabled.  Deterministic
    given (config.seed, stream)."""
    session = session_new(config, record_trajectory=record_trajectory)
    for record in stream:
        _, decision = session_step(session, record)
        if decision.kind is not _CONTINUE:
            return build_report(session)
    return _end_of_stream(session)


def run_args(
    config: AuditConfig,
    blocks: Iterable[np.ndarray],
    record_trajectory: bool = True,
) -> AuditReport:
    """Driver over payoff arguments computed ahead: each block is a 2-D
    float array with one row per step and one column per game, such as
    ``columns.block_args`` builds from records whose weights were checked
    as they arrived.  Every game advances by the rule :func:`session_step`
    uses, the run stops at the first rejection and ends as
    :func:`run_stream` does, so both give the same report for the same
    arguments.  A block is pulled only when the steps before it ran without
    a terminal decision.

    Games never interact, so each one advances over its whole column of a
    block in one call, stopping where its wealth reaches the threshold.  The
    block's steps end at the earliest such stop: a game that ran past it
    goes back to its state before the block and advances again up to it."""
    session = session_new(config, record_trajectory=record_trajectory)
    games = session.games
    for block in blocks:
        if block.ndim != 2 or block.shape[1] != len(games):
            raise ValidationError(
                f"argument blocks need one column per game ({len(games)}), got shape {block.shape}"
            )
        saved = [(g.lam, g.grad_acc, g.log_wealth, len(g.trajectory or ())) for g in games]
        cols = block.T.tolist()
        counts = [game.advance(col, session.log_threshold) for game, col in zip(games, cols)]
        stop = min(counts)
        for game, col, count, state in zip(games, cols, counts, saved):
            if count > stop:
                game.lam, game.grad_acc, game.log_wealth, length = state
                if game.trajectory is not None:
                    del game.trajectory[length:]
                game.advance(col[:stop])
        session.steps += stop
        if _post_step(session).is_terminal:
            return build_report(session)
    return _end_of_stream(session)


def _end_of_stream(session: AuditSession) -> AuditReport:
    if session.config.randomized_final_step:
        report, _ = session_finalize(session)
        return report
    return build_report(session)
