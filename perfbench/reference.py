"""Independent reference for the benchmark's correctness gate.

Everything here is written from the paper's definitions, not from the
program's code: the Online Newton Step recursion with c = 2 / (2 - ln 3) and
bets clipped to [-1/2, 1/2] ([0, 1/2] for the one-sided composite games), the
payoff argument of each strategy, the batched means, first-in-first-out
pairing of records into steps, the n / alpha threshold in log space, and the
permutation protocols.  The arithmetic follows the same order as the
definitions so decisions and stopping times can be compared exactly.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

CURVATURE = 2.0 / (2.0 - math.log(3.0))


class _Game:
    __slots__ = ("lam", "acc", "log_wealth", "lo", "path", "args")

    def __init__(self, lo: float, keep_path: bool, keep_args: bool):
        self.lam = 0.0
        self.acc = 0.0
        self.log_wealth = 0.0
        self.lo = lo
        self.path = [] if keep_path else None
        self.args = [] if keep_args else None

    def bet(self, g: float) -> None:
        self.log_wealth += math.log(1.0 + self.lam * g)
        z = g / (1.0 + self.lam * g)
        self.acc += z * z
        lam = self.lam + CURVATURE * z / (1.0 + self.acc)
        self.lam = min(0.5, max(self.lo, lam))
        if self.args is not None:
            self.args.append(g)


@dataclass
class AuditResult:
    rejected: bool
    tau: int | None
    log_wealth: list[float]  # per game, at the end of the audit
    paths: list[list[float]] | None  # per game, log wealth after each step
    args: list[list[float]] | None  # per game, payoff arguments bet on
    records_in: int = 0
    steps: int = 0
    max_pending_records: int = 0
    records_unpaired: int = 0
    batch_pending_max: int = 0
    domains: list[tuple[float, float]] = field(default_factory=list)

    @property
    def log_wealth_final(self) -> float:
        return max(self.log_wealth)


def _payoff_args(strategy: dict, step: list) -> list[float]:
    kind = strategy["kind"]
    if kind == "simple":
        return [step[b].y_hat - step[b + 1].y_hat for b in range(len(step) - 1)]
    y0, y1 = step[0].y_hat, step[1].y_hat
    if kind == "composite":
        eps = float(strategy["epsilon"])
        return [y0 - y1 - eps, y1 - y0 - eps]
    if kind == "propensity":
        w0 = step[0].density / step[0].propensity
        w1 = step[1].density / step[1].propensity
        return [float(strategy["scale"]) * (y0 * w0 - y1 * w1)]
    raise ValueError(f"reference has no payoff for {kind!r}")


def audit(
    records: Iterable,
    strategy: dict,
    alpha: float,
    groups: int = 2,
    keep_paths: bool = False,
    keep_args: bool = False,
) -> AuditResult:
    """Run one audit over ``records`` (objects with ``group``, ``y_hat``,
    ``propensity`` and ``density``) and stop at the first step on which any
    game's log wealth reaches log(n_games) - log(alpha)."""
    kind = strategy["kind"]
    n_games = 2 if kind == "composite" else groups - 1
    lo = 0.0 if kind == "composite" else -0.5
    games = [_Game(lo, keep_paths, keep_args) for _ in range(n_games)]
    log_threshold = math.log(n_games) - math.log(float(alpha))
    res = AuditResult(False, None, [], None, None, domains=[(lo, 0.5)] * n_games)

    def after_step() -> bool:
        res.steps += 1
        for game in games:
            if game.path is not None:
                game.path.append(game.log_wealth)
        return any(game.log_wealth >= log_threshold for game in games)

    stopped = False
    if kind == "batched":
        # Tau counts records: every record is a step, and a bet on the
        # difference of the pending batch means fires once both are nonempty.
        game = games[0]
        pending: tuple[list, list] = ([], [])
        for rec in records:
            res.records_in += 1
            pending[rec.group].append(rec.y_hat)
            res.batch_pending_max = max(res.batch_pending_max, len(pending[rec.group]))
            if pending[0] and pending[1]:  # otherwise abstain: nothing changes
                g0 = math.fsum(pending[0]) / len(pending[0])
                g1 = math.fsum(pending[1]) / len(pending[1])
                game.bet(g0 - g1)
                pending = ([], [])
            if after_step():
                stopped = True
                break
    else:
        queues = [deque() for _ in range(groups)]
        waiting = 0
        for rec in records:
            res.records_in += 1
            queue = queues[rec.group]
            if not queue:
                waiting += 1
            queue.append(rec)
            if waiting == groups:
                step = [q.popleft() for q in queues]
                waiting = sum(1 for q in queues if q)
                for game, g in zip(games, _payoff_args(strategy, step)):
                    game.bet(g)
                if after_step():
                    stopped = True
                    break
            res.max_pending_records = max(res.max_pending_records, sum(map(len, queues)))
        res.records_unpaired = sum(map(len, queues))
    res.rejected = stopped
    res.tau = res.steps if stopped else None
    res.log_wealth = [g.log_wealth for g in games]
    if keep_paths:
        res.paths = [g.path for g in games]
    if keep_args:
        res.args = [g.args for g in games]
    return res


SUMMARY_COLUMNS = (
    "scenario", "alpha", "strategy", "fpr_or_power", "tau_mean", "tau_q10", "tau_q50", "tau_q90",
)


def summary_row(label: str, alpha: float, kind: str, results: list[AuditResult]) -> list:
    """The Monte Carlo summary row of ``seqaudit simulate`` for these
    replicates, in SUMMARY_COLUMNS order: rejection rate and stopping-time
    mean and deciles over the rejecting replicates (NaN when none rejects)."""
    taus = [r.tau for r in results if r.rejected]
    if taus:
        arr = np.asarray(taus, dtype=float)
        q10, q50, q90 = (float(q) for q in np.quantile(arr, [0.1, 0.5, 0.9]))
        mean = float(arr.mean())
    else:
        mean = q10 = q50 = q90 = math.nan
    return [label, alpha, kind, len(taus) / len(results), mean, q10, q50, q90]


_TIE_ATOL = 1e-12


def permutation_pvalue(y0: list[float], y1: list[float], n_permutations: int, rng) -> float:
    """Two-sided difference-of-means permutation p-value with the +1
    correction, over ``n_permutations`` uniformly random relabellings drawn
    by permuting each row of the pooled sample."""
    pooled = np.asarray(y0 + y1, dtype=float)
    n0 = len(y0)
    if math.comb(len(pooled), n0) <= n_permutations:
        raise ValueError("the reference covers sampled permutations only")
    observed = abs(float(pooled[:n0].mean()) - float(pooled[n0:].mean()))
    permuted = rng.permuted(np.tile(pooled, (n_permutations, 1)), axis=1)
    diffs = np.abs(permuted[:, :n0].mean(axis=1) - permuted[:, n0:].mean(axis=1))
    hits = int((diffs >= observed - _TIE_ATOL).sum())
    return (1 + hits) / (n_permutations + 1)


def protocol(
    kind: str, batch_size: int, alpha: float, records: list, n_permutations: int, seed: int,
    horizon: int,
) -> tuple[bool, int | None, int]:
    """Repeated permutation testing on consecutive batches: batch j (counting
    only batches holding both groups) is tested at alpha under "m1" and at
    alpha / 2^j under "m2".  Returns (rejected, records consumed at the
    rejection, p-values computed)."""
    records = records[:horizon]
    tested = 0
    for start in range(0, len(records) - batch_size + 1, batch_size):
        batch = records[start:start + batch_size]
        y0 = [r.y_hat for r in batch if r.group == 0]
        y1 = [r.y_hat for r in batch if r.group == 1]
        if not y0 or not y1:
            continue
        tested += 1
        rng = np.random.default_rng(np.random.SeedSequence([seed, tested]))
        level = alpha if kind == "m1" else alpha / 2.0 ** tested
        if permutation_pvalue(y0, y1, n_permutations, rng) <= level:
            return True, start + batch_size, tested
    return False, None, tested


def close(a: float, b: float, rtol: float = 1e-9) -> bool:
    """Equal within ``rtol`` relative, with NaN equal to NaN and infinities
    equal only to themselves."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)
