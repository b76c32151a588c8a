"""Fixed-time permutation baseline and the two repeated-testing deployment
protocols it gets wrapped in: an uncorrected one (not a valid level-alpha
procedure, studied because it is what gets used unwittingly) and a corrected
one that tests batch j at level alpha / 2^j so the union bound caps the
overall false positive rate at alpha.

A batch's p-value depends on the stream, the batch size and the test
configuration, not on the protocol or its alpha, so one lazily computed
:class:`PValueSequence` per stream and batch size serves every protocol.
The sequence's ``cap`` is the largest alpha among those protocols: a
sampled test stops drawing permutations once its p-value is sure to exceed
``cap``, so every level it will meet, and each decision stays the one the
exact p-value gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, count, islice, takewhile
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import AuditRecord, ValidationError, _check_level, check_seed, is_count

# Ties between permuted and observed statistics must count as "at least as
# extreme"; this absorbs float summation noise in the conservative direction.
_TIE_ATOL = 1e-12


@dataclass(frozen=True, slots=True)
class PermutationTestConfig:
    """Two-sided difference-of-means permutation test parameters."""

    n_permutations: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not is_count(self.n_permutations, 1):
            raise ValidationError(f"n_permutations must be >= 1, got {self.n_permutations!r}")
        _check_level("alpha", self.alpha)
        check_seed(self.seed)


@dataclass(frozen=True, slots=True)
class BatchProtocol:
    """Repeated fixed-time testing on consecutive batches of k records.

    kind "m1" tests every batch at the base level (invalid but common);
    kind "m2" tests the j-th batch at level alpha / 2^j (valid by union
    bound)."""

    kind: str
    batch_size: int
    alpha: float

    def __post_init__(self):
        if self.kind not in ("m1", "m2"):
            raise ValidationError(f"protocol kind must be 'm1' or 'm2', got {self.kind!r}")
        if not is_count(self.batch_size, 2):
            raise ValidationError(f"each batch must be able to hold both groups, got batch_size {self.batch_size!r}")
        _check_level("alpha", self.alpha)

    def level(self, j: int) -> float:
        """Significance level of the j-th tested batch (1-based)."""
        if self.kind == "m1":
            return self.alpha
        return math.ldexp(self.alpha, -j)  # alpha / 2**j without overflow at j >= 1024


def permutation_pvalue(
    sample0: Sequence[float],
    sample1: Sequence[float],
    config: PermutationTestConfig,
    rng: np.random.Generator | None = None,
    cap: float = 1.0,
) -> float:
    """p-value of the two-sided difference-of-means permutation test with the
    finite-sample +1 correction:

        p = (1 + #{permuted |diff| >= observed |diff|}) / (B + 1)

    All label assignments are enumerated when their count fits inside
    ``n_permutations``; otherwise that many uniformly random permutations are
    drawn from the (seeded) generator, in blocks of 16, 32, 64, ... rows.

    ``cap`` is the largest level the caller will compare the result with.
    The sampled test stops after the block at which ``(1 + hits) / (B + 1)``
    exceeds ``cap`` and returns that value (Besag & Clifford 1991): hits
    only grow, so the full count would give a p-value at least as large,
    and ``p <= level`` is False for every ``level <= cap`` either way.  A
    result above ``cap`` is thus a lower bound on the p-value, and a result
    at or below it is the p-value itself.  At the default 1.0 the stop
    never fires.
    """
    s0 = np.asarray(sample0, dtype=float)
    s1 = np.asarray(sample1, dtype=float)
    if len(s0) == 0 or len(s1) == 0:
        raise ValidationError("both samples must be nonempty")
    pooled = np.concatenate([s0, s1])
    n0 = len(s0)
    n = len(pooled)
    # sum / count is the float ``mean`` gives, and matches the rows below
    observed = abs(float(pooled[:n0].sum() / n0 - pooled[n0:].sum() / (n - n0)))
    threshold = observed - _TIE_ATOL

    if math.comb(n, n0) <= config.n_permutations:
        hits = 0
        total = 0
        sum_all = float(pooled.sum())
        for idx in combinations(range(n), n0):
            m0 = float(pooled[list(idx)].sum()) / n0
            m1 = (sum_all - m0 * n0) / (n - n0)
            total += 1
            if abs(m0 - m1) >= threshold:
                hits += 1
        return (1 + hits) / (total + 1)

    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    b = config.n_permutations
    hits = 0
    drawn = 0
    m = 16  # rows of the first block; each later block doubles
    while drawn < b and (1 + hits) / (b + 1) <= cap:
        m = min(m, b - drawn)
        # out= keeps each block C-ordered: every row is shuffled and summed
        # as in one (b, n) call, so the blocks give that call's rows
        permuted = rng.permuted(np.broadcast_to(pooled, (m, n)), axis=1, out=np.empty((m, n)))
        m0 = permuted[:, :n0].sum(axis=1) / n0
        m1 = permuted[:, n0:].sum(axis=1) / (n - n0)
        hits += int((np.abs(m0 - m1) >= threshold).sum())
        drawn += m
        m *= 2
    return (1 + hits) / (b + 1)


class PValueSequence:
    """The p-values of one stream's batch tests, computed lazily and cached.

    Batches are the consecutive ``batch_size``-record slices of ``y`` (model
    outputs) and ``group`` (group ids); a trailing partial batch is dropped.
    A batch missing group 0 or group 1 is skipped; the j-th batch holding
    both (1-based) is tested with ``SeedSequence([config.seed, j])``.  Item
    j - 1 is ``(p-value, records consumed)`` for that batch.  Iterating
    computes p-values only as far as the furthest iteration has reached, so
    protocols that share the sequence compute each batch's p-value once.
    No p-value is below ``floor`` = 1 / (n_permutations + 1): the +1
    correction puts at least one count over at most n_permutations + 1.

    ``cap`` is the largest level any walker will test at, and is passed to
    :func:`permutation_pvalue`: an item's p-value is exact when it is at
    most ``cap``, and otherwise a lower bound above ``cap``, which decides
    every level up to ``cap`` as the exact p-value would.
    """

    def __init__(
        self,
        y: np.ndarray,
        group: np.ndarray,
        batch_size: int,
        config: PermutationTestConfig,
        cap: float = 1.0,
    ):
        if not is_count(batch_size, 2):
            raise ValidationError(f"each batch must be able to hold both groups, got batch_size {batch_size!r}")
        if len(y) != len(group):
            raise ValidationError(f"{len(y)} outputs but {len(group)} group ids")
        self.batch_size = batch_size
        self._y = y
        self._group = group
        self._config = config
        self.cap = cap
        self.floor = 1 / (config.n_permutations + 1)
        self._end = len(y) // batch_size * batch_size
        self._next = 0  # start of the next batch to look at
        self._items: list[tuple[float, int]] = []

    def __iter__(self) -> Iterator[tuple[float, int]]:
        j = 0
        while j < len(self._items) or self._advance():
            yield self._items[j]
            j += 1

    def _advance(self) -> bool:
        """Test the next batch holding both groups; False past the end."""
        k = self.batch_size
        while self._next < self._end:
            start = self._next
            self._next += k
            y = self._y[start : start + k]
            group = self._group[start : start + k]
            y0 = y[group == 0]
            y1 = y[group == 1]
            if not len(y0) or not len(y1):
                continue
            seed = np.random.SeedSequence([self._config.seed, len(self._items) + 1])
            rng = np.random.default_rng(seed)
            p = permutation_pvalue(y0, y1, self._config, rng=rng, cap=self.cap)
            self._items.append((p, start + k))
            return True
        return False


def walk_protocol(protocol: BatchProtocol, pvalues: PValueSequence) -> tuple[bool, int | None]:
    """Stop at the first tested batch j with p <= ``protocol.level(j)``.
    Returns (rejected, records consumed at rejection).

    The walk also stops, before computing batch j's p-value, once
    ``protocol.level(j)`` is below ``pvalues.floor``: no p-value can reach
    that level, and levels never rise, so the full walk would not reject
    either.

    Both protocols test at ``protocol.alpha`` or below, so the p-values are
    exact wherever they can decide when ``protocol.alpha <= pvalues.cap``;
    a larger alpha is refused."""
    if pvalues.batch_size != protocol.batch_size:
        raise ValidationError(
            f"p-values of batches of {pvalues.batch_size} records "
            f"for a protocol with batch_size {protocol.batch_size}"
        )
    if protocol.alpha > pvalues.cap:
        raise ValidationError(
            f"p-values capped at {pvalues.cap!r} for a protocol with alpha {protocol.alpha!r}"
        )
    levels = takewhile(lambda level: level >= pvalues.floor, map(protocol.level, count(1)))
    # zip pulls a level first, so a batch below the floor is never computed
    for level, (p, consumed) in zip(levels, pvalues):
        if p <= level:
            return True, consumed
    return False, None


def run_protocol(
    protocol: BatchProtocol,
    stream: Iterable[AuditRecord],
    test_config: PermutationTestConfig,
    horizon: int,
) -> tuple[bool, int | None]:
    """Consume at most ``horizon`` records of the stream in batches of
    ``batch_size`` records and test each batch that contains both groups;
    stop at the first rejection.  Returns (rejected, records consumed at
    rejection).

    A batch missing one group entirely is skipped without consuming a
    significance increment.  The returned stopping time is always a multiple
    of the batch size.  See :class:`PValueSequence` for the batch rules.
    """
    if not is_count(horizon, 0):
        raise ValidationError(f"horizon must be >= 0, got {horizon!r}")
    records = list(islice(stream, horizon))
    y = np.array([r.y_hat for r in records], dtype=float)
    group = np.array([r.group for r in records], dtype=np.int64)
    pvalues = PValueSequence(y, group, protocol.batch_size, test_config)
    return walk_protocol(protocol, pvalues)
