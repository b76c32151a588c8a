"""Payoff constructions: each maps incoming observations to the realized
payoff argument g of each game, which the engine turns into the positive
multiplicative wealth factor 1 + lam * g and feeds back into the bettor.

Each g is built so that its conditional mean is zero (or nonpositive)
whenever the audited group means are equal (or within tolerance), which is
what makes the wealth process a test supermartingale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    AuditError,
    AuditRecord,
    EstimatedDensity,
    InvariantError,
    ValidationError,
    _check_positive,
    _check_unit_interval,
)

# Slack for validating caller-supplied corrective scales against observed
# weights; violations beyond this are treated as real configuration bugs
# rather than float noise.
_SCALE_RTOL = 1e-9


@dataclass(frozen=True, slots=True)
class PropensityContext:
    """Importance weights of the two observed points plus the predictable
    corrective scale bounding the weighted payoff argument in [-1, 1]."""

    omega_0: float
    omega_1: float
    scale: float

    def __post_init__(self):
        _check_positive("omega_0", self.omega_0)
        _check_positive("omega_1", self.omega_1)
        _check_positive("scale", self.scale)


@dataclass(frozen=True, slots=True)
class EstimatedDensityContext:
    """Like :class:`PropensityContext` but with weights from an estimated
    density and the multiplicative error bounds of that estimate."""

    omega_hat_0: float
    omega_hat_1: float
    scale: float
    delta_min: float
    delta_max: float

    def __post_init__(self):
        _check_positive("omega_hat_0", self.omega_hat_0)
        _check_positive("omega_hat_1", self.omega_hat_1)
        _check_positive("scale", self.scale)
        _check_positive("delta_min", self.delta_min)
        _check_positive("delta_max", self.delta_max)
        if self.delta_min > self.delta_max:
            raise ValidationError(
                f"delta_min must not exceed delta_max, got {self.delta_min!r} > {self.delta_max!r}"
            )


class BatchAccumulator:
    """Outputs accumulated per group since the last bet fired, in arrival
    order.  Owned by one session: :func:`batch_push` appends in place, so a
    record costs the same however long the backlog is."""

    __slots__ = ("pending_0", "pending_1")

    def __init__(self):
        self.pending_0: list[float] = []
        self.pending_1: list[float] = []

    @property
    def ready(self) -> bool:
        return bool(self.pending_0) and bool(self.pending_1)


def payoff_propensity(y0: float, y1: float, ctx: PropensityContext) -> float:
    """Importance-weighted argument scale * (y0 * w0 - y1 * w1).

    The per-record check scale * w_b <= 1/2 is what keeps the argument in
    [-1, 1]; an inconsistent caller-supplied scale breaks the supermartingale
    property, so it fails loudly instead of being rescaled.
    """
    _check_unit_interval("y0", y0)
    _check_unit_interval("y1", y1)
    bound = 0.5 * (1.0 + _SCALE_RTOL)
    if ctx.scale * ctx.omega_0 > bound or ctx.scale * ctx.omega_1 > bound:
        raise InvariantError(
            f"corrective scale {ctx.scale!r} exceeds 1/(2w) at an observed point "
            f"(weights {ctx.omega_0!r}, {ctx.omega_1!r})"
        )
    g = ctx.scale * (y0 * ctx.omega_0 - y1 * ctx.omega_1)
    if abs(g) > 1.0 + _SCALE_RTOL:
        raise InvariantError(f"weighted payoff argument {g!r} escaped [-1, 1]")
    return g


def payoff_estimated_density(
    y0: float, y1: float, ctx: EstimatedDensityContext
) -> tuple[float, float]:
    """Arguments of the two one-sided games under an estimated density,
    with w0, w1 the estimated weights:

        upper = scale * (y0 * w0 / delta_max - y1 * w1 / delta_min)
        lower = scale * (y1 * w1 / delta_max - y0 * w0 / delta_min)

    Since the estimate is off by a factor in [delta_min, delta_max],
    E[y_b * w_b] / delta_max <= mu_b <= E[y_b * w_b] / delta_min, so each
    argument's conditional mean is <= 0 under mu0 = mu1, and each game bets
    in [0, 1/2].  With delta_min = delta_max = 1 and exact weights the upper
    argument is the :func:`payoff_propensity` one bit for bit.
    """
    _check_unit_interval("y0", y0)
    _check_unit_interval("y1", y1)
    bound = 0.5 * ctx.delta_min * (1.0 + _SCALE_RTOL)
    if ctx.scale * ctx.omega_hat_0 > bound or ctx.scale * ctx.omega_hat_1 > bound:
        raise InvariantError(
            f"corrective scale {ctx.scale!r} exceeds delta_min/(2w) at an observed point "
            f"(weights {ctx.omega_hat_0!r}, {ctx.omega_hat_1!r})"
        )
    a, b = y0 * ctx.omega_hat_0, y1 * ctx.omega_hat_1
    upper = ctx.scale * (a / ctx.delta_max - b / ctx.delta_min)
    lower = ctx.scale * (b / ctx.delta_max - a / ctx.delta_min)
    for g in (upper, lower):
        if abs(g) > 1.0 + _SCALE_RTOL:
            raise InvariantError(f"weighted payoff argument {g!r} escaped [-1, 1]")
    return upper, lower


def batch_push(acc: BatchAccumulator, record: AuditRecord) -> None:
    """Append a record's output to its group's pending batch, in place."""
    if record.group == 0:
        acc.pending_0.append(record.y_hat)
    elif record.group == 1:
        acc.pending_1.append(record.y_hat)
    else:
        raise ValidationError(f"batched payoffs audit two groups, got group {record.group!r}")


def batch_payoff(acc: BatchAccumulator) -> tuple[float, BatchAccumulator]:
    """Argument of a bet on the difference of the pending batch means, or
    an abstention.

    While either group's batch is empty the argument is 0.0, whose payoff is
    exactly 1 (wealth is untouched), and the accumulator is returned
    unchanged; once both are nonempty the batches are consumed and a fresh,
    empty accumulator is returned in its place.
    """
    if not acc.ready:
        return 0.0, acc
    g0 = math.fsum(acc.pending_0) / len(acc.pending_0)
    g1 = math.fsum(acc.pending_1) / len(acc.pending_1)
    return g0 - g1, BatchAccumulator()


def weight_from_record(record: AuditRecord, estimated: bool = False) -> float:
    """Importance weight of one record: (estimated) density over propensity."""
    rho = record.density_estimate if estimated else record.density
    if record.propensity is None or rho is None:
        raise missing_weight_error(record.t, record.group, estimated)
    return rho / record.propensity


def missing_weight_error(t: int, group: int, estimated: bool = False) -> ValidationError:
    """The error of a weighted payoff fed a record without its weight fields."""
    label = "density_estimate" if estimated else "density"
    return ValidationError(
        f"record at t={t} group={group} lacks propensity or {label} required by the weighted payoff"
    )


def propensity_context(rec0: AuditRecord, rec1: AuditRecord, scale: float) -> PropensityContext:
    return PropensityContext(
        omega_0=weight_from_record(rec0),
        omega_1=weight_from_record(rec1),
        scale=scale,
    )


def estimated_density_context(
    rec0: AuditRecord, rec1: AuditRecord, strategy: EstimatedDensity
) -> EstimatedDensityContext:
    return EstimatedDensityContext(
        omega_hat_0=weight_from_record(rec0, estimated=True),
        omega_hat_1=weight_from_record(rec1, estimated=True),
        scale=strategy.scale,
        delta_min=strategy.delta_min,
        delta_max=strategy.delta_max,
    )


# Array forms of the payoff arguments, for callers holding a block of steps
# at once.  ``y`` has one row per step and one column per group; the result
# has one column per game and feeds ``engine.run_args``.  Every form uses the
# float operations of the engine's scalar argument in the same order, so the
# arguments are bit-identical to the record path's.


def simple_args(y: np.ndarray) -> np.ndarray:
    """Arguments y_b - y_{b+1} of the J adjacent-pair games of J+1 groups."""
    return y[:, :-1] - y[:, 1:]


def batched_args(y: np.ndarray) -> np.ndarray:
    """Batched arguments of a stream that brings one record per group, in
    group order, at every step: the group-0 record abstains and the group-1
    record fires on two one-record batches, whose means are the outputs.
    The abstentions are the rows g = 0.0 that :func:`batch_payoff` gives."""
    out = np.zeros((2 * len(y), 1))
    out[1::2] = simple_args(y)
    return out


def composite_args(y: np.ndarray, epsilon: float) -> np.ndarray:
    """Arguments (g_q, g_r) of the upper and lower one-sided games."""
    return np.column_stack((y[:, 0] - y[:, 1] - epsilon, y[:, 1] - y[:, 0] - epsilon))


def propensity_args(
    y: np.ndarray, w: np.ndarray | None, scale: float
) -> tuple[np.ndarray, AuditError | None]:
    """Argument of :func:`payoff_propensity` for two groups with importance
    weights ``w`` (None when the records lack the weight fields).  Returns
    the rows before the first step the scalar payoff rejects, and the error
    it raises on that step (None when none does)."""

    def check(j: int) -> None:
        (y0, y1), (w0, w1) = y[j].tolist(), w[j].tolist()
        payoff_propensity(y0, y1, PropensityContext(omega_0=w0, omega_1=w1, scale=scale))

    return _weighted_args(y, w, scale, 1.0, 1.0, False, check)


def estimated_density_args(
    y: np.ndarray, w_hat: np.ndarray | None, strategy: EstimatedDensity
) -> tuple[np.ndarray, AuditError | None]:
    """Arguments (upper, lower) of :func:`payoff_estimated_density` for two
    groups with estimated weights ``w_hat``; cut and error as in
    :func:`propensity_args`."""
    scale, d_min, d_max = strategy.scale, strategy.delta_min, strategy.delta_max

    def check(j: int) -> None:
        (y0, y1), (w0, w1) = y[j].tolist(), w_hat[j].tolist()
        ctx = EstimatedDensityContext(
            omega_hat_0=w0, omega_hat_1=w1, scale=scale, delta_min=d_min, delta_max=d_max
        )
        payoff_estimated_density(y0, y1, ctx)

    return _weighted_args(y, w_hat, scale, d_min, d_max, True, check)


def _weighted_args(
    y: np.ndarray, w: np.ndarray | None, scale: float, d_min: float, d_max: float,
    estimated: bool, check: Callable[[int], None],
) -> tuple[np.ndarray, AuditError | None]:
    """The estimated-density arguments, or with d_min = d_max = 1 and only
    the upper column, the propensity one and its bound bit for bit.
    ``suspect`` flags every step the scalar payoff might reject; ``check``
    runs the scalar payoff on them in order and decides, so the error,
    message included, is the record path's.  Weights of None refuse the
    first step, as the record path refuses records without the fields."""
    games = 2 if estimated else 1
    if w is None:
        return np.empty((0, games)), missing_weight_error(1, 0, estimated)
    a, b = y[:, 0] * w[:, 0], y[:, 1] * w[:, 1]
    g = np.column_stack((scale * (a / d_max - b / d_min), scale * (b / d_max - a / d_min)))[:, :games]
    suspect = (
        ~(np.isfinite(w) & (w > 0.0)).all(axis=1)
        | (scale * w > 0.5 * d_min * (1.0 + _SCALE_RTOL)).any(axis=1)
        | (np.abs(g) > 1.0 + _SCALE_RTOL).any(axis=1)
    )
    for j in np.flatnonzero(suspect).tolist():
        try:
            check(j)
        except AuditError as exc:
            return g[:j], exc
    return g, None
