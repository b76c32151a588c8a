"""Payoff constructions: each maps incoming observations to the realized
payoff argument g of each game, which the engine turns into the positive
multiplicative wealth factor 1 + lam * g and feeds back into the bettor.

Each g is built so that its conditional mean is zero (or nonpositive)
whenever the audited group means are equal (or within tolerance), which is
what makes the wealth process a test supermartingale.
"""
from __future__ import annotations

import math

from .core import (
    AuditRecord,
    EstimatedDensity,
    InvariantError,
    Propensity,
    ValidationError,
    _check_positive,
)

# Slack for validating caller-supplied corrective scales against observed
# weights; violations beyond this are treated as real configuration bugs
# rather than float noise.
_SCALE_RTOL = 1e-9


class BatchAccumulator:
    """The outputs of the one group with a pending batch, in arrival order,
    since the last bet fired.  A bet fires at the first record of the other
    group, and that record is its group's whole batch, so no second batch
    is ever pending.  Owned by one session: :func:`batch_push` appends in
    place, so a record costs the same however long the batch is."""

    __slots__ = ("outputs", "group")

    def __init__(self):
        self.outputs: list[float] = []
        self.group = 0


def payoff_propensity(
    y0: float, y1: float, w0: float, w1: float, scale: float, delta_min: float, delta_max: float
) -> tuple[float, float]:
    """Arguments of the two games of an importance-weighted audit, with w0,
    w1 the weights of the observed points, exact or from an estimated
    density whose multiplicative error lies in [delta_min, delta_max]:

        upper = scale * (y0 * w0 / delta_max - y1 * w1 / delta_min)
        lower = scale * (y1 * w1 / delta_max - y0 * w0 / delta_min)

    Since E[y_b * w_b] / delta_max <= mu_b <= E[y_b * w_b] / delta_min,
    each argument's conditional mean is <= 0 under mu0 = mu1, so each game
    bets in [0, 1/2].  Exact weights are the bounds delta_min = delta_max = 1,
    where x / 1.0 == x makes the upper argument scale * (y0 * w0 - y1 * w1)
    bit for bit: its mean is 0 under the null, so the propensity audit plays
    one signed game on it alone.

    Pure arithmetic (+ - * / only), so float64 arrays of outputs and
    weights give each element the bits of the scalar call.  Each weight has
    passed :func:`check_weight` where its record arrived, so each argument
    lies within [-1/2, 1/2] (as delta_min <= delta_max and the outputs lie
    in [0, 1]).
    """
    a, b = y0 * w0, y1 * w1
    return scale * (a / delta_max - b / delta_min), scale * (b / delta_max - a / delta_min)


def check_weight(group: int, w: float, scale: float, delta_min: float) -> None:
    """Refuse the weight ``w`` of an observed point of group ``group`` unless
    it is positive, finite and light enough: scale * w <= delta_min / 2.  A
    scale that breaks this would break the supermartingale property, so it
    fails loudly instead of being rescaled."""
    _check_positive(f"omega_{group}", w)
    if scale * w > 0.5 * delta_min * (1.0 + _SCALE_RTOL):
        limit = "1/(2w)" if delta_min == 1.0 else "delta_min/(2w)"
        raise InvariantError(
            f"corrective scale {scale!r} exceeds {limit} at an observed point of group {group} (weight {w!r})"
        )


def check_record_weight(record: AuditRecord, field: str, strategy: Propensity | EstimatedDensity) -> None:
    """Refuse a record without its weight fields, or whose weight (``field``
    over its propensity) :func:`check_weight` refuses at the strategy's
    scale and lower error bound, with the error the payoff would raise."""
    rho, p = getattr(record, field), record.propensity
    if rho is None or p is None:
        raise missing_weight_error(record.t, record.group, field)
    w = rho / p
    if not (0.0 < w and strategy.scale * w <= 0.5 * strategy.delta_min * (1.0 + _SCALE_RTOL)):
        check_weight(record.group, w, strategy.scale, strategy.delta_min)


def batch_push(acc: BatchAccumulator, record: AuditRecord) -> bool:
    """Append the output of a record of group 0 or 1, whose group the
    session has checked, to the pending batch, in place, and return True
    when it joins the batch.  Return False, leaving the batch as it is,
    when the record belongs to the other group: then it fires."""
    if acc.outputs and record.group != acc.group:
        return False
    acc.outputs.append(record.y_hat)
    acc.group = record.group
    return True


def batch_payoff(acc: BatchAccumulator, record: AuditRecord) -> float:
    """Argument of the bet that ``record`` fires on the difference of the
    group means, group 0's minus group 1's: the pending batch's mean against
    the firing record's output, which is its group's whole batch.  The batch
    is emptied.  A record that joins the batch abstains instead, with the
    argument 0.0, whose payoff is exactly 1."""
    mean = math.fsum(acc.outputs) / len(acc.outputs)
    acc.outputs.clear()
    return mean - record.y_hat if record.group == 1 else record.y_hat - mean


def weight_from_record(record: AuditRecord, field: str) -> float:
    """Importance weight of one record: its ``field`` (``density`` or
    ``density_estimate``) over its propensity."""
    rho = getattr(record, field)
    if record.propensity is None or rho is None:
        raise missing_weight_error(record.t, record.group, field)
    return rho / record.propensity


def missing_weight_error(t: int, group: int, field: str) -> ValidationError:
    """The error of a weighted payoff fed a record without its weight fields."""
    return ValidationError(
        f"record at t={t} group={group} lacks propensity or {field} required by the weighted payoff"
    )


def propensity_context(rec0: AuditRecord, rec1: AuditRecord, field: str) -> tuple[float, float]:
    """Weights (w0, w1) of a step's two records for :func:`payoff_propensity`."""
    return weight_from_record(rec0, field), weight_from_record(rec1, field)
