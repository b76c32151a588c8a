"""Online Newton Step bettor.

The bettor turns the history of payoff arguments g_1, ..., g_{t-1} into the
next bet lam_t in [-1/2, 1/2], maximizing log wealth online:

    z_i   = g_i / (1 + lam_i * g_i)
    lam_t = clamp(lam_{t-1} + c * z_{t-1} / (1 + sum_{i<=t-1} z_i^2))

with curvature constant c = 2 / (2 - ln 3) and lam_1 = 0.  The clamp interval
is always [-1/2, 1/2] intersected with the configured domain, which keeps
every per-step payoff 1 + lam * g at least 1/2 for |g| <= 1.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import ConfigurationError, ValidationError

if TYPE_CHECKING:
    import numpy as np

CURVATURE = 2.0 / (2.0 - math.log(3.0))

_DEFAULT_DOMAIN = (-0.5, 0.5)


def _ons_step(lam: float, grad_sq_sum: float, g: float, lo: float, hi: float) -> tuple[float, float]:
    """One raw update; returns (next bet, updated gradient accumulator)."""
    z = g / (1.0 + lam * g)
    grad_sq_sum += z * z
    lam = lam + CURVATURE * z / (1.0 + grad_sq_sum)
    if lam > hi:
        lam = hi
    elif lam < lo:
        lam = lo
    return lam, grad_sq_sum


def ons_bets(gs, domain: tuple[float, float] = _DEFAULT_DOMAIN) -> np.ndarray:
    """Bets placed against each element of ``gs`` (the bet at index i is
    chosen before g_i is revealed), with the arithmetic of the engine's
    per-step update.  Convenience path for simulations and oracle checks.

    The domain must be a finite interval containing 0.  It may extend past
    [-1, 1] (one-sided payoffs tolerate bets in [-1/(1-eps), 1/(1+eps)]);
    the effective clamp is its intersection with [-1/2, 1/2] regardless, so
    a wider domain never changes the bets.
    """
    import numpy as np

    lo, hi = domain
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ConfigurationError(f"bet domain must be a nonempty interval, got {domain!r}")
    if not (lo <= 0.0 <= hi):
        raise ConfigurationError(f"bet domain must contain 0, got {domain!r}")
    lo, hi = max(float(lo), -0.5), min(float(hi), 0.5)
    gs = np.asarray(gs, dtype=float)
    lam, acc = 0.0, 0.0
    out = np.empty(len(gs))
    for i, g in enumerate(gs):
        out[i] = lam
        lam, acc = _ons_step(lam, acc, g, lo, hi)
    return out


def wealth_lower_bound(s_sum: float, v_sum: float) -> float:
    """Floor for the bettor's wealth in terms of the running sum and sum of
    squares of the payoff arguments:

        (1 / V) * exp(S^2 / (4 * (V + |S|)))

    It holds only beyond the bettor's burn-in: no predictable bettor meets
    it at t = 1, where it exceeds 1 for every 0 < |g_1| <= 1.  The floor
    that holds at every step replaces ``-ln V`` by the ONS regret term
    ``ln(1 + sum z_i^2) / (2 - ln 3) + (2 - ln 3) / 16`` (README, criterion
    1).  Used in tests as an oracle on the update direction; only a
    wealth-increasing bettor tracks this floor under sustained drift.
    """
    return math.exp(log_wealth_lower_bound(s_sum, v_sum))


def log_wealth_lower_bound(s_sum: float, v_sum: float) -> float:
    """Log form of :func:`wealth_lower_bound`; safe for large sums where the
    linear value overflows."""
    if not (math.isfinite(v_sum) and v_sum > 0.0):
        raise ValidationError(f"v_sum must be positive, got {v_sum!r}")
    return -math.log(v_sum) + s_sum * s_sum / (4.0 * (v_sum + abs(s_sum)))
