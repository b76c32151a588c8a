"""Domain types shared across the auditing pipeline.

Group labels are dense small integers 0..J (callers map their grouping
conditions to labels upstream), model outputs live in [0, 1], and every
type rejects invariant-violating values at construction instead of
clamping them.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING, ClassVar, NamedTuple

if TYPE_CHECKING:
    import numpy as np


class AuditError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AuditError):
    """A value violates a domain invariant (out of range, wrong shape)."""


class ConfigurationError(AuditError):
    """A configuration object is internally inconsistent."""


class InvariantError(AuditError):
    """A runtime invariant failed, signalling an inconsistent caller input
    (e.g. a corrective scale too large for the observed weights)."""


class SessionStateError(AuditError):
    """An operation was applied to a session in a terminal state."""


class IngestError(AuditError):
    """A malformed or invalid input line; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def group_range_error(group: int, group_count: int) -> ValidationError:
    """The error of a record whose group lies outside the audit's groups."""
    return ValidationError(f"group {group} out of range for {group_count} groups")


def _is_number(value) -> bool:
    """Whether ``value`` is a float or an int within the finite float range,
    never a boolean: NaN, infinities and ints no float can hold fail.
    Checks test the exact type first, so a float skips this call."""
    return isinstance(value, (int, float)) and type(value) is not bool and abs(value) <= sys.float_info.max


def _check_unit_interval(name: str, value: float) -> None:
    if not ((type(value) is float or _is_number(value)) and 0.0 <= value <= 1.0):
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")


def _check_positive(name: str, value: float) -> None:
    if not ((type(value) is float or _is_number(value)) and 0.0 < value < math.inf):
        raise ValidationError(f"{name} must be a positive finite real, got {value!r}")


def _check_level(name: str, value: float) -> None:
    if not (_is_number(value) and 0.0 < value < 1.0):
        raise ValidationError(f"{name} must lie in (0, 1), got {value!r}")


def is_count(value, least: int) -> bool:
    """Whether ``value`` is an int of at least ``least``, and not a boolean."""
    return isinstance(value, int) and type(value) is not bool and value >= least


def check_seed(seed: int) -> None:
    """Every seed is an int in [0, 2**64), the range of one SeedSequence
    word and of the seeds ``derive_seed`` gives; a bool is not a seed."""
    if not (is_count(seed, 0) and seed < 2**64):
        raise ValidationError(f"seed must be a non-negative integer below 2**64, got {seed!r}")


def wealth_from_log(log_wealth: float) -> float:
    """Linear wealth from its log, or inf where exp would overflow; the
    log form stays authoritative."""
    return math.exp(log_wealth) if log_wealth <= 709.0 else math.inf


class _RecordFields(NamedTuple):
    t: int
    group: int
    y_hat: float
    propensity: float | None = None
    density: float | None = None
    density_estimate: float | None = None


class AuditRecord(_RecordFields):
    """One streamed observation: a model output for one group at one time,
    as a named tuple checked however it is built (``_make`` and ``_replace``
    too), equal and hashed by value.

    ``propensity`` is the sampling probability of the observed point under
    the data-collection policy; ``density`` (or ``density_estimate``) is the
    population density of the same point, so their ratio is the importance
    weight used by the weighted payoffs.
    """

    __slots__ = ()

    def __new__(cls, t, group, y_hat, propensity=None, density=None, density_estimate=None):
        if not (type(t) is int or isinstance(t, int) and type(t) is not bool) or t < 1:
            raise ValidationError(f"t must be a positive integer, got {t!r}")
        if not (type(group) is int or isinstance(group, int) and type(group) is not bool) or group < 0:
            raise ValidationError(f"group must be a nonnegative integer, got {group!r}")
        if not (type(y_hat) is float and 0.0 <= y_hat <= 1.0):  # the common case, inline
            _check_unit_interval("y_hat", y_hat)
        if propensity is not None:
            _check_positive("propensity", propensity)
        if density is not None:
            if not ((type(density) is float or _is_number(density)) and 0.0 <= density < math.inf):
                raise ValidationError(f"density must be a nonnegative finite real, got {density!r}")
        if density_estimate is not None:
            _check_positive("density_estimate", density_estimate)
        return tuple.__new__(cls, (t, group, y_hat, propensity, density, density_estimate))

    @classmethod
    def _make(cls, iterable):  # _replace builds through this too
        return cls(*iterable)


class RecordColumns(NamedTuple):
    """Records as columns, one entry per record: ``t`` and ``group`` as
    int64 arrays (each holds Python ints if one is beyond int64), the other
    fields as float64 arrays with NaN where a record lacks the field.
    ``columns.parse_columns`` builds them from lines that pass the checks of
    :class:`AuditRecord`, whole chunks at a time where it can; the range of
    ``group`` is the engine's to check, against the audit's group count."""

    t: np.ndarray
    group: np.ndarray
    y_hat: np.ndarray
    propensity: np.ndarray
    density: np.ndarray
    density_estimate: np.ndarray


@dataclass(frozen=True, slots=True)
class Simple:
    """Bet on the raw difference of the two groups' outputs."""


@dataclass(frozen=True, slots=True)
class Batched:
    """Accumulate asynchronous arrivals per group and bet on the means of
    the pending batches; abstain while either group has nothing pending.

    Its null is narrower than equal means: the argument has mean zero only
    when each group's mean is constant across its pending batch, and only
    when the arrival order does not depend on the outputs.  A flood of
    group-0 records that stops once their pending mean exceeds 1/2 (or 20
    wait) fires on a biased batch mean: it rejected a true null in 200 of
    200 replicates, where the paired strategies stay valid."""


@dataclass(frozen=True, slots=True)
class Propensity:
    """Bet on the importance-weighted difference of outputs.

    ``scale`` is the predictable corrective factor keeping the weighted
    payoff argument inside [-1, 1]; it must satisfy scale <= 1 / (2 * w)
    for every observable weight w, which is validated per record.  Exact
    weights are the estimated-density payoff at error bounds (1, 1), which
    the class constants ``delta_min`` and ``delta_max`` hold.
    """

    scale: float
    delta_min: ClassVar[float] = 1.0
    delta_max: ClassVar[float] = 1.0

    def __post_init__(self):
        _check_positive("scale", self.scale)


@dataclass(frozen=True, slots=True)
class EstimatedDensity:
    """Weighted betting with an estimated population density.

    ``delta_min`` / ``delta_max`` bound the multiplicative error of the
    density estimate from below / above; ``scale`` plays the corrective
    role and must satisfy scale <= delta_min / (2 * w_hat) at every
    observable point.
    """

    delta_min: float
    delta_max: float
    scale: float

    def __post_init__(self):
        _check_positive("delta_min", self.delta_min)
        _check_positive("delta_max", self.delta_max)
        _check_positive("scale", self.scale)
        if self.delta_min > self.delta_max:
            raise ValidationError(
                f"delta_min must not exceed delta_max, got {self.delta_min!r} > {self.delta_max!r}"
            )


@dataclass(frozen=True, slots=True)
class Composite:
    """Two one-sided games testing whether the mean gap exceeds epsilon."""

    epsilon: float

    def __post_init__(self):
        _check_level("epsilon", self.epsilon)


PayoffStrategy = Simple | Batched | Propensity | EstimatedDensity | Composite

_STRATEGY_TAGS: dict[type, str] = {
    Simple: "simple",
    Batched: "batched",
    Propensity: "propensity",
    EstimatedDensity: "estimated_density",
    Composite: "composite",
}


def strategy_tag(strategy: PayoffStrategy) -> str:
    return _STRATEGY_TAGS[type(strategy)]


def strategy_to_dict(strategy: PayoffStrategy) -> dict:
    return {"kind": strategy_tag(strategy), **{f.name: getattr(strategy, f.name) for f in fields(strategy)}}


def strategy_from_dict(d: dict) -> PayoffStrategy:
    """The strategy a JSON object describes, read as a scenario's is."""
    return _from_dict(d, _STRATEGY_TAGS, "strategy")


def _as_tuples(value):
    """A field's JSON value with lists read as tuples."""
    return tuple(map(_as_tuples, value)) if isinstance(value, list) else value


def _from_dict(d: dict, tags: dict[type, str], noun: str):
    """The object of the class that ``tags`` names by ``d["kind"]``, built
    from the other keys, lists read as tuples, a missing field taking its
    default; anything else, an unknown key or a value the class refuses
    included, raises ValidationError."""
    if not isinstance(d, dict):
        raise ValidationError(f"a {noun} must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    cls = next((c for c, tag in tags.items() if tag == kind), None)
    if cls is None:
        raise ValidationError(f"unknown {noun} kind {kind!r}")
    names = [f.name for f in fields(cls)]
    for key in d:
        if key != "kind" and key not in names:
            raise ValidationError(f"{noun} {kind!r} has no field {key!r}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in d:
            raise ValidationError(f"{noun} {kind!r} lacks the field {f.name!r}")
    try:
        return cls(**{name: _as_tuples(d[name]) for name in names if name in d})
    except TypeError as exc:
        raise ValidationError(f"{noun} {kind!r} holds a value of the wrong type: {exc}") from None


@dataclass(frozen=True, slots=True)
class AuditConfig:
    """Everything needed to run one audit session deterministically."""

    alpha: float
    strategy: PayoffStrategy = field(default_factory=Simple)
    group_count: int = 2
    randomized_final_step: bool = False
    seed: int = 0

    def __post_init__(self):
        _check_level("alpha", self.alpha)
        if not is_count(self.group_count, 2):
            raise ValidationError(f"group_count must be an integer >= 2, got {self.group_count!r}")
        if type(self.randomized_final_step) is not bool:
            raise ValidationError(f"randomized_final_step must be a bool, got {self.randomized_final_step!r}")
        if type(self.strategy) not in _STRATEGY_TAGS:
            raise ConfigurationError(f"unknown strategy {self.strategy!r}")
        if self.group_count > 2 and type(self.strategy) is not Simple:
            raise ConfigurationError(
                "multi-group audits pair adjacent groups with the simple payoff; "
                f"got group_count={self.group_count} with {type(self.strategy).__name__}"
            )
        check_seed(self.seed)


class DecisionKind(enum.Enum):
    REJECT = "reject"
    CONTINUE = "continue"
    FINAL_RANDOMIZED_REJECT = "final_randomized_reject"
    FINAL_FAIL_TO_REJECT = "final_fail_to_reject"


@dataclass(frozen=True, slots=True)
class Decision:
    kind: DecisionKind
    tau: int | None = None
    u_draw: float | None = None

    def __post_init__(self):
        if self.kind is DecisionKind.REJECT and self.tau is None:
            raise ValidationError("a rejection must carry its stopping time")
        final = self.kind in (DecisionKind.FINAL_RANDOMIZED_REJECT, DecisionKind.FINAL_FAIL_TO_REJECT)
        if final != (self.u_draw is not None):
            raise ValidationError("u_draw must be present exactly for final randomized decisions")
        if self.u_draw is not None and not (0.0 < self.u_draw < 1.0):
            raise ValidationError(f"u_draw must lie in (0, 1), got {self.u_draw!r}")

    @property
    def is_rejection(self) -> bool:
        return self.kind in (DecisionKind.REJECT, DecisionKind.FINAL_RANDOMIZED_REJECT)

    @property
    def is_terminal(self) -> bool:
        return self.kind is not DecisionKind.CONTINUE


@dataclass(frozen=True, slots=True)
class GameReport:
    """Outcome of one betting game inside a composite or multi-group audit."""

    game_id: str
    log_wealth_final: float
    wealth_final: float
    rejected: bool
    tau: int | None = None
    trajectory: list[tuple[int, float]] | None = None


@dataclass(frozen=True, slots=True)
class AuditReport:
    """Full outcome of an audit session.

    ``trajectory`` holds (step, log wealth) pairs of the decision statistic
    (the per-step maximum over games when several run), when the session
    recorded one; log wealth is the authoritative form, the linear value is
    derived.  ``per_game`` is present exactly when several games ran.  The
    report document (``ingest.report_to_dict``) leaves the trajectories out;
    ``ingest.write_trajectory_csv`` writes them.
    """

    decision: Decision
    config_echo: AuditConfig
    wealth_final: float
    log_wealth_final: float
    trajectory: list[tuple[int, float]] | None = None
    per_game: list[GameReport] | None = None
