"""Construction-time invariants of the domain types."""
import math

import numpy as np
import pytest

from seqaudit.core import (
    AuditConfig,
    AuditRecord,
    Batched,
    Composite,
    ConfigurationError,
    Decision,
    DecisionKind,
    EstimatedDensity,
    Propensity,
    Simple,
    ValidationError,
    wealth_from_log,
    strategy_from_dict,
    strategy_to_dict,
)


def test_record_minimal():
    rec = AuditRecord(t=1, group=0, y_hat=0.7)
    assert rec.propensity is None and rec.density is None


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t=0, group=0, y_hat=0.5),
        dict(t=1, group=-1, y_hat=0.5),
        dict(t=1, group=0, y_hat=1.3),
        dict(t=1, group=0, y_hat=-0.1),
        dict(t=1, group=0, y_hat=math.nan),
        dict(t=1, group=0, y_hat=0.5, propensity=0.0),
        dict(t=1, group=0, y_hat=0.5, propensity=-0.2),
        dict(t=1, group=0, y_hat=0.5, density=-0.5),
        dict(t=1, group=0, y_hat=0.5, density_estimate=0.0),
    ],
)
def test_record_rejects_bad_fields(kwargs):
    with pytest.raises(ValidationError):
        AuditRecord(**kwargs)


@pytest.mark.parametrize("field", ["t", "group", "y_hat", "propensity", "density", "density_estimate"])
@pytest.mark.parametrize("value", [True, False])
def test_record_refuses_a_boolean_in_any_field(field, value):
    """A boolean is an int to Python, but never a number of a record."""
    kwargs = {"t": 1, "group": 0, "y_hat": 0.5, field: value}
    with pytest.raises(ValidationError, match=f"^{field} must .*, got {value}$"):
        AuditRecord(**kwargs)


@pytest.mark.parametrize("field", ["y_hat", "propensity", "density", "density_estimate"])
def test_record_refuses_an_int_beyond_the_float_range(field):
    """No float holds 10**400, so it is refused as NaN is, never converted."""
    kwargs = {"t": 1, "group": 0, "y_hat": 0.5, field: 10**400}
    with pytest.raises(ValidationError, match=f"^{field} must .*, got {10**400}$"):
        AuditRecord(**kwargs)


def test_out_of_range_output_is_an_error_not_a_clamp():
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        AuditRecord(t=1, group=0, y_hat=1.0000001)


def _message(build) -> str:
    with pytest.raises(ValidationError) as info:
        build()
    return str(info.value)


def test_record_make_and_replace_validate_as_construction_does():
    rec = AuditRecord(t=1, group=0, y_hat=0.5)
    assert _message(lambda: rec._replace(y_hat=1.5)) == _message(
        lambda: AuditRecord(t=1, group=0, y_hat=1.5)
    ) == "y_hat must lie in [0, 1], got 1.5"
    assert _message(lambda: AuditRecord._make((0, 0, 0.5, None, None, None))) == _message(
        lambda: AuditRecord(0, 0, 0.5)
    ) == "t must be a positive integer, got 0"
    assert rec._replace(density=0.25) == AuditRecord(1, 0, 0.5, density=0.25)
    assert AuditRecord._make(rec) == rec


def test_record_is_immutable_and_compares_and_hashes_by_value():
    a = AuditRecord(t=3, group=1, y_hat=0.25, propensity=0.5, density=0.2)
    b = AuditRecord(3, 1, 0.25, 0.5, 0.2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != b._replace(t=4) and a != b._replace(density_estimate=0.1)
    with pytest.raises(AttributeError):
        a.t = 4
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, math.nan, True, 10**400, np.float32(0.25)])
def test_config_alpha_range(alpha):
    with pytest.raises(ValidationError, match=r"^alpha must lie in \(0, 1\), got "):
        AuditConfig(alpha=alpha)
    assert AuditConfig(alpha=np.float64(0.25)) == AuditConfig(alpha=0.25)


def test_config_group_count_and_seed():
    with pytest.raises(ValidationError):
        AuditConfig(alpha=0.05, group_count=1)
    with pytest.raises(ValidationError):
        AuditConfig(alpha=0.05, seed=-1)
    with pytest.raises(ValidationError):
        AuditConfig(alpha=0.05, seed=2**64)
    with pytest.raises(ValidationError):
        AuditConfig(alpha=0.05, seed=True)
    assert AuditConfig(alpha=0.05, seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("flag", ["no", 1, 0, None])
def test_config_randomized_final_step_is_a_bool(flag):
    with pytest.raises(ValidationError, match=f"^randomized_final_step must be a bool, got {flag!r}$"):
        AuditConfig(alpha=0.05, randomized_final_step=flag)
    assert AuditConfig(alpha=0.05, randomized_final_step=True).randomized_final_step is True


def test_config_strategy_must_be_known_and_simple_past_two_groups():
    with pytest.raises(ConfigurationError):
        AuditConfig(alpha=0.05, strategy=object())
    for strategy in (Batched(), Propensity(scale=0.25), Composite(epsilon=0.1)):
        with pytest.raises(ConfigurationError, match="multi-group audits pair adjacent groups"):
            AuditConfig(alpha=0.05, strategy=strategy, group_count=3)
    AuditConfig(alpha=0.05, strategy=Simple(), group_count=3)


def test_strategy_invariants():
    for epsilon in (0.0, 1.0, True, 10**400, math.nan, np.float32(0.25)):
        with pytest.raises(ValidationError, match=r"^epsilon must lie in \(0, 1\), got "):
            Composite(epsilon=epsilon)
    assert Composite(epsilon=np.float64(0.25)) == Composite(epsilon=0.25)
    with pytest.raises(ValidationError):
        EstimatedDensity(delta_min=2.0, delta_max=1.0, scale=0.1)
    with pytest.raises(ValidationError):
        EstimatedDensity(delta_min=0.0, delta_max=1.0, scale=0.1)
    with pytest.raises(ValidationError):
        Propensity(scale=0.0)
    with pytest.raises(ValidationError, match="unknown strategy kind 'ucb'"):
        strategy_from_dict({"kind": "ucb"})


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Propensity(scale=True), "scale"),
        (lambda: EstimatedDensity(delta_min=True, delta_max=1.2, scale=0.1), "delta_min"),
        (lambda: EstimatedDensity(delta_min=0.8, delta_max=True, scale=0.1), "delta_max"),
        (lambda: EstimatedDensity(delta_min=0.8, delta_max=1.2, scale=False), "scale"),
        (lambda: Propensity(scale=10**400), "scale"),
        (lambda: EstimatedDensity(delta_min=10**400, delta_max=1.2, scale=0.1), "delta_min"),
        (lambda: EstimatedDensity(delta_min=0.8, delta_max=10**400, scale=0.1), "delta_max"),
        (lambda: EstimatedDensity(delta_min=0.8, delta_max=1.2, scale=10**400), "scale"),
    ],
)
def test_weighted_strategies_refuse_booleans(build, field):
    """A boolean, or an int beyond the float range, is refused by name."""
    with pytest.raises(ValidationError, match=f"^{field} must be a positive finite real"):
        build()


@pytest.mark.parametrize(
    "d, message",
    [
        ("simple", "a strategy must be a JSON object, got str"),
        ([{"kind": "simple"}], "a strategy must be a JSON object, got list"),
        ({"scale": 0.25}, "unknown strategy kind None"),
        ({"kind": "propensity"}, "strategy 'propensity' lacks the field 'scale'"),
        ({"kind": "estimated_density", "delta_min": 0.8, "scale": 0.1},
         "strategy 'estimated_density' lacks the field 'delta_max'"),
        ({"kind": "simple", "epsilon": 0.1}, "strategy 'simple' has no field 'epsilon'"),
        ({"kind": "propensity", "scale": 0.25, "delta_min": 1.0}, "strategy 'propensity' has no field 'delta_min'"),
        ({"kind": "propensity", "scale": True}, "scale must be a positive finite real, got True"),
        ({"kind": "composite", "epsilon": False}, "epsilon must lie in (0, 1), got False"),
        ({"kind": "propensity", "scale": "0.25"}, "scale must be a positive finite real, got '0.25'"),
        ({"kind": "propensity", "scale": [0.25]}, "scale must be a positive finite real, got (0.25,)"),
        ({"kind": "propensity", "scale": 10**400}, f"scale must be a positive finite real, got {10**400}"),
    ],
)
def test_strategy_objects_are_read_strictly(d, message):
    """A strategy object is refused where a scenario object is: not an
    object, an unknown kind, an unknown key, a missing field or a value of
    the wrong type, a boolean included."""
    with pytest.raises(ValidationError) as err:
        strategy_from_dict(d)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "strategy",
    [
        Simple(),
        Propensity(scale=0.25),
        EstimatedDensity(delta_min=0.8, delta_max=1.2, scale=0.1),
        Composite(epsilon=0.1),
    ],
)
def test_strategy_dict_round_trip(strategy):
    assert strategy_from_dict(strategy_to_dict(strategy)) == strategy


def test_wealth_state_defaults_and_linear_view():
    assert wealth_from_log(0.0) == 1.0
    assert wealth_from_log(1000.0) == math.inf  # the log form stays authoritative


def test_decision_invariants():
    with pytest.raises(ValidationError):
        Decision(DecisionKind.REJECT)  # missing tau
    with pytest.raises(ValidationError):
        Decision(DecisionKind.CONTINUE, u_draw=0.5)
    with pytest.raises(ValidationError):
        Decision(DecisionKind.FINAL_RANDOMIZED_REJECT, tau=3)  # missing u_draw
    for u in (0.0, 1.0):  # U lies in the open interval
        with pytest.raises(ValidationError, match="u_draw must lie in"):
            Decision(DecisionKind.FINAL_FAIL_TO_REJECT, u_draw=u)
    d = Decision(DecisionKind.FINAL_FAIL_TO_REJECT, u_draw=0.7)
    assert not d.is_rejection and d.is_terminal

