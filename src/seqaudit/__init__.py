"""Anytime-valid sequential auditing of group fairness by betting.

A stream of model outputs labeled by group feeds a nonnegative wealth
process; the null of equal group means is rejected the moment wealth crosses
its threshold, which keeps the false positive rate below alpha
simultaneously over all data-dependent stopping times.
"""
from .betting import ons_bets, wealth_lower_bound
from .core import (
    AuditConfig,
    AuditError,
    AuditRecord,
    AuditReport,
    Batched,
    Composite,
    ConfigurationError,
    Decision,
    DecisionKind,
    EstimatedDensity,
    GameReport,
    IngestError,
    InvariantError,
    PayoffStrategy,
    Propensity,
    SessionStateError,
    Simple,
    ValidationError,
)
from .engine import AuditSession, run_stream, session_finalize, session_new, session_step

__all__ = [
    "AuditConfig",
    "AuditError",
    "AuditRecord",
    "AuditReport",
    "AuditSession",
    "Batched",
    "Composite",
    "ConfigurationError",
    "Decision",
    "DecisionKind",
    "EstimatedDensity",
    "GameReport",
    "IngestError",
    "InvariantError",
    "PayoffStrategy",
    "Propensity",
    "SessionStateError",
    "Simple",
    "ValidationError",
    "ons_bets",
    "run_stream",
    "session_finalize",
    "session_new",
    "session_step",
    "wealth_lower_bound",
]

__version__ = "0.1.0"
