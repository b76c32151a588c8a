import os
from pathlib import Path

import numpy as np
import pytest

import seqaudit
from seqaudit.core import AuditRecord


def child_env() -> dict:
    """The environment for a child Python process.  It finds the package
    this process imported through an absolute ``PYTHONPATH`` entry (any
    inherited entries follow it, made absolute), so a relative path such as
    ``PYTHONPATH=src`` does not break when the child's working directory
    differs."""
    paths = [str(Path(seqaudit.__file__).resolve().parents[1])]
    paths += [
        os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def bernoulli_pair_stream(mu0: float, mu1: float, horizon: int, seed: int) -> list[AuditRecord]:
    """Interleaved two-group Bernoulli stream, one pair per step."""
    gen = np.random.default_rng(seed)
    out = []
    for t in range(1, horizon + 1):
        out.append(AuditRecord(t=t, group=0, y_hat=float(gen.random() < mu0)))
        out.append(AuditRecord(t=t, group=1, y_hat=float(gen.random() < mu1)))
    return out
