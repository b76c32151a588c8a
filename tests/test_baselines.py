"""Permutation test exact-enumeration cases and the batch protocols."""
import numpy as np
import pytest

from seqaudit import baselines
from seqaudit.baselines import (
    BatchProtocol,
    PermutationTestConfig,
    PValueSequence,
    permutation_pvalue,
    run_protocol,
    walk_protocol,
)
from seqaudit.core import AuditRecord, ValidationError

from conftest import bernoulli_pair_stream


CFG = PermutationTestConfig(n_permutations=500, alpha=0.05, seed=0)


def test_exhaustive_singletons():
    # two arrangements, both with |diff| = 1
    assert permutation_pvalue([1.0], [0.0], CFG) == 1.0


def test_identical_multisets_give_p_one():
    assert permutation_pvalue([0.3, 0.7, 0.5], [0.5, 0.3, 0.7], CFG) == 1.0


def test_exhaustive_two_by_two():
    # C(4, 2) = 6 assignments; only the original and its mirror reach |diff| = 1
    assert permutation_pvalue([1.0, 1.0], [0.0, 0.0], CFG) == pytest.approx(3 / 7)


def test_empty_sample_rejected():
    with pytest.raises(ValidationError):
        permutation_pvalue([], [1.0], CFG)


def test_random_mode_close_to_exhaustive():
    rng = np.random.default_rng(5)
    s0 = rng.random(8)
    s1 = rng.random(8) * 0.5
    exhaustive = permutation_pvalue(s0, s1, PermutationTestConfig(n_permutations=13_000, seed=1))
    sampled = permutation_pvalue(s0, s1, PermutationTestConfig(n_permutations=4000, seed=2))
    assert sampled == pytest.approx(exhaustive, abs=0.05)


def test_permutation_validity_under_exchangeability():
    """Exact exhaustive enumeration with the +1 correction keeps the level."""
    rng = np.random.default_rng(11)
    alpha = 0.1
    rejections = 0
    n_sim = 400
    for _ in range(n_sim):
        pooled = rng.binomial(1, 0.5, 10).astype(float)
        p = permutation_pvalue(pooled[:5], pooled[5:], PermutationTestConfig(n_permutations=300, seed=3))
        rejections += p <= alpha
    assert rejections / n_sim <= alpha + 2 * np.sqrt(alpha * (1 - alpha) / n_sim)


def test_determinism_fixed_seed():
    rng = np.random.default_rng(8)
    s0 = rng.random(30)
    s1 = rng.random(30)
    cfg = PermutationTestConfig(n_permutations=200, seed=9)
    assert permutation_pvalue(s0, s1, cfg) == permutation_pvalue(s0, s1, cfg)


def test_protocol_levels():
    m1 = BatchProtocol(kind="m1", batch_size=10, alpha=0.05)
    assert [m1.level(j) for j in (1, 2, 3)] == [0.05, 0.05, 0.05]
    m2 = BatchProtocol(kind="m2", batch_size=10, alpha=0.05)
    assert [m2.level(j) for j in (1, 2, 3, 4)] == [0.025, 0.0125, 0.00625, 0.003125]


def test_protocol_validation():
    with pytest.raises(ValidationError):
        BatchProtocol(kind="m3", batch_size=10, alpha=0.05)
    with pytest.raises(ValidationError):
        BatchProtocol(kind="m1", batch_size=1, alpha=0.05)


def test_protocol_tau_is_batch_boundary():
    stream = bernoulli_pair_stream(1.0, 0.0, 200, seed=1)  # maximal separation
    protocol = BatchProtocol(kind="m2", batch_size=20, alpha=0.05)
    cfg = PermutationTestConfig(n_permutations=2000, seed=4)
    rejected, tau = run_protocol(protocol, stream, cfg, horizon=400)
    assert rejected and tau == 20  # first batch: 10 ones vs 10 zeros


def test_protocol_skips_single_group_batches_without_spending_level():
    """A batch missing one group is skipped; the next tested batch still runs
    at the first significance increment.  With alpha = 0.1, the all-ones vs
    all-zeros batch of 8 records has exhaustive p = 3/71 ~ 0.042, which only
    rejects at level alpha/2 = 0.05, not alpha/4."""
    records = [AuditRecord(t=t, group=0, y_hat=0.5) for t in range(1, 9)]
    for t in range(9, 13):
        records.append(AuditRecord(t=t, group=0, y_hat=1.0))
        records.append(AuditRecord(t=t + 10, group=1, y_hat=0.0))
    protocol = BatchProtocol(kind="m2", batch_size=8, alpha=0.1)
    cfg = PermutationTestConfig(n_permutations=500, seed=5)
    rejected, tau = run_protocol(protocol, records, cfg, horizon=16)
    assert rejected and tau == 16


def test_m1_inflates_with_more_batches():
    """Directional: repeated uncorrected testing accumulates false positives
    while the corrected protocol stays near the base level."""
    alpha = 0.1
    k = 20
    m1 = BatchProtocol(kind="m1", batch_size=k, alpha=alpha)
    m2 = BatchProtocol(kind="m2", batch_size=k, alpha=alpha)
    reps = 120
    hits_m1_short, hits_m1_long, hits_m2_long = 0, 0, 0
    for i in range(reps):
        stream = bernoulli_pair_stream(0.5, 0.5, 300, seed=1000 + i)
        cfg = PermutationTestConfig(n_permutations=150, seed=2000 + i)
        hits_m1_short += run_protocol(m1, stream, cfg, horizon=5 * k)[0]
        hits_m1_long += run_protocol(m1, stream, cfg, horizon=30 * k)[0]
        hits_m2_long += run_protocol(m2, stream, cfg, horizon=30 * k)[0]
    assert hits_m1_long > hits_m1_short
    assert hits_m1_long / reps > alpha
    assert hits_m2_long / reps <= alpha + 2 * np.sqrt(alpha * (1 - alpha) / reps)


def test_protocol_no_rejection_returns_none():
    stream = bernoulli_pair_stream(0.5, 0.5, 50, seed=3)
    protocol = BatchProtocol(kind="m2", batch_size=10, alpha=0.01)
    rejected, tau = run_protocol(protocol, stream, PermutationTestConfig(seed=6), horizon=100)
    assert not rejected and tau is None


def test_run_protocol_reads_at_most_horizon_records():
    horizon = 60
    records = bernoulli_pair_stream(0.5, 0.5, horizon, seed=2)

    def stream():
        yield from records[:horizon]
        raise AssertionError("read past the horizon")

    protocol = BatchProtocol(kind="m1", batch_size=20, alpha=0.05)
    cfg = PermutationTestConfig(n_permutations=100, seed=3)
    assert run_protocol(protocol, stream(), cfg, horizon) == run_protocol(protocol, records, cfg, horizon)


def _protocol_by_hand(protocol, records, cfg, horizon):
    """The batch rules written out as a loop over records: the reference
    the p-value sequence is checked against."""
    records = records[:horizon]
    k = protocol.batch_size
    tested = 0
    for start in range(0, (len(records) // k) * k, k):
        batch = records[start : start + k]
        y0 = [r.y_hat for r in batch if r.group == 0]
        y1 = [r.y_hat for r in batch if r.group == 1]
        if not y0 or not y1:
            continue
        tested += 1
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, tested]))
        if permutation_pvalue(y0, y1, cfg, rng=rng) <= protocol.level(tested):
            return True, start + k
    return False, None


def _shuffled_three_group_stream(n, seed):
    """Groups 0, 1 and 2 in random order, with runs long enough that some
    batches miss a group; group 0 scores higher."""
    gen = np.random.default_rng(seed)
    groups = np.repeat(gen.integers(0, 3, n // 4), 4)[:n]
    return [
        AuditRecord(t=t, group=int(g), y_hat=float(gen.random() < (0.8 if g == 0 else 0.4)))
        for t, g in enumerate(groups, start=1)
    ]


@pytest.mark.parametrize("k", [2, 5, 6, 9, 24])
def test_run_protocol_matches_by_hand_loop(k):
    """Odd and even batch sizes, the exhaustive branch (k <= 6 with 100
    permutations), skipped single-group batches, a third group, horizons
    past and short of the stream."""
    cfg = PermutationTestConfig(n_permutations=100, seed=7)
    for seed in range(6):
        records = _shuffled_three_group_stream(240, seed)
        for kind, alpha, horizon in [("m1", 0.05, 240), ("m2", 0.1, 240), ("m2", 0.3, 500), ("m1", 0.01, 97)]:
            protocol = BatchProtocol(kind=kind, batch_size=k, alpha=alpha)
            assert run_protocol(protocol, records, cfg, horizon) == _protocol_by_hand(
                protocol, records, cfg, horizon
            )


def test_pvalue_sequence_is_lazy_and_computed_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return permutation_pvalue(*args, **kwargs)

    monkeypatch.setattr(baselines, "permutation_pvalue", counting)
    records = bernoulli_pair_stream(0.5, 0.5, 100, seed=4)
    y = np.array([r.y_hat for r in records])
    group = np.array([r.group for r in records])
    seq = PValueSequence(y, group, 20, PermutationTestConfig(n_permutations=50, seed=1))
    first = next(iter(seq))
    assert len(calls) == 1
    items = list(seq)
    assert items[0] == first and len(items) == 10 and len(calls) == 10
    assert [consumed for _, consumed in items] == list(range(20, 201, 20))
    assert list(seq) == items and len(calls) == 10


def test_walk_protocol_needs_matching_batch_size():
    seq = PValueSequence(np.zeros(40), np.tile([0, 1], 20), 10, PermutationTestConfig())
    with pytest.raises(ValidationError):
        walk_protocol(BatchProtocol(kind="m1", batch_size=20, alpha=0.05), seq)


def test_pvalue_sequence_validation():
    with pytest.raises(ValidationError):
        PValueSequence(np.zeros(4), np.zeros(4), 1, PermutationTestConfig())
    with pytest.raises(ValidationError):
        PValueSequence(np.zeros(4), np.zeros(3), 2, PermutationTestConfig())
    with pytest.raises(ValidationError):
        run_protocol(BatchProtocol(kind="m1", batch_size=2, alpha=0.05), [], PermutationTestConfig(), -1)
