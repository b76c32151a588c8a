"""Permutation test exact-enumeration cases and the batch protocols."""
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_m2_level_is_finite_past_1023_batches():
    m2 = BatchProtocol(kind="m2", batch_size=10, alpha=0.05)
    for j in (1024, 5000):
        assert math.isfinite(m2.level(j)) and m2.level(j) >= 0.0
    for alpha in np.random.default_rng(3).random(50):
        m2 = BatchProtocol(kind="m2", batch_size=10, alpha=float(alpha))
        assert all(m2.level(j) == alpha / 2.0**j for j in range(1, 1024))


@pytest.mark.parametrize("seed", [-1, True, 2**64])
def test_permutation_seed_must_be_a_64_bit_non_negative_integer(seed):
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        PermutationTestConfig(seed=seed)


@pytest.mark.parametrize("n", [0, True, 2.5, "100", None])
def test_permutation_count_must_be_a_positive_integer(n):
    with pytest.raises(ValidationError, match="n_permutations must be >= 1"):
        PermutationTestConfig(n_permutations=n)


@pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan, True, "x", None, 10**400, np.float32(0.25)])
def test_permutation_alpha_must_lie_in_the_open_unit_interval(alpha):
    with pytest.raises(ValidationError, match=r"^alpha must lie in \(0, 1\), got "):
        PermutationTestConfig(alpha=alpha)


def test_protocol_validation():
    with pytest.raises(ValidationError):
        BatchProtocol(kind="m3", batch_size=10, alpha=0.05)
    for alpha in (0.0, 1.0, -0.5, "0.05", True, None, 10**400, math.nan, np.float32(0.25)):
        with pytest.raises(ValidationError, match="alpha must lie in"):
            BatchProtocol(kind="m1", batch_size=10, alpha=alpha)
    for batch_size in (1, True, 10.5, "10"):
        with pytest.raises(ValidationError, match="batch_size"):
            BatchProtocol(kind="m1", batch_size=batch_size, alpha=0.05)


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
    for batch_size in (1, True, 2.5):
        with pytest.raises(ValidationError, match="batch_size"):
            PValueSequence(np.zeros(4), np.zeros(4), batch_size, PermutationTestConfig())
    with pytest.raises(ValidationError):
        PValueSequence(np.zeros(4), np.zeros(3), 2, PermutationTestConfig())
    for horizon in (-1, 2.5, "5", True):
        with pytest.raises(ValidationError, match=r"^horizon must be >= 0, got "):
            run_protocol(BatchProtocol(kind="m1", batch_size=2, alpha=0.05), [], PermutationTestConfig(), horizon)


def _pvalue_tiled(sample0, sample1, config, rng):
    """The test as first written, with a tiled copy and ``mean``: the
    reference the kernel must equal bit for bit."""
    pooled = np.concatenate([np.asarray(sample0, dtype=float), np.asarray(sample1, dtype=float)])
    n0, n = len(sample0), len(pooled)
    observed = abs(float(pooled[:n0].mean()) - float(pooled[n0:].mean()))
    threshold = observed - baselines._TIE_ATOL
    if math.comb(n, n0) <= config.n_permutations:
        hits = total = 0
        for idx in combinations(range(n), n0):
            m0 = float(pooled[list(idx)].sum()) / n0
            m1 = (float(pooled.sum()) - m0 * n0) / (n - n0)
            total += 1
            hits += abs(m0 - m1) >= threshold
        return (1 + hits) / (total + 1)
    permuted = rng.permuted(np.tile(pooled, (config.n_permutations, 1)), axis=1)
    diff = np.abs(permuted[:, :n0].mean(axis=1) - permuted[:, n0:].mean(axis=1))
    return (1 + int((diff >= threshold).sum())) / (config.n_permutations + 1)


@settings(max_examples=150, deadline=None)
@given(
    n0=st.integers(1, 40),
    n1=st.integers(1, 40),
    n_permutations=st.sampled_from([1, 5, 19, 20, 99, 200, 300]),
    binary=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_permutation_pvalue_equals_the_tiled_reference(n0, n1, n_permutations, binary, seed):
    """Float and 0/1 samples, unequal group sizes, n below and above B, both
    branches: same p-value and same generator state afterwards."""
    gen = np.random.default_rng(seed)
    pooled = gen.integers(0, 2, n0 + n1).astype(float) if binary else gen.random(n0 + n1)
    cfg = PermutationTestConfig(n_permutations=n_permutations, seed=1)
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    p = permutation_pvalue(pooled[:n0], pooled[n0:], cfg, rng=rng)
    assert p == _pvalue_tiled(pooled[:n0], pooled[n0:], cfg, rng_ref)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def _full_walk(protocol, items):
    for j, (p, consumed) in enumerate(items, start=1):
        if p <= protocol.level(j):
            return True, consumed
    return False, None


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    k=st.one_of(st.integers(2, 6), st.integers(7, 30)),
    n_permutations=st.sampled_from([1, 19, 20, 99, 199, 200]),
    gap=st.floats(0.0, 1.0),
)
def test_walk_stops_at_the_pvalue_floor(data, k, n_permutations, gap):
    """Stopping once the level falls below 1 / (B + 1) returns what the full
    walk returns, and computes exactly the batches before that point."""
    n = data.draw(st.integers(0, 12 * k))
    seed = data.draw(st.integers(0, 2**32))
    gen = np.random.default_rng(seed)
    group = gen.integers(0, 2, n)
    y = (gen.random(n) < 0.5 + gap / 2 * np.where(group == 0, 1, -1)).astype(float)
    cfg = PermutationTestConfig(n_permutations=n_permutations, seed=seed)
    floor = 1 / (n_permutations + 1)
    full = list(PValueSequence(y, group, k, cfg))
    alphas = [a for a in (floor / 2, floor, 2 * floor, 0.05, 0.9) if 0.0 < a < 1.0]
    for kind in ("m1", "m2"):
        for alpha in alphas:
            protocol = BatchProtocol(kind=kind, batch_size=k, alpha=alpha)
            calls = []

            def counting(*args, **kwargs):
                calls.append(1)
                return permutation_pvalue(*args, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(baselines, "permutation_pvalue", counting)
                result = walk_protocol(protocol, PValueSequence(y, group, k, cfg))
            assert result == _full_walk(protocol, full)
            reach = 0
            while reach < len(full) and protocol.level(reach + 1) >= floor:
                reach += 1
                if full[reach - 1][0] <= protocol.level(reach):
                    break
            assert len(calls) == reach
            if alpha < floor:
                assert calls == []


@settings(max_examples=200, deadline=None)
@given(
    n0=st.integers(1, 60),
    n1=st.integers(1, 60),
    n_permutations=st.sampled_from([1, 15, 16, 17, 19, 48, 99, 199, 200, 300, 1000]),
    shift=st.sampled_from([0.0, 0.1, 0.5]),
    seed=st.integers(0, 2**32),
    cap=st.one_of(st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
def test_capped_pvalue_is_exact_up_to_the_cap(n0, n1, n_permutations, shift, seed, cap):
    """At or below the cap, the capped test gives the exact p-value bit for
    bit; above it, a lower bound that is still above the cap, so every
    ``p <= level`` with ``level <= cap`` is decided as the exact p-value
    decides it."""
    gen = np.random.default_rng(seed)
    s0, s1 = gen.random(n0) + shift, gen.random(n1)
    cfg = PermutationTestConfig(n_permutations=n_permutations, seed=1)
    exact = permutation_pvalue(s0, s1, cfg, rng=np.random.default_rng(seed))
    capped = permutation_pvalue(s0, s1, cfg, rng=np.random.default_rng(seed), cap=cap)
    if exact <= cap:
        assert capped.hex() == exact.hex()
    else:
        assert cap < capped <= exact


def test_capped_pvalue_stops_drawing_above_the_cap():
    """Equal samples give a hit on every row: with B = 200, a cap of 0.05
    is passed by the first block of 16 rows, which is all the test draws."""
    s0 = s1 = np.linspace(0.0, 1.0, 50)
    cfg = PermutationTestConfig(n_permutations=200, seed=1)
    rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    assert permutation_pvalue(s0, s1, cfg, rng=rng, cap=0.05) == 17 / 201
    # 1 / (19 + 1) is the cap itself, so rows are drawn
    assert permutation_pvalue(s0, s1, PermutationTestConfig(n_permutations=19), cap=0.05) == 17 / 20
    rng_ref.permuted(np.broadcast_to(np.concatenate([s0, s1]), (16, 100)), axis=1, out=np.empty((16, 100)))
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_walk_protocol_refuses_an_alpha_above_the_cap():
    seq = PValueSequence(np.zeros(40), np.tile([0, 1], 20), 10, PermutationTestConfig(), cap=0.05)
    walk_protocol(BatchProtocol(kind="m1", batch_size=10, alpha=0.05), seq)
    for kind in ("m1", "m2"):
        with pytest.raises(ValidationError, match="capped"):
            walk_protocol(BatchProtocol(kind=kind, batch_size=10, alpha=0.1), seq)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    k=st.sampled_from([8, 20, 50]),
    n_permutations=st.sampled_from([19, 100, 300]),
    gap=st.floats(0.0, 0.6),
)
def test_walks_over_capped_pvalues_equal_walks_over_exact_ones(seed, k, n_permutations, gap):
    """Every protocol with alpha at most the cap stops where it stops on
    exact p-values, and tests the same batches."""
    gen = np.random.default_rng(seed)
    group = np.tile([0, 1], 150)
    y = (gen.random(300) < 0.5 + gap / 2 * np.where(group == 0, 1, -1)).astype(float)
    cfg = PermutationTestConfig(n_permutations=n_permutations, seed=seed)
    alphas = (0.01, 0.05, 0.1)
    calls = {}

    def walks(cap):
        seq = PValueSequence(y, group, k, cfg, cap=cap)
        calls[cap] = []

        def counting(*args, **kwargs):
            calls[cap].append(kwargs["cap"])
            return permutation_pvalue(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "permutation_pvalue", counting)
            return [
                walk_protocol(BatchProtocol(kind=kind, batch_size=k, alpha=alpha), seq)
                for kind in ("m1", "m2")
                for alpha in alphas
            ]

    assert walks(max(alphas)) == walks(1.0)
    assert calls[max(alphas)] == [max(alphas)] * len(calls[1.0])
