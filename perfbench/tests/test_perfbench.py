"""Self-tests of the benchmark: the reference agrees with the program on
random inputs, the generators are deterministic per seed, and the tracer
restores what it patches.

    python3 -m pytest -q perfbench/tests
"""
import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from seqaudit import baselines, betting, cli, engine, ingest, simulate  # noqa: E402
from seqaudit.core import AuditConfig, strategy_from_dict  # noqa: E402


def _bets(gs, lo):
    game = reference._Game(lo, keep_path=False, keep_args=False)
    out = []
    for g in gs:
        out.append(game.lam)
        game.bet(g)
    return out


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("domain", [(-0.5, 0.5), (0.0, 0.5)])
def test_reference_ons_matches_ons_bets(seed, domain):
    rng = np.random.default_rng(seed)
    gs = rng.uniform(-1.0, 1.0, size=500) + rng.choice([-0.3, 0.0, 0.3])
    gs = np.clip(gs, -1.0, 1.0)
    assert _bets(gs.tolist(), domain[0]) == betting.ons_bets(gs, domain).tolist()


def _random_records(rng, n_steps, groups, gap, weighted, order="interleaved"):
    recs = []
    t = [0] * groups
    seq = []
    if order == "interleaved":
        for _ in range(n_steps):
            seq += rng.permutation(groups).tolist()
    else:  # bursts of one group, then the other
        while len(seq) < n_steps * groups:
            length = int(rng.integers(1, 40))
            first = int(rng.integers(2))
            seq += [first] * length + [1 - first] * int(rng.integers(1, 40))
    policy = (0.1, 0.2, 0.3, 0.4)
    for g in seq:
        t[g] += 1
        x = int(rng.choice(4, p=policy))
        y = float(rng.random() < 0.5 + (gap if g == 0 else 0.0))
        if weighted:
            recs.append(wl.Rec(t[g], g, y, policy[x], 0.25))
        else:
            recs.append(wl.Rec(t[g], g, y, None, None))
    return recs


def _program(strategy, alpha, groups, recs):
    s = {k: float(v) if k != "kind" else v for k, v in strategy.items()}
    config = AuditConfig(alpha=alpha, strategy=strategy_from_dict(s), group_count=groups)
    from seqaudit.core import AuditRecord

    stream = [AuditRecord(r.t, r.group, r.y_hat, r.propensity, r.density) for r in recs]
    return engine.run_stream(config, stream, record_trajectory=True)


CASES = [
    ({"kind": "simple"}, 2, False, "interleaved"),
    ({"kind": "simple"}, 4, False, "interleaved"),
    ({"kind": "simple"}, 2, False, "bursts"),
    ({"kind": "composite", "epsilon": "0.05"}, 2, False, "interleaved"),
    ({"kind": "propensity", "scale": "0.2"}, 2, True, "interleaved"),
    ({"kind": "batched"}, 2, False, "bursts"),
    ({"kind": "batched"}, 2, False, "interleaved"),
]


@pytest.mark.parametrize("strategy,groups,weighted,order", CASES)
@pytest.mark.parametrize("seed", range(4))
def test_reference_audit_matches_run_stream(strategy, groups, weighted, order, seed):
    rng = np.random.default_rng([seed, groups])
    gap = (0.0, 0.15, 0.3, 0.45)[seed]
    recs = _random_records(rng, 400, groups, gap, weighted, order)
    report = _program(strategy, 0.05, groups, recs)
    ref = reference.audit(recs, strategy, 0.05, groups, keep_paths=True)
    assert report.decision.is_rejection == ref.rejected
    assert report.decision.tau == ref.tau
    assert reference.close(report.log_wealth_final, ref.log_wealth_final)
    games = report.per_game or []
    for game, lw, path in zip(games, ref.log_wealth, ref.paths):
        assert reference.close(game.log_wealth_final, lw)
        assert [s for s, _ in game.trajectory] == list(range(1, len(path) + 1))
        assert all(reference.close(a, b) for (_, a), b in zip(game.trajectory, path))
    if not games:
        assert [lw for _, lw in report.trajectory] == ref.paths[0]


@pytest.mark.parametrize("kind", ["m1", "m2"])
def test_reference_protocol_matches_run_protocol(kind):
    scen = simulate.FixedMeans.from_gap(0.2, horizon=300, seed=4)
    recs = simulate.generate_stream(scen)
    config = baselines.PermutationTestConfig(n_permutations=100, alpha=0.05, seed=9)
    protocol = baselines.BatchProtocol(kind=kind, batch_size=40, alpha=0.05)
    hit, tau = baselines.run_protocol(protocol, recs, config, 600)
    ref_hit, ref_tau, _ = reference.protocol(kind, 40, 0.05, recs, 100, 9, 600)
    assert (hit, tau) == (ref_hit, ref_tau)


def test_reference_summary_matches_monte_carlo():
    label, scen, strategy, alpha = wl.preset_rows("fig1", 3)[2]
    config = AuditConfig(alpha=alpha, seed=3)
    got = simulate.monte_carlo(config, scen, replicates=6)
    refs = [
        reference.audit(simulate.generate_stream(scen, seed=wl.replicate_seed(scen, i)), strategy, alpha)
        for i in range(6)
    ]
    row = dict(zip(reference.SUMMARY_COLUMNS, reference.summary_row(label, alpha, "simple", refs)))
    assert row["fpr_or_power"] == got.fpr_or_power
    for key in ("tau_mean", "tau_q10", "tau_q50", "tau_q90"):
        assert reference.close(row[key], getattr(got, key))


@pytest.mark.parametrize("workload", ["audit-stream", "audit-async"])
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for d in (a, b, c):
        d.mkdir()
    recs_a, props_a = wl.make_inputs(workload, 5, a)
    recs_b, props_b = wl.make_inputs(workload, 5, b)
    recs_c, _ = wl.make_inputs(workload, 6, c)
    assert recs_a == recs_b and props_a == props_b
    assert recs_a != recs_c
    for key in recs_a:
        assert wl.input_path(a, key).read_bytes() == wl.input_path(b, key).read_bytes()


def test_generated_files_parse_to_the_generated_records(tmp_path):
    recs, _ = wl.make_inputs("audit-async", 2, tmp_path)
    parsed = list(ingest.parse_stream(wl.input_path(tmp_path, "async")))
    assert [(r.t, r.group, r.y_hat, r.propensity, r.density) for r in parsed] == [tuple(r) for r in recs["async"]]


def test_async_bursts_are_a_fixed_multiset():
    for seed in range(3):
        seq, bursts = wl.async_groups(np.random.default_rng(seed))
        assert sorted(bursts) == sorted(wl.ASYNC_BURSTS)
        assert seq.count(0) - seq.count(1) == wl.ASYNC_TAIL


def test_preset_rows_match_the_cli_presets(tmp_path):
    for preset in wl.MC_PRESETS:
        out = tmp_path / f"{preset}.csv"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["simulate", "--preset", preset, "--replicates", "3", "--seed", "7",
                             "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        expected = wl.preset_rows(preset, 7)
        assert [r.split(",")[0] for r in rows] == [label for label, *_ in expected]
        for row, (label, scen, strategy, alpha) in zip(rows, expected):
            refs = [
                reference.audit(simulate.stream_to_iterable(scen, seed=wl.replicate_seed(scen, i)),
                                strategy, alpha)
                for i in range(3)
            ]
            want = reference.summary_row(label, alpha, strategy["kind"], refs)
            assert math.isclose(float(row.split(",")[3]), want[3])


def test_tracer_counts_and_restores(tmp_path):
    recs, _ = wl.make_inputs("audit-async", 1, tmp_path)
    before = (ingest.parse_stream, engine.session_step, engine.batch_push, simulate.draw_records,
              cli.run_stream, baselines.permutation_pvalue)
    t = tr.Tracer()
    path = wl.input_path(tmp_path, "async")
    with tr.installed(t), t.span("job"), contextlib.redirect_stdout(io.StringIO()):
        cli.main(["audit", str(path), "--strategy", "batched", "--alpha", "0.001"])
    after = (ingest.parse_stream, engine.session_step, engine.batch_push, simulate.draw_records,
             cli.run_stream, baselines.permutation_pvalue)
    assert before == after
    fig = tr.layer_figures(t.spans)
    n = len(recs["async"])
    assert fig["fold:ingest.parse:calls"] == n
    assert fig["fold:engine.step:calls"] == n
    assert fig["engine:records_pulled"] == n
    assert fig["fold:payoffs.batch_push:calls"] == n
    job = next(s for s in t.spans if s.name == "job")
    assert all(s.self_ns >= 0 for s in t.spans)
    assert sum(s.end - s.start for s in t.spans if s.parent == job.id) <= job.end - job.start


def test_stamped_blocks_cover_every_record():
    import worker

    nominal = worker.calibrate.NOMINAL_S
    probe_s = iter([nominal, nominal / 3])  # factors 1 and 3, mean 2
    stamped = worker.Stamped(list(range(10)), 2, lambda: next(probe_s))
    assert list(stamped) == list(range(10))
    assert len(stamped.samples) == 5
    assert list(stamped.rescaled()) == [x * 2 for x in stamped.samples]


def test_speed_probe_is_fixed_and_rescales_to_nominal():
    import time

    import calibrate

    probe = calibrate.Probe()
    assert probe._lines == calibrate.Probe()._lines and probe() > 0
    assert calibrate.factor([calibrate.NOMINAL_S, calibrate.NOMINAL_S / 3]) == 2.0
    sampler = calibrate.Sampler(probe)
    wall, factor, out = sampler.timed(lambda: time.sleep(0.1) or 8)
    assert out == 8 and factor > 0
    assert len(sampler._taken) >= 4  # one before, one after, the rest from the timer
    assert 0.09 < wall < 0.2  # the probes' own time is not counted


def test_benchmark_json_lists_the_metrics_run_prints():
    import json

    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOAD_NAMES)


def test_gate_rejects_a_wrong_report_trajectory_or_row():
    import run

    recs = _random_records(np.random.default_rng(1), 200, 2, 0.3, False)
    ref = reference.audit(recs, {"kind": "simple"}, 0.05, keep_paths=True)
    doc = {
        "decision": {"kind": "reject" if ref.rejected else "continue", "tau": ref.tau},
        "log_wealth_final": ref.log_wealth_final, "per_game": None,
    }
    assert run.report_matches(doc, ref)
    assert not run.report_matches({**doc, "log_wealth_final": ref.log_wealth_final * (1 + 1e-6)}, ref)
    assert not run.report_matches({**doc, "decision": {**doc["decision"], "tau": 7}}, ref)
    rows = [["step", "wealth"]] + [[str(i + 1), repr(math.exp(lw))] for i, lw in enumerate(ref.paths[0])]
    assert run.trajectory_matches(rows, ref)
    assert not run.trajectory_matches(rows[:-1], ref)
    rows[5][1] = repr(float(rows[5][1]) * 1.001)
    assert not run.trajectory_matches(rows, ref)
    assert run.row_matches(["betting", "", "0.05", "0.1", "250.5"], ["betting", "", 0.05, 0.1, 250.5])
    assert not run.row_matches(["betting", "", "0.05", "0.1", "250.6"], ["betting", "", 0.05, 0.1, 250.5])
    gate = run.Gate()
    run.check_rows(gate, [["h"], ["a", "1.0"]], [["a", 1.0], ["b", 2.0]], "x", 3)
    assert (gate.attempted, gate.failed) == (6, 3)
