"""Exit codes, flag validation, and end-to-end determinism of the CLI."""
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from seqaudit import baselines
from seqaudit.baselines import BatchProtocol, PermutationTestConfig, run_protocol
from seqaudit.cli import main
from seqaudit.core import AuditConfig
from seqaudit.engine import run_stream
from seqaudit.simulate import FixedMeans, derive_seed, generate_stream

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "seqaudit", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_stream(path: Path, pairs):
    with path.open("w") as fh:
        for t, (y0, y1) in enumerate(pairs, start=1):
            fh.write(json.dumps({"t": t, "group": 0, "y_hat": y0}) + "\n")
            fh.write(json.dumps({"t": t, "group": 1, "y_hat": y1}) + "\n")


def test_audit_reject_exit_code(tmp_path):
    path = tmp_path / "stream.jsonl"
    write_stream(path, [(1.0, 0.0)] * 30)
    result = run_cli("audit", str(path), "--alpha", "0.05")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["decision"]["kind"] == "reject"
    assert doc["decision"]["tau"] == 9


def test_audit_continue_exit_code(tmp_path):
    path = tmp_path / "stream.jsonl"
    write_stream(path, [(0.5, 0.5)] * 50)
    result = run_cli("audit", str(path))
    assert result.returncode == 0
    assert json.loads(result.stdout)["decision"]["kind"] == "continue"


def test_audit_missing_file_is_usage_error():
    result = run_cli("audit", "/nonexistent/stream.jsonl")
    assert result.returncode == 2
    assert "error" in result.stderr.lower()


def test_audit_directory_is_usage_error(tmp_path, capsys):
    assert main(["audit", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_audit_non_utf8_input_is_usage_error(tmp_path, capsys):
    path = tmp_path / "stream.jsonl"
    path.write_bytes(b'{"t": 1, "group": 0, "y_hat": 0.5}\n\xff\xfe\n')
    assert main(["audit", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_audit_invalid_record_is_usage_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1, "group": 0, "y_hat": 2.0}\n')
    result = run_cli("audit", str(path))
    assert result.returncode == 2
    assert "line 1" in result.stderr


def test_audit_stdin_and_csv(tmp_path):
    csv_path = tmp_path / "stream.csv"
    csv_path.write_text("t,group,y_hat\n1,0,1.0\n1,1,0.0\n2,0,1.0\n2,1,0.0\n")
    result = run_cli("audit", str(csv_path), "--alpha", "0.5")
    assert result.returncode in (0, 1)
    doc = json.loads(result.stdout)
    assert doc["config"]["alpha"] == 0.5


def test_audit_composite_requires_epsilon(tmp_path):
    path = tmp_path / "stream.jsonl"
    write_stream(path, [(1.0, 0.0)] * 5)
    result = run_cli("audit", str(path), "--strategy", "composite")
    assert result.returncode == 2
    ok = run_cli("audit", str(path), "--strategy", "composite", "--epsilon", "0.1")
    assert ok.returncode in (0, 1)
    assert json.loads(ok.stdout)["per_game"] is not None


def test_audit_three_groups(tmp_path):
    path = tmp_path / "stream.jsonl"
    with path.open("w") as fh:
        for t in range(1, 400):
            for group, y in ((0, 0.5), (1, 0.5), (2, 1.0 if t % 5 else 0.0)):
                fh.write(json.dumps({"t": t, "group": group, "y_hat": y}) + "\n")
    result = run_cli("audit", str(path), "--groups", "3", "--alpha", "0.05")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    games = {g["game_id"]: g["rejected"] for g in doc["per_game"]}
    assert games == {"0v1": False, "1v2": True}


def test_audit_randomized_final_reports_u_draw(tmp_path):
    path = tmp_path / "stream.jsonl"
    write_stream(path, [(0.5, 0.5)] * 10)
    result = run_cli("audit", str(path), "--randomized-final", "--seed", "11")
    doc = json.loads(result.stdout)
    assert doc["decision"]["kind"] in ("final_randomized_reject", "final_fail_to_reject")
    assert 0.0 < doc["decision"]["u_draw"] < 1.0


def test_simulate_zero_replicates_is_usage_error():
    assert main(["simulate", "--preset", "fig1", "--replicates", "0"]) == 2


def test_simulate_bad_alpha_is_usage_error():
    assert main(["simulate", "--preset", "fig1", "--replicates", "2", "--alpha", "0"]) == 2


def test_bench_alpha_zero_is_usage_error():
    assert main(["bench", "--alphas", "0,0.05", "--replicates", "2"]) == 2


@pytest.mark.parametrize("flag", ["--alphas", "--methods", "--batch-sizes"])
def test_bench_empty_list_is_usage_error(flag, capsys):
    assert main(["bench", "--replicates", "2", "--horizon", "200", flag, ""]) == 2
    assert capsys.readouterr().err == f"error: {flag} must not be empty\n"


@pytest.mark.parametrize("command", ["simulate --preset fig1", "bench"])
def test_negative_seed_is_usage_error(command, capsys):
    argv = [*command.split(), "--replicates", "1", "--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")


@pytest.mark.parametrize(
    "flags",
    [
        ("--batch-sizes", "50.7"),
        ("--batch-sizes", "50,0.5"),
        ("--batch-sizes", "inf"),
        ("--horizon", "2001"),
        ("--horizon", "1"),
        ("--horizon", "0"),
        ("--horizon", "-4"),
    ],
)
def test_bench_bad_batch_size_or_horizon_is_usage_error(flags, capsys):
    argv = ["bench", "--methods", "betting,perm-m1", "--replicates", "2", "--horizon", "200", *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flags[0] in err


def test_bench_accepts_integral_batch_sizes_written_as_floats(tmp_path):
    argv = ["bench", "--methods", "perm-m2", "--replicates", "2", "--horizon", "200",
            "--permutations", "20", "--seed", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*argv, "--batch-sizes", "40.0", "--out", str(a)]) == 0
    assert main([*argv, "--batch-sizes", "40", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


_BENCH_GRID = dict(alphas=(0.01, 0.05, 0.1), batch_sizes=(6, 25, 40), replicates=4,
                   horizon=400, permutations=100, delta=0.3, center=0.5)


def _bench_argv(seed, grid=_BENCH_GRID):
    return [
        "bench", "--alphas", ",".join(map(str, grid["alphas"])),
        "--methods", "betting,perm-m1,perm-m2",
        "--batch-sizes", ",".join(map(str, grid["batch_sizes"])),
        "--replicates", str(grid["replicates"]), "--horizon", str(grid["horizon"]),
        "--permutations", str(grid["permutations"]), "--delta", str(grid["delta"]),
        "--center", str(grid["center"]), "--seed", str(seed),
    ]


def _bench_rows_by_hand(seed, grid=_BENCH_GRID):
    """The rows of ``bench`` from record streams: ``run_stream`` for
    betting and ``run_protocol`` for each protocol, method, alpha and batch
    size on its own."""
    horizon, reps = grid["horizon"], grid["replicates"]
    center, delta = grid["center"], grid["delta"]
    null = FixedMeans((center, center), horizon=horizon // 2, seed=derive_seed(seed, 101))
    alt = FixedMeans.from_gap(delta, center=center, horizon=horizon // 2, seed=derive_seed(seed, 202))
    streams = [
        [generate_stream(scen, seed=derive_seed(scen.seed, i)) for i in range(reps)]
        for scen in (null, alt)
    ]
    rows = []
    for alpha in grid["alphas"]:
        hits, taus = 0, []
        for i in range(reps):
            config = AuditConfig(alpha=alpha, seed=derive_seed(seed, i))
            hits += run_stream(config, streams[0][i], record_trajectory=False).decision.is_rejection
            decision = run_stream(config, streams[1][i], record_trajectory=False).decision
            taus.append(2 * decision.tau if decision.is_rejection else horizon)
        rows.append(["betting", "", str(alpha), str(hits / reps), str(sum(taus) / reps)])
        for method in ("perm-m1", "perm-m2"):
            for k in grid["batch_sizes"]:
                protocol = BatchProtocol(kind=method[-2:], batch_size=k, alpha=alpha)
                hits, taus = 0, []
                for i in range(reps):
                    cfg = PermutationTestConfig(
                        n_permutations=grid["permutations"], alpha=alpha,
                        seed=derive_seed(seed, 10_000 + i),
                    )
                    hits += run_protocol(protocol, streams[0][i], cfg, horizon)[0]
                    hit, tau = run_protocol(protocol, streams[1][i], cfg, horizon)
                    taus.append(tau if hit else horizon)
                rows.append([method, str(k), str(alpha), str(hits / reps), str(sum(taus) / reps)])
    return rows


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bench_rows_equal_the_record_path(seed, tmp_path):
    out = tmp_path / "bench.csv"
    assert main([*_bench_argv(seed), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,k,alpha,fpr,tau_mean"
    assert [line.split(",") for line in lines[1:]] == _bench_rows_by_hand(seed)


def test_bench_computes_each_batch_pvalue_at_most_once(monkeypatch, tmp_path):
    """Across M1, M2 and every alpha, each (stream, batch size, tested
    batch) gets one p-value, and no more batches than the furthest
    protocol reaches."""
    calls = []
    pvalue = baselines.permutation_pvalue

    def counting(sample0, sample1, config, rng=None):
        calls.append((tuple(rng.bit_generator.seed_seq.entropy), len(sample0) + len(sample1)))
        return pvalue(sample0, sample1, config, rng=rng)

    monkeypatch.setattr(baselines, "permutation_pvalue", counting)
    seed, reps, horizon = 4, _BENCH_GRID["replicates"], _BENCH_GRID["horizon"]
    assert main([*_bench_argv(seed), "--out", str(tmp_path / "bench.csv")]) == 0
    # A (replicate seed, batch index, batch size) key names one batch of the
    # null stream and one of the alternative stream: at most two calls.
    counts = {key: calls.count(key) for key in calls}
    assert max(counts.values()) <= 2
    monkeypatch.setattr(baselines, "permutation_pvalue", pvalue)

    grid = _BENCH_GRID
    null = FixedMeans((grid["center"],) * 2, horizon=horizon // 2, seed=derive_seed(seed, 101))
    alt = FixedMeans.from_gap(
        grid["delta"], center=grid["center"], horizon=horizon // 2, seed=derive_seed(seed, 202)
    )
    furthest = 0
    for scen in (null, alt):
        for i in range(reps):
            records = generate_stream(scen, seed=derive_seed(scen.seed, i))
            cfg = PermutationTestConfig(
                n_permutations=grid["permutations"], seed=derive_seed(seed, 10_000 + i)
            )
            for k in grid["batch_sizes"]:
                reach = 0
                for kind in ("m1", "m2"):
                    for alpha in grid["alphas"]:
                        hit, tau = run_protocol(BatchProtocol(kind, k, alpha), records, cfg, horizon)
                        # every batch of an interleaved stream holds both groups
                        reach = max(reach, tau // k if hit else horizon // k)
                furthest += reach
    assert len(calls) == furthest


def test_unknown_preset_is_usage_error():
    result = run_cli("simulate", "--preset", "fig9", "--replicates", "1")
    assert result.returncode == 2


def test_scenario_file_roundtrip(tmp_path):
    scenario = {
        "kind": "fixed_means", "means": [0.9, 0.1], "horizon": 200, "seed": 4,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "summary.csv"
    code = main([
        "simulate", "--scenario", str(path), "--replicates", "3",
        "--alpha", "0.05", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("scenario,alpha")
    assert lines[1].startswith("scenario,0.05,simple,1.0")


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "fixed_means", "means": [0.9, 0.1]',
        "[0.9, 0.1]",
        '{"kind": "fixed_means"}',
        '{"kind": "policy_population", "outputs": [[0.5], [0.5]], "policy": [1.0]}',
        '{"kind": "fixed_means", "means": ["0.9", 0.1]}',
        '{"kind": "fixed_means", "means": [0.5, 0.5], "horizn": 5}',
        '{"kind": "fixed_means", "means": [0.5, 0.5], "seed": -3}',
        '{"kind": "fixed_means", "means": [0.5, 0.5], "seed": "x"}',
        '{"kind": "fixed_means", "means": [0.5, 0.5], "horizon": true}',
    ],
    ids=["not-json", "not-an-object", "no-means", "no-density", "string-mean",
         "unknown-key", "negative-seed", "string-seed", "bool-horizon"],
)
def test_bad_scenario_file_is_usage_error(text, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["simulate", "--scenario", str(path), "--replicates", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_fig2a_preset_rejects_after_onset(tmp_path):
    out = tmp_path / "fig2a.csv"
    code = main([
        "simulate", "--preset", "fig2a", "--replicates", "5", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert float(row[3]) == 1.0  # rejects within the default horizon
    assert float(row[4]) > 100.0  # mean stopping time past the drift onset


def test_fig5_preset_has_four_policy_rows(tmp_path):
    out = tmp_path / "fig5.csv"
    code = main([
        "simulate", "--preset", "fig5", "--replicates", "2", "--horizon", "500",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["fig5-uniform", "fig5-pi1", "fig5-pi2", "fig5-pi3"]
    assert all(line.split(",")[2] == "propensity" for line in lines[1:])


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--preset", "fig1", "--replicates", "4", "--horizon", "200", "--seed", "5"),
        (
            "bench", "--alphas", "0.05,0.1", "--methods", "betting,perm-m2",
            "--batch-sizes", "40", "--replicates", "5", "--horizon", "400",
            "--permutations", "60", "--seed", "6",
        ),
    ],
)
def test_outputs_byte_identical_across_runs(argv, tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*argv, "--out", str(out_a)]) == 0
    assert main([*argv, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_audit_byte_identical_across_runs(tmp_path):
    path = tmp_path / "stream.jsonl"
    write_stream(path, [(1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] * 10)
    runs = [run_cli("audit", str(path), "--seed", "9", "--randomized-final") for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == runs[1].returncode
