"""Exit codes, flag validation, and end-to-end determinism of the CLI."""
import gc
import io
import json
import math
import random
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqaudit import baselines, columns, engine, ingest
from seqaudit.baselines import BatchProtocol, PermutationTestConfig, run_protocol
from seqaudit.cli import build_parser, main
from seqaudit.core import (
    AuditConfig,
    AuditError,
    AuditRecord,
    Composite,
    DecisionKind,
    EstimatedDensity,
    Propensity,
    RecordColumns,
    Simple,
    ValidationError,
)
from seqaudit.columns import run_columns
from seqaudit.engine import run_stream
from seqaudit.simulate import (
    FixedMeans,
    SinusoidalDrift,
    derive_seed,
    draw_outputs,
    generate_stream,
    monte_carlo,
    policy_corrective_scale,
    scenario_from_dict,
)

from conftest import child_env

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_cli(*argv, cwd=None, stdin=None):
    """Run ``python -m seqaudit`` in a child (see :func:`child_env`), with
    the text ``stdin`` on its standard input."""
    return subprocess.run(
        [sys.executable, "-m", "seqaudit", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
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


def test_audit_ragged_csv_row_is_usage_error(tmp_path, capsys):
    path = tmp_path / "ragged.csv"
    path.write_text("t,group,y_hat\n1,0,0.5,0.7,junk\n1,1,0.25\n")
    assert main(["audit", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: line 2: 5 cells in a row under 3 columns\n")


def test_audit_invalid_record_is_usage_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1, "group": 0, "y_hat": 2.0}\n')
    result = run_cli("audit", str(path))
    assert result.returncode == 2
    assert "line 1" in result.stderr


def test_audit_stdin_and_csv(tmp_path):
    """The golden input audited from stdin, which takes the record path,
    gives the golden report and the file audit's exit code."""
    golden = GOLDEN / "audit_input.jsonl"
    flags = ("--alpha", "0.05", "--seed", "3")
    from_file = run_cli("audit", str(golden), *flags)
    from_stdin = run_cli("audit", "-", *flags, stdin=golden.read_text())
    assert from_stdin.returncode == from_file.returncode, from_stdin.stderr
    assert from_stdin.stdout.encode() == (GOLDEN / "audit_report.json").read_bytes()
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


def write_weighted_stream(path: Path, steps=40):
    """A stream whose records carry propensity, density and estimate."""
    with path.open("w") as fh:
        for t in range(1, steps + 1):
            for group, y in ((0, 0.8), (1, 0.3)):
                fh.write(json.dumps({"t": t, "group": group, "y_hat": y, "propensity": 0.25,
                                     "density": 0.25, "density_estimate": 0.3}) + "\n")


@pytest.mark.parametrize(
    "flags, strategy",
    [
        ((), {"kind": "simple"}),
        (("--strategy", "simple"), {"kind": "simple"}),
        (("--strategy", "batched"), {"kind": "batched"}),
        (("--strategy", "propensity", "--scale", "0.4"), {"kind": "propensity", "scale": 0.4}),
        (
            ("--strategy", "estimated-density", "--delta-min", "0.8", "--delta-max", "1.25",
             "--scale", "0.2"),
            {"kind": "estimated_density", "delta_min": 0.8, "delta_max": 1.25, "scale": 0.2},
        ),
        (("--strategy", "composite", "--epsilon", "0.1"), {"kind": "composite", "epsilon": 0.1}),
    ],
    ids=["default", "simple", "batched", "propensity", "estimated-density", "composite"],
)
def test_audit_strategy_is_built_from_its_flags(flags, strategy, tmp_path, capsys):
    path = tmp_path / "stream.jsonl"
    write_weighted_stream(path)
    assert main(["audit", str(path), *flags]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["config"]["strategy"] == strategy


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--strategy", "composite"), "composite strategy requires --epsilon"),
        (("--strategy", "propensity"), "propensity strategy requires --scale"),
        (("--strategy", "estimated-density"), "estimated-density strategy requires --delta-min"),
        (
            ("--strategy", "estimated-density", "--delta-min", "0.8"),
            "estimated-density strategy requires --delta-max",
        ),
        (
            ("--strategy", "estimated-density", "--delta-min", "0.8", "--delta-max", "1.25"),
            "estimated-density strategy requires --scale",
        ),
    ],
    ids=["epsilon", "scale", "delta-min", "delta-max", "estimated-density-scale"],
)
def test_missing_strategy_flag_is_usage_error(flags, message, tmp_path, capsys):
    path = tmp_path / "stream.jsonl"
    write_weighted_stream(path)
    assert main(["audit", str(path), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("simulate", "--preset", "fig1", "--replicates", "1", "--strategy", "batched"), "--strategy"),
        (("simulate", "--preset", "fig5", "--replicates", "1", "--scale", "5"), "--scale"),
        (
            ("simulate", "--preset", "fig5", "--replicates", "1", "--scale", "5",
             "--strategy", "composite"),
            "--strategy",
        ),
        (("audit", "{input}", "--strategy", "simple", "--epsilon", "0.3", "--scale", "9"), "--epsilon"),
        (("audit", "{input}", "--scale", "0.4"), "--scale"),
        (("audit", "{input}", "--strategy", "propensity", "--scale", "0.4", "--delta-max", "2"),
         "--delta-max"),
        (("audit", "{input}", "--strategy", "composite", "--epsilon", "0.1", "--delta-min", "0.5"),
         "--delta-min"),
    ],
    ids=["preset-strategy", "preset-scale", "preset-scale-strategy", "simple-epsilon-scale",
         "default-scale", "propensity-delta-max", "composite-delta-min"],
)
def test_strategy_flag_a_run_ignores_is_usage_error(argv, flag, tmp_path, capsys):
    path = tmp_path / "stream.jsonl"
    write_weighted_stream(path)
    assert main([a.format(input=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} does not apply to ") and err.count("\n") == 1


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


def test_simulate_writes_to_stdout_what_it_writes_to_a_file(tmp_path, capsys):
    argv = ["simulate", "--preset", "fig1", "--replicates", "1", "--horizon", "20", "--seed", "1"]
    path = tmp_path / "summary.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes() != b""


@pytest.mark.parametrize("argv", [[], ["audit"]], ids=["no-command", "audit-without-input"])
def test_argparse_refusal_is_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: ")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_main_calls_in_one_process_leave_nothing_to_the_next(tmp_path, capsys):
    """``main`` parses every call with one parser: no flag, default or
    refusal of a call carries into the next one."""
    path = tmp_path / "stream.jsonl"
    write_stream(path, [(0.6, 0.5)] * 20)
    assert main(["audit", str(path), "--strategy", "composite", "--epsilon", "0.1"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["config"]["strategy"] == {"kind": "composite", "epsilon": 0.1}
    assert main(["audit", str(path)]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["config"]["strategy"] == {"kind": "simple"}
    assert main(["audit", str(path), "--strategy", "composite", "--alpha", "x"]) == 2
    assert capsys.readouterr().err.startswith("usage: ")
    assert main(["audit", str(path)]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["config"] == json.loads(run_cli("audit", str(path)).stdout)["config"]
    argv = ["simulate", "--preset", "fig1", "--replicates", "2", "--horizon", "30", "--seed", "4"]
    assert main(argv) == 0
    assert capsys.readouterr().out == run_cli(*argv).stdout != ""


@pytest.mark.parametrize("command", ["audit", "simulate"])
def test_strategy_help_states_batched_scope(command):
    """``--help`` says what the README and the ``Batched`` docstring say:
    batched is valid only under arrival that ignores the outputs."""
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    text = " ".join(out.getvalue().split())
    assert "batched is valid only when the arrival order does not depend on the outputs" in text


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
    "argv",
    [
        ("simulate", "--preset", "fig1", "--replicates", "1"),
        ("bench", "--methods", "betting", "--replicates", "1", "--horizon", "20"),
        ("bench", "--methods", "perm-m2", "--replicates", "1", "--horizon", "20"),
        ("audit", str(GOLDEN / "audit_input.jsonl")),
    ],
    ids=["simulate", "bench-betting", "bench-perm-m2", "audit"],
)
def test_seed_of_2_to_the_64_is_usage_error(argv, capsys):
    assert main([*argv, "--seed", str(2**64)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed must be a non-negative integer")


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
        ("--methods", "betting,perm-m3"),
        ("--replicates", "0"),
        ("--alphas", "0.05,x"),
    ],
)
def test_bench_bad_batch_size_or_horizon_is_usage_error(flags, capsys):
    argv = ["bench", "--methods", "betting,perm-m1", "--replicates", "2", "--horizon", "200", *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flags[0] in err


@pytest.mark.parametrize("methods", ["betting", "perm-m1", "betting,perm-m2"])
@pytest.mark.parametrize("flags", [("--permutations", "0"), ("--batch-sizes", "1"), ("--batch-sizes", "40,-3")])
def test_bench_permutation_settings_are_refused_whatever_the_methods(methods, flags, capsys):
    """A permutation setting no permutation arm could run is refused even
    when --methods names no permutation arm."""
    argv = ["bench", "--methods", methods, "--replicates", "1", "--horizon", "20", *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {flags[0]} ")


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


def test_bench_rows_equal_walks_over_exact_pvalues(tmp_path):
    """``bench`` caps its p-values at the largest alpha; each protocol row
    over two alphas a decade apart equals walks over exact (uncapped)
    p-value sequences of the same streams."""
    seed, reps, horizon, perms = 5, 6, 1000, 300
    alphas, batch_sizes = (0.01, 0.1), (20, 50)
    out = tmp_path / "bench.csv"
    argv = ["bench", "--alphas", "0.01,0.1", "--methods", "perm-m1,perm-m2", "--batch-sizes", "20,50",
            "--replicates", str(reps), "--horizon", str(horizon), "--permutations", str(perms),
            "--delta", "0.2", "--seed", str(seed)]
    assert main([*argv, "--out", str(out)]) == 0
    null = FixedMeans((0.5, 0.5), horizon=horizon // 2, seed=derive_seed(seed, 101))
    alt = FixedMeans.from_gap(0.2, center=0.5, horizon=horizon // 2, seed=derive_seed(seed, 202))
    groups = np.tile([0, 1], horizon // 2)
    exact = {}
    for i in range(reps):
        cfg = PermutationTestConfig(n_permutations=perms, seed=derive_seed(seed, 10_000 + i))
        for k in batch_sizes:
            streams = [draw_outputs(scen, seed=derive_seed(scen.seed, i)).ravel() for scen in (null, alt)]
            exact[k, i] = [baselines.PValueSequence(y, groups, k, cfg) for y in streams]
    rows = []
    for alpha in alphas:
        for method in ("perm-m1", "perm-m2"):
            for k in batch_sizes:
                protocol = BatchProtocol(kind=method[-2:], batch_size=k, alpha=alpha)
                hits, taus = 0, []
                for i in range(reps):
                    null_pvalues, alt_pvalues = exact[k, i]
                    hits += baselines.walk_protocol(protocol, null_pvalues)[0]
                    hit, tau = baselines.walk_protocol(protocol, alt_pvalues)
                    taus.append(tau if hit else horizon)
                rows.append([method, str(k), str(alpha), str(hits / reps), str(sum(taus) / reps)])
    assert [line.split(",") for line in out.read_text().splitlines()[1:]] == rows


def test_bench_computes_each_batch_pvalue_at_most_once(monkeypatch, tmp_path):
    """Across M1, M2 and every alpha, each (stream, batch size, tested
    batch) gets one p-value, and no more batches than the furthest
    protocol reaches.  A protocol reaches its rejection batch, or else the
    last batch whose level is at least 1 / (permutations + 1), the least
    p-value a test with that many permutations can give."""
    calls = []
    pvalue = baselines.permutation_pvalue

    def counting(sample0, sample1, config, rng=None, **kwargs):
        calls.append((tuple(rng.bit_generator.seed_seq.entropy), len(sample0) + len(sample1)))
        return pvalue(sample0, sample1, config, rng=rng, **kwargs)

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
    floor = 1 / (grid["permutations"] + 1)
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
                        protocol = BatchProtocol(kind, k, alpha)
                        hit, tau = run_protocol(protocol, records, cfg, horizon)
                        # every batch of an interleaved stream holds both groups
                        if hit:
                            reach = max(reach, tau // k)
                            continue
                        j = 0
                        while j < horizon // k and protocol.level(j + 1) >= floor:
                            j += 1
                        reach = max(reach, j)
                furthest += reach
    assert len(calls) == furthest


def test_bench_m2_past_1023_batches_exits_cleanly(tmp_path):
    """2,050 batches of 2 records, past batch 1023, where alpha / 2.0**j
    overflows; exit 1 would read as a rejection."""
    out = tmp_path / "bench.csv"
    argv = ["bench", "--methods", "perm-m2", "--batch-sizes", "2", "--horizon", "4100",
            "--replicates", "1", "--permutations", "10", "--alphas", "0.05", "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("perm-m2,2,0.05,")


def test_audit_imports_neither_simulate_nor_baselines(tmp_path):
    """``audit`` loads only what it uses, also when ``--strategy
    propensity`` lacks ``--scale`` (which only a scenario can supply)."""
    code = (
        "import sys\n"
        "from seqaudit.cli import main\n"
        f"main(['audit', {str(GOLDEN / 'audit_input.jsonl')!r}])\n"
        f"main(['audit', {str(GOLDEN / 'audit_input.jsonl')!r}, '--strategy', 'propensity'])\n"
        "print(sorted(m for m in ('seqaudit.simulate', 'seqaudit.baselines') if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=child_env()
    )
    assert "propensity strategy requires --scale" in result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_record_path_imports_no_numpy(tmp_path):
    """Importing the package or its CLI loads no numpy, and neither does a
    stdin audit with a trajectory under each strategy; a file audit, which
    reads columns, does."""
    weighted = _jsonl(*(
        {"t": t, "group": g, "y_hat": 0.5, "propensity": 0.5, "density": 0.25, "density_estimate": 0.25}
        for t in range(1, 21) for g in (0, 1)
    ))
    golden = (GOLDEN / "audit_input.jsonl").read_text()
    stdin_audits = [
        ([], golden),
        (["--strategy", "batched"], golden),
        (["--strategy", "composite", "--epsilon", "0.1"], golden),
        (["--strategy", "propensity", "--scale", "0.5"], weighted),
        (["--strategy", "estimated-density", "--scale", "0.5", "--delta-min", "0.8", "--delta-max", "1.25"], weighted),
    ]
    code = (
        "import io, json, sys\n"
        "import seqaudit\n"
        "seen = ['numpy' in sys.modules]\n"
        "import seqaudit.cli\n"
        "seen.append('numpy' in sys.modules)\n"
        "out, exits = sys.stdout, []\n"
        f"for flags, text in {stdin_audits!r}:\n"
        "    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()\n"
        f"    exits.append(seqaudit.cli.main(['audit', '-', '--trajectory-out', {str(tmp_path / 'traj.csv')!r}, *flags]))\n"
        "    seen.append('numpy' in sys.modules)\n"
        f"exits.append(seqaudit.cli.main(['audit', {str(GOLDEN / 'audit_input.jsonl')!r}]))\n"
        "seen.append('numpy' in sys.modules)\n"
        "print(json.dumps([seen, exits]), file=out)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=child_env()
    )
    assert result.stderr == ""
    seen, exits = json.loads(result.stdout)
    assert seen == [False] * 7 + [True]  # the package, the CLI, five stdin audits, then the file audit
    assert set(exits) <= {0, 1}


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
    # --horizon overrides the file's: one step cannot reach 1/alpha.
    assert main(["simulate", "--scenario", str(path), "--replicates", "3", "--horizon", "1",
                 "--alpha", "0.05", "--seed", "1", "--out", str(out)]) == 0
    assert out.read_text().split("\n")[1].startswith("scenario,0.05,simple,0.0,nan")


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


_ONE_POINT = {"kind": "policy_population", "density": [[1.0], [1.0]], "outputs": [[0.5], [0.5]],
              "policy": [1.0], "horizon": 20}


@pytest.mark.parametrize(
    "doc, flags, message",
    [
        ({"kind": "fixed_means", "means": [0.5]}, (), "need at least two group means"),
        ({"kind": "fixed_means", "means": [0.5, 1.5]}, (), "group mean 1.5 outside [0, 1]"),
        ({"kind": "logistic_drift", "base": 0.8, "amplitude": 0.5}, (), "logistic drift means leave [0, 1]"),
        ({"kind": "logistic_drift", "onset": 0}, (), "onset must be >= 1 and scale positive"),
        ({"kind": "logistic_drift", "scale": 0.0}, (), "onset must be >= 1 and scale positive"),
        ({"kind": "sinusoidal_drift", "noise_sd": -0.1}, (), "noise sd must be >= 0 and wavelengths positive"),
        ({"kind": "sinusoidal_drift", "wavelength_1": 0.0}, (),
         "noise sd must be >= 0 and wavelengths positive"),
        ({"kind": "sinusoidal_drift", "level": 0.95}, (),
         "noiseless mean of group 0 leaves [0, 1] within the horizon"),
        ({**_ONE_POINT, "density": [[], []], "outputs": [[], []], "policy": []}, (), "empty support"),
        ({**_ONE_POINT, "policy": [0.5]}, (), "policy must be a probability vector"),
        ({**_ONE_POINT, "density": [[1.0]], "outputs": [[0.5]]}, (),
         "need density and outputs for at least two groups"),
        ({**_ONE_POINT, "outputs": [[0.5], [0.5, 0.5]]}, (), "group 1 rows must match the support size 1"),
        ({**_ONE_POINT, "density": [[1.0], [0.5]]}, (), "density of group 1 must be a probability vector"),
        ({**_ONE_POINT, "density": [[0.5, 0.5], [0.5, 0.5]], "outputs": [[0.5, 0.5], [0.5, 0.5]],
          "policy": [1.0, 0.0]}, (), "policy must place positive mass wherever the population does"),
        ({**_ONE_POINT, "outputs": [[0.5], [1.5]]}, (), "model output 1.5 outside [0, 1]"),
        ({**_ONE_POINT, "density_estimates": [[1.0], [0.0]]}, (),
         "density estimates must be positive per support point"),
        ({**_ONE_POINT, "density_estimates": [[1.0]]}, (), "density estimates need one row per group"),
        ({**_ONE_POINT, "density_estimates": [[1.0], [1.0], [1.0]]}, (),
         "density estimates need one row per group"),
        ({**_ONE_POINT, "labels": ["a", "b"]}, (), "labels must match the support size"),
        (_ONE_POINT, ("--strategy", "estimated-density", "--delta-min", "0.8", "--delta-max", "1.2"),
         "population carries no density estimates"),
        (None, ("--permutations", "0"), "--permutations must be at least 1"),
        ({"kind": "fixed_means", "means": [True, False], "horizon": 20}, (),
         "scenario field 'means' must hold finite numbers, got True"),
        ({"kind": "sinusoidal_drift", "noise_sd": True, "horizon": 20}, (),
         "scenario field 'noise_sd' must hold finite numbers, got True"),
        ({"kind": "logistic_drift", "base": False, "amplitude": True, "horizon": 20}, (),
         "scenario field 'base' must hold finite numbers, got False"),
        ({**_ONE_POINT, "density": [[0.5, 0.5], [0.5, 0.5]], "outputs": [[0.5, 0.5], [0.5, 0.5]],
          "policy": [math.nan, 1.0]}, (), "scenario field 'policy' must hold finite numbers, got nan"),
        ({"kind": "logistic_drift", "scale": math.inf}, (), "scenario field 'scale' must hold finite numbers, got inf"),
        ({**_ONE_POINT, "policy": [10**400]}, (), f"scenario field 'policy' must hold finite numbers, got {10**400}"),
        ({"kind": "sinusoidal_drift", "level": 10**400, "horizon": 20}, (),
         f"scenario field 'level' must hold finite numbers, got {10**400}"),
    ],
)
def test_refusals_exit_2_with_their_message(doc, flags, message, tmp_path, capsys):
    """Each scenario invariant, a population without estimates for an
    estimated-density audit with no --scale, a bench without permutations,
    and a JSON boolean (never read as 1 or 0), NaN, infinity or an integer
    beyond the float range where a scenario holds a number: exit 2 with the
    refusal's message as the one line on stderr."""
    if doc is None:
        argv = ["bench", "--methods", "perm-m1", "--replicates", "1", "--horizon", "20"]
    else:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate", "--scenario", str(path), "--replicates", "1"]
    assert main([*argv, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_POPULATION = {
    "kind": "policy_population",
    "density": [[0.25, 0.25, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25]],
    "outputs": [[0.9, 0.7, 0.5, 0.3], [0.6, 0.4, 0.2, 0.0]],
    "policy": [0.1, 0.2, 0.3, 0.4],
    "density_estimates": [[0.2, 0.3, 0.25, 0.25], [0.25, 0.2, 0.3, 0.25]],
    "horizon": 300,
    "seed": 3,
}


@pytest.mark.parametrize(
    "flags",
    [("--strategy", "propensity"),
     ("--strategy", "estimated-density", "--delta-min", "0.8", "--delta-max", "1.2")],
    ids=["propensity", "estimated-density"],
)
def test_population_scale_defaults_to_the_largest_admissible(flags, tmp_path):
    path = tmp_path / "population.json"
    path.write_text(json.dumps(_POPULATION))
    pop = scenario_from_dict(_POPULATION)
    if flags[1] == "propensity":
        scale = policy_corrective_scale(pop)
    else:
        scale = policy_corrective_scale(pop, "density_estimate", 0.8)
    argv = ["simulate", "--scenario", str(path), "--replicates", "4", "--seed", "2", *flags]
    derived, given = tmp_path / "derived.csv", tmp_path / "given.csv"
    assert main([*argv, "--out", str(derived)]) == 0
    assert main([*argv, "--scale", repr(scale), "--out", str(given)]) == 0
    assert derived.read_bytes() == given.read_bytes()
    assert derived.read_text().splitlines()[1].split(",")[2] == flags[1].replace("-", "_")


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


def test_fig2b_preset_notes_the_clamped_means_it_consumed(tmp_path, capsys):
    """The fig2b row, and the stderr note whose count is the Monte Carlo
    summary's ``noise_clamped`` for the same run."""
    out = tmp_path / "fig2b.csv"
    argv = ["simulate", "--preset", "fig2b", "--replicates", "8", "--horizon", "300", "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == 0
    config = AuditConfig(alpha=0.01, strategy=Simple(), seed=1)
    scenario = SinusoidalDrift(horizon=300, seed=derive_seed(1, 0))
    clamped = monte_carlo(config, scenario, replicates=8).noise_clamped
    assert clamped > 0
    assert capsys.readouterr().err == f"note: {clamped} noisy means clamped to [0, 1]\n"
    (row,) = out.read_text().splitlines()[1:]
    assert row.startswith("fig2b-sinusoidal,0.01,simple,")


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


def _run_script(name, *argv, cwd):
    """Run ``scripts/<name>`` in ``cwd`` (see :func:`child_env`)."""
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv], capture_output=True, text=True, cwd=cwd,
        env=child_env(),
    )


def test_scripts_write_their_csvs(tmp_path):
    out = tmp_path / "out"
    bench = _run_script("run_bench.py", "--replicates", "1", "--horizon", "200", "--out-dir", str(out),
                        cwd=tmp_path)
    assert bench.returncode == 0, bench.stderr
    figures = _run_script("reproduce_figures.py", "--replicates", "1", "--out-dir", str(out), cwd=tmp_path)
    assert figures.returncode == 0, figures.stderr
    headers = {path.name: path.read_text().splitlines()[0] for path in out.iterdir()}
    summary = "scenario,alpha,strategy,fpr_or_power,tau_mean,tau_q10,tau_q50,tau_q90"
    assert headers == {
        "bench.csv": "method,k,alpha,fpr,tau_mean",
        **{f"{preset}.csv": summary for preset in ("fig1", "fig2a", "fig2b", "fig5")},
    }


# The column path of `seqaudit audit` (record files under a paired strategy)
# against the record path it replaces: run_stream over parse_stream, written
# by the same report and trajectory writers.

_PAIRED = {
    "simple": ((), Simple(), 2),
    "simple-3": (("--groups", "3"), Simple(), 3),
    "composite": (("--strategy", "composite", "--epsilon", "0.1"), Composite(0.1), 2),
    "propensity": (("--strategy", "propensity", "--scale", "0.25"), Propensity(0.25), 2),
    "estimated-density": (
        ("--strategy", "estimated-density", "--delta-min", "0.5", "--delta-max", "2", "--scale", "0.125"),
        EstimatedDensity(0.5, 2.0, 0.125), 2,
    ),
}
_RANGE_FAULTS = {  # out-of-range values of one field
    "y-range": ("y_hat", [1.5, -0.25]), "propensity-range": ("propensity", [0.0, -0.5]),
    "density-range": ("density", [-0.25]), "estimate-range": ("density_estimate", [0.0]),
    "group-range": ("group", [3, 8]),
}
_TEXT_FAULTS = (  # lines that json.dumps would not write, some of them valid
    "reordered", "compact", "exponent", "invalid-number", "key-digit", "key-escape", "1e999", "t-beyond-int64",
    "t-fraction", "key-twice",
)
_FAULTS = (
    "bad-json", "blank", "non-object", "padded", "unknown-key", "missing-key", "bool", "numeric-string",
    "nan", "t-2.0", "t-1.9", "t-repeat", "no-weights", "scale", *_RANGE_FAULTS, *_TEXT_FAULTS,
)


def _fault_text(rng: random.Random, fault: str, d: dict) -> str:
    """The JSONL line of ``d`` written with a fault of _TEXT_FAULTS."""
    if fault == "reordered":
        return json.dumps(dict(rng.sample(list(d.items()), len(d))))
    if fault == "compact":
        return json.dumps(d, separators=(",", ":"))
    keys = {key: json.dumps(key) for key in d}
    values = {key: json.dumps(value) for key, value in d.items()}
    key = rng.choice(list(d))
    if fault == "exponent":  # 2.5e-05 is how repr writes any float below 1e-4
        d["y_hat"] = rng.choice([d["y_hat"], 2.5e-05])
        values.update((k, rng.choice(["{:e}", "{:E}", "{!r}"]).format(v)) for k, v in d.items() if type(v) is float)
    elif fault == "invalid-number":
        values[key] = rng.choice(["01", "+1", "1.", ".5", "1e"])
    elif fault == "key-digit":  # an "e" of a key as a digit: both can be written in a number
        key = rng.choice([k for k in d if "e" in k] or [key])
        keys[key] = json.dumps(key.replace("e", "3", 1) if "e" in key else key[:-1] + "1")
    elif fault == "key-escape":  # the same key, written otherwise
        keys[key] = json.dumps(key).replace(key[0], f"\\u{ord(key[0]):04x}", 1)
    elif fault == "1e999":
        values[rng.choice([k for k in d if k not in ("t", "group")])] = "1e999"
    elif fault == "t-fraction":
        values["t"] = f"{d['t']}.5"
    elif fault == "key-twice":  # the object keeps the last value
        line = "{" + ", ".join(f"{keys[k]}: {values[k]}" for k in d) + "}"
        twice = f'{keys[key]}: {rng.choice(["NaN", "-Infinity", "0.5", "7"])}'
        return line[:-1] + ", " + twice + "}" if rng.random() < 0.5 else "{" + twice + ", " + line[1:]
    else:  # t-beyond-int64
        values["t"] = str(2**63 + d["t"])
    return "{" + ", ".join(f"{keys[k]}: {values[k]}" for k in d) + "}"


def _audit_file(rng: random.Random, groups: int, fmt: str, faults: list[str], rate: float) -> str:
    """Records of every group, with an output gap in some files.  Past a
    random line, each line takes one of ``faults`` at ``rate``, so some
    faults come after the audit has stopped."""
    gap = rng.random() < 0.5
    n = rng.randint(0, 40)
    first_fault = rng.randint(0, n)
    last_t = [0] * groups
    rows, header_extra = [], False
    for i in range(n):
        group = rng.randrange(groups)
        prev_t = last_t[group]
        last_t[group] += rng.choice([1, 1, 2])
        d = {
            "t": last_t[group], "group": group,
            "y_hat": rng.choice(([0.0, 0.25], [0.75, 1.0])[group == 0] if gap else [0.0, 0.25, 0.5, 1.0]),
            "propensity": rng.choice([0.25, 0.5]),
            "density": rng.choice([0.25, 0.5]),
            "density_estimate": rng.choice([0.25, 0.5]),
        }
        fault = rng.choice(faults) if faults and i >= first_fault and rng.random() < rate else None
        if fault in ("bad-json", "blank", "non-object"):
            rows.append({"bad-json": '{"t": 1, "group"', "blank": "", "non-object": "[1, 2]"}[fault])
            continue
        if fault == "unknown-key":
            d["note"] = 1
            header_extra = True
        elif fault == "padded":  # only json.loads takes it whole
            rows.append(" " + json.dumps({**d, "note": 1} if rng.random() < 0.5 else d) + " ")
            continue
        elif fault in _TEXT_FAULTS:
            rows.append(_fault_text(rng, fault, d))
            continue
        elif fault == "nan":
            d[rng.choice(["y_hat", "propensity", "density_estimate"])] = math.nan
        elif fault in ("missing-key", "no-weights"):
            keys = ["t", "group", "y_hat"] if fault == "missing-key" else ["propensity", "density"]
            del d[rng.choice(keys)]
        elif fault == "bool":
            d[rng.choice(["group", "y_hat", "propensity"])] = rng.random() < 0.5
        elif fault == "numeric-string":
            key = rng.choice(["t", "y_hat", "density"])
            d[key] = str(d[key])
        elif fault in ("t-2.0", "t-1.9"):
            d["t"] = float(d["t"]) - (0.1 if fault == "t-1.9" else 0.0)
        elif fault == "t-repeat" and prev_t > 1:
            d["t"] = rng.choice([prev_t, prev_t - 1])
        elif fault == "scale":
            d["density"] = d["density_estimate"] = 2.0
        elif fault in _RANGE_FAULTS:
            key, values = _RANGE_FAULTS[fault]
            d[key] = rng.choice(values)
        rows.append(d)
    if fmt == "jsonl":
        return _jsonl(*rows)
    header = [*ingest.RECORD_FIELDS, *["note"] * header_extra]
    lines = [",".join(header)]
    for row in rows:
        if not isinstance(row, str):
            row = ",".join("" if row.get(key) is None else str(row[key]) for key in header)
        lines.append(row)
    return "\n".join(lines) + "\n"


def _audit_outcome(run):
    """(exit code, stdout, stderr, warnings) of ``run(stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("ignore", ResourceWarning)  # hidden by default; depends on when gc runs
        with redirect_stdout(out), redirect_stderr(err):
            code = run(out, err)
    shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
    return code, out.getvalue(), err.getvalue(), shown


def _assert_column_audit_is_the_record_path(
    path, fmt, name, chunk, lenient=False, randomized=False, alpha="0.05"
):
    """``seqaudit audit`` of a file, read in chunks of ``chunk`` lines, gives
    the exit code, stdout, stderr, warnings and trajectory of run_stream over
    parse_stream with the same writers, the file read as a text stream so
    that parse_stream takes the scalar code line by line."""
    flags, strategy, groups = _PAIRED[name]
    argv = ["audit", str(path), "--format", fmt, "--alpha", alpha, "--seed", "4", *flags]
    argv += ["--lenient"] * lenient + ["--randomized-final"] * randomized
    config = AuditConfig(alpha=float(alpha), strategy=strategy, group_count=groups,
                         randomized_final_step=randomized, seed=4)
    mode = "lenient" if lenient else "strict"
    trajectories = [path.with_name("columns.csv"), path.with_name("records.csv")]

    def record_path(out, err):
        try:
            with open(path, encoding="utf-8") as fh:
                report = run_stream(config, ingest.parse_stream(fh, format=fmt, mode=mode))
        except (AuditError, OSError, UnicodeDecodeError) as exc:
            print(f"error: {exc}", file=err)
            return 2
        with open(trajectories[1], "w", encoding="utf-8") as fh:
            ingest.write_trajectory_csv(report, fh)
        ingest.emit_report(report, out)
        return 1 if report.decision.is_rejection else 0

    for traj in trajectories:
        traj.unlink(missing_ok=True)
    with mock.patch.object(columns, "CHUNK_LINES", chunk):
        got = _audit_outcome(lambda out, err: main([*argv, "--trajectory-out", str(trajectories[0])]))
    want = _audit_outcome(record_path)
    assert got == want
    by_columns, by_records = (traj.read_text() if traj.exists() else None for traj in trajectories)
    assert by_columns == by_records
    return want


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    fmt=st.sampled_from(["jsonl", "csv"]),
    name=st.sampled_from(sorted(_PAIRED)),
    faults=st.lists(st.sampled_from(_FAULTS), max_size=2),
    rate=st.sampled_from([0.1, 0.3]),
    chunk=st.sampled_from([1, 2, 3, 2048]),
    lenient=st.booleans(),
    randomized=st.booleans(),
    alpha=st.sampled_from(["0.05", "0.5"]),
)
def test_column_audit_equals_the_record_path(
    tmp_path_factory, seed, fmt, name, faults, rate, chunk, lenient, randomized, alpha
):
    path = tmp_path_factory.getbasetemp() / f"audit.{fmt}"
    path.write_text(_audit_file(random.Random(seed), _PAIRED[name][2], fmt, faults, rate))
    _assert_column_audit_is_the_record_path(path, fmt, name, chunk, lenient, randomized, alpha)


@pytest.mark.parametrize("name", ["simple", "propensity"])
@pytest.mark.parametrize("fault", _FAULTS)
def test_column_audit_equals_the_record_path_on_each_fault(tmp_path, fault, name):
    """Each fault in strict JSONL files, read as one chunk, where a faulty
    line past the first meets the layout of a clean one, and a line at a
    time, where each faulty line gives its chunk's layout."""
    path = tmp_path / "audit.jsonl"
    for seed in range(4):
        path.write_text(_audit_file(random.Random(seed), 2, "jsonl", [fault], 0.3))
        for chunk in (1, 2048):
            _assert_column_audit_is_the_record_path(path, "jsonl", name, chunk)


# Nine steps of outputs 1 against 0: an audit at alpha 0.05 rejects at step 9.
_REJECTING = [{"t": t, "group": g, "y_hat": 1.0 - g} for t in range(1, 10) for g in (0, 1)]


def _jsonl(*rows):
    return "".join((row if isinstance(row, str) else json.dumps(row)) + "\n" for row in rows)


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize(
    "fmt, name, text, outcome",
    [
        # Warnings and errors past the stop, in the chunk that stops.
        ("jsonl", "simple", _jsonl(*_REJECTING, {"t": 10, "group": 0, "y_hat": 0.5, "note": 1}, '{"t": 1'), 1),
        ("jsonl", "simple", _jsonl(*_REJECTING, ' {"t": 10, "group": 0, "y_hat": 0.5, "note": 1}'), 1),
        # A group outside the audit's, then a bad line, in one chunk.
        ("jsonl", "simple", _jsonl(_REJECTING[0], {"t": 1, "group": 5, "y_hat": 0.5}, "[1]"),
         "group 5 out of range"),
        ("csv", "simple", "t,group,y_hat\n1,0,0.5\n1,5,0.5\nx,1,0.5\n", "group 5 out of range"),
        # A step refused before a group outside the audit's, in one chunk.
        ("jsonl", "propensity", _jsonl(*_REJECTING[:2], {"t": 2, "group": 5, "y_hat": 0.5}),
         "record at t=1 group=0 lacks propensity or density"),
        # A record without weights is refused as it arrives, though the
        # audit would reject, at step 15, before the step it would join.
        ("jsonl", "propensity",
         _jsonl(*({"t": t, "group": 0, "y_hat": 1.0, **({"propensity": 0.5, "density": 1.0} if t < 20 else {})}
                  for t in range(1, 21)),
                *({"t": t, "group": 1, "y_hat": 0.0, "propensity": 0.5, "density": 1.0} for t in range(1, 21))),
         "record at t=20 group=0 lacks propensity or density"),
        # The t and group of a record without weights, and time order past a
        # line the scalar code accepted.
        ("jsonl", "propensity", _jsonl({"t": 7, "group": 0, "y_hat": 0.5}, {"t": 3, "group": 1, "y_hat": 0.5}),
         "record at t=7 group=0 lacks propensity or density"),
        ("jsonl", "simple", _jsonl({"t": 2.0, "group": 0, "y_hat": 0.5}, {"t": 2, "group": 0, "y_hat": 0.5}),
         "line 2: time index 2 not increasing for group 0 (last was 2)"),
        # Out-of-range weight fields are refused whatever the strategy.
        *(("jsonl", "simple", _jsonl({"t": 1, "group": 0, "y_hat": 0.5, key: value}), message)
          for key, value, message in (
              ("propensity", 0.0, "propensity must be a positive finite real"),
              ("density", -0.25, "density must be a nonnegative finite real"),
              ("density_estimate", 0.0, "density_estimate must be a positive finite real"))),
        # A weight that overflows to inf fails the payoff's check, silently.
        ("jsonl", "propensity",
         _jsonl({"t": 1, "group": 0, "y_hat": 0.0, "propensity": 1e-300, "density": 1e300},
                {"t": 1, "group": 1, "y_hat": 0.5, "propensity": 0.5, "density": 0.5}),
         "omega_0 must be a positive finite real, got inf"),
    ],
)
def test_column_audit_stops_where_the_record_path_stops(fmt, name, text, outcome, lenient, tmp_path):
    path = tmp_path / f"audit.{fmt}"
    path.write_text(text)
    code, _, err, shown = _assert_column_audit_is_the_record_path(path, fmt, name, 2048, lenient)
    if isinstance(outcome, int):
        assert code == outcome
    else:
        assert code == 2 and outcome in err
    assert not shown


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("chunk", [2, 2048])
def test_column_audit_decodes_one_object_per_line(chunk, lenient, tmp_path):
    """Two invalid lines whose strings hold ``},{`` decode as one object when
    joined into an array; the record path refuses the first, in either mode."""
    path = tmp_path / "audit.jsonl"
    path.write_text(_jsonl('{"t": 1, "group": 0, "y_hat": "}', '{", "y_hat": 0.5}', *_REJECTING))
    code, _, err, _ = _assert_column_audit_is_the_record_path(path, "jsonl", "simple", chunk, lenient)
    assert code == 2 and "line 1: invalid JSON" in err


def test_column_audit_takes_what_the_scalar_code_accepts(tmp_path):
    """Lines only the scalar code clears hold their parsed values in the
    columns; a JSON NaN is a present value, not an absent field."""
    path = tmp_path / "audit.jsonl"
    path.write_text(_jsonl(*({**row, "y_hat": str(row["y_hat"])} for row in _REJECTING)))
    assert _assert_column_audit_is_the_record_path(path, "jsonl", "simple", 2048, lenient=True)[0] == 1
    path.write_text(_jsonl(*({**row, "t": float(row["t"])} for row in _REJECTING)))
    assert _assert_column_audit_is_the_record_path(path, "jsonl", "simple", 2048)[0] == 1
    assert _assert_column_audit_is_the_record_path(path, "jsonl", "propensity", 2048)[2].startswith(
        "error: record at t=1 group=0 lacks propensity")
    path.write_text(_jsonl({"t": 1, "group": 0, "y_hat": 0.5, "propensity": math.nan}))
    code, _, err, _ = _assert_column_audit_is_the_record_path(path, "jsonl", "simple", 2048)
    assert code == 2 and "propensity must be a positive finite real, got nan" in err


def test_lenient_jsonl_audits_record_by_record(tmp_path):
    """Any lenient JSONL line may warn, so a lenient JSONL audit never reads
    columns; lenient CSV, where only the header can warn, still does."""
    path = tmp_path / "audit.jsonl"
    path.write_text(_jsonl(*({**row, "note": 1} for row in _REJECTING)))
    with mock.patch.object(columns, "parse_columns", side_effect=AssertionError("read as columns")):
        code, _, _, shown = _assert_column_audit_is_the_record_path(path, "jsonl", "simple", 2048, lenient=True)
    assert code == 1 and len(shown) == 2 * 9
    path = tmp_path / "audit.csv"
    path.write_text("t,group,y_hat,note\n" + "".join(f"{r['t']},{r['group']},{r['y_hat']},x\n" for r in _REJECTING))
    with mock.patch.object(columns, "parse_columns", wraps=columns.parse_columns) as parse:
        code, _, _, shown = _assert_column_audit_is_the_record_path(path, "csv", "simple", 2048, lenient=True)
    assert code == 1 and len(shown) == 1
    assert parse.call_count == 1


def test_column_audit_reads_past_its_stop_without_failing(tmp_path):
    """Undecodable bytes that parse_stream never reaches, because the audit
    stops first, are not an error, though the chunk reader reads them."""
    path = tmp_path / "audit.jsonl"
    tail = ({"t": t, "group": g, "y_hat": 0.5} for t in range(10, 400) for g in (0, 1))
    path.write_bytes(_jsonl(*_REJECTING, *tail).encode() + b"\xff\n")  # far past what is decoded at once
    assert _assert_column_audit_is_the_record_path(path, "jsonl", "simple", 2048)[0] == 1
    path.write_bytes(_jsonl(*_REJECTING).encode() + b"\xff\n")
    code, _, err, _ = _assert_column_audit_is_the_record_path(path, "jsonl", "simple", 2048)
    assert code == 2 and "codec can't decode" in err


@pytest.mark.parametrize(
    "rows, flags, message",
    [
        # No weight fields: the propensity audit refuses step 1.
        (_REJECTING, ["--strategy", "propensity", "--scale", "0.25"], "lacks propensity"),
        (_REJECTING[:1] + [{"t": 1, "group": 5, "y_hat": 0.5}], [], "group 5 out of range"),
        # Step 3 holds a weight of 4, too heavy for the scale: the payoff's check refuses it.
        ([{**row, "propensity": 0.5, "density": 0.5} for row in _REJECTING[:4]]
         + [{"t": 3, "group": g, "y_hat": 0.5, "propensity": 0.25, "density": 1.0} for g in (0, 1)],
         ["--strategy", "propensity", "--scale", "0.25"], "corrective scale 0.25 exceeds 1/(2w)"),
        # A clean first chunk, then a malformed line that ends the second.
        ([{"t": t, "group": g, "y_hat": 0.5} for t in range(1, 1100) for g in (0, 1)] + ['{"t": 1'],
         [], "line 2199: invalid JSON"),
    ],
    ids=["missing-weights", "group-range", "payoff-check", "malformed-line-in-a-later-chunk"],
)
def test_column_audit_closes_its_file_when_pairing_fails(tmp_path, capsys, rows, flags, message):
    """An error raised while reading, pairing or checking a step must not
    keep the input open until gc runs: the error's traceback holds the
    frames that hold the chunks."""
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("needs /proc/self/fd")
    path = tmp_path / "audit.jsonl"
    path.write_text(_jsonl(*rows))
    gc.disable()
    try:
        before = len(list(fds.iterdir()))
        assert main(["audit", str(path), *flags]) == 2
        after = len(list(fds.iterdir()))
    finally:
        gc.enable()
    assert after == before
    assert message in capsys.readouterr().err


def test_live_audit_decides_before_stdin_closes():
    """A monitor reading stdin must decide at the record that crosses the
    threshold, not when a chunk of input fills or the stream ends."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "seqaudit", "audit", "-", "--alpha", "0.05"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
    )
    try:
        for t in range(1, 10):
            proc.stdin.write(json.dumps({"t": t, "group": 0, "y_hat": 1.0}) + "\n")
            proc.stdin.write(json.dumps({"t": t, "group": 1, "y_hat": 0.0}) + "\n")
        proc.stdin.flush()
        code = proc.wait(timeout=10)  # stdin stays open
        doc = json.loads(proc.stdout.read())
    finally:
        proc.kill()
        proc.stdin.close()
        proc.stdout.close()
        proc.stderr.close()
    assert code == 1
    assert doc["decision"]["tau"] == 9


def test_column_audit_backlog_stays_small(tmp_path):
    """A flood from one group waits as floats, not as records."""
    path = tmp_path / "flood.jsonl"
    lines = [f'{{"t": {t}, "group": 0, "y_hat": 0.5}}\n' for t in range(1, 100_001)]
    path.write_text("".join(lines) + '{"t": 1, "group": 1, "y_hat": 0.5}\n')
    del lines
    config = AuditConfig(alpha=0.05)
    tracemalloc.start()
    try:
        report = run_columns(config, columns.parse_columns(path), record_trajectory=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.decision.kind is DecisionKind.CONTINUE
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize(
    "strategy, per_record", [(Simple(), 48), (Propensity(scale=0.25), 128)], ids=["simple", "propensity"]
)
def test_record_audit_backlog_holds_only_the_waiting_records(strategy, per_record):
    """A flood from one group, read line by line as stdin is, waits in the
    session's queues as the values its steps read and nothing more: a
    float output each under simple (at most 48 B), an (output, weight)
    pair of floats each under propensity (at most 128 B)."""
    waiting = 100_000
    line = '{{"t": {}, "group": {}, "y_hat": 0.5, "propensity": 0.5, "density": 0.25}}\n'
    stream = io.StringIO("".join(line.format(t, 0) for t in range(1, waiting + 1)) + line.format(1, 1))
    tracemalloc.start()
    try:
        report = run_stream(AuditConfig(alpha=0.05, strategy=strategy), ingest.parse_stream(stream),
                            record_trajectory=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.decision.kind is DecisionKind.CONTINUE
    assert peak <= per_record * waiting, peak / waiting


def test_column_audit_checks_groups_against_the_audit(tmp_path):
    """The engine holds the group count: a group outside the audit's stops
    the column audit after the steps before it, as on the record path, and
    a file of three groups parses for a three-group audit."""
    t, group = np.array([1, 1, 2]), np.array([0, 1, 5])
    cols = RecordColumns(t, group, np.full(3, 0.5), *(np.full(3, math.nan) for _ in range(3)))
    with pytest.raises(ValidationError, match="group 5 out of range for 2 groups"):
        run_columns(AuditConfig(alpha=0.05), [cols])
    path = tmp_path / "three.jsonl"
    path.write_text(_jsonl(*({"t": t, "group": g, "y_hat": g / 2} for t in range(1, 40) for g in range(3))))
    config = AuditConfig(alpha=0.05, group_count=3)
    report = run_columns(config, columns.parse_columns(path))
    with open(path, encoding="utf-8") as fh:
        assert report == run_stream(config, ingest.parse_stream(fh))
    assert report.decision.kind is DecisionKind.REJECT


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_batched_audit_checks_groups_as_every_audit_does(tmp_path, monkeypatch, capsys, stdin):
    """A group outside the batched audit's two stops it with the error every
    audit gives, once the steps of the records before it have run."""
    rows = [{"t": 1, "group": 0, "y_hat": 0.9}, {"t": 2, "group": 0, "y_hat": 0.7},
            {"t": 1, "group": 1, "y_hat": 0.1}, {"t": 1, "group": 2, "y_hat": 0.5},
            {"t": 3, "group": 0, "y_hat": 0.5}]
    path = tmp_path / "audit.jsonl"
    path.write_text(_jsonl(*rows))
    if stdin:
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    argv = ["audit", "-" if stdin else str(path), "--strategy", "batched"]
    with mock.patch.object(engine, "session_step", wraps=engine.session_step) as step:
        assert main(argv) == 2
    assert step.call_count == 4
    assert capsys.readouterr() == ("", "error: group 2 out of range for 2 groups\n")


@pytest.mark.parametrize("chunk", [1, 2])
def test_column_audit_keeps_time_order_across_chunks(tmp_path, chunk):
    """A chunk the vectorised checks clear hands its last time indices on
    to the chunks after it."""
    path = tmp_path / "audit.jsonl"
    path.write_text(_jsonl(*({"t": t, "group": 0, "y_hat": 0.5} for t in (1, 2, 2))))
    code, _, err, _ = _assert_column_audit_is_the_record_path(path, "jsonl", "simple", chunk)
    assert code == 2 and "line 3: time index 2 not increasing for group 0" in err


def _concatenated(chunks) -> list[bytes]:
    return [np.concatenate(col).tobytes() for col in zip(*chunks)]


def _scalar_records(path) -> list[AuditRecord]:
    """parse_stream's records of a file read as a text stream, which the
    scalar code parses line by line."""
    with open(path, encoding="utf-8") as fh:
        return list(ingest.parse_stream(fh))


def test_clean_chunks_skip_the_scalar_code(tmp_path):
    """A chunk whose lines all have its first line's layout, blank lines
    aside, never reaches the per-line code; a chunk with one line the
    vectorised checks cannot clear, or with lines of two layouts, goes
    through it whole, and the chunks around it do not.  Five keys, two of
    them holding an ``e``, and values written with exponents (repr writes
    any float below 1e-4 so) stay on the column route, and CRLF bytes of
    the same records give the same columns, bit for bit parse_stream's, as
    do the same bytes without the last line's newline."""
    lines = []
    for t in range(1, 3001):
        lines += [json.dumps({"t": t, "group": g, "y_hat": 0.5}) for g in (0, 1)]
        if t % 50 == 0:
            lines.append("")
    path = tmp_path / "clean.jsonl"
    config = AuditConfig(alpha=0.05)
    first = columns.CHUNK_LINES + 1  # the second chunk's first line
    assert len(lines) + 1 > 2 * columns.CHUNK_LINES
    line = lines[first + 99]
    assert line.startswith('{"t": ')
    t_as_float = line.replace(", ", ".0, ", 1)  # t as 2.0, say
    reordered = json.dumps(dict(reversed(json.loads(line).items())))  # a second layout
    for edit in (None, t_as_float, reordered):
        path.write_text("\n".join(lines[: first + 99] + [edit or line] + lines[first + 100 :]) + "\n\n")
        with mock.patch.object(ingest, "_jsonl_record", wraps=ingest._jsonl_record) as scalar:
            report = run_columns(config, columns.parse_columns(path))
        with open(path, encoding="utf-8") as fh:
            assert report == run_stream(config, ingest.parse_stream(fh))
        assert report.decision.kind is DecisionKind.CONTINUE
        if edit is None:
            assert scalar.call_count == 0
        else:
            numbers = [call.args[1] for call in scalar.call_args_list]
            assert numbers == [n for n in range(first, first + columns.CHUNK_LINES) if lines[n - 1]]

    rng = random.Random(7)
    path = tmp_path / "weighted.jsonl"
    path.write_text("".join(
        f'{{"t": {t}, "group": {g}, "y_hat": {rng.choice([2.5e-05, 0.5, 1e-7, 1.0])!r}, '
        f'"propensity": {rng.choice([0.25, 3e-05]):{rng.choice(["e", "E", ""])}}, '
        f'"density": {rng.choice([1e-300, 0.75, 1e300])!r}}}\n'
        for t in range(1, 2500) for g in (0, 1)
    ))
    want = _concatenated([columns._record_columns(_scalar_records(path))])
    with mock.patch.object(ingest, "_jsonl_record", wraps=ingest._jsonl_record) as scalar:
        assert _concatenated(columns.parse_columns(path)) == want
        assert _concatenated(columns.parse_columns(path.read_bytes().replace(b"\n", b"\r\n"))) == want
        assert _concatenated(columns.parse_columns(path.read_bytes().removesuffix(b"\n"))) == want
    assert scalar.call_count == 0


def test_a_long_first_line_does_not_size_the_chunk_check(tmp_path):
    """A chunk's layout is its first line's: a first and last line padded
    with whitespace inside the object, around short lines of as many
    values, take memory in proportion to the chunk, not to the first
    line's length times the chunk's line count, and parse as
    parse_stream's records."""
    pad = " " * 2**16
    lines = [f'{{"t": {t},{pad if t in (1, columns.CHUNK_LINES) else ""} "group": 0, "y_hat": 0.5}}\n'
             for t in range(1, columns.CHUNK_LINES + 1)]
    path = tmp_path / "padded.jsonl"
    path.write_text("".join(lines))
    want = _concatenated([columns._record_columns(_scalar_records(path))])
    tracemalloc.start()
    try:
        got = _concatenated(columns.parse_columns(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 16 * 2**20, peak


# parse_stream of a path or bytes, input whole when the call is made, reads
# a chunk ahead by the column route; the same lines as a text stream, as
# stdin gives them, go through the scalar code line by line.


def _pulls(records) -> list:
    """What each pull of ``records`` gives, up to the first error: each
    record with the type of each field, then the error's type, message and
    line number."""
    pulls = []
    try:
        for record in records:
            pulls.append((record, tuple(map(type, record))))
    except Exception as exc:
        pulls.append((type(exc), str(exc), getattr(exc, "line_no", None)))
    return pulls


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    groups=st.sampled_from([2, 3]),
    faults=st.lists(st.sampled_from(_FAULTS), max_size=2),
    rate=st.sampled_from([0.1, 0.3]),
    chunk=st.sampled_from([1, 2, 3, 2048]),
    line_end=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
)
def test_record_files_parse_as_their_lines_do(
    tmp_path_factory, seed, groups, faults, rate, chunk, line_end, final_newline
):
    """parse_stream of a path gives pull for pull the records (each field
    of its own type: int t and group, None for an absent field) and the
    error (type, message and line number) of the same lines read as a text
    stream, and parse_stream of the file's bytes gives the path's: under
    each fault, in chunks whose lines mix layouts, with blank lines, CRLF
    or lone CR line ends or no final newline, and at any chunk size."""
    data = _audit_file(random.Random(seed), groups, "jsonl", faults, rate).encode()
    data = data.replace(b"\n", line_end.encode())
    if not final_newline:
        data = data.removesuffix(line_end.encode())
    path = tmp_path_factory.getbasetemp() / "records.jsonl"
    path.write_bytes(data)
    with mock.patch.object(columns, "CHUNK_LINES", chunk):
        with open(path, encoding="utf-8") as fh:
            assert _pulls(ingest.parse_stream(path)) == _pulls(ingest.parse_stream(fh))
        assert _pulls(ingest.parse_stream(data)) == _pulls(ingest.parse_stream(path))


def test_mixed_layout_files_give_their_records_without_columns(tmp_path):
    """parse_stream of a strict file or its bytes, whose chunks mix layouts
    (every 7th line's keys reversed), gives the scalar code's records as it
    reads them, those of the same lines as a text stream, and never builds
    columns from them."""
    rows = ({"t": t, "group": g, "y_hat": 0.5, "propensity": 0.5} for t in range(1, 3001) for g in (0, 1))
    path = tmp_path / "mixed.jsonl"
    path.write_text(_jsonl(*(dict(reversed(row.items())) if i % 7 == 0 else row for i, row in enumerate(rows))))
    with open(path, encoding="utf-8") as fh:
        want = _pulls(ingest.parse_stream(fh))
    with (
        mock.patch.object(columns, "_record_columns", side_effect=AssertionError("built columns")),
        mock.patch.object(ingest, "_jsonl_record", wraps=ingest._jsonl_record) as scalar,
    ):
        assert _pulls(ingest.parse_stream(path)) == want
        assert _pulls(ingest.parse_stream(path.read_bytes())) == want
    assert len(want) == scalar.call_count / 2 == 6000


def _column_bytes(cols) -> tuple:
    """A column chunk as each column's dtype and bytes."""
    return tuple((col.dtype.str, col.tobytes()) for col in cols)


@pytest.mark.parametrize("chunk", [1, 2, 3, 2048])
def test_undecodable_bytes_raise_where_the_path_raises_them(tmp_path, chunk):
    """4,000 clean records, then a byte that is not UTF-8: parse_stream and
    parse_columns of the bytes give, pull for pull, what they give of a
    file holding them: the records before the decode block of that byte,
    then UnicodeDecodeError."""
    rows = ({"t": t, "group": g, "y_hat": 0.5} for t in range(1, 2001) for g in (0, 1))
    data = _jsonl(*rows).encode() + b"\xff\n"
    path = tmp_path / "records.jsonl"
    path.write_bytes(data)
    with mock.patch.object(columns, "CHUNK_LINES", chunk):
        records = _pulls(ingest.parse_stream(data))
        assert records == _pulls(ingest.parse_stream(path))
        chunks = _pulls(map(_column_bytes, columns.parse_columns(data)))
        assert chunks == _pulls(map(_column_bytes, columns.parse_columns(path)))
    assert records[-1][0] is chunks[-1][0] is UnicodeDecodeError
    assert 0 < len(records) - 1 < 4000


def test_record_files_build_clean_chunks_without_the_scalar_code(tmp_path):
    """A clean file's path or bytes never reach the per-line code; the same
    lines as a text stream go through it once per line, to the same
    records."""
    path = tmp_path / "clean.jsonl"
    path.write_text(_jsonl(*({"t": t, "group": g, "y_hat": g / 2, "propensity": 0.25}
                             for t in range(1, 3000) for g in (0, 1))))
    with mock.patch.object(ingest, "_jsonl_record", wraps=ingest._jsonl_record) as scalar:
        from_path = list(ingest.parse_stream(path))
        from_bytes = list(ingest.parse_stream(path.read_bytes()))
        assert scalar.call_count == 0
        from_lines = _scalar_records(path)
    assert scalar.call_count == len(from_lines) == 2 * 2999
    assert _pulls(from_path) == _pulls(from_bytes) == _pulls(from_lines)


@pytest.mark.parametrize("chunk", [2, 2048])
@pytest.mark.parametrize(
    "data",
    [
        _jsonl(*_REJECTING, '{"t": 1').encode(),
        _jsonl(*_REJECTING, {"t": 10, "group": 0, "y_hat": 0.5, "note": 1}).encode(),
        _jsonl(*_REJECTING[:4], {"t": 3, "group": 0, "y_hat": 0.5, "note": 1}, *_REJECTING[4:]).encode(),
        _jsonl(*_REJECTING, *({"t": t, "group": g, "y_hat": 0.5} for t in range(10, 400) for g in (0, 1))).encode()
        + b"\xff\n",
        _jsonl(*_REJECTING).encode() + b"\xff\n",
        _jsonl(*({"t": t, "group": g, "y_hat": 0.5} for t in range(1, 1500) for g in (0, 1))).encode(),
    ],
    ids=["bad-json-past-the-stop", "unknown-key-past-the-stop", "unknown-key-before-the-stop",
         "undecodable-far-past-the-stop", "undecodable-in-the-first-block", "no-rejection"],
)
def test_batched_file_audit_is_its_stdin_audit(tmp_path, monkeypatch, data, chunk):
    """A batched audit of a file, read a chunk ahead, gives the exit code,
    stdout and stderr of the same bytes on stdin, read line by line: no
    error about a line past the rejecting record surfaces."""
    path = tmp_path / "audit.jsonl"
    path.write_bytes(data)
    flags = ["--strategy", "batched", "--alpha", "0.05"]
    with mock.patch.object(columns, "CHUNK_LINES", chunk):
        from_file = _audit_outcome(lambda out, err: main(["audit", str(path), *flags]))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert from_file == _audit_outcome(lambda out, err: main(["audit", "-", *flags]))
