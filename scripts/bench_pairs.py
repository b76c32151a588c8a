#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts of this repository.

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``,
with T the ``run_seconds`` of the change's BENCHMARK.json, alternately in
a parent and a change checkout, for seeds 1..N: the parent runs first on
odd seeds and the change first on even ones, so a drift in the host's
speed falls on both sides alike.  Prints, for each end-to-end
metric of BENCHMARK.json, each side's median and quartiles, the ratio of
the medians (change / parent), and the pairs the change wins; a tie counts
for neither side.  Next to the table it prints each checkout's source size,
the total of ``wc -l src/seqaudit/*.py``.  With ``--out FILE`` it also
writes all of that as JSON: each side's per-seed metrics and the
environment line ``run.py`` printed with them, each metric's medians,
quartiles, ratio and wins, and both checkouts' source sizes and git
revisions (``git describe --always --dirty``), under the workload's
name in FILE's ``workloads``, so runs of several workloads with one FILE
gather in it.  Exits non-zero when a run fails or reports a failed
operation.

After the pairs it makes three ``--trace 1`` runs of seed 1 per checkout,
alternating which checkout runs first, and prints each side's median of
every per-layer metric with its range over the three runs: one traced run
swings too far to compare.  With ``--out`` each side's runs, and each
metric's median, min and max, go under the workload's ``trace`` in FILE.

With ``--tier1 N`` it also times the literal Tier-1 command of ROADMAP.md
N times in each checkout, alternating which runs first, and prints each
side's median wall seconds with pytest's passed, failed and error counts
(an error is, for one, a test module that failed to import); with
``--out`` each run's wall seconds, counts and exit code go under
``tier1`` in FILE.  ``--workload`` and ``--pairs`` may then be left out.

With ``--startup N`` it also times N fresh interpreters in each checkout,
alternating which runs first, for each of two commands: ``python -c
"import seqaudit.cli"`` (what perfbench's ``setup_s`` times) and ``python
-m seqaudit audit -`` with the change's ``tests/golden/audit_input.jsonl``
on stdin (a live audit's start-up), both with the checkout's ``src`` on
``PYTHONPATH``.  It prints each side's median wall seconds and quartiles,
the ratio of the medians and the runs the change wins, and with ``--out``
records them, with every run's wall seconds, under ``startup`` in FILE.
``--workload`` and ``--pairs`` may then be left out.

Given ``--change`` without ``--parent``, it runs seeds 1..N of the
workload, or the Tier-1 command N times, in that one checkout, and
prints and records the same per-run metrics, medians, quartiles, source
size and revision under ``change``, with no ratios or wins.

Each run writes only under its own checkout's ``.bench_work/``, where the
benchmark keeps its scratch files: byte code is not written
(``PYTHONDONTWRITEBYTECODE``), so each fresh interpreter compiles the
checkout's sources, on both sides alike.

Usage: python scripts/bench_pairs.py [--parent DIR] --change DIR
           [--workload W --pairs N] [--tier1 N] [--startup N] [--out FILE]
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

TRACED_RUNS = 3
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The metrics of one benchmark run in ``checkout`` with ``--trace
    trace``, end-to-end ones at 0 and per-layer ones at 1, and the
    environment ``run.py`` reported for it."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: run of {workload} seed {seed} in {checkout} failed "
                         f"(exit {proc.returncode}, {result.get('failed')} of {result.get('attempted')} "
                         "operations failed)")
    summary = json.loads(lines[-2])  # the line before the result holds the environment
    return {"seed": seed, "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "environment": summary["environment"]}


def tier1_once(checkout: Path) -> dict:
    """Wall seconds, pytest's passed, failed and error counts and the exit
    code of one run of the Tier-1 command in ``checkout``, under bash."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    proc = subprocess.run(["bash", "-c", TIER1], cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)s?\b", last[0])}
    return {"wall_s": wall, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0), "exit": proc.returncode}


def tier1_pairs(sides: dict[str, Path], n: int) -> dict:
    """``n`` Tier-1 runs in each checkout of ``sides``, the parent first on
    odd runs, with each side's median wall seconds."""
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(1, n + 1):
        for side in alternate(sides, i):
            runs[side].append(tier1_once(sides[side]))
            print(f"tier1 run {i} {side}: {runs[side][-1]}", flush=True)
    record = {}
    for side, checkout in sides.items():
        walls = [run["wall_s"] for run in runs[side]]
        record[side] = {"revision": revision(checkout), "runs": runs[side],
                        "wall_s": dict(zip(("q1", "median", "q3"), spread(walls)))}
    print(f"\ntier1, {n} runs each")
    for side in sides:
        passed = sorted({run["passed"] for run in runs[side]})
        failed = sorted({run["failed"] for run in runs[side]})
        errors = sorted({run["errors"] for run in runs[side]})
        print(f"{side:<7} wall s {cell(tuple(record[side]['wall_s'].values()))}  passed {passed}  failed {failed}"
              f"  errors {errors}")
    return record


def startup_once(checkout: Path, argv: list[str], stdin: bytes) -> float:
    """Wall seconds of one fresh interpreter running ``argv`` in ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, env=env, input=stdin, capture_output=True)
    wall = time.perf_counter() - start
    if proc.returncode not in (0, 1) or proc.stderr:
        sys.stderr.write(proc.stderr.decode())
        raise SystemExit(f"error: {argv} in {checkout} failed (exit {proc.returncode})")
    return wall


def startup_pairs(sides: dict[str, Path], n: int) -> dict:
    """``n`` fresh-interpreter runs of each start-up command in each
    checkout of ``sides``, the parent first on odd runs, with each side's
    median and quartiles, and the ratio and wins when a parent ran."""
    stdin = (sides["change"] / "tests" / "golden" / "audit_input.jsonl").read_bytes()
    commands = {
        "import_s": (["-c", "import seqaudit.cli"], b""),
        "stdin_audit_s": (["-m", "seqaudit", "audit", "-"], stdin),
    }
    walls = {name: {side: [] for side in sides} for name in commands}
    for i in range(1, n + 1):
        for side in alternate(sides, i):
            for name, (argv, data) in commands.items():
                walls[name][side].append(startup_once(sides[side], argv, data))
    record = {}
    print(f"\nstart-up, {n} fresh interpreters each")
    for name in commands:
        row = {side: {"runs": walls[name][side], **dict(zip(("q1", "median", "q3"), spread(walls[name][side])))}
               for side in sides}
        line = f"{name:<14}" + "".join(f" {side} {cell(spread(walls[name][side]))}" for side in sides)
        if "parent" in sides:
            row["ratio"] = row["change"]["median"] / row["parent"]["median"]
            row["wins"] = sum(c < p for p, c in zip(walls[name]["parent"], walls[name]["change"]))
            line += f"  ratio {row['ratio']:.3f}  wins {row['wins']}/{n}"
        print(line)
        record[name] = row
    return record


def alternate(sides: dict[str, Path], i: int) -> list[str]:
    """The order the sides run in on run ``i``: as given on odd runs,
    reversed on even ones."""
    return list(sides) if i % 2 else list(sides)[::-1]


def source_lines(checkout: Path) -> int:
    """The total of ``wc -l src/seqaudit/*.py`` in ``checkout``: its newlines."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "seqaudit").glob("*.py"))


def revision(checkout: Path) -> str | None:
    """``git describe --always --dirty`` of ``checkout``, or None outside git."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="leave out to run the change alone, with no ratios or wins")
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int)
    ap.add_argument("--tier1", type=int, metavar="N", help="also time the Tier-1 command N times per checkout")
    ap.add_argument("--startup", type=int, metavar="N",
                    help="also time N fresh start-ups per checkout of the import and of a stdin audit")
    ap.add_argument("--out", type=Path, help="JSON file to write the runs and the table into")
    args = ap.parse_args()
    if args.workload is None and args.tier1 is None and args.startup is None:
        ap.error("give --workload and --pairs, --tier1 or --startup")
    if args.workload is not None and (args.pairs is None or args.pairs < 1):
        ap.error("--pairs must be at least 1")
    if args.tier1 is not None and args.tier1 < 1:
        ap.error("--tier1 must be at least 1")
    if args.startup is not None and args.startup < 1:
        ap.error("--startup must be at least 1")
    sides = {"change": args.change.resolve()}
    if args.parent is not None:
        sides = {"parent": args.parent.resolve(), **sides}
    record = json.loads(args.out.read_text()) if args.out is not None and args.out.exists() else {}
    if args.workload is not None:
        record.setdefault("workloads", {})[args.workload] = workload_pairs(sides, args)
    if args.tier1 is not None:
        record["tier1"] = tier1_pairs(sides, args.tier1)
    if args.startup is not None:
        record["startup"] = startup_pairs(sides, args.startup)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


def workload_pairs(sides: dict[str, Path], args: argparse.Namespace) -> dict:
    """``args.pairs`` alternating benchmark runs of ``args.workload`` in
    each checkout of ``sides``, printed as a table and returned as its
    record with the traced runs of each checkout; the ratio and wins of each
    metric only when a parent ran."""
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    paired = "parent" in sides

    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for seed in range(1, args.pairs + 1):
        order = alternate(sides, seed)
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, benchmark["run_seconds"], 0))
        job = {side: runs[side][-1]["metrics"].get("job_s") for side in order}
        print(f"seed {seed}: first {order[0]}, job_s {job}", flush=True)

    table = {}
    for name, direction in better.items():
        row = {"better": direction}
        for side in sides:
            row[side] = dict(zip(("q1", "median", "q3"), spread([run["metrics"][name] for run in runs[side]])))
        if paired:
            pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(runs["parent"], runs["change"])]
            p50, c50 = row["parent"]["median"], row["change"]["median"]
            row["ratio"] = c50 / p50 if p50 else float("nan")
            row["wins"] = sum(c < p if direction == "lower" else c > p for p, c in pairs)
        table[name] = row
    sizes = {side: source_lines(checkout) for side, checkout in sides.items()}

    print(f"\n{args.workload}, {args.pairs} {'pairs' if paired else 'runs'}")
    print(f"{'metric':<24}" + "".join(f" {side + ' median [q1, q3]':>34}" for side in sides)
          + (f" {'ratio':>7}  wins" if paired else ""))
    for name, row in table.items():
        cells = "".join(f" {cell(tuple(row[side].values())):>34}" for side in sides)
        print(f"{name:<24}{cells}" + (f" {row['ratio']:7.3f}  {row['wins']}/{args.pairs}" if paired else ""))
    print(f"{'source lines':<24}" + "".join(f" {sizes[side]:>34}" for side in sides))
    return {
        "pairs": args.pairs, "run_seconds": benchmark["run_seconds"],
        **{side: {"revision": revision(checkout), "source_lines": sizes[side], "runs": runs[side]}
           for side, checkout in sides.items()},
        "metrics": table,
        "trace": traced_runs(sides, args.workload, benchmark["run_seconds"]),
    }


def traced_runs(sides: dict[str, Path], workload: str, seconds: float, n: int = TRACED_RUNS) -> dict:
    """``n`` ``--trace 1`` runs of seed 1 of ``workload`` in each checkout of
    ``sides``, alternating which runs first, with each per-layer metric's
    median, min and max per side, printed side by side and returned."""
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(1, n + 1):
        for side in alternate(sides, i):
            runs[side].append(run_once(sides[side], workload, 1, seconds, 1))
    record = {}
    for side in sides:
        values = {name: [run["metrics"][name] for run in runs[side]] for name in runs[side][0]["metrics"]}
        record[side] = {"runs": runs[side], "metrics": {
            name: {"median": statistics.median(v), "min": min(v), "max": max(v)} for name, v in values.items()}}
    print(f"\n{workload}, {n} traced runs of seed 1 each: median [min, max]")
    print(f"{'layer metric':<32}" + "".join(f" {side:>32}" for side in sides))
    for name in record["change"]["metrics"]:
        cells = []
        for side in sides:
            m = record[side]["metrics"].get(name)
            cells.append(f"{m['median']:.4g} [{m['min']:.4g}, {m['max']:.4g}]" if m else "nan")
        print(f"{name:<32}" + "".join(f" {c:>32}" for c in cells))
    return record


if __name__ == "__main__":
    sys.exit(main())
