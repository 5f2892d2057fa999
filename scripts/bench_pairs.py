#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs.

    python3 scripts/bench_pairs.py --pr 11 --summary "what the change does" \\
        --claim circle-line:wall_s:-20 [--parent REV] [--change REV] \\
        [--workload circle-line=11-20 ...] [--seconds 25] [--identity TEXT]

Both commits are exported with ``git archive`` into a temporary directory, so
each side runs from a fresh copy of its committed files (uncommitted edits are
not measured).  For every seed of every workload the two sides run
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` one
after the other; the side that runs first alternates from seed to seed.  The
pair table is written to ``BENCH_<pr>.json`` at the root of the repository:
per workload and end-to-end metric the medians and inclusive quartiles of
both sides, the relative change of the medians, the parent's quartile
distance over its median, the pairs won and lost, and every run.

``--claim W:M:P`` names the claimed gain.  It is met when metric M of
workload W moves by at least P percent (negative for a fall) in the median,
the change wins at least nine tenths of the pairs, and the gap between the
medians exceeds the distance between the parent's quartiles.  The script
only reads ``perfbench/`` and ``BENCHMARK.json``; it changes neither.  The
runs are serial: one benchmark process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# seeds of each workload by default: ten pairs each, five for the slow conditions runs
DEFAULT_SEEDS = {
    "sphere-lattice": range(1, 11),
    "circle-line": range(11, 21),
    "fixed-rank-chart": range(21, 31),
    "conditions": range(31, 36),
}
SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
METHOD = (
    "parent commit and change each run from a fresh copy of their committed files (git archive) with identical "
    "perfbench/ code; one pair per seed, alternating which side runs first; times are perfbench's reference "
    "seconds (each pass rescaled by its calibration kernel); quartiles are inclusive-method quartiles over the "
    "runs; a pair is won when the change reads better, ties count for neither side"
)


def export(rev: str, dest: Path) -> Path:
    """The committed files of ``rev`` unpacked into ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    with tempfile.TemporaryFile() as tmp:
        tmp.write(archive)
        tmp.seek(0)
        with tarfile.open(fileobj=tmp) as tar:
            tar.extractall(dest, filter="data")
    return dest


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run: (its result line, its summary line)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True).stdout.splitlines()
    summary = next(json.loads(line[len("summary ") :]) for line in out if line.startswith("summary "))
    return json.loads(out[-1]), summary


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def metric_table(runs: dict, unit: str, better: str) -> dict:
    """Medians, quartiles and won pairs of one metric over paired runs."""
    stats = {side: quartiles(runs[side]) for side in SIDES}
    parent, change = stats["parent"], stats["change"]
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0 for p, c in zip(runs["parent"], runs["change"]))
    lost = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
    return {
        "unit": unit,
        **stats,
        "change_vs_parent": round((change["median"] - parent["median"]) / parent["median"], 4),
        "parent_quartile_spread": round((parent["q3"] - parent["q1"]) / parent["median"], 4),
        "pairs_won": won,
        "pairs_lost": lost,
        "runs": runs,
    }


def bench_workload(checkouts: dict, workload: str, seeds, seconds: float, better: dict) -> tuple[dict, dict]:
    """Alternating pairs over ``seeds``: (the workload's table, one summary line)."""
    results = {side: [] for side in SIDES}
    first, counts = {}, {}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first[str(seed)] = order[0]
        for side in order:
            result, summary = run_bench(checkouts[side], workload, seed, seconds)
            results[side].append(result)
            print(f"{workload} seed {seed} {side}: " + json.dumps(result["metrics"]), file=sys.stderr)
        counts[str(seed)] = {side: [results[side][-1]["attempted"], results[side][-1]["failed"]] for side in SIDES}
    names = results["parent"][0]["metrics"]
    metrics = {
        name: metric_table(
            {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES},
            names[name]["unit"],
            better[name],
        )
        for name in names
    }
    table = {
        "seeds": list(seeds),
        "pairs": len(seeds),
        "first_side_by_seed": first,
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
        "attempted_failed_by_seed": counts,
        "metrics": metrics,
    }
    return table, summary


def judge(claim: str, workloads: dict) -> dict:
    """The claimed gain ``W:M:P`` against the measured table."""
    workload, metric, percent = claim.split(":")
    row = workloads[workload]["metrics"][metric]
    parent, change = row["parent"]["median"], row["change"]["median"]
    target = float(percent) / 100.0
    gap, spread = abs(change - parent), row["parent"]["q3"] - row["parent"]["q1"]
    moved = row["change_vs_parent"] <= target if target < 0 else row["change_vs_parent"] >= target
    result = (
        f"{parent:.6g} {row['unit']} -> {change:.6g} {row['unit']} ({100 * row['change_vs_parent']:+.1f} %), "
        f"change won {row['pairs_won']}/{len(row['runs']['parent'])} pairs; median gap {gap:.3g} {row['unit']} "
        f"against a parent quartile distance of {spread:.3g} {row['unit']}"
    )
    met = moved and row["pairs_won"] >= 0.9 * len(row["runs"]["parent"]) and gap > spread
    return {"workload": workload, "metric": metric, "target": f"{float(percent):+g} %", "result": result, "met": met}


def parse_workload(text: str) -> tuple[str, range]:
    name, _, seeds = text.partition("=")
    first, _, last = seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"{text!r}: quartiles need at least two seeds")
    return name, seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--summary", required=True, help="one sentence on what the change does")
    parser.add_argument("--claim", required=True, help="WORKLOAD:METRIC:PERCENT, e.g. circle-line:wall_s:-20")
    parser.add_argument("--change", default="HEAD", help="commit of the change (default HEAD)")
    parser.add_argument("--parent", help="commit to compare against (default: the change's first parent)")
    parser.add_argument("--workload", action="append", type=parse_workload,
                        help="NAME=FIRST-LAST seeds; repeatable (default: all four workloads)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--identity", help="how output identity was checked, recorded as given")
    args = parser.parse_args(argv)

    plan = dict(args.workload) if args.workload else DEFAULT_SEEDS
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent = args.parent or f"{args.change}^"
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: export(rev, Path(tmp) / side) for side, rev in zip(SIDES, (parent, args.change))}
        workloads, machine = {}, None
        for name, seeds in plan.items():
            workloads[name], machine = bench_workload(checkouts, name, seeds, args.seconds, better)
    info = machine["machine"]
    report = {
        "change": args.summary,
        "command": COMMAND.format(seconds=args.seconds),
        "method": METHOD,
        "machine": f"{info['nproc']}-core {info['machine']}, BLAS pinned to one thread by perfbench, "
        f"numpy {info['numpy']}, Python {info['python']}",
        "claim": judge(args.claim, workloads),
        **({"identity": args.identity} if args.identity else {}),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{out.name}: {report['claim']['result']}; met: {report['claim']['met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
