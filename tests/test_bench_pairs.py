"""The pair statistics of ``scripts/bench_pairs.py`` on synthetic runs; no
benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def table(parent, change, better="lower"):
    return bench_pairs.metric_table({"parent": parent, "change": change}, "s", better)


def test_metric_table_medians_quartiles_and_pairs():
    change = [p * 0.8 for p in PARENT[:9]] + [PARENT[9] * 1.1]
    row = table(PARENT, change)
    assert row["parent"] == {"median": 1.0, "q1": 0.99, "q3": 1.01}
    assert row["change"]["median"] == pytest.approx(0.804)  # (0.8 + 0.808) / 2
    assert row["change_vs_parent"] == pytest.approx(-0.196)
    assert row["parent_quartile_spread"] == pytest.approx(0.02)
    assert (row["pairs_won"], row["pairs_lost"]) == (9, 1)
    # higher is better: the same runs lose the nine pairs
    higher = table(PARENT, change, "higher")
    assert (higher["pairs_won"], higher["pairs_lost"]) == (1, 9)


@pytest.mark.parametrize(
    "factors, met",
    [
        ([0.8] * 10, True),
        ([0.8] * 9 + [1.1], True),               # 9/10 pairs won
        ([0.8] * 8 + [1.1, 1.1], False),         # 8/10
        ([0.9] * 10, False),                     # -10 %, short of -12 %
    ],
)
def test_judge_needs_the_move_the_pairs_and_the_gap(factors, met):
    workloads = {"w": {"metrics": {"wall_s": table(PARENT, [p * f for p, f in zip(PARENT, factors)])}}}
    verdict = bench_pairs.judge("w:wall_s:-12", workloads)
    assert verdict["met"] is met
    assert verdict["target"] == "-12 %"


def test_judge_needs_a_gap_wider_than_the_parent_quartiles():
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    row = table(parent, [p * 0.8 for p in parent])
    assert row["pairs_won"] == 10 and row["change_vs_parent"] <= -0.12
    assert not bench_pairs.judge("w:wall_s:-12", {"w": {"metrics": {"wall_s": row}}})["met"]


@pytest.mark.parametrize(
    "parent, change, better, verdict",
    [
        (PARENT, [p * 1.2 for p in PARENT], "lower", "within bound"),    # +20 % against a 25 % bound
        (PARENT, [p * 1.3 for p in PARENT], "lower", "worse"),
        (PARENT, [p * 0.7 for p in PARENT], "higher", "worse"),
        (PARENT, [p * 1.3 for p in PARENT], "higher", "within bound"),
        # the parent's quartiles spread by 0.5 of its median: no verdict on a small move
        ([1.0, 2.0] * 5, [1.1, 2.1] * 5, "lower", "unresolved"),
        # unless every run of the change reads better than every run of the parent
        ([1.0, 2.0] * 5, [0.5, 0.9] * 5, "lower", "within bound"),
        ([1.0, 2.0] * 5, [1.0, 1.9] * 5, "lower", "unresolved"),
    ],
)
def test_bound_verdict(parent, change, better, verdict):
    assert bench_pairs.bound_verdict(table(parent, change, better), better, 0.25) == verdict


def test_bound_verdicts_read_each_metric_bound():
    spec = {
        "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
        "ok_frac": {"name": "ok_frac", "better": "higher", "bound": 0.05},
    }
    ok = [1.0] * 10
    workloads = {
        "a": {"metrics": {"wall_s": table(PARENT, PARENT), "ok_frac": table(ok, [0.9] * 10, "higher")}},
        "b": {"metrics": {"wall_s": table(PARENT, [p * 2 for p in PARENT]), "ok_frac": table(ok, ok, "higher")}},
    }
    assert bench_pairs.bound_verdicts(workloads, spec) == {
        "a": {"wall_s": "within bound", "ok_frac": "worse"},
        "b": {"wall_s": "worse", "ok_frac": "within bound"},
    }


def test_main_without_a_claim_records_only_the_bound_verdicts(tmp_path, monkeypatch, capsys):
    # the two checkouts and the benchmark runs are faked: one workload whose
    # wall_s doubles and whose ok_frac holds
    (tmp_path / "BENCHMARK.json").write_text((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    ok = [1.0] * 10
    metrics = {"wall_s": table(PARENT, [p * 2 for p in PARENT]), "ok_frac": table(ok, ok, "higher")}
    machine = {"machine": {"nproc": 2, "machine": "x86_64", "numpy": "2", "python": "3"}}
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest)
    monkeypatch.setattr(bench_pairs, "bench_workload", lambda *args: ({"metrics": metrics}, machine))

    assert bench_pairs.main(["--pr", "0", "--summary", "s", "--workload", "w=1-2"]) == 0
    report = json.loads((tmp_path / "BENCH_0.json").read_text())
    assert report["claim"] is None
    assert report["bounds"] == {"w": {"wall_s": "worse", "ok_frac": "within bound"}}
    assert capsys.readouterr().out.splitlines() == ["BENCH_0.json: no claim", "w: wall_s worse"]
