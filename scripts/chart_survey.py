#!/usr/bin/env python3
"""Survey the fixed-rank charts over a grid of shapes and ranks.

For each (rows, cols, rank) the forward chart must land in the tangent
slice, round-trip to the identity, and send slice elements back to operators
of the base rank; curve velocities must span exactly the slice.

    python3 scripts/chart_survey.py [--samples 100] [--seed 0]
    python3 scripts/chart_survey.py --shape 200 200 10 [--samples 100] [--seed 0]

    python3 scripts/chart_survey.py --shape 200 200 10 --phases

With ``--shape M N K`` it runs one ``oblique chart`` at that shape instead,
on the survey's rank-K operator written to a file, with the default
``--curves`` (the slice dimension + 6), and prints the command's wall time
and the peak resident set size of the process (``resource.getrusage``).
``--phases`` runs the command's three phases in process instead, on the
same operator and with the same samples, point and curves, and prints the
wall time of each: ``operator_context``, ``fixed_rank_chart_check`` and
``tangency_fixed_rank`` (which holds the span's Gram matrix and Cholesky
factorization).
"""

import argparse
import json
import resource
import tempfile
import time
from pathlib import Path

from oblique import fixed_rank_chart_check, operator_context, tangency_fixed_rank
from oblique.cli import main as oblique_main
from oblique.geninv import trial_rng
from oblique.matio import matrix_to_dict
from oblique.opmanifold import sample_fixed_rank_near
from oblique.suites import random_rank_matrix

HEADER = f"{'shape':>8} {'rank':>4} {'dim':>4} {'round trip':>12} {'rank fails':>10} {'tangency':>10} {'span':>5}"


def row(m, n, k, dim, round_trip, rank_failures, tangency, span, expected) -> str:
    return (
        f"{f'{m}x{n}':>8} {k:>4} {dim:>4} {round_trip:>12.2e} "
        f"{rank_failures:>10} {tangency:>10.2e} {span:>3}/{expected}"
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kilobytes on Linux


def one_chart(m: int, n: int, k: int, samples: int, seed: int) -> None:
    """``oblique chart --a A --samples S --seed SEED`` on the survey's operator."""
    a = random_rank_matrix(trial_rng(seed, m, n, k), m, n, k)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "a.json", Path(tmp) / "chart.json"
        path.write_text(json.dumps(matrix_to_dict(a)))
        start = time.perf_counter()
        code = oblique_main(["chart", "--a", str(path), "--samples", str(samples), "--seed", str(seed), "--out", str(out)])
        wall = time.perf_counter() - start
        rep = json.loads(out.read_text()) if code == 0 else None
    if rep is not None:
        print(HEADER)
        print(row(m, n, k, rep["m0_dim"], rep["round_trip_max"], rep["rank_failures"],
                  rep["tangency_residual"], rep["tangent_span_dim"], rep["expected_dim"]))
    print(f"exit {code}  wall {wall:.2f} s  peak RSS {peak_rss_mb():.0f} MB")


def chart_phases(m: int, n: int, k: int, samples: int, seed: int) -> None:
    """The phases of ``one_chart``'s command, each timed in process."""
    a = random_rank_matrix(trial_rng(seed, m, n, k), m, n, k)
    times = {}
    start = time.perf_counter()
    ctx = operator_context(a)
    times["operator_context"] = time.perf_counter() - start
    start = time.perf_counter()
    rep = fixed_rank_chart_check(ctx, samples=samples, seed=seed)
    times["fixed_rank_chart_check"] = time.perf_counter() - start
    x = sample_fixed_rank_near(ctx, trial_rng(seed, 999))  # the command's point
    start = time.perf_counter()
    tan = tangency_fixed_rank(ctx, x, curves=ctx.dim + 6, seed=seed)
    times["tangency_fixed_rank"] = time.perf_counter() - start
    print(HEADER)
    print(row(m, n, k, rep.m0_dim, rep.round_trip_max, rep.rank_failures,
              tan.max_residual, tan.tangent_span_dim, tan.expected_dim))
    for name, wall in times.items():
        print(f"{name:>22}  {wall:.3f} s")
    print(f"peak RSS {peak_rss_mb():.0f} MB")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shape", type=int, nargs=3, metavar=("M", "N", "K"), help="run one chart at this shape")
    parser.add_argument("--phases", action="store_true", help="with --shape: time the chart's phases in process")
    args = parser.parse_args()
    if args.phases and not args.shape:
        parser.error("--phases needs --shape")
    if args.shape:
        (chart_phases if args.phases else one_chart)(*args.shape, args.samples, args.seed)
        return

    shapes = [(m, n, k) for m in (2, 3, 4) for n in (2, 3, 5) for k in range(1, min(m, n) + 1)]
    print(HEADER)
    for m, n, k in shapes:
        rng = trial_rng(args.seed, m, n, k)
        ctx = operator_context(random_rank_matrix(rng, m, n, k))
        rep = fixed_rank_chart_check(ctx, samples=args.samples, seed=args.seed)
        x = sample_fixed_rank_near(ctx, rng)
        tan = tangency_fixed_rank(ctx, x, curves=ctx.dim + 6, seed=args.seed)
        print(row(m, n, k, rep.m0_dim, rep.round_trip_max, rep.rank_failures,
                  tan.max_residual, tan.tangent_span_dim, tan.expected_dim))


if __name__ == "__main__":
    main()
