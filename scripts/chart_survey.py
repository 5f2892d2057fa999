#!/usr/bin/env python3
"""Survey the fixed-rank charts over a grid of shapes and ranks.

For each (rows, cols, rank) the forward chart must land in the tangent
slice, round-trip to the identity, and send slice elements back to operators
of the base rank; curve velocities must span exactly the slice.
"""

import argparse

from oblique import fixed_rank_chart_check, operator_context, tangency_fixed_rank
from oblique.geninv import trial_rng
from oblique.opmanifold import sample_fixed_rank_near
from oblique.suites import random_rank_matrix


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    shapes = [(m, n, k) for m in (2, 3, 4) for n in (2, 3, 5) for k in range(1, min(m, n) + 1)]
    print(f"{'shape':>8} {'rank':>4} {'dim':>4} {'round trip':>12} {'rank fails':>10} {'tangency':>10} {'span':>5}")
    for m, n, k in shapes:
        rng = trial_rng(args.seed, m, n, k)
        ctx = operator_context(random_rank_matrix(rng, m, n, k))
        rep = fixed_rank_chart_check(ctx, samples=args.samples, seed=args.seed)
        x = sample_fixed_rank_near(ctx, rng)
        tan = tangency_fixed_rank(ctx, x, curves=ctx.dim + 6, seed=args.seed)
        print(
            f"{f'{m}x{n}':>8} {k:>4} {rep.m0_dim:>4} {rep.round_trip_max:>12.2e} "
            f"{rep.rank_failures:>10} {tan.max_residual:>10.2e} "
            f"{tan.tangent_span_dim:>3}/{tan.expected_dim}"
        )


if __name__ == "__main__":
    main()
