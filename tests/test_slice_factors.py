"""The fixed-rank chart path from SVD factors: slice directions without the
(mn) x dim basis, a context that never builds that basis on the chart path,
and tangency curves evaluated in stacked blocks."""

import json
import re

import numpy as np
import pytest

from oblique import (
    BallError,
    chart_d,
    chart_d_star,
    fixed_rank_chart_check,
    op_norm,
    operator_context,
    perturbed_gi,
    rank_of,
    tangency_fixed_rank,
)
from oblique import cli, opmanifold
from oblique.config import DEFAULTS
from oblique.geninv import trial_rng
from oblique.linalg import svd_factors, unit
from oblique.matio import matrix_to_dict
from oblique.opmanifold import _slice_directions, sample_fixed_rank_near, unvec
from oblique.suites import random_rank_matrix

# (m, n, k): m < n and m > n, k = 1 and k = min(m, n) (no U_perp or no V_N)
SHAPES = [(3, 5, 1), (5, 3, 1), (3, 5, 2), (5, 3, 2), (3, 5, 3), (5, 3, 3), (4, 4, 4), (6, 4, 2)]


@pytest.mark.parametrize("m, n, k", SHAPES)
def test_slice_directions_match_the_tangent_basis(m, n, k):
    ctx = operator_context(random_rank_matrix(trial_rng(1, m, n, k), m, n, k))
    assert ctx.dim == ctx.m0.dim == m * n - (m - k) * (n - k)
    g = trial_rng(2, m, n, k).standard_normal((7, ctx.dim))
    stacked = _slice_directions(ctx, g)
    assert stacked.shape == (7, m, n)
    for row, got in zip(g, stacked):
        want = unvec(ctx.m0.basis @ row, m, n)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.linalg.norm(row)
        single = _slice_directions(ctx, row[None])
        assert single.shape == (1, m, n)
        assert np.max(np.abs(single[0] - want)) <= 1e-14 * np.linalg.norm(row)


def test_chart_path_never_builds_the_tangent_basis(tmp_path, monkeypatch):
    ctx = operator_context(random_rank_matrix(trial_rng(3, 0), 6, 5, 2))
    fixed_rank_chart_check(ctx, samples=5, seed=1)
    x = sample_fixed_rank_near(ctx, trial_rng(3, 1))
    tangency_fixed_rank(ctx, x, curves=ctx.dim + 6, seed=1)
    assert "m0" not in ctx.__dict__

    contexts = []
    monkeypatch.setattr(cli, "operator_context", lambda a: contexts.append(operator_context(a)) or contexts[-1])
    path = tmp_path / "a.json"
    path.write_text(json.dumps(matrix_to_dict(ctx.a)))
    assert cli.main(["chart", "--a", str(path), "--samples", "5", "--out", str(tmp_path / "out.json")]) == 0
    assert json.loads((tmp_path / "out.json").read_text())["m0_dim"] == ctx.dim
    assert len(contexts) == 1 and "m0" not in contexts[0].__dict__


def _tangency_reference(ctx, x, curves, seed):
    """The per-curve loop the stacked tangency check replaces, directions
    drawn through the (mn) x dim basis."""
    m, n, k = ctx.m, ctx.n, ctx.rank
    perturbed_gi(ctx.a, ctx.ainv, x)
    f = svd_factors(x, DEFAULTS.rank_tol)
    t0 = chart_d(ctx, x)
    h = 1e-6 * (1.0 + op_norm(t0))
    worst, velocities = 0.0, []
    for j in range(curves):
        dt = unvec(ctx.m0.basis @ unit(trial_rng(seed, j).standard_normal(ctx.m0.dim)), m, n)
        plus = chart_d_star(ctx, t0 + h * dt)
        minus = chart_d_star(ctx, t0 - h * dt)
        velocity = (plus - minus) / (2.0 * h)
        speed = float(np.linalg.norm(velocity))
        if speed == 0.0:
            continue
        defect = np.linalg.norm(f.cokernel.basis.T @ velocity @ f.kernel.basis)
        worst = max(worst, float(defect) / speed)
        velocities.append(velocity.ravel())
    span = rank_of(np.column_stack(velocities), 1e-6) if velocities else 0
    return worst, span, m * n - (m - k) * (n - k)


@pytest.mark.parametrize("small_blocks", [False, True])
@pytest.mark.parametrize("m, n, k", SHAPES)
def test_stacked_tangency_matches_the_per_curve_loop(monkeypatch, small_blocks, m, n, k):
    if small_blocks:  # three curves per block, so blocks end mid-run
        monkeypatch.setattr(opmanifold, "_BLOCK_BYTES", 3 * 16 * m * n)
    ctx = operator_context(random_rank_matrix(trial_rng(4, m, n, k), m, n, k))
    x = sample_fixed_rank_near(ctx, trial_rng(4, 1))
    curves = ctx.dim + 4
    worst, span, expected = _tangency_reference(ctx, x, curves, seed=9)
    rep = tangency_fixed_rank(ctx, x, curves=curves, seed=9)
    assert (rep.tangent_span_dim, rep.expected_dim, rep.curves) == (span, expected, curves)
    assert abs(rep.max_residual - worst) <= 1e-12


@pytest.mark.parametrize("block_bytes", [None, 2 * 16 * 9])
def test_curve_outside_the_chart_region_raises_the_reference_error(monkeypatch, block_bytes):
    if block_bytes is not None:  # two curves per block
        monkeypatch.setattr(opmanifold, "_BLOCK_BYTES", block_bytes)
    # X = A + diag(0, s, 0) is its own chart image, ||(X - A) A+|| = s lies
    # 1e-4 inside the region's edge, and a curve step h ~ 1e-3 leaves it.  The
    # first curve to leave does so on its minus side, a later one on its plus
    # side, so the error names the curve checked first.
    a = np.diag([1e3, 1.0, 0.0])
    ctx = operator_context(a)
    x = a + np.diag([0.0, 1.0 - 1e-4, 0.0])
    with pytest.raises(BallError) as want:
        _tangency_reference(ctx, x, 8, seed=0)
    assert re.fullmatch(r"\|\|\(X - A\) A\+\|\| = 1\.000\d+ >= 1: outside the chart region", str(want.value))
    with pytest.raises(BallError, match=re.escape(str(want.value))):
        tangency_fixed_rank(ctx, x, curves=8, seed=0)
