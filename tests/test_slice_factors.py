"""The fixed-rank chart path from SVD factors: slice directions without the
(mn) x dim basis, a context that never builds that basis on the chart path,
and tangency curves evaluated in stacked blocks."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        monkeypatch.setattr(opmanifold, "_BLOCK_BYTES", 3 * 8 * (m * m + n * n))
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


# The span of the curve velocities is certified full by a shifted Cholesky
# factorization of its coordinates' Gram matrix, and left to rank_of where
# that factorization fails.


def _coordinates(seed, rows, cols, ratio, scale):
    """A rows x cols matrix with sigma_max = scale and sigma_min = ratio *
    scale, the singular values between them log-uniform."""
    rng = trial_rng(seed, rows, cols)
    q = min(rows, cols)
    u = np.linalg.qr(rng.standard_normal((rows, q)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, q)))[0]
    s = np.sort(np.exp(rng.uniform(np.log(ratio), 0.0, q)))[::-1]
    s[0], s[-1] = 1.0, ratio if q > 1 else 1.0
    return (u * (scale * s)) @ v.T


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    log_ratio=st.floats(-8.0, -4.0),
    log_scale=st.floats(-150.0, 150.0),
)
def test_a_certified_span_is_full_rank_for_rank_of(seed, rows, cols, log_ratio, log_scale):
    coords = _coordinates(seed, rows, cols, 10.0**log_ratio, 10.0**log_scale)
    want = rank_of(coords.T, 1e-6)
    gram = opmanifold._span_gram(coords.copy())
    if gram is not None and opmanifold._factorizes(gram):
        assert want == min(rows, cols) == len(gram)


def test_the_certificate_settles_spans_clear_of_the_cut_and_leaves_the_rest_to_rank_of():
    # sigma_min / sigma_max = 1e-4 is certified; at 1e-8 rank_of finds the span short
    for ratio, certified in ((1e-4, True), (1e-8, False)):
        coords = _coordinates(5, 36, 30, ratio, 1.0)
        gram = opmanifold._span_gram(coords.copy())
        assert opmanifold._factorizes(gram) == certified
        assert (rank_of(coords.T, 1e-6) == 30) == certified


@pytest.mark.filterwarnings("error")
def test_huge_tangency_is_certified_without_overflow(monkeypatch):
    ctx = operator_context(1e170 * random_rank_matrix(trial_rng(4, 12, 10, 4), 12, 10, 4))
    x = sample_fixed_rank_near(ctx, trial_rng(4, 1))
    calls = []
    monkeypatch.setattr(opmanifold, "rank_of", lambda *a, **k: calls.append(1) or rank_of(*a, **k))
    rep = tangency_fixed_rank(ctx, x, curves=ctx.dim + 6, seed=4)
    assert rep.tangent_span_dim == rep.expected_dim == 72
    assert rep.max_residual < 1e-6
    assert not calls  # the certificate settled it


def test_a_failed_certificate_takes_the_rank_of_the_coordinates_formed_again(monkeypatch):
    ctx = operator_context(random_rank_matrix(trial_rng(4, 6, 4, 2), 6, 4, 2))
    x = sample_fixed_rank_near(ctx, trial_rng(4, 1))
    want = tangency_fixed_rank(ctx, x, curves=ctx.dim + 3, seed=2)
    monkeypatch.setattr(opmanifold, "_factorizes", lambda gram: False)
    assert tangency_fixed_rank(ctx, x, curves=ctx.dim + 3, seed=2) == want
