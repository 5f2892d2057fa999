"""The admission of a perturbation: one screened test of ||M||_2 < bound for
the ball, the sampler cap and the chart region, one perturbation factor per
chart call, and one conditioning check per factor."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique import (
    BallError,
    MembershipError,
    alpha_operator_family,
    chart_d,
    chart_d_star,
    moore_penrose,
    op_norm,
    operator_context,
    perturbed_gi,
    seven_conditions,
)
from oblique import opmanifold
from oblique.cli import main
from oblique.config import DEFAULTS, Numerics
from oblique.errors import ValidationError
from oblique.geninv import _near_identity_sample, c_op, trial_rng
from oblique.linalg import _norms_exceed, _screened_norm, _screened_norms, unit
from oblique.matio import matrix_to_dict
from oblique.opmanifold import (
    _chart_factor,
    _slice_directions,
    fixed_rank_chart_check,
    membership_residual,
    sample_fixed_rank_near,
    unvec,
)
from oblique.suites import random_rank_matrix

BOUNDS = [1e-6, 1e-3, 1.0, 1e3, 1e6]
TINY_BOUNDS = [1e-150, 1e-165]  # squared entries of such matrices underflow
SHAPES = [(1, 1), (2, 3), (7, 5), (40, 40), (200, 200)]
ULPS = range(-4, 5)


def _gap_matrix(kind: str, shape, seed: int) -> np.ndarray:
    """A rank-one or a full-rank matrix of spectral norm about 1."""
    rng = trial_rng(seed, *shape)
    m, n = shape
    if kind == "rank_one":
        g = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    else:
        g = rng.standard_normal((m, n)) + 3.0 * np.eye(m, n)
    return g / op_norm(g)


def _scaled(g: np.ndarray, target: float, ulps: int) -> np.ndarray:
    """g times ``target`` moved by ``ulps`` units in the last place."""
    s = target
    for _ in range(abs(ulps)):
        s = np.nextafter(s, math.inf if ulps > 0 else 0.0)
    return g * s


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ["rank_one", "full_rank"])
def test_screened_norm_decides_like_the_spectral_norm(kind, shape):
    g = _gap_matrix(kind, shape, 5)
    frobenius = float(np.linalg.norm(g))
    for bound in BOUNDS + TINY_BOUNDS:
        # at the spectral boundary and at the edge of the Frobenius screen
        for target in (bound, bound * (1.0 - 1e-8) / frobenius):
            for k in ULPS:
                m = _scaled(g, target, k)
                exact = op_norm(m)
                screened = _screened_norm(m, bound)
                assert (screened < bound) == (exact < bound), (bound, target, k)
                if screened >= bound:
                    assert screened == exact


@pytest.mark.parametrize("bound", BOUNDS + [math.inf])
def test_screen_takes_an_svd_only_in_the_rounding_band(monkeypatch, bound):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    edge = bound * (1.0 - 1e-8)
    if math.isfinite(edge):
        # at the band's lower edge the SVD decides; one ulp below it, the screen
        assert _screened_norm(np.array([[edge]]), bound) == edge
        assert len(calls) == 1
        below = np.nextafter(edge, 0.0)
        assert _screened_norm(np.array([[below]]), bound) == below
        assert len(calls) == 1
    else:
        assert _screened_norm(np.array([[3.0, 4.0]]), bound) == 5.0
        assert not calls


@pytest.mark.parametrize("bound", TINY_BOUNDS)
def test_screen_leaves_tiny_bounds_to_the_svd(monkeypatch, bound):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    # the Frobenius norm of [[3b, 0]] underflows to 0 for b = 1e-165
    m = np.array([[3.0 * bound, 0.0]])
    assert _screened_norm(m, bound) == op_norm(m)
    assert _screened_norm(m / 4.0, bound) == op_norm(m / 4.0)
    assert len(calls) == 4


# The second tier, (sum sigma_i^8)^(1/8) from the Gram matrix on the smaller
# side, settles what the Frobenius screen leaves open when a few singular
# values carry the norm.


def _with_spectrum(seed: int, shape, rank: int, decay: float, scale: float) -> np.ndarray:
    """A matrix of the given rank whose column scales fall by ``decay``."""
    rng = trial_rng(seed, *shape, rank)
    left = rng.standard_normal((shape[0], rank)) * decay ** np.arange(rank)
    return scale * (left @ rng.standard_normal((rank, shape[1])))


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    rank=st.integers(0, 8),
    decay=st.sampled_from([1.0, 0.5, 0.1]),
    power=st.floats(-140.0, 140.0),
    edge=st.sampled_from(["spectral", "frobenius", "eighth"]),
    rel=st.one_of(st.floats(-1e-9, 1e-9), st.floats(-0.5, 0.5)),
)
def test_screened_norm_decides_like_the_spectral_norm_at_every_scale_and_rank(seed, shape, rank, decay, power, edge, rel):
    m = _with_spectrum(seed, shape, min(rank, *shape), decay, 10.0**power)
    exact = op_norm(m)
    if exact == 0.0:
        bound = 10.0**power * (1.0 + abs(rel))
    else:
        s = np.linalg.svd(m, compute_uv=False)
        tiers = {"spectral": exact, "frobenius": float(np.linalg.norm(m)) / (1.0 - 1e-8)}
        tiers["eighth"] = exact * float(np.sum((s / exact) ** 8)) ** 0.125 / (1.0 - 1e-8)
        bound = tiers[edge] * (1.0 + rel)  # near the spectral norm, or near either screen's cut
    screened = _screened_norm(m, bound)
    assert (screened < bound) == (exact < bound)
    # an upper bound of ||m||_2; a rank-one matrix's Frobenius norm equals it
    # and rounds an ulp either side of the SVD's value
    assert screened >= exact * (1.0 - 64.0 * np.finfo(float).eps)
    if screened >= bound:
        assert screened == exact
    # the same matrix in a stack, between a zero matrix and one past the bound:
    # each row decides alone
    past = np.zeros(shape)
    past[0, 0] = 2.0 * bound
    stack = np.stack([np.zeros(shape), m, past])
    for row, norm in zip(stack, _screened_norms(stack, bound).tolist()):
        want = op_norm(row)
        assert (norm < bound) == (want < bound)
        if norm >= bound:
            assert norm == want


@pytest.mark.parametrize("scale", [1e-140, 1.0, 1e140])
def test_second_tier_settles_without_an_svd(monkeypatch, scale):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    m = scale * np.diag([0.6, 0.6, 0.6, 0.6, 0.0])[:4]  # ||m||_F = 1.2 scale, (sum sigma^8)^(1/8) = 0.71 scale
    assert _screened_norm(m, scale) == pytest.approx(0.6 * 4.0**0.125 * scale, rel=1e-15)
    assert not calls
    assert _screened_norm(m, 0.7 * scale) == op_norm(m)  # past the second tier: the SVD decides
    assert len(calls) == 2


@pytest.mark.parametrize("power", [-550, -20, -10, 0, 10, 20])
@pytest.mark.parametrize("direction", ["axis", "oblique"])
def test_perturbed_gi_ball_error_exactly_at_the_boundary(power, direction):
    # A+ = 2^-p diag(1, 1/2) is exact, so the ball radius is 2^p
    a = 2.0**power * np.diag([1.0, 2.0])
    ainv = moore_penrose(a)
    radius = ainv.ball_radius
    u = np.array([1.0, 0.0]) if direction == "axis" else np.array([0.6, 0.8])
    for k in ULPS:
        # u u^T keeps C = I + (T - A) A+ well conditioned up to the boundary
        t = a + _scaled(np.outer(u, u), radius, k)
        gap = op_norm(t - a)
        if gap >= radius:
            with pytest.raises(BallError, match=re.escape(f"perturbation gap {gap:.6g} >= ball radius")):
                perturbed_gi(a, ainv, t)
        else:
            assert perturbed_gi(a, ainv, t).forward.shape == (2, 2)
    if direction == "axis":
        # 2^p + 2^p - 2^p is exact, so the gap equals the radius here
        t = a + np.diag([radius, 0.0])
        assert op_norm(t - a) == radius
        with pytest.raises(BallError):
            perturbed_gi(a, ainv, t)


def test_tiny_operator_outside_the_ball_is_refused(tmp_path):
    # ||T - A|| = 3e-165 is three ball radii; its Frobenius norm underflows to 0
    a = 1e-165 * np.diag([1.0, 2.0])
    t = a + np.diag([3e-165, 0.0])
    assert np.linalg.norm(t - a) == 0.0
    with pytest.raises(BallError, match="perturbation gap 3e-165 >= ball radius 1e-165"):
        perturbed_gi(a, moore_penrose(a), t)
    for name, mat in (("a", a), ("t", t)):
        (tmp_path / f"{name}.json").write_text(json.dumps(matrix_to_dict(mat)))
    assert main(["conditions", "--a", str(tmp_path / "a.json"), "--t", str(tmp_path / "t.json")]) == 3


def _sample_with_svd(rng, a, ainv, fraction, eps):
    """The near-identity sampler with the unscreened test op_norm(T - A) < cap."""
    m, n = a.shape
    radius = ainv.ball_radius
    cap = fraction * (radius if math.isfinite(radius) else 1.0)
    g1 = rng.standard_normal((m, m))
    g2 = rng.standard_normal((n, n))
    for _ in range(60):
        t = (np.eye(m) + eps * g1) @ a @ (np.eye(n) + eps * g2)
        if op_norm(t - a) < cap:
            return t
        eps *= 0.5
    raise BallError(f"no rank-keeping sample within {fraction:g} of the ball after 60 halvings")


@pytest.mark.parametrize("scale", [1e-170, 1e-6, 1.0, 1e6])
def test_near_identity_sample_matches_the_unscreened_test(scale):
    for seed in range(8):
        a = scale * random_rank_matrix(trial_rng(seed, 1), 4, 5, 2)
        ainv = moore_penrose(a)
        for fraction, eps in [(0.4, 0.1), (0.9, 4.0)]:
            got = _near_identity_sample(trial_rng(seed, 2), a, ainv, fraction, eps)
            want = _sample_with_svd(trial_rng(seed, 2), a, ainv, fraction, eps)
            assert got.tobytes() == want.tobytes()


def test_chart_factor_is_c_op_bit_for_bit():
    ctx = operator_context(random_rank_matrix(trial_rng(3, 0), 6, 4, 2))
    for j in range(10):
        x = sample_fixed_rank_near(ctx, trial_rng(3, j + 1))
        assert _chart_factor(ctx, x)[0].tobytes() == c_op(ctx.a, ctx.ainv, x).tobytes()


def test_chart_region_error_prints_the_spectral_norm():
    ctx = operator_context(np.diag([1.0, 0.5]))
    x = ctx.a + np.diag([0.75, 0.0])  # (X - A) A+ = diag(0.75, 0) ...
    assert chart_d_star(ctx, x).shape == (2, 2)
    x = ctx.a + np.array([[0.0, 0.0], [0.0, 0.625]])  # ... and diag(0, 1.25)
    with pytest.raises(BallError, match=r"\|\|\(X - A\) A\+\|\| = 1.25 >= 1"):
        chart_d(ctx, x)
    with pytest.raises(BallError, match="= 1.25 >= 1"):
        chart_d_star(ctx, x)
    x = ctx.a + np.diag([0.0, 0.5])  # on the boundary: ||diag(0, 1)|| = 1
    with pytest.raises(BallError, match="= 1 >= 1"):
        chart_d_star(ctx, x)


def test_one_conditioning_check_per_factor(monkeypatch):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: calls.append(1) or cond(*a, **k))
    a = np.diag([1.0, 0.5, 0.0])  # a kernel, so conditions (vi) and (vii) both solve
    ainv = moore_penrose(a)
    t = a + 0.05 * np.outer([1.0, 1.0, 0.0], [1.0, 1.0, 1.0])  # keeps R(T) = R(A)
    seven_conditions(a, ainv, t)
    assert len(calls) == 1
    perturbed_gi(a, ainv, t)  # the same (A+, T): C's check is shared
    assert len(calls) == 1

    ctx = operator_context(random_rank_matrix(trial_rng(4, 0), 4, 3, 2))
    x = sample_fixed_rank_near(ctx, trial_rng(4, 1))
    dx = unvec(ctx.m0.basis[:, 0], ctx.m, ctx.n)
    calls.clear()
    alpha_operator_family(ctx, x, dx)  # perturbed_gi's check, whose C it then solves with
    assert len(calls) == 1
    calls.clear()
    chart_d(ctx, x)
    chart_d_star(ctx, x)  # multiplies by its factor, never solves
    assert len(calls) == 0  # was 1: chart_d certifies C from its region bound


def test_chart_factor_past_the_condition_limit_is_refused(monkeypatch):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: calls.append(1) or cond(*a, **k))
    ctx = operator_context(np.diag([1.0, 0.5]))
    # G = (X - A) A+ = diag(0, -(1 - 1e-13)): inside the chart region, with
    # cond(C) = 1e13 past cond_limit; its bound (1 + b) / (1 - b) = 2e13 is
    # past half the limit too, so np.linalg.cond decides
    x = ctx.a + np.diag([0.0, -(1.0 - 1e-13) * 0.5])
    with pytest.raises(BallError, match="numerically singular"):
        chart_d(ctx, x)
    assert len(calls) == 1
    assert chart_d_star(ctx, x).shape == (2, 2)  # multiplies by C, so needs no check


def test_zero_base_operator_is_a_validation_error(tmp_path, capsys):
    with pytest.raises(ValidationError, match="nonzero"):
        operator_context(np.zeros((2, 3)))
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(matrix_to_dict(np.zeros((2, 2)))))
    assert main(["chart", "--a", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: base operator must be nonzero")


# A power step settles most rejected halvings of the sampler without an SVD.

SAMPLER_SCALES = [1e-170, 1e-6, 1.0, 1e6, 1e150, 1e170]


@pytest.mark.parametrize("scale", SAMPLER_SCALES)
def test_near_identity_sample_matches_the_unscreened_test_at_all_scales(scale):
    for seed in range(8):
        for m, n, k in [(4, 5, 2), (9, 7, 3)]:
            a = scale * random_rank_matrix(trial_rng(seed, 1), m, n, k)
            ainv = moore_penrose(a)
            for fraction, eps in [(0.4, 0.1), (0.9, 4.0)]:
                got = _near_identity_sample(trial_rng(seed, 2), a, ainv, fraction, eps)
                want = _sample_with_svd(trial_rng(seed, 2), a, ainv, fraction, eps)
                assert got.tobytes() == want.tobytes(), (seed, m, fraction)


def _chart_check_one_at_a_time(ctx, samples, seed, cfg=DEFAULTS):
    """``fixed_rank_chart_check`` with each sample taken alone: its factors
    drawn and accepted by ``_sample_with_svd``, then D, the membership ratio,
    D* and one SVD per report norm of one matrix at a time."""
    f = ctx.factors
    step = 0.3 * ctx.ball_radius if math.isfinite(ctx.ball_radius) else 0.3
    round_trip = membership = 0.0
    membership_failures = rank_failures = 0
    for j in range(samples):
        rng = trial_rng(seed, j)
        x = _sample_with_svd(rng, ctx.a, ctx.ainv, 0.4, 0.1)
        t = chart_d(ctx, x, cfg)
        peak = np.max(np.abs(t))  # from t / max|t|, which neither overflows nor underflows
        scaled = t / peak
        defect = np.linalg.norm(f.cokernel.basis.T @ scaled @ f.kernel.basis, axis=(-2, -1))
        resid = float(defect / np.linalg.norm(scaled))
        membership = max(membership, resid)
        membership_failures += resid > cfg.tol_num
        miss = chart_d_star(ctx, t) - x
        coeffs = unit(rng.standard_normal(ctx.dim))
        x2 = chart_d_star(ctx, ctx.a + step * _slice_directions(ctx, coeffs[None])[0])
        s_miss, s_x, s_x2 = (np.linalg.svd(mat, compute_uv=False) for mat in (miss, x, x2))
        round_trip = max(round_trip, float(s_miss[0] / s_x[0]))
        rank_failures += int(np.count_nonzero(s_x2 > 1e-9 * s_x2[0])) != ctx.rank
    return {"samples": samples, "m0_dim": ctx.dim, "round_trip_max": round_trip, "membership_max": membership,
            "membership_failures": membership_failures, "rank_failures": rank_failures}


# (m, n, k, samples, samples per block): blocks of 3 end mid-run; 40x40 takes
# 20 samples a block by default, so its 50 fill two and half of a third
CHART_RUNS = [(4, 5, 2, 10, 3), (9, 3, 2, 8, 3), (40, 40, 3, 50, None)]


@pytest.mark.parametrize("scale", SAMPLER_SCALES)
@pytest.mark.parametrize("m, n, k, samples, per_block", CHART_RUNS)
def test_stacked_chart_check_matches_the_one_at_a_time_reference(monkeypatch, scale, m, n, k, samples, per_block):
    if per_block is not None:
        monkeypatch.setattr(opmanifold, "_BLOCK_BYTES", per_block * 8 * (m * m + n * n))
    for seed in range(2):
        ctx = operator_context(scale * random_rank_matrix(trial_rng(seed, m, n, k), m, n, k))
        want = _chart_check_one_at_a_time(ctx, samples, seed)
        assert fixed_rank_chart_check(ctx, samples, seed).to_dict() == want, (seed, scale)


@pytest.mark.parametrize("per_block", [None, 2])
@pytest.mark.parametrize("sigma", [1e-20, 1.25e-18])
def test_stacked_chart_check_raises_the_reference_error_first(monkeypatch, per_block, sigma):
    # ||A+|| = 1 / sigma caps the samples at 0.4 sigma, which 60 halvings of
    # eps = 0.1 reach for no draw at sigma = 1e-20; at 1.25e-18 the draws of
    # samples 0 to 4 get there and sample 5 is the first that does not
    if per_block is not None:
        monkeypatch.setattr(opmanifold, "_BLOCK_BYTES", per_block * 8 * (3 * 3 + 3 * 3))
    a = np.diag([1.0, sigma, 0.0])
    cfg = Numerics(rank_tol=1e-30)
    ctx = operator_context(a, moore_penrose(a, 1e-30), cfg)
    with pytest.raises(BallError) as want:
        _chart_check_one_at_a_time(ctx, 12, 0, cfg)
    assert str(want.value) == "no rank-keeping sample within 0.4 of the ball after 60 halvings"
    with pytest.raises(BallError, match=re.escape(str(want.value))):
        fixed_rank_chart_check(ctx, 12, 0, cfg)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ["rank_one", "full_rank"])
def test_power_step_never_rejects_what_the_svd_accepts(kind, shape):
    g = _gap_matrix(kind, shape, 6)
    for bound in BOUNDS + [1e-100, 1e100]:
        for k in ULPS:
            m = _scaled(g, bound, k)
            assert not (_norms_exceed(m[None], bound)[0] and op_norm(m) < bound), (bound, k)
        if kind == "rank_one":  # one power step is exact on a rank-one matrix
            assert _norms_exceed(g[None] * (bound * (1.0 + 1e-6)), bound)[0]


def test_power_step_rejects_only_strictly_past_its_slack():
    bound = 1.0 / (1.0 + 1e-8)
    assert bound * (1.0 + 1e-8) == 1.0  # so [[1]] ties the threshold exactly
    assert not _norms_exceed(np.array([[[1.0]]]), bound)[0]
    assert _norms_exceed(np.array([[[1.0]]]), np.nextafter(bound, 0.0))[0]


def _halvings(rng, a, ainv, fraction, eps):
    """The number of halvings the sampler makes, replayed with op_norm."""
    m, n = a.shape
    cap = fraction * ainv.ball_radius
    g1 = rng.standard_normal((m, m))
    g2 = rng.standard_normal((n, n))
    count = 0
    while op_norm((np.eye(m) + eps * g1) @ a @ (np.eye(n) + eps * g2) - a) >= cap:
        eps *= 0.5
        count += 1
    return count


def _sampler_svds(monkeypatch, a, fraction, eps, seeds):
    """(SVD calls, halvings) of sampler draws from ``trial_rng(seed, 2)``."""
    ainv = moore_penrose(a)
    halvings = sum(_halvings(trial_rng(seed, 2), a, ainv, fraction, eps) for seed in seeds)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    for seed in seeds:
        _near_identity_sample(trial_rng(seed, 2), a, ainv, fraction, eps)
    monkeypatch.undo()
    return len(calls), halvings


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("shape", [(1, 7), (7, 1)])
def test_rejected_halvings_take_no_svd(monkeypatch, scale, shape):
    # The gaps of a one-row or one-column operator have rank one, where the
    # power step is exact, so it settles every rejected halving.
    a = scale * trial_rng(5, *shape).standard_normal(shape)
    svds, halvings = _sampler_svds(monkeypatch, a, 0.4, 4.0, range(6))
    assert halvings >= 6 * 5
    assert svds == 0


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_accepting_steps_take_no_svd(monkeypatch, scale):
    # A rank-5 base keeps the gap's rank at most 10, whose leading singular
    # values carry its norm: the second screen tier accepts where the
    # Frobenius screen cannot.
    a = scale * random_rank_matrix(trial_rng(5, 1), 30, 30, 5)
    svds, _ = _sampler_svds(monkeypatch, a, 0.4, 0.1, range(20))
    assert svds == 0  # one per draw with the Frobenius screen alone


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_outside_the_guarded_scales_the_svd_decides_each_step(monkeypatch, scale):
    a = scale * trial_rng(5, 1, 7).standard_normal((1, 7))
    svds, halvings = _sampler_svds(monkeypatch, a, 0.4, 4.0, range(6))
    assert halvings >= 6 * 5
    assert svds == halvings + 6  # the accepting step of each draw too


# Past about 1e154 squared entries overflow: the Frobenius screen leaves such
# matrices to the SVD, and the membership ratio is taken from t / max|t|.


@pytest.mark.filterwarnings("error")
def test_huge_operators_raise_no_overflow_warning():
    a = 1e170 * random_rank_matrix(trial_rng(3, 1), 4, 5, 2)
    ainv = moore_penrose(a)
    t = _near_identity_sample(trial_rng(3, 2), a, ainv, 0.4, 0.1)
    perturbed_gi(a, ainv, t)
    assert seven_conditions(a, ainv, t).all_true
    rep = fixed_rank_chart_check(operator_context(a), samples=10, seed=3)
    assert rep.membership_failures == rep.rank_failures == 0
    assert 0.0 < rep.membership_max <= 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 1e170, 1e300])
def test_membership_stays_decisive_past_the_overflow_scale(scale):
    ctx = operator_context(scale * np.diag([1.0, 0.0]))
    corner = scale * np.diag([0.0, 1.0])  # outside M(A)
    assert membership_residual(ctx, corner) == pytest.approx(1.0)
    with pytest.raises(MembershipError):
        alpha_operator_family(ctx, ctx.a, corner)


# Below scale 1 the chart check's ratios are relative too: the membership
# defect over ||T||_F and the round-trip miss over ||X||_2, not over 1 +
# ||T||_F and max(1, ||X||_2), which read any defect as a member there.


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-10])
def test_membership_reads_as_at_scale_one_below_it(scale):
    ctx = operator_context(scale * np.diag([1.0, 0.0]))
    corner = scale * np.diag([0.0, 1.0])  # wholly outside M(A)
    at_one = membership_residual(operator_context(np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))
    assert membership_residual(ctx, corner) == at_one == 1.0
    assert membership_residual(ctx, np.zeros((2, 2))) == 0.0
    with pytest.raises(MembershipError):
        alpha_operator_family(ctx, ctx.a, corner)


@pytest.mark.parametrize("scale", [1e-170, 1e-10, 1.0])
def test_chart_check_ratios_are_rounding_at_every_scale(scale):
    ctx = operator_context(scale * random_rank_matrix(trial_rng(4, 12, 10, 4), 12, 10, 4))
    rep = fixed_rank_chart_check(ctx, 20, seed=4)
    assert rep.membership_failures == rep.rank_failures == 0
    assert 1e-18 < rep.membership_max <= 1e-14
    assert 1e-18 < rep.round_trip_max <= 1e-14
