"""Charts and tangent machinery for fixed-rank matrix manifolds.

The space of m x n matrices is identified with R^{mn} (row-major), so the
subspace-family machinery applies verbatim to the family

    M(X) = {T : T N(X) is contained in R(X)},

which is the tangent space of the fixed-rank manifold at X.  With one SVD
X = [U U_perp] S [V_row V_N]^T, T N(X) lies in R(X) exactly when
U_perp^T T V_N = 0, so

    M(X) = span [U (x) I_n | U_perp (x) V_row],   dim = mn - (m - k)(n - k),

and the distance of T from M(X) is ||U_perp^T T V_N||_F.  The chart checks
never form that (mn) x dim basis: the element with coefficients [vec G1;
vec G2] is U G1 + U_perp G2 V_row^T, from the factors alone.  Around a base
operator A with inverse A+, the complement E* = {T : R(T) in N(A+), N(T)
contains R(A+)} is N(A+) (x) R(A+)^perp, and the chart

    D(X)  = (X - A) P[R(A+)] + C^{-1}(A+, X) X
    D*(T) = T P[R(A+)] + C(A+, T) T P[N(A)]

is a diffeomorphism of the region ||(X - A) A+|| < 1 onto itself that
straightens the rank-k matrices near A into the linear slice M(A).
"""

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import DEFAULTS, Numerics
from .errors import BallError, ComplementError, MembershipError, ValidationError
from .families import SubspaceFamily
from .geninv import (
    GenInverse,
    _admit,
    _conditioned,
    _near_identity_sample,
    _near_identity_samples,
    _probe_directions,
    moore_penrose,
    perturbed_gi,
    trial_rng,
)
from .linalg import (
    Factors,
    Subspace,
    SubspaceBatch,
    _EPS,
    _built,
    _norms,
    _ranks,
    _read_only,
    _screened_norms,
    as_matrix,
    direct_sum_check,
    op_norm,
    rank_of,
    svd_factors,
    unit,
)

# Bytes of one stacked block of samples or curves in the chart check and the
# tangency check (``_block``): large enough to amortize per-call overhead,
# small enough to keep the peak memory near that of one matrix at a time.
_BLOCK_BYTES = 1 << 19

__all__ = [
    "OperatorFamilyContext",
    "operator_context",
    "vec",
    "unvec",
    "mx_basis",
    "operator_family",
    "chart_d",
    "chart_d_star",
    "alpha_operator_family",
    "fixed_rank_chart_check",
    "tangency_fixed_rank",
    "ChartCheckReport",
    "TangencyReport",
    "sample_fixed_rank_near",
]


def vec(mat: np.ndarray) -> np.ndarray:
    """Row-major vectorization of an operator."""
    return np.asarray(mat, dtype=float).reshape(-1)


def unvec(v: np.ndarray, m: int, n: int) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(m, n)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, or of each pair of two stacks (..., p, q)
    and (..., r, s), bit for bit, as one broadcast product."""
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], p * r, q * s)


def _tangent_slice(u: np.ndarray, u_perp: np.ndarray, v_row: np.ndarray) -> np.ndarray:
    """Orthonormal basis [U (x) I_n | U_perp (x) V_row] of M(X) in R^{mn}
    from X's SVD factors, or a stack of them from stacks of the factors."""
    return np.concatenate([_kron(u, np.eye(v_row.shape[-2])), _kron(u_perp, v_row)], axis=-1)


def _slice_directions(ctx: "OperatorFamilyContext", g: np.ndarray) -> np.ndarray:
    """The slice elements U G1 + U_perp G2 V_row^T of M(A) with coefficients
    g (count, dim), shaped (count, m, n): G1 is g[:, :k n] as (k, n) and G2
    the rest as (m - k, k).  Equals unvec(m0.basis @ g) without the basis."""
    f, k, m, n = ctx.factors, ctx.rank, ctx.m, ctx.n
    count = g.shape[0]
    g1 = g[:, : k * n].reshape(count, k, n)
    g2 = g[:, k * n :].reshape(count, m - k, k)
    return f.range.basis @ g1 + f.cokernel.basis @ g2 @ f.row.basis.T


def _block(ctx: "OperatorFamilyContext") -> int:
    """Samples or curves per stacked block: the two square factors of a
    sample, m x m and n x n, fit in _BLOCK_BYTES, and so do two m x n matrices."""
    return max(1, _BLOCK_BYTES // (8 * (ctx.m**2 + ctx.n**2)))


def _slice_defect(f: Factors, t: np.ndarray) -> np.ndarray:
    """||U_perp^T T V_N||_F over the last two axes: the distance of T from M(X)."""
    return np.linalg.norm(f.cokernel.basis.T @ t @ f.kernel.basis, axis=(-2, -1))


def _factors_at(f: Factors, xinv: GenInverse) -> Factors:
    """The SVD factors of X, whose rank must be the one its inverse fixes."""
    k = xinv.range_complement.dim  # R(X+) complements N(X)
    if f.range.dim != k:
        raise ComplementError(f"operator has numerical rank {f.range.dim} but its inverse has rank {k}")
    return f


@dataclass(frozen=True, eq=False, init=False)
class OperatorFamilyContext:
    """Base operator, inverse, pinned splitting of operator space, projectors.

    Built only by ``operator_context``, which checks it and freezes its arrays.
    ``factors`` holds the SVD subspaces of A, which give the slice elements
    of M(A) of dimension ``dim``; ``m0``, built on first access, spans M(A)
    inside R^{mn}, and ``estar`` the complement {T : R(T) in N(A+), N(T)
    contains R(A+)}.  The four cached projectors are the obliques onto R(A),
    N(A+), R(A+), N(A) determined by the complements of the inverse.
    """

    a: np.ndarray
    ainv: GenInverse
    factors: Factors
    p_ra: np.ndarray        # onto R(A)  along N(A+)   (codomain)
    p_na_plus: np.ndarray   # onto N(A+) along R(A)    (codomain)
    p_ra_plus: np.ndarray   # onto R(A+) along N(A)    (domain)
    p_na: np.ndarray        # onto N(A)  along R(A+)   (domain)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def rank(self) -> int:
        return self.factors.range.dim

    @property
    def dim(self) -> int:
        """dim M(A) = mn - (m - k)(n - k)."""
        return self.m * self.n - (self.m - self.rank) * (self.n - self.rank)

    @property
    def ball_radius(self) -> float:
        return self.ainv.ball_radius

    @functools.cached_property
    def m0(self) -> Subspace:
        """[U (x) I_n | U_perp (x) V_row], an (mn) x dim basis of M(A) that only
        the generic ``SubspaceFamily`` route reads."""
        f = self.factors
        return Subspace._wrap(_tangent_slice(f.range.basis, f.cokernel.basis, f.row.basis))

    @functools.cached_property
    def estar(self) -> Subspace:
        """N(A+) (x) R(A+)^perp, an (mn) x (m - k)(n - k) basis that only the
        generic ``SubspaceFamily`` route reads."""
        r_plus_perp = self.ainv.range_complement.orthogonal_complement().basis
        return Subspace._wrap(_kron(self.ainv.kernel_complement.basis, r_plus_perp))


def operator_context(a, ainv: GenInverse | None = None, cfg: Numerics = DEFAULTS) -> OperatorFamilyContext:
    """Build the pinned splitting of operator space at a nonzero base operator."""
    arr = as_matrix(a)
    if not arr.any():
        raise ValidationError("base operator must be nonzero")
    if ainv is None:
        ainv = moore_penrose(arr)
    elif not np.array_equal(ainv.forward, arr):
        raise ValidationError(f"inverse belongs to a different operator than the {arr.shape} base")
    m, n = arr.shape  # below, A is ainv.forward, which an edit of a cannot reach
    p_ra = ainv.forward @ ainv.inverse
    p_ra_plus = ainv.inverse @ ainv.forward

    # M(A) (+) E* = R^{mn} exactly when R(A) (+) N(A+) splits the codomain
    # and N(A) (+) R(A+) splits the domain.
    f = ainv._factors(cfg.rank_tol)  # the SVD that moore_penrose took, when it built ainv
    if not (
        direct_sum_check(f.range, ainv.kernel_complement, cfg)
        and direct_sum_check(f.kernel, ainv.range_complement, cfg)
    ):
        raise ComplementError(f"complements of the inverse fail to split codomain and domain (rank {f.range.dim})")
    # Every complement element n w^T must map into N(A+) and kill R(A+), up
    # to tol_num or to the projectors' rounding, eps ||A|| ||A+||, if larger
    # (its two SVDs run only for a residual past tol_num).
    r_plus_perp = ainv.range_complement.orthogonal_complement().basis
    residual = max(op_norm(p_ra @ ainv.kernel_complement.basis), op_norm(r_plus_perp.T @ p_ra_plus))
    if residual > cfg.tol_num and residual > 16.0 * _EPS * (op_norm(ainv.forward) * op_norm(ainv.inverse)):
        raise ComplementError("complement element violates its range/kernel characterization")
    return _built(OperatorFamilyContext, ainv.forward, ainv, f, p_ra, np.eye(m) - p_ra, p_ra_plus, np.eye(n) - p_ra_plus)


def mx_basis(ctx: OperatorFamilyContext, x, xinv: GenInverse, cfg: Numerics = DEFAULTS) -> Subspace:
    """Orthonormal basis of {T : T N(X) in R(X)} inside R^{mn}.

    Realized as [U (x) I_n | U_perp (x) V_row] from one SVD of X, whose rank
    must match the rank fixed by ``xinv``; each basis element is
    cross-checked against the defining containment U_perp^T T V_N = 0.
    """
    xm = as_matrix(x)
    m, n = xm.shape
    if (m, n) != (ctx.m, ctx.n):
        raise ValueError("operator shape does not match the context")
    f = _factors_at(svd_factors(xm, cfg.rank_tol), xinv)
    basis = _tangent_slice(f.range.basis, f.cokernel.basis, f.row.basis)
    if np.max(_slice_defect(f, basis.T.reshape(-1, m, n)), initial=0.0) > cfg.tol_num:
        raise ComplementError("constructed element violates T N(X) in R(X)")
    return Subspace._wrap(basis)


class _OperatorSlices:
    """X -> M(X) over vectorized m x n operators, with the rank of each X cut
    at ``tol``: an operator family's ``eval_fn``."""

    def __init__(self, m: int, n: int, tol: float | None):
        self.m, self.n, self.tol = m, n, tol

    def __call__(self, p: np.ndarray) -> Subspace:
        f = svd_factors(unvec(p, self.m, self.n), self.tol)
        return Subspace._wrap(_tangent_slice(f.range.basis, f.cokernel.basis, f.row.basis))

    def _batch(self, points: np.ndarray) -> SubspaceBatch:
        """M(X) at the rows of a finite (N, mn) array from one stacked SVD,
        each rank group's bases in one broadcast product, bit for bit what
        ``__call__`` gives."""
        m, n = self.m, self.n
        u, s, vh = np.linalg.svd(points.reshape(-1, m, n))
        ranks = _ranks(s, (m, n), self.tol)
        stacks = {}
        for k in set(ranks.tolist()):
            uk, vk = u[ranks == k], vh[ranks == k]
            stacks[m * n - (m - k) * (n - k)] = _tangent_slice(uk[..., :k], uk[..., k:], vk[:, :k].transpose(0, 2, 1))
        return SubspaceBatch(m * n, m * n - (m - ranks) * (n - ranks), stacks)


def operator_family(ctx: OperatorFamilyContext, rank_tol: float | None = None, cfg: Numerics = DEFAULTS) -> SubspaceFamily:
    """The family X -> M(X) over vectorized operator space.

    Evaluation is inverse-free: M(X) = [U (x) I_n | U_perp (x) V_row] from one
    SVD of X, so it is defined for every X, including points where the pinned
    splitting fails; where X has full row rank, U_perp is empty and M(X) is
    the whole space.  ``rank_tol`` controls the rank decision of that SVD.
    A batch of points takes one stacked SVD.

    The family is built from the context, which has checked the splitting
    M(A) (+) E*: its base subspace is ``ctx.m0`` and its complement
    ``ctx.estar``.  The one check left is that ``rank_tol`` cuts A, whose
    singular values the inverse holds, at the context's rank (ValueError).
    """
    tol = cfg.rank_tol if rank_tol is None else rank_tol
    rank = int(_ranks(ctx.ainv._svd[1], ctx.a.shape, tol))
    if rank != ctx.rank:
        raise ValueError(f"family does not evaluate to the base subspace at the base point "
                         f"(rank_tol {tol} cuts A at rank {rank}, the context at {ctx.rank})")
    return _built(SubspaceFamily, _OperatorSlices(ctx.m, ctx.n, tol), _read_only(vec(ctx.a)), ctx.m0, ctx.estar, None)


def _chart_factor(ctx: OperatorFamilyContext, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C(A+, X) = I + G, G = (X - A) A+, of X or of each X in a stack
    (count, m, n), formed as ``c_op`` forms it, with an upper bound of each
    ||G||_2 (``_screened_norms``), for X in the chart region ||G|| < 1;
    BallError with the spectral norm of the first X outside it."""
    gap = (x - ctx.a) @ ctx.ainv.inverse
    bounds = _screened_norms(gap.reshape(-1, ctx.m, ctx.m), 1.0)
    outside = bounds[bounds >= 1.0]
    if outside.size:
        raise BallError(f"||(X - A) A+|| = {outside[0]:.6g} >= 1: outside the chart region")
    return np.eye(ctx.m) + gap, bounds


def chart_d(ctx: OperatorFamilyContext, x, cfg: Numerics = DEFAULTS) -> np.ndarray:
    """Forward chart D(X) = (X - A) P[R(A+)] + C^{-1}(A+, X) X; D(A) = A."""
    return _chart_d(ctx, as_matrix(x), cfg)


def _chart_d(ctx: OperatorFamilyContext, x: np.ndarray, cfg: Numerics) -> np.ndarray:
    """``chart_d`` of a checked matrix, or of each in a stack (count, m, n)
    by stacked products and one stacked solve.  Each C = I + G is certified
    by the bound b >= ||G||_2 that the chart region test took, as cond(C) <=
    (1 + b) / (1 - b); only a bound past half of ``cond_limit``, a margin for
    the SVD's own rounding near the limit, leaves the check to
    ``np.linalg.cond``.  The checks run in order, so the first factor refused
    raises."""
    c, bounds = _chart_factor(ctx, x)
    for factor, bound in zip(c.reshape(-1, ctx.m, ctx.m), bounds.tolist()):
        cond = (1.0 + bound) / (1.0 - bound)
        _conditioned(factor, cfg, cond if cond <= 0.5 * cfg.cond_limit else None)
    return (x - ctx.a) @ ctx.p_ra_plus + np.linalg.solve(c, x)


def chart_d_star(ctx: OperatorFamilyContext, t) -> np.ndarray:
    """Inverse chart D*(T) = T P[R(A+)] + C(A+, T) T P[N(A)]; D*(A) = A."""
    return _chart_d_star(ctx, as_matrix(t))


def _chart_d_star(ctx: OperatorFamilyContext, t: np.ndarray) -> np.ndarray:
    """``chart_d_star`` of a checked matrix or of each in a stack (count, m, n)."""
    return t @ ctx.p_ra_plus + _chart_factor(ctx, t)[0] @ t @ ctx.p_na


def membership_residual(ctx: OperatorFamilyContext, t) -> float:
    """Relative orthogonal-projection defect of an operator against M(A)."""
    return float(_membership(ctx, as_matrix(t)[None])[0])


def _membership(ctx: OperatorFamilyContext, t: np.ndarray) -> np.ndarray:
    """``membership_residual`` of each matrix in a stack (count, m, n): the
    defects from one stacked ``_slice_defect``, the norms from one ``_norms``
    of the matrices flattened row-major.  Past about 1e154 the norms
    overflow; there the same ratio is taken from t / max|t|."""
    with np.errstate(over="ignore", invalid="ignore"):
        defects = _slice_defect(ctx.factors, t)
        norms = _norms(t.reshape(len(t), -1))
        ratios = defects / (1.0 + norms)
    for i in np.flatnonzero(~(np.isfinite(defects) & np.isfinite(norms))):
        peak = np.max(np.abs(t[i]))
        scaled = t[i] / peak
        ratios[i] = _slice_defect(ctx.factors, scaled) / (1.0 / peak + np.linalg.norm(scaled))
    return ratios


def _direction_defect(ctx: OperatorFamilyContext, t: np.ndarray) -> float:
    """``_slice_defect(t) / ||t||_F``, 0 for t = 0: the share of a direction
    outside M(A), whatever its scale.  Taken from t / max|t|, whose norms
    neither overflow nor underflow."""
    peak = float(np.max(np.abs(t), initial=0.0))
    if peak == 0.0:
        return 0.0
    scaled = t / peak
    return float(_slice_defect(ctx.factors, scaled) / np.linalg.norm(scaled))


def alpha_operator_family(ctx: OperatorFamilyContext, x, dx, cfg: Numerics = DEFAULTS) -> np.ndarray:
    """Coordinate-operator action on a tangent direction, in closed form.

    For X in the chart region whose inverse is A+ C^{-1}(A+, X) and a
    direction dX in M(A),

        a(X) dX = P[N(A+)] (C^{-1} dX A+ C^{-1} X - C^{-1} dX) P[N(A)].

    Raises TransversalityError if X has no such inverse and MembershipError
    if more than ``tol_num`` of dX, relative to its Frobenius norm, lies
    outside M(A).
    """
    xm, dxm = as_matrix(x), as_matrix(dx)
    perturbed_gi(ctx.a, ctx.ainv, xm, cfg)  # BallError / TransversalityError; conditions C
    if _direction_defect(ctx, dxm) > cfg.tol_num:
        raise MembershipError("direction is not in the tangent slice at the base operator")
    c = _admit(ctx.a, ctx.ainv, xm, cfg).c  # the C that perturbed_gi checked
    cinv_dx = np.linalg.solve(c, dxm)
    cinv_x = np.linalg.solve(c, xm)
    inner = cinv_dx @ ctx.ainv.inverse @ cinv_x - cinv_dx
    return ctx.p_na_plus @ inner @ ctx.p_na


def sample_fixed_rank_near(
    ctx: OperatorFamilyContext,
    rng: np.random.Generator,
    scale: float = 0.1,
    ball_fraction: float = 0.4,
) -> np.ndarray:
    """Random operator of the base rank inside the chart region.

    Multiplies the base operator by Gaussian perturbations of the identity on
    both sides (which preserves the rank exactly), starting at ``scale`` and
    halving until the result is within ``ball_fraction`` of the perturbation
    ball, and so of the chart region.  Raises BallError after 60 halvings.
    """
    return _near_identity_sample(rng, ctx.a, ctx.ainv, ball_fraction, scale)


@dataclass
class ChartCheckReport:
    samples: int
    m0_dim: int
    round_trip_max: float
    membership_max: float
    membership_failures: int
    rank_failures: int

    def to_dict(self) -> dict:
        return asdict(self)


def fixed_rank_chart_check(ctx: OperatorFamilyContext, samples: int, seed: int = 0, cfg: Numerics = DEFAULTS) -> ChartCheckReport:
    """Randomized verification that the chart straightens the rank class.

    Forward: random operators of the base rank near A map under D into M(A)
    and round-trip through D* back to themselves.  Backward: random slice
    elements near A map under D* to operators of exactly the base rank.

    Sample j draws its two factors (``sample_fixed_rank_near``) and then its
    slice coefficients from ``trial_rng(seed, j)``.  Samples run in blocks of
    stacked arrays: one halving loop for the block's draws, then D, the
    membership defects, D* and one stacked SVD for the report norms, so the
    report is bit for bit that of taking the samples one at a time.  Raises
    ValidationError for ``samples < 1``.
    """
    if samples < 1:
        raise ValidationError(f"samples must be at least 1, got {samples}")
    m, n, k = ctx.m, ctx.n, ctx.rank
    step = 0.3 * ctx.ball_radius if math.isfinite(ctx.ball_radius) else 0.3
    round_trip_max = 0.0
    membership_max = 0.0
    membership_failures = 0
    rank_failures = 0

    for start in range(0, samples, _block(ctx)):
        rngs = [trial_rng(seed, j) for j in range(start, min(samples, start + _block(ctx)))]
        xs = _near_identity_samples(rngs, ctx.a, ctx.ainv, 0.4, 0.1)  # sample_fixed_rank_near's defaults
        t = _chart_d(ctx, xs, cfg)
        resid = _membership(ctx, t)
        membership_max = max(membership_max, *resid.tolist())  # NaN-blind, as max of one sample at a time
        membership_failures += int(np.count_nonzero(resid > cfg.tol_num))
        misses = _chart_d_star(ctx, t) - xs
        coeffs = np.array([unit(rng.standard_normal(ctx.dim)) for rng in rngs])
        x2 = _chart_d_star(ctx, ctx.a + step * _slice_directions(ctx, coeffs))
        s_miss, s_x, s_x2 = np.linalg.svd(np.stack([misses, xs, x2]), compute_uv=False)
        round_trip_max = max(round_trip_max, float(np.max(s_miss[:, 0] / np.maximum(1.0, s_x[:, 0]))))
        # Rank decided with slack for roundoff accumulated through the chart;
        # a genuine rank change would move a singular value by O(ball radius).
        rank_failures += int(np.count_nonzero(_ranks(s_x2, (m, n), 1e-9) != k))

    return ChartCheckReport(
        samples=samples,
        m0_dim=ctx.dim,
        round_trip_max=round_trip_max,
        membership_max=membership_max,
        membership_failures=membership_failures,
        rank_failures=rank_failures,
    )


@dataclass
class TangencyReport:
    max_residual: float
    tangent_span_dim: int
    expected_dim: int
    curves: int

    def to_dict(self) -> dict:
        return asdict(self)


def tangency_fixed_rank(
    ctx: OperatorFamilyContext,
    x,
    curves: int,
    seed: int = 0,
    cfg: Numerics = DEFAULTS,
) -> TangencyReport:
    """Velocities of rank-preserving curves through X stay in M(X).

    Curves are c(t) = D*(D(X) + t dT) for random slice directions dT; the
    distance ||U_perp^T V V_N||_F of their finite-difference velocities V at
    t = 0 from M(X) is measured (max relative residual returned) and their
    span is rank-checked against dim M(X) = mn - (m - k)(n - k).  The span is
    that of each velocity's coordinates (U^T V, U_perp^T V V_row) in the
    orthonormal basis [U (x) I_n | U_perp (x) V_row] of M(X), from X's
    factors: a curves x dim matrix in place of curves x mn, whose rank
    differs from the velocities' only by the part outside M(X) that the
    residual bounds.  Curves run in stacked blocks.

    The span's rank is ``rank_of(coords, 1e-6)``.  A shifted Cholesky
    factorization of the coordinates' Gram matrix (``_span_gram``) proves it
    full without an SVD; where the factorization fails, the coordinates are
    formed again and ``rank_of`` decides, so the answer is the SVD's in every
    case.  Raises ValidationError for ``curves < 0``.
    """
    if curves < 0:
        raise ValidationError(f"curves must be at least 0, got {curves}")
    xm = as_matrix(x)
    gi_x = perturbed_gi(ctx.a, ctx.ainv, xm, cfg)
    f = _factors_at(_admit(ctx.a, ctx.ainv, xm, cfg).factors, gi_x)  # X's SVD at rank_tol
    t0 = _chart_d(ctx, xm, cfg)
    h = 1e-6 * (1.0 + op_norm(t0))

    worst, coords = _curve_coordinates(ctx, f, t0, h, curves, seed)
    gram = _span_gram(coords)  # scales coords in place
    del coords  # the factorization takes the memory the coordinates held
    if gram is not None and _factorizes(gram):
        span_dim = len(gram)
    else:
        del gram
        span_dim = rank_of(_curve_coordinates(ctx, f, t0, h, curves, seed)[1].T, 1e-6)
    return TangencyReport(
        max_residual=worst, tangent_span_dim=span_dim, expected_dim=ctx.dim, curves=curves
    )


def _curve_coordinates(
    ctx: OperatorFamilyContext, f: Factors, t0: np.ndarray, h: float, curves: int, seed: int
) -> tuple[float, np.ndarray]:
    """The largest relative residual of the curve velocities at X (factors
    ``f``) and the coordinates of those that move, (moving, dim)."""
    m, n, k = ctx.m, ctx.n, f.range.dim
    worst = 0.0
    coords = np.empty((curves, k * n + (m - k) * k))
    moving = 0
    for start in range(0, curves, _block(ctx)):
        block = range(start, min(curves, start + _block(ctx)))
        step = h * _slice_directions(ctx, np.array(_probe_directions(seed, block, ctx.dim)))
        # t0 + h dT and t0 - h dT of each curve in turn, the order in which
        # the chart region is checked
        ends = _chart_d_star(ctx, (t0 + np.stack([step, -step], axis=1)).reshape(-1, m, n))
        velocity = (ends[0::2] - ends[1::2]) / (2.0 * h)
        speed = np.linalg.norm(velocity, axis=(-2, -1))
        velocity, speed = velocity[speed != 0.0], speed[speed != 0.0]
        count = speed.size
        across = f.cokernel.basis.T @ velocity  # U_perp^T V, which _slice_defect forms first
        if count:
            worst = max(worst, float(np.max(np.linalg.norm(across @ f.kernel.basis, axis=(-2, -1)) / speed)))
        coords[moving : moving + count, : k * n] = (f.range.basis.T @ velocity).reshape(count, k * n)
        coords[moving : moving + count, k * n :] = (across @ f.row.basis).reshape(count, (m - k) * k)
        moving += count
    return worst, coords[:moving]


def _span_gram(coords: np.ndarray) -> np.ndarray | None:
    """H - delta I, with H the Gram matrix of S = coords / max|coords| on its
    smaller side (q x q, inner dimension p) and delta = 4 (1e-6)^2 trace(H):
    if its Cholesky factorization completes with a finite factor,
    ``rank_of(coords, 1e-6)`` is q.  S is formed in place of ``coords``; H
    once, with its diagonal lowered in place.  None where the argument below
    does not apply: no entries, a non-finite one, or p + q > 20,000.

    Why: let u = 2^-53 and F = ||S||_F >= 1 (an entry of S is 1), so the
    absolute errors of underflow are negligible.  For any summation order
    the Gram product rounds by at most p u F^2 in norm (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, §3.5), lowering the
    diagonal by u (F^2 + delta), and a factorization that completes is exact
    for a matrix within (q + 1) u trace(H) of its input (Thm 10.3).  So
    sigma_min(S)^2 >= delta - (p + q + 3) u F^2 (1 + 1e-3) >= 1.77e-12 F^2
    for p + q <= 20,000: sigma_min(S) >= 1.33e-6 F.  The SVD's singular
    values, of coords or of S, lie within 10 p u sigma_max <= 2.3e-11 F of
    the exact ones (LAPACK's backward error with a generous constant; S is
    coords / max|coords| to within u F), and sigma_max <= F, so the computed
    ratio sigma_min / sigma_max stays past 1.33e-6 / (1 + 3e-11) > 1e-6."""
    p, q = max(coords.shape), min(coords.shape)
    peak = max(float(coords.max(initial=0.0)), -float(coords.min(initial=0.0)))
    if not (0.0 < peak < math.inf and p + q <= 20_000):
        return None
    coords /= peak
    gram = coords.T @ coords if coords.shape[0] >= coords.shape[1] else coords @ coords.T
    gram.ravel()[:: q + 1] -= 4e-12 * np.trace(gram)
    return gram


def _factorizes(gram: np.ndarray) -> bool:
    """Whether a Cholesky factorization of ``gram`` completes with a finite factor."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(gram)).all())
    except np.linalg.LinAlgError:
        return False
