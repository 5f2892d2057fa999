"""Charts and tangent machinery for fixed-rank matrix manifolds.

The space of m x n matrices is identified with R^{mn} (row-major), so the
subspace-family machinery applies verbatim to the family

    M(X) = {T : T N(X) is contained in R(X)},

which is the tangent space of the fixed-rank manifold at X.  With one SVD
X = [U U_perp] S [V_row V_N]^T, T N(X) lies in R(X) exactly when
U_perp^T T V_N = 0, so

    M(X) = span [U (x) I_n | U_perp (x) V_row],   dim = mn - (m - k)(n - k),

and the distance of T from M(X) is ||U_perp^T T V_N||_F.  Around a base
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
from .geninv import GenInverse, _conditioned, _near_identity_sample, c_op, moore_penrose, perturbed_gi, trial_rng
from .linalg import (
    Factors,
    Subspace,
    _screened_norm,
    as_matrix,
    direct_sum_check,
    op_norm,
    rank_of,
    svd_factors,
    unit,
)

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
    """``np.kron`` of two matrices, bit for bit, as one broadcast product."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def _tangent_slice(f: Factors) -> Subspace:
    """Orthonormal basis [U (x) I_n | U_perp (x) V_row] of M(X) in R^{mn}."""
    identity = np.eye(f.row.ambient_dim)
    return Subspace._wrap(np.hstack([_kron(f.range.basis, identity), _kron(f.cokernel.basis, f.row.basis)]))


def _slice_defect(f: Factors, t: np.ndarray) -> np.ndarray:
    """||U_perp^T T V_N||_F over the last two axes: the distance of T from M(X)."""
    return np.linalg.norm(f.cokernel.basis.T @ t @ f.kernel.basis, axis=(-2, -1))


def _factors_at(x: np.ndarray, xinv: GenInverse, cfg: Numerics) -> Factors:
    """SVD factors of X, whose rank must be the one its inverse fixes."""
    f = svd_factors(x, cfg.rank_tol)
    k = xinv.range_complement.dim  # R(X+) complements N(X)
    if f.range.dim != k:
        raise ComplementError(f"operator has numerical rank {f.range.dim} but its inverse has rank {k}")
    return f


@dataclass(frozen=True)
class OperatorFamilyContext:
    """Base operator, inverse, pinned splitting of operator space, projectors.

    ``factors`` holds the SVD subspaces of A; ``m0`` spans the tangent slice
    M(A) inside R^{mn}; ``estar``, built on first access, spans the complement
    {T : R(T) in N(A+), N(T) contains R(A+)}.  The four cached projectors are
    the obliques onto R(A), N(A+), R(A+), N(A) determined by the complements
    of the inverse.
    """

    a: np.ndarray
    ainv: GenInverse
    factors: Factors
    m0: Subspace
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
    def ball_radius(self) -> float:
        return self.ainv.ball_radius

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
    m, n = arr.shape
    p_ra = arr @ ainv.inverse
    p_ra_plus = ainv.inverse @ arr
    p_na_plus = np.eye(m) - p_ra
    p_na = np.eye(n) - p_ra_plus

    # M(A) (+) E* = R^{mn} exactly when R(A) (+) N(A+) splits the codomain
    # and N(A) (+) R(A+) splits the domain.
    f = svd_factors(arr, cfg.rank_tol)
    if not (
        direct_sum_check(f.range, ainv.kernel_complement, cfg)
        and direct_sum_check(f.kernel, ainv.range_complement, cfg)
    ):
        raise ComplementError(f"complements of the inverse fail to split codomain and domain (rank {f.range.dim})")
    # Every complement element n w^T must map into N(A+) and kill R(A+).
    n_plus = ainv.kernel_complement.basis
    r_plus_perp = ainv.range_complement.orthogonal_complement().basis
    if op_norm(p_ra @ n_plus) > cfg.tol_num or op_norm(r_plus_perp.T @ p_ra_plus) > cfg.tol_num:
        raise ComplementError("complement element violates its range/kernel characterization")
    return OperatorFamilyContext(
        a=arr, ainv=ainv, factors=f, m0=_tangent_slice(f),
        p_ra=p_ra, p_na_plus=p_na_plus, p_ra_plus=p_ra_plus, p_na=p_na,
    )


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
    f = _factors_at(xm, xinv, cfg)
    basis = _tangent_slice(f)
    if np.max(_slice_defect(f, basis.basis.T.reshape(-1, m, n)), initial=0.0) > cfg.tol_num:
        raise ComplementError("constructed element violates T N(X) in R(X)")
    return basis


def operator_family(ctx: OperatorFamilyContext, rank_tol: float | None = None, cfg: Numerics = DEFAULTS) -> SubspaceFamily:
    """The family X -> M(X) over vectorized operator space.

    Evaluation is inverse-free: M(X) = [U (x) I_n | U_perp (x) V_row] from one
    SVD of X, so it is defined for every X, including points where the pinned
    splitting fails; where X has full row rank, U_perp is empty and M(X) is
    the whole space.  ``rank_tol`` controls the rank decision of that SVD.
    """
    m, n = ctx.m, ctx.n
    tol = cfg.rank_tol if rank_tol is None else rank_tol

    def eval_fn(p: np.ndarray) -> Subspace:
        return _tangent_slice(svd_factors(unvec(p, m, n), tol))

    return SubspaceFamily(
        eval_fn=eval_fn,
        base_point=vec(ctx.a),
        base_subspace=ctx.m0,
        complement=ctx.estar,
    )


def _chart_factor(ctx: OperatorFamilyContext, x: np.ndarray) -> np.ndarray:
    """C(A+, X) = I + (X - A) A+, formed as ``c_op`` forms it, for X in the
    chart region ||(X - A) A+|| < 1; BallError outside it."""
    gap = (x - ctx.a) @ ctx.ainv.inverse
    norm = _screened_norm(gap, 1.0)
    if norm >= 1.0:
        raise BallError(f"||(X - A) A+|| = {norm:.6g} >= 1: outside the chart region")
    return np.eye(ctx.m) + gap


def chart_d(ctx: OperatorFamilyContext, x, cfg: Numerics = DEFAULTS) -> np.ndarray:
    """Forward chart D(X) = (X - A) P[R(A+)] + C^{-1}(A+, X) X; D(A) = A."""
    xm = as_matrix(x)
    c = _conditioned(_chart_factor(ctx, xm), cfg)
    return (xm - ctx.a) @ ctx.p_ra_plus + np.linalg.solve(c, xm)


def chart_d_star(ctx: OperatorFamilyContext, t, cfg: Numerics = DEFAULTS) -> np.ndarray:
    """Inverse chart D*(T) = T P[R(A+)] + C(A+, T) T P[N(A)]; D*(A) = A."""
    tm = as_matrix(t)
    return tm @ ctx.p_ra_plus + _chart_factor(ctx, tm) @ tm @ ctx.p_na


def membership_residual(ctx: OperatorFamilyContext, t) -> float:
    """Relative orthogonal-projection defect of an operator against M(A)."""
    tm = as_matrix(t)
    return float(_slice_defect(ctx.factors, tm) / (1.0 + np.linalg.norm(tm)))


def alpha_operator_family(ctx: OperatorFamilyContext, x, dx, cfg: Numerics = DEFAULTS) -> np.ndarray:
    """Coordinate-operator action on a tangent direction, in closed form.

    For X in the chart region whose inverse is A+ C^{-1}(A+, X) and a
    direction dX in M(A),

        a(X) dX = P[N(A+)] (C^{-1} dX A+ C^{-1} X - C^{-1} dX) P[N(A)].

    Raises TransversalityError if X has no such inverse and MembershipError
    if dX lies outside M(A).
    """
    xm, dxm = as_matrix(x), as_matrix(dx)
    perturbed_gi(ctx.a, ctx.ainv, xm, cfg)  # BallError / TransversalityError
    if membership_residual(ctx, dxm) > cfg.tol_num:
        raise MembershipError("direction is not in the tangent slice at the base operator")
    c = _conditioned(c_op(ctx.a, ctx.ainv, xm), cfg)
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
    """
    k = ctx.rank
    round_trip_max = 0.0
    membership_max = 0.0
    membership_failures = 0
    rank_failures = 0

    for j in range(samples):
        rng = trial_rng(seed, j)
        x = sample_fixed_rank_near(ctx, rng)
        t = chart_d(ctx, x, cfg)
        resid = membership_residual(ctx, t)
        membership_max = max(membership_max, resid)
        if resid > cfg.tol_num:
            membership_failures += 1
        back = chart_d_star(ctx, t, cfg)
        round_trip_max = max(
            round_trip_max, op_norm(back - x) / max(1.0, op_norm(x))
        )

        dt = unvec(ctx.m0.basis @ unit(rng.standard_normal(ctx.m0.dim)), ctx.m, ctx.n)
        t2 = ctx.a + (0.3 * ctx.ball_radius if math.isfinite(ctx.ball_radius) else 0.3) * dt
        x2 = chart_d_star(ctx, t2, cfg)
        # Rank decided with slack for roundoff accumulated through the chart;
        # a genuine rank change would move a singular value by O(ball radius).
        if rank_of(x2, 1e-9) != k:
            rank_failures += 1

    return ChartCheckReport(
        samples=samples,
        m0_dim=ctx.m0.dim,
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
    span is rank-checked against dim M(X) = mn - (m - k)(n - k).
    """
    xm = as_matrix(x)
    gi_x = perturbed_gi(ctx.a, ctx.ainv, xm, cfg)
    factors_x = _factors_at(xm, gi_x, cfg)
    t0 = chart_d(ctx, xm, cfg)
    h = 1e-6 * (1.0 + op_norm(t0))

    worst = 0.0
    velocities = []
    for j in range(curves):
        rng = trial_rng(seed, j)
        dt = unvec(ctx.m0.basis @ unit(rng.standard_normal(ctx.m0.dim)), ctx.m, ctx.n)
        plus = chart_d_star(ctx, t0 + h * dt, cfg)
        minus = chart_d_star(ctx, t0 - h * dt, cfg)
        velocity = (plus - minus) / (2.0 * h)
        speed = float(np.linalg.norm(velocity))
        if speed == 0.0:
            continue
        worst = max(worst, float(_slice_defect(factors_x, velocity)) / speed)
        velocities.append(vec(velocity))

    span_dim = rank_of(np.column_stack(velocities), 1e-6) if velocities else 0
    k = ctx.rank
    expected = ctx.m * ctx.n - (ctx.m - k) * (ctx.n - k)
    return TangencyReport(
        max_residual=worst, tangent_span_dim=span_dim, expected_dim=expected, curves=curves
    )
