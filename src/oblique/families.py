"""Families of subspaces and their coordinate operators.

If two subspaces M0 and Mx of equal dimension share a complement E*, then Mx
is the graph of a unique linear map a : M0 -> E*, i.e. Mx = {e + a e}.  The
functions here compute that map, rebuild subspaces from it, derive kernel
families from differentiable maps, and probe whether a base point of a family
keeps transversality (and a continuous coordinate operator) nearby.
"""

import functools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULTS, Numerics
from .errors import BallError, ComplementError, DimensionError, EvalError, TransversalityError
from .geninv import GenInverse, _admit, _conditioned, _d_factor, _probe_directions, locally_fine_probe, moore_penrose
from .linalg import (
    Subspace,
    SubspaceBatch,
    _kernel_batch,
    _kernel_svd,
    direct_sum_check,
    kernel_of,
    oblique_projector,
    op_norm,
    orth_basis,
    subspace_distance,
)

__all__ = [
    "CoordinateOperator",
    "DifferentiableMap",
    "SubspaceFamily",
    "cofinal_member",
    "coordinate_operator",
    "graph_subspace",
    "kernel_family",
    "grp_alpha",
    "generalized_regular_probe",
]


@dataclass(frozen=True)
class CoordinateOperator:
    """Linear map from M0-coordinates to E*-coordinates, in pinned bases.

    ``alpha`` has shape (dim E*, dim M0); column j holds the E*-coordinates
    of the image of the j-th basis vector of M0.
    """

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha, dtype=float)
        if arr.ndim != 2 or not np.all(np.isfinite(arr)):
            raise ValueError("alpha must be a finite 2-d array")
        object.__setattr__(self, "alpha", arr)

    @property
    def norm(self) -> float:
        return op_norm(self.alpha)

    def __call__(self, coords):
        return self.alpha @ np.asarray(coords, dtype=float)


@dataclass(frozen=True)
class DifferentiableMap:
    """A C^1 map R^dom_dim -> R^cod_dim with optional analytic Jacobian.

    ``jac`` is called with a 1-D float64 view of one point and returns the
    Jacobian there, shape (cod_dim, dom_dim).  It must not write to its
    argument: the batched routes pass it the rows of one point array.  In a
    batch, a point whose ``jac`` raises, has the wrong shape or is not
    finite counts as failed.
    """

    dom_dim: int
    cod_dim: int
    func: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x) -> np.ndarray:
        out = np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float).ravel()
        if out.size != self.cod_dim:
            raise EvalError(f"map returned {out.size} components, expected {self.cod_dim}")
        return out

    def fd_jacobian(self, x, cfg: Numerics = DEFAULTS) -> np.ndarray:
        """Central-difference Jacobian, step scaled by 1 + ||x||_inf."""
        x = np.asarray(x, dtype=float).ravel()
        h = cfg.fd_rel_step * (1.0 + float(np.max(np.abs(x), initial=0.0)))
        cols = []
        for i in range(self.dom_dim):
            step = np.zeros(self.dom_dim)
            step[i] = h
            cols.append((self(x + step) - self(x - step)) / (2.0 * h))
        return np.column_stack(cols)

    def jacobian(self, x, cfg: Numerics = DEFAULTS) -> np.ndarray:
        if self.jac is not None:
            out = np.asarray(self.jac(np.asarray(x, dtype=float)), dtype=float)
            if out.shape != (self.cod_dim, self.dom_dim):
                raise EvalError(f"jacobian has shape {out.shape}, expected {(self.cod_dim, self.dom_dim)}")
            return out
        return self.fd_jacobian(x, cfg)

    def check_jacobian(self, points, cfg: Numerics = DEFAULTS) -> None:
        """Verify the analytic Jacobian against finite differences: the gap
        may reach ``fd_tol * (1 + ||J_fd||_2)``, so a map scaled far from 1
        is checked relative to its own size."""
        if self.jac is None:
            return
        for p in points:
            fd = self.fd_jacobian(p, cfg)
            gap = op_norm(self.jacobian(p, cfg) - fd)
            if gap > cfg.fd_tol * (1.0 + op_norm(fd)):
                raise EvalError(f"analytic Jacobian off by {gap:.3e} at {np.asarray(p).tolist()}")


@dataclass(frozen=True)
class SubspaceFamily:
    """A map from points to subspaces, anchored at a base point.

    The base subspace M0 = eval(base_point) and the complement E* are pinned
    at construction, so coordinate operators taken against them are
    comparable across evaluation points.  ``eval_fn`` must be a pure function
    of the point.  ``source_map`` is set when the family arose as the kernels
    of a Jacobian, x -> N(f'(x)), and declares that it is one: it enables
    level-set diagnostics downstream, and when dim E* = 1 ``integrate``
    takes its RK4 stages from f's Jacobian in closed form.
    """

    eval_fn: Callable[[np.ndarray], Subspace]
    base_point: np.ndarray
    base_subspace: Subspace
    complement: Subspace
    source_map: DifferentiableMap | None = None

    def __post_init__(self):
        object.__setattr__(self, "base_point", np.asarray(self.base_point, dtype=float).ravel())
        if not direct_sum_check(self.base_subspace, self.complement):
            raise ComplementError("base subspace and complement do not split the ambient space")
        at_base = self.eval(self.base_point)
        if subspace_distance(at_base, self.base_subspace) > DEFAULTS.tol_num:
            raise ValueError("family does not evaluate to the base subspace at the base point")

    @property
    def ambient_dim(self) -> int:
        return self.base_subspace.ambient_dim

    @property
    def param_dim(self) -> int:
        return self.base_point.size

    def eval(self, x) -> Subspace:
        point = np.asarray(x, dtype=float).ravel()
        if point.size != self.param_dim:
            raise EvalError(f"point has {point.size} coordinates, family expects {self.param_dim}")
        try:
            sub = self.eval_fn(point)
        except EvalError:
            raise
        except Exception as exc:  # noqa: BLE001 - family callables are user code
            raise EvalError(f"family evaluation failed at {point.tolist()}: {exc}") from exc
        if not isinstance(sub, Subspace) or sub.ambient_dim != self.ambient_dim:
            raise EvalError("family evaluation returned an incompatible subspace")
        return sub

    def eval_batch(self, points) -> SubspaceBatch:
        """The family at each point as one batch, one ``np.stack`` per
        dimension; dimension -1 where ``eval`` raises EvalError."""
        subs: list[Subspace | None] = []
        for u in points:
            try:
                subs.append(self.eval(u))
            except EvalError:
                subs.append(None)
        dims = np.array([-1 if s is None else s.dim for s in subs], dtype=int)
        stacks = {k: np.stack([s.basis for s in subs if s is not None and s.dim == k])
                  for k in set(dims.tolist()) - {-1}}
        return SubspaceBatch(self.ambient_dim, dims, stacks)


class _JacobianKernels:
    """x -> N(f'(x)) at a fixed rank tolerance: a kernel family's ``eval_fn``,
    with the Jacobian ``base`` = f'(x0) the family was built from."""

    def __init__(self, f: DifferentiableMap, cfg: Numerics, tol: float | None, base: np.ndarray):
        self.f, self.cfg, self.tol, self.base = f, cfg, tol, base

    def __call__(self, x) -> Subspace:
        return kernel_of(self.f.jacobian(x, self.cfg), self.tol)


def _point_rows(points, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The points with ``dim`` coordinates, as indices and float rows
    (count, dim); a point of another size is left out.  An (N, dim) float
    array passes through as it is, and a ragged list is taken point by
    point, as ``eval`` takes them."""
    try:
        arr = np.asarray(points, dtype=float)
    except ValueError:  # ragged
        arr = None
    if arr is not None and arr.ndim:
        if arr.size != len(arr) * dim:
            return np.zeros(0, dtype=int), np.zeros((0, dim))
        return np.arange(len(arr)), arr.reshape(len(arr), dim)
    index, rows = [], []
    for i, u in enumerate(points):
        point = np.asarray(u, dtype=float).ravel()
        if point.size == dim:
            index.append(i)
            rows.append(point)
    return np.array(index, dtype=int), np.array(rows).reshape(-1, dim)


def _jacobian_stack(f: DifferentiableMap, cfg: Numerics, points) -> tuple[np.ndarray, np.ndarray]:
    """The points where f's Jacobian evaluates and is finite, as indices, and
    those Jacobians stacked (count, cod_dim, dom_dim): the one Jacobian loop
    of the batched routes, bit for bit ``f.jacobian`` point by point.  A
    point of the wrong size counts as failing.

    ``f.jac`` is called once per point on a row of the point array; its
    results are checked as one stack, and one by one only when the stack is
    not a finite float64 array of the expected shape."""
    index, rows = _point_rows(points, f.dom_dim)
    jac = f.jac if f.jac is not None else functools.partial(f.fd_jacobian, cfg=cfg)
    outs, failed = [], []
    for i, row in enumerate(rows):
        try:
            outs.append(jac(row))
        except Exception:  # noqa: BLE001 - user code; eval maps it to EvalError
            failed.append(i)
    if failed:
        index = np.delete(index, failed)
    shape = (len(outs), f.cod_dim, f.dom_dim)
    try:
        stack = np.array(outs)
    except Exception:  # noqa: BLE001 - ragged or not numeric: checked one by one below
        stack = None
    if stack is None or stack.dtype != np.float64 or stack.shape != shape:
        jacs = [_as_jacobian(out, shape[1:]) for out in outs]
        index = index[[j is not None for j in jacs]]
        stack = np.array([j for j in jacs if j is not None]).reshape(-1, *shape[1:])
    if not np.isfinite(stack).all():
        finite = np.isfinite(stack).all(axis=(1, 2))
        index, stack = index[finite], stack[finite]
    return index, stack


def _as_jacobian(out, shape: tuple[int, int]) -> np.ndarray | None:
    """A ``jac`` result as ``DifferentiableMap.jacobian`` returns it, or None
    where that raises."""
    try:
        arr = np.asarray(out, dtype=float)
    except Exception:  # noqa: BLE001 - user code
        return None
    return arr if arr.shape == shape else None


class _KernelFamily(SubspaceFamily):
    """A family whose ``eval_fn`` is a ``_JacobianKernels``, as built by
    ``kernel_family``.  A batch takes the Jacobians point by point and their
    kernels from one stacked SVD, bit for bit what ``eval`` gives, without
    wrapping a ``Subspace`` per point."""

    def _jacobian_svd(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``_jacobian_stack`` with the ranks and V^T of its Jacobians from one
        stacked SVD.  None when ``eval_fn`` was replaced or the SVD did not
        converge: then the points are evaluated one by one."""
        kernels = self.eval_fn
        if not isinstance(kernels, _JacobianKernels):
            return None
        rows, stack = _jacobian_stack(kernels.f, kernels.cfg, points)
        try:
            return (rows, *_kernel_svd(stack, kernels.tol))
        except np.linalg.LinAlgError:
            return None

    def eval_batch(self, points) -> SubspaceBatch:
        found = self._jacobian_svd(points)
        if found is None:
            return super().eval_batch(points)
        rows, ranks, vh = found
        dims = np.full(len(points), -1)
        dims[rows] = self.ambient_dim - ranks
        return SubspaceBatch(self.ambient_dim, dims, _kernel_batch(ranks, vh).stacks)


def cofinal_member(family: SubspaceFamily, x, cfg: Numerics = DEFAULTS) -> bool:
    """True iff the family's subspace at ``x`` still splits off the pinned
    complement.  A drift in subspace dimension counts as failure, not error."""
    return direct_sum_check(family.eval(x), family.complement, cfg)


def coordinate_operator(m0: Subspace, estar: Subspace, mx: Subspace, cfg: Numerics = DEFAULTS) -> CoordinateOperator:
    """The unique map a with ``mx = {e + a e : e in m0}``.

    Computed by projecting each m0 basis vector onto mx along estar and
    reading the estar-component off along m0.
    """
    if mx.dim != m0.dim:
        raise DimensionError(f"graph subspace has dim {mx.dim}, base has dim {m0.dim}")
    onto_mx = oblique_projector(mx, estar, cfg)
    onto_estar = oblique_projector(estar, m0, cfg)
    lifted = onto_estar.matrix @ (onto_mx.matrix @ m0.basis)
    return CoordinateOperator(estar.basis.T @ lifted)


def graph_subspace(m0: Subspace, estar: Subspace, alpha: CoordinateOperator) -> Subspace:
    """Subspace spanned by ``b_j + E* . alpha[:, j]`` over the m0 basis."""
    arr = alpha.alpha
    if arr.shape != (estar.dim, m0.dim):
        raise DimensionError(f"alpha shape {arr.shape} incompatible with ({estar.dim}, {m0.dim})")
    if m0.dim == 0:
        return Subspace.trivial(m0.ambient_dim)
    return Subspace._wrap(orth_basis(m0.basis + estar.basis @ arr))


def kernel_family(
    f: DifferentiableMap,
    x0,
    cfg: Numerics = DEFAULTS,
    estar: Subspace | None = None,
    rank_tol: float | None = None,
) -> SubspaceFamily:
    """Family of Jacobian kernels x -> N(f'(x)) anchored at ``x0``.

    The default complement is the row space of f'(x0), i.e. the range of its
    pseudoinverse (the orthogonal complement of the base kernel).
    """
    base = np.asarray(x0, dtype=float).ravel()
    if base.size != f.dom_dim:
        raise EvalError(f"base point has {base.size} coordinates, map expects {f.dom_dim}")
    f.check_jacobian([base], cfg)
    t0 = f.jacobian(base, cfg)
    tol = cfg.rank_tol if rank_tol is None else rank_tol
    base_subspace = kernel_of(t0, tol)
    if estar is None:
        estar = moore_penrose(t0, tol).range_complement
    return _KernelFamily(
        eval_fn=_JacobianKernels(f, cfg, tol, t0),
        base_point=base,
        base_subspace=base_subspace,
        complement=estar,
        source_map=f,
    )


def grp_alpha(f: DifferentiableMap, gi0: GenInverse, x, cfg: Numerics = DEFAULTS) -> CoordinateOperator:
    """Coordinate operator of the kernel family from the closed formula.

    With T0 = f'(x0) and its inverse gi0, the kernel at ``x`` is the graph of

        a(x) = P[E* along N0] . D^{-1}(T0+, T_x) . P[N0 along E*]   on N0,

    where E* = R(T0+).  Requires ``x`` inside the perturbation ball with the
    range of T_x transversal to N(T0+).
    """
    p = _admit(gi0.forward, gi0, f.jacobian(np.asarray(x, dtype=float), cfg), cfg)
    t0, tx = p.a, p.t
    margin = p.range_margin(operator.le)
    if margin <= 0.0:
        raise TransversalityError(f"Jacobian range meets the kernel complement (margin {margin:.3e})")
    n = gi0.dom_dim
    onto_estar = gi0.inverse @ t0          # projector onto R(T0+) along N(T0)
    onto_kernel = np.eye(n) - onto_estar
    m0 = kernel_of(t0, cfg.rank_tol)
    estar = gi0.range_complement
    d = _conditioned(_d_factor(t0, gi0.inverse, tx), cfg)
    lifted = onto_estar @ np.linalg.solve(d, onto_kernel @ m0.basis)
    return CoordinateOperator(estar.basis.T @ lifted)


def generalized_regular_probe(
    f: DifferentiableMap,
    x0,
    radii,
    samples: int,
    seed: int = 0,
    cfg: Numerics = DEFAULTS,
):
    """Probe the Jacobian family of ``f`` around ``x0``.

    Delegates to the inverse-continuity probe on x -> f'(x) and additionally
    records, per radius, the largest coordinate-operator norm over the same
    sample points (expected to shrink with the radius when the base point is
    well-behaved).
    """
    base = np.asarray(x0, dtype=float).ravel()
    gi0 = moore_penrose(f.jacobian(base, cfg))
    report = locally_fine_probe(lambda p: f.jacobian(p, cfg), base, gi0, radii, samples, seed, cfg)

    directions = _probe_directions(seed, range(samples), base.size)
    modulus: list[float | None] = []
    for radius in radii:
        worst = None
        for d in directions:
            try:
                a = grp_alpha(f, gi0, base + radius * d, cfg)
            except (BallError, TransversalityError):
                continue
            worst = a.norm if worst is None else max(worst, a.norm)
        modulus.append(worst)
    report.alpha_modulus = modulus
    return report
