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
    _built,
    _kernel_batch,
    _kernel_svd,
    _read_only,
    as_matrix,
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


@dataclass(frozen=True, eq=False)
class CoordinateOperator:
    """Linear map from M0-coordinates to E*-coordinates, in pinned bases.

    ``alpha`` has shape (dim E*, dim M0); column j holds the E*-coordinates
    of the image of the j-th basis vector of M0.
    """

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _read_only(as_matrix(self.alpha, "alpha")))

    @property
    def norm(self) -> float:
        return op_norm(self.alpha)

    def __call__(self, coords):
        return self.alpha @ np.asarray(coords, dtype=float)


@dataclass(frozen=True)
class DifferentiableMap:
    """A C^1 map R^dom_dim -> R^cod_dim with optional analytic Jacobian.

    ``func`` and ``jac`` are called with a 1-D float64 view of one point and
    return the value there, cod_dim entries, and the Jacobian there, shape
    (cod_dim, dom_dim).  Neither may write to its argument: the batched
    routes pass them the rows of one point array.  In a batch, a point whose
    ``jac`` raises, has the wrong shape or is not finite counts as failed.
    """

    dom_dim: int
    cod_dim: int
    func: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x) -> np.ndarray:
        return self._value(self.func(np.asarray(x, dtype=float)))

    def _value(self, out) -> np.ndarray:
        """A ``func`` result as a flat float vector of cod_dim entries, or EvalError."""
        out = np.asarray(out, dtype=float).ravel()
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


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "base_point", _read_only(np.asarray(self.base_point, dtype=float).ravel()))
        _splitting(self.base_subspace, self.complement)
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
        dimension; dimension -1 where ``eval`` raises EvalError.  An
        ``eval_fn`` with a ``_batch`` method takes a finite (N, param_dim)
        float array in one call, with ``eval``'s bytes; any other input or
        ``eval_fn``, and a ``_batch`` that raises LinAlgError, go point by point."""
        batch = getattr(self.eval_fn, "_batch", None)
        try:
            arr = np.asarray(points, dtype=float)
        except (TypeError, ValueError):  # ragged or not numeric
            arr = np.empty(0)
        if batch and arr.ndim == 2 and arr.shape[1] == self.param_dim and np.isfinite(arr).all():
            try:
                return batch(arr)
            except np.linalg.LinAlgError:
                pass
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


def _splitting(base: Subspace, complement: Subspace) -> Subspace:
    """``complement``, once checked to split the ambient space with ``base``."""
    if not direct_sum_check(base, complement):
        raise ComplementError("base subspace and complement do not split the ambient space")
    return complement


class _JacobianKernels:
    """x -> N(f'(x)) at a fixed rank tolerance: a kernel family's ``eval_fn``,
    with the Jacobian ``base`` = f'(x0) the family was built from."""

    def __init__(self, f: DifferentiableMap, cfg: Numerics, tol: float | None, base: np.ndarray):
        self.f, self.cfg, self.tol, self.base = f, cfg, tol, base

    def __call__(self, x) -> Subspace:
        return kernel_of(self.f.jacobian(x, self.cfg), self.tol)

    def _batch(self, points: np.ndarray) -> SubspaceBatch:
        """The kernels at the rows of a finite (N, dom_dim) array, with
        ``__call__``'s bytes: the Jacobians point by point, their kernels from
        one stacked SVD; dimension -1 where the Jacobian fails."""
        rows, stack = _jacobian_stack(self.f, self.cfg, points)
        ranks, vh = _kernel_svd(stack, self.tol)
        dims = np.full(len(points), -1)
        dims[rows] = self.f.dom_dim - ranks
        return SubspaceBatch(self.f.dom_dim, dims, _kernel_batch(ranks, vh).stacks)


def _value_stack(f: DifferentiableMap, points: np.ndarray) -> np.ndarray:
    """f at the rows of a float array (N, dom_dim), stacked (N, cod_dim): the
    one value loop of the batched routes, bit for bit ``f`` point by point.

    ``f.func`` is called once per row; its results are checked as one stack,
    and one by one, with ``f``'s EvalError, only when the stack is not a
    float64 array of N rows of cod_dim entries."""
    func = f.func
    outs = [func(row) for row in points]
    try:
        stack = np.array(outs)
    except Exception:  # noqa: BLE001 - ragged or not numeric: checked one by one below
        stack = None
    if stack is None or stack.dtype != np.float64 or stack.size != len(points) * f.cod_dim:
        return np.array([f._value(out) for out in outs]).reshape(-1, f.cod_dim)
    return stack.reshape(-1, f.cod_dim)


def _jacobian_stack(f: DifferentiableMap, cfg: Numerics, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a float array (N, dom_dim) where f's Jacobian evaluates
    and is finite, as indices, and those Jacobians stacked (count, cod_dim,
    dom_dim): the one Jacobian loop of the batched routes, bit for bit
    ``f.jacobian`` point by point.

    ``f.jac`` is called once per point on a row of the point array, in row
    order; the rows where it raises are noted as they come, and the row
    index is cut from them only then.  The results are checked as one
    stack, and one by one only when the stack is not a finite float64
    array of the expected shape."""
    jac = f.jac if f.jac is not None else functools.partial(f.fd_jacobian, cfg=cfg)
    outs, raised = [], []
    for i, row in enumerate(points):
        try:
            outs.append(jac(row))
        except Exception:  # noqa: BLE001 - user code; eval maps it to EvalError
            raised.append(i)
    index = np.arange(len(points))
    if raised:
        index = np.delete(index, raised)
    shape = (len(outs), f.cod_dim, f.dom_dim)
    try:
        stack = np.array(outs)
    except Exception:  # noqa: BLE001 - ragged or not numeric: checked one by one below
        stack = None
    if stack is None or stack.dtype != np.float64 or stack.shape != shape:
        jacs = [_as_jacobian(out, shape[1:]) for out in outs]
        index = index[[j is not None for j in jacs]]
        stack = np.array([j for j in jacs if j is not None]).reshape(-1, *shape[1:])
    if np.count_nonzero(np.isfinite(stack)) < stack.size:
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
    return _built(CoordinateOperator, estar.basis.T @ lifted)


def graph_subspace(m0: Subspace, estar: Subspace, alpha: CoordinateOperator) -> Subspace:
    """Subspace spanned by ``b_j + E* . alpha[:, j]`` over the m0 basis."""
    arr = alpha.alpha
    if arr.shape != (estar.dim, m0.dim):
        raise DimensionError(f"alpha shape {arr.shape} incompatible with ({estar.dim}, {m0.dim})")
    return Subspace._wrap(orth_basis(m0.basis + estar.basis @ arr))


def kernel_family(
    f: DifferentiableMap,
    x0,
    cfg: Numerics = DEFAULTS,
    estar: Subspace | None = None,
    rank_tol: float | None = None,
) -> SubspaceFamily:
    """Family of Jacobian kernels x -> N(f'(x)) anchored at ``x0``.

    One SVD of f'(x0) gives the base kernel, bit for bit the family's value at
    ``x0``, and the default complement, the row space of f'(x0), which splits
    with it by construction; only a caller's ``estar`` is checked (ComplementError).
    """
    base = np.asarray(x0, dtype=float).ravel()
    if base.size != f.dom_dim:
        raise EvalError(f"base point has {base.size} coordinates, map expects {f.dom_dim}")
    f.check_jacobian([base], cfg)
    t0 = f.jacobian(base, cfg)
    tol = cfg.rank_tol if rank_tol is None else rank_tol
    gi0 = moore_penrose(t0, tol)
    kernel = gi0._factors(tol).kernel
    complement = gi0.range_complement if estar is None else _splitting(kernel, estar)
    return _built(SubspaceFamily, _JacobianKernels(f, cfg, tol, t0), _read_only(base), kernel, complement, f)


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
    m0 = gi0._factors(cfg.rank_tol).kernel
    d = _conditioned(_d_factor(t0, gi0.inverse, tx), cfg)
    lifted = onto_estar @ np.linalg.solve(d, onto_kernel @ m0.basis)
    return _built(CoordinateOperator, gi0.range_complement.basis.T @ lifted)


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
