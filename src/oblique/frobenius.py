"""One-step integration of the graph ODE of an integrable subspace family.

Around a base point x0 with M0 = M(x0) and pinned complement E*, the
submanifold tangent to the family is the graph of a map psi from M0 into E*
solving

    psi'(z) = a(z + psi(z)),    psi(base M0-part of x0) = base E*-part of x0,

where ``a`` is the coordinate operator of M(.) against (M0, E*).  The solver
is a classical fourth-order one-step method on an axis-aligned lattice in
M0-coordinates; for multi-dimensional bases the lattice is filled along
axis-ordered polyline paths and re-filled in the reversed order, the maximal
disagreement doubling as an integrability diagnostic.

The lines of one axis pass are independent initial-value problems, and
the two axis orders fill separate lattices, so pass k of both orders
advances together, hop by hop, as stacked arrays; each line carries its own
axis.  Each RK4 stage evaluates the field over the active lines in one
batch.  For a family with a source map f: R^n -> R (the kernels of a
Jacobian with one row, so dim E* = 1) the paper's closed form
a(x) = P[E* along N0] D^-1(T0+, J(x)) P[N0 along E*] reads, in M0/E*
coordinates, alpha(x) = -(J(x) M0) / (J(x) E*): one product of the Jacobian
stack with the pinned bases and one division, its splitting margin
|J E*| / ||J||_2 read off the same Jacobian and a change of sign of J E*
read as a fold.  Every other family goes through ``eval_batch``: the
stacked bases of the expected dimension, then their splitting margins and
solves in one stacked call each.  The per-node checks of a finished patch
and ``tangency_check`` take that second route for every family, so they
check the march independently.
"""

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import DEFAULTS, Numerics
from .errors import (
    CofinalBreach,
    GridError,
    NewtonDivergence,
    StepError,
    ValidationError,
)
from .families import DifferentiableMap, SubspaceFamily, _JacobianKernels, _jacobian_stack
from .geninv import GenInverse
from .linalg import kernel_of, oblique_projector

__all__ = [
    "IntegralPatch",
    "PatchDiagnostics",
    "integrate",
    "tangency_check",
    "explicit_psi",
    "explicit_patch",
]


@dataclass
class PatchDiagnostics:
    step: float
    spacing: tuple[float, ...]
    initial_residual: float = 0.0
    path_residual: float | None = None
    ode_residual: float | None = None
    ode_residual_scaled: float | None = None
    level_set_residual: float | None = None
    tangency_residual: float | None = None
    breached: bool = False
    unfilled: int = 0
    cofinal_failures: int = 0

    def to_dict(self) -> dict:
        return asdict(self) | {"spacing": list(self.spacing)}


@dataclass
class IntegralPatch:
    """Discrete graph of psi over a lattice in M0-coordinates.

    ``psi`` has shape (*lattice, estar_dim); ``filled`` marks nodes actually
    reached (paths stop at a transversality breach instead of extrapolating).
    Coordinates refer to the pinned bases stored in ``m0_basis`` and
    ``estar_basis``; ``reconstruct`` lifts nodes back to ambient points.
    """

    axes: tuple[np.ndarray, ...]
    psi: np.ndarray
    filled: np.ndarray
    base_m0: np.ndarray
    base_estar: np.ndarray
    m0_basis: np.ndarray
    estar_basis: np.ndarray
    diagnostics: PatchDiagnostics

    @property
    def m0_dim(self) -> int:
        return len(self.axes)

    @property
    def estar_dim(self) -> int:
        return self.psi.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def center_index(self) -> tuple[int, ...]:
        return tuple((len(ax) - 1) // 2 for ax in self.axes)

    def node_coords(self, index) -> np.ndarray:
        return np.array([self.axes[i][index[i]] for i in range(self.m0_dim)])

    def grid(self) -> np.ndarray:
        """All lattice nodes as rows, in row-major node order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def psi_values(self) -> np.ndarray:
        return self.psi.reshape(-1, self.estar_dim)

    def reconstruct(self) -> np.ndarray:
        """Ambient points ``lift(z) + lift(psi(z))`` for all nodes, shaped
        (*lattice, ambient_dim); NaN at unreached nodes."""
        return self.grid().reshape(*self.shape, -1) @ self.m0_basis.T + self.psi @ self.estar_basis.T

    def to_dict(self) -> dict:
        return {
            "m0_dim": self.m0_dim,
            "estar_dim": self.estar_dim,
            "axes": [ax.tolist() for ax in self.axes],
            "grid": self.grid().tolist(),
            "psi": self.psi_values().tolist(),
            "filled": self.filled.ravel().tolist(),
            "base": {"m0": self.base_m0.tolist(), "estar": self.base_estar.tolist()},
            "m0_basis": self.m0_basis.tolist(),
            "estar_basis": self.estar_basis.tolist(),
            "ambient": self.reconstruct().reshape(-1, self.m0_basis.shape[0]).tolist(),
            "diagnostics": self.diagnostics.to_dict(),
        }


class _AlphaEvaluator:
    """Batched coordinate-operator evaluation against the family's pinned bases.

    The projector onto E* along M0 is constant, so per point only the moving
    subspace has to be evaluated; the splitting margins and solves of a whole
    batch of points then take one stacked call each.

    RK4 stages go through ``stage``.  For a family with a source map f of
    one component, whose kernels have dim E* = 1, it takes the paper's
    closed form in M0/E* coordinates, alpha(x) = -(J M0) / (J E*), from the
    Jacobian stack: one product ``J [E* | M0]`` and one division, with no
    SVD.  A point is kept when J E* has the sign it has at the base (so J
    has rank 1; a change of sign means the march crossed a fold of the
    level set) and the splitting margin exceeds ``tol_split``.  That margin
    is the SVD route's sigma_min(Cperp^T Q) for an orthonormal kernel basis
    Q: N(J) and the orthogonal complement of E* are hyperplanes, so their
    one nonzero principal angle is the angle between their normals J^T and
    E*, and sigma_min(Cperp^T Q) = |J E*| / ||J||_2 (Bjorck & Golub 1973).
    It is compared scale-free as ||J / (J E*)||_2 < 1 / ``tol_split``, the
    norm taken with ``hypot`` so that no square overflows; a row where that
    quotient overflows, as alpha then does, is dropped without a warning.
    All other families, and the node checks, take the kernel bases and the
    splitting SVD (``alpha``, ``splits``).
    """

    def __init__(self, family: SubspaceFamily, cfg: Numerics):
        self.family = family
        self.cfg = cfg
        self.b0 = family.base_subspace.basis
        self.bs = family.complement.basis
        self.d = family.base_subspace.dim
        self.e = family.complement.dim
        n = family.ambient_dim
        self.onto_m0 = oblique_projector(family.base_subspace, family.complement, cfg).matrix
        # rows extracting E*-coordinates of the projection along M0
        self.estar_rows = self.bs.T @ (np.eye(n) - self.onto_m0)
        self.cperp = family.complement.orthogonal_complement().basis
        # right-hand sides of the solve: all columns of alpha, or one axis
        self.full_rhs = self.cperp.T @ self.b0
        self.axis_rhs = np.stack([(self.cperp.T @ self.b0[:, i])[:, None] for i in range(self.d)])
        # the map whose Jacobians the closed form takes, or None
        self.source = self._closed_form_source()

    def _closed_form_source(self) -> DifferentiableMap | None:
        """The family's source map when it has one component and its base
        Jacobian T0 has T0 E* != 0, recording the sign of T0 E*; None
        otherwise.  T0 is the one ``kernel_family`` took, else one Jacobian
        call at the base point."""
        f, kernels = self.family.source_map, self.family.eval_fn
        if f is None or f.cod_dim != 1 or self.e != 1:
            return None
        if isinstance(kernels, _JacobianKernels) and kernels.f is f:
            t0 = kernels.base[None]
        else:
            t0 = _jacobian_stack(f, self.cfg, self.family.base_point[None])[1]
        orientation = np.sign(t0 @ self.bs).ravel()
        if not (orientation.size and orientation[0]):
            return None
        self.orientation = orientation[0]
        self.pinned = np.hstack([self.bs, self.b0])
        self.margin_bound = 1.0 / self.cfg.tol_split if self.cfg.tol_split > 0.0 else math.inf
        return f

    def ambient(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Ambient points ``lift(z) + lift(w)`` of stacked coordinate rows,
        one matrix-vector product per row as for a single point."""
        return np.matmul(self.b0, z[..., None])[..., 0] + np.matmul(self.bs, w[..., None])[..., 0]

    def closed_form(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """alpha = -(J M0) / (J E*) at the kept points, shaped (kept, 1, dim
        M0), and the mask of kept points (see the class docstring)."""
        rows, jacs = _jacobian_stack(self.source, self.cfg, points)
        prod = np.matmul(jacs, self.pinned)
        alpha, norms = _quotients(jacs, prod[..., :1], prod[..., 1:])
        kept = (np.sign(prod[:, 0, 0]) == self.orientation) & (norms < self.margin_bound)
        if len(rows) == len(points) and kept.all():
            return alpha, kept  # every point evaluated and kept: kept is the mask
        ok = np.zeros(len(points), dtype=bool)
        ok[rows[kept]] = True
        return alpha[kept], ok

    def stage(self, points: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Column ``axis[r]`` of the coordinate operator at each point, for
        the kept points, shaped (kept, dim E*), and the mask of kept points:
        the closed form where the family takes it, else the SVD route."""
        if self.source is None:
            k, ok = self.alpha(self.family.eval_batch(points).of_dim(self.d), self.axis_rhs[axis])
            return k[..., 0], ok
        alpha, ok = self.closed_form(points)
        return alpha[np.arange(len(alpha)), :, axis[ok]], ok

    def splits(self, found: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """``direct_sum_check`` against the complement at each point of an
        ``of_dim`` result, from one stacked SVD; False where the evaluation
        failed."""
        ok, bases = found
        stacked = np.concatenate([bases, np.broadcast_to(self.bs, (len(bases),) + self.bs.shape)], axis=2)
        ok[ok] = np.linalg.svd(stacked, compute_uv=False)[:, -1] - self.cfg.tol_split > 0.0
        return ok

    def alpha(self, found: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate operator times ``rhs`` at each point of an ``of_dim``
        result, as one stacked SVD and one stacked solve.  ``rhs`` holds one
        right-hand side per point: ``full_rhs`` or a row of ``axis_rhs``.

        Returns the values of the kept points, shaped (kept, dim E*, cols),
        and the mask of kept points.  A point is dropped when its evaluation
        failed, its dimension drifted or its splitting margin against the
        complement is at most ``tol_split``.
        """
        ok, bases = found
        cross = self.cperp.T @ bases
        keep = np.linalg.svd(cross, compute_uv=False)[:, -1] > self.cfg.tol_split
        if not keep.all():
            bases, cross = bases[keep], cross[keep]
            ok[ok] = keep
        if not ok.all():
            rhs = rhs[ok]
        return self.estar_rows @ (bases @ np.linalg.solve(cross, rhs)), ok


@np.errstate(all="ignore")  # as a decorator: no context object per call
def _quotients(jacs: np.ndarray, je: np.ndarray, jm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha = -(J M0) / (J E*) and ||J / (J E*)||_2 of each row of a Jacobian
    stack, without warnings: a row whose J E* is 0, or below ||J||_2 by a
    factor past the float range, gets inf or NaN here, fails the split test
    and is dropped."""
    return -(jm / je), np.hypot.reduce(jacs / je, axis=2)[:, 0]


def _rk4_hop(
    ev: _AlphaEvaluator,
    z0: np.ndarray,
    w0: np.ndarray,
    axis: np.ndarray,
    delta: np.ndarray,
    step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of lines one lattice hop, each along its own axis,
    with RK4 sub-steps.

    Row r starts at M0-coordinates ``z0[r]`` with psi value ``w0[r]`` and
    moves ``delta[r]`` along axis ``axis[r]`` in sub-steps of at most
    ``step``.  Returns the psi values reached and the mask of rows that got
    there; a row whose field evaluation fails drops out at once and
    evaluates nothing further.
    """
    n_sub = np.maximum(1, np.ceil(np.abs(delta) / step - 1e-12)).astype(int)
    h = delta / n_sub
    unit = np.eye(z0.shape[1])[axis]
    w = w0.copy()
    ok = np.ones(len(z0), dtype=bool)
    for j in range(int(n_sub.max())):
        rows = np.flatnonzero(ok & (j < n_sub))
        hj, ej, aj = h[rows, None], unit[rows], axis[rows]
        z = z0[rows] + (j * hj) * ej
        wj = w[rows]
        ks: list[np.ndarray] = []
        for frac in (0.0, 0.5, 0.5, 1.0):
            if not rows.size:
                break
            if frac:
                point = ev.ambient(z + frac * hj * ej, wj + frac * hj * ks[-1])
            else:
                point = ev.ambient(z, wj)
            k, good = ev.stage(point, aj)
            if not good.all():
                ok[rows[~good]] = False
                rows, hj, ej, aj, z, wj = (a[good] for a in (rows, hj, ej, aj, z, wj))
                ks = [kk[good] for kk in ks]
            ks.append(k)
        if rows.size:
            k1, k2, k3, k4 = ks
            w[rows] = wj + (hj / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w, ok


def _line_heads(reached: np.ndarray, center: tuple[int, ...], done, axis: int) -> tuple[np.ndarray, ...]:
    """The lattice lines of one axis pass: start nodes (lines, d), directions
    (+1 or -1 along ``axis``) and lengths in nodes, start node included.

    Every reached node of the slab through the center that is free along the
    axes in ``done`` starts two lines, one per direction, running outward
    along ``axis`` to the lattice boundary.
    """
    shape = reached.shape
    ranges = [range(n) if i in done else (center[i],) for i, n in enumerate(shape)]
    starts = [start for start in itertools.product(*ranges) if reached[start]]
    starts = np.repeat(np.array(starts, dtype=int).reshape(-1, len(shape)), 2, axis=0)
    signs = np.tile([1, -1], len(starts) // 2)
    return starts, signs, np.where(signs > 0, shape[axis] - starts[:, axis], starts[:, axis] + 1)


def _outward_lines(reached: np.ndarray, center: tuple[int, ...], done, axis: int) -> list[list[tuple[int, ...]]]:
    """The lines of ``_line_heads``, each as the node indices it visits."""
    heads = zip(*(a.tolist() for a in _line_heads(reached, center, done, axis)))
    return [[(*s[:axis], s[axis] + j * sign, *s[axis + 1 :]) for j in range(count)] for s, sign, count in heads]


def _sweep(
    ev: _AlphaEvaluator,
    axes: tuple[np.ndarray, ...],
    center: tuple[int, ...],
    base_estar: np.ndarray,
    step: float,
    orders: list[tuple[int, ...]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill the lattice outward from the center once per axis order, one
    axis pass per entry of an order.  Pass k of every order advances in one
    batch, hop by hop: each line carries its own axis and the slot of its
    order, whose lattice it fills.  A line stops at its first breach, which
    counts once for its order.  Returns psi, the reached mask and the breach
    count of each order, stacked along a leading slot axis."""
    shape = tuple(len(ax) for ax in axes)
    slots = len(orders)
    psi = np.full((slots, *shape, ev.e), np.nan)
    filled = np.zeros((slots, *shape), dtype=bool)
    psi[(slice(None), *center)] = base_estar
    filled[(slice(None), *center)] = True
    breaches = np.zeros(slots, dtype=int)
    flat_axes = np.concatenate(axes)
    offsets = np.cumsum((0,) + shape[:-1])

    for pos in range(len(shape)):
        heads = [_line_heads(filled[s], center, order[:pos], order[pos]) for s, order in enumerate(orders)]
        slot = np.repeat(np.arange(slots), [len(signs) for _, signs, _ in heads])
        starts, signs, lengths = (np.concatenate(parts) for parts in zip(*heads))
        # per line, gathered once per pass: its axis, node move, and
        # coordinate along its axis at each hop (clipped past the line's end)
        axis = np.array([order[pos] for order in orders])[slot]
        moves = signs[:, None] * np.eye(len(shape), dtype=int)[axis]
        live = np.arange(len(starts))
        first = offsets[axis] + starts[live, axis]
        hops = np.arange(lengths.max())
        coord = flat_axes[np.clip(first[:, None] + signs[:, None] * hops, 0, flat_axes.size - 1)]
        z = np.column_stack([ax[starts[:, i]] for i, ax in enumerate(axes)])
        w = psi[(slot, *starts.T)]
        for hop in hops[1:]:
            live = live[lengths[live] > hop]
            if not live.size:
                break
            nodes = starts[live] + hop * moves[live]
            along, target = axis[live], coord[live, hop]
            w_new, ok = _rk4_hop(ev, z[live], w[live], along, target - z[live, along], step)
            if not ok.all():
                breaches += np.bincount(slot[live[~ok]], minlength=slots)
                live, nodes, along, target, w_new = live[ok], nodes[ok], along[ok], target[ok], w_new[ok]
            reached = (slot[live], *nodes.T)
            psi[reached] = w_new
            filled[reached] = True
            z[live, along] = target
            w[live] = w_new
    return psi, filled, breaches


def integrate(
    family: SubspaceFamily,
    extent,
    step: float,
    grid_points=None,
    cfg: Numerics = DEFAULTS,
) -> IntegralPatch:
    """Numerically build the graph of psi over a lattice around the base.

    ``extent`` gives per-axis half-widths in M0-coordinates (a scalar
    broadcasts); ``step`` is the RK4 sub-step along each lattice hop.
    ``grid_points`` fixes the odd node count per axis; by default a
    one-dimensional base is gridded at the step size and higher-dimensional
    bases get 21 nodes per axis.

    For a base of dimension d >= 2 the lattice is filled in the axis order
    and in the reversed order; pass k of both orders marches in one batch,
    hop by hop, and ``diagnostics.path_residual`` is the largest disagreement
    of the two at nodes both reached.  The patch, ``breached`` and
    ``unfilled`` come from the forward order.  The filled nodes are then
    checked in one batch (splitting, grid derivative against the field,
    level set for kernel families).

    A transversality breach along a path truncates that path: the patch comes
    back partial with ``diagnostics.breached`` set, holding every node that
    was reached.  A breach already at the base raises CofinalBreach.
    """
    if step <= 0:
        raise StepError(f"step must be positive, got {step}")
    if family.param_dim != family.ambient_dim:
        raise ValidationError("family parameters must be ambient points to reconstruct the patch")
    d = family.base_subspace.dim
    if d == 0:
        raise ValidationError("base subspace is trivial; nothing to integrate over")

    for name, values in (("extent", extent), ("grid_points", grid_points)):
        if np.size(values) not in (1, d):
            raise ValidationError(f"{name} has {np.size(values)} values for a base of dimension {d}")
    extent_arr = np.broadcast_to(np.asarray(extent, dtype=float).ravel(), (d,)).copy()
    if np.any(extent_arr <= 0):
        raise ValidationError("extents must be positive")
    if grid_points is None:
        counts = [2 * max(1, round(extent_arr[i] / step)) + 1 for i in range(d)] if d == 1 else [21] * d
    else:
        counts = np.broadcast_to(np.asarray(grid_points, dtype=int).ravel(), (d,)).tolist()
        for c in counts:
            if c < 3 or c % 2 == 0:
                raise ValidationError(f"grid_points must be odd and >= 3, got {c}")

    ev = _AlphaEvaluator(family, cfg)
    x0 = family.base_point
    base_m0 = ev.b0.T @ (ev.onto_m0 @ x0)
    base_estar = ev.bs.T @ (x0 - ev.onto_m0 @ x0)

    axes = []
    spacing = []
    for i in range(d):
        half = (counts[i] - 1) // 2
        sp = extent_arr[i] / half
        axes.append(base_m0[i] + sp * (np.arange(counts[i]) - half))
        spacing.append(float(sp))
    axes = tuple(axes)
    center = tuple((c - 1) // 2 for c in counts)

    at_base = family.eval_batch(x0[None])
    if not ev.alpha(at_base.of_dim(d), ev.full_rhs[None])[1][0]:
        found = "no subspace" if at_base.dims[0] < 0 else f"subspace of dim {at_base.dims[0]}"
        raise CofinalBreach(f"no splitting at the base point ({found}, expected dim {d})")

    order = tuple(range(d))
    orders = [order] if d == 1 else [order, order[::-1]]
    psis, reached, breaches = _sweep(ev, axes, center, base_estar, step, orders)
    psi, filled = psis[0], reached[0]

    path_residual: float | None = 0.0
    if d > 1:
        both = reached.all(axis=0)
        if both.any():
            path_residual = float(np.nanmax(np.abs(psi[both] - psis[1][both])))

    diag = PatchDiagnostics(step=float(step), spacing=tuple(spacing))
    diag.path_residual = path_residual
    diag.breached = bool(breaches[0])
    diag.unfilled = int(filled.size - filled.sum())
    diag.initial_residual = float(np.max(np.abs(psi[center] - base_estar)))

    patch = IntegralPatch(
        axes=axes,
        psi=psi,
        filled=filled,
        base_m0=base_m0,
        base_estar=base_estar,
        m0_basis=ev.b0.copy(),
        estar_basis=ev.bs.copy(),
        diagnostics=diag,
    )
    _fill_node_diagnostics(patch, ev)
    return patch


def _fill_node_diagnostics(patch: IntegralPatch, ev: _AlphaEvaluator) -> None:
    """Per-node checks: splitting holds, grid derivative matches the field,
    and (for kernel families) the patch stays on the level set.

    All filled nodes are evaluated in one batch; their splitting checks, alpha
    values and norms are then taken as stacked calls.  ``f`` runs per node.
    """
    d, shape = patch.m0_dim, patch.shape
    diag = patch.diagnostics
    f = ev.family.source_map

    nodes = np.argwhere(patch.filled)
    points = ev.ambient(patch.grid()[patch.filled.ravel()], patch.psi[patch.filled])
    batch = ev.family.eval_batch(points)
    split = ev.splits(batch.of_dim(d))
    failures = int(np.count_nonzero(~split))

    level_worst = 0.0
    if f is not None:
        f_base = f(ev.family.base_point)
        gaps = np.abs(np.array([f(u) for u in points[split]]).reshape(-1, f.cod_dim) - f_base).max(axis=1)
        # a node with a NaN component does not count, as in a running max
        level_worst = float(np.max(gaps[~np.isnan(gaps)], initial=0.0))

    # interior nodes whose axis neighbors are all filled get the ODE check
    inner = split & np.all((nodes > 0) & (nodes < np.array(shape) - 1), axis=1)
    unit = np.eye(d, dtype=int)
    for i in range(d):
        inner[inner] &= patch.filled[tuple((nodes[inner] + unit[i]).T)]
        inner[inner] &= patch.filled[tuple((nodes[inner] - unit[i]).T)]
    am, ok = ev.alpha(batch.of_dim(d), np.broadcast_to(ev.full_rhs, (len(points), *ev.full_rhs.shape)))
    failures += int(np.count_nonzero(inner & ~ok))
    am = am[inner[ok]]
    rows = np.flatnonzero(inner & ok)

    ode_worst = 0.0
    ode_scaled_worst = 0.0
    if rows.size:
        norms = np.linalg.svd(am, compute_uv=False)[:, 0]
        # scalar pow per node: numpy's vectorised power can differ in the last bit
        scale = np.array([(1.0 + float(s)) ** 3 for s in norms])
        for i in range(d):
            plus = patch.psi[tuple((nodes[rows] + unit[i]).T)]
            minus = patch.psi[tuple((nodes[rows] - unit[i]).T)]
            deriv = (plus - minus) / (2.0 * diag.spacing[i])
            resid = np.max(np.abs(deriv - am[:, :, i]), axis=1)
            ode_worst = max(ode_worst, float(resid.max()))
            ode_scaled_worst = max(ode_scaled_worst, float((resid / scale).max()))

    diag.level_set_residual = level_worst if f is not None else None
    diag.ode_residual = ode_worst
    diag.ode_residual_scaled = ode_scaled_worst
    diag.cofinal_failures = failures
    diag.breached = diag.breached or failures > 0


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of stacked vectors, bit for bit ``np.linalg.norm``
    of each (a BLAS dot product, not a pairwise sum of squares)."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


# Five-node first-derivative stencils (coefficients over offsets, /12h):
# error O(h^4); the shifted forms cover nodes one step from the boundary.
_STENCILS_5 = (
    ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0)),
    ((-1, 0, 1, 2, 3), (-3.0, -10.0, 18.0, -6.0, 1.0)),
    ((-3, -2, -1, 0, 1), (-1.0, 6.0, -18.0, 10.0, 3.0)),
)

# Extrapolation to the next node of a uniformly spaced lattice line: row j
# weighs its last j + 1 nodes, newest first, by the polynomial of degree j
# through them (binomial coefficients with alternating signs).
_PREDICTORS = (
    (1.0,),
    (2.0, -1.0),
    (3.0, -3.0, 1.0),
    (4.0, -6.0, 4.0, -1.0),
    (5.0, -10.0, 10.0, -5.0, 1.0),
)


def _axis_derivatives(patch: IntegralPatch, nodes: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid derivatives of psi along an axis at nodes given as index rows.

    Fourth order wherever five aligned filled nodes exist (central,
    forward-shifted or backward-shifted, first fit wins); second-order
    central fallback on coarse grids.  Returns the mask of nodes that have a
    derivative (boundary nodes never do) and the derivatives, NaN elsewhere.
    """
    n, h, i = patch.shape[axis], patch.diagnostics.spacing[axis], nodes[:, axis]
    at = {}  # offset -> (the node there is filled, psi there)
    for o in range(-3, 4):
        idx = nodes.copy()
        idx[:, axis] = np.clip(i + o, 0, n - 1)
        at[o] = (idx[:, axis] == i + o) & patch.filled[tuple(idx.T)], patch.psi[tuple(idx.T)]
    interior = (i > 0) & (i < n - 1)
    todo = interior.copy()
    out = np.full((len(nodes), patch.estar_dim), np.nan)
    for offsets, coeffs in _STENCILS_5:
        fits = todo & np.logical_and.reduce([at[o][0] for o in offsets])
        out[fits] = sum(c * at[o][1][fits] for c, o in zip(coeffs, offsets)) / (12.0 * h)
        todo &= ~fits
    fits = todo & at[-1][0] & at[1][0]
    out[fits] = (at[1][1][fits] - at[-1][1][fits]) / (2.0 * h)
    return (interior & ~todo) | fits, out


def tangency_check(patch: IntegralPatch, family: SubspaceFamily, cfg: Numerics = DEFAULTS) -> float:
    """Largest defect of grid tangent vectors against the family's subspaces.

    At interior nodes the finite-difference tangents (axis direction plus the
    psi derivative), lifted to ambient space, are projected onto the
    orthogonal complement of the subspace at the reconstructed point; the
    maximal relative projection norm is returned and stored in the patch
    diagnostics.  The family is evaluated in one batch, once per node; the
    derivatives, rejections and projections of all nodes are then taken as
    stacked calls.
    """
    if any(len(ax) < 3 for ax in patch.axes):
        raise GridError("tangency check needs at least 3 nodes per axis")
    ev = _AlphaEvaluator(family, cfg)
    nodes = np.argwhere(patch.filled)
    derivs = [_axis_derivatives(patch, nodes, i) for i in range(patch.m0_dim)]
    keep = np.logical_or.reduce([has for has, _ in derivs])
    derivs = [(has[keep], values[keep]) for has, values in derivs]
    batch = family.eval_batch(ev.ambient(patch.grid()[patch.filled.ravel()][keep], patch.psi[patch.filled][keep]))

    worst = 0.0
    # the rejections stack only across subspaces of one dimension
    for dim in set(batch.dims.tolist()) - {-1}:
        group, q = batch.of_dim(dim)
        reject = np.eye(family.ambient_dim) - q @ q.transpose(0, 2, 1)
        for i, (has, values) in enumerate(derivs):
            sel = has[group]
            if not sel.any():
                continue
            dv = values[group][sel]
            tangent = ev.b0[:, i] + np.matmul(ev.bs, dv[..., None])[..., 0]
            resid = _norms(np.matmul(reject[sel], tangent[..., None])[..., 0]) / _norms(tangent)
            worst = max(worst, float(resid.max()))
    patch.diagnostics.tangency_residual = worst
    return worst


def explicit_psi(
    f: DifferentiableMap,
    gi0: GenInverse,
    z,
    *,
    x0,
    w0=None,
    cfg: Numerics = DEFAULTS,
) -> np.ndarray:
    """Graph value of the level set of ``f`` through ``x0`` at M0-coords ``z``.

    Solves ``T0+ (f(lift(z) + w) - f(x0)) = 0`` for ``w`` in E*-coordinates by
    the constant-linear-model iteration ``w <- w - E*^T T0+ (f(u) - f(x0))``
    (the exact local model, since the relevant derivative is the constant
    projector onto E* along N0), started from ``w0``, by default the
    E*-coordinates of ``x0``.  ``explicit_patch`` passes each node a start
    predicted from the nodes before it on its lattice line.  Raises
    ValidationError for a ``z``, ``w0`` or ``x0`` of the wrong size or with a
    non-finite entry, and NewtonDivergence with the residual trace if the
    update norm does not reach ``newton_tol``.
    """
    solve, (m0_dim, estar_dim) = _graph_solver(f, gi0, x0, cfg)
    w0 = None if w0 is None else _finite_vector(w0, estar_dim, "w0")
    return solve(_finite_vector(z, m0_dim, "z"), w0)


def _finite_vector(value, size: int, name: str) -> np.ndarray:
    """``value`` as a flat float vector of ``size`` finite entries."""
    v = np.atleast_1d(np.asarray(value, dtype=float)).ravel()
    if v.size != size:
        raise ValidationError(f"{name} has {v.size} coordinates, expected {size}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{name} has non-finite entries: {v.tolist()}")
    return v


def _graph_solver(f: DifferentiableMap, gi0: GenInverse, x0, cfg: Numerics):
    """``explicit_psi`` at fixed ``f``, ``gi0`` and ``x0`` as a function of
    ``(z, w0)``, with the quantities that do not depend on z computed once.

    Checks ``x0`` and returns the solver with ``(dim M0, dim E*)``; the solver
    takes ``z`` and ``w0`` as finite flat vectors of those sizes, unchecked.
    """
    t0, t0_plus = gi0.forward, gi0.inverse
    base = _finite_vector(x0, t0.shape[1], "x0")
    m0 = kernel_of(t0, cfg.rank_tol).basis
    estar = gi0.range_complement.basis
    estar_t = np.ascontiguousarray(estar.T)
    f_base = f(base)
    w_base = estar_t @ ((t0_plus @ t0) @ base)

    def solve(z: np.ndarray, w0: np.ndarray | None = None) -> np.ndarray:
        w = w_base if w0 is None else w0
        lift = m0 @ z
        trace: list[float] = []
        for _ in range(cfg.newton_max_iter):
            u = lift + estar @ w
            dw = estar_t @ (t0_plus @ (f(u) - f_base))
            # bit for bit np.linalg.norm of a real vector: sqrt of its dot product
            update = math.sqrt(dw @ dw)
            trace.append(update)
            w = w - dw
            if update <= cfg.newton_tol:
                return w
            if not math.isfinite(update) or update > 1e9:
                raise NewtonDivergence(f"graph solve diverged at z={z.tolist()}", trace)
        raise NewtonDivergence(
            f"graph solve did not reach {cfg.newton_tol:g} in {cfg.newton_max_iter} iterations", trace
        )

    return solve, (m0.shape[1], estar.shape[1])


def _predict(history: list[np.ndarray]) -> np.ndarray:
    """Start for the next node of a lattice line from its solved nodes, newest
    first: degree 4 through the last five, lower while there are fewer."""
    weights = _PREDICTORS[min(len(history), len(_PREDICTORS)) - 1]
    return sum(c * w for c, w in zip(weights, history))


def explicit_patch(
    f: DifferentiableMap,
    gi0: GenInverse,
    patch: IntegralPatch,
    *,
    x0,
    cfg: Numerics = DEFAULTS,
) -> np.ndarray:
    """Evaluate the explicit graph map on a patch's lattice.

    Nodes are visited marching outward from the center along the lattice
    lines of ``integrate``'s axis passes.  Each solve starts from the
    polynomial extrapolation (``_predict``) of the nodes already solved on its
    line; if that start diverges, it is retried once from the previous node.
    A line stops where both starts fail, and unreachable nodes come back as
    NaN.  The integrated psi never enters a solve, so the result checks it
    independently.  Returns an array shaped like ``patch.psi``.
    """
    solve, dims = _graph_solver(f, gi0, x0, cfg)
    if dims != (patch.m0_dim, patch.estar_dim):
        got = (patch.m0_dim, patch.estar_dim)
        raise ValidationError(f"patch has (dim M0, dim E*) = {got}, the map gives {dims}")
    center = patch.center_index
    out = np.full_like(patch.psi, np.nan)
    out[center] = solve(patch.node_coords(center))

    for pos in range(patch.m0_dim):
        reached = ~np.isnan(out).any(axis=-1)
        for line in _outward_lines(reached, center, range(pos), pos):
            history = [out[line[0]]]
            for idx in line[1:]:
                z = patch.node_coords(idx)
                try:
                    w = solve(z, _predict(history))
                except NewtonDivergence:
                    try:
                        w = solve(z, history[0])
                    except NewtonDivergence:
                        break
                out[idx] = w
                history = [w, *history[: len(_PREDICTORS) - 1]]
    return out
