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
A patch's bases are the family's own read-only M0 and E* bases, not
copies.  The node checks and ``tangency_check`` lift every node with them
through one product (``_ambient``), so the two meet the same points and
share one evaluation per node (see ``tangency_check``); ``explicit_patch``
refuses an inverse whose N(T0) and R(T0+) bases are not those.
A patch's base, march and node checks share one splitting test:
sigma_min(Cperp^T Q) > ``tol_split``, Cperp an orthonormal basis of E*'s
orthogonal complement (``direct_sum_check``'s sigma_min [Q | E*] is smaller).
"""

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
from .families import DifferentiableMap, SubspaceFamily, _JacobianKernels, _jacobian_stack, _value_stack
from .geninv import GenInverse
from .linalg import SubspaceBatch, _norms, oblique_projector

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


@dataclass(eq=False)
class IntegralPatch:
    """Discrete graph of psi over a lattice in M0-coordinates.

    ``psi`` has shape (*lattice, estar_dim); ``filled`` marks nodes actually
    reached (paths stop at a transversality breach instead of extrapolating).
    Coordinates refer to the pinned bases ``m0_basis`` and ``estar_basis``,
    which ``integrate`` sets to the family's own read-only arrays;
    ``reconstruct`` lifts nodes back to ambient points.
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
    All other families, and the node checks, take the subspace bases and
    the splitting SVD (``alpha``).
    """

    def __init__(self, family: SubspaceFamily, cfg: Numerics):
        self.family = family
        self.cfg = cfg
        self.b0 = family.base_subspace.basis
        self.bs = family.complement.basis
        self.d = family.base_subspace.dim
        self.e = family.complement.dim
        n = family.ambient_dim
        self.cperp = family.complement.orthogonal_complement().basis  # kept on E*: the projector reads it
        self.onto_m0 = oblique_projector(family.base_subspace, family.complement, cfg).matrix
        # rows extracting E*-coordinates of the projection along M0
        self.estar_rows = self.bs.T @ (np.eye(n) - self.onto_m0)
        # right-hand sides of the solve: all columns of alpha, or one axis
        self.full_rhs = self.cperp.T @ self.b0
        self.axis_rhs = np.stack([(self.cperp.T @ self.b0[:, i])[:, None] for i in range(self.d)])
        # the map whose Jacobians the closed form takes, or None
        self.source = self._closed_form_source()

    def _closed_form_source(self) -> DifferentiableMap | None:
        """The family's source map when it has one component and its base
        Jacobian T0 has T0 E* != 0, recording the sign of T0 E* and the
        comparison with 0 that holds for that sign (``np.greater`` or
        ``np.less``); None otherwise.  T0 is the one ``kernel_family`` took,
        else one Jacobian call at the base point."""
        f, kernels = self.family.source_map, self.family.eval_fn
        if f is None or f.cod_dim != 1 or self.e != 1 or f.dom_dim != self.family.param_dim:
            return None
        own = isinstance(kernels, _JacobianKernels) and kernels.f is f
        t0 = kernels.base[None] if own else _jacobian_stack(f, self.cfg, self.family.base_point[None])[1]
        orientation = np.sign(t0 @ self.bs).ravel()
        if not (orientation.size and orientation[0]):
            return None
        self.orientation = orientation[0]
        self.same_side = np.greater if self.orientation > 0 else np.less
        self.pinned = np.hstack([self.bs, self.b0])
        self.margin_bound = 1.0 / self.cfg.tol_split if self.cfg.tol_split > 0.0 else math.inf
        return f

    def closed_form(self, points: np.ndarray, axis: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """alpha = -(J M0) / (J E*) at the kept points, shaped (kept, 1, dim
        M0), and the mask of kept points (see the class docstring).  With
        ``axis``, only column ``axis[r]`` of each, shaped (kept, 1, 1): the
        one division a stage needs (for dim M0 = 1 the one column there is).
        The fold test is one comparison of J E* with 0 (``same_side``): a
        row whose J E* is 0, -0.0, NaN or of the other sign fails it."""
        rows, jacs = _jacobian_stack(self.source, self.cfg, points)
        prod = np.matmul(jacs, self.pinned)
        every = len(rows) == len(points)
        if axis is None or self.d == 1:
            jm = prod[..., 1:]
        else:
            jm = prod[np.arange(len(rows)), :, 1 + (axis if every else axis[rows])][..., None]
        alpha, norms = _quotients(jacs, prod[..., :1], jm)
        kept = self.same_side(prod[:, 0, 0], 0.0) & (norms < self.margin_bound)
        if every and np.count_nonzero(kept) == len(kept):
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
        alpha, ok = self.closed_form(points, axis)
        return alpha[..., 0], ok

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


def _ambient(m0: np.ndarray, estar: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Ambient points ``lift(z) + lift(w)`` of stacked M0/E* coordinate rows,
    one matrix-vector product per row as for a single point."""
    return np.matmul(m0, z[..., None])[..., 0] + np.matmul(estar, w[..., None])[..., 0]


@np.errstate(all="ignore")  # as a decorator: no context object per call
def _quotients(jacs: np.ndarray, je: np.ndarray, jm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha = -(J M0) / (J E*) and ||J / (J E*)||_2 of each row of a Jacobian
    stack, without warnings: a row whose J E* is 0, or below ||J||_2 by a
    factor past the float range, gets inf or NaN here, fails the split test
    and is dropped."""
    return -(jm / je), np.hypot.reduce(jacs / je, axis=2)[:, 0]


# where each RK4 sub-step's stage points sit, as fractions of the sub-step:
# z, z + h/2 (stages 2 and 3) and z + h, each lifted once
_STAGE_FRACTIONS = np.array([0.0, 0.5, 1.0])[:, None, None]


def _stage_lifts(b0: np.ndarray, z0: np.ndarray, j: int, h: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """The M0 parts of the three stage points of sub-step ``j`` of each row,
    from z = z0 + j h along the row's ``unit``, lifted in one product.
    ``z0`` is shaped (..., rows, d) and ``h`` (..., rows, 1); the lifts come
    shaped (..., 3, rows, n)."""
    z = z0 + (j * h) * unit
    return np.matmul(b0, (z[..., None, :, :] + _STAGE_FRACTIONS * h[..., None, :, :] * unit)[..., None])[..., 0]


def _rk4_hop(
    ev: _AlphaEvaluator,
    z0: np.ndarray,
    w: np.ndarray,
    axis: np.ndarray,
    unit: np.ndarray,
    n_sub: np.ndarray,
    lifts: np.ndarray,
    steps: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Advance a batch of lines one lattice hop, each along its own axis,
    with RK4 sub-steps.

    Row r starts at M0-coordinates ``z0[r]`` with psi value ``w[r]`` and
    takes ``n_sub[r]`` sub-steps of length h along axis ``axis[r]``, whose
    unit vector is ``unit[r]``.  ``steps[:, r]`` holds the multiples 0.5 h,
    h and h / 6 that its stages and its RK4 sum take, shaped (3, rows, 1),
    and ``lifts[:, r]`` the stage-point lifts of its first sub-step
    (``_stage_lifts``), shaped (3, rows, n): values that ``_sweep`` reads
    once per pass from its tables, and ``w`` a fresh gather of its lattice,
    which the hop may write into.  Later sub-steps lift their stage points
    here.  Returns the psi values reached, one row per row of ``w``, and the
    mask of rows that got there, None when every row did; a row whose field
    evaluation fails drops out at once and evaluates nothing further.
    """
    ok = None  # the mask of rows still going, once one has failed
    counts = n_sub.tolist()
    every, n_min = np.arange(len(z0)), min(counts)
    for j in range(max(counts)):
        if j < n_min and ok is None:  # every row goes on: no gathers
            rows, zj, ej, aj, sj, wj = every, z0, unit, axis, steps, w
        else:
            rows = np.flatnonzero(j < n_sub if ok is None else ok & (j < n_sub))
            zj, ej, aj, sj, wj = z0[rows], unit[rows], axis[rows], steps[:, rows], w[rows]
        if j:
            lifts = _stage_lifts(ev.b0, zj, j, sj[1], ej)
        ks: list[np.ndarray] = []
        # per stage: the lift of its point, and the multiple of h in ``steps`` that moves w along the last k
        for lift, mult in ((0, None), (1, 0), (1, 0), (2, 1)):
            if not rows.size:
                break
            ws = wj + sj[mult] * ks[-1] if ks else wj
            k, good = ev.stage(lifts[lift] + np.matmul(ev.bs, ws[..., None])[..., 0], aj)
            if np.count_nonzero(good) < len(good):
                if ok is None:
                    ok = np.ones(len(z0), bool)
                ok[rows[~good]] = False
                rows, aj, sj, wj = rows[good], aj[good], sj[:, good], wj[good]
                lifts, ks = lifts[:, good], [v[good] for v in ks]
            ks.append(k)
        if rows.size:
            k1, k2, k3, k4 = ks
            w_end = wj + sj[2] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if rows is every:  # every row took this sub-step: nothing to scatter
                w = w_end
            else:
                w[rows] = w_end
    return w, ok


def _reached(psi: np.ndarray) -> np.ndarray:
    """The nodes a lattice walk reached: those whose psi is a number."""
    return ~np.isnan(psi).any(axis=-1)


def _line_table(axes: tuple[np.ndarray, ...], center: tuple[int, ...], psi: np.ndarray, passes) -> tuple:
    """The lattice lines of one axis pass, with the nodes each visits
    gathered once for the whole pass: the one traversal of ``_sweep`` and
    ``explicit_patch``.

    ``psi`` stacks one lattice per entry of ``passes``, each spanned by
    ``axes``, and ``passes`` holds its (axes done, axis).  Every reached
    node (``_reached``) of the slab through the center that is free along
    the axes done starts two lines, one per direction, running outward
    along the axis to the lattice boundary; the lines come in row-major
    order of their start nodes in the stack.  Returns per line its axis and
    its length in nodes, start node included, and per hop and line its
    node, as a flat index into the stack, shaped (hops, lines), and that
    node's M0-coordinates, shaped (hops, lines, d).  Past a line's end both
    stay at its last node.  Each walk forms from these coordinates, once for
    the pass, the operands of its hops that do not depend on psi: ``_sweep``
    the step multiples and first-sub-step stage lifts of each hop,
    ``explicit_patch`` the M0 lift of each node.
    """
    reached = _reached(psi)
    slab = np.zeros_like(reached)
    for s, (done, _) in enumerate(passes):
        at = (s, *(slice(None) if i in done else c for i, c in enumerate(center)))
        slab[at] = reached[at]
    starts = np.repeat(np.argwhere(slab), 2, axis=0)  # per line: its slot, then its start node
    signs = np.tile([1, -1], len(starts) // 2)
    lines, axis = np.arange(len(starts)), np.array([axis for _, axis in passes])[starts[:, 0]]
    col, sizes = 1 + axis, np.array(reached.shape)  # each line's moving column in ``starts``
    first = starts[lines, col]
    lengths = np.where(signs > 0, sizes[col] - first, first + 1)
    idx = np.repeat(starts[None], lengths.max(), axis=0)
    idx[:, lines, col] = np.clip(first + np.arange(len(idx))[:, None] * signs, 0, sizes[col] - 1)
    idx = np.moveaxis(idx, -1, 0)
    nodes = np.ravel_multi_index(tuple(idx), reached.shape)
    return axis, lengths, nodes, np.stack([ax[i] for ax, i in zip(axes, idx[1:])], axis=-1)


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
    counts once for its order.  Returns psi, the reached mask (``_reached``
    of psi) and the breach count of each order, stacked along a leading slot
    axis.

    psi is the march's only state.  Each pass reads its lines from one
    ``_line_table`` and takes from it, once for the pass, every line's unit
    vector and, per hop, its sub-step count, the multiples of its sub-step
    length that the RK4 stages and sum take, and the stage-point lifts of
    its first sub-step, which starts at the hop's node (``_rk4_hop``); each
    hop gathers its start values from psi at the lines' previous nodes.  The
    per-line arrays shrink only at a hop where a line ends or breaches."""
    shape = tuple(len(ax) for ax in axes)
    slots, size = len(orders), math.prod(shape)
    psi = np.full((slots, *shape, ev.e), np.nan)
    psi[(slice(None), *center)] = base_estar
    breaches = np.zeros(slots, dtype=int)
    psi_at = psi.reshape(-1, ev.e)  # a view by flat node index

    for pos in range(len(shape)):
        axis, lengths, nodes, zs = _line_table(axes, center, psi, [(order[:pos], order[pos]) for order in orders])
        # per hop and line: the sub-steps, of at most ``step``, of its move along its axis
        along = zs[:, np.arange(len(axis)), axis]
        delta = along[1:] - along[:-1]
        n_sub = np.maximum(1, np.ceil(np.abs(delta) / step - 1e-12)).astype(int)
        h = (delta / n_sub)[..., None]
        unit = np.eye(len(shape))[axis]
        steps = np.stack([0.5 * h, h, h / 6.0], axis=1)
        lifts = _stage_lifts(ev.b0, zs[:-1], 0, h, unit)
        ends = set(lengths.tolist())
        for hop in range(1, len(nodes)):
            if hop in ends:  # some lines end here
                on = lengths > hop
                axis, unit, lengths = axis[on], unit[on], lengths[on]
                nodes, zs, n_sub = nodes[:, on], zs[:, on], n_sub[:, on]
                lifts, steps = lifts[:, :, on], steps[:, :, on]
            if not lengths.size:
                break
            at = hop - 1
            w, ok = _rk4_hop(ev, zs[at], psi_at[nodes[at]], axis, unit, n_sub[at], lifts[at], steps[at])
            if ok is not None:  # these lines breach here
                breaches += np.bincount(nodes[0, ~ok] // size, minlength=slots)
                axis, unit, lengths, w = axis[ok], unit[ok], lengths[ok], w[ok]
                nodes, zs, n_sub = nodes[:, ok], zs[:, ok], n_sub[:, ok]
                lifts, steps = lifts[:, :, ok], steps[:, :, ok]
            psi_at[nodes[hop]] = w
    return psi, _reached(psi), breaches


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
    was reached.  A breach already at the base raises CofinalBreach.  A
    ``step`` that is not finite and positive raises StepError; an extent that
    is not finite and positive, or a node count that is not a whole number,
    odd and at least 3, raises ValidationError.
    """
    if not (np.isfinite(step) and step > 0):
        raise StepError(f"step must be finite and positive, got {step}")
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
    if not np.isfinite(extent_arr).all():
        raise ValidationError(f"extents must be finite, got {extent_arr.tolist()}")
    if grid_points is None:
        counts = [2 * max(1, round(extent_arr[i] / step)) + 1 for i in range(d)] if d == 1 else [21] * d
    else:
        given = np.asarray(grid_points, dtype=float).ravel()
        if not (np.isfinite(given) & (given == np.trunc(given))).all():
            raise ValidationError(f"grid_points must be whole numbers, got {given.tolist()}")
        counts = np.broadcast_to(given.astype(int), (d,)).tolist()
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

    diag = PatchDiagnostics(step=float(step), spacing=tuple(spacing))
    # NaN at a node either order missed; both reach the center
    diag.path_residual = 0.0 if d == 1 else float(np.nanmax(np.abs(psi - psis[1])))
    diag.breached = bool(breaches[0])
    diag.unfilled = int(filled.size - filled.sum())
    diag.initial_residual = float(np.max(np.abs(psi[center] - base_estar)))

    patch = IntegralPatch(
        axes=axes,
        psi=psi,
        filled=filled,
        base_m0=base_m0,
        base_estar=base_estar,
        m0_basis=ev.b0,
        estar_basis=ev.bs,
        diagnostics=diag,
    )
    _fill_node_diagnostics(patch, ev)
    return patch


def _fill_node_diagnostics(patch: IntegralPatch, ev: _AlphaEvaluator) -> None:
    """Per-node checks: splitting holds, grid derivative matches the field,
    and (for kernel families) the patch stays on the level set.

    All filled nodes are evaluated in one batch; their alpha values, with the
    march's splitting test, and their norms are then taken as stacked calls.
    ``f`` runs once per splitting node, its values checked as one stack
    (``_value_stack``).
    """
    d, shape = patch.m0_dim, patch.shape
    diag = patch.diagnostics
    f = ev.family.source_map

    nodes = np.argwhere(patch.filled)
    points = _ambient(ev.b0, ev.bs, patch.grid()[patch.filled.ravel()], patch.psi[patch.filled])
    rhs = np.broadcast_to(ev.full_rhs, (len(points), *ev.full_rhs.shape))
    batch = ev.family.eval_batch(points)
    patch._node_evals = (ev.family, points, batch)  # for tangency_check
    am, split = ev.alpha(batch.of_dim(d), rhs)
    diag.cofinal_failures = int(np.count_nonzero(~split))

    if f is not None:
        f_base = f(ev.family.base_point)
        gaps = np.abs(_value_stack(f, points[split]) - f_base).max(axis=1)
        # a node with a NaN component does not count, as in a running max
        diag.level_set_residual = float(np.max(gaps[~np.isnan(gaps)], initial=0.0))

    # interior nodes whose axis neighbors are all filled get the ODE check
    inner = split & np.all((nodes > 0) & (nodes < np.array(shape) - 1), axis=1)
    unit = np.eye(d, dtype=int)
    for i in range(d):
        inner[inner] &= patch.filled[tuple((nodes[inner] + unit[i]).T)]
        inner[inner] &= patch.filled[tuple((nodes[inner] - unit[i]).T)]
    am = am[inner[split]]
    rows = np.flatnonzero(inner)

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

    diag.ode_residual = ode_worst
    diag.ode_residual_scaled = ode_scaled_worst
    diag.breached = diag.breached or diag.cofinal_failures > 0


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
_PREDICTORS = tuple(
    np.array(weights)
    for weights in (
        (1.0,),
        (2.0, -1.0),
        (3.0, -3.0, 1.0),
        (4.0, -6.0, 4.0, -1.0),
        (5.0, -10.0, 10.0, -5.0, 1.0),
    )
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


def _node_subspaces(patch: IntegralPatch, family: SubspaceFamily, keep: np.ndarray, points: np.ndarray
                    ) -> SubspaceBatch:
    """The family at ``points``, the lifts of the filled nodes ``keep``
    selects: the evaluations of integrate's node checks when this same
    family evaluated every one of these points there, byte for byte; else
    one fresh batch."""
    held_family, held_points, held = getattr(patch, "_node_evals", (None, None, None))
    if held_family is family and len(held_points) == len(keep) and held_points[keep].tobytes() == points.tobytes():
        return held.rows(keep)
    return family.eval_batch(points)


def tangency_check(patch: IntegralPatch, family: SubspaceFamily) -> float:
    """Largest defect of grid tangent vectors against the family's subspaces.

    At interior nodes the finite-difference tangents (axis direction plus the
    psi derivative), lifted with the patch's own bases, are projected onto
    the orthogonal complement of the subspace at the reconstructed point;
    the maximal relative projection norm is returned and stored in the patch
    diagnostics.  The family, which must map the patch's R^n into R^n, is
    evaluated in one batch, once per node; the derivatives, rejections and
    projections of all nodes are then taken as stacked calls.

    A patch fresh from ``integrate`` holds the evaluations of its node
    checks.  When ``family`` is the object ``integrate`` was given and
    every lift here equals the point the node checks evaluated, byte for
    byte, those evaluations are taken and the family is not called; the
    family is a pure function of the point, so they are the subspaces a new
    evaluation would give.  Otherwise (a patch built with
    ``dataclasses.replace``, another family, a ``psi`` written in place)
    every node is evaluated afresh, so the patch is checked as it now is.
    """
    if any(len(ax) < 3 for ax in patch.axes):
        raise GridError("tangency check needs at least 3 nodes per axis")
    b0, bs = patch.m0_basis, patch.estar_basis
    if (family.param_dim, family.ambient_dim) != (len(b0), len(b0)):
        raise ValidationError(f"family maps R^{family.param_dim} into R^{family.ambient_dim}, patch is in R^{len(b0)}")
    nodes = np.argwhere(patch.filled)
    derivs = [_axis_derivatives(patch, nodes, i) for i in range(patch.m0_dim)]
    keep = np.logical_or.reduce([has for has, _ in derivs])
    derivs = [(has[keep], values[keep]) for has, values in derivs]
    points = _ambient(b0, bs, patch.grid()[patch.filled.ravel()][keep], patch.psi[patch.filled][keep])
    batch = _node_subspaces(patch, family, keep, points)

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
            tangent = b0[:, i] + np.matmul(bs, dv[..., None])[..., 0]
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
    E*-coordinates of ``x0``: the batched chord iteration of
    ``explicit_patch`` on a batch of one point.  Raises ValidationError for
    a ``z``, ``w0`` or ``x0`` of the wrong size or with a non-finite entry,
    and NewtonDivergence with the trace of update norms if the update norm
    does not reach ``newton_tol``.
    """
    solve, (m0, estar) = _graph_solver(f, gi0, x0, cfg)
    w0 = None if w0 is None else _finite_vector(w0, estar.shape[1], "w0")
    return _solved(solve, m0, _finite_vector(z, m0.shape[1], "z"), w0, cfg)


def _finite_vector(value, size: int, name: str) -> np.ndarray:
    """``value`` as a flat float vector of ``size`` finite entries."""
    v = np.atleast_1d(np.asarray(value, dtype=float)).ravel()
    if v.size != size:
        raise ValidationError(f"{name} has {v.size} coordinates, expected {size}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{name} has non-finite entries: {v.tolist()}")
    return v


# how a row of a graph solve ends
_SOLVED, _DIVERGED, _UNSOLVED = 0, 1, 2


def _graph_solver(f: DifferentiableMap, gi0: GenInverse, x0, cfg: Numerics):
    """The chord iteration of ``explicit_psi`` at fixed ``f``, ``gi0`` and
    ``x0`` over a batch of points, with the quantities that do not depend on
    z computed once.

    Checks ``x0`` and returns the solver with the bases of M0 = N(T0) and
    E* = R(T0+).  The solver takes the M0 lifts ``m0 @ z`` of points z,
    shaped (N, n, 1), which a caller forms once per point however often it
    solves there, and starts ``w0`` (N, dim E*), finite and unchecked, or
    None for the E*-coordinates of ``x0`` as every start.  Each row iterates
    exactly as a single point does, with its map values from one
    ``_value_stack`` per iteration, and leaves the batch at its own stop:
    solved once its update norm is at most ``newton_tol``, diverged when the
    update is not finite or above 1e9, unsolved when ``newton_max_iter`` runs
    out.  It returns each row's last iterate, its outcome (``_SOLVED``,
    ``_DIVERGED`` or ``_UNSOLVED``) and the update norms of each iteration
    over the rows still iterating then.
    """
    t0, t0_plus = gi0.forward, gi0.inverse
    base = _finite_vector(x0, t0.shape[1], "x0")
    m0 = gi0._factors(cfg.rank_tol).kernel.basis
    estar = gi0.range_complement.basis
    estar_t = np.ascontiguousarray(estar.T)
    f_base = f(base)
    w_base = estar_t @ ((t0_plus @ t0) @ base)

    def solve(lift: np.ndarray, w0: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        # w, dw and the M0 parts of the points as column stacks (rows, size, 1)
        w = np.repeat(w_base[None, :, None], len(lift), axis=0) if w0 is None else w0[..., None]
        trace: list[np.ndarray] = []
        rows = None  # the rows still iterating, once some have stopped
        for _ in range(cfg.newton_max_iter):
            u = (lift + np.matmul(estar, w))[..., 0]
            dw = np.matmul(estar_t, np.matmul(t0_plus, (_value_stack(f, u) - f_base)[..., None]))
            update = _norms(dw[..., 0])  # bit for bit np.linalg.norm of each update
            trace.append(update)
            w = w - dw
            go = (update > cfg.newton_tol) & (update <= 1e9)  # a NaN update stops: it is not finite
            going = np.count_nonzero(go)
            if going == len(go):
                continue
            ends = np.where(update <= cfg.newton_tol, _SOLVED, _DIVERGED)
            if rows is None:
                if not going:  # every row stops at once
                    return w[..., 0], ends, trace
                rows, last, outcome = np.arange(len(lift)), np.empty_like(w), np.full(len(lift), _UNSOLVED)
            stop = rows[~go]
            last[stop], outcome[stop] = w[~go], ends[~go]
            if not going:
                return last[..., 0], outcome, trace
            rows, lift, w = rows[go], lift[go], w[go]
        if rows is None:
            return w[..., 0], np.full(len(lift), _UNSOLVED), trace
        last[rows] = w
        return last[..., 0], outcome, trace

    return solve, (m0, estar)


def _solved(solve, m0: np.ndarray, z: np.ndarray, w0: np.ndarray | None, cfg: Numerics) -> np.ndarray:
    """The solution of ``solve`` at one point ``z``, lifted with ``m0``, from
    ``w0``, or NewtonDivergence with its trace of update norms."""
    w, (outcome,), trace = solve(np.matmul(m0, z[None, :, None]), None if w0 is None else w0[None])
    if outcome == _SOLVED:
        return w[0]
    trace = [float(update[0]) for update in trace]
    if outcome == _DIVERGED:
        raise NewtonDivergence(f"graph solve diverged at z={z.tolist()}", trace)
    raise NewtonDivergence(f"graph solve did not reach {cfg.newton_tol:g} in {cfg.newton_max_iter} iterations", trace)


def _predict(history) -> np.ndarray:
    """Start for the next node of a lattice line from its solved nodes, newest
    first: degree 4 through the last five, lower while there are fewer.
    ``history`` may stack the nodes of many lines, one array per depth; in
    ``explicit_patch`` it is a (depth, lines, dim E*) gather of the lattice
    at the solved nodes of the lines still going.  One product and one sum
    over the depth axis: numpy adds five terms or fewer in order, here from
    0.0 as Python's ``sum`` starts, so the result has the bytes of
    ``sum(c * w for c, w in zip(weights, history))``."""
    weights = _PREDICTORS[min(len(history), len(_PREDICTORS)) - 1]
    terms = np.asarray(history[: len(weights)]).T  # depth last
    return np.add.reduce(weights * terms, axis=-1, initial=0.0).T


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
    lines of ``integrate``'s axis passes, read once per pass from the line
    table ``_sweep`` reads (``_line_table``), with the M0 lift of every node
    formed there once for the pass, retries included; the per-line arrays
    shrink only at a hop where a line ends or stops.  The lines of a pass
    advance together, hop by hop: one batched chord iteration solves the
    next node of every line, each started from the polynomial extrapolation
    (``_predict``) of the nodes already solved on its line, newest first,
    which the hop gathers from the values: they are the walk's only state;
    the rows whose start fails are solved once more, from the previous node
    of their line.  A line stops where both starts fail, and unreachable
    nodes come back as NaN.  Every node gets the iterates, and the map
    calls, that ``explicit_psi`` makes from the same start.  The integrated
    psi never enters a solve, so the result checks it independently.
    Returns an array shaped like ``patch.psi``.  Raises ValidationError
    unless gi0's N(T0) and R(T0+) bases are the patch's M0 and E* bases
    within ``tol_num``, and NewtonDivergence if the center does not solve.
    """
    solve, (m0, estar) = _graph_solver(f, gi0, x0, cfg)
    dims, got = (m0.shape[1], estar.shape[1]), (patch.m0_dim, patch.estar_dim)
    if dims != got:
        raise ValidationError(f"patch has (dim M0, dim E*) = {got}, the map gives {dims}")
    gap = np.hstack([m0, estar]) - np.hstack([patch.m0_basis, patch.estar_basis])
    if np.max(np.abs(gap), initial=0.0) > cfg.tol_num:
        raise ValidationError("the inverse's N(T0) and R(T0+) bases are not the patch's M0 and E* bases")
    center = patch.center_index
    out = np.full((*patch.shape, patch.estar_dim), np.nan)
    out[center] = _solved(solve, m0, patch.node_coords(center), None, cfg)

    flat = out.reshape(-1, patch.estar_dim)  # a view: ``out`` is C-contiguous
    for pos in range(patch.m0_dim):
        _, lengths, nodes, zs = _line_table(patch.axes, center, out[None], [(range(pos), pos)])
        lifts = np.matmul(m0, zs[..., None])
        ends = set(lengths.tolist())
        for hop in range(1, len(nodes)):
            if hop in ends:  # some lines end here
                on = lengths > hop
                lifts, nodes, lengths = lifts[:, on], nodes[:, on], lengths[on]
            if not lengths.size:
                break
            lift, history = lifts[hop], flat[nodes[hop - 1 :: -1][: len(_PREDICTORS)]]
            w, outcome, _ = solve(lift, _predict(history))
            if np.count_nonzero(outcome):  # a start failed: retry from the previous node
                retry = np.flatnonzero(outcome)
                w[retry], outcome[retry], _ = solve(lift[retry], history[0, retry])
                ok = outcome == _SOLVED
                lifts, nodes, lengths, w = lifts[:, ok], nodes[:, ok], lengths[ok], w[ok]
            flat[nodes[hop]] = w
    return out
