"""Shared numerical configuration.

All tolerances used across the toolkit live in one frozen dataclass so that a
single override point controls every module, and so reports can embed the
exact configuration they were produced under.
"""

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Numerics:
    """Tolerances and iteration limits for the whole toolkit.

    tol_ortho   : orthonormality defect allowed in stored subspace bases.
    tol_num     : generic residual tolerance for constructed objects
                  (projector idempotency, inverse axioms, subspace matches).
    tol_split   : splitting threshold, compared with two margins.
                  ``direct_sum_check`` and the node checks of a patch take
                  the smallest singular value of the stacked bases [Q | E*]
                  as proof of a direct sum; the lattice march takes the
                  sine of the angle between E* and the moving subspace Q,
                  sigma_min(Cperp^T Q) with Cperp an orthonormal basis of
                  the orthogonal complement of E*.
    cond_tol    : decision threshold for residual-based equivalence checks,
                  two orders above tol_num so that clean trials produce
                  margins decisively above the 10*tol_num verdict bar.
    cond_limit  : condition-number cap when solving with perturbation factors.
    rank_tol    : relative singular-value cutoff for rank decisions; None
                  selects max(rows, cols) * machine epsilon.
    fd_rel_step : relative step for central finite-difference Jacobians.
    fd_tol      : allowed gap between analytic and finite-difference Jacobians,
                  relative to 1 + ||J_fd||_2.
    newton_tol  : update-norm stopping threshold for the fixed-point solve of
                  the explicit graph map.
    newton_max_iter : iteration cap for the same solve.
    ode_residual_factor : constant in the grid-residual bound
                  residual <= factor * spacing^2 * scale.
    tol_int     : allowed defect of a patch's initial value at its base node.
    """

    tol_ortho: float = 1e-10
    tol_num: float = 1e-8
    tol_split: float = 1e-8
    cond_tol: float = 1e-6
    cond_limit: float = 1e12
    rank_tol: float | None = None
    fd_rel_step: float = 1e-6
    fd_tol: float = 1e-4
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    ode_residual_factor: float = 10.0
    tol_int: float = 1e-9

    def replace(self, **kwargs) -> "Numerics":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULTS = Numerics()
