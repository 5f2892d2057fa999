"""Generalized inverses with prescribed complements and their perturbations.

A {1,2}-inverse of ``A`` is a matrix ``B`` with ``ABA = A`` and ``BAB = B``;
it is determined by the choice of two complements, R(B) of N(A) in the domain
and N(B) of R(A) in the codomain.  The perturbation factors

    C(A+, T) = I + (T - A) A+        (codomain side)
    D(A+, T) = I + A+ (T - A)        (domain side)

are invertible whenever ``||T - A|| < ||A+||^{-1}``, and inside that ball the
candidate ``B = A+ C^{-1} = D^{-1} A+`` inverts ``T`` exactly when the range
of ``T`` stays transversal to N(A+).  ``seven_conditions`` evaluates the seven
equivalent formulations of that transversality with signed margins.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULTS, Numerics
from .errors import BallError, ComplementError, ToolkitError, TransversalityError, ValidationError
from .linalg import (
    Subspace,
    _ranks,
    _screened_norm,
    as_matrix,
    direct_sum_check,
    intersection_margin,
    oblique_projector,
    op_norm,
    orth_basis,
    range_of,
    rank_of,
    splitting_margin,
    subspace_distance,
    svd_factors,
    unit,
)

__all__ = [
    "GenInverse",
    "ConditionReport",
    "ProbeReport",
    "moore_penrose",
    "gi_from_complements",
    "c_op",
    "d_op",
    "perturbed_gi",
    "seven_conditions",
    "rank_class_preserved",
    "locally_fine_probe",
    "trial_rng",
]

CONDITION_KEYS = ("i", "ii", "iii", "iv", "v", "vi", "vii")


@dataclass(frozen=True)
class GenInverse:
    """A matrix together with a {1,2}-inverse and its defining complements.

    ``forward`` maps R^dom_dim to R^cod_dim, ``inverse`` maps back;
    ``range_complement`` = R(inverse) complements N(forward) in the domain,
    ``kernel_complement`` = N(inverse) complements R(forward) in the codomain.
    """

    forward: np.ndarray
    inverse: np.ndarray
    range_complement: Subspace
    kernel_complement: Subspace

    def __post_init__(self):
        object.__setattr__(self, "forward", as_matrix(self.forward, "forward"))
        object.__setattr__(self, "inverse", as_matrix(self.inverse, "inverse"))
        m, n = self.forward.shape
        if self.inverse.shape != (n, m):
            raise ValidationError(f"inverse shape {self.inverse.shape} does not match forward {self.forward.shape}")
        if self.range_complement.ambient_dim != n:
            raise ValidationError(f"range complement in R^{self.range_complement.ambient_dim}, domain is R^{n}")
        if self.kernel_complement.ambient_dim != m:
            raise ValidationError(f"kernel complement in R^{self.kernel_complement.ambient_dim}, codomain is R^{m}")

    @property
    def dom_dim(self) -> int:
        return self.forward.shape[1]

    @property
    def cod_dim(self) -> int:
        return self.forward.shape[0]

    @functools.cached_property
    def ball_radius(self) -> float:
        """Radius ||A+||^{-1} of the safe perturbation ball (inf for A+ = 0),
        computed on first access."""
        norm = op_norm(self.inverse)
        return math.inf if norm == 0.0 else 1.0 / norm

    def residuals(self) -> dict[str, float]:
        a, b = self.forward, self.inverse
        rng_b, _, _, ker_b = svd_factors(b)
        return {
            "aba": op_norm(a @ b @ a - a) / (1.0 + op_norm(a)),
            "bab": op_norm(b @ a @ b - b) / (1.0 + op_norm(b)),
            "range_match": subspace_distance(rng_b, self.range_complement),
            "kernel_match": subspace_distance(ker_b, self.kernel_complement),
        }

    def validate(self, cfg: Numerics = DEFAULTS) -> None:
        res = self.residuals()
        bad = {k: v for k, v in res.items() if v > cfg.tol_num}
        if bad:
            raise ComplementError(f"inverse axioms violated: {bad}")


def moore_penrose(a, tol: float | None = None) -> GenInverse:
    """Pseudoinverse with orthogonal complements, from one SVD.

    The same rank decision fixes the inverse, R(A+) (row space) and
    N(A+) (orthogonal complement of the column space).
    """
    arr = as_matrix(a)
    m, n = arr.shape
    if arr.size == 0 or not arr.any():
        return GenInverse(arr, np.zeros((n, m)), Subspace.trivial(n), Subspace.full(m))
    u, s, vh = np.linalg.svd(arr)
    r = int(_ranks(s, arr.shape, tol))
    inv = (vh[:r].T / s[:r]) @ u[:, :r].T
    return GenInverse(arr, inv, Subspace._wrap(vh[:r].T), Subspace._wrap(u[:, r:]))


def gi_from_complements(a, r_plus: Subspace, n_plus: Subspace, cfg: Numerics = DEFAULTS) -> GenInverse:
    """The unique {1,2}-inverse with R(B) = r_plus and N(B) = n_plus.

    Requires r_plus (+) N(A) = domain and n_plus (+) R(A) = codomain; the
    inverse is A restricted to r_plus -> R(A), inverted there, and extended by
    zero on n_plus.
    """
    arr = as_matrix(a)
    rng, _, _, ker = svd_factors(arr, cfg.rank_tol)
    if not direct_sum_check(r_plus, ker, cfg):
        raise ComplementError("supplied range complement is not transversal to the kernel")
    if not direct_sum_check(rng, n_plus, cfg):
        raise ComplementError("supplied kernel complement is not transversal to the range")
    m, n = arr.shape
    if r_plus.dim == 0:
        inv = np.zeros((n, m))
    else:
        onto_range = oblique_projector(rng, n_plus, cfg).matrix
        restricted = arr @ r_plus.basis  # full column rank by transversality
        inv = r_plus.basis @ (np.linalg.pinv(restricted) @ onto_range)
    return GenInverse(arr, inv, r_plus, n_plus)


def c_op(a, ainv: GenInverse, t) -> np.ndarray:
    """Codomain-side perturbation factor I + (T - A) A+."""
    arr, tm = as_matrix(a), as_matrix(t)
    return np.eye(arr.shape[0]) + (tm - arr) @ ainv.inverse


def d_op(a, ainv: GenInverse, t) -> np.ndarray:
    """Domain-side perturbation factor I + A+ (T - A)."""
    arr, tm = as_matrix(a), as_matrix(t)
    return np.eye(arr.shape[1]) + ainv.inverse @ (tm - arr)


def _require_in_ball(a, ainv: GenInverse, t) -> tuple[np.ndarray, np.ndarray]:
    """The admission of a perturbation, and the one check of A and T: both
    finite matrices of one shape, ``ainv`` an inverse of this A, and T inside
    the ball ``||T - A|| < ||A+||^{-1}``.  Returns the checked (A, T)."""
    arr, tm = as_matrix(a), as_matrix(t)
    if tm.shape != arr.shape:
        raise ValidationError(f"perturbed operator has shape {tm.shape}, base operator {arr.shape}")
    if not np.array_equal(ainv.forward, arr):
        raise ValidationError(f"inverse belongs to a different operator than the {arr.shape} base")
    radius = ainv.ball_radius
    gap = _screened_norm(tm - arr, radius)
    if gap >= radius:
        raise BallError(f"perturbation gap {gap:.6g} >= ball radius {radius:.6g}")
    return arr, tm


def _near_identity_sample(rng: np.random.Generator, a, ainv: GenInverse, fraction: float, eps: float) -> np.ndarray:
    """T = (I + eps G1) A (I + eps G2) for Gaussian G1 then G2: near-identity
    factors keep the rank of A.  ``eps`` halves until ||T - A|| < fraction *
    radius, radius = ||A+||^{-1} (1 for A+ = 0).  That also puts T in the
    chart region of A, since ||(T - A) A+|| <= ||T - A|| ||A+|| < fraction.
    Raises BallError after 60 halvings."""
    m, n = a.shape
    radius = ainv.ball_radius
    cap = fraction * (radius if math.isfinite(radius) else 1.0)
    g1 = rng.standard_normal((m, m))
    g2 = rng.standard_normal((n, n))
    for _ in range(60):
        t = (np.eye(m) + eps * g1) @ a @ (np.eye(n) + eps * g2)
        if _screened_norm(t - a, cap) < cap:
            return t
        eps *= 0.5
    raise BallError(f"no rank-keeping sample within {fraction:g} of the ball after 60 halvings")


def _conditioned(factor: np.ndarray, cfg: Numerics) -> np.ndarray:
    """A perturbation factor C or D, checked once where it is formed, before
    any solve with it: BallError when it is numerically singular."""
    if np.linalg.cond(factor) > cfg.cond_limit:
        raise BallError("perturbation factor is numerically singular near the ball boundary")
    return factor


def perturbed_gi(a, ainv: GenInverse, t, cfg: Numerics = DEFAULTS) -> GenInverse:
    """Inverse of a perturbed operator sharing A+'s complements.

    Inside the ball ``||T - A|| < ||A+||^{-1}``, and provided R(T) meets
    N(A+) only in {0}, returns B = A+ C^{-1}(A+, T) with R(B) = R(A+) and
    N(B) = N(A+).  Raises BallError / TransversalityError otherwise.
    """
    arr, tm = _require_in_ball(a, ainv, t)
    margin = intersection_margin(range_of(tm, cfg.rank_tol), ainv.kernel_complement, cfg)
    if margin <= 0.0:
        raise TransversalityError(
            f"range of the perturbed operator meets the kernel complement (margin {margin:.3e})"
        )
    c = _conditioned(c_op(arr, ainv, tm), cfg)
    b = np.linalg.solve(c.T, ainv.inverse.T).T  # A+ C^{-1} without forming C^{-1}
    resid = op_norm(tm @ b @ tm - tm) / (1.0 + op_norm(tm))
    if resid > cfg.cond_tol:
        raise TransversalityError(f"candidate violates T B T = T (residual {resid:.3e})")
    return GenInverse(tm, b, ainv.range_complement, ainv.kernel_complement)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the seven equivalent transversality conditions.

    ``margins`` are signed: positive certifies the condition, negative
    refutes it, and the magnitude is the numerical confidence.  In exact
    arithmetic all seven booleans coincide.
    """

    holds: dict[str, bool]
    margins: dict[str, float]
    candidate: np.ndarray

    @property
    def agree(self) -> bool:
        values = list(self.holds.values())
        return all(values) or not any(values)

    @property
    def all_true(self) -> bool:
        return all(self.holds.values())

    @property
    def all_false(self) -> bool:
        return not any(self.holds.values())

    def decisive(self, threshold: float) -> bool:
        return all(abs(m) >= threshold for m in self.margins.values())

    def to_dict(self) -> dict:
        return {
            "conditions": dict(self.holds),
            "margins": {k: float(v) for k, v in self.margins.items()},
            "agree": self.agree,
            "candidate": self.candidate.tolist(),
        }


def seven_conditions(a, ainv: GenInverse, t, cfg: Numerics = DEFAULTS) -> ConditionReport:
    """Evaluate all seven equivalent conditions for ``T`` in the ball.

    (i)   R(T) intersects N(A+) only in {0};
    (ii)  B = A+ C^{-1} is a {1,2}-inverse of T;
    (iii) R(T) (+) N(A+) = codomain;
    (iv)  N(T) (+) R(A+) = domain;
    (v)   (I - A+ A) N(T) = N(A);
    (vi)  C^{-1} T N(A) lies in R(A);
    (vii) R(C^{-1} T) lies in R(A).
    """
    arr, tm = _require_in_ball(a, ainv, t)
    n = arr.shape[1]

    rng_t, _, _, ker_t = svd_factors(tm, cfg.rank_tol)
    rng_a, _, _, ker_a = svd_factors(arr, cfg.rank_tol)
    onto_range_a = rng_a.orthogonal_projector()

    c = _conditioned(c_op(arr, ainv, tm), cfg)
    b = np.linalg.solve(c.T, ainv.inverse.T).T

    margins: dict[str, float] = {}

    margins["i"] = intersection_margin(rng_t, ainv.kernel_complement, cfg)

    resid_tbt = op_norm(tm @ b @ tm - tm) / (1.0 + op_norm(tm))
    resid_btb = op_norm(b @ tm @ b - b) / (1.0 + op_norm(b))
    margins["ii"] = cfg.cond_tol - max(resid_tbt, resid_btb)

    margins["iii"] = splitting_margin(rng_t, ainv.kernel_complement, cfg)
    margins["iv"] = splitting_margin(ker_t, ainv.range_complement, cfg)

    domain_proj = np.eye(n) - ainv.inverse @ arr  # projector onto N(A) along R(A+)
    image = Subspace._wrap(orth_basis(domain_proj @ ker_t.basis, cfg.rank_tol))
    margins["v"] = cfg.cond_tol - subspace_distance(image, ker_a)

    if ker_a.dim == 0:
        margins["vi"] = cfg.cond_tol
    else:
        mapped = np.linalg.solve(c, tm @ ker_a.basis)
        resid = op_norm(mapped - onto_range_a @ mapped) / (1.0 + op_norm(mapped))
        margins["vi"] = cfg.cond_tol - resid

    mapped_full = np.linalg.solve(c, tm)
    resid = op_norm(mapped_full - onto_range_a @ mapped_full) / (1.0 + op_norm(mapped_full))
    margins["vii"] = cfg.cond_tol - resid

    holds = {k: margins[k] > 0.0 for k in CONDITION_KEYS}
    return ConditionReport(holds=holds, margins=margins, candidate=b)


def rank_class_preserved(a, ainv: GenInverse, t, cfg: Numerics = DEFAULTS) -> bool:
    """True iff the perturbed operator keeps the rank of the base operator.

    Inside the ball this is equivalent to condition (i); a decisive
    disagreement between the two routes indicates a broken rank decision and
    raises ToolkitError.
    """
    arr, tm = _require_in_ball(a, ainv, t)
    preserved = rank_of(tm, cfg.rank_tol) == rank_of(arr, cfg.rank_tol)
    margin = intersection_margin(range_of(tm, cfg.rank_tol), ainv.kernel_complement, cfg)
    if abs(margin) >= 10.0 * cfg.tol_num and preserved != (margin > 0.0):
        raise ToolkitError(
            f"rank comparison and transversality disagree decisively (margin {margin:.3e})"
        )
    return preserved


def trial_rng(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic per-trial generator; independent of evaluation order."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, indices)]))


def _probe_directions(seed: int, samples: int, dim: int) -> list[np.ndarray]:
    """Unit ray directions of a probe, the j-th drawn from ``trial_rng(seed, j)``."""
    return [unit(trial_rng(seed, j).standard_normal(dim)) for j in range(samples)]


@dataclass
class RadiusOutcome:
    radius: float
    deviations: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return not self.failures

    @property
    def max_deviation(self) -> float | None:
        return max(self.deviations) if self.deviations else None

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "all_pass": self.all_pass,
            "max_deviation": self.max_deviation,
            "n_samples": len(self.deviations) + len(self.failures),
            "failures": list(self.failures),
        }


@dataclass
class ProbeReport:
    """Per-radius outcomes of a local-continuity probe of inverses."""

    outcomes: list[RadiusOutcome]
    alpha_modulus: list[float | None] | None = None

    @property
    def fine_radii(self) -> list[float]:
        """Radii at which every sample admitted a continuous inverse."""
        return [o.radius for o in self.outcomes if o.all_pass]

    @property
    def all_pass(self) -> bool:
        return all(o.all_pass for o in self.outcomes)

    def to_dict(self) -> dict:
        d = {"outcomes": [o.to_dict() for o in self.outcomes], "all_pass": self.all_pass}
        if self.alpha_modulus is not None:
            d["alpha_modulus"] = self.alpha_modulus
        return d


def locally_fine_probe(
    family: Callable[[np.ndarray], np.ndarray],
    x0,
    ainv0: GenInverse,
    radii: Sequence[float],
    samples: int,
    seed: int = 0,
    cfg: Numerics = DEFAULTS,
) -> ProbeReport:
    """Sample an operator-valued map on shrinking spheres around ``x0``.

    At each sampled point the perturbed inverse sharing ainv0's complements is
    attempted; failures (ball exit or broken transversality) are recorded per
    sample instead of raised, and successes record ``||T_x+ - T_0+||``.
    The same ray directions are reused across radii so the deviation profile
    is comparable radius to radius.
    """
    base = np.asarray(x0, dtype=float).ravel()
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    t0 = as_matrix(family(base), "family value")
    directions = _probe_directions(seed, samples, base.size)
    outcomes = []
    for radius in radii:
        outcome = RadiusOutcome(radius=float(radius))
        for d in directions:
            point = base + radius * d
            try:
                tx = as_matrix(family(point), "family value")
                gi_x = perturbed_gi(t0, ainv0, tx, cfg)
            except (BallError, TransversalityError) as exc:
                outcome.failures.append(type(exc).__name__)
                continue
            outcome.deviations.append(op_norm(gi_x.inverse - ainv0.inverse))
        outcomes.append(outcome)
    return ProbeReport(outcomes=outcomes)
