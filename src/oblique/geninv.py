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

Each operator is factorised once, toolkit-wide.  A ``GenInverse`` holds
read-only matrices (see ``linalg``) and the full SVD of ``forward`` (seeded
by the builder that took it, else taken on first use), which callers cut at
their own ``rank_tol`` (``_factors``) instead of factorising ``forward``
again.  The facts of (A+, T, cfg) -- T's SVD and rank cut, sigma_min
[R(T) | N(A+)], C and cond(C), B, ||TBT - T|| and ||T|| -- form one record
(``_admit``), each fact taken when first read, which ``seven_conditions``,
``rank_class_preserved``, ``perturbed_gi`` and the operator-manifold checks
share: the inverse keeps the record of the last T it admitted in one slot,
keyed by the bytes of T (the record holds a copy) and an equal ``cfg``.
Another T or cfg, or the same array edited in place, misses and is admitted
afresh.  A stored record never changes, so concurrent callers at worst take
a fact twice, and the inverse ``perturbed_gi`` returns holds its T and B.
"""

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULTS, Numerics
from .errors import BallError, ComplementError, ToolkitError, TransversalityError, ValidationError
from .linalg import (
    Factors,
    Subspace,
    _built,
    _full_svd,
    _norm_exceeds,
    _op_norm_pair,
    _projector_matrix,
    _ranks,
    _read_only,
    _screened_norm,
    _smallest_stacked,
    _svd_factors,
    as_matrix,
    direct_sum_check,
    op_norm,
    orth_basis,
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


@dataclass(frozen=True, eq=False)
class GenInverse:
    """A matrix together with a {1,2}-inverse and its defining complements.

    ``forward`` maps R^dom_dim to R^cod_dim, ``inverse`` maps back;
    ``range_complement`` = R(inverse) complements N(forward) in the domain,
    ``kernel_complement`` = N(inverse) complements R(forward) in the codomain.
    ``forward`` and ``inverse`` are read-only copies of the arrays given, so
    an edit of the caller's array cannot reach them or what is cached here.
    """

    forward: np.ndarray
    inverse: np.ndarray
    range_complement: Subspace
    kernel_complement: Subspace
    _slot = None  # the _Perturbation of the last T admitted (see _admit)

    def __post_init__(self):
        object.__setattr__(self, "forward", _read_only(as_matrix(self.forward, "forward")))
        object.__setattr__(self, "inverse", _read_only(as_matrix(self.inverse, "inverse")))
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

    @functools.cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The full SVD (U, s, V^T) of ``forward``, seeded by the builders
        that took it, else taken on first access."""
        return _full_svd(self.forward)

    def _factors(self, tol: float | None) -> Factors:
        """``svd_factors(forward, tol)`` from the one SVD."""
        return _svd_factors(self._svd, tol)

    def residuals(self) -> dict[str, float]:
        a, b = self.forward, self.inverse
        rng_b, _, _, ker_b = svd_factors(b)
        return {
            "aba": _relative(_op_norm_pair(a @ b @ a - a, a)),
            "bab": _relative(_op_norm_pair(b @ a @ b - b, b)),
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
    arr = _read_only(as_matrix(a))
    m, n = arr.shape
    if arr.size == 0 or not arr.any():
        return _built(GenInverse, arr, np.zeros((n, m)), Subspace.trivial(n), Subspace.full(m))
    u, s, vh = svd = _full_svd(arr)
    r = int(_ranks(s, arr.shape, tol))
    inv = (vh[:r].T / s[:r]) @ u[:, :r].T
    return _built(GenInverse, arr, inv, Subspace._wrap(vh[:r].T), Subspace._wrap(u[:, r:]), _svd=svd)


def gi_from_complements(a, r_plus: Subspace, n_plus: Subspace, cfg: Numerics = DEFAULTS) -> GenInverse:
    """The unique {1,2}-inverse with R(B) = r_plus and N(B) = n_plus.

    Requires r_plus (+) N(A) = domain and n_plus (+) R(A) = codomain; the
    inverse is A restricted to r_plus -> R(A), inverted there, and extended by
    zero on n_plus.
    """
    arr = _read_only(as_matrix(a))
    svd = _full_svd(arr)
    rng, _, _, ker = _svd_factors(svd, cfg.rank_tol)
    if not direct_sum_check(r_plus, ker, cfg):
        raise ComplementError("supplied range complement is not transversal to the kernel")
    if not direct_sum_check(rng, n_plus, cfg):
        raise ComplementError("supplied kernel complement is not transversal to the range")
    onto_range = _projector_matrix(rng, n_plus)  # the direct sum checked just above
    restricted = arr @ r_plus.basis  # full column rank by transversality
    inv = r_plus.basis @ (np.linalg.pinv(restricted) @ onto_range)
    return _built(GenInverse, arr, inv, r_plus, n_plus, _svd=svd)


def c_op(a, ainv: GenInverse, t) -> np.ndarray:
    """Codomain-side perturbation factor I + (T - A) A+."""
    return _c_factor(as_matrix(a), ainv.inverse, as_matrix(t))


def d_op(a, ainv: GenInverse, t) -> np.ndarray:
    """Domain-side perturbation factor I + A+ (T - A)."""
    return _d_factor(as_matrix(a), ainv.inverse, as_matrix(t))


def _c_factor(a: np.ndarray, a_plus: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``c_op`` of checked matrices."""
    return np.eye(a.shape[0]) + (t - a) @ a_plus


def _d_factor(a: np.ndarray, a_plus: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``d_op`` of checked matrices."""
    return np.eye(a.shape[1]) + a_plus @ (t - a)


class _Perturbation:
    """The facts of one admitted perturbation T of A = ``ainv.forward`` under
    one ``cfg``, each taken when first read (see the module docstring)."""

    def __init__(self, ainv: GenInverse, t: np.ndarray, cfg: Numerics):
        self.a, self.a_plus, self.n_plus = ainv.forward, ainv.inverse, ainv.kernel_complement
        self.t, self.cfg = t, cfg

    @functools.cached_property
    def factors(self) -> Factors:
        """The four subspaces of T from its full SVD, cut at ``rank_tol``."""
        return _svd_factors(_full_svd(self.t), self.cfg.rank_tol)

    @functools.cached_property
    def meet(self) -> float:
        """Smallest singular value of [R(T) | N(A+)]."""
        return _smallest_stacked(self.factors.range, self.n_plus)

    def range_margin(self, fits: Callable[[int, int], bool]) -> float:
        """``intersection_margin`` (fits = ``operator.le``) or
        ``splitting_margin`` (``operator.eq``) of R(T) and N(A+), from ``meet``."""
        rng = self.factors.range
        return self.meet - self.cfg.tol_split if fits(rng.dim + self.n_plus.dim, rng.ambient_dim) else -1.0

    @functools.cached_property
    def c(self) -> np.ndarray:
        return _c_factor(self.a, self.a_plus, self.t)

    @functools.cached_property
    def cond(self) -> float:
        return np.linalg.cond(self.c)

    @functools.cached_property
    def b(self) -> np.ndarray:
        """B = A+ C^{-1}, solved after C's one conditioning check; read-only, in storage of its own."""
        return _read_only(np.linalg.solve(_conditioned(self.c, self.cfg, self.cond).T, self.a_plus.T).T)

    @functools.cached_property
    def tbt_norms(self) -> tuple[float, float]:
        """||TBT - T|| and ||T||."""
        return _op_norm_pair(self.t @ self.b @ self.t - self.t, self.t)


def _admit(a, ainv: GenInverse, t, cfg: Numerics) -> _Perturbation:
    """The admission of a perturbation, and the one check of A and T: both
    finite matrices of one shape, ``ainv`` an inverse of this A, and T inside
    the ball ``||T - A|| < ||A+||^{-1}``.  Returns the facts of (A+, T, cfg):
    those in ``ainv``'s slot when it holds the bytes of this T and an equal
    ``cfg`` (that T passed the ball test against this A+ already), else new
    ones, which then take the slot."""
    arr, tm = as_matrix(a), as_matrix(t)
    if tm.shape != arr.shape:
        raise ValidationError(f"perturbed operator has shape {tm.shape}, base operator {arr.shape}")
    if not np.array_equal(ainv.forward, arr):
        raise ValidationError(f"inverse belongs to a different operator than the {arr.shape} base")
    held = ainv._slot
    if held is not None and (held.cfg is cfg or held.cfg == cfg) and held.t.tobytes() == tm.tobytes():
        return held
    radius = ainv.ball_radius
    gap = _screened_norm(tm - arr, radius)
    if gap >= radius:
        raise BallError(f"perturbation gap {gap:.6g} >= ball radius {radius:.6g}")
    facts = _Perturbation(ainv, _read_only(tm), cfg)
    object.__setattr__(ainv, "_slot", facts)
    return facts


def _near_identity_sample(rng: np.random.Generator, a, ainv: GenInverse, fraction: float, eps: float) -> np.ndarray:
    """T = (I + eps G1) A (I + eps G2) for Gaussian G1 then G2: near-identity
    factors keep the rank of A.  ``eps`` halves until ||T - A|| < fraction *
    radius, radius = ||A+||^{-1} (1 for A+ = 0).  That also puts T in the
    chart region of A, since ||(T - A) A+|| <= ||T - A|| ||A+|| < fraction.
    A power-step lower bound rejects most halvings before any SVD; it only
    rejects what the SVD would.  Raises BallError after 60 halvings."""
    m, n = a.shape
    radius = ainv.ball_radius
    cap = fraction * (radius if math.isfinite(radius) else 1.0)
    g1 = rng.standard_normal((m, m))
    g2 = rng.standard_normal((n, n))
    for _ in range(60):
        t = (np.eye(m) + eps * g1) @ a @ (np.eye(n) + eps * g2)
        gap = t - a
        if not _norm_exceeds(gap, cap) and _screened_norm(gap, cap) < cap:
            return t
        eps *= 0.5
    raise BallError(f"no rank-keeping sample within {fraction:g} of the ball after 60 halvings")


def _conditioned(factor: np.ndarray, cfg: Numerics, cond: float | None = None) -> np.ndarray:
    """A perturbation factor C or D, checked once where it is formed, before
    any solve with it: BallError when it is numerically singular.  ``cond``
    is its condition number where the caller keeps it."""
    if (np.linalg.cond(factor) if cond is None else cond) > cfg.cond_limit:
        raise BallError("perturbation factor is numerically singular near the ball boundary")
    return factor


def perturbed_gi(a, ainv: GenInverse, t, cfg: Numerics = DEFAULTS) -> GenInverse:
    """Inverse of a perturbed operator sharing A+'s complements.

    Inside the ball ``||T - A|| < ||A+||^{-1}``, and provided R(T) meets
    N(A+) only in {0}, returns B = A+ C^{-1}(A+, T) with R(B) = R(A+) and
    N(B) = N(A+).  Raises BallError / TransversalityError otherwise.
    """
    p = _admit(a, ainv, t, cfg)
    margin = p.range_margin(operator.le)
    if margin <= 0.0:
        raise TransversalityError(
            f"range of the perturbed operator meets the kernel complement (margin {margin:.3e})"
        )
    resid = _relative(p.tbt_norms)
    if resid > cfg.cond_tol:
        raise TransversalityError(f"candidate violates T B T = T (residual {resid:.3e})")
    return _built(GenInverse, p.t, p.b, ainv.range_complement, ainv.kernel_complement)


@dataclass(frozen=True, eq=False)
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
        return self.all_true or self.all_false

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
    p = _admit(a, ainv, t, cfg)
    arr, tm, b, c = p.a, p.t, p.b, p.c
    n = arr.shape[1]
    ker_t = p.factors.kernel
    rng_a, _, _, ker_a = ainv._factors(cfg.rank_tol)
    onto_range_a = rng_a.orthogonal_projector()

    margins: dict[str, float] = {}

    margins["i"] = p.range_margin(operator.le)
    margins["ii"] = cfg.cond_tol - max(_relative(p.tbt_norms), _relative(_op_norm_pair(b @ tm @ b - b, b)))
    margins["iii"] = p.range_margin(operator.eq)
    margins["iv"] = splitting_margin(ker_t, ainv.range_complement, cfg)

    domain_proj = np.eye(n) - ainv.inverse @ arr  # projector onto N(A) along R(A+)
    image = Subspace._wrap(orth_basis(domain_proj @ ker_t.basis, cfg.rank_tol))
    margins["v"] = cfg.cond_tol - subspace_distance(image, ker_a)

    mapped = np.linalg.solve(c, tm @ ker_a.basis)
    margins["vi"] = cfg.cond_tol - _relative(_op_norm_pair(mapped - onto_range_a @ mapped, mapped))

    mapped = np.linalg.solve(c, tm)
    margins["vii"] = cfg.cond_tol - _relative(_op_norm_pair(mapped - onto_range_a @ mapped, mapped))

    holds = {k: margins[k] > 0.0 for k in CONDITION_KEYS}
    return ConditionReport(holds=holds, margins=margins, candidate=b.copy())


def _relative(norms: tuple[float, float]) -> float:
    """||residual|| / (1 + ||size||) from the pair of norms."""
    return norms[0] / (1.0 + norms[1])


def rank_class_preserved(a, ainv: GenInverse, t, cfg: Numerics = DEFAULTS) -> bool:
    """True iff the perturbed operator keeps the rank of the base operator.

    Inside the ball this is equivalent to condition (i); a decisive
    disagreement between the two routes indicates a broken rank decision and
    raises ToolkitError.
    """
    p = _admit(a, ainv, t, cfg)
    preserved = p.factors.range.dim == ainv._factors(cfg.rank_tol).range.dim
    margin = p.range_margin(operator.le)
    if abs(margin) >= 10.0 * cfg.tol_num and preserved != (margin > 0.0):
        raise ToolkitError(
            f"rank comparison and transversality disagree decisively (margin {margin:.3e})"
        )
    return preserved


def trial_rng(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic per-trial generator; independent of evaluation order."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, indices)]))


def _probe_directions(seed: int, indices: Sequence[int], dim: int) -> list[np.ndarray]:
    """Unit directions, the j-th drawn from ``trial_rng(seed, j)``."""
    return [unit(trial_rng(seed, j).standard_normal(dim)) for j in indices]


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


@dataclass
class ProbeReport:
    """Per-radius outcomes of a local-continuity probe of inverses."""

    outcomes: list[RadiusOutcome]
    alpha_modulus: list[float | None] | None = None

    @property
    def all_pass(self) -> bool:
        return all(o.all_pass for o in self.outcomes)


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
    directions = _probe_directions(seed, range(samples), base.size)
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
