"""Dense linear-algebra core: subspaces, oblique projectors, rank decisions.

Conventions used everywhere downstream:

* a matrix ``A`` with shape ``(m, n)`` maps R^n (domain) into R^m (codomain);
* a subspace is stored as a matrix with orthonormal columns, and the trivial
  subspace is a first-class value with zero columns;
* complements default to orthogonal complements but any transversal
  complement may be supplied explicitly.

All values are immutable: a caller's array is checked and copied once, read-only
(``_read_only``); one the toolkit built is frozen, never copied (``_built``).  All
operations are pure functions, so everything here is safe to call concurrently.
"""

import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULTS, Numerics
from .errors import ComplementError, ValidationError

_EPS = np.finfo(float).eps

__all__ = [
    "Subspace",
    "SubspaceBatch",
    "Projector",
    "as_matrix",
    "op_norm",
    "rank_of",
    "kernel_of",
    "range_of",
    "Factors",
    "svd_factors",
    "orth_basis",
    "oblique_projector",
    "subspace_distance",
    "direct_sum_check",
    "splitting_margin",
    "intersection_margin",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d float array, raising ValueError otherwise."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _read_only(arr: np.ndarray, copy: bool = True) -> np.ndarray:
    """``arr`` made read-only: copied into storage of its own, or with ``copy=False`` frozen in place."""
    arr = arr.copy() if copy else arr
    arr.setflags(write=False)
    return arr


def _built(cls, *values, **cached):
    """Dataclass ``cls`` of checked values the toolkit built: arrays frozen, ``cached`` seeded, no ``__post_init__``."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, _read_only(value, copy=False) if isinstance(value, np.ndarray) else value)
    obj.__dict__.update(cached)
    return obj


def op_norm(a) -> float:
    """Spectral norm (largest singular value); 0 for empty matrices."""
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def _op_norm_pair(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """``op_norm`` of two float matrices of one shape from one stacked SVD,
    which takes each matrix as a single call does, bit for bit."""
    if x.size == 0:
        return 0.0, 0.0
    top = np.linalg.svd(np.stack([x, y]), compute_uv=False)[:, 0]
    return float(top[0]), float(top[1])


def _screened_norm(m: np.ndarray, bound: float) -> float:
    """An upper bound of ||m||_2 that decides ``||m||_2 < bound``, from the
    first of three tiers that settles it:

    1. the Frobenius norm (sum sigma_i^2)^(1/2);
    2. max|m| ||(S^T S)^2||_F^(1/4) = (sum sigma_i^8)^(1/8), with S = m / max|m|
       and the Gram matrix S^T S taken on the smaller side of m;
    3. the spectral norm from an SVD.

    Each of the first two is used only when it is below ``bound * (1 - 1e-8)``,
    so the result is below ``bound`` exactly when ``op_norm(m)`` is, and
    equals it whenever it is not below.  The second tier lets a matrix whose
    few leading singular values carry its norm pass without an SVD.

    Why the slack holds: the Frobenius norm and the SVD round like (entries)
    * eps, which covers up to a million entries.  The two products of the
    second tier round like p q eps relative to sigma_1^2 and sigma_1^4 (p x q
    the shape, every entry of S at most 1), and the fourth root quarters
    that, which covers some ten million entries.  The unscaled Frobenius
    norm loses squares below 5e-324, so bounds of 1e-150 or less always take
    the SVD; past about 1e154 the squares overflow to inf, which the later
    tiers decide.  The second tier runs only for 1e-150 < bound < 1e150, as
    ``_norm_exceeds`` does, where the scaled comparison keeps its precision."""
    with np.errstate(over="ignore"):
        frobenius = float(np.linalg.norm(m))
    if _screen_settles(frobenius, bound):
        return frobenius
    if 1e-150 < bound < 1e150:
        peak = float(np.max(np.abs(m)))  # > 0: a zero matrix passed the first tier
        scaled = m / peak
        gram = scaled @ scaled.T if scaled.shape[0] <= scaled.shape[1] else scaled.T @ scaled
        eighth = peak * float(np.linalg.norm(gram @ gram)) ** 0.25
        if eighth < bound * (1.0 - 1e-8):
            return eighth
    return op_norm(m)


def _screen_settles(frobenius, bound: float):
    """Where a Frobenius norm alone proves ||m||_2 < bound (elementwise)."""
    return (frobenius < bound * (1.0 - 1e-8)) & (bound > 1e-150)


def _screened_norms(stack: np.ndarray, bound: float) -> np.ndarray:
    """``_screened_norm`` of each matrix in a stack (count, p, q): the
    matrices the Frobenius tier leaves open take the Gram tier as one stacked
    product, and those still open share one stacked SVD.  The same slack and
    range guards hold, so each result is below ``bound`` exactly when that
    matrix's ``op_norm`` is, and equals it whenever it is not."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(stack, axis=(-2, -1))
    open_ = np.flatnonzero(~_screen_settles(norms, bound))
    if open_.size and 1e-150 < bound < 1e150:
        peak = np.max(np.abs(stack[open_]), axis=(-2, -1))  # > 0: a zero matrix passed the first tier
        scaled = stack[open_] / peak[:, None, None]
        flipped = scaled.transpose(0, 2, 1)
        gram = scaled @ flipped if stack.shape[1] <= stack.shape[2] else flipped @ scaled
        eighth = peak * np.linalg.norm(gram @ gram, axis=(-2, -1)) ** 0.25
        settled = eighth < bound * (1.0 - 1e-8)
        norms[open_[settled]] = eighth[settled]
        open_ = open_[~settled]
    if open_.size:
        norms[open_] = np.linalg.svd(stack[open_], compute_uv=False)[:, 0]
    return norms


def _norms_exceed(stack: np.ndarray, bound: float) -> np.ndarray:
    """True for each matrix of a stack (count, p, q) where one power step
    proves ``||m||_2 > bound`` without an SVD; the steps run as one stacked
    product.

    With M = m / max|m| and v its largest row, ||M v|| / ||v|| <= ||M||_2.
    The test asks that estimate to pass bound / max|m| by a factor 1 + 1e-8,
    a slack that covers its rounding and the SVD's, so ``op_norm(m)`` is past
    ``bound`` wherever this is True.  Outside 1e-150 < bound < 1e150, where
    bound / max|m| can leave the normal range and lose the precision that
    slack assumes, it is always False and the SVD decides; so it is for a
    zero or empty matrix."""
    if not (1e-150 < bound < 1e150 and stack.size):
        return np.zeros(len(stack), dtype=bool)
    peak = np.abs(stack).max(axis=(1, 2), initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero matrix's estimate is NaN: never past
        scaled = stack / peak[:, None, None]
        rows = np.einsum("cij,cij->ci", scaled, scaled)
        image = scaled @ scaled[np.arange(len(stack)), rows.argmax(axis=1), :, None]
        return np.sqrt(np.einsum("cij,cij->c", image, image) / rows.max(axis=1)) > bound / peak * (1.0 + 1e-8)


def _norm_exceeds(m: np.ndarray, bound: float) -> bool:
    """``_norms_exceed`` of one matrix."""
    return bool(_norms_exceed(m[None], bound)[0])


def unit(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit norm; the normalized all-ones vector for v = 0."""
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else np.ones_like(v) / np.sqrt(v.size)


def _ranks(s: np.ndarray, shape, tol: float | None) -> np.ndarray:
    """Numerical ranks from descending singular values, one row per matrix:
    the count above ``tol * sigma_max`` (0 for a zero or empty matrix)."""
    rel = max(shape) * _EPS if tol is None else tol
    return (s > rel * s[..., :1]).sum(axis=-1)


def rank_of(a, tol: float | None = None) -> int:
    """Numerical rank: count of singular values above ``tol * sigma_max``.

    ``tol`` is relative; None selects max(rows, cols) * machine epsilon.
    The zero matrix has rank 0.
    """
    arr = as_matrix(a)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return int(_ranks(s, arr.shape, tol))


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^n held as an orthonormal column basis.

    ``basis`` has shape (ambient_dim, dim); dim may be zero.
    """

    basis: np.ndarray

    def __post_init__(self):
        arr = _read_only(as_matrix(self.basis, "basis"))
        object.__setattr__(self, "basis", arr)
        n, k = arr.shape
        if k > n:
            raise ValueError(f"basis has more columns ({k}) than rows ({n})")
        if not np.allclose(arr.T @ arr, np.eye(k), atol=DEFAULTS.tol_ortho):
            raise ValueError("basis columns are not orthonormal")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def trivial(ambient_dim: int) -> "Subspace":
        return Subspace._wrap(np.zeros((ambient_dim, 0)))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace._wrap(np.eye(ambient_dim))

    @staticmethod
    def span(*vectors) -> "Subspace":
        """Subspace spanned by the given ambient vectors (orthonormalized)."""
        cols = np.column_stack([np.asarray(v, dtype=float) for v in vectors])
        return Subspace._wrap(orth_basis(cols))

    @staticmethod
    def _wrap(basis: np.ndarray) -> "Subspace":
        """A basis the toolkit built orthonormal (from an SVD or QR), frozen, not copied or checked."""
        obj = object.__new__(Subspace)
        object.__setattr__(obj, "basis", _read_only(basis, copy=False))
        return obj

    def orthogonal_complement(self) -> "Subspace":
        """Taken on first call and kept, as the basis cannot change; the first one stored wins."""
        if "_complement" not in self.__dict__:
            self.__dict__.setdefault("_complement", Subspace.full(self.ambient_dim) if self.dim == 0 else kernel_of(self.basis.T))
        return self.__dict__["_complement"]

    def orthogonal_projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


class SubspaceBatch:
    """Subspaces of R^n at a batch of points, one stacked basis array per
    dimension: ``dims[i]`` is the dimension of row i (-1 where its evaluation
    failed), and ``stacks[k]`` holds the bases of the rows of dimension k in
    row order, shaped (count, n, k).  Iterating yields ``Subspace | None``
    per row, wrapped on demand."""

    def __init__(self, ambient_dim: int, dims: np.ndarray, stacks: dict[int, np.ndarray]):
        self.ambient_dim, self.dims, self.stacks = ambient_dim, dims, stacks

    def of_dim(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The mask of the rows of dimension k and their stacked bases."""
        return self.dims == k, self.stacks.get(k, np.empty((0, self.ambient_dim, k)))

    def __iter__(self):
        rows = {k: iter(bases) for k, bases in self.stacks.items()}
        return (None if k < 0 else Subspace._wrap(next(rows[k])) for k in self.dims.tolist())


def orth_basis(a, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the column space of ``a`` (SVD-based)."""
    arr = as_matrix(a)
    if arr.shape[1] == 0:
        return np.zeros((arr.shape[0], 0))
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    r = int(_ranks(s, arr.shape, tol))
    return u[:, :r]


class Factors(NamedTuple):
    """The four fundamental subspaces of one operator, from one SVD."""

    range: Subspace      # R(A), in the codomain
    cokernel: Subspace   # R(A)^perp, in the codomain
    row: Subspace        # N(A)^perp, in the domain
    kernel: Subspace     # N(A), in the domain


def _full_svd(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full SVD (U, s, V^T) of a checked matrix; identities and no
    singular values for an empty one."""
    m, n = arr.shape
    if arr.size == 0:
        return np.eye(m), np.zeros(0), np.eye(n)
    return np.linalg.svd(arr)


def _svd_factors(svd, tol: float | None) -> Factors:
    """``svd_factors`` of a matrix from its ``_full_svd``: the one rank cut
    on a full SVD."""
    u, s, vh = svd
    r = int(_ranks(s, (len(u), len(vh)), tol))
    return Factors(
        Subspace._wrap(u[:, :r]), Subspace._wrap(u[:, r:]),
        Subspace._wrap(vh[:r].T), Subspace._wrap(vh[r:].T),
    )


def svd_factors(a, tol: float | None = None) -> Factors:
    """Orthonormal bases of R(A), R(A)^perp, N(A)^perp and N(A).

    One SVD and one rank decision at ``tol`` fix all four, so they are
    mutually orthogonal complements by construction.
    """
    return _svd_factors(_full_svd(as_matrix(a)), tol)


def kernel_of(a, tol: float | None = None) -> Subspace:
    """Orthonormal basis of the null space at the given rank tolerance."""
    return svd_factors(a, tol).kernel


def _kernel_svd(arr: np.ndarray, tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    """The ranks and V^T of a finite (count, m, n) stack from one stacked SVD."""
    _, s, vh = np.linalg.svd(arr)  # V^T is the identity for empty matrices
    return _ranks(s, arr.shape[1:], tol), vh


def _kernel_batch(ranks: np.ndarray, vh: np.ndarray) -> SubspaceBatch:
    """The kernels of a ``_kernel_svd`` as one batch, each basis column-major
    like the ``kernel_of`` one, so products round alike."""
    n, found = vh.shape[-1], set(ranks.tolist())
    stacks = {n - r: (vh[ranks == r, r:] if len(found) > 1 else vh[:, r:]).transpose(0, 2, 1) for r in found}
    return SubspaceBatch(n, n - ranks, stacks)


def range_of(a, tol: float | None = None) -> Subspace:
    """Orthonormal basis of the column space at the given rank tolerance."""
    return svd_factors(a, tol).range


@dataclass(frozen=True, eq=False)
class Projector:
    """An idempotent matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(as_matrix(self.matrix)))


def _margin(u: Subspace, v: Subspace, cfg: Numerics, fits: Callable[[int, int], bool]) -> float:
    """Smallest singular value of [u.basis | v.basis] (1.0 when empty) minus
    ``tol_split``; -1.0 when ``fits(dim u + dim v, ambient dim)`` is false.
    Both predicates reject sums above the ambient dimension, so the stacked
    basis never has more columns than rows."""
    if u.ambient_dim != v.ambient_dim:
        raise ValidationError(f"subspaces live in different ambient spaces: R^{u.ambient_dim} and R^{v.ambient_dim}")
    if not fits(u.dim + v.dim, u.ambient_dim):
        return -1.0
    return _smallest_stacked(u, v) - cfg.tol_split


def _smallest_stacked(u: Subspace, v: Subspace) -> float:
    """Smallest singular value of [u.basis | v.basis]; 1.0 when it is empty."""
    stacked = np.hstack([u.basis, v.basis])
    return float(np.linalg.svd(stacked, compute_uv=False)[-1]) if stacked.shape[1] else 1.0


def splitting_margin(u: Subspace, v: Subspace, cfg: Numerics = DEFAULTS) -> float:
    """Signed evidence that ``u + v`` is a direct sum of the ambient space.

    Positive values certify transversality (smallest stacked singular value
    minus ``tol_split``); -1.0 flags a dimension count that cannot split.
    """
    return _margin(u, v, cfg, operator.eq)


def intersection_margin(u: Subspace, v: Subspace, cfg: Numerics = DEFAULTS) -> float:
    """Signed evidence that ``u`` and ``v`` intersect only in {0}."""
    return _margin(u, v, cfg, operator.le)


def direct_sum_check(u: Subspace, v: Subspace, cfg: Numerics = DEFAULTS) -> bool:
    """True iff dims sum to the ambient dimension and the stacked basis is
    uniformly non-degenerate (its smallest singular value exceeds tol_split)."""
    return splitting_margin(u, v, cfg) > 0.0


def oblique_projector(range_: Subspace, nullspace: Subspace, cfg: Numerics = DEFAULTS) -> Projector:
    """Projector onto ``range_`` along ``nullspace``.

    Built as ``B (C^T B)^{-1} C^T`` where B holds the range basis and the
    columns of C span the orthogonal complement of the nullspace.

    Raises ValueError for different ambient spaces and ComplementError
    unless range_ (+) nullspace spans the ambient space transversally.
    """
    margin = splitting_margin(range_, nullspace, cfg)
    if margin <= 0.0:
        raise ComplementError(
            f"not a direct sum: dim {range_.dim} + {nullspace.dim} in R^{range_.ambient_dim}, margin {margin:.3e}"
        )
    return _built(Projector, _projector_matrix(range_, nullspace))


def _projector_matrix(range_: Subspace, nullspace: Subspace) -> np.ndarray:
    """The matrix of ``oblique_projector`` for a direct sum already certified
    by ``splitting_margin``, so the square factor is invertible."""
    n = range_.ambient_dim
    if range_.dim == 0:
        return np.zeros((n, n))
    if nullspace.dim == 0:
        return np.eye(n)
    # a complement the nullspace keeps is read; one taken here is not kept, so a caller's subspace does not grow
    c = (nullspace.__dict__.get("_complement") or kernel_of(nullspace.basis.T)).basis
    return range_.basis @ np.linalg.solve(c.T @ range_.basis, c.T)


def subspace_distance(u: Subspace, v: Subspace) -> float:
    """Gap metric: spectral norm of the difference of orthogonal projectors.

    Equals the sine of the largest principal angle for equal dimensions and
    1.0 whenever the dimensions differ; 0.0 from no SVD for one subspace
    given twice.
    """
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    return 0.0 if u is v else op_norm(u.orthogonal_projector() - v.orthogonal_projector())
