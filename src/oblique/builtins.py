"""Builtin example registry and family manifests.

The three named examples pin the toolkit's golden tests:

* ``sphere_2d``: kernels of the Jacobian of f(x, y) = x^2 + y^2 around
  (0, 1); the integral curve is the unit circle.
* ``sphere_3d``: same for f(x, y, z) = x^2 + y^2 + z^2 around (0, 0, 1);
  the patch is the upper unit sphere.
* ``sec4_2x2``: the tangent family M(X) = {T : T N(X) in R(X)} of 2x2
  matrices around diag(1, 0), with the one-dimensional complement spanned by
  the (2,2) matrix unit.  Its transversal set is nontrivial: the diagonal
  perturbations diag(1, eps) leave it for every eps != 0.

Family manifests (JSON) come in two kinds::

    {"kind": "kernel", "map": <builtin name or polynomial spec>,
     "x0": [...], "estar": <matrix dict, optional>, "rank_tol": <optional>}
    {"kind": "explicit", "points": [[...], ...], "bases": [<matrix dict>, ...],
     "x0": [...optional...], "estar": <matrix dict, optional>}

A polynomial spec is ``{"dom_dim": d, "components": [[[coef, [exponents]],
...], ...]}`` with one term list per output component.
"""

import numpy as np

from .config import DEFAULTS, Numerics
from .errors import EvalError, ValidationError
from .families import DifferentiableMap, SubspaceFamily, kernel_family
from .linalg import Subspace, orth_basis
from .matio import matrix_from_dict
from .opmanifold import OperatorFamilyContext, operator_context, operator_family

__all__ = [
    "BUILTIN_NAMES",
    "builtin_map",
    "builtin_family",
    "sec4_context",
    "rank_jump_family",
    "polynomial_map",
    "family_from_manifest",
    "default_extent",
    "default_grid",
]

BUILTIN_NAMES = ("sphere_2d", "sphere_3d", "sec4_2x2")

_EXTENTS = {"sphere_2d": 0.9, "sphere_3d": 0.5, "sec4_2x2": 0.2}
_GRIDS = {"sphere_2d": None, "sphere_3d": 51, "sec4_2x2": 5}


def _sphere_map(dim: int) -> DifferentiableMap:
    return DifferentiableMap(
        dom_dim=dim,
        cod_dim=1,
        func=lambda p: np.array([float(p @ p)]),
        jac=lambda p: 2.0 * p.reshape(1, -1),
    )


def builtin_map(name: str) -> tuple[DifferentiableMap, np.ndarray]:
    """Builtin differentiable map and its canonical base point."""
    if name == "sphere_2d":
        return _sphere_map(2), np.array([0.0, 1.0])
    if name == "sphere_3d":
        return _sphere_map(3), np.array([0.0, 0.0, 1.0])
    raise ValidationError(f"unknown builtin map {name!r}")


def sec4_context(cfg: Numerics = DEFAULTS) -> OperatorFamilyContext:
    """Context of the 2x2 example: base operator diag(1, 0)."""
    return operator_context(np.diag([1.0, 0.0]), cfg=cfg)


def builtin_family(name: str, cfg: Numerics = DEFAULTS) -> SubspaceFamily:
    if name in ("sphere_2d", "sphere_3d"):
        f, x0 = builtin_map(name)
        return kernel_family(f, x0, cfg)
    if name == "sec4_2x2":
        # Rank tolerance sits between integrator stage drift off the exact
        # rank-1 set (O(step^2), ~1e-6) and the genuine rank jumps this
        # family exists to flag (singular-value ratios >= 1e-2).
        return operator_family(sec4_context(cfg), rank_tol=1e-4, cfg=cfg)
    raise ValidationError(f"unknown builtin family {name!r}; choose from {BUILTIN_NAMES}")


def default_extent(name: str) -> float:
    return _EXTENTS.get(name, 0.5)


def default_grid(name: str):
    return _GRIDS.get(name)


def rank_jump_family():
    """Operator-valued map diag(1, ||x||) on R^2: rank jumps 1 -> 2 off the
    base, the origin.

    The base operator admits no continuous family of inverses around the
    origin, so continuity probes must fail at every radius.
    """

    def family(p: np.ndarray) -> np.ndarray:
        return np.diag([1.0, float(np.linalg.norm(np.asarray(p, dtype=float).ravel()))])

    return family


def polynomial_map(spec: dict) -> DifferentiableMap:
    """Build a polynomial map with analytic Jacobian from its term lists."""
    try:
        dom = int(spec["dom_dim"])
        components = spec["components"]
        terms = [
            [(float(c), np.asarray(e, dtype=int)) for c, e in comp] for comp in components
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad polynomial spec: {exc}") from exc
    for comp in terms:
        for _, e in comp:
            if e.size != dom or np.any(e < 0):
                raise ValidationError("polynomial exponents must be nonnegative, one per variable")
    cod = len(terms)

    def func(x: np.ndarray) -> np.ndarray:
        return np.array([sum(c * np.prod(x**e) for c, e in comp) for comp in terms])

    def jac(x: np.ndarray) -> np.ndarray:
        out = np.zeros((cod, dom))
        for i, comp in enumerate(terms):
            for c, e in comp:
                for j in range(dom):
                    if e[j] == 0:
                        continue
                    shifted = e.copy()
                    shifted[j] -= 1
                    out[i, j] += c * e[j] * np.prod(x**shifted)
        return out

    return DifferentiableMap(dom_dim=dom, cod_dim=cod, func=func, jac=jac)


def _subspace_from_dict(d: dict, name: str) -> Subspace:
    return Subspace(orth_basis(matrix_from_dict(d, name)))


def family_from_manifest(manifest: dict, cfg: Numerics = DEFAULTS) -> SubspaceFamily:
    """Construct a subspace family from its JSON manifest."""
    kind = manifest.get("kind")
    if kind == "kernel":
        spec = manifest.get("map")
        if isinstance(spec, str):
            if spec == "sec4_2x2":
                if fixed := sorted({"x0", "estar", "rank_tol"} & manifest.keys()):
                    raise ValidationError(f"sec4_2x2 fixes its own base, complement and rank cut; drop {', '.join(fixed)}")
                return builtin_family(spec, cfg)
            f, default_x0 = builtin_map(spec)
            x0 = np.asarray(manifest.get("x0", default_x0), dtype=float)
        elif isinstance(spec, dict):
            f = polynomial_map(spec)
            if "x0" not in manifest:
                raise ValidationError("kernel manifest with a polynomial map needs x0")
            x0 = np.asarray(manifest["x0"], dtype=float)
        else:
            raise ValidationError("kernel manifest needs map: builtin name or polynomial spec")
        estar = _subspace_from_dict(manifest["estar"], "estar") if "estar" in manifest else None
        return kernel_family(f, x0, cfg, estar=estar, rank_tol=manifest.get("rank_tol"))

    if kind == "explicit":
        try:
            points = [np.asarray(p, dtype=float).ravel() for p in manifest["points"]]
            bases = [orth_basis(matrix_from_dict(b, f"bases[{i}]")) for i, b in enumerate(manifest["bases"])]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"explicit manifest needs points and bases: {exc}") from exc
        if not points or len(points) != len(bases):
            raise ValidationError("explicit manifest: points and bases must align and be nonempty")

        def eval_fn(x: np.ndarray) -> Subspace:
            for p, b in zip(points, bases):
                if p.size == x.size and np.allclose(x, p, atol=1e-12):
                    return Subspace._wrap(b)
            raise EvalError(f"no tabulated subspace at {x.tolist()}")

        x0 = np.asarray(manifest.get("x0", points[0]), dtype=float).ravel()
        base_subspace = eval_fn(x0)
        if "estar" in manifest:
            estar = _subspace_from_dict(manifest["estar"], "estar")
        else:
            estar = base_subspace.orthogonal_complement()
        return SubspaceFamily(
            eval_fn=eval_fn, base_point=x0, base_subspace=base_subspace, complement=estar
        )

    raise ValidationError(f"manifest kind must be 'kernel' or 'explicit', got {kind!r}")
