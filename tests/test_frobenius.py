import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oblique import (
    DifferentiableMap,
    GridError,
    NewtonDivergence,
    StepError,
    Subspace,
    SubspaceFamily,
    explicit_psi,
    integrate,
    kernel_family,
    moore_penrose,
    tangency_check,
)
from oblique import frobenius
from oblique.builtins import builtin_family, builtin_map
from oblique.config import DEFAULTS
from oblique.errors import CofinalBreach, EvalError
from oblique.frobenius import _outward_lines, explicit_patch
from oblique.frobenius import _axis_derivatives
from oblique.families import _JacobianKernels
from oblique.linalg import direct_sum_check, kernel_of, oblique_projector, op_norm, rank_of
from oblique.suites import random_complement


def circle_family():
    f, x0 = builtin_map("sphere_2d")
    return f, x0, kernel_family(f, x0)


def constant_family():
    base = Subspace.span([1.0, 0.0])
    comp = Subspace.span([0.0, 1.0])
    return SubspaceFamily(
        eval_fn=lambda x: base, base_point=np.array([0.0, 5.0]), base_subspace=base, complement=comp
    )


# ---------------------------------------------------------------------------
# trivial and error cases


def test_constant_family_gives_flat_patch():
    patch = integrate(constant_family(), 0.5, 1e-2)
    np.testing.assert_array_equal(patch.psi, np.full_like(patch.psi, 5.0))
    assert patch.diagnostics.path_residual == 0.0
    assert not patch.diagnostics.breached
    assert tangency_check(patch, constant_family()) <= 1e-12


def test_step_must_be_positive():
    with pytest.raises(StepError):
        integrate(constant_family(), 0.5, 0.0)


def test_tangency_needs_three_nodes():
    patch = integrate(constant_family(), 0.5, 1e-2)
    patch = type(patch)(
        axes=(patch.axes[0][:2],),
        psi=patch.psi[:2],
        filled=patch.filled[:2],
        base_m0=patch.base_m0,
        base_estar=patch.base_estar,
        m0_basis=patch.m0_basis,
        estar_basis=patch.estar_basis,
        diagnostics=patch.diagnostics,
    )
    with pytest.raises(GridError):
        tangency_check(patch, constant_family())


def test_breach_truncates_instead_of_extrapolating():
    # family flips to a subspace parallel to the complement beyond |x| > 0.3
    inner = Subspace.span([1.0, 0.0])
    outer = Subspace.span([0.0, 1.0])

    def eval_fn(x):
        return inner if abs(x[0]) <= 0.3 else outer

    fam = SubspaceFamily(
        eval_fn=eval_fn, base_point=np.array([0.0, 1.0]), base_subspace=inner, complement=outer
    )
    patch = integrate(fam, 0.6, 1e-2, grid_points=13)
    assert patch.diagnostics.breached
    assert patch.diagnostics.unfilled > 0
    inside = np.abs(patch.axes[0]) <= 0.3 + 1e-12
    assert patch.filled[inside].all()
    assert not patch.filled[~inside].any()
    np.testing.assert_array_equal(patch.psi[inside, 0], np.ones(inside.sum()))


# ---------------------------------------------------------------------------
# circle example


def test_circle_patch_against_closed_form():
    f, x0, fam = circle_family()
    patch = integrate(fam, 0.9, 1e-3)
    amb = patch.reconstruct()
    err = np.abs(amb[..., 1] - np.sqrt(1 - amb[..., 0] ** 2))
    assert float(err.max()) <= 1e-6
    # the reconstructed point over x = 0.6 is (0.6, 0.8)
    i = int(np.argmin(np.abs(amb[..., 0] - 0.6)))
    assert amb[i, 1] == pytest.approx(0.8, abs=1e-6)
    assert patch.diagnostics.initial_residual <= 1e-9
    assert patch.diagnostics.level_set_residual <= 1e-6
    assert patch.diagnostics.path_residual == 0.0


def test_circle_ode_residual_bound():
    _, _, fam = circle_family()
    patch = integrate(fam, 0.9, 1e-3)
    spacing = max(patch.diagnostics.spacing)
    assert patch.diagnostics.ode_residual_scaled <= 10.0 * spacing**2


def test_circle_tangency_residual():
    _, _, fam = circle_family()
    patch = integrate(fam, 0.9, 1e-3)
    assert tangency_check(patch, fam) <= 1e-6


def test_explicit_psi_circle_values():
    f, x0, fam = circle_family()
    gi0 = moore_penrose(f.jacobian(x0))
    b0 = fam.base_subspace.basis
    # pick z so the lifted point has ambient x-coordinate 0.6
    z = b0.T @ np.array([0.6, 0.0])
    w = explicit_psi(f, gi0, z, x0=x0)
    point = b0 @ z + fam.complement.basis @ w
    np.testing.assert_allclose(point, [0.6, 0.8], atol=1e-10)


def test_explicit_psi_base_value():
    f, x0, fam = circle_family()
    gi0 = moore_penrose(f.jacobian(x0))
    w = explicit_psi(f, gi0, fam.base_subspace.basis.T @ x0, x0=x0)
    point = fam.complement.basis @ w
    np.testing.assert_allclose(point, [0.0, 1.0], atol=1e-12)


def test_explicit_matches_integrated_circle():
    f, x0, fam = circle_family()
    patch = integrate(fam, 0.9, 1e-3)
    gi0 = moore_penrose(f.jacobian(x0))
    ep = explicit_patch(f, gi0, patch, x0=x0)
    assert float(np.nanmax(np.abs(ep - patch.psi))) <= 1e-6


def test_newton_divergence_outside_the_level_set_region():
    f, x0, fam = circle_family()
    gi0 = moore_penrose(f.jacobian(x0))
    z = fam.base_subspace.basis.T @ np.array([1.5, 0.0])  # no circle point above x=1.5
    with pytest.raises(NewtonDivergence) as err:
        explicit_psi(f, gi0, z, x0=x0)
    assert len(err.value.trace) >= 1


# ---------------------------------------------------------------------------
# sphere example (compact grid; the acceptance suite runs the pinned one)


def test_sphere_patch_small_grid():
    f, x0 = builtin_map("sphere_3d")
    fam = kernel_family(f, x0)
    patch = integrate(fam, 0.4, 2e-3, grid_points=15)
    amb = patch.reconstruct()
    err = np.abs(amb[..., 2] - np.sqrt(1 - amb[..., 0] ** 2 - amb[..., 1] ** 2))
    assert float(err.max()) <= 1e-6
    assert patch.diagnostics.path_residual <= 1e-6
    assert patch.diagnostics.level_set_residual <= 1e-6
    spacing = max(patch.diagnostics.spacing)
    assert patch.diagnostics.ode_residual_scaled <= 10.0 * spacing**2
    assert tangency_check(patch, fam) <= 100.0 * spacing**4
    gi0 = moore_penrose(f.jacobian(x0))
    ep = explicit_patch(f, gi0, patch, x0=x0)
    assert float(np.nanmax(np.abs(ep - patch.psi))) <= 1e-6


# ---------------------------------------------------------------------------
# rank-one slice of 2x2 matrices


def test_rank_one_slice_patch_stays_singular():
    fam = builtin_family("sec4_2x2")
    patch = integrate(fam, 0.2, 5e-3, grid_points=5)
    assert not patch.diagnostics.breached
    amb = patch.reconstruct().reshape(-1, 4)
    dets = np.abs(amb[:, 0] * amb[:, 3] - amb[:, 1] * amb[:, 2])
    assert float(dets.max()) <= 1e-8
    assert patch.diagnostics.path_residual <= 1e-8


DIAGNOSTIC_KEYS = [
    "step",
    "spacing",
    "initial_residual",
    "path_residual",
    "ode_residual",
    "ode_residual_scaled",
    "level_set_residual",
    "tangency_residual",
    "breached",
    "unfilled",
    "cofinal_failures",
]


@pytest.mark.parametrize("source", ["kernel", "sec4_2x2"])
def test_patch_diagnostics_serialise_in_field_order(source):
    if source == "kernel":
        patch = integrate(circle_family()[2], 0.3, 1e-2)
    else:
        patch = integrate(builtin_family("sec4_2x2"), 0.2, 5e-3, grid_points=5)
    d = json.loads(json.dumps(patch.diagnostics.to_dict()))
    assert list(d) == DIAGNOSTIC_KEYS
    assert d["spacing"] == list(patch.diagnostics.spacing)
    assert (d["level_set_residual"] is None) == (source == "sec4_2x2")


# ---------------------------------------------------------------------------
# batched lattice layer against a serial reference


class SerialReference:
    """The lattice layer one line and one node at a time.

    Every line of a pass is marched to its end before the next one starts,
    and every alpha value is taken on its own: from the closed form
    -(J M0) / (J E*) and the point's own Jacobian in the RK4 stages of a
    family with a source map of one component, else from the point's
    subspace with its own SVD and solve.  The batched layer must
    reproduce its psi bit for bit, with the same diagnostics and the same
    number of family (or Jacobian) evaluations.
    """

    def __init__(self, family, cfg=DEFAULTS):
        self.family, self.cfg = family, cfg
        self.b0 = family.base_subspace.basis
        self.bs = family.complement.basis
        onto_m0 = oblique_projector(family.base_subspace, family.complement, cfg).matrix
        self.estar_rows = self.bs.T @ (np.eye(family.ambient_dim) - onto_m0)
        self.cperp = family.complement.orthogonal_complement().basis
        f, kernels = family.source_map, family.eval_fn
        self.source = f if f is not None and f.cod_dim == self.bs.shape[1] == 1 else None
        if self.source is not None:
            own = isinstance(kernels, _JacobianKernels) and kernels.f is f
            t0 = kernels.base if own else f.jacobian(family.base_point, cfg)
            self.orientation = np.sign(t0 @ self.bs)[0, 0]

    def ambient(self, z, w):
        return self.b0 @ z + self.bs @ w

    def alpha(self, mx, rhs):
        if mx.dim != self.b0.shape[1]:
            raise CofinalBreach("dimension drift")
        cross = self.cperp.T @ mx.basis
        if np.linalg.svd(cross, compute_uv=False)[-1] <= self.cfg.tol_split:
            raise CofinalBreach("splitting lost")
        return self.estar_rows @ (mx.basis @ np.linalg.solve(cross, rhs))

    def closed_form(self, u):
        """alpha = -(J M0) / (J E*) at one point.  The point is dropped when
        its Jacobian fails, turns J E* zero or against the base's sign, or
        leaves its kernel Q with sigma_min(Cperp^T Q) <= tol_split."""
        try:
            jac = self.source.jacobian(u, self.cfg)
        except Exception as exc:
            raise EvalError("Jacobian failed") from exc
        if not np.isfinite(jac).all():
            raise EvalError("Jacobian not finite")
        prod = jac @ np.hstack([self.bs, self.b0])
        je, jm = prod[:, :1], prod[:, 1:]
        if np.sign(je[0, 0]) != self.orientation:
            raise CofinalBreach("past a fold")
        cross = self.cperp.T @ kernel_of(jac).basis
        if np.linalg.svd(cross, compute_uv=False)[-1] <= self.cfg.tol_split:
            raise CofinalBreach("splitting lost")
        return -(jm / je)

    def hop(self, z, w, axis, delta, step):
        n_sub = max(1, math.ceil(abs(delta) / step - 1e-12))
        h = delta / n_sub
        e_axis = np.zeros(z.size)
        e_axis[axis] = 1.0
        rhs = self.cperp.T @ self.b0[:, axis]

        def field(zz, ww):
            u = self.ambient(zz, ww)
            if self.source is not None:
                return self.closed_form(u)[:, axis]
            return self.alpha(self.family.eval(u), rhs)

        for j in range(n_sub):
            zj = z + (j * h) * e_axis
            k1 = field(zj, w)
            k2 = field(zj + 0.5 * h * e_axis, w + 0.5 * h * k1)
            k3 = field(zj + 0.5 * h * e_axis, w + 0.5 * h * k2)
            k4 = field(zj + h * e_axis, w + h * k3)
            w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return w

    def sweep(self, patch, step, order):
        axes, center, shape = patch.axes, patch.center_index, patch.shape
        d = len(axes)
        psi = np.full(shape + (self.bs.shape[1],), np.nan)
        filled = np.zeros(shape, dtype=bool)
        psi[center] = patch.base_estar
        filled[center] = True
        breaches = 0
        for pos, ax in enumerate(order):
            ranges = [range(shape[i]) if i in order[:pos] else (center[i],) for i in range(d)]
            for start in itertools.product(*ranges):
                if not filled[start]:
                    continue
                for direction in (1, -1):
                    idx = list(start)
                    z = np.array([axes[i][start[i]] for i in range(d)])
                    w = psi[start]
                    for nxt in range(start[ax] + direction, shape[ax] if direction > 0 else -1, direction):
                        try:
                            w = self.hop(z, w, ax, axes[ax][nxt] - z[ax], step)
                        except (CofinalBreach, EvalError):
                            breaches += 1
                            break
                        idx[ax] = nxt
                        psi[tuple(idx)] = w
                        filled[tuple(idx)] = True
                        z = z.copy()
                        z[ax] = axes[ax][nxt]
        return psi, filled, breaches

    def node_checks(self, patch):
        """cofinal failures, level-set and ODE residuals, node by node; the
        level-set residual is None for a family without a source map."""
        f = self.family.source_map
        f_base = None if f is None else f(self.family.base_point)
        d, shape, spacing = patch.m0_dim, patch.shape, patch.diagnostics.spacing
        failures, level, ode, ode_scaled = 0, 0.0, 0.0, 0.0
        for idx in itertools.product(*map(range, shape)):
            if not patch.filled[idx]:
                continue
            u = self.ambient(patch.node_coords(idx), patch.psi[idx])
            try:
                mx = self.family.eval(u)
            except EvalError:
                failures += 1
                continue
            if not direct_sum_check(mx, self.family.complement, self.cfg):
                failures += 1
                continue
            if f is not None:
                level = max(level, float(np.max(np.abs(f(u) - f_base))))
            if not all(0 < idx[i] < shape[i] - 1 for i in range(d)):
                continue
            ahead = [idx[:i] + (idx[i] + 1,) + idx[i + 1 :] for i in range(d)]
            back = [idx[:i] + (idx[i] - 1,) + idx[i + 1 :] for i in range(d)]
            if not all(patch.filled[p] and patch.filled[m] for p, m in zip(ahead, back)):
                continue
            try:
                am = self.alpha(mx, self.cperp.T @ self.b0)
            except CofinalBreach:
                failures += 1
                continue
            scale = (1.0 + op_norm(am)) ** 3
            for i in range(d):
                deriv = (patch.psi[ahead[i]] - patch.psi[back[i]]) / (2.0 * spacing[i])
                resid = float(np.max(np.abs(deriv - am[:, i])))
                ode = max(ode, resid)
                ode_scaled = max(ode_scaled, resid / scale)
        return failures, None if f is None else level, ode, ode_scaled

    def tangency(self, patch):
        worst = 0.0
        for idx in itertools.product(*map(range, patch.shape)):
            if not patch.filled[idx]:
                continue
            derivs = [_axis_derivatives(patch, np.array([idx]), i) for i in range(patch.m0_dim)]
            if not any(has[0] for has, _ in derivs):
                continue
            try:
                mx = self.family.eval(self.ambient(patch.node_coords(idx), patch.psi[idx]))
            except EvalError:
                continue
            reject = np.eye(self.family.ambient_dim) - mx.orthogonal_projector()
            for i, (has, dv) in enumerate(derivs):
                if has[0]:
                    tangent = self.b0[:, i] + self.bs @ dv[0]
                    worst = max(worst, float(np.linalg.norm(reject @ tangent) / np.linalg.norm(tangent)))
        return worst

    def run(self, patch, step):
        """What a serial integrate plus tangency_check give on the patch's
        lattice: the patch with reference psi and diagnostics."""
        self.alpha(self.family.eval(self.family.base_point), self.cperp.T @ self.b0)
        order = tuple(range(patch.m0_dim))
        psi, filled, breaches = self.sweep(patch, step, order)
        psi_rev, filled_rev, _ = self.sweep(patch, step, order[::-1])
        both = filled & filled_rev
        diag = dataclasses.replace(patch.diagnostics)
        diag.path_residual = float(np.nanmax(np.abs(psi[both] - psi_rev[both])))
        diag.unfilled = int(filled.size - filled.sum())
        ref = dataclasses.replace(patch, psi=psi, filled=filled, diagnostics=diag)
        diag.cofinal_failures, diag.level_set_residual, diag.ode_residual, diag.ode_residual_scaled = (
            self.node_checks(ref)
        )
        diag.breached = breaches > 0 or diag.cofinal_failures > 0
        diag.tangency_residual = self.tangency(ref)
        return ref


def sphere_variant(region, calls=None):
    """Kernel family of |x|^2 around (0, 0, 1) that misbehaves off an
    oblique region: it loses the splitting, fails to evaluate, or drops to
    a one-dimensional subspace there.  Off that region its subspaces are not
    the kernels of the map's Jacobian, so it declares no source map.
    Evaluations are counted in ``calls[0]`` when a list is given."""
    f, x0 = builtin_map("sphere_3d")
    fam = kernel_family(f, x0)
    flat = Subspace.span([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])  # contains E* = span(e3)
    line = Subspace.span([1.0, 0.0, 0.0])

    def eval_fn(x):
        if calls is not None:
            calls[0] += 1
        if region == "breach" and x[0] ** 2 + 2.0 * x[1] ** 2 > 0.12:
            return flat
        if region == "eval_error" and x[0] + 0.5 * x[1] > 0.25:
            raise ValueError("outside the chart")
        if region == "dimension_drift" and x[1] - x[0] > 0.3:
            return line
        return fam.eval_fn(x)

    return SubspaceFamily(
        eval_fn=eval_fn,
        base_point=x0,
        base_subspace=fam.base_subspace,
        complement=fam.complement,
    )


def assert_matches_reference(patch, ref):
    assert patch.psi.tobytes() == ref.psi.tobytes()
    assert patch.filled.tobytes() == ref.filled.tobytes()
    assert patch.diagnostics.to_dict() == ref.diagnostics.to_dict()


@pytest.mark.parametrize("region", ["breach", "eval_error", "dimension_drift"])
def test_batched_sweep_matches_serial_reference(region):
    calls = [0]
    fam = sphere_variant(region, calls)
    calls[0] = 0
    patch = integrate(fam, 0.5, 2e-2, grid_points=11)
    tangency_check(patch, fam)
    batched = calls[0]
    calls[0] = 0
    ref = SerialReference(fam).run(patch, 2e-2)
    assert_matches_reference(patch, ref)
    assert batched == calls[0]
    assert patch.diagnostics.breached and patch.diagnostics.unfilled > 0
    if region == "breach":
        # lines of the second pass stop at different hops
        assert len({int(n) for n in patch.filled.sum(axis=1) if n}) > 1


@pytest.mark.parametrize("region", ["eval_error", "dimension_drift"])
def test_batched_tangency_matches_serial_reference(region):
    # a clean patch checked against a family that fails or changes dimension
    # at some of its nodes
    f, x0 = builtin_map("sphere_3d")
    patch = integrate(kernel_family(f, x0), 0.5, 2e-2, grid_points=11)
    fam = sphere_variant(region)
    assert tangency_check(patch, fam) == SerialReference(fam).tangency(patch) > 0.0


def test_batched_lattice_makes_the_serial_number_of_evaluations():
    f, x0 = builtin_map("sphere_3d")
    kernels = kernel_family(f, x0)
    calls = [0]

    def counted(x):
        calls[0] += 1
        return kernels.eval_fn(x)

    fam = SubspaceFamily(
        eval_fn=counted,
        base_point=x0,
        base_subspace=kernels.base_subspace,
        complement=kernels.complement,
        source_map=f,
    )
    calls[0] = 0
    patch = integrate(fam, 0.5, 1e-2, grid_points=21)
    tangency_check(patch, fam)
    batched = calls[0]

    calls[0] = 0
    ref = SerialReference(fam).run(patch, 1e-2)
    assert batched == calls[0] > 0
    assert_matches_reference(patch, ref)
    assert patch.diagnostics.unfilled == 0


def sphere_kernels(region, calls):
    """``kernel_family`` of |x|^2 around (0, 0, 1) itself, whose analytic
    Jacobian raises, turns NaN or vanishes (the kernel jumps to R^3) off an
    oblique region.  Jacobian calls are counted in ``calls[0]``."""

    def jac(p):
        calls[0] += 1
        if region == "raises" and p[0] + 0.5 * p[1] > 0.25:
            raise ValueError("outside the chart")
        if region == "nan" and p[0] ** 2 + 2.0 * p[1] ** 2 > 0.12:
            return np.full((1, 3), np.nan)
        if region == "vanishes" and p[1] - p[0] > 0.3:
            return np.zeros((1, 3))
        return 2.0 * p.reshape(1, -1)

    f = DifferentiableMap(3, 1, lambda p: np.array([p @ p]), jac)
    return kernel_family(f, np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("region", ["clean", "raises", "nan", "vanishes"])
def test_kernel_family_stacked_evaluation_matches_serial_reference(region):
    calls = [0]
    fam = sphere_kernels(region, calls)
    assert type(fam).eval_batch is not SubspaceFamily.eval_batch  # the stacked-SVD path
    calls[0] = 0
    patch = integrate(fam, 0.5, 2e-2, grid_points=11)
    tangency_check(patch, fam)
    batched = calls[0]
    calls[0] = 0
    ref = SerialReference(fam).run(patch, 2e-2)
    assert_matches_reference(patch, ref)
    assert batched == calls[0] > 0
    assert patch.diagnostics.breached == (region != "clean")
    assert (patch.diagnostics.unfilled > 0) == (region != "clean")


@pytest.mark.parametrize("region", ["raises", "nan", "vanishes"])
def test_kernel_family_stacked_tangency_matches_serial_reference(region):
    # a clean patch checked against the kernel family where its Jacobian
    # fails or drops rank at some of the patch's nodes
    clean = sphere_kernels("clean", [0])
    patch = integrate(clean, 0.5, 2e-2, grid_points=11)
    calls = [0]
    fam = sphere_kernels(region, calls)
    calls[0] = 0
    batched = tangency_check(patch, fam)
    batched_calls = calls[0]
    calls[0] = 0
    assert batched == SerialReference(fam).tangency(patch) > 0.0
    assert batched_calls == calls[0] > 0


def quartic_kernels(calls, vanishes=False):
    """``kernel_family`` of |x|^2 on R^4 around an oblique unit point: a
    three-dimensional base, so both axis orders of integrate have three
    passes.  With ``vanishes`` its Jacobian is zero (the kernel jumps to R^4)
    off an oblique region.  Jacobian calls are counted in ``calls[0]``."""

    def jac(p):
        calls[0] += 1
        if vanishes and p[1] - p[0] > 0.2:
            return np.zeros((1, 4))
        return 2.0 * p.reshape(1, -1)

    f = DifferentiableMap(4, 1, lambda p: np.array([p @ p]), jac)
    x0 = np.array([0.1, -0.2, 0.3, 0.9])
    return kernel_family(f, x0 / np.linalg.norm(x0))


def counted_operator_family(calls):
    """``sec4_2x2``'s operator family (a generic family with a
    three-dimensional base) with its evaluations counted in ``calls[0]``."""
    fam = builtin_family("sec4_2x2")

    def eval_fn(x):
        calls[0] += 1
        return fam.eval_fn(x)

    return dataclasses.replace(fam, eval_fn=eval_fn)


@pytest.mark.parametrize("source", ["kernel", "operator"])
def test_three_dimensional_lock_step_matches_serial_reference(source):
    calls = [0]
    if source == "kernel":
        fam, extent, step = quartic_kernels(calls), 0.3, 5e-2
        assert frobenius._AlphaEvaluator(fam, DEFAULTS).source is fam.source_map  # the closed-form route
    else:
        fam, extent, step = counted_operator_family(calls), 0.2, 5e-3
        assert type(fam).eval_batch is SubspaceFamily.eval_batch
        assert frobenius._AlphaEvaluator(fam, DEFAULTS).source is None
    calls[0] = 0
    patch = integrate(fam, extent, step, grid_points=5)
    tangency_check(patch, fam)
    batched = calls[0]
    calls[0] = 0
    ref = SerialReference(fam).run(patch, step)
    assert patch.m0_dim == 3
    assert_matches_reference(patch, ref)
    assert batched == calls[0] > 0
    assert patch.filled.all() and patch.diagnostics.path_residual > 0.0


@pytest.mark.parametrize("source", ["breach", "quartic"])
def test_lock_step_orders_match_each_order_alone(source):
    # each slot of the lock-step march is the march of its order alone, bit
    # for bit, with its own breach count
    if source == "breach":
        fam, extent, step, grid = sphere_variant("breach"), 0.5, 2e-2, 11
    else:
        fam, extent, step, grid = quartic_kernels([0], vanishes=True), 0.3, 5e-2, 5
    patch = integrate(fam, extent, step, grid_points=grid)
    ev = frobenius._AlphaEvaluator(fam, DEFAULTS)
    lattice = (ev, patch.axes, patch.center_index, patch.base_estar, step)
    order = tuple(range(patch.m0_dim))
    psi, filled, breaches = frobenius._sweep(*lattice, [order, order[::-1]])
    for slot, alone in enumerate((order, order[::-1])):
        psi_alone, filled_alone, breaches_alone = frobenius._sweep(*lattice, [alone])
        assert psi[slot].tobytes() == psi_alone[0].tobytes()
        assert filled[slot].tobytes() == filled_alone[0].tobytes()
        assert breaches[slot] == breaches_alone[0] > 0
    assert psi[0].tobytes() == patch.psi.tobytes()
    # the orders' lattices differ, so a swap of slots would show
    assert psi[0].tobytes() != psi[1].tobytes()


def node_by_node_explicit(f, gi0, patch, x0, start):
    """``explicit_patch``'s march redone with one ``explicit_psi`` call per
    node: each solve starts from ``start`` of the solved nodes of its line,
    newest first, and a line stops at its first divergence."""
    ref = np.full_like(patch.psi, np.nan)
    center = patch.center_index
    ref[center] = explicit_psi(f, gi0, patch.node_coords(center), x0=x0)
    for pos in range(patch.m0_dim):
        reached = ~np.isnan(ref).any(axis=-1)
        for line in _outward_lines(reached, center, range(pos), pos):
            for i, idx in enumerate(line[1:], 1):
                history = [ref[j] for j in line[i - 1 :: -1]]
                try:
                    ref[idx] = explicit_psi(f, gi0, patch.node_coords(idx), x0=x0, w0=start(history))
                except NewtonDivergence:
                    break
    return ref


def neighbour_start(history):
    return history[0]


def test_explicit_patch_matches_node_by_node_solves():
    f, x0 = builtin_map("sphere_3d")
    patch = integrate(kernel_family(f, x0), 0.4, 2e-2, grid_points=9)
    gi0 = moore_penrose(f.jacobian(x0))
    ref = node_by_node_explicit(f, gi0, patch, x0, frobenius._predict)
    assert explicit_patch(f, gi0, patch, x0=x0).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# vectorised stencils and the array-native lattice path


def node_by_node_axis_derivative(patch, idx, axis):
    """The per-node grid derivative the vectorised stencils replaced."""
    n = patch.shape[axis]
    i = idx[axis]
    h = patch.diagnostics.spacing[axis]
    if i == 0 or i == n - 1:
        return None

    def at(j):
        pos = idx[:axis] + (j,) + idx[axis + 1 :]
        return patch.psi[pos] if patch.filled[pos] else None

    stencils = (
        ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0)),
        ((-1, 0, 1, 2, 3), (-3.0, -10.0, 18.0, -6.0, 1.0)),
        ((-3, -2, -1, 0, 1), (-1.0, 6.0, -18.0, 10.0, 3.0)),
    )
    for offsets, coeffs in stencils:
        if not all(0 <= i + o <= n - 1 for o in offsets):
            continue
        vals = [at(i + o) for o in offsets]
        if any(v is None for v in vals):
            continue
        return sum(c * v for c, v in zip(coeffs, vals)) / (12.0 * h)
    m1, p1 = at(i - 1), at(i + 1)
    if m1 is not None and p1 is not None:
        return (p1 - m1) / (2.0 * h)
    return None


def holed(patch, rng, share):
    """The patch with a random share of its non-center nodes unfilled."""
    drop = rng.random(patch.filled.shape) < share
    drop[patch.center_index] = False
    psi = patch.psi.copy()
    psi[drop] = np.nan
    return dataclasses.replace(patch, psi=psi, filled=patch.filled & ~drop)


def stencil_patches(rng):
    f, x0 = builtin_map("sphere_3d")
    clean = integrate(kernel_family(f, x0), 0.5, 2e-2, grid_points=11)
    circle = integrate(circle_family()[2], 0.5, 1e-2, grid_points=21)
    yield clean
    for region in ("breach", "eval_error", "dimension_drift"):
        yield integrate(sphere_variant(region), 0.5, 2e-2, grid_points=11)
    yield integrate(kernel_family(f, x0), 0.2, 2e-2, grid_points=3)  # only the fallback fits
    yield integrate(kernel_family(f, x0), 0.2, 2e-2, grid_points=(3, 7))
    for share in (0.1, 0.3, 0.6):
        yield holed(clean, rng, share)
        yield holed(circle, rng, share)


def test_vectorised_stencils_match_node_by_node(rng):
    fallbacks = 0
    for patch in stencil_patches(rng):
        nodes = np.argwhere(patch.filled)
        for axis in range(patch.m0_dim):
            has, values = _axis_derivatives(patch, nodes, axis)
            for idx, h, v in zip(map(tuple, nodes.tolist()), has, values):
                ref = node_by_node_axis_derivative(patch, idx, axis)
                single_has, single = _axis_derivatives(patch, np.array([idx]), axis)
                assert h == (ref is not None) == single_has[0]
                if ref is not None:
                    assert v.tobytes() == ref.tobytes() == single[0].tobytes()
                    fallbacks += patch.shape[axis] == 3
    assert fallbacks > 0


@pytest.mark.parametrize("region", ["flat", "nan"])
def test_long_line_breaching_partway_matches_serial_reference(region):
    # a 451-node circle line whose family loses the splitting (flat: a generic
    # family, with no source map, turns parallel to E*) or whose Jacobian
    # turns NaN (nan: the closed-form stages) beyond x = 0.6, so the forward
    # line stops partway
    f, x0 = builtin_map("sphere_2d")
    calls = [0]

    def jac(p):
        calls[0] += 1
        return np.full((1, 2), np.nan) if region == "nan" and p[0] > 0.6 else 2.0 * p.reshape(1, -1)

    fam = kernel_family(DifferentiableMap(2, 1, f.func, jac), x0)
    if region == "flat":
        kernels = fam

        def eval_fn(x):
            calls[0] += 1
            return Subspace.span([0.0, 1.0]) if x[0] > 0.6 else kernels.eval_fn(x)

        fam = SubspaceFamily(
            eval_fn=eval_fn,
            base_point=x0,
            base_subspace=kernels.base_subspace,
            complement=kernels.complement,
        )
    calls[0] = 0
    patch = integrate(fam, 0.9, 4e-3)
    tangency_check(patch, fam)
    batched = calls[0]
    calls[0] = 0
    ref = SerialReference(fam).run(patch, 4e-3)
    serial = calls[0]
    # the reference sweeps a line twice (both axis orders); integrate once
    calls[0] = 0
    SerialReference(fam).sweep(patch, 4e-3, (0,))
    assert patch.shape == (451,)
    assert_matches_reference(patch, ref)
    assert batched == serial - calls[0] > 0
    assert patch.diagnostics.breached
    short, full = sorted((int(patch.filled[:225].sum()), int(patch.filled[226:].sum())))
    assert full == 225 and 0 < short < 225


def test_integrate_wraps_no_subspace_per_node(monkeypatch):
    # the lattice path reads stacked bases: the number of Subspace objects
    # made during integrate does not grow with the number of nodes
    wrap, made = Subspace._wrap, [0]

    def counted(basis):
        made[0] += 1
        return wrap(basis)

    monkeypatch.setattr(Subspace, "_wrap", staticmethod(counted))
    fam = circle_family()[2]
    counts = []
    for step in (2e-2, 5e-3):
        made[0] = 0
        patch = integrate(fam, 0.9, step)
        counts.append((patch.filled.sum(), made[0]))
    assert counts[0][0] < counts[1][0]
    assert counts[0][1] == counts[1][1] < 10


def test_level_set_residual_skips_nodes_where_f_is_not_finite():
    # f = (|x|^2, 0), but off x0 > 0.2 its first component is shifted by 1
    # and its second is NaN: those nodes still split, and the level-set
    # residual skips them whole, as a node-by-node running max does
    def func(p):
        off = p[0] > 0.2
        return np.array([p @ p + off, np.nan if off else 0.0])

    f = DifferentiableMap(3, 2, func, lambda p: np.vstack([2.0 * p, np.zeros(3)]))
    fam = kernel_family(f, np.array([0.0, 0.0, 1.0]))
    patch = integrate(fam, 0.5, 2e-2, grid_points=11)
    _, level, _, _ = SerialReference(fam).node_checks(patch)
    assert patch.diagnostics.level_set_residual == level < 1e-6
    assert patch.diagnostics.cofinal_failures == 0 and patch.filled.all()


# ---------------------------------------------------------------------------
# the closed-form stages of kernel families against the SVD route


def test_rank_deficient_kernel_family_keeps_the_svd_route():
    # f = (|x|^2, 0): a rank-one Jacobian into R^2, so dim E* = 1 < cod_dim and
    # the stages take kernel bases and the splitting SVD.  Off x0 > 0.3 the
    # first row vanishes too and the kernel jumps to R^3.
    calls = [0]

    def jac(p):
        calls[0] += 1
        row = np.zeros(3) if p[0] > 0.3 else 2.0 * p
        return np.vstack([row, np.zeros(3)])

    f = DifferentiableMap(3, 2, lambda p: np.array([p @ p, 0.0]), jac)
    fam = kernel_family(f, np.array([0.0, 0.0, 1.0]))
    assert frobenius._AlphaEvaluator(fam, DEFAULTS).source is None
    assert type(fam).eval_batch is not SubspaceFamily.eval_batch
    calls[0] = 0
    patch = integrate(fam, 0.5, 2e-2, grid_points=11)
    tangency_check(patch, fam)
    batched = calls[0]
    calls[0] = 0
    ref = SerialReference(fam).run(patch, 2e-2)
    assert_matches_reference(patch, ref)
    assert batched == calls[0] > 0
    assert patch.diagnostics.breached and patch.diagnostics.unfilled > 0


def test_stages_take_the_closed_form_for_a_declared_source_map():
    # the route follows the family's source map, not how the family was
    # built: a family made with the public constructor around a kernel
    # family's eval_fn marches as that kernel family does, bit for bit
    f, x0, kernels = circle_family()
    parts = dict(base_point=x0, base_subspace=kernels.base_subspace, complement=kernels.complement)
    wrapped = SubspaceFamily(eval_fn=lambda x: kernels.eval_fn(x), source_map=f, **parts)
    generic = SubspaceFamily(eval_fn=lambda x: kernels.eval_fn(x), **parts)
    # a Jacobian of full row rank 2: dim E* = 2, off the closed form
    pair = kernel_family(DifferentiableMap(3, 2, lambda p: np.array([p @ p, p[0]]),
                                           lambda p: np.vstack([2.0 * p, [1.0, 0.0, 0.0]])), [0.0, 0.6, 0.8])
    sources = [frobenius._AlphaEvaluator(fam, DEFAULTS).source for fam in (kernels, wrapped, generic, pair)]
    assert sources[0] is f and sources[1] is f and sources[2:] == [None, None]
    assert_matches_reference(integrate(wrapped, 0.5, 1e-2), integrate(kernels, 0.5, 1e-2))


def test_circle_past_the_fold_breaches_instead_of_leaving_the_level_set():
    # extent 1.2 reaches past the fold at x = +-1, where det(J E*) = 2y turns
    # negative: the lines stop there, on the upper half of the circle
    patch = integrate(circle_family()[2], 1.2, 1e-3)
    points = patch.reconstruct()[patch.filled]
    assert patch.diagnostics.breached and patch.diagnostics.unfilled > 0
    assert (points[:, 1] > 0.0).all()
    assert patch.diagnostics.level_set_residual < 1e-3


def quadratic_map(rng, n):
    """f(x) = x^T Q x / 2 + b^T x: a map R^n -> R whose Jacobian Q x + b is
    affine in x."""
    q = rng.standard_normal((1, n, n))
    q = q + q.transpose(0, 2, 1)
    b = rng.standard_normal((1, n))
    return DifferentiableMap(n, 1, lambda p: 0.5 * (q @ p) @ p + b @ p, lambda p: q @ p + b)


@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.booleans(), st.sampled_from([1e-8, 0.05, 0.3]))
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_the_svd_route(seed, n, tilted, tol_split):
    rng = np.random.default_rng(seed)
    cfg = DEFAULTS.replace(tol_split=tol_split)
    f = quadratic_map(rng, n)
    x0 = rng.uniform(-0.5, 0.5, n)
    t0 = f.jacobian(x0)
    assume(rank_of(t0) == 1)
    estar = random_complement(rng, kernel_of(t0)) if tilted else None
    assume(estar is None or direct_sum_check(kernel_of(t0), estar, cfg))
    fam = kernel_family(f, x0, cfg, estar=estar)
    ev = frobenius._AlphaEvaluator(fam, cfg)
    assert ev.source is f
    bs = fam.complement.basis

    # J(x0 + t v) E* is affine in t: points at offsets 1e-3 .. 0.3 in t on
    # both sides of its root (a fold), plus points scattered around the base
    v = rng.standard_normal(n)
    at = [(f.jacobian(x0 + t * v) @ bs)[0, 0] for t in (0.0, 1.0)]
    offsets = np.concatenate([-np.logspace(-3, np.log10(0.3), 6), np.logspace(-3, np.log10(0.3), 6)])
    points = [x0 + rng.uniform(-1.0, 1.0, size=(12, n))]
    if at[1] != at[0]:
        points.append(x0 + (at[0] / (at[0] - at[1]) + offsets[:, None]) * v)
    points = np.concatenate(points)

    alpha, keep = ev.closed_form(points)
    batch = fam.eval_batch(points)
    found, bases = batch.of_dim(n - 1)
    rhs = np.broadcast_to(ev.full_rhs, (found.sum(), *ev.full_rhs.shape))
    svd_alpha, svd_keep = ev.alpha((found.copy(), bases), rhs)
    margins = np.full(len(points), np.inf)
    margins[found] = np.linalg.svd(ev.cperp.T @ bases, compute_uv=False)[:, -1]
    same_side = np.array([np.sign(f.jacobian(u) @ bs) == np.sign(t0 @ bs) for u in points]).ravel()

    decided = np.abs(margins - tol_split) > 1e-12
    assert (keep == (svd_keep & same_side))[decided].all()
    both = keep & svd_keep
    closed, generic = alpha[both[keep]], svd_alpha[both[svd_keep]]
    scale = 1.0 + np.linalg.norm(closed, ord=2, axis=(1, 2))
    # alpha grows like 1/(J E*) towards the fold, and both routes lose
    # about eps ||alpha||^2 to that conditioning: up to ||alpha|| = 100 this
    # stays under 1e-12 (1 + ||alpha||), closer to the fold under
    # 64 eps (1 + ||alpha||)^2
    bound = np.where(scale <= 101.0, 1e-12 * scale, 64.0 * np.finfo(float).eps * scale**2)
    assert (np.abs(closed - generic).max(axis=(1, 2), initial=0.0) <= bound).all()


def test_closed_form_rows_do_not_depend_on_their_batch(rng):
    # a zero Jacobian (J E* exactly singular), a NaN one, a point past the
    # fold and points in between: each kept row has the bytes it has alone
    def jac(p):
        if p[0] > 0.9:
            return np.full((1, 3), np.nan)
        return np.zeros((1, 3)) if abs(p[1]) < 1e-3 else 2.0 * p.reshape(1, -1)

    f = DifferentiableMap(3, 1, lambda p: np.array([p @ p]), jac)
    fam = kernel_family(f, np.array([0.0, 0.6, 0.8]))
    ev = frobenius._AlphaEvaluator(fam, DEFAULTS)
    points = np.vstack([rng.uniform(-0.5, 0.5, (20, 3)) + [0.0, 0.6, 0.8], [[0.1, 0.0, 0.0], [0.95, 0.1, 0.1]]])
    points = np.vstack([points, [[0.0, -0.6, -0.8]]])
    alpha, keep = ev.closed_form(points)
    assert not keep[-3:].any() and keep.sum() == len(alpha) > 10
    for i, row in zip(np.flatnonzero(keep), alpha):
        alone, kept = ev.closed_form(points[i : i + 1])
        assert kept.all() and alone[0].tobytes() == row.tobytes()


def half_square_family(cfg, estar=None, scale=1.0):
    """The kernel family of f = scale |x|^2 / 2 on R^3, J(x) = scale x^T, at
    x0 = (0, 0, 1)."""
    f = DifferentiableMap(3, 1, lambda p: np.array([0.5 * scale * p @ p]), lambda p: scale * p.reshape(1, -1))
    return kernel_family(f, np.array([0.0, 0.0, 1.0]), cfg, estar=estar)


def points_at_margins(ev, margins, sizes, directions):
    """x = o (m s E* + sqrt(1 - m^2) u) for each margin m, size o and unit
    direction u orthogonal to E*, with s the sign of J E* at the base: J(x)
    = x^T has J E* = o m s and ||J||_2 = o, so the splitting margin
    |J E*| / ||J||_2 is m."""
    estar = ev.bs[:, 0]
    return np.array([
        o * (m * ev.orientation * estar + math.sqrt(1.0 - m * m) * u)
        for m in margins for o in sizes for u in directions
    ])


def assert_scale_free(cfg, estar, points, alpha, keep):
    # a power of two scales J, J E* and J M0 exactly, so the mask and the
    # bytes of alpha stay
    for scale in (2.0**400, 2.0**-400):
        ev = frobenius._AlphaEvaluator(half_square_family(cfg, estar, scale), cfg)
        scaled, scaled_keep = ev.closed_form(points)
        assert scaled_keep.tolist() == keep.tolist()
        assert scaled.tobytes() == alpha.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol_split, rel", [(1e-8, 1e-6), (0.3, 1e-9)])
@pytest.mark.parametrize("tilted", [False, True])
def test_closed_form_splits_at_the_exact_margin(rng, tol_split, rel, tilted):
    # margins tol (1 -/+ rel) at sizes o on both sides of 1, so that neither
    # |J E*| > tol nor a test without the margin decides them as the SVD does
    cfg = DEFAULTS.replace(tol_split=tol_split)
    estar = random_complement(rng, kernel_of(np.array([[0.0, 0.0, 1.0]]))) if tilted else None
    fam = half_square_family(cfg, estar)
    ev = frobenius._AlphaEvaluator(fam, cfg)
    assert ev.source is fam.source_map
    e = ev.bs[:, 0]
    directions = [v - (v @ e) * e for v in rng.standard_normal((3, 3))]
    directions = [u / np.linalg.norm(u) for u in directions]
    margins = [tol_split * (1.0 - rel), tol_split * (1.0 + rel)]
    points = points_at_margins(ev, margins, [0.25, 1.0, 3.0, 40.0], directions)

    alpha, keep = ev.closed_form(points)
    svd_keep = np.array([
        np.linalg.svd(ev.cperp.T @ kernel_of(fam.source_map.jacobian(x)).basis, compute_uv=False)[-1] > tol_split
        for x in points
    ])
    assert keep.tolist() == svd_keep.tolist()
    assert keep.tolist() == [m > tol_split for m in margins for _ in range(len(points) // 2)]
    assert_scale_free(cfg, estar, points, alpha, keep)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_without_a_split_tolerance_keeps_every_finite_row(rng):
    # at tol_split = 0 every row on the base's side of the fold whose alpha
    # is finite splits, down to margins far below where squares of 1 / margin
    # overflow; the directions lie in the (e1, e2) plane, exactly orthogonal
    # to E* = span(e3)
    cfg = DEFAULTS.replace(tol_split=0.0)
    ev = frobenius._AlphaEvaluator(half_square_family(cfg), cfg)
    angles = rng.uniform(0.0, 2.0 * math.pi, 3)
    directions = [np.array([math.cos(t), math.sin(t), 0.0]) for t in angles]
    sizes = [0.25, 1.0, 3.0]
    margins = [0.5, 1e-3, 1e-20, 1e-60, 1e-100]
    points = points_at_margins(ev, margins, sizes, directions)
    across = points_at_margins(ev, [-1e-3, -1e-100], sizes, directions)

    alpha, keep = ev.closed_form(np.vstack([points, across]))
    assert keep.tolist() == [True] * len(points) + [False] * len(across)
    assert np.isfinite(alpha).all()
    assert_scale_free(cfg, None, np.vstack([points, across]), alpha, keep)
    tiny, tiny_keep = ev.closed_form(points_at_margins(ev, [1e-200, 1e-300], sizes, directions))
    assert tiny_keep.all() and np.isfinite(tiny).all()
    # J E* ~ 1e-320 keeps the base's sign, but alpha overflows: the row is
    # dropped, without a warning
    lost = points_at_margins(ev, [1e-320], [1.0], directions)
    assert (np.sign(lost @ ev.bs) == ev.orientation).all()
    alpha, keep = ev.closed_form(lost)
    assert not keep.any() and alpha.shape == (0, 1, 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tol_split", [1e-8, 0.0])
def test_closed_form_drops_fold_and_overflow_rows_without_a_warning(rng, tol_split):
    # kept rows, rows across the fold, rows exactly on it (J E* = 0) and rows
    # whose quotients overflow, in one stack: only the first are kept, with
    # alpha = -(J M0) / (J E*) byte for byte
    cfg = DEFAULTS.replace(tol_split=tol_split)
    ev = frobenius._AlphaEvaluator(half_square_family(cfg), cfg)
    angles = rng.uniform(0.0, 2.0 * math.pi, 2)
    directions = [np.array([math.cos(t), math.sin(t), 0.0]) for t in angles]
    kept = points_at_margins(ev, [0.5, 1e-3], [0.25, 3.0], directions)
    dropped = points_at_margins(ev, [-1e-3, 0.0, 1e-320, -1e-320], [0.25, 3.0], directions)
    points = np.vstack([dropped[:4], kept, dropped[4:]])
    alpha, keep = ev.closed_form(points)
    assert keep.tolist() == [False] * 4 + [True] * len(kept) + [False] * (len(dropped) - 4)
    prod = np.matmul(kept[:, None, :], ev.pinned)
    assert alpha.tobytes() == (-(prod[..., 1:] / prod[..., :1])).tobytes()


# ---------------------------------------------------------------------------
# explicit_patch: predicted starts along each lattice line


def counting(f):
    """``f`` with a counter of its calls."""
    calls = [0]

    def func(x):
        calls[0] += 1
        return f(x)

    return DifferentiableMap(f.dom_dim, f.cod_dim, func, f.jac), calls


def explicit_setup(name, extent, step, grid_points=None):
    f, x0 = builtin_map(name)
    patch = integrate(kernel_family(f, x0), extent, step, grid_points=grid_points)
    return f, x0, moore_penrose(f.jacobian(x0)), patch


def test_predictor_rows_extrapolate_polynomials_exactly():
    # row j continues every polynomial of degree <= j from nodes t = -1, ..., -(j + 1) to t = 0
    for j, weights in enumerate(frobenius._PREDICTORS):
        assert len(weights) == j + 1
        for degree in range(j + 1):
            history = [np.array([float((-k) ** degree)]) for k in range(1, j + 2)]
            assert frobenius._predict(history)[0] == 0.0**degree


def test_explicit_patch_circle_takes_few_map_calls():
    f, x0, gi0, patch = explicit_setup("sphere_2d", 0.9, 1e-3)
    assert patch.psi.shape[0] == 1801
    counted, calls = counting(f)
    ep = explicit_patch(counted, gi0, patch, x0=x0)
    assert calls[0] <= 4000  # 22,920 from neighbour starts
    assert float(np.nanmax(np.abs(ep - patch.psi))) <= 1e-6


def test_explicit_patch_falls_back_to_the_neighbour_start(monkeypatch):
    f, x0, gi0, patch = explicit_setup("sphere_3d", 0.4, 2e-2, grid_points=9)
    ref = node_by_node_explicit(f, gi0, patch, x0, neighbour_start)
    monkeypatch.setattr(frobenius, "_predict", lambda history: history[0] + 1e12)
    assert explicit_patch(f, gi0, patch, x0=x0).tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "name, extent, step, grid_points", [("sphere_2d", 1.2, 1e-3, None), ("sphere_3d", 0.99, 2e-2, 41)]
)
def test_explicit_patch_reach_never_shrinks(name, extent, step, grid_points):
    # both patches run past the fold, where lines end in divergence
    f, x0, gi0, patch = explicit_setup(name, extent, step, grid_points)
    ref = node_by_node_explicit(f, gi0, patch, x0, neighbour_start)
    ep = explicit_patch(f, gi0, patch, x0=x0)
    ref_reached, reached = ~np.isnan(ref).any(axis=-1), ~np.isnan(ep).any(axis=-1)
    assert ref_reached.sum() < ref_reached.size
    assert np.all(reached[ref_reached])
    assert float(np.abs(ep[ref_reached] - ref[ref_reached]).max()) <= 1e-11
