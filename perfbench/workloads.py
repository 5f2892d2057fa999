"""The four workloads: input generators, jobs, output checks and layer probes.

Inputs are drawn here from the run's seed, never by the program's samplers
(``oblique.suites``), so that a change to the program cannot change a
workload.  The program receives only the generated matrices, points and
callables.  A workload's job list is fixed by the seed; a run repeats that
list in passes until its time is used up.

Each workload provides:

* ``setup(tr)``: the set-up step a user pays once (timed as ``setup_s``);
* ``instrument(state, tr)``: the same state with the benchmark's own
  callables recording spans, for the traced run;
* ``jobs()``: the job inputs of one pass;
* ``run_job(state, job, tr)``: one job, only calls into the program;
* ``check(state, job, output)``: the job's correctness checks, returning the
  names of the failed checks and the job's deterministic counts;
* ``digest(output)``: a fingerprint used to confirm that repeated passes
  reproduce the first pass exactly;
* ``probes(state, outputs)``: per-call costs measured after the traced
  passes;
* ``setup_metric``: the per-layer metric that reports ``setup_s``, if any.
"""

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from oblique import matio
from oblique.config import DEFAULTS
from oblique.errors import ToolkitError
from oblique.families import DifferentiableMap, SubspaceFamily, grp_alpha, kernel_family
from oblique.frobenius import explicit_patch, integrate, tangency_check
from oblique.geninv import (
    gi_from_complements,
    moore_penrose,
    perturbed_gi,
    rank_class_preserved,
    seven_conditions,
)
from oblique.linalg import Subspace, kernel_of
from oblique.opmanifold import (
    chart_d,
    chart_d_star,
    fixed_rank_chart_check,
    mx_basis,
    operator_context,
    tangency_fixed_rank,
)

# Tolerances of the job checks.
TOL_LATTICE = 1e-6          # level set, path residual, explicit agreement
TANGENCY_FACTOR = 100.0     # tangency <= stencil floor + factor * spacing^4
TOL_ROUND_TRIP = 1e-10      # chart round trip
DECISIVE_BAR = 10.0 * DEFAULTS.tol_num  # the suites' verdict bar


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _mean_call_us(fn, args_list, rounds: int) -> float:
    start = time.perf_counter()
    for _ in range(rounds):
        for args in args_list:
            fn(*args)
    return (time.perf_counter() - start) / (rounds * len(args_list)) * 1e6


@dataclass
class JobError:
    """A program exception raised by a job, kept as its output."""

    kind: str
    message: str


# ---------------------------------------------------------------------------
# lattice workloads: sphere-lattice and circle-line


def _sq_norm(p: np.ndarray) -> np.ndarray:
    return np.array([float(p @ p)])


def _sq_norm_jac(p: np.ndarray) -> np.ndarray:
    return 2.0 * p.reshape(1, -1)


@dataclass
class LatticeState:
    f: DifferentiableMap
    family: SubspaceFamily


@dataclass
class LatticeOutput:
    patch: object
    tangency: float
    explicit: np.ndarray
    text: str


class Lattice:
    """Kernel family of f(x) = |x|^2 around a seeded unit base point.

    Each job integrates the patch, checks its tangency, evaluates the
    explicit graph map on its lattice and serializes it.
    """

    setup_metric = None

    def __init__(self, seed: int, dim: int, extent: float, step: float, grid: int | None, tag: int):
        self.dim, self.extent, self.step, self.grid = dim, extent, step, grid
        self.x0 = _unit(_rng(seed, tag).standard_normal(dim))

    def setup(self, tr) -> LatticeState:
        f = DifferentiableMap(self.dim, 1, tr.wrap("input.func", _sq_norm), tr.wrap("input.jac", _sq_norm_jac))
        return LatticeState(f, kernel_family(f, self.x0))

    def instrument(self, state: LatticeState, tr) -> LatticeState:
        # The program's own eval_fn, counted: a family built with the public
        # constructor around it, with the source map set for the level-set
        # diagnostics.
        base = self.setup(tr)
        fam = base.family
        family = SubspaceFamily(
            eval_fn=tr.wrap("families.eval", fam.eval_fn),
            base_point=fam.base_point,
            base_subspace=fam.base_subspace,
            complement=fam.complement,
            source_map=base.f,
        )
        return LatticeState(base.f, family)

    def jobs(self) -> list:
        return [self.x0]

    def run_job(self, st: LatticeState, x0: np.ndarray, tr) -> LatticeOutput:
        with tr.span("frobenius.integrate"):
            patch = integrate(st.family, self.extent, self.step, grid_points=self.grid)
        with tr.span("frobenius.tangency"):
            tangency = tangency_check(patch, st.family)
        with tr.span("geninv.gi"):
            gi0 = moore_penrose(st.f.jacobian(x0))
        with tr.span("frobenius.explicit"):
            explicit = explicit_patch(st.f, gi0, patch, x0=x0)
        with tr.span("frobenius.to_dict"):
            payload = patch.to_dict()
        with tr.span("matio.dump"):
            text = matio.dump_json(payload)
        return LatticeOutput(patch, tangency, explicit, text)

    def _exact_patch(self, patch, x0: np.ndarray):
        """The patch with psi replaced by the exact graph of the sphere.

        E* is spanned by x0 and M0 is its orthogonal complement, so a lattice
        point z lifts to the sphere at E*-coordinate sign * sqrt(|x0|^2 - |z|^2).
        """
        z = patch.grid()
        w = np.sign(patch.base_estar[0]) * np.sqrt(x0 @ x0 - np.sum(z * z, axis=1))
        return dataclasses.replace(
            patch, psi=w.reshape(patch.psi.shape), diagnostics=dataclasses.replace(patch.diagnostics)
        )

    def check(self, st: LatticeState, x0: np.ndarray, out) -> tuple[list[str], dict]:
        if isinstance(out, JobError):
            return [out.kind], {"nodes_filled": 0, "unfilled": 0}
        patch = out.patch
        filled = patch.filled
        failed = []
        if patch.diagnostics.unfilled:
            failed.append("unfilled")
        points = patch.reconstruct()[filled]
        level = np.max(np.abs(np.sum(points * points, axis=1) - x0 @ x0))
        if not level <= TOL_LATTICE:
            failed.append("level_set")
        path = patch.diagnostics.path_residual
        if path is None or not path <= TOL_LATTICE:
            failed.append("path_residual")
        if not np.max(np.abs(out.explicit[filled] - patch.psi[filled])) <= TOL_LATTICE:
            failed.append("explicit_agreement")
        # The tangency check differentiates psi by finite differences, whose
        # truncation error is what it measures on the exact graph too: the
        # patch may exceed that floor by at most factor * spacing^4.
        floor = tangency_check(self._exact_patch(patch, x0), st.family)
        spacing = max(patch.diagnostics.spacing)
        if not out.tangency <= floor + TANGENCY_FACTOR * spacing**4:
            failed.append("tangency")
        return failed, {"nodes_filled": int(filled.sum()), "unfilled": int(patch.diagnostics.unfilled)}

    def digest(self, out) -> str:
        if isinstance(out, JobError):
            return _fingerprint(out.kind, out.message)
        return _fingerprint(out.text, out.explicit, out.tangency)

    def probes(self, st: LatticeState, outputs: list) -> dict:
        x0 = self.x0
        jac = _sq_norm_jac(x0)
        gi0 = moore_penrose(jac)
        # closed-form alpha at the inner patch nodes, where the Jacobian gap
        # stays inside the perturbation ball
        out = outputs[0]
        nodes = out.patch.reconstruct()[out.patch.filled] if isinstance(out, LatticeOutput) else x0[None, :]
        inner = nodes[np.linalg.norm(nodes - x0, axis=1) <= 0.5 * self.extent]
        step = max(1, len(inner) // 200)
        return {
            "linalg.kernel_of_us": _mean_call_us(kernel_of, [(jac,)], 2000),
            "families.grp_alpha_us": _mean_call_us(grp_alpha, [(st.f, gi0, u) for u in inner[::step]], 3),
        }


def sphere_lattice(seed: int, tiny: bool) -> Lattice:
    return Lattice(seed, 3, 0.5, 2e-2 if tiny else 1e-2, 5 if tiny else 21, tag=1)


def circle_line(seed: int, tiny: bool) -> Lattice:
    return Lattice(seed, 2, 0.9, 1e-2 if tiny else 1e-3, None, tag=2)


# ---------------------------------------------------------------------------
# fixed-rank-chart


@dataclass
class ChartOutput:
    chart: object
    tangency: object


class FixedRankChart:
    """Chart checks around a seeded rank-k base operator.

    The set-up is ``operator_context``; each job runs the chart round-trip
    check and the tangency check of rank-preserving curves.
    """

    setup_metric = "opmanifold.context_s"

    def __init__(self, seed: int, m: int, n: int, k: int, samples: int):
        self.m, self.n, self.k, self.samples = m, n, k, samples
        rng = _rng(seed, 3)
        u = _orthogonal(rng, m)[:, :k]
        v = _orthogonal(rng, n)[:, :k]
        s = rng.uniform(0.3, 1.0, size=k)
        self.a = (u * s) @ v.T
        self.x = self._near(rng, np.linalg.pinv(self.a), float(s.min()))
        self.chart_seed = int(rng.integers(2**31))

    def _near(self, rng: np.random.Generator, pinv: np.ndarray, radius: float) -> np.ndarray:
        """A rank-k operator well inside the perturbation ball and the chart
        region: the base operator times near-identity factors on both sides."""
        g_left = rng.standard_normal((self.m, self.m))
        g_right = rng.standard_normal((self.n, self.n))
        eps = 0.1
        for _ in range(60):
            x = (np.eye(self.m) + eps * g_left) @ self.a @ (np.eye(self.n) + eps * g_right)
            gap = x - self.a
            if np.linalg.norm(gap, 2) < 0.4 * radius and np.linalg.norm(gap @ pinv, 2) < 0.4:
                return x
            eps *= 0.5
        raise RuntimeError("no rank-preserving point found inside the chart region")

    def setup(self, tr):
        with tr.span("opmanifold.context"):
            return operator_context(self.a)

    def instrument(self, state, tr):
        return state

    def jobs(self) -> list:
        return [(self.x, self.chart_seed)]

    def run_job(self, ctx, job, tr) -> ChartOutput:
        x, seed = job
        with tr.span("opmanifold.chart_check"):
            chart = fixed_rank_chart_check(ctx, samples=self.samples, seed=seed)
        with tr.span("opmanifold.tangency"):
            tangency = tangency_fixed_rank(ctx, x, curves=ctx.m0.dim + 6, seed=seed)
        return ChartOutput(chart, tangency)

    def check(self, ctx, job, out) -> tuple[list[str], dict]:
        if isinstance(out, JobError):
            return [out.kind], {}
        failed = []
        if not out.chart.round_trip_max <= TOL_ROUND_TRIP:
            failed.append("round_trip")
        if out.chart.rank_failures != 0:
            failed.append("rank_failures")
        expected = self.m * self.n - (self.m - self.k) * (self.n - self.k)
        if out.tangency.tangent_span_dim != expected or out.tangency.expected_dim != expected:
            failed.append("span_dim")
        return failed, {}

    def digest(self, out) -> str:
        if isinstance(out, JobError):
            return _fingerprint(out.kind, out.message)
        return _fingerprint(json.dumps(out.chart.to_dict()), json.dumps(out.tangency.to_dict()))

    def probes(self, ctx, outputs: list) -> dict:
        gi_x = perturbed_gi(ctx.a, ctx.ainv, self.x)
        start = time.perf_counter()
        mx_basis(ctx, self.x, gi_x)
        mx_s = time.perf_counter() - start
        t = chart_d(ctx, self.x)
        mn = self.m * self.n
        return {
            "opmanifold.mx_basis_s": mx_s,
            "opmanifold.chart_d_us": _mean_call_us(chart_d, [(ctx, self.x)], 50),
            "opmanifold.chart_d_star_us": _mean_call_us(chart_d_star, [(ctx, t)], 50),
            # computed, not measured: one dense (mn) x (mn) float64 matrix of
            # the operator-space route
            "opmanifold.kron_bytes": 8 * mn * mn,
            "linalg.kernel_of_us": _mean_call_us(kernel_of, [(self.a,)], 50),
        }


def fixed_rank_chart(seed: int, tiny: bool) -> FixedRankChart:
    return FixedRankChart(seed, 6, 6, 2, 10) if tiny else FixedRankChart(seed, 30, 30, 5, 100)


# ---------------------------------------------------------------------------
# conditions


@dataclass
class Trial:
    a: np.ndarray
    r_plus: Subspace | None    # None selects the Moore-Penrose inverse
    n_plus: Subspace | None
    t: np.ndarray
    inside: bool               # expected verdict: transversal


@dataclass
class ConditionsOutput:
    errors: dict               # step name -> JobError
    report: object = None
    preserved: bool | None = None
    perturbed: object = None


def _step(out: ConditionsOutput, tr, name: str, fn, *args):
    """One geninv call of a trial, spanned; a toolkit error is recorded under
    ``name`` and yields None, so the trial's other verdicts are still taken."""
    try:
        with tr.span(f"geninv.{name}"):
            return fn(*args)
    except ToolkitError as exc:
        out.errors[name] = JobError(type(exc).__name__, str(exc))
        return None


def _tilted_complement(rng: np.random.Generator, ortho: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Orthonormal basis of a complement of span(sub): the orthogonal
    complement span(ortho) tilted by a bounded graph map onto span(sub)."""
    shear = rng.uniform(-1.0, 1.0, size=(sub.shape[1], ortho.shape[1]))
    q, _ = np.linalg.qr(ortho + sub @ shear)
    return q


class Conditions:
    """Many small transversality trials with condition numbers up to 1e6.

    Each trial draws a shape from 2 to 6 per side, a rank below both sides,
    singular values spread log-uniformly over a condition number drawn
    log-uniformly in [1, 1e6], and either the Moore-Penrose inverse or the
    {1,2}-inverse with random complements.  Even trials perturb inside the
    transversal set (rank kept), odd trials outside it (rank bumped by a
    rank-one term from the kernel into the inverse's kernel complement).
    The set-up is a fresh import of the program.
    """

    setup_metric = None

    def __init__(self, seed: int, count: int):
        rng = _rng(seed, 4)
        self.trials = [self._trial(rng, i % 2 == 0) for i in range(count)]

    @staticmethod
    def _trial(rng: np.random.Generator, inside: bool) -> Trial:
        m, n = (int(v) for v in rng.integers(2, 7, size=2))
        r = int(rng.integers(1, min(m, n)))
        kappa = 10.0 ** rng.uniform(0.0, 6.0)
        u = _orthogonal(rng, m)
        v = _orthogonal(rng, n)
        s = np.geomspace(1.0, 1.0 / kappa, r)
        a = (u[:, :r] * s) @ v[:, :r].T
        if rng.integers(2) == 0:
            r_plus = n_plus = None
            inverse = (v[:, :r] / s) @ u[:, :r].T
            n_plus_basis = u[:, r:]
        else:
            r_plus_basis = _tilted_complement(rng, v[:, :r], v[:, r:])
            n_plus_basis = _tilted_complement(rng, u[:, r:], u[:, :r])
            # reference {1,2}-inverse with range r_plus and kernel n_plus
            w = np.linalg.svd(n_plus_basis, full_matrices=True)[0][:, n_plus_basis.shape[1]:]
            inverse = r_plus_basis @ np.linalg.solve(w.T @ a @ r_plus_basis, w.T)
            r_plus, n_plus = Subspace(r_plus_basis), Subspace(n_plus_basis)
        radius = 1.0 / np.linalg.norm(inverse, 2)
        if inside:
            g_left = rng.standard_normal((m, m))
            g_right = rng.standard_normal((n, n))
            eps = 0.2
            for _ in range(80):
                t = (np.eye(m) + eps * g_left) @ a @ (np.eye(n) + eps * g_right)
                if np.linalg.norm(t - a, 2) < 0.3 * radius:
                    break
                eps *= 0.5
            else:
                raise RuntimeError("no rank-preserving perturbation found inside the ball")
        else:
            lift = n_plus_basis @ _unit(rng.standard_normal(n_plus_basis.shape[1]))
            kernel = v[:, r:] @ _unit(rng.standard_normal(n - r))
            t = a + 0.3 * radius * np.outer(lift, kernel)
        return Trial(a, r_plus, n_plus, t, inside)

    def setup(self, tr):
        import importlib
        import sys

        for name in [m for m in sys.modules if m == "oblique" or m.startswith("oblique.")]:
            del sys.modules[name]
        importlib.import_module("oblique")

    def instrument(self, state, tr):
        return state

    def jobs(self) -> list:
        return self.trials

    def run_job(self, state, trial: Trial, tr) -> ConditionsOutput:
        out = ConditionsOutput(errors={})
        if trial.r_plus is None:
            ainv = _step(out, tr, "gi", moore_penrose, trial.a)
        else:
            ainv = _step(out, tr, "gi", gi_from_complements, trial.a, trial.r_plus, trial.n_plus)
        if ainv is None:
            return out
        out.report = _step(out, tr, "seven_conditions", seven_conditions, trial.a, ainv, trial.t)
        out.preserved = _step(out, tr, "rank_class", rank_class_preserved, trial.a, ainv, trial.t)
        if trial.inside:
            out.perturbed = _step(out, tr, "perturbed_gi", perturbed_gi, trial.a, ainv, trial.t)
        return out

    def check(self, state, trial: Trial, out) -> tuple[list[str], dict]:
        if isinstance(out, JobError):
            return [out.kind], {"wrong_verdicts": 0, "indecisive": 0}
        failed = [f"{step}:{err.kind}" for step, err in out.errors.items() if step != "perturbed_gi"]
        wrong = []
        if out.report is not None:
            for key, holds in out.report.holds.items():
                if abs(out.report.margins[key]) >= DECISIVE_BAR and holds != trial.inside:
                    wrong.append(f"condition_{key}")
        if out.preserved is not None and out.preserved != trial.inside:
            wrong.append("rank_class")
        if "perturbed_gi" in out.errors:
            wrong.append("perturbed_gi")
        indecisive = out.report is not None and not out.report.decisive(DECISIVE_BAR)
        return failed + wrong, {"wrong_verdicts": int(bool(wrong)), "indecisive": int(indecisive)}

    def digest(self, out) -> str:
        if isinstance(out, JobError):
            return _fingerprint(out.kind, out.message)
        parts = [sorted((k, v.kind) for k, v in out.errors.items()), out.preserved]
        if out.report is not None:
            parts += [sorted(out.report.margins.items()), out.report.candidate]
        if out.perturbed is not None:
            parts.append(out.perturbed.inverse)
        return _fingerprint(*parts)

    def probes(self, state, outputs: list) -> dict:
        ts = [(trial.t,) for trial in self.trials[:200]]
        return {"linalg.kernel_of_us": _mean_call_us(kernel_of, ts, 5)}


def conditions(seed: int, tiny: bool) -> Conditions:
    return Conditions(seed, 40 if tiny else 2000)


WORKLOADS = {
    "sphere-lattice": sphere_lattice,
    "circle-line": circle_line,
    "fixed-rank-chart": fixed_rank_chart,
    "conditions": conditions,
}
