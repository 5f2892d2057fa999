"""Randomized verification suites with reproducible reports.

Each suite exercises one block of the toolkit's guarantees and produces a
``VerificationReport`` whose content is a pure function of (seed, config):
per-trial generators are derived from the seed and the trial index alone, so
results do not depend on scheduling or evaluation order.

Suite names are stable CLI identifiers:

* ``thm1_1``  - agreement of the seven equivalent transversality conditions;
* ``thm1_2``  - rank preservation inside the perturbation ball matches
  condition (i);
* ``thm1_4``  - continuity of perturbed inverses on shrinking spheres, and
  guaranteed failure for a rank-jumping family;
* ``thm1_5``  - graph/coordinate-operator round trips and uniqueness;
* ``frobenius`` - integration of the builtin families against closed forms;
* ``section4``  - operator-manifold identities, charts, and the 2x2 example;
* ``all``       - everything above.
"""

import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from .builtins import builtin_family, builtin_map, rank_jump_family, sec4_context
from .config import DEFAULTS, Numerics
from .errors import UnknownSuite
from .families import (
    CoordinateOperator,
    cofinal_member,
    coordinate_operator,
    generalized_regular_probe,
    graph_subspace,
    kernel_family,
)
from .frobenius import explicit_patch, integrate, tangency_check
from .geninv import (
    GenInverse,
    _near_identity_sample,
    c_op,
    gi_from_complements,
    locally_fine_probe,
    moore_penrose,
    perturbed_gi,
    seven_conditions,
    rank_class_preserved,
    trial_rng,
)
from .linalg import (
    Subspace,
    kernel_of,
    op_norm,
    orth_basis,
    range_of,
    subspace_distance,
    unit,
)
from .opmanifold import (
    alpha_operator_family,
    chart_d,
    fixed_rank_chart_check,
    membership_residual,
    operator_context,
    operator_family,
    sample_fixed_rank_near,
    tangency_fixed_rank,
    unvec,
    vec,
)

__all__ = [
    "VerificationReport",
    "SUITE_NAMES",
    "run_suite",
    "random_rank_matrix",
    "random_subspace",
    "random_complement",
    "random_gi",
    "sample_inside",
    "sample_outside",
]


@dataclass
class VerificationReport:
    suite: str
    seed: int
    trials: int
    config: dict
    outcomes: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    timestamp: str = ""
    sub_reports: list | None = None

    @property
    def failures(self) -> int:
        return int(self.summary.get("failures", 0))

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_report_dict)


def _report_dict(items) -> dict:
    """Dict of a report's fields, without ``sub_reports`` where it is None."""
    return {k: v for k, v in items if not (k == "sub_reports" and v is None)}


def _finish(report: VerificationReport) -> VerificationReport:
    fails = sum(1 for o in report.outcomes if not o.get("pass", True))
    report.summary = {"failures": fails, **report.summary}
    report.timestamp = datetime.now(timezone.utc).isoformat()
    return report


# ---------------------------------------------------------------------------
# samplers


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_rank_matrix(rng: np.random.Generator, m: int, n: int, r: int) -> np.ndarray:
    """Well-conditioned random matrix of exact rank r (singular values in
    [0.3, 1])."""
    if r == 0:
        return np.zeros((m, n))
    u = random_orthogonal(rng, m)[:, :r]
    v = random_orthogonal(rng, n)[:, :r]
    s = rng.uniform(0.3, 1.0, size=r)
    return (u * s) @ v.T


def random_subspace(rng: np.random.Generator, n: int, k: int) -> Subspace:
    return Subspace(random_orthogonal(rng, n)[:, :k])


def random_complement(rng: np.random.Generator, sub: Subspace) -> Subspace:
    """A random transversal complement: the orthogonal one tilted by a
    bounded graph map over it."""
    ortho = sub.orthogonal_complement()
    if sub.dim == 0 or ortho.dim == 0:
        return ortho
    shear = rng.uniform(-1.0, 1.0, size=(sub.dim, ortho.dim))
    return Subspace(orth_basis(ortho.basis + sub.basis @ shear))


def random_gi(rng: np.random.Generator, a: np.ndarray, cfg: Numerics = DEFAULTS) -> GenInverse:
    r_plus = random_complement(rng, kernel_of(a, cfg.rank_tol))
    n_plus = random_complement(rng, range_of(a, cfg.rank_tol))
    return gi_from_complements(a, r_plus, n_plus, cfg)


def sample_inside(rng: np.random.Generator, a: np.ndarray, ainv: GenInverse, fraction: float = 0.3) -> np.ndarray:
    """Perturbation in the ball that provably keeps the rank (hence stays
    transversal): two-sided multiplication by near-identity factors.  Raises
    BallError if 60 halvings do not bring it within ``fraction`` of the ball."""
    return _near_identity_sample(rng, a, ainv, fraction, 0.2)


def sample_outside(rng: np.random.Generator, a: np.ndarray, ainv: GenInverse) -> np.ndarray | None:
    """Perturbation in the ball that bumps the rank: a rank-one term from the
    kernel into the complement of the range, at 0.3 of the ball radius.  None
    when the rank is full."""
    ker = kernel_of(a)
    nplus = ainv.kernel_complement
    if ker.dim == 0 or nplus.dim == 0:
        return None
    u = nplus.basis @ unit(rng.standard_normal(nplus.dim))
    v = ker.basis @ unit(rng.standard_normal(ker.dim))
    radius = ainv.ball_radius
    delta = 0.3 * (radius if math.isfinite(radius) else 1.0)
    return a + delta * np.outer(u, v)


def _trial_operator(rng: np.random.Generator, trial: int, cfg: Numerics):
    """Shared trial layout for the equivalence suites: random shape, rank,
    inverse flavor, and a perturbation alternating inside/outside the
    transversal configuration."""
    m = int(rng.integers(2, 7))
    n = int(rng.integers(2, 7))
    r = int(rng.integers(0, min(m, n) + 1))
    a = random_rank_matrix(rng, m, n, r)
    ainv = moore_penrose(a) if trial % 2 == 0 else random_gi(rng, a, cfg)
    want_outside = trial % 4 >= 2
    t = sample_outside(rng, a, ainv) if want_outside else None
    if t is None:
        t = sample_inside(rng, a, ainv)
        expected = True
    else:
        expected = False
    return a, ainv, t, expected


# ---------------------------------------------------------------------------
# suites


def run_thm1_1(trials: int, seed: int, cfg: Numerics) -> VerificationReport:
    report = VerificationReport("thm1_1", seed, trials, cfg.to_dict())
    decisive_bar = 10.0 * cfg.tol_num
    min_margin = math.inf
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        a, ainv, t, expected = _trial_operator(rng, trial, cfg)
        rep = seven_conditions(a, ainv, t, cfg)
        decisive = rep.decisive(decisive_bar)
        ok = (not decisive) or (rep.agree and rep.all_true == expected)
        if decisive:
            min_margin = min(min_margin, min(abs(v) for v in rep.margins.values()))
        report.outcomes.append(
            {
                "trial": trial,
                "pass": bool(ok),
                "decisive": bool(decisive),
                "expected": expected,
                "margin": float(min(abs(v) for v in rep.margins.values())),
            }
        )
    report.summary = {
        "indecisive": sum(1 for o in report.outcomes if not o["decisive"]),
        "min_decisive_margin": None if math.isinf(min_margin) else min_margin,
    }
    return _finish(report)


def run_thm1_2(trials: int, seed: int, cfg: Numerics) -> VerificationReport:
    report = VerificationReport("thm1_2", seed, trials, cfg.to_dict())
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        a, ainv, t, expected = _trial_operator(rng, trial, cfg)
        preserved = rank_class_preserved(a, ainv, t, cfg)
        cond_i = seven_conditions(a, ainv, t, cfg).holds["i"]
        ok = preserved == expected == cond_i
        report.outcomes.append({"trial": trial, "pass": bool(ok), "expected": expected})
    return _finish(report)


def _monotone_within(values: list[float]) -> bool:
    return all(b <= 1.1 * a for a, b in zip(values, values[1:]))


def run_thm1_4(samples: int, seed: int, cfg: Numerics) -> VerificationReport:
    report = VerificationReport("thm1_4", seed, samples, cfg.to_dict())
    radii = [0.2 / 2**i for i in range(5)]

    for name in ("sphere_2d", "sphere_3d"):
        f, x0 = builtin_map(name)
        gi0 = moore_penrose(f.jacobian(x0, cfg))
        probe = locally_fine_probe(lambda p: f.jacobian(p, cfg), x0, gi0, radii, samples, seed, cfg)
        devs = [o.max_deviation for o in probe.outcomes]
        ok = probe.all_pass and all(d is not None for d in devs) and _monotone_within(devs)
        report.outcomes.append(
            {"check": f"{name}_continuity", "pass": bool(ok), "deviations": devs}
        )
        grp = generalized_regular_probe(f, x0, radii, samples, seed, cfg)
        mods = grp.alpha_modulus or []
        ok = grp.all_pass and all(m is not None for m in mods) and _monotone_within(mods)
        report.outcomes.append(
            {"check": f"{name}_alpha_modulus", "pass": bool(ok), "modulus": mods}
        )

    jump = rank_jump_family()
    t0 = jump(np.zeros(2))
    probe = locally_fine_probe(jump, np.zeros(2), moore_penrose(t0), radii, samples, seed, cfg)
    ok = all(len(o.failures) == samples for o in probe.outcomes)
    report.outcomes.append({"check": "rank_jump_fails_everywhere", "pass": bool(ok)})
    return _finish(report)


def run_thm1_5(trials: int, seed: int, cfg: Numerics) -> VerificationReport:
    report = VerificationReport("thm1_5", seed, trials, cfg.to_dict())
    worst_alpha = 0.0
    worst_graph = 0.0
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(0, n + 1))
        m0 = random_subspace(rng, n, k)
        estar = random_complement(rng, m0)
        alpha = CoordinateOperator(rng.uniform(-3.0, 3.0, size=(estar.dim, m0.dim)))
        mx = graph_subspace(m0, estar, alpha)

        recovered = coordinate_operator(m0, estar, mx, cfg)
        gap_alpha = float(np.max(np.abs(recovered.alpha - alpha.alpha), initial=0.0))
        gap_graph = subspace_distance(graph_subspace(m0, estar, recovered), mx)
        worst_alpha = max(worst_alpha, gap_alpha)
        worst_graph = max(worst_graph, gap_graph)
        ok = gap_alpha <= 1e-8 and gap_graph <= 1e-8

        unique_ok = True
        if k > 0 and estar.dim > 0:
            bump = np.zeros_like(alpha.alpha)
            bump[0, 0] = 1e-6  # well above the decisive threshold
            perturbed = graph_subspace(m0, estar, CoordinateOperator(alpha.alpha + bump))
            unique_ok = subspace_distance(perturbed, mx) > cfg.tol_num
        report.outcomes.append(
            {"trial": trial, "pass": bool(ok and unique_ok), "alpha_gap": gap_alpha, "graph_gap": gap_graph}
        )
    report.summary = {
        "max_alpha_gap": worst_alpha,
        "max_graph_gap": worst_graph,
    }
    return _finish(report)


def run_frobenius(trials: int, seed: int, cfg: Numerics, step: float = 1e-3) -> VerificationReport:
    """Integrate the builtin families and compare against closed forms.

    ``trials`` is accepted for interface uniformity; the checks are fixed.
    """
    del trials, seed
    report = VerificationReport("frobenius", 0, 1, cfg.to_dict())

    def check(name: str, ok: bool, value: float | None):
        report.outcomes.append({"check": name, "pass": bool(ok), "value": value})

    # circle
    f, x0 = builtin_map("sphere_2d")
    fam = kernel_family(f, x0, cfg)
    patch = integrate(fam, 0.9, step, cfg=cfg)
    amb = patch.reconstruct()
    err = float(np.max(np.abs(amb[..., 1] - np.sqrt(1.0 - amb[..., 0] ** 2))))
    check("circle_closed_form", err <= 1e-6, err)
    check("circle_initial", patch.diagnostics.initial_residual <= cfg.tol_int,
          patch.diagnostics.initial_residual)
    check("circle_level_set", patch.diagnostics.level_set_residual <= 1e-6,
          patch.diagnostics.level_set_residual)
    spacing = max(patch.diagnostics.spacing)
    bound = cfg.ode_residual_factor * spacing**2
    check("circle_ode_residual", patch.diagnostics.ode_residual_scaled <= bound,
          patch.diagnostics.ode_residual_scaled)
    tres = tangency_check(patch, fam, cfg)
    check("circle_tangency", tres <= 1e-6, tres)
    gi0 = moore_penrose(f.jacobian(x0, cfg))
    gap = float(np.nanmax(np.abs(explicit_patch(f, gi0, patch, x0=x0, cfg=cfg) - patch.psi)))
    check("circle_explicit_agreement", gap <= 1e-6, gap)

    # sphere (coarser grid here; the acceptance tests drive the full one)
    f, x0 = builtin_map("sphere_3d")
    fam = kernel_family(f, x0, cfg)
    patch = integrate(fam, 0.5, step, grid_points=21, cfg=cfg)
    amb = patch.reconstruct()
    err = float(np.max(np.abs(amb[..., 2] - np.sqrt(1.0 - amb[..., 0] ** 2 - amb[..., 1] ** 2))))
    check("sphere_closed_form", err <= 1e-5, err)
    check("sphere_path_independence", patch.diagnostics.path_residual <= 1e-6,
          patch.diagnostics.path_residual)
    check("sphere_level_set", patch.diagnostics.level_set_residual <= 1e-6,
          patch.diagnostics.level_set_residual)
    tres = tangency_check(patch, fam, cfg)
    # Tangency is measured by fourth-order differencing, so its defect scales
    # with spacing^4; the fine-grid bound of 1e-5 belongs to the 51-node grid.
    tangency_bound = 100.0 * max(patch.diagnostics.spacing) ** 4
    check("sphere_tangency", tres <= tangency_bound, tres)
    gi0 = moore_penrose(f.jacobian(x0, cfg))
    gap = float(np.nanmax(np.abs(explicit_patch(f, gi0, patch, x0=x0, cfg=cfg) - patch.psi)))
    check("sphere_explicit_agreement", gap <= 1e-6, gap)

    # rank-one 2x2 slice: the patch must stay on the determinant-zero set
    fam = builtin_family("sec4_2x2", cfg)
    patch = integrate(fam, 0.2, 5e-3, grid_points=5, cfg=cfg)
    amb = patch.reconstruct().reshape(-1, 4)
    mask = patch.filled.ravel()
    dets = np.abs(amb[mask, 0] * amb[mask, 3] - amb[mask, 1] * amb[mask, 2])
    err = float(np.max(dets))
    check("rank_one_slice_filled", not patch.diagnostics.breached, patch.diagnostics.unfilled)
    check("rank_one_slice_determinant", err <= 1e-6, err)
    check("rank_one_slice_path", patch.diagnostics.path_residual <= 1e-6,
          patch.diagnostics.path_residual)
    return _finish(report)


def run_section4(trials: int, seed: int, cfg: Numerics) -> VerificationReport:
    report = VerificationReport("section4", seed, trials, cfg.to_dict())

    def check(name: str, ok: bool, value=None):
        report.outcomes.append({"check": name, "pass": bool(ok), "value": value})

    ctx = sec4_context(cfg)
    check("tangent_slice_dim_3", ctx.m0.dim == 3, ctx.m0.dim)
    free_pattern = all(abs(col[3]) <= cfg.tol_num for col in ctx.m0.basis.T)
    check("tangent_slice_kills_corner", free_pattern)

    fam = operator_family(ctx, rank_tol=1e-8, cfg=cfg)
    mp = ctx.ainv
    for eps in (0.5, -0.5, 0.1, -0.1, 0.01, -0.01):
        a_eps = np.diag([1.0, eps])
        check(f"cofinal_false_eps_{eps}", not cofinal_member(fam, vec(a_eps), cfg))
        rep = seven_conditions(ctx.a, mp, a_eps, cfg)
        check(f"seven_all_false_eps_{eps}", rep.all_false)

    # identities on random operators in the ball
    worst_decomp = 0.0
    worst_444 = 0.0
    worst_idem = 0.0
    for trial in range(max(10, trials // 5)):
        rng = trial_rng(seed, trial, 1)
        t = sample_inside(rng, ctx.a, mp)
        parts = (
            ctx.p_ra @ t,
            ctx.p_na_plus @ t @ ctx.p_ra_plus,
            ctx.p_na_plus @ t @ ctx.p_na,
        )
        worst_decomp = max(worst_decomp, op_norm(parts[0] + parts[1] + parts[2] - t))
        worst_decomp = max(worst_decomp, membership_residual(ctx, parts[0]))
        worst_decomp = max(worst_decomp, membership_residual(ctx, parts[1]))
        proj = ctx.estar.basis @ (ctx.estar.basis.T @ vec(parts[2]))
        worst_decomp = max(worst_decomp, float(np.linalg.norm(vec(parts[2]) - proj)))

        c = c_op(ctx.a, mp, t)
        worst_444 = max(worst_444, op_norm(np.linalg.solve(c, t @ ctx.p_ra_plus) - ctx.a))
        worst_444 = max(worst_444, op_norm(np.linalg.solve(c, ctx.p_na_plus) - ctx.p_na_plus))

        x = sample_fixed_rank_near(ctx, rng)
        gi_x = perturbed_gi(ctx.a, mp, x, cfg)
        p_range = x @ gi_x.inverse
        p_co = gi_x.inverse @ x
        m, n = ctx.m, ctx.n
        big = np.kron(p_range, np.eye(n)) + np.kron(np.eye(m) - p_range, p_co.T)
        worst_idem = max(worst_idem, op_norm(big @ big - big))

    check("three_part_decomposition", worst_decomp <= cfg.tol_num, worst_decomp)
    check("ball_identities", worst_444 <= cfg.tol_num, worst_444)
    check("slice_projector_idempotent", worst_idem <= cfg.tol_num, worst_idem)

    # charts across shapes
    for (m, n, k) in ((2, 2, 1), (3, 3, 1), (4, 5, 2)):
        rng = trial_rng(seed, m, n, k)
        ctx_k = operator_context(random_rank_matrix(rng, m, n, k), cfg=cfg)
        rep = fixed_rank_chart_check(ctx_k, samples=max(10, trials // 2), seed=seed, cfg=cfg)
        ok = (
            rep.round_trip_max <= 1e-10
            and rep.membership_failures == 0
            and rep.rank_failures == 0
        )
        check(f"chart_{m}x{n}_rank{k}", ok, rep.round_trip_max)
        x = sample_fixed_rank_near(ctx_k, rng)
        tan = tangency_fixed_rank(ctx_k, x, curves=rep.m0_dim + 6, seed=seed, cfg=cfg)
        ok = tan.max_residual <= 1e-6 and tan.tangent_span_dim == tan.expected_dim
        check(f"tangency_{m}x{n}_rank{k}", ok, tan.max_residual)

    # closed-form coordinate operator against the generic one
    worst_dual = 0.0
    worst_fd = 0.0
    for (m, n, k) in ((2, 2, 1), (3, 3, 2)):
        rng = trial_rng(seed, m, n, k, 7)
        ctx_k = operator_context(random_rank_matrix(rng, m, n, k), cfg=cfg)
        fam_k = operator_family(ctx_k, rank_tol=1e-8, cfg=cfg)
        for trial in range(max(5, trials // 10)):
            rng = trial_rng(seed, m, n, k, trial, 11)
            x = sample_fixed_rank_near(ctx_k, rng)
            coeffs = unit(rng.standard_normal(ctx_k.m0.dim))
            dx = unvec(ctx_k.m0.basis @ coeffs, m, n)
            value = alpha_operator_family(ctx_k, x, dx, cfg)

            generic = coordinate_operator(ctx_k.m0, ctx_k.estar, fam_k.eval(vec(x)), cfg)
            via_generic = ctx_k.estar.basis @ (generic.alpha @ (ctx_k.m0.basis.T @ vec(dx)))
            worst_dual = max(worst_dual, float(np.max(np.abs(vec(value) - via_generic))))

            h = 1e-6 / (1.0 + op_norm(dx))
            fd = (chart_d(ctx_k, x + h * dx, cfg) - chart_d(ctx_k, x - h * dx, cfg)) / (2.0 * h)
            via_fd = ctx_k.p_na_plus @ (-fd) @ ctx_k.p_na
            worst_fd = max(worst_fd, float(np.max(np.abs(value - via_fd))))
    check("alpha_closed_form_vs_generic", worst_dual <= 1e-7, worst_dual)
    check("alpha_closed_form_vs_chart_derivative", worst_fd <= 1e-5, worst_fd)
    return _finish(report)


# name -> (runner taking (trials, seed, cfg, step), default trial count)
_SUITES = {
    "thm1_1": (lambda n, seed, cfg, step: run_thm1_1(n, seed, cfg), 500),
    "thm1_2": (lambda n, seed, cfg, step: run_thm1_2(n, seed, cfg), 200),
    "thm1_4": (lambda n, seed, cfg, step: run_thm1_4(min(n, 32), seed, cfg), 8),
    "thm1_5": (lambda n, seed, cfg, step: run_thm1_5(n, seed, cfg), 200),
    "frobenius": (lambda n, seed, cfg, step: run_frobenius(n, seed, cfg, 1e-3 if step is None else step), 1),
    "section4": (lambda n, seed, cfg, step: run_section4(n, seed, cfg), 50),
}

SUITE_NAMES = (*_SUITES, "all")


def run_all(trials: int | None, seed: int, cfg: Numerics, step: float | None = None) -> VerificationReport:
    subs = [run_suite(name, trials, seed, cfg, step) for name in _SUITES]
    report = VerificationReport(
        "all",
        seed,
        trials or 0,
        cfg.to_dict(),
        outcomes=[{"suite": r.suite, "failures": r.failures, "pass": r.passed} for r in subs],
        sub_reports=subs,
    )
    report.summary = {"failures": sum(r.failures for r in subs)}
    return _finish(report)


def run_suite(
    name: str,
    trials: int | None = None,
    seed: int = 0,
    cfg: Numerics = DEFAULTS,
    step: float | None = None,
) -> VerificationReport:
    if name not in SUITE_NAMES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if name == "all":
        return run_all(trials, seed, cfg, step)
    runner, default_trials = _SUITES[name]
    return runner(default_trials if trials is None else trials, seed, cfg, step)
