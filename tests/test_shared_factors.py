"""One factorisation per operator: an inverse owns its arrays and its
forward SVD, one record of the facts of (A+, T, cfg) serves
``seven_conditions``, ``rank_class_preserved``, ``perturbed_gi`` and the
operator-manifold checks, every other module reads the factors those objects
hold, and a patch's coordinates come from the patch."""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique import (
    BallError,
    GenInverse,
    Subspace,
    ToolkitError,
    alpha_operator_family,
    explicit_psi,
    gi_from_complements,
    grp_alpha,
    integrate,
    kernel_family,
    moore_penrose,
    oblique_projector,
    operator_context,
    operator_family,
    perturbed_gi,
    range_of,
    rank_class_preserved,
    seven_conditions,
    tangency_check,
    tangency_fixed_rank,
)
from oblique.builtins import builtin_map
from oblique.cli import main
from oblique.config import DEFAULTS
from oblique.errors import ValidationError
from oblique.frobenius import _AlphaEvaluator, explicit_patch
from oblique.geninv import trial_rng
from oblique.linalg import kernel_of
from oblique.matio import matrix_to_dict
from oblique.opmanifold import sample_fixed_rank_near, unvec
from oblique.suites import random_complement, random_gi, random_rank_matrix, sample_outside


def _near(rng, a, eps=0.01):
    """(I + eps G1) A (I + eps G2): keeps the rank of A, and for the
    well-conditioned A of ``random_rank_matrix`` stays inside the ball."""
    m, n = a.shape
    return (np.eye(m) + eps * rng.standard_normal((m, m))) @ a @ (np.eye(n) + eps * rng.standard_normal((n, n)))


# ---------------------------------------------------------------------------
# an inverse owns its arrays


def test_inverse_keeps_read_only_copies_and_refuses_an_edited_base():
    a = np.diag([1.0, 0.5, 0.0])
    ainv = moore_penrose(a)
    t = a + 0.05 * np.outer([1.0, 1.0, 0.0], [1.0, 1.0, 1.0])
    assert ainv.forward is not a and not ainv.forward.flags.writeable and not ainv.inverse.flags.writeable
    before = seven_conditions(a, ainv, t)
    a[2, 2] = 0.7  # the caller edits its own array: no longer the operator of ainv
    for check in (seven_conditions, rank_class_preserved, perturbed_gi):
        with pytest.raises(ValidationError, match="different operator"):
            check(a, ainv, t)
    a[2, 2] = 0.0
    assert seven_conditions(a, ainv, t).margins == before.margins
    with pytest.raises(ValueError, match="read-only"):
        ainv.forward[0, 0] = 2.0


def test_inverse_built_by_hand_copies_its_arrays():
    a = np.diag([2.0, 0.0])
    inv = np.diag([0.5, 0.0])
    gi = GenInverse(a, inv, range_of(inv), kernel_of(inv))
    inv[0, 0] = 7.0
    a[1, 1] = 3.0
    assert gi.inverse.tolist() == [[0.5, 0.0], [0.0, 0.0]]
    assert gi.forward.tolist() == [[2.0, 0.0], [0.0, 0.0]]
    assert gi.ball_radius == 2.0


def test_condition_report_candidate_is_the_callers_to_edit():
    a = random_rank_matrix(trial_rng(16, 1), 4, 3, 2)
    ainv = moore_penrose(a)
    t = _near(trial_rng(16, 2), a)
    report = seven_conditions(a, ainv, t)
    want = perturbed_gi(a, moore_penrose(a), t).inverse.tobytes()
    report.candidate[:] = 0.0
    assert perturbed_gi(a, ainv, t).inverse.tobytes() == want


# ---------------------------------------------------------------------------
# gi_from_complements certifies each splitting once


@pytest.mark.parametrize("m, n, r", [(4, 5, 2), (3, 5, 3), (5, 3, 3), (4, 4, 0)])
def test_gi_from_complements_matches_the_checked_projector(m, n, r):
    # (3, 5, 3): N(A+) = {0}, where the projector onto R(A) is exactly I;
    # (4, 4, 0): R(A+) = {0}
    for seed in range(5):
        rng = trial_rng(seed, m, n, r)
        a = random_rank_matrix(rng, m, n, r)
        r_plus = random_complement(rng, kernel_of(a))
        n_plus = random_complement(rng, range_of(a))
        gi = gi_from_complements(a, r_plus, n_plus)
        if r == 0:
            assert gi.inverse.tobytes() == np.zeros((n, m)).tobytes()
            continue
        onto_range = oblique_projector(range_of(a), n_plus).matrix
        if n_plus.dim == 0:
            assert onto_range.tobytes() == np.eye(m).tobytes()
        want = r_plus.basis @ (np.linalg.pinv(a @ r_plus.basis) @ onto_range)
        assert gi.inverse.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the factorisations of one trial

# np.linalg.svd calls of the same trials before the facts were shared
PARENT_SVDS = {"moore_penrose": 25, "oblique": 29}


def _trial(kind):
    a = random_rank_matrix(trial_rng(16, 3), 4, 5, 2)
    t = _near(trial_rng(16, 4), a)
    if kind == "moore_penrose":
        return a, t, lambda: moore_penrose(a)
    rng = trial_rng(16, 5)
    r_plus = random_complement(rng, kernel_of(a))
    n_plus = random_complement(rng, range_of(a))
    return a, t, lambda: gi_from_complements(a, r_plus, n_plus)


@pytest.mark.parametrize("kind", sorted(PARENT_SVDS))
def test_a_trial_factorises_each_operator_once(monkeypatch, kind):
    a, t, inverse = _trial(kind)
    calls = {"svd": 0, "cond": 0}
    for name in calls:
        wrapped = getattr(np.linalg, name)

        def counted(*args, _name=name, _wrapped=wrapped, **kwargs):
            calls[_name] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    ainv = inverse()
    report = seven_conditions(a, ainv, t)
    assert rank_class_preserved(a, ainv, t) and report.all_true
    perturbed_gi(a, ainv, t)
    assert calls["svd"] <= PARENT_SVDS[kind] // 2
    assert calls["cond"] == 1  # C's one check, shared by seven_conditions and perturbed_gi


# ---------------------------------------------------------------------------
# the shared slot answers as a fresh inverse does

CFGS = [
    DEFAULTS,
    DEFAULTS.replace(rank_tol=1e-2),
    DEFAULTS.replace(tol_split=0.3),
    DEFAULTS.replace(cond_limit=1.05),
]
CHECKS = [seven_conditions, rank_class_preserved, perturbed_gi]


def _outcome(check, a, ainv, t, cfg):
    """Everything a call reports, as bytes where it is an array."""
    try:
        out = check(a, ainv, t, cfg)
    except ToolkitError as exc:
        return type(exc).__name__
    if check is seven_conditions:
        margins = {k: np.float64(v).tobytes() for k, v in out.margins.items()}
        return margins, out.holds, out.candidate.tobytes()
    if check is perturbed_gi:
        return out.forward.tobytes(), out.inverse.tobytes()
    return out


def _operators(seed, oblique):
    rng = trial_rng(seed, 0)
    m, n = (int(v) for v in rng.integers(2, 5, size=2))
    a = random_rank_matrix(rng, m, n, int(rng.integers(1, min(m, n) + 1)))

    def fresh():
        if not oblique:
            return moore_penrose(a)
        r_rng = trial_rng(seed, 1)
        return gi_from_complements(a, random_complement(r_rng, kernel_of(a)), random_complement(r_rng, range_of(a)))

    ainv = fresh()
    ts = [_near(trial_rng(seed, 2), a), _near(trial_rng(seed, 3), a, 0.05), a.copy()]
    outside = sample_outside(trial_rng(seed, 4), a, ainv)
    ts.append(outside if outside is not None else 3.0 * a)  # lost transversality, or out of the ball
    return a, ainv, fresh, ts


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    oblique=st.booleans(),
    steps=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, len(CFGS) - 1), st.integers(0, 3)),
        min_size=1,
        max_size=12,
    ),
)
def test_shared_slot_reports_as_a_fresh_inverse(seed, oblique, steps):
    # interleaved checks over several T and cfgs on one inverse; a step with
    # edit 3 first changes its T in place, so the slot's copy must miss
    a, ainv, fresh, ts = _operators(seed, oblique)
    for check, which, cfg, edit in steps:
        t = ts[which]
        if edit == 3:
            t[0, 0] += 0.01 * (1.0 + abs(t[0, 0]))
        got = _outcome(CHECKS[check], a, ainv, t, CFGS[cfg])
        assert got == _outcome(CHECKS[check], a, fresh(), t, CFGS[cfg])


def test_a_refused_perturbation_is_refused_again_from_the_slot():
    a = np.diag([1.0, 0.5, 0.0])
    ainv = moore_penrose(a)
    t = a + 0.05 * np.outer([1.0, 1.0, 0.0], [1.0, 1.0, 1.0])
    tight = DEFAULTS.replace(cond_limit=1.01)
    for _ in range(2):
        with pytest.raises(BallError, match="numerically singular"):
            seven_conditions(a, ainv, t, tight)
        with pytest.raises(BallError, match="numerically singular"):
            perturbed_gi(a, ainv, t, tight)
    assert rank_class_preserved(a, ainv, t, tight)
    assert perturbed_gi(a, ainv, t).inverse.shape == (3, 3)
    with pytest.raises(BallError, match="ball radius"):
        seven_conditions(a, ainv, a + 0.6 * np.eye(3))


def test_concurrent_callers_of_one_inverse_get_fresh_reports():
    # more threads than cores, switching every microsecond, each cycling
    # through the checks and the T: a record read for one T and returned for
    # another would show as a report unlike the fresh one
    a, _, fresh, ts = _operators(16, True)
    ainv = fresh()
    want = {(c, k): _outcome(check, a, fresh(), t, DEFAULTS) for c, check in enumerate(CHECKS) for k, t in enumerate(ts)}
    wrong = []

    def work(seed):
        for i in range(600):
            c, k = (seed + i) % len(CHECKS), (seed + 2 * i) % len(ts)
            if _outcome(CHECKS[c], a, ainv, ts[k], DEFAULTS) != want[c, k]:
                wrong.append((c, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


# ---------------------------------------------------------------------------
# every module reads the factors that an object already holds


def _census(monkeypatch, call):
    """The np.linalg.svd and np.linalg.cond calls that ``call()`` makes."""
    calls = {"svd": 0, "cond": 0}
    for name in calls:
        wrapped = getattr(np.linalg, name)

        def counted(*args, _name=name, _wrapped=wrapped, **kwargs):
            calls[_name] += 1
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    call()
    return calls["svd"], calls["cond"]


def _tilted_sphere_patch():
    """The sphere_3d patch around (0, 0, 1) pinned to E* = span(0.3, -0.2, 1)."""
    f, x0 = builtin_map("sphere_3d")
    estar = Subspace.span([0.3, -0.2, 1.0])
    family = kernel_family(f, x0, estar=estar)
    return f, x0, estar, family, integrate(family, 0.3, 1e-2, grid_points=7)


def _site_kernel_family(tmp_path):
    f, x0 = builtin_map("sphere_3d")
    return lambda: kernel_family(f, x0)


def _site_tangency_check(tmp_path):
    f, x0 = builtin_map("sphere_3d")
    family = kernel_family(f, x0)
    patch = integrate(family, 0.3, 1e-2, grid_points=7)
    return lambda: tangency_check(patch, family)


def _site_explicit_psi(tmp_path):
    f, x0 = builtin_map("sphere_3d")
    gi0 = moore_penrose(f.jacobian(x0))
    return lambda: explicit_psi(f, gi0, [0.1, 0.0], x0=x0)


def _site_grp_alpha(tmp_path):
    f, x0 = builtin_map("sphere_3d")
    gi0 = moore_penrose(f.jacobian(x0))
    return lambda: grp_alpha(f, gi0, x0 + np.array([0.05, 0.02, 0.0]))


def _operator_site():
    ctx = operator_context(random_rank_matrix(trial_rng(4, 0), 4, 3, 2))
    return ctx, sample_fixed_rank_near(ctx, trial_rng(4, 1))


def _site_operator_family(tmp_path):
    ctx, _ = _operator_site()
    ctx.m0, ctx.estar  # built on first access, not by the family
    return lambda: operator_family(ctx)


def _site_alpha_operator_family(tmp_path):
    ctx, x = _operator_site()
    dx = unvec(ctx.m0.basis[:, 0], ctx.m, ctx.n)
    return lambda: alpha_operator_family(ctx, x, dx)


def _site_tangency_fixed_rank(tmp_path):
    ctx, x = _operator_site()
    perturbed_gi(ctx.a, ctx.ainv, x)  # X admitted: its record holds X's SVD
    return lambda: tangency_fixed_rank(ctx, x, 4)


def _site_alpha_evaluator(tmp_path):
    f, x0 = builtin_map("sphere_3d")
    family = kernel_family(f, x0)
    return lambda: _AlphaEvaluator(family, DEFAULTS)


def _site_operator_context(tmp_path):
    a = random_rank_matrix(trial_rng(4, 0), 4, 3, 2)
    return lambda: operator_context(a).estar


def _site_random_gi(tmp_path):
    a = random_rank_matrix(trial_rng(4, 3), 4, 5, 2)
    return lambda: random_gi(trial_rng(4, 4), a)


def _site_cli_conditions(tmp_path):
    a = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    paths = {}
    for name, m in (("a", a), ("ainv", np.linalg.pinv(a)), ("t", a + 0.01)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(matrix_to_dict(m)))
    return lambda: main(["conditions", *(f"--{k}={v}" for k, v in paths.items()), "--out", str(tmp_path / "out.json")])


# site: (np.linalg.svd calls, np.linalg.cond calls), each one fewer than
# when the site factorised again what it was given; at the two complement
# sites, E*'s and R(A+)'s orthogonal complement, which the subspace keeps
CENSUS = {
    "alpha_evaluator": (_site_alpha_evaluator, 2, 0),  # was (3, 0)
    "alpha_operator_family": (_site_alpha_operator_family, 3, 1),  # was (3, 2)
    "cli_conditions": (_site_cli_conditions, 14, 1),  # was (20, 1), then (19, 1), then (17, 1)
    "explicit_psi": (_site_explicit_psi, 0, 0),  # was (1, 0)
    "grp_alpha": (_site_grp_alpha, 3, 1),  # was (4, 1)
    "kernel_family": (_site_kernel_family, 3, 0),  # was (7, 0), then (6, 0)
    "operator_context": (_site_operator_context, 6, 0),  # was (7, 0)
    "operator_family": (_site_operator_family, 0, 0),  # was (3, 0)
    "random_gi": (_site_random_gi, 9, 0),  # was (10, 0)
    "tangency_check": (_site_tangency_check, 0, 0),  # was (4, 0), then (1, 0)
    "tangency_fixed_rank": (_site_tangency_fixed_rank, 1, 0),  # was (3, 1), then (2, 1), then (2, 0)
}


@pytest.mark.parametrize("site", sorted(CENSUS))
def test_each_site_reads_the_factors_it_is_given(monkeypatch, tmp_path, site):
    setup, svds, conds = CENSUS[site]
    assert _census(monkeypatch, setup(tmp_path)) == (svds, conds)


# ---------------------------------------------------------------------------
# a patch's coordinates come from the patch


def test_tangency_check_lifts_with_the_patchs_own_bases():
    f, x0, _, tilted, patch = _tilted_sphere_patch()
    own = tangency_check(patch, tilted)
    # the same kernels pinned to the default E*: another coordinate system,
    # but the same subspaces at the same points
    assert tangency_check(patch, kernel_family(f, x0)) == own < 1e-3


def test_explicit_patch_refuses_an_inverse_in_other_coordinates():
    f, x0, estar, _, patch = _tilted_sphere_patch()
    t0 = f.jacobian(x0)
    with pytest.raises(ValidationError, match=r"not the patch's M0 and E\* bases"):
        explicit_patch(f, moore_penrose(t0), patch, x0=x0)
    own = explicit_patch(f, gi_from_complements(t0, estar, Subspace.trivial(1)), patch, x0=x0)
    assert np.nanmax(np.abs(own - patch.psi)) < 1e-8
