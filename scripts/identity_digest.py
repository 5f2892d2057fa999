#!/usr/bin/env python3
"""Fingerprint the outputs that a behaviour-preserving change must keep.

    python3 scripts/identity_digest.py

Everything is read from the checkout this script sits in: the program from
its ``src/`` and the benchmark workloads from its ``perfbench/``.  It prints

* the sha1 of ``oblique verify all --trials 50 --seed 7`` with every
  ``timestamp`` value blanked;
* for each benchmark workload at seeds 3 and 4, the sha1 of one pass's job
  digests and the pass's attempted/failed job counts, taken with the
  benchmark's own pass loop (``harness.run_phase``) and job check;
* the sha1 of the stdout of ``oblique integrate --builtin sec4_2x2`` and of
  ``oblique chart --builtin sec4_2x2``, which cover the operator-family
  patch and the chart command that no workload runs;
* the sha1 of the stdout of ``oblique integrate --builtin sphere_3d --grid
  51``, the closed-form stages with the builtin's own Jacobian;
* the sha1 of the stdout of ``oblique integrate --builtin sphere_3d --extent
  0.3 0.5 --grid 7 --step 3e-2``, an anisotropic lattice whose lines take 4
  and 6 RK4 sub-steps per hop in one batch;
* the sha1 of the stdout of ``oblique integrate --builtin sphere_3d --grid 5
  --step 2e-3``, a march whose hops take 125 RK4 sub-steps each: the first
  sub-step of a hop and the later ones;
* the sha1 of the stdout of ``oblique integrate --manifest M --extent 0.5
  --grid 21 --step 1e-2`` for a kernel manifest M of ``sphere_3d`` at
  (0, 0, 1) with the tilted complement E* = span(0.3, -0.2, 1): the closed
  form against non-orthogonal pinned bases, and a node left unfilled;
* the sha1 of the stdout of ``oblique integrate --manifest P --extent 0.5
  --step 1e-2`` for the README's polynomial circle manifest P with a
  ``rank_tol`` key: ``kernel_family`` on a polynomial map at its own rank cut;
* the sha1 of ``explicit_patch`` on the ``sphere_3d`` patch of extent 0.99,
  grid 41 and step 2e-2, which runs past the fold: the explicit graph map
  where predicted starts fail, retries run and lattice lines stop, which no
  workload reaches;
* the sha1 of ``explicit_patch`` on the patch of |x|^2 on R^4 at x0 along
  (0.1, -0.2, 0.3, 0.9), extent 0.3, step 5e-2 and grid 7, with axis 1 cut
  to 6 nodes: a three-dimensional lattice whose lines end at different hops;
* the sha1 of ``fixed_rank_chart_check`` (40 samples) and of
  ``tangency_fixed_rank`` (dim + 6 curves), each report or error, on a 12x10
  rank-4 operator scaled by 1e-170 and by 1e170: the sampler's SVD tier and
  the membership ratio's overflow fallback, which no workload reaches, and
  the span certificate on coordinates past the overflow scale (at 1e-170 a
  curve step leaves the chart region, and the error is fingerprinted);
* the sha1 of the stdout of ``oblique gi --a A --r-plus R --n-plus N``, of
  ``oblique conditions --a A --ainv AP --t T`` and of ``oblique chart --a
  A`` for the small fixed matrices of ``MATRICES``: an inverse with
  prescribed complements, the seven conditions against a given, not
  orthogonal, inverse, and ``operator_context`` on a matrix read from a file.

Run it in two checkouts and ``diff`` the outputs: equal lines mean equal
bytes.  BLAS pools are pinned to one thread, as in a benchmark run.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (3, 4)
TILTED = {"kind": "kernel", "map": "sphere_3d", "x0": [0.0, 0.0, 1.0],
          "estar": {"rows": 3, "cols": 1, "data": [0.3, -0.2, 1.0]}}
CIRCLE = {"kind": "kernel", "map": {"dom_dim": 2, "components": [[[1.0, [2, 0]], [1.0, [0, 2]]]]},
          "x0": [0.0, 1.0], "rank_tol": 1e-9}
# A_gi has rank 2 with N(A_gi) = span(2, -1, 1); R and N are transversal to
# its kernel and range.  AP is a {1,2}-inverse of A, and T keeps A's range.
MATRICES = {
    "A_gi": [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 3.0, 1.0]],
    "R": [[1.0, 0.0], [0.0, 1.0], [0.3, 0.4]],
    "N": [[0.2], [-0.1], [1.0]],
    "A": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
    "AP": [[1.0, 0.0, 0.2], [0.0, 0.5, -0.1], [0.3, 0.4, -0.02]],
    "T": [[1.01, 0.02, 0.0], [0.01, 1.98, 0.0], [0.0, 0.0, 0.0]],
}


def verify_digest() -> str:
    from oblique.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "verify.json"
        main(["verify", "all", "--trials", "50", "--seed", "7", "--out", str(out)])
        text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out.read_text())
    return hashlib.sha1(text.encode()).hexdigest()


def cli_digest(argv: list[str]) -> str:
    from oblique.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return hashlib.sha1(out.getvalue().encode()).hexdigest()


def explicit_digest(f, x0, extent: float, step: float, grid: int, cut: bool = False) -> tuple[str, int, int]:
    """``explicit_patch`` on the patch of ``f`` at ``x0``, its axis 1 less its
    last node if ``cut``: (sha1 of its values, nodes reached, nodes)."""
    import dataclasses

    import numpy as np

    from oblique import kernel_family, moore_penrose
    from oblique.frobenius import explicit_patch, integrate

    patch = integrate(kernel_family(f, x0), extent, step, grid_points=grid)
    if cut:
        axes = (patch.axes[0], patch.axes[1][:-1], *patch.axes[2:])
        patch = dataclasses.replace(patch, axes=axes, psi=patch.psi[:, :-1], filled=patch.filled[:, :-1])
    values = explicit_patch(f, moore_penrose(f.jacobian(x0)), patch, x0=x0)
    reached = int((~np.isnan(values).any(axis=-1)).sum())
    return hashlib.sha1(values.tobytes()).hexdigest(), reached, values[..., 0].size


def chart_digest(scale: float) -> tuple[str, str]:
    """The sha1s of the chart check's and the tangency check's reports, or of
    their errors, on the 12x10 rank-4 operator scaled by ``scale``."""
    from oblique import fixed_rank_chart_check, operator_context, tangency_fixed_rank
    from oblique.geninv import trial_rng
    from oblique.opmanifold import sample_fixed_rank_near
    from oblique.suites import random_rank_matrix

    ctx = operator_context(scale * random_rank_matrix(trial_rng(4, 12, 10, 4), 12, 10, 4))
    x = sample_fixed_rank_near(ctx, trial_rng(4, 999))
    digests = []
    for check in (lambda: fixed_rank_chart_check(ctx, 40, seed=4),
                  lambda: tangency_fixed_rank(ctx, x, curves=ctx.dim + 6, seed=4)):
        try:
            text = json.dumps(check().to_dict())
        except Exception as exc:  # an error is an output too
            text = f"{type(exc).__name__}: {exc}"
        digests.append(hashlib.sha1(text.encode()).hexdigest())
    return digests[0], digests[1]


def workload_digest(harness, name: str, seed: int) -> tuple[str, int, int]:
    """One untraced pass of a workload: (sha1 of its job digests, attempted, failed)."""
    wl = harness.workloads.WORKLOADS[name](seed, False)
    jobs = wl.jobs()
    phase = harness.run_phase(wl, jobs, harness.tracer.Tracer(enabled=False), 0.0, None)
    outputs = zip(jobs, phase.first_outputs)
    failed = sum(bool(wl.check(phase.first_state, job, out)[0]) for job, out in outputs)
    return hashlib.sha1("\n".join(phase.reference).encode()).hexdigest(), len(jobs), failed


def main() -> int:
    sys.path.insert(0, str(PERFBENCH))
    import run

    run.pin_threads()  # before numpy is imported
    run.import_program()
    import harness

    print(f"verify all --trials 50 --seed 7  {verify_digest()}")
    for name in harness.workloads.WORKLOADS:
        for seed in SEEDS:
            digest, attempted, failed = workload_digest(harness, name, seed)
            print(f"perfbench {name} seed {seed}  {digest}  attempted {attempted} failed {failed}")
    for argv in (["integrate", "--builtin", "sec4_2x2"], ["chart", "--builtin", "sec4_2x2"],
                 ["integrate", "--builtin", "sphere_3d", "--grid", "51"],
                 ["integrate", "--builtin", "sphere_3d", "--extent", "0.3", "0.5", "--grid", "7", "--step", "3e-2"],
                 ["integrate", "--builtin", "sphere_3d", "--grid", "5", "--step", "2e-3"]):
        print(f"{' '.join(argv)}  {cli_digest(argv)}")
    import numpy as np

    from oblique import DifferentiableMap
    from oblique.builtins import builtin_map

    digest, reached, nodes = explicit_digest(*builtin_map("sphere_3d"), 0.99, 2e-2, 41)
    print(f"explicit_patch sphere_3d --extent 0.99 --grid 41 --step 2e-2  {digest}  reached {reached} of {nodes}")
    square = DifferentiableMap(4, 1, lambda p: np.array([p @ p]), lambda p: 2.0 * p.reshape(1, -1))
    x0 = np.array([0.1, -0.2, 0.3, 0.9])
    digest, reached, nodes = explicit_digest(square, x0 / np.linalg.norm(x0), 0.3, 5e-2, 7, cut=True)
    print(f"explicit_patch |x|^2 on R^4 --extent 0.3 --grid 7 --step 5e-2, axis 1 cut to 6  {digest}  "
          f"reached {reached} of {nodes}")
    for scale in (1e-170, 1e170):
        chart, tangency = chart_digest(scale)
        print(f"fixed_rank_chart_check / tangency_fixed_rank 12x10 rank 4 scale {scale:g}  {chart}  {tangency}")
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "tilted.json"
        manifest.write_text(json.dumps(TILTED))
        argv = ["integrate", "--manifest", str(manifest), "--extent", "0.5", "--grid", "21", "--step", "1e-2"]
        print(f"integrate --manifest sphere_3d-tilted.json --extent 0.5 --grid 21 --step 1e-2  {cli_digest(argv)}")
        manifest = Path(tmp) / "circle.json"
        manifest.write_text(json.dumps(CIRCLE))
        argv = ["integrate", "--manifest", str(manifest), "--extent", "0.5", "--step", "1e-2"]
        print(f"integrate --manifest circle-rank_tol.json --extent 0.5 --step 1e-2  {cli_digest(argv)}")
        paths = {}
        for name, rows in MATRICES.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps({"rows": len(rows), "cols": len(rows[0]), "data": sum(rows, [])}))
        for argv in (["gi", "--a", "A_gi", "--r-plus", "R", "--n-plus", "N"],
                     ["conditions", "--a", "A", "--ainv", "AP", "--t", "T"], ["chart", "--a", "A"]):
            print(f"{' '.join(argv)}  {cli_digest([paths.get(arg, arg) for arg in argv])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
