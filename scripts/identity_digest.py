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
  51``, the closed-form stages with the builtin's own Jacobian.

Run it in two checkouts and ``diff`` the outputs: equal lines mean equal
bytes.  BLAS pools are pinned to one thread, as in a benchmark run.
"""

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (3, 4)


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
                 ["integrate", "--builtin", "sphere_3d", "--grid", "51"]):
        print(f"{' '.join(argv)}  {cli_digest(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
