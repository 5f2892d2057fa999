"""The benchmark's run loop, speed calibration and metrics.

Imported by ``run.py`` after the thread pools are pinned and the program is
found, because it imports numpy and the workloads.
"""

import json
import platform
import resource
import statistics
import time

import numpy as np

import tracer
import workloads

SETUP_BATCH_S = 0.01  # a set-up repeats at least this long
SETUP_SHARE = 0.25  # a pass sets up afresh while set-ups took at most this share of the phase

# The VM this benchmark was tuned on switches between speed modes up to 2x
# apart that last from seconds to minutes, so raw times of identical passes
# spread by more than any usable bound.  Each pass is therefore bracketed by
# a calibration kernel of the benchmark's own, and its times are rescaled to
# the speed at which that kernel takes CAL_REF_S.  The kernel mimics the
# program's hot loop (RK4 steps on a field taken from 1x2 SVDs); a pure
# Python kernel does not slow down with the modes, and a 3x3 SVD kernel
# tracked them less well.
CAL_REF_S = 0.04
CAL_STEPS = 500


def _cal_field(p: np.ndarray) -> np.ndarray:
    t = np.linalg.svd(p.reshape(1, -1))[2][1]
    return t / np.linalg.norm(t)


END_TO_END = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

PER_LAYER = {
    "frobenius.integrate_s": "s",
    "frobenius.alpha_us": "us",
    "frobenius.self_s": "s",
    "frobenius.tangency_s": "s",
    "frobenius.explicit_s": "s",
    "frobenius.nodes_filled": "count",
    "frobenius.unfilled": "count",
    "families.eval_calls": "count",
    "families.eval_s": "s",
    "families.grp_alpha_us": "us",
    "linalg.kernel_of_us": "us",
    "geninv.gi_s": "s",
    "geninv.seven_conditions_s": "s",
    "geninv.rank_class_s": "s",
    "geninv.perturbed_gi_s": "s",
    "geninv.wrong_verdicts": "count",
    "geninv.indecisive_frac": "fraction",
    "opmanifold.context_s": "s",
    "opmanifold.chart_check_s": "s",
    "opmanifold.tangency_s": "s",
    "opmanifold.mx_basis_s": "s",
    "opmanifold.chart_d_us": "us",
    "opmanifold.chart_d_star_us": "us",
    "opmanifold.kron_bytes": "B_computed",
    "matio.dump_s": "s",
    "input.calls": "count",
    "self.frobenius_s": "s",
    "self.families_s": "s",
    "self.input_s": "s",
    "self.geninv_s": "s",
    "self.opmanifold_s": "s",
    "self.matio_s": "s",
    "self.uncovered_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

LAYERS = ("frobenius", "families", "input", "geninv", "opmanifold", "matio")

# program errors a job may raise; they make the job fail, not the run
JOB_ERRORS = (workloads.ToolkitError, ValueError, ArithmeticError)  # LinAlgError is a ValueError


def calibrate() -> float:
    """Seconds taken by a fixed kernel that never calls the program."""
    start = time.perf_counter()
    x, h = np.array([0.0, 1.0]), 1e-3
    for _ in range(CAL_STEPS):
        k1 = _cal_field(x)
        k2 = _cal_field(x + 0.5 * h * k1)
        k3 = _cal_field(x + 0.5 * h * k2)
        k4 = _cal_field(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return time.perf_counter() - start


def machine_info(nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


class Phase:
    """Per-pass scale factors, set-up times, pass walls, job latencies and
    output fingerprints of one phase of a run.  Times are raw seconds; a
    pass's ``scales`` entry converts them to reference seconds."""

    def __init__(self, n_jobs: int, reference: list | None):
        self.scales: list[float] = []
        self.setup_times: list[tuple[float, int]] = []  # (seconds, pass)
        self.walls: list[float] = []
        self.latencies: list[list[float]] = []  # per pass, per job
        self.first_outputs: list | None = None
        self.first_state = None
        self.reference = reference  # fingerprints every pass must match
        self.mismatches = 0

    def scaled_setups(self) -> list[float]:
        return [t * self.scales[p] for t, p in self.setup_times]

    def scaled_walls(self) -> list[float]:
        return [w * s for w, s in zip(self.walls, self.scales)]

    def scaled_latencies(self) -> list[float]:
        return [t * s for lat, s in zip(self.latencies, self.scales) for t in lat]


def set_up(wl, tr, phase: Phase):
    """Set the workload up repeatedly for at least SETUP_BATCH_S; return the
    last state."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        state = wl.setup(tr)
        phase.setup_times.append((time.perf_counter() - t0, len(phase.walls)))
        if time.perf_counter() - start >= SETUP_BATCH_S:
            return state


def run_phase(wl, jobs, tr, budget: float, reference: list | None, state=None) -> Phase:
    """Repeat passes over the job list until the next pass would end after
    ``budget`` seconds (at least one pass).  Without a ``state``, a pass
    starts with a fresh set-up while set-ups have taken at most SETUP_SHARE
    of the phase, so that cheap set-ups are sampled in every pass and costly
    ones in every few.  Outputs are compared with the fingerprints in
    ``reference``, or become the reference when it is None."""
    phase = Phase(len(jobs), reference)
    fresh, pass_state = state is None, state
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        cal_before = calibrate()
        if fresh and sum(t for t, _ in phase.setup_times) <= SETUP_SHARE * (pass_start - start):
            pass_state = set_up(wl, tr, phase)
        outputs, latencies = [], []
        for job in jobs:
            t0 = time.perf_counter()
            try:
                out = wl.run_job(pass_state, job, tr)
            except JOB_ERRORS as exc:
                out = workloads.JobError(type(exc).__name__, str(exc))
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        phase.scales.append(CAL_REF_S / (0.5 * (cal_before + calibrate())))
        phase.walls.append(sum(latencies))
        phase.latencies.append(latencies)
        digests = [wl.digest(o) for o in outputs]
        if phase.first_outputs is None:
            phase.first_outputs, phase.first_state = outputs, pass_state
            phase.reference = phase.reference or digests
        if digests != phase.reference:
            phase.mismatches += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > budget:
            return phase


def layer_metrics(tr, counts: dict, probes: dict, traced: Phase, untraced: Phase) -> dict:
    """Per-layer metrics of the traced phase, per pass, in reference seconds
    (the phase's median scale)."""
    n_passes = len(traced.walls)
    scale = statistics.median(traced.scales)

    def per_pass(name):
        return tr.get(name).total_s * scale / n_passes

    integrate = tr.get("frobenius.integrate")
    evals_in_integrate = tr.inside("frobenius.integrate", "families.eval")
    layer_self = tr.layer_self_s()
    traced_wall = statistics.fmean(traced.walls) * scale
    m = {
        "frobenius.integrate_s": per_pass("frobenius.integrate"),
        "frobenius.alpha_us": (
            integrate.total_s * scale / evals_in_integrate.calls * 1e6 if evals_in_integrate.calls else 0.0
        ),
        "frobenius.self_s": (integrate.total_s - evals_in_integrate.total_s) * scale / n_passes,
        "frobenius.tangency_s": per_pass("frobenius.tangency"),
        "frobenius.explicit_s": per_pass("frobenius.explicit"),
        "frobenius.nodes_filled": counts.get("nodes_filled", 0),
        "frobenius.unfilled": counts.get("unfilled", 0),
        "families.eval_calls": tr.get("families.eval").calls // n_passes,
        "families.eval_s": per_pass("families.eval"),
        "families.grp_alpha_us": probes.get("families.grp_alpha_us", 0.0),
        "linalg.kernel_of_us": probes.get("linalg.kernel_of_us", 0.0),
        "geninv.gi_s": per_pass("geninv.gi"),
        "geninv.seven_conditions_s": per_pass("geninv.seven_conditions"),
        "geninv.rank_class_s": per_pass("geninv.rank_class"),
        "geninv.perturbed_gi_s": per_pass("geninv.perturbed_gi"),
        "geninv.wrong_verdicts": counts.get("wrong_verdicts", 0),
        "geninv.indecisive_frac": counts.get("indecisive", 0) / counts["jobs"],
        "opmanifold.context_s": probes.get("opmanifold.context_s", 0.0),
        "opmanifold.chart_check_s": per_pass("opmanifold.chart_check"),
        "opmanifold.tangency_s": per_pass("opmanifold.tangency"),
        "opmanifold.mx_basis_s": probes.get("opmanifold.mx_basis_s", 0.0),
        "opmanifold.chart_d_us": probes.get("opmanifold.chart_d_us", 0.0),
        "opmanifold.chart_d_star_us": probes.get("opmanifold.chart_d_star_us", 0.0),
        "opmanifold.kron_bytes": probes.get("opmanifold.kron_bytes", 0),
        "matio.dump_s": per_pass("matio.dump"),
        "input.calls": (tr.get("input.func").calls + tr.get("input.jac").calls) // n_passes,
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = layer_self.get(layer, 0.0) * scale / n_passes
    m["self.uncovered_s"] = traced_wall - sum(layer_self.values()) * scale / n_passes
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = statistics.fmean(untraced.walls) * statistics.median(untraced.scales)
    m["trace.overhead_s"] = traced_wall - m["trace.untraced_wall_s"]
    return m


def scaled_probes(wl, state, outputs) -> dict:
    """The workload's per-call probes, with times rescaled like the passes."""
    cal = calibrate()
    raw = wl.probes(state, outputs)
    scale = CAL_REF_S / (0.5 * (cal + calibrate()))
    return {k: v * scale if PER_LAYER[k] in ("s", "us") else v for k, v in raw.items()}


def run(args, nproc: int) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny")
    off = tracer.Tracer(enabled=False)
    jobs = wl.jobs()

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_phase(wl, jobs, off, budget, None)
    state = untraced.first_state

    failures: dict[str, int] = {}
    counts = {"jobs": len(jobs)}
    failed_jobs = 0
    for job, out in zip(jobs, untraced.first_outputs):
        failed, job_counts = wl.check(state, job, out)
        failed_jobs += bool(failed)
        for name in failed:
            failures[name] = failures.get(name, 0) + 1
        for key, value in job_counts.items():
            counts[key] = counts.get(key, 0) + value

    phases = [untraced]
    setup_s = statistics.median(untraced.scaled_setups())
    if args.trace:
        tr = tracer.Tracer(enabled=True)
        traced_state = wl.instrument(state, tr)
        tr.reset()
        traced = run_phase(wl, jobs, tr, args.seconds / 2, untraced.reference, state=traced_state)
        phases.append(traced)
        probes = scaled_probes(wl, state, untraced.first_outputs)
        if wl.setup_metric:
            probes[wl.setup_metric] = setup_s
        metrics = layer_metrics(tr, counts, probes, traced, untraced)
        units = PER_LAYER
    else:
        latencies = untraced.scaled_latencies()
        metrics = {
            "wall_s": statistics.median(untraced.scaled_walls()),
            "job_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "job_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed_jobs / len(jobs),
        }
        units = END_TO_END

    mismatches = sum(p.mismatches for p in phases)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs_per_pass": len(jobs),
        "passes": [len(p.walls) for p in phases],
        "latency_samples": len(jobs) * len(untraced.walls),
        "setup_samples": len(untraced.setup_times),
        "raw_pass_walls_s": [round(w, 4) for p in phases for w in p.walls],
        "speed_scales": [round(s, 3) for p in phases for s in p.scales],
        "failed_frac": failed_jobs / len(jobs),
        "failed_checks": failures,
        "pass_mismatches": mismatches,
        "machine": machine_info(nproc),
    }
    print("summary " + json.dumps(summary))
    for name, value in metrics.items():
        print(f"{name:28s} {value:>16.6g} {units[name]}")
    print(f"{'failed_frac':28s} {summary['failed_frac']:>16.6g} fraction")
    # A run's operations are the seed's distinct jobs: later passes only
    # re-time them, and ``correct`` already requires that they reproduce the
    # first pass bit for bit.  So ``attempted`` and ``failed`` depend on the
    # seed alone, not on how many passes fit in the time.
    result = {
        "correct": mismatches == 0,
        "attempted": len(jobs),
        "failed": failed_jobs,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
