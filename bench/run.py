"""trsqp benchmark: time fixed solver workloads end to end, or trace them by layer.

    python3 bench/run.py --workload saddle-long --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1

One invocation runs one workload in this process (``all`` runs each in a
fresh process). It repeats the workload until ``--seconds`` are used, checks
the outputs, prints a report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` alternates untraced and traced repeats
and gives the per-layer metrics. The exit code is nonzero when a check fails.
"""

import time

T0 = time.perf_counter()  # set-up probes time the imports from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# Pinned in main() before numpy loads. One versus two OpenBLAS threads made
# no consistent difference on the current kernels; the pin keeps later
# BLAS-heavy kernels comparable across machines.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
LAYERS = ("problem", "rng", "estimator", "linalg", "steps", "solver", "benchmarks", "cli")
NAMES = ("saddle-sweep", "saddle-long", "logistic-6k")
SETUP_PROBES = 5
LINE6 = "unsuccessful-line6"
ACCEPTED = ("successful-reliable", "successful-unreliable")


def setup_probe(workload: str, seed: int) -> float:
    """Import trsqp and build the workload; seconds since this process began."""
    from workloads import WORKLOADS

    WORKLOADS[workload](seed)
    return time.perf_counter() - T0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh processes, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def environment() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        return show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    src = HERE.parent / "src"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config),
        "scipy_openblas": blas(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in src.rglob("*.py")),
    }


def record_stats(solves) -> Counter:
    """Counts over the trajectory rows: outcomes, SOC retries, logged batches."""
    n = Counter()
    for s in solves:
        header, *rows = s.csv.decode().splitlines()
        col = {name: i for i, name in enumerate(header.split(","))}
        for row in rows:
            f = row.split(",")
            outcome, soc = f[col["outcome"]], f[col["soc"]] == "1"
            n["iters"] += 1
            n["line6"] += outcome == LINE6
            n["accepted"] += outcome in ACCEPTED
            n["soc"] += soc
            n["soc_accepted"] += soc and outcome in ACCEPTED
            batch = {k: int(f[col[k]]) for k in ("batch_f", "batch_g", "batch_h")}
            n["logged_samples"] += 2 * batch["batch_f"] + batch["batch_g"] + batch["batch_h"]
    return n


def repetition(workload, traced: bool, reference=None) -> dict:
    """Run the workload once; summarise its spans when traced.

    Untraced, ``reference`` slices run between iterations; ``wall_s`` is the
    repetition's time without them.
    """
    from tracing import Probe, SpanSummary, Tracer

    probe = Probe(Tracer(), None) if traced else Probe(None, reference)
    elapsed, solves = workload.repeat(probe)
    return {
        "traced": traced,
        "wall_s": elapsed - probe.reference_s,
        "reference_s": probe.reference_s,
        "slices": probe.slices,
        "solves": solves,
        "samples": dict(probe.samples),
        "spans": SpanSummary.of(probe.tracer.spans) if traced else None,
    }


def run_repeats(workload, seconds: float, trace: bool) -> list[dict]:
    """Repeat the workload until ``seconds`` are used, at least twice.

    Traced runs alternate untraced and traced repeats and end on a pair.
    """
    from tracing import Reference

    reference = Reference()
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(repetition(workload, trace and len(reps) % 2 == 1, reference))
        used = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] + r["reference_s"] for r in reps)
        if len(reps) >= 2 and len(reps) % (2 if trace else 1) == 0 and used + typical > seconds:
            return reps


def checks(workload, reps) -> list[tuple[str, bool]]:
    from workloads import trajectory_sha

    first = reps[0]["solves"]
    shas = {trajectory_sha(r["solves"]) for r in reps}
    samples = {json.dumps(r["samples"], sort_keys=True) for r in reps}
    every = [s for r in reps for s in r["solves"]]
    return [
        ("no solve raised", all(s.error is None for s in every)),
        ("0 invariant violations in every solve", all(s.violations == 0 for s in every)),
        (f"trajectories byte-identical across {len(reps)} repeats, traced or not", len(shas) == 1),
        ("samples identical across repeats", len(samples) == 1),
        *workload.check(first),
    ]


def in_reference_units(rep) -> float:
    """A repetition's time over the mean time of its reference slices."""
    return rep["wall_s"] * rep["slices"] / rep["reference_s"]


def end_to_end(reps, setup_times) -> dict:
    solves = reps[0]["solves"]
    wall = statistics.median(in_reference_units(r) for r in reps)
    iters = sum(s.iterations for s in solves)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref": (wall, "ref"),
        "iter_ref": (wall / iters, "ref"),
        "samples": (sum(reps[0]["samples"].values()), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(reps) -> dict:
    from tracing import DECOMPOSITIONS, SAMPLE_KINDS

    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    last = traced[-1]["spans"]
    stats = record_stats(traced[-1]["solves"])
    iters = stats["iters"]
    trials = iters - stats["line6"]

    def median_of(fn):
        return statistics.median(fn(r["spans"], r) for r in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (median_of(lambda s, r, layer=layer: s.layer_self(layer)), "s")
    out["problem.sampler.self_s"] = (median_of(lambda s, r: s.prefix_self("problem.sampler.")), "s")
    out["problem.sampler.calls"] = (last.prefix_calls("problem.sampler."), "count")
    for kind in SAMPLE_KINDS:
        out[f"problem.sampler.{kind}.samples"] = (traced[-1]["samples"].get(kind, 0), "count")
    out["problem.sampler.samples"] = (sum(traced[-1]["samples"].values()), "count")
    out["problem.constraint.calls"] = (last.calls["problem.constraint"], "count")
    out["rng.generators"] = (last.calls["rng.generator"] + last.calls["rng.point_generator"], "count")
    out["estimator.grad_resamples"] = (
        last.calls["estimator.estimate_gradient"] - last.calls["estimator.estimate_models"],
        "count",
    )
    out["estimator.estimate_multiplier.calls"] = (last.calls["estimator.estimate_multiplier"], "count")
    decomps = sum(last.calls[name] for name in DECOMPOSITIONS)
    out["linalg.decomps_per_iter"] = (ratio(decomps, iters), "1/iter")
    out["linalg.trs_solve.self_s"] = (median_of(lambda s, r: s.self_s["linalg.trs_solve"]), "s")
    out["benchmarks.true_kkt.self_s"] = (median_of(lambda s, r: s.self_s["benchmarks.true_kkt"]), "s")
    out["benchmarks.true_kkt.calls_per_iter"] = (ratio(last.calls["benchmarks.true_kkt"], iters), "1/iter")
    out["steps.soc_step.calls"] = (last.calls["steps.soc_step"], "count")
    out["solver.iters"] = (iters, "count")
    out["solver.accept_ratio"] = (ratio(stats["accepted"], trials), "ratio")
    out["solver.soc_accept_ratio"] = (ratio(stats["soc_accepted"], stats["soc"]), "ratio")
    out["solver.line6_frac"] = (ratio(stats["line6"], iters), "ratio")
    out["solver.merit_raises"] = (last.calls["steps.predicted_reduction"] - trials, "count")
    out["solver.logged_samples"] = (stats["logged_samples"], "count")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    out["trace.remainder_s"] = (median_of(lambda s, r: r["wall_s"] - s.root_s), "s")
    out["trace.spans"] = (sum(last.calls.values()), "count")
    return out


def in_seconds(reps) -> dict:
    """Wall time per repeat in seconds, which the host's slow spells move."""
    solves = reps[0]["solves"]
    walls = [r["wall_s"] for r in reps]
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    slice_ms = statistics.median(1000.0 * r["reference_s"] / r["slices"] for r in reps)
    return {
        "repeats": (len(walls), "count"),
        "wall_s": (median, "s"),
        "wall_s.q1": (q1, "s"),
        "wall_s.q3": (q3, "s"),
        "ms_per_iter": (1000.0 * median / sum(s.iterations for s in solves), "ms"),
        "reference_slice_ms": (slice_ms, "ms"),
    }


def layer_shares(rep) -> str:
    """Each layer's share of one traced repeat's wall time, and what is left."""
    spans, wall = rep["spans"], rep["wall_s"]
    parts = [f"{layer} {spans.layer_self(layer) / wall:.1%}" for layer in LAYERS]
    return ", ".join(parts + [f"remainder {(wall - spans.root_s) / wall:.2%}"])


def report(args, env, reps, results, sha, metrics, extra):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env))
    print(f"trajectory sha256 {sha}  ({len(reps)} repeats)")
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit}")
    if args.trace:
        print("layer self time, last traced repeat: " + layer_shares(reps[-1]))
    for name, ok in results:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}")


def run_one(args) -> int:
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    from workloads import WORKLOADS, trajectory_sha

    env = environment()
    workload = WORKLOADS[args.workload](args.seed)
    reps = run_repeats(workload, args.seconds, bool(args.trace))
    results = checks(workload, reps)
    solves = reps[0]["solves"]
    sha = trajectory_sha(solves)
    if args.trace:
        metrics, extra = per_layer(reps), {}
    else:
        metrics = end_to_end(reps, setup_times)
        sweep = args.workload == "saddle-sweep"
        applies = args.workload != "saddle-long"
        n = len(solves)
        extra = {
            "solved_frac": (sum(s.converged for s in solves) / n if applies else None, "ratio"),
            "escaped_frac": (sum(s.escaped for s in solves) / n if sweep else None, "ratio"),
            "failed_frac": (sum(s.failed for s in solves) / n, "ratio"),
            "solver.logged_samples": (record_stats(solves)["logged_samples"], "count"),
            **in_seconds(reps),
        }
    report(args, env, reps, results, sha, metrics, extra)
    every = [s for r in reps for s in r["solves"]]
    correct = all(ok for _, ok in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(every),
                "failed": sum(s.failed for s in every),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(dict.fromkeys(BLAS_VARS, str(BLAS_THREADS)))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.workload != "all":
        return run_one(args)
    codes = []
    for name in NAMES:
        sys.stdout.flush()
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
