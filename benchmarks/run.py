"""ringsense benchmark: one workload per process, end to end or traced.

    python3 benchmarks/run.py --workload pipeline_sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and imports ``ringsense`` from its
``src/`` directory, never from anywhere else; without it the run exits
with code 2 and prints no result. Inputs derive from ``--seed`` only.
Each workload (see ``workloads.py`` and ``BENCHMARK.json``) repeats its
timed pass until the next pass would end after ``--seconds``.

``--trace 0`` measures the end-to-end metrics with tracing off; every
time is a ``perf_counter`` wall, and a timing is the median over passes.
``--trace 1`` alternates untraced passes with passes in which every layer
function is wrapped (``tracing.py``), reports the per-layer metrics and
writes the spans to ``.bench_out/``.

Standard output ends with two JSON lines: a record of the environment,
the input properties and every workload-level metric, then the result
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` and
``failed`` count frames. A failed correctness gate prints the result with
``"correct": false`` and exits with code 1.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("pipeline_sweep", "replay_occluded", "contact_stream")
# Runnable for diagnosis but not in BENCHMARK.json: its raw throughput
# spreads by more than any bound the benchmark may set (see README.md).
UNGATED_WORKLOADS = ("replay_occluded",)
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# setup_s: fresh interpreters that import ringsense and build the default
# camera, layout and compliance; the median of SETUP_REPEATS is reported.
SETUP_REPEATS = 9
SETUP_CODE = (
    "import ringsense\n"
    "from ringsense.geometry import default_camera\n"
    "from ringsense.layout import default_layout\n"
    "from ringsense.simulator import default_compliance\n"
    "default_camera(); default_layout(); default_compliance()\n"
    "print('ready', flush=True)\n"
)


class BootstrapError(Exception):
    """The checkout holds no importable ringsense source."""


def bootstrap() -> None:
    """Pin BLAS to one thread and put this checkout's ``src/`` first on the
    import path, both also for child processes, then check that
    ``ringsense`` (and so numpy) is imported from there."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    package = SRC / "ringsense"
    if not (package / "__init__.py").is_file():
        raise BootstrapError(f"no ringsense source at {package}")
    sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    import ringsense

    if Path(ringsense.__file__).resolve().parent != package.resolve():
        raise BootstrapError(f"ringsense imported from {ringsense.__file__}, not {package}")


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, if it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ringsense").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, workload) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "frames_per_pass": workload.frames_per_pass,
    }


def measure_setup(repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(perf_counter() - t0)
            child.communicate(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {child.returncode}")
    return times


def timed(run_pass, seconds: float) -> list:
    """Call ``run_pass`` until the next call would end after ``seconds``;
    at least once. Returns the results."""
    results = []
    start = perf_counter()
    while True:
        results.append(run_pass())
        elapsed = perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def traced_pair(workload, tracer) -> tuple:
    """An untraced pass, then a traced pass of the same inputs."""
    untraced = workload.run_once()
    tracer.install()
    try:
        traced = workload.run_once(tracer)
    finally:
        tracer.restore()
    return untraced, traced


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def frame_latencies_ms(passes) -> list[float]:
    """Per frame: the gap between frame requests on a streaming workload;
    the command's duration on a batch one, which returns every pose at once."""
    latencies_ms = []
    for p in passes:
        if p.gaps is None:
            latencies_ms.extend([(p.t1 - p.t0) * 1e3] * p.frames)
        else:
            latencies_ms.extend((b - a) * 1e3 for a, b in p.gaps)
    return latencies_ms


def end_to_end_metrics(passes, setup_s, quality) -> dict:
    latencies_ms = frame_latencies_ms(passes)
    return {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "frames_per_s": _metric(statistics.median(p.frames / (p.t1 - p.t0) for p in passes),
                                "1/s"),
        "frame_latency_p50_ms": _metric(percentile(latencies_ms, 50), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pose_err_trans_rms_mm": _metric(quality["pose_err_trans_rms_mm"], "mm"),
        "pose_err_rot_rms_rad": _metric(quality["pose_err_rot_rms_rad"], "rad"),
    }


def workload_metrics(passes, quality) -> dict:
    """The workload-level metrics that are not measured on every workload or
    can be 0, which the result line cannot carry; ``None`` where the
    workload does not run the stage. The p99 frame latency needs ten
    samples beyond it, which only a streaming workload has."""
    attempted = sum(p.frames for p in passes)
    streaming = all(p.gaps is not None for p in passes)
    latencies_ms = frame_latencies_ms(passes) if streaming else None
    return {
        "frame_latency_p99_ms": _metric(latencies_ms and percentile(latencies_ms, 99), "ms"),
        "frame_latency_samples": _metric(latencies_ms and len(latencies_ms), "count"),
        "failed_frame_ratio": _metric(sum(p.failed for p in passes) / attempted, "ratio"),
        "calib_r2_test_min": _metric(quality.get("calib_r2_test_min"), "1"),
        "contact_lag_frames_mean": _metric(quality.get("contact_lag_frames_mean"), "frames"),
        "false_contact_ratio": _metric(quality.get("false_contact_ratio"), "ratio"),
        "missed_contact_ratio": _metric(quality.get("missed_contact_ratio"), "ratio"),
    }


PER_LAYER_UNITS = {
    "simulator.synthesize_frame.self_ms_per_frame": "ms",
    "simulator.project_layout.self_ms_per_frame": "ms",
    "geometry.project_points.calls_per_frame": "count",
    "layout.corners_ref.calls_per_frame": "count",
    "pnp.CorrespondenceSet.init_ms_per_frame": "ms",
    "pnp.CorrespondenceSet.constructions_per_frame": "count",
    "pnp.epnp_initialize.self_ms_per_frame": "ms",
    "pnp.refine_lm.self_ms_per_frame": "ms",
    "pnp.lm_iterations_per_frame": "count",
    "pnp.lm_rejected_steps_per_frame": "count",
    "pnp.lm_ms_per_iteration": "ms",
    "pnp.converged_ratio": "ratio",
    "pnp.corners_per_frame": "count",
    "calibration.calibrate.ms": "ms",
    "sensitivity.analyze.ms": "ms",
    "cli.bytes_read_per_frame": "B",
    "cli.bytes_written_per_frame": "B",
    "trace.overhead_ratio": "ratio",
    "calibration.r2_test_min": "1",
    "contact.lag_frames_mean": "frames",
    "contact.false_contact_ratio": "ratio",
    "geometry.self_ms_per_frame": "ms",
    "layout.self_ms_per_frame": "ms",
    "pnp.self_ms_per_frame": "ms",
    "simulator.self_ms_per_frame": "ms",
    "calibration.self_ms_per_frame": "ms",
    "sensitivity.self_ms_per_frame": "ms",
    "contact.self_ms_per_frame": "ms",
    "cli.self_ms_per_frame": "ms",
}


def per_layer_metrics(tracer, pairs, quality, io_bytes) -> dict:
    """Per-layer metrics of the traced passes of ``pairs``."""
    import tracing

    traced = [t for _, t in pairs]

    table = tracing.summarize(tracer.spans)
    frames = sum(p.frames for p in traced)
    ms = 1e-6

    def row(name: str) -> dict:
        return table.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})

    module_self_ns = {m: 0 for m in tracing.LAYER_MODULES}
    for name, r in table.items():
        module_self_ns[name.split(".", 1)[0]] += r["self_ns"]
    estimates = tracer.estimates
    lm_iterations = sum(e[0] for e in estimates)
    lm_rejected = sum(e[0] - e[1] for e in estimates)
    refine_ms = row("pnp.refine_lm")["self_ns"] * ms
    frames_per_pass = traced[0].frames
    # Each traced pass against the untraced pass just before it.
    overhead = statistics.median((t.t1 - t.t0) / (u.t1 - u.t0) for u, t in pairs) - 1.0
    corners = quality["input_properties"]["corners_per_frame"]["mean"]

    values = {
        "simulator.synthesize_frame.self_ms_per_frame":
            row("simulator.synthesize_frame")["self_ns"] * ms / frames,
        "simulator.project_layout.self_ms_per_frame":
            row("simulator.project_layout")["self_ns"] * ms / frames,
        "geometry.project_points.calls_per_frame": row("geometry.project_points")["calls"] / frames,
        "layout.corners_ref.calls_per_frame": row("layout.corners_ref")["calls"] / frames,
        "pnp.CorrespondenceSet.init_ms_per_frame":
            row("pnp.CorrespondenceSet.__init__")["total_ns"] * ms / frames,
        "pnp.CorrespondenceSet.constructions_per_frame":
            row("pnp.CorrespondenceSet.__init__")["calls"] / frames,
        "pnp.epnp_initialize.self_ms_per_frame":
            row("pnp.epnp_initialize")["self_ns"] * ms / frames,
        "pnp.refine_lm.self_ms_per_frame": refine_ms / frames,
        "pnp.lm_iterations_per_frame": lm_iterations / frames,
        "pnp.lm_rejected_steps_per_frame": lm_rejected / frames,
        "pnp.lm_ms_per_iteration": refine_ms / lm_iterations if lm_iterations else 0.0,
        "pnp.converged_ratio":
            sum(e[2] for e in estimates) / len(estimates) if estimates else 0.0,
        "pnp.corners_per_frame": corners,
        "calibration.calibrate.ms": row("calibration.calibrate")["total_ns"] * ms / len(traced),
        "sensitivity.analyze.ms": row("sensitivity.analyze")["total_ns"] * ms / len(traced),
        "cli.bytes_read_per_frame": io_bytes[0] / frames_per_pass,
        "cli.bytes_written_per_frame": io_bytes[1] / frames_per_pass,
        "trace.overhead_ratio": overhead,
        "calibration.r2_test_min": quality.get("calib_r2_test_min") or 0.0,
        "contact.lag_frames_mean": quality.get("contact_lag_frames_mean") or 0.0,
        "contact.false_contact_ratio": quality.get("false_contact_ratio") or 0.0,
    }
    for module, ns in module_self_ns.items():
        values[f"{module}.self_ms_per_frame"] = ns * ms / frames
    return {name: _metric(v, PER_LAYER_UNITS[name]) for name, v in values.items()}


def gate(workload, passes, quality) -> list[str]:
    """Everything that makes the run incorrect."""
    import workloads

    problems = list(workload.problems)
    if quality is None:
        return problems
    trans_max, rot_max = workloads.pose_error_limits()
    if not quality["pose_err_trans_rms_mm"] <= trans_max:
        problems.append(f"translation RMS error {quality['pose_err_trans_rms_mm']:.3g} mm "
                        f"exceeds {trans_max:.3g} mm")
    if not quality["pose_err_rot_rms_rad"] <= rot_max:
        problems.append(f"rotation RMS error {quality['pose_err_rot_rms_rad']:.3g} rad "
                        f"exceeds {rot_max:.3g} rad")
    if len({p.digest for p in passes}) != 1:
        problems.append("outputs differ between passes of the same inputs")
    return problems


def run(args, workdir: Path) -> tuple[dict, dict]:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
    record = {}
    if not args.trace:
        setup_s = measure_setup(SETUP_REPEATS)
    workload.prepare()
    # The inputs a workload holds are the benchmark's, not the program's:
    # keep them out of the garbage collector's full passes.
    gc.collect()
    gc.freeze()
    cpu0, wall0 = process_time(), perf_counter()
    try:
        if args.trace:
            tracer = tracing.Tracer()
            pairs = timed(lambda: traced_pair(workload, tracer), args.seconds)
            passes = [p for pair in pairs for p in pair]
        else:
            passes = timed(workload.run_once, args.seconds)
    finally:
        gc.unfreeze()
    # Diagnostic: below 1 when the process waited for a CPU or for I/O.
    record["timed_cpu_over_wall"] = (process_time() - cpu0) / (perf_counter() - wall0)
    # After a failed command there are no outputs to judge or measure.
    quality = None if workload.problems else workload.evaluate()
    problems = gate(workload, passes, quality)
    if quality is None:
        metrics = {}
    elif args.trace:
        metrics = per_layer_metrics(tracer, pairs, quality, workload.io_bytes())
        tracer.write(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.tsv.gz")
    else:
        metrics = end_to_end_metrics(passes, setup_s, quality)
        record["setup_s"] = setup_s
        record["pass_frames_per_s"] = [p.frames / (p.t1 - p.t0) for p in passes]
    record.update({
        "environment": environment(args, workload),
        "passes": len(passes),
        "latency_samples": sum(p.frames if p.gaps is None else len(p.gaps) for p in passes),
        "input_properties": quality and quality["input_properties"],
        "workload_metrics": quality and workload_metrics(passes, quality),
        "problems": problems,
    })
    result = {
        "correct": not problems,
        "attempted": sum(p.frames for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's frame count (smoke tests)")
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except BootstrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        record, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in record["problems"]:
        print(f"correctness gate: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
