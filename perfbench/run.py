"""gridtree benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload island_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics declared in ``BENCHMARK.json``; with
``--trace 1`` it holds the per-module metrics of a traced pass.  The line
before it is the run record (machine, versions, seed, input properties).
Spans of a traced pass and every record are also written under
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One worker: pin the BLAS pool before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("island_sweep", "placement_rank", "grid_detect")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def _import_package():
    """Import gridtree and the benchmark from this checkout, or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "gridtree", "__init__.py")):
        raise SystemExit(f"perfbench: no gridtree sources under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import gridtree

    if os.path.dirname(os.path.dirname(os.path.abspath(gridtree.__file__))) != SRC:
        raise SystemExit(f"perfbench: gridtree was imported from {gridtree.__file__}, not {SRC}")
    from perfbench import workloads

    return workloads


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="timed body length")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _setup_sample(args, workdir) -> float:
    """Wall time of a fresh process that imports the package and sets the workload up."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only", workdir,
    ]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _timed_units(workload, seconds):
    """Calls per unit: the base units, then more while the next one should fit in ``seconds``."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(workload.unit(len(units)))
        done, elapsed = len(units), time.perf_counter() - start
        if done >= workload.base_units and elapsed + elapsed / done > seconds:
            return units


def _traced_units(workload, tracer):
    """Run the base units plain and traced, interleaved unit by unit so that drift in
    machine speed cancels out of the overhead; return (plain, traced, overhead share)."""
    plain, traced, plain_s, traced_s = [], [], 0.0, 0.0
    for index in range(workload.base_units):
        start = time.perf_counter()
        plain.append(workload.unit(index))
        plain_s += time.perf_counter() - start
        workload.tracer = tracer
        with tracer:
            start = time.perf_counter()
            traced.append(workload.unit(index))
            traced_s += time.perf_counter() - start
        workload.tracer = None
    return plain, traced, (traced_s - plain_s) / traced_s


def _end_to_end(units, base_units, setup_s, attempted, failed):
    m = {}
    calls = [c for unit in units for c in unit]
    for det in sorted({c.detector for c in calls}):
        per_detection_ms = [1e3 * c.seconds / c.detections for c in calls if c.detector == det]
        m[f"{det}_p90_ms"] = float(np.percentile(per_detection_ms, 90))
    base = [c for unit in units[:base_units] for c in unit]
    m["miss_rate"] = sum(c.misses for c in base) / sum(c.detections for c in base)
    m["ok_share"] = (attempted - failed) / attempted
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["setup_s"] = setup_s
    return m


def _machine(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workers": 1,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_package()
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.setup_only, args.seed)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    record = {"machine": _machine(args)}
    try:
        if args.trace:
            from perfbench.tracer import Tracer

            workload = cls(workdir, args.seed)
            tracer = Tracer()
            plain, traced, overhead = _traced_units(workload, tracer)
            units = plain + traced
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_share"] = overhead
            detections = sum(c.detections for unit in traced for c in unit)
            record["inputs"] = {
                "hypotheses_per_detection": (
                    metrics["detect.score_rows"] + metrics["detect.logpdf_calls"]
                ) / detections,
                "detect.scores_per_build": metrics["detect.scores_per_build"],
                "detect.feasible_share": metrics["detect.feasible_share"],
                "spans": len(tracer.start),
            }
            tracer.save(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
        else:
            samples = []
            for k in range(SETUP_SAMPLES):
                sample_dir = os.path.join(workdir, f"setup{k}")
                os.mkdir(sample_dir)
                samples.append(_setup_sample(args, sample_dir))
            record["setup_samples_s"] = samples
            workload = cls(workdir, args.seed)
            units = _timed_units(workload, args.seconds)
        items, problems = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    calls = [c for unit in units for c in unit]
    attempted = len(calls) + items
    failed = sum(not c.ok for c in calls) + len(problems)
    if not args.trace:
        metrics = _end_to_end(units, workload.base_units, statistics.median(samples), attempted, failed)
    record["units"] = len(units)
    record["detectors"] = {
        det: {
            "calls": sum(c.detector == det for c in calls),
            "detections": sum(c.detections for c in calls if c.detector == det),
            "misses": sum(c.misses for c in calls if c.detector == det),
            "seconds": sum(c.seconds for c in calls if c.detector == det),
        }
        for det in workloads.DETECTORS
    }
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in wanted},
    }
    call_log = {
        det: [[c.seconds, c.detections] for c in calls if c.detector == det]
        for det in workloads.DETECTORS
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"record": record, "result": result, "calls": call_log}, fh)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
