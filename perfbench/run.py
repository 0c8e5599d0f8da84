"""Offline end-to-end benchmark of the uncertain demos, with a traced per-layer run.

    python3 perfbench/run.py --workload train-flow --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

A run measures one workload in this process as a closed loop with one op in
flight, for ``--seconds``, after ``SETUP_PROBES`` fresh processes have each
timed set-up (process start to the end of the first op).  It checks every
op's output, prints each metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, with op and set-up times normalized to a fixed machine
speed (see ``workloads.Calibration``); ``--trace 1`` alternates untraced and
traced invocations and reports per-layer metrics per op.  Results, spans and
the reference digest of each seed's output go to ``perfbench/out/``.
The metrics and their units are those BENCHMARK.json declares;
``workloads.json`` records why each workload exists and which metric each
layer should move.
"""
import os

# pin BLAS to one thread before numpy loads; children inherit the pin
BLAS_PIN = {var: "1" for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7


def declared(kind):
    """(name, unit) of each ``end_to_end`` or ``per_layer`` metric, in the
    order BENCHMARK.json lists them: the one place the metrics are named."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def source_digest():
    """Digest of the code whose output the checks compare: the ``.py`` files
    under ``src/`` and the workload definitions.  Reference outputs are kept
    per digest, so a changed program sets a fresh reference instead of being
    compared with another program's output."""
    h = hashlib.sha256()
    paths = [os.path.join(HERE, "workloads.py")]
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths += [os.path.join(dirpath, f) for f in filenames if f.endswith(".py")]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()[:16]


def environment():
    import numpy
    import scipy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or commit
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"{blas.get('openblas configuration', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_PIN},
        "numba": importlib.util.find_spec("numba") is not None,
    }


def invoke(workload, tracer=None, calibration=None):
    inv = workload.invoke(tracer, calibration)
    # free what the invocation left in reference cycles, as the end of a CLI
    # process would, so peak RSS is one invocation's peak
    gc.collect()
    return inv


def op_times(invocations):
    return [t for inv in invocations for t in inv.op_s]


def check_identical(invocations, name, seed):
    """Flag invocations whose output differs from the first run's at this
    seed and source digest: the first invocation of the first run of this
    code in this checkout sets the reference, so the check spans invocations
    and runs alike, and the two sides of a before/after pair each keep
    their own."""
    def digest(inv):
        return hashlib.sha256(inv.output.encode()).hexdigest()

    path = os.path.join(OUT, f"{name}-seed{seed}-{source_digest()}.sha256")
    if not os.path.exists(path) and invocations[0].ok:
        with open(path, "w") as fh:
            fh.write(digest(invocations[0]))
    if not os.path.exists(path):
        return
    with open(path) as fh:
        reference = fh.read().strip()
    for inv in invocations:
        if inv.ok and digest(inv) != reference:
            inv.errors.append("output differs from the first run at this seed")


def measure_setup(name, seed, calibration):
    """Median seconds from spawning a fresh process to its first op's end,
    each normalized by the calibration ticks around it."""
    samples, ends = [], []
    for _ in range(SETUP_PROBES):
        calibration.tick(runs=8)
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--probe"],
            capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        ends.append(float(proc.stdout.split()[-1]))
        samples.append(ends[-1] - spawned)
    calibration.tick(runs=8)
    return statistics.median(calibration.normalize(samples, ends))


def timed_run(workload, args):
    """End-to-end metrics: returns (invocations, metrics, printed extras)."""
    from workloads import Calibration

    calibration = Calibration()
    setup_s = measure_setup(args.workload, args.seed, calibration)
    workload.setup()
    invocations = []
    start = time.perf_counter()
    while not invocations or time.perf_counter() - start < args.seconds:
        invocations.append(invoke(workload, calibration=calibration))
    times = op_times(invocations)
    normalized = sorted(calibration.normalize(
        times, [t for inv in invocations for t in inv.op_end]))
    values = {
        "op_ms.p50": 1e3 * statistics.median(normalized),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared("end_to_end")}
    # ops_per_s weighs the slow tail, so it spreads too much between runs
    # to carry a bound; it is printed with the other figures without one
    extras = [("ops_per_s", len(normalized) / sum(normalized), "1/s")]
    if len(normalized) >= 200:
        extras.append(("op_ms.p95",
                       1e3 * statistics.quantiles(normalized, n=20)[-1], "ms"))
    quality = ("predictive_nll" if args.workload.startswith("predict")
               else "final_loss")
    extras += [
        ("wall_op_ms.p50", 1e3 * statistics.median(times), "ms"),
        ("wall_ops_per_s", len(times) / sum(times), "1/s"),
        ("machine_slowness", calibration.slowness(), "ratio"),
        (quality, invocations[0].quality, "nats"),
    ]
    return invocations, metrics, extras


def traced_run(workload, args):
    """Per-layer metrics per op over the traced invocations, which alternate
    with untraced ones so that drift hits both alike; the untraced ones give
    the tracing overhead.  Exits non-zero if a metric has no trace target or
    a target is gone from the code, rather than report it as 0."""
    from tracer import COUNTERS, SPANS, Tracer

    def traceable(name):
        span, _, kind = name.rpartition(".")
        return (name == "trace.overhead" or name in COUNTERS
                or (kind in ("ms", "calls") and span in SPANS))

    per_layer = declared("per_layer")
    unknown = [name for name, _ in per_layer if not traceable(name)]
    if unknown:
        sys.exit(f"error: no trace target for {', '.join(unknown)}")
    workload.setup()
    tracer = Tracer()
    with tracer:
        pass
    if tracer.missing:
        sys.exit("error: trace targets not found: "
                 f"{', '.join(sorted(tracer.missing))}; "
                 "update TARGETS in perfbench/tracer.py")
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(invoke(workload))
        traced.append(invoke(workload, tracer))
    overhead = (statistics.median(op_times(traced))
                / statistics.median(op_times(plain)) - 1.0)
    spans, counters = tracer.summary([inv.window for inv in traced])
    ops = len(op_times(traced))
    metrics = {}
    for name, unit in per_layer:
        span, _, kind = name.rpartition(".")
        calls, self_s = spans.get(span, (0, 0.0))
        if name == "trace.overhead":
            value = overhead
        elif name in COUNTERS:
            value = counters[name] / ops
        elif kind == "ms":
            value = 1e3 * self_s / ops
        else:
            value = calls / ops
        metrics[name] = {"value": value, "unit": unit}
    tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.csv"))
    return plain + traced, metrics, []


def run_workload(args):
    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    workload = workloads.make(args.workload, args.seed, OUT)
    if args.trace:
        invocations, metrics, extras = traced_run(workload, args)
    else:
        invocations, metrics, extras = timed_run(workload, args)
    check_identical(invocations, args.workload, args.seed)
    for inv in invocations:
        for err in inv.errors:
            print(f"check failed: {err}", file=sys.stderr)
    attempted = sum(inv.planned for inv in invocations)
    failed = sum(inv.planned for inv in invocations if not inv.ok)
    extras += [("failed_frac", failed / attempted, "ratio"),
               ("ops", len(op_times(invocations)), "count")]
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    for name, value, unit in extras:
        print(f"{args.workload} {name} {value!r} {unit}")

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"env": env, "seconds": args.seconds, **result,
              "extras": {n: {"value": v, "unit": u} for n, v, u in extras}}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    import workloads

    code = 0
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=600)
        code = code or proc.returncode
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up sample
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "uncertain")):
        print(f"error: no uncertain package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.NAMES)} or all")
    if args.probe:
        print(workloads.make(args.workload, args.seed, OUT).probe())
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
