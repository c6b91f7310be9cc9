#!/usr/bin/env python3
"""Benchmark of the taghash engine, one seeded workload per call.

    python3 perfbench/run.py --workload train_stream --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the root of a source checkout; it imports ``src/taghash`` from
there and writes its scratch files under ``.perfbench-work/``, which it
removes again.  It prints the environment, every metric by name and unit,
and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
traced and reports the per-layer metrics (see README.md).  ``--workload all``
runs every workload in its own process, one after the other, and prints all
their results.
"""
import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile

from tracer import Tracer, unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")

END_TO_END = {                   # name -> unit
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "throughput_per_s": "1/s",
    "map": "ratio",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import taghash from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "taghash", "__init__.py")):
        sys.exit(f"run.py: no taghash sources under {SRC}")
    sys.path.insert(0, SRC)
    import taghash
    if not os.path.abspath(taghash.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported taghash from {taghash.__file__}")
    return taghash


def _openblas(libdir, pattern, suffix):
    """Version string and thread count of one bundled OpenBLAS, read only."""
    for path in sorted(glob.glob(os.path.join(libdir, pattern))):
        lib = ctypes.CDLL(path)
        config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
        threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                          None)
        if config is None or threads is None:
            continue
        config.argtypes, config.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        return {"library": os.path.basename(path),
                "config": config().decode(), "threads": threads()}
    return None


def environment(seed):
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own OpenBLAS
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "numpy_openblas": _openblas(os.path.join(site, "numpy.libs"),
                                    "libscipy_openblas64_*.so", "64_"),
        "scipy_openblas": _openblas(os.path.join(site, "scipy.libs"),
                                    "libscipy_openblas*.so", ""),
    }


def percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q / 100.0 * len(values)))]


def end_to_end(rec):
    ops = rec.samples["op"]
    return {
        "setup_s": statistics.median(rec.samples["setup"]),
        "latency_ms_p50": 1e3 * statistics.median(ops),
        "throughput_per_s": rec.items / sum(ops),
        "map": rec.map,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def run_one(args):
    _import_program()
    import workloads

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    prepare, run = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
            inputs = prepare(args.seed, size, workdir)
            if not args.trace:
                rec = workloads.Recorder(args.seconds)
                run(inputs, rec)
                metrics = {k: (v, END_TO_END[k])
                           for k, v in end_to_end(rec).items()}
            else:
                base = workloads.Recorder(args.seconds / 2.0)
                run(inputs, base)
                with Tracer() as tracer:
                    rec = workloads.Recorder(args.seconds / 2.0, tracer)
                    run(inputs, rec)
                metrics = per_layer(base, rec, tracer)
                if tracer.absent:
                    print("absent spans: " + " ".join(tracer.absent))
                rec.attempted += base.attempted
                rec.failed += base.failed
    finally:
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    for name, (value, metric_unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {metric_unit}")
    ops = rec.samples["op"]
    print(f"{args.workload} error_rate = {rec.failed / rec.attempted:.6g} "
          f"({rec.failed} of {rec.attempted} operations)")
    print(f"{args.workload} samples: {len(rec.samples['setup'])} set-ups, "
          f"{len(ops)} operations, latency_ms_p99 = "
          f"{1e3 * percentile(ops, 99):.6g} ms (not a gated metric)")
    return {"correct": rec.failed == 0, "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def per_layer(base, rec, tracer):
    counts = {"setup": len(rec.samples["setup"]), "op": len(rec.samples["op"])}
    values = tracer.report(counts)
    values["trace.overhead_ms"] = 1e3 * (
        statistics.median(rec.samples["op"])
        - statistics.median(base.samples["op"]))
    values["trace.coverage"] = (tracer.covered_s("op")
                                / sum(rec.samples["op"]))
    return {name: (value, unit(name)) for name, value in values.items()}


def run_all(args):
    """Every workload in a child process of its own, one after the other."""
    results = {}
    for name in ("train_stream", "train_bulk", "query_topk", "map_eval"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"run.py: workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_stream", "train_bulk", "query_topk",
                                 "map_eval", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
