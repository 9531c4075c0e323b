"""Benchmark of the landscape-atlas library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Runs one workload (survey, walks, optimize or atlas; see workloads.py) in
this process against the library under ``src/``.  Set-up is repeated and
timed, then whole passes run until the next one would end after
``--seconds``; at least one pass always runs.  The end-to-end times are
host-adjusted: each stretch is scaled by the host speed that the
reference kernel of hostspeed.py measured during it.  With ``--trace 1``
every pass runs twice on the same inputs, untraced and then traced, and
the per-layer metrics of layers.py are reported instead of the end-to-end
ones.

The second-to-last line of output is a JSON report (machine block, pass
times, stage times, fail ratio, output digests); the last line is the JSON
result: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: with the default threading,
# small lstsq calls on a 2-core host vary by more than an order of magnitude.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 9
# Reference-kernel samples before each set-up; one set-up is too short for
# the timer.
SETUP_PROBES = 3
MAX_SEED = 2 ** 32

clock = time.perf_counter


def _import_library() -> float:
    """Put the checkout's source first on the path; returns import seconds."""
    package = SRC / "landscape_atlas"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found at {package}")
    sys.path.insert(0, str(SRC))
    t = clock()
    import landscape_atlas
    if Path(landscape_atlas.__file__).resolve().parent != package.resolve():
        sys.exit("perfbench: imported landscape_atlas from outside the checkout")
    return clock() - t


def _openblas() -> dict:
    """Config (version, DYNAMIC_ARCH), runtime core and thread count of the
    OpenBLAS bundled with the numpy wheel; empty if there is none."""
    import numpy as np
    info: dict = {}
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                           .glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(lib_path))
        for key, symbol, restype in (
                ("config", "scipy_openblas_get_config64_", ctypes.c_char_p),
                ("core", "scipy_openblas_get_corename64_", ctypes.c_char_p),
                ("threads", "scipy_openblas_get_num_threads64_", ctypes.c_int)):
            fn = getattr(lib, symbol)
            fn.restype = restype
            value = fn()
            info[key] = value.decode() if isinstance(value, bytes) else value
    return info


def _machine() -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_ENV},
    }


def _pin_status(name: str, seed: int, digest: str, machine: dict) -> str:
    """Compare pass 0's digest with the pinned one.  Bit-identical output
    is promised only on the numeric stack the pin was taken with."""
    pin = json.loads((HERE / "pinned.json").read_text())
    if seed != pin["seed"]:
        return "no pin for this seed"
    stack = {"numpy": machine["numpy"],
             "openblas_core": machine["openblas"].get("core")}
    if stack != pin["stack"]:
        return "no pin for this numeric stack"
    if name not in pin["digests"]:
        return "no pin for this workload"
    return "match" if pin["digests"][name] == digest else "MISMATCH"


def _median(values) -> float:
    return float(statistics.median(values))


def _end_to_end(passes, setup_s: list[float], setup_factor: float) -> dict:
    """Host-adjusted times: active seconds times the stretch's host-speed
    factor."""
    return {
        "wall_s": (_median(p["wall"] * p["factor"] for p in passes), "s"),
        "rows_per_s": (_median(p["run"].rows
                               / (p["run"].row_s * p["row_factor"])
                               for p in passes), "1/s"),
        "evals_per_s": (_median(p["run"].evals / (p["wall"] * p["factor"])
                                for p in passes), "1/s"),
        "setup_s": (_median(setup_s) * setup_factor, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def _per_layer(passes, per_layer) -> dict:
    """Times are medians over traced passes; counts and ratios are pass 0's,
    so they repeat exactly for a given seed."""
    out = {}
    for name, unit, _ in per_layer:
        if name == "trace.overhead_s":
            value = _median(p["traced_wall"] - p["wall"] for p in passes)
        elif unit == "s":
            value = _median(p["layers"][name] for p in passes)
        else:
            value = passes[0]["layers"][name]
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("survey", "walks", "optimize", "atlas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        parser.error(f"--seed must lie in [0, {MAX_SEED})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_before = os.getloadavg()
    import_s = _import_library()
    import hostspeed
    import layers
    import workloads
    active = hostspeed.active

    machine = _machine()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            hostspeed.probe()
        workloads.clear_caches()
        t = active()
        workload.setup()
        setup_s.append(active() - t)
    setup_factor = hostspeed.factor(0, workload.HOST_SENSITIVITY)

    tracer = layers.Tracer() if args.trace else None
    passes = []
    start = clock()
    while True:
        inputs = workload.prepare(len(passes))
        workloads.reset_sim_memo()
        with hostspeed.sampling():
            mark = len(hostspeed.samples)
            t = active()
            run = workload.run(inputs)
            wall = active() - t
        sensitivity = workload.HOST_SENSITIVITY
        record = {"wall": wall, "run": run,
                  "factor": hostspeed.factor(mark, sensitivity),
                  "row_factor": hostspeed.factor(run.row_marks[0], sensitivity,
                                                 run.row_marks[1])}
        if tracer is not None:
            # Unsampled, so that no kernel sample lands in a layer's span.
            workloads.reset_sim_memo()
            tracer.reset()
            with tracer:
                t = active()
                traced = workload.run(inputs)
                record["traced_wall"] = active() - t
            record["layers"] = tracer.metrics()
            record["traced"] = traced
        passes.append(record)
        elapsed = clock() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    attempted = sum(p["run"].attempted for p in passes)
    failed = sum(p["run"].failed for p in passes)
    trace_mismatches = 0
    if tracer is not None:
        attempted += sum(p["traced"].attempted for p in passes)
        failed += sum(p["traced"].failed for p in passes)
        trace_mismatches = sum(p["traced"].digest != p["run"].digest
                               for p in passes)
        failed += trace_mismatches
    digest = passes[0]["run"].digest
    pin = _pin_status(args.workload, args.seed, digest, machine)

    end_to_end = _end_to_end(passes, setup_s, setup_factor)
    stages = {key: _median(p["run"].stages[key] for p in passes)
              for key in passes[0]["run"].stages}
    machine["loadavg_before"] = load_before
    machine["loadavg_after"] = os.getloadavg()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_factor": [p["factor"] for p in passes],
        "row_factor": [p["row_factor"] for p in passes],
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "kernel_samples": len(hostspeed.samples),
        "kernel_median_s": _median(hostspeed.samples),
        "import_s": import_s,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "stages_s": stages,
        "fail_ratio": failed / attempted,
        "digest_pass0": digest,
        "digest_pin": pin,
        "machine": machine,
    }
    if tracer is not None:
        report["traced_wall_s"] = [p["traced_wall"] for p in passes]
        report["trace_digest_mismatches"] = trace_mismatches
        report["unwrapped"] = tracer.unwrapped
        metrics = _per_layer(passes, layers.PER_LAYER)
    else:
        metrics = end_to_end
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and pin != "MISMATCH",
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
