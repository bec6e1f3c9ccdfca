"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 40 --trace 0

Prints each metric as ``name value unit`` and, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The full result, with the BLAS set-up and the figures that
are printed but not gated, goes to ``perfbench/out/``.
"""

import os

# Pin BLAS to one thread before numpy loads, so that timings do not depend on
# where the OS places a second BLAS thread on a small, shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def blas_info(np) -> dict:
    """BLAS library, version and the thread count it reports, if it can say."""
    info = {"numpy": np.__version__, "env_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cellsched" / "__init__.py").is_file():
        print(f"cellsched sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    metrics = result["metrics"]
    if tracer is not None:
        tracer.save(OUT / f"trace-{stem}.npz")
        metrics = {"trace.run_s": metrics["run_s"], **tracer.layer_metrics()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "platform": blas_info(np), **result, "metrics": metrics}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed={args.seed} {record['platform']}")
    for name, (value, unit) in {**metrics, **result["extra"]}.items():
        print(f"{name} {value:.6g} {unit}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
