"""One pass of a workload in a fresh process.

Usage (started by run.py, one process per pass):

    python3 perfbench/worker.py --workload W --seed N --launched T \
        --dir PASS_DIR [--pass-id I] [--setup-only] [--trace]

Writes each config to PASS_DIR, loads and pre-flights it, then runs it
through ``orthres.cli.main(["run", path])`` and writes ``result.json``.
``--launched`` is the CLOCK_MONOTONIC time at which the parent started this
process, so ``setup_s`` includes interpreter start-up and imports.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from orthres import cli  # noqa: E402  (the set-up being measured)

import workloads  # noqa: E402


def run_pass(args):
    paths = []
    for i, cfg in enumerate(workloads.configs(args.workload, args.seed)):
        path = os.path.join(args.dir, f"config{i}.json")
        cfg = dict(cfg, output=os.path.join(args.dir, f"report{i}"))
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        cli.preflight(cli.load_config(path))
        paths.append(path)
    result = {"setup_s": time.monotonic() - args.launched}
    if args.setup_only:
        return result

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(pass_id=args.pass_id)
        tracing.install(tracer)
    codes = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        for path in paths:
            try:
                codes.append(cli.main(["run", path]))
            except Exception:  # a crash is a failed attempt, not a lost pass
                traceback.print_exc()
                codes.append(None)
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    result.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": codes,
        "reports": [os.path.join(args.dir, f"report{i}.json")
                    for i in range(len(paths))],
    })
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, wall)
        result["layers"]["process.cpu_s"] = result["cpu_s"]
        tracer.write_spans(os.path.join(args.dir, "spans.tsv"))
    return result


def environment():
    """What a result was measured on, beyond the parent's machine facts."""
    import numpy
    import scipy
    from orthres import _kernels
    import platform
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba_enabled": bool(_kernels.NUMBA_ENABLED)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    result = run_pass(args)
    result["environment"] = environment()
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
