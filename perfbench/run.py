"""orthres benchmark: workloads run through ``orthres run`` in fresh processes.

    python3 perfbench/run.py --workload lattice_refine --seed 1 \
        --seconds 40 --trace 0

Each pass is a fresh single-threaded process that runs the workload's configs
back to back (a closed loop with one client). Passes repeat until the next
one would end after ``--seconds``; at least one pass always runs, because a
pass cannot be split. Extra set-up-only processes bring the set-up samples to
SETUP_SAMPLES. Every report is checked against ``reference.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` one untraced and one traced pass run and it carries the
per-layer metrics. ``--workload all`` runs every workload in turn. The exit
code is 1 when any attempt failed (non-zero exit, exception, or a report off
its reference), 2 when the benchmark cannot run at all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_SAMPLES = 5
# A run of one workload must end within 180 s; a pass still running this
# long after the workload started is killed and counts as failed.
DEADLINE_S = 170
# Single-threaded BLAS/OpenMP pools; the node cap and kernel selection at
# their defaults.
PINNED_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}
UNSET_ENV = ("ORTHRES_NODE_CAP", "ORTHRES_DISABLE_NUMBA")


def machine():
    """Facts about the host, recorded with every result."""
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    info["caches"] = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            if idx.startswith("index"):
                level, kind, size = (_read(os.path.join(base, idx, f))
                                     for f in ("level", "type", "size"))
                info["caches"][f"L{level}{kind[0].lower()}"] = size
    except OSError:
        pass
    return info


def _read(path):
    with open(path) as fh:
        return fh.read().strip()


def pass_env():
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    return env


def run_process(workload, seed, pass_dir, pass_id, setup_only=False,
                trace=False, timeout=DEADLINE_S):
    """Start one worker, wait for it, and return its result (None if it
    left none)."""
    os.makedirs(pass_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--dir", pass_dir,
           "--pass-id", str(pass_id)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    with open(os.path.join(pass_dir, "log.txt"), "w") as log:
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--launched", repr(launched)],
                                  env=pass_env(), stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
    path = os.path.join(pass_dir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def check_pass(result, workload, seed, reference):
    """Failure messages per config of one pass; an empty list is a pass."""
    n = len(workloads.configs(workload, seed))
    if result is None:
        return [["pass process failed"]] * n
    out = []
    for i, (code, path) in enumerate(zip(result["exit_codes"],
                                         result["reports"])):
        if code != 0:
            out.append([f"exit code {code}"])
            continue
        with open(path) as fh:
            report = json.load(fh)
        out.append(workloads.check_report(report, reference[workload][i],
                                          seed))
    return out


def unit(name):
    if name.endswith("_s"):
        return "1/s" if name.endswith("per_s") else "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "B"
    if name.endswith(("_ratio", "_fraction")):
        return "ratio"
    return "count"


class Outcome:
    """Attempts, failures and metrics of one workload's run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.misses = []          # (pass, config, message)
        self.failed = 0
        self.metrics = {}
        self.samples = {}
        self.environment = {}

    def record(self, pass_id, per_config):
        for i, msgs in enumerate(per_config):
            self.attempted += 1
            self.failed += bool(msgs)
            self.misses += [(pass_id, i, m) for m in msgs]


def run_workload(workload, seed, seconds, trace, reference, work_dir,
                 deadline):
    out = Outcome(workload)

    def one(setup_only=False, traced=False):
        idx = len(os.listdir(work_dir))
        res = run_process(workload, seed, os.path.join(work_dir, f"p{idx}"),
                          idx, setup_only, traced,
                          timeout=max(deadline - time.monotonic(), 1.0))
        if not setup_only:
            out.record(idx, check_pass(res, workload, seed, reference))
        if res is not None:
            out.environment = res["environment"]
        return res

    if trace:
        untraced, traced = one(), one(traced=True)
        if untraced is not None and traced is not None:
            out.metrics = dict(traced["layers"])
            out.metrics["trace.untraced_wall_s"] = untraced["wall_s"]
            out.metrics["trace.overhead_s"] = (traced["wall_s"]
                                               - untraced["wall_s"])
            shutil.copy(os.path.join(work_dir, "p1", "spans.tsv"),
                        os.path.join(RUN_DIR, f"{workload}.spans.tsv"))
        return out

    start = time.monotonic()
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(one())
        took = time.monotonic() - t0
        if time.monotonic() - start + took > seconds:
            break
    ok = [r for r in passes if r is not None]
    setups = [r["setup_s"] for r in ok]
    while len(setups) < SETUP_SAMPLES:
        probe = one(setup_only=True)
        if probe is None:
            break
        setups.append(probe["setup_s"])
    if ok and setups:
        out.metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in ok),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        }
        out.samples = {"wall_s": [r["wall_s"] for r in ok],
                       "setup_s": setups,
                       "peak_rss_mb": [r["peak_rss_mb"] for r in ok]}
    return out


def print_outcome(out, trace):
    w = out.workload
    for p, i, msg in out.misses:
        print(f"{w}: MISS pass {p} config {i}: {msg}")
    if trace:
        wall = out.metrics.get("trace.wall_s", 0.0)
        print(f"{w}: traced pass {wall:.3f} s, untraced "
              f"{out.metrics.get('trace.untraced_wall_s', 0.0):.3f} s")
        for name in sorted(out.metrics):
            if name.endswith(".self_s") or name == "trace.unattributed_s":
                v = out.metrics[name]
                share = v / wall if wall else 0.0
                print(f"{w}: {name:<24} {v:10.4f} s  {share:6.1%}")
    else:
        for name, v in out.metrics.items():
            s = out.samples[name]
            print(f"{w}: {name:<12} {v:.6g} {unit(name)} (median of "
                  f"{len(s)}, range {min(s):.6g}..{max(s):.6g})")
    print(f"{w}: fail_ratio   {out.failed}/{out.attempted} "
          f"failed/attempted configs")


def result_line(outcomes, prefix):
    metrics = {}
    for out in outcomes:
        for name, v in out.metrics.items():
            key = f"{out.workload}.{name}" if prefix else name
            metrics[key] = {"value": v, "unit": unit(name)}
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    complete = all(o.metrics for o in outcomes)
    return {"correct": failed == 0 and complete,
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "orthres", "cli.py")):
        print(f"perfbench: no orthres sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    os.makedirs(RUN_DIR, exist_ok=True)
    work_root = tempfile.mkdtemp(dir=RUN_DIR)
    outcomes = []
    try:
        for name in names:
            work_dir = os.path.join(work_root, name)
            os.makedirs(work_dir)
            outcomes.append(run_workload(
                name, args.seed, args.seconds, args.trace, reference,
                work_dir, deadline=time.monotonic() + DEADLINE_S))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    setting = {"seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine(),
               "pinned_env": PINNED_ENV, "unset_env": list(UNSET_ENV),
               "environment": outcomes[-1].environment}
    print("# measured on " + json.dumps(setting, sort_keys=True))
    for out in outcomes:
        print_outcome(out, args.trace)
    line = result_line(outcomes, prefix=len(outcomes) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
