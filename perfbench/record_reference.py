"""Record reference.json: one pass of every workload, seed 0.

    python3 perfbench/record_reference.py

Run this only on a commit whose reports are known to be right; the gate in
run.py compares every later report with what it writes.
"""

import json
import os
import shutil
import tempfile

import run
import workloads


def main():
    os.makedirs(run.RUN_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=run.RUN_DIR)
    reference = {}
    try:
        for name in workloads.WORKLOADS:
            res = run.run_process(name, 0, os.path.join(work, name), 0)
            if res is None or any(c != 0 for c in res["exit_codes"]):
                raise SystemExit(f"{name}: pass failed, nothing recorded")
            reference[name] = []
            for path in res["reports"]:
                with open(path) as fh:
                    reference[name].append(workloads.essence(json.load(fh)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
