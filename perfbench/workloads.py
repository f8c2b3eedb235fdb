"""The benchmark's workloads and the correctness gate on their reports.

Each workload is a list of ordinary ``orthres run`` experiment configs. Only
``solve_campaign`` takes the benchmark seed (as the campaign's ``seed``); the
other configs are fixed, so their reports are compared value by value with
``reference.json``. See README.md for why each workload exists.
"""

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# The solvers stop at 1e-12, so 1e-9 relative admits reordered sums but not a
# different answer; the absolute floor covers values that are exactly 0.
RTOL = 1e-9
ATOL = 1e-12

# Report columns that carry computed numbers; every other column is an input
# echo or a flag and must match exactly.
NUMERIC_FIELDS = ("bracketNN_T", "y0", "primal_Y0", "dual_Y0", "violation",
                  "u", "normalized", "gap", "floored_fraction")


def configs(workload, seed):
    """The experiment configs of one workload, without the ``output`` key."""
    if workload == "lattice_refine":
        return [
            {"experiment": "vanishing_N", "model": {"kind": "trinomial"},
             "F": {"id": "indicator_halfspace"}, "driver": {"id": "zero"},
             "K_list": [256, 512, 1024], "eps_list": [0.01]},
            {"experiment": "residual_sweep",
             "model": {"kind": "compensated_jump"},
             "F": {"id": "indicator_halfspace"}, "K_list": [64, 96, 128]},
        ]
    if workload == "solve_campaign":
        return [
            {"experiment": "comparison_campaign",
             "model": {"kind": "trinomial", "K": 256},
             "seeds": 100, "seed": seed},
            {"experiment": "dual_check", "model": {"kind": "trinomial"},
             "F": {"id": "indicator_halfspace"},
             "driver": {"id": "quadratic_mixed",
                        "params": {"gamma": 1.0, "b": 0.5, "eta": 0.1}},
             "K_list": [256], "p_list": [2, 4]},
        ]
    if workload == "restart_scan":
        return [
            {"experiment": "regularity_scan",
             "model": {"kind": "trinomial", "K": 128},
             "F": {"id": "sine"},
             "driver": {"id": "pure_quadratic", "params": {"gamma": 1.0}},
             "coeffs": {"id": "identity", "x0": 0.0},
             "tolerances": {"t_idx": 48, "m_lo": -1.0, "m_hi": 1.0,
                            "m_count": 41}},
        ]
    raise KeyError(f"unknown workload {workload!r}")


WORKLOADS = ("lattice_refine", "solve_campaign", "restart_scan")


def essence(report):
    """The parts of a ``{prefix}.json`` report the gate compares."""
    rows = []
    for row in report["rows"]:
        row = dict(row)
        # the campaign's seed column echoes the benchmark seed; check_report
        # verifies it separately so one reference serves every seed
        if report["experiment"] == "comparison_campaign":
            row.pop("seed")
        rows.append(row)
    out = {"experiment": report["experiment"], "rows": rows,
           "verdict": report["summary"].get("verdict")}
    if "all_ok" in report["summary"]:
        out["all_ok"] = report["summary"]["all_ok"]
    return out


def _close(a, b):
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def check_report(report, expected, seed):
    """Differences between one report and its reference, as messages."""
    got = essence(report)
    misses = []
    if got["experiment"] != expected["experiment"]:
        return [f"experiment {got['experiment']!r} != "
                f"{expected['experiment']!r}"]
    if len(got["rows"]) != len(expected["rows"]):
        return [f"{got['experiment']}: {len(got['rows'])} rows, expected "
                f"{len(expected['rows'])}"]
    for key in ("verdict", "all_ok"):
        if got.get(key) != expected.get(key):
            misses.append(f"{got['experiment']}: {key} {got.get(key)!r} != "
                          f"{expected.get(key)!r}")
    if got["experiment"] == "comparison_campaign":
        seeds = [r["seed"] for r in report["rows"]]
        if seeds != list(range(seed, seed + len(seeds))):
            misses.append("comparison_campaign: seed column does not run "
                          f"from {seed}")
    for i, (g, e) in enumerate(zip(got["rows"], expected["rows"])):
        if set(g) != set(e):
            misses.append(f"{got['experiment']} row {i}: columns "
                          f"{sorted(g)} != {sorted(e)}")
            continue
        for col in sorted(e):
            a, b = g[col], e[col]
            if col in NUMERIC_FIELDS:
                ok = (isinstance(a, (int, float)) and math.isfinite(a)
                      and _close(a, b))
            else:
                ok = a == b
            if not ok:
                misses.append(f"{got['experiment']} row {i}: {col} {a!r} "
                              f"!= reference {b!r}")
    return misses


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
