"""Experiment runner.

JSON configs in, artifacts out: {prefix}.csv (sweep rows), {prefix}.json
(full trace + provenance), {prefix}.curves.tsv (plot-ready series) and
{prefix}.timing.json (wallclock, kept out of the deterministic report so
identical config + seed reproduces the report bit for bit).

Exit codes: 0 success, 2 invariant/solver violation, 3 config error.
"""

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, bsde, forward
from .mollify import (CATALOG as TERMINAL_CATALOG,
                      from_catalog as terminal_from_catalog,
                      l2_gap, lipschitz_scan,
                      mollify as gaussian_mollify)
from .errors import (ConfigError, OrthresError, NodeCapExceeded,
                     node_count_text)
from .gkw import SweepResult, residual_sweep
from .models import KINDS, ModelConfig, build, estimate_nodes, node_cap

# CPython's SHA-256 (_sha2 from 3.12): hashlib would map OpenSSL for one digest
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

# Largest grid a regularity or Lipschitz scan may ask for, and the most
# seeds a comparison campaign may run.
MAX_SCAN_POINTS = 10 ** 6
MAX_SEEDS = 10 ** 6

# Each experiment and the inputs it cannot run without.
EXPERIMENTS = {
    "residual_sweep": ("F", "K_list"),
    "vanishing_N": ("F", "driver", "K_list", "eps_list"),
    "dual_check": ("F", "driver", "K_list", "p_list"),
    "cascade": ("F", "driver"),
    "comparison_campaign": (),
    "mollify_sweep": ("F", "eps_list"),
    "regularity_scan": ("F", "driver"),
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    experiment: str
    # the model of every K the run builds: each K of a sweep's K_list where
    # the experiment needs one, or else the model block's K alone
    models: list
    output: str
    # the catalog objects of the F, driver and coeffs blocks, None without one
    F: object = None
    driver: object = None
    coeffs: object = None
    x0: float = 0.0
    eps_list: list = field(default_factory=list)
    p_list: list = field(default_factory=list)
    n_list: list = field(default_factory=list)
    seed: int = 0
    seeds: int = 100
    # the tolerances of the one experiment that reads each: a regularity
    # scan's (t_idx, m_grid), a mollify sweep's slope window (scan_lo,
    # scan_hi, scan_spacing) and a comparison campaign's tol_cmp
    scan: tuple = None
    window: tuple = None
    tol_cmp: float = None
    raw: dict = field(default_factory=dict)

    @property
    def model(self):
        return self.models[0]

    @property
    def config_hash(self):
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return sha256(blob).hexdigest()[:16]


def _number(value, name, cast=float):
    """``cast(value)``, or a ConfigError naming the field.  An ``int`` field
    rejects a fractional value instead of truncating it; none takes a bool."""
    try:
        if isinstance(value, bool) or cast is int and isinstance(
                value, float) and not value.is_integer():
            raise ValueError
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def _object(raw, name):
    """The optional JSON object ``name``; its ``params`` must be one too."""
    block = raw.get(name)
    if block is not None and not (isinstance(block, dict) and isinstance(
            block.get("params", {}), dict)):
        raise ConfigError(f"{name} must be an object with a params object")
    return block


def _block(raw, name, catalog, make, what):
    """``make(id, **params)`` of the optional block ``name``, whose id must
    name an entry of catalog; None without the block."""
    block = _object(raw, name)
    if block is None:
        return None
    cid = block.get("id")
    if not isinstance(cid, str) or cid not in catalog:
        raise ConfigError(f"unknown {what} id {cid!r}")
    try:
        return make(cid, **block.get("params", {}))
    except (TypeError, KeyError, ValueError) as e:
        raise ConfigError(f"catalog construction failed: {e}")


def _scan_grid(tol, K):
    """(t_idx, m_grid) of a regularity scan, taken out of ``tol``."""
    t_idx = _number(tol.pop("t_idx", 0), "t_idx", int)
    lo = _number(tol.pop("m_lo", -1.0), "m_lo")
    hi = _number(tol.pop("m_hi", 1.0), "m_hi")
    count = _number(tol.pop("m_count", 21), "m_count", int)
    if not 0 <= t_idx < K:
        raise ConfigError(f"t_idx must lie in [0, K) = [0, {K}), "
                          f"got {t_idx}")
    if not 2 <= count <= MAX_SCAN_POINTS or not -math.inf < lo < hi < math.inf:
        raise ConfigError(f"regularity_scan needs 2 <= m_count <= "
                          f"{MAX_SCAN_POINTS} and finite m_lo < m_hi")
    return t_idx, np.linspace(lo, hi, count)


def _lipschitz_window(tol):
    """(scan_lo, scan_hi, scan_spacing) of a mollify sweep's slope scan,
    taken out of ``tol``."""
    lo = _number(tol.pop("scan_lo", -2.0), "scan_lo")
    hi = _number(tol.pop("scan_hi", 2.0), "scan_hi")
    spacing = _number(tol.pop("scan_spacing", 1e-4), "scan_spacing")
    if not (-math.inf < lo < hi < math.inf and 0 < spacing <= hi - lo
            and (hi - lo) / spacing <= MAX_SCAN_POINTS):
        raise ConfigError(
            "mollify_sweep needs finite scan_lo < scan_hi and a scan_spacing "
            f"in (0, scan_hi - scan_lo] giving at most {MAX_SCAN_POINTS} "
            "points")
    return lo, hi, spacing


def parse_config(raw):
    """Validate a decoded JSON dict into an ExperimentConfig, building its
    catalog objects."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    exp = raw.get("experiment")
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {tuple(EXPERIMENTS)}, "
                          f"got {exp!r}")
    mraw = _object(raw, "model")
    if mraw is None or "kind" not in mraw:
        raise ConfigError("config needs a model object with a kind")
    if mraw["kind"] not in KINDS:
        raise ConfigError(f"unknown model kind {mraw['kind']!r}")
    K = _number(mraw.get("K", 8), "K", int)
    if _number(mraw.get("d", 1), "d", int) != 1:
        raise ConfigError(f"d must be 1 (M is scalar), got {mraw['d']!r}")
    T = _number(mraw.get("T", 1.0), "T")
    output = raw.get("output")
    if not output or not isinstance(output, str):
        raise ConfigError("config needs an output path prefix")
    # K is a mesh size, eps a mollification variance, p and n are truncation
    # and inf-convolution indices; a JSON bool is none of them
    lists = {}
    for name, ok, want in (
            ("K_list", lambda v: 0 < v <= sys.float_info.max
             and float(v).is_integer(),
             "positive integers"),
            ("eps_list", lambda v: 0 < v < 1, "numbers in (0, 1)"),
            ("p_list", lambda v: 1 <= v < math.inf, "finite numbers >= 1"),
            ("n_list", lambda v: 1 <= v < math.inf, "finite numbers >= 1")):
        vals = raw.get(name, [])
        if not isinstance(vals, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and ok(v) for v in vals):
            raise ConfigError(f"{name} must be a list of {want}")
        lists[name] = list(vals)
    ks = lists.pop("K_list")

    cfg = ExperimentConfig(
        experiment=exp, models=[], output=output, raw=raw, **lists,
        F=_block(raw, "F", TERMINAL_CATALOG, terminal_from_catalog,
                 "terminal map"),
        driver=_block(raw, "driver", bsde.DRIVER_CATALOG,
                      bsde.driver_from_catalog, "driver"),
        coeffs=_block(raw, "coeffs", forward.CATALOG, forward.from_catalog,
                      "coefficient"))
    if cfg.coeffs is not None:
        cfg.x0 = _number(raw["coeffs"].get("x0", 0.0), "x0")
        if not math.isfinite(cfg.x0):
            raise ConfigError(f"x0 must be finite, got {cfg.x0!r}")
        if cfg.coeffs.n != 1:
            raise ConfigError("x0 is a scalar, so the forward state must "
                              f"have n = 1, got n = {cfg.coeffs.n!r}")
    # a parameter's range may depend on K, so the model of every K the
    # experiment builds is checked
    for k in (ks if "K_list" in EXPERIMENTS[exp] else []) or [K]:
        try:
            cfg.models.append(ModelConfig(
                kind=mraw["kind"], K=int(k), T=T,
                params=dict(mraw.get("params", {}))))
        except OrthresError as e:
            raise ConfigError(f"{e} (at K = {k})")
    cfg.seed = _number(raw.get("seed", 0), "seed", int)
    cfg.seeds = _number(raw.get("seeds", 100), "seeds", int)
    if cfg.seed < 0 or not 1 <= cfg.seeds <= MAX_SEEDS:
        raise ConfigError(f"seed must be >= 0 and 1 <= seeds <= {MAX_SEEDS}")
    tol = raw.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances must be an object")
    tol = dict(tol)
    if exp == "regularity_scan":
        cfg.scan = _scan_grid(tol, cfg.model.K)
    elif exp == "mollify_sweep":
        cfg.window = _lipschitz_window(tol)
    elif exp == "comparison_campaign":
        cfg.tol_cmp = _number(tol.pop("tol_cmp", 1e-11), "tol_cmp")
        if not 0 <= cfg.tol_cmp < math.inf:
            raise ConfigError("tol_cmp must be a finite number >= 0, "
                              f"got {cfg.tol_cmp!r}")
    if tol:
        raise ConfigError(f"{exp} reads no tolerances key {min(tol)!r}")

    for need in EXPERIMENTS[exp]:
        if not (ks if need == "K_list" else getattr(cfg, need)):
            raise ConfigError(f"experiment {exp!r} requires {need}")
    if exp == "cascade" and len(cfg.p_list) > 1:
        raise ConfigError("cascade solves at one p, so p_list takes at most "
                          f"one entry, got {len(cfg.p_list)}")
    # the dual and the cascade are devices of the quadratic theory
    if exp in ("dual_check", "cascade") and cfg.driver.klass != "quadratic":
        raise ConfigError(f"{exp} needs a quadratic-class driver")
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    except ValueError as e:
        # a JSONDecodeError, or an integer literal past Python's digit limit
        raise ConfigError(f"malformed JSON in {path}: {e}")
    return parse_config(raw)


# ---------------------------------------------------------------------------
# pre-flight
# ---------------------------------------------------------------------------

def node_plan(cfg, cap):
    """Node estimate of each model the run builds, against ``cap``."""
    plan = []
    for m in cfg.models:
        est = estimate_nodes(m.kind, m.K, m.params)
        plan.append({"K": m.K, "node_estimate": est, "over_cap": est > cap})
    return plan


def preflight(cfg):
    """``node_plan`` at the node cap; raises NodeCapExceeded over the cap."""
    cap = node_cap()
    plan = node_plan(cfg, cap)
    worst = max(p["node_estimate"] for p in plan)
    if worst > cap:
        raise NodeCapExceeded(worst, cap)
    return plan


# ---------------------------------------------------------------------------
# experiment implementations
# ---------------------------------------------------------------------------

def _with_coords(fn, **coords):
    try:
        return fn()
    except OrthresError as e:
        where = ", ".join(f"{k}={v}" for k, v in coords.items())
        e.args = (f"{e} [at {where}]",)
        raise


def _loglog_slope(x, y):
    """Least-squares slope of log y against log x, or None where the points
    fix none: fewer than two distinct x, or a y that is not finite and > 0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(np.unique(x)) < 2 or not np.all(np.isfinite(y) & (y > 0)):
        return None
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _run_residual_sweep(cfg):
    sweep = SweepResult()
    for model in cfg.models:
        sweep.rows += _with_coords(lambda: residual_sweep([model], cfg.F),
                                   model=model.kind, K=model.K).rows
    rows = [{"K": r.K, "n_nodes": r.n_nodes, "bracketNN_T": r.bracketNN_T,
             "normalized": r.normalized} for r in sweep.rows]
    curves = {"bracketNN_T_vs_K": [(r.K, r.bracketNN_T) for r in sweep.rows]}
    summary = {
        "strictly_decreasing": sweep.strictly_decreasing(),
        "trend_statistic": sweep.trend_statistic(),
        # the vanishing rate: about -1/2 for indicators, -1 for smooth and
        # Lipschitz maps, near 0 where the residual does not vanish
        "loglog_slope": _loglog_slope([r.K for r in sweep.rows],
                                      sweep.residuals),
    }
    summary["verdict"] = ("PASS" if summary["strictly_decreasing"]
                          and summary["trend_statistic"] > 0 else "FAIL")
    return rows, curves, summary


def _run_vanishing_N(cfg):
    report = bsde.VanishingNReport()
    for model in cfg.models:
        part = _with_coords(
            lambda: bsde.vanishing_N_experiment(
                [model], cfg.coeffs, cfg.F, cfg.driver, cfg.eps_list,
                x0=cfg.x0),
            model=model.kind, K=model.K)
        report.rows.extend(part.rows)
    rows, curves = [], {}
    for r in report.rows:
        eps = None if math.isnan(r.eps) else r.eps
        rows.append({"K": r.K, "eps": "raw" if eps is None else eps,
                     "bracketNN_T": r.bracketNN_T, "y0": r.y0})
        name = "residual_vs_K_raw" if eps is None \
            else f"residual_vs_K_eps{eps:g}"
        curves.setdefault(name, []).append((r.K, r.bracketNN_T))
    raw_final, gaps = report.eps_gap_at_max_K()
    rel = {str(e): (g / raw_final if raw_final > 0 else g)
           for e, g in gaps.items()}
    raw = sorted((r.K, r.bracketNN_T) for r in report.rows
                 if math.isnan(r.eps))
    summary = {
        "decreasing_in_K_raw": report.decreasing_in_K(),
        "loglog_slope_raw": _loglog_slope(*zip(*raw)),
        "raw_residual_at_max_K": raw_final,
        "eps_gap_at_max_K": {str(e): g for e, g in gaps.items()},
        "eps_relative_gap_at_max_K": rel,
    }
    summary["verdict"] = ("PASS" if summary["decreasing_in_K_raw"]
                          else "FAIL")
    return rows, curves, summary


def _run_dual_check(cfg):
    F, growth = cfg.F, cfg.driver.growth
    # the tree and its clock depend only on K: build each once, solve every
    # p on it, and report the rows p-major
    points = {}
    for model in cfg.models:
        def setup():
            tree, M, clock, _ = bsde.setup_problem(model)
            return tree, M, clock, bsde._terminal_values(tree, M, None, F)
        K = model.K
        tree, M, clock, zeta = _with_coords(setup, model=model.kind, K=K)
        for p in cfg.p_list:
            def point():
                trunc = bsde.truncated_driver(float(p), growth)
                sol = bsde.solve_lipschitz(tree, M, clock, None, zeta, trunc)
                dv = bsde.dual_value(tree, M, clock, zeta, growth, float(p))
                return (sol.Y0, float(np.ravel(dv.value.values)[0]),
                        dv.floored_fraction)
            points[p, K] = _with_coords(point, model=model.kind, K=K, p=p)
    rows, curves = [], {}
    for p in cfg.p_list:
        for K in (m.K for m in cfg.models):
            primal, dual, fl = points[p, K]
            rows.append({"p": p, "K": K, "primal_Y0": primal,
                         "dual_Y0": dual, "gap": abs(primal - dual),
                         "floored_fraction": fl})
            curves.setdefault(f"gap_vs_K_p{p:g}", []).append(
                (K, abs(primal - dual)))
    summary = {}
    for p in cfg.p_list:
        gaps = [r["gap"] for r in rows if r["p"] == p]
        summary[f"p{p:g}"] = {
            "decreasing": bool(all(b < a for a, b in zip(gaps, gaps[1:]))),
            "final_gap": gaps[-1],
        }
    summary["verdict"] = ("PASS" if all(
        v["decreasing"] for k, v in summary.items() if k != "verdict")
        else "FAIL")
    return rows, curves, summary


def _run_cascade(cfg):
    def point():
        tree, M, clock, X = bsde.setup_problem(cfg.model, cfg.coeffs, cfg.x0)
        zeta = bsde._terminal_values(tree, M, X, cfg.F)
        kw = {"n_list": tuple(cfg.n_list)} if cfg.n_list else {}
        # the cascade's start p, if p_list gives one (it gives at most one)
        return bsde.solve_quadratic(tree, M, clock, X, zeta, cfg.driver,
                                    *cfg.p_list, **kw)
    sol = _with_coords(point, model=cfg.model.kind, K=cfg.model.K)
    trace = sol.diagnostics["cascade_trace"]
    rows = [dict(s) for s in trace.stages]
    curves = {"y_sup_vs_stage": [(i, s["y_sup"])
                                 for i, s in enumerate(trace.stages)]}
    summary = {
        "Y0": sol.Y0,
        "y_sup": sol.y_sup,
        "bracketNN_T": sol.bracketNN_T,
        # the BMO norm of Z.M + N, which the quadratic theory needs bounded
        "bmo_norm": sol.bmo_norm(),
        "monotone_violation_n": trace.monotone_violation_n,
        "certified": trace.certified,
        "verdict": "PASS" if trace.certified
        and trace.monotone_violation_n <= 1e-8 else "FAIL",
    }
    return rows, curves, summary


def _affine_driver(ky, kz, c0):
    """f = ky*y + kz*z + c0; the parameters may be (B,) arrays, one per
    column of a batched solve."""
    return bsde.DriverSpec(
        id="affine", klass="lipschitz",
        f=lambda t, x, m, y, z: ky * y + kz * z + c0,
        growth={"a": abs(c0), "b": abs(ky), "gamma": 0.0},
        y_part=(ky, 0.0))


def _random_affine_pair(rng, mterm):
    """Ordered terminal data and the (ky, kz, c0) of ordered affine drivers
    for one seed."""
    a = rng.uniform(-1, 1)
    c = rng.uniform(0.2, 1.5)
    zeta2 = a * np.clip(mterm, -c, c) + rng.uniform(-0.5, 0.5)
    zeta1 = zeta2 + rng.uniform(0.0, 1.0)
    ky, kz = rng.uniform(-0.8, 0.8), rng.uniform(-1.0, 1.0)
    c2 = rng.uniform(-0.5, 0.5)
    gap = rng.uniform(0.0, 1.0)
    return zeta1, zeta2, (ky, kz, c2 + gap), (ky, kz, c2)


def _run_comparison_campaign(cfg):
    """One pair of ordered solves per seed, each seed drawn from its own
    generator.  A group of h seeds is solved and compared in one streamed
    sweep of 2h columns (every seed's first solve, then every seed's
    second), sized by the sweep byte budget."""
    tree, M, clock, _ = bsde.setup_problem(cfg.model)
    lo, hi = tree.level_slice(tree.K)
    mterm = M.range(lo, hi)
    group = max(1, bsde.columns_per_sweep(tree) // 2)
    end = cfg.seed + cfg.seeds
    rows = []
    worst = 0.0
    for first in range(cfg.seed, end, group):
        seeds = range(first, min(first + group, end))
        zeta1, zeta2, p1, p2 = zip(*(
            _random_affine_pair(np.random.default_rng(s), mterm)
            for s in seeds))
        zeta = np.column_stack(zeta1 + zeta2)
        ky, kz, c0 = np.array(p1 + p2).T
        verdicts = _with_coords(
            lambda: bsde.compare(tree, M, clock, None, zeta,
                                 _affine_driver(ky, kz, c0),
                                 tol_cmp=cfg.tol_cmp),
            model=cfg.model.kind, seeds=f"{seeds[0]}..{seeds[-1]}")
        for seed, verdict in zip(seeds, verdicts):
            worst = max(worst, verdict.worst_violation)
            rows.append({"seed": seed,
                         "applicable": verdict.applicable,
                         "ok": verdict.ok,
                         "violation": verdict.worst_violation})
    curves = {"violation_vs_seed": [(r["seed"], r["violation"])
                                    for r in rows]}
    summary = {"n_seeds": cfg.seeds, "worst_violation": worst,
               "all_ok": bool(all(r["ok"] for r in rows)),
               "verdict": "PASS" if all(r["ok"] for r in rows) else "FAIL"}
    return rows, curves, summary


def _run_mollify_sweep(cfg):
    F = cfg.F
    built = build(cfg.model)
    tree, M = built.tree, built.M
    scan_lo, scan_hi, spacing = cfg.window
    rows, curves = [], {"lipschitz_vs_eps": [], "l2_gap_vs_eps": []}
    for eps in cfg.eps_list:
        def point():
            Fe = gaussian_mollify(F, float(eps))
            lip = lipschitz_scan(Fe, scan_lo, scan_hi, spacing)
            gap = l2_gap(tree, M, F, Fe)
            return lip, gap
        lip, gap = _with_coords(point, F=F.id, eps=eps)
        rows.append({"eps": eps, "lipschitz_constant": lip, "l2_gap": gap})
        curves["lipschitz_vs_eps"].append((eps, lip))
        curves["l2_gap_vs_eps"].append((eps, gap))
    lips = np.array([r["lipschitz_constant"] for r in rows])
    eps = np.array([r["eps"] for r in rows])
    summary = {"loglog_slope": _loglog_slope(eps, lips) or 0.0,
               "gap_nonincreasing": bool(np.all(np.diff(
                   [r["l2_gap"] for r in rows]) <= 1e-15))}
    summary["verdict"] = "PASS" if summary["gap_nonincreasing"] else "FAIL"
    return rows, curves, summary


def _run_regularity_scan(cfg):
    t_idx, m_grid = cfg.scan

    def point():
        built = build(cfg.model)
        return bsde.regularity_scan(
            built.tree, built.M, t_idx, m_grid, cfg.F, cfg.driver,
            coeffs=cfg.coeffs, x0=cfg.x0)
    scan = _with_coords(point, model=cfg.model.kind, K=cfg.model.K,
                        t_idx=t_idx)
    rows = [{"m": float(m), "u": float(u)}
            for m, u in zip(scan.grid, scan.u)]
    curves = {"u_vs_m": [(r["m"], r["u"]) for r in rows]}
    summary = {"sup_u": scan.sup_u, "inf_u": scan.inf_u,
               "max_first_diff": scan.max_first_diff,
               "max_second_diff": scan.max_second_diff,
               "max_grad_gap": scan.max_grad_gap,
               "verdict": "PASS"}
    return rows, curves, summary


RUNNERS = {
    "residual_sweep": _run_residual_sweep,
    "vanishing_N": _run_vanishing_N,
    "dual_check": _run_dual_check,
    "cascade": _run_cascade,
    "comparison_campaign": _run_comparison_campaign,
    "mollify_sweep": _run_mollify_sweep,
    "regularity_scan": _run_regularity_scan,
}


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_reports(cfg, rows, curves, summary, wallclock_s):
    h = cfg.config_hash
    cols = list(rows[0].keys()) if rows else []
    lines = [",".join(cols + ["config_hash"])]
    for r in rows:
        lines.append(",".join([_fmt(r[c]) for c in cols] + [h]))
    _atomic_write(cfg.output + ".csv", "\n".join(lines) + "\n")

    report = {
        "config": cfg.raw,
        "config_sha256": h,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "orthres": __version__,
        },
        "experiment": cfg.experiment,
        "rows": rows,
        "summary": summary,
    }
    _atomic_write(cfg.output + ".json",
                  json.dumps(report, sort_keys=True, indent=2,
                             default=_fmt) + "\n")

    tsv = []
    for name in sorted(curves):
        tsv.append(f"# {name}")
        for x, y in curves[name]:
            tsv.append(f"{_fmt(x)}\t{_fmt(y)}")
        tsv.append("")
    _atomic_write(cfg.output + ".curves.tsv", "\n".join(tsv) + "\n")

    _atomic_write(cfg.output + ".timing.json",
                  json.dumps({"wallclock_s": wallclock_s,
                              "config_sha256": h}) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args):
    cfg = load_config(args.config)
    preflight(cfg)
    t0 = time.perf_counter()
    # overflow in a huge but finite driver parameter is not reported by
    # numpy on stderr: a non-finite Y still ends in exit 2 through the
    # adapted-process and implicit-step checks
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows, curves, summary = RUNNERS[cfg.experiment](cfg)
    wall = time.perf_counter() - t0
    write_reports(cfg, rows, curves, summary, wall)
    print(f"{cfg.experiment}: {len(rows)} rows -> {cfg.output}.csv "
          f"[{summary.get('verdict', 'DONE')}]")
    return 0


def cmd_verify(args):
    cfg = load_config(args.config)
    cap = node_cap()
    plan = node_plan(cfg, cap)
    print(f"experiment: {cfg.experiment}")
    print(f"model: {cfg.model.kind} (T={cfg.model.T}, "
          f"params={cfg.model.params})")
    for name, what in (("F", "terminal map"), ("driver", "driver")):
        if getattr(cfg, name) is not None:
            block = cfg.raw[name]
            print(f"{what}: {block['id']} {block.get('params', {})}")
    print(f"node cap: {cap}")
    print(f"{'K':>6} {'node estimate':>14}  status")
    for p in plan:
        flag = "OVER CAP" if p["over_cap"] else "ok"
        count = node_count_text(p["node_estimate"], cap)
        print(f"{p['K']:>6} {count:>14}  {flag}")
    if any(p["over_cap"] for p in plan):
        print("warning: at least one sweep point exceeds the node cap; "
              "run would abort (raise ORTHRES_NODE_CAP to proceed)")
    return 0


def cmd_catalog(args):
    print("models:")
    for k in KINDS:
        print(f"  {k}")
    print("terminal maps:")
    for k in sorted(TERMINAL_CATALOG):
        print(f"  {k}")
    print("drivers:")
    for k in sorted(bsde.DRIVER_CATALOG):
        print(f"  {k}")
    print("forward coefficients:")
    for k in sorted(forward.CATALOG):
        print(f"  {k}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="orthres",
        description="scenario-tree experiments for martingale representation "
                    "and quadratic BSDEs")
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to JSON config")
    p_run.set_defaults(fn=cmd_run)
    p_ver = sub.add_parser("verify", help="validate a config and print the "
                                          "execution plan")
    p_ver.add_argument("config", help="path to JSON config")
    p_ver.set_defaults(fn=cmd_verify)
    p_cat = sub.add_parser("catalog", help="list available catalog ids")
    p_cat.set_defaults(fn=cmd_catalog)
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except OrthresError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
