"""Acceptance suite.

Each test covers one numbered criterion (A1-A10) at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s to see them all; failing
criteria show theirs in the failure output).
"""

import json
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from orthres import bsde
from orthres.cli import main as cli_main
from orthres.ftree import predictable_bracket
from orthres.gkw import gkw_decompose, residual_sweep
from orthres.mollify import (CATALOG as TERMINAL_CATALOG, from_catalog,
                             indicator_halfspace, lipschitz_scan, mollify)
from orthres.models import ModelConfig, build

from reference import (markov_grouping_check, path_prob,
                       predictable_bracket_range, product_noise_coin)

K_SWEEP = [8, 16, 32, 64]


def _report(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}" \
        + (f"  [{detail}]" if detail else "")
    print(line)
    assert ok, line


def _vanishes_at_rate(sw, rate):
    """Rate clause: the least-squares slope of log residual against log K
    over the sweep lies within ``rate +- 0.1``.  Returns (ok, slope)."""
    K = [row.K for row in sw.rows]
    slope = float(np.polyfit(np.log(K), np.log(sw.residuals), 1)[0])
    return abs(slope - rate) <= 0.1, slope


def _setup(kind, K, **params):
    built = build(ModelConfig(kind, K=K, params=params))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(K)
    return built, tree, M, clock, M.values[lo:hi]


TERMINAL_DEFAULTS = {"custom_polynomial": {"coeffs": [1.0, 0.0, -1.0]}}


def test_A1_exact_representation_on_complete_branching():
    worst = 0.0
    for K in range(1, 65):
        built = build(ModelConfig("binary", K=K))
        tree, M = built.tree, built.M
        lo, hi = tree.level_slice(K)
        for fid in sorted(TERMINAL_CATALOG):
            F = from_catalog(fid, **TERMINAL_DEFAULTS.get(fid, {}))
            t0 = time.perf_counter()
            res = gkw_decompose(tree, M, predictable_bracket(tree, M),
                                F(M.values[lo:hi]))
            assert time.perf_counter() - t0 < 1.0
            worst = max(worst, res.bracketNN_T)
    _report("A1", worst <= 1e-12, f"worst residual {worst:.3e}")


def test_A2_vanishing_residual_trinomial_indicator():
    F = indicator_halfspace()
    sw = residual_sweep(lambda K: ModelConfig("trinomial", K=K),
                        lambda s: F(s), K_SWEEP)
    # bounded Borel payoffs: squared hedging error O(dt^(1/2)) (Gobet &
    # Temam 2001; Geiss 2002), so the residual vanishes like K^(-1/2)
    rate_ok, slope = _vanishes_at_rate(sw, -0.5)
    ratio = sw.residuals[-1] / sw.residuals[0]
    ok = sw.strictly_decreasing() and rate_ok
    _report("A2", ok,
            f"strictly decreasing: {sw.strictly_decreasing()}, "
            f"log-log slope {slope:.3f} (needs -0.5 +- 0.1), "
            f"final/initial = {ratio:.3f} vs 8^(-1/2) = {8 ** -0.5:.3f}")


def test_rate_clause_rejects_other_classes():
    # the two-sided jump control does not vanish (slope ~ +0.13) and a
    # smooth payoff vanishes like K^(-1) (slope ~ -1.0): both miss -1/2
    for kind, fid in (("compensated_jump", "indicator_halfspace"),
                      ("trinomial", "square")):
        F = from_catalog(fid)
        sw = residual_sweep(lambda K: ModelConfig(kind, K=K),
                            lambda s: F(s), K_SWEEP)
        rate_ok, slope = _vanishes_at_rate(sw, -0.5)
        assert not rate_ok, (kind, fid, slope)


def test_A3_vanishing_N_for_quadratic_bsde():
    t0 = time.perf_counter()
    rep = bsde.vanishing_N_experiment(
        lambda K: ModelConfig("trinomial", K=K), None, indicator_halfspace(),
        bsde.driver_from_catalog("pure_quadratic", gamma=1.0),
        [0.1, 0.01], K_SWEEP)
    elapsed = time.perf_counter() - t0
    decr = rep.decreasing_in_K() and all(rep.decreasing_in_K(e)
                                         for e in (0.1, 0.01))
    kmax = max(K_SWEEP)
    y_raw = next(r.y0 for r in rep.rows if r.K == kmax and math.isnan(r.eps))
    rel = {e: abs(next(r.y0 for r in rep.rows
                       if r.K == kmax and r.eps == e) - y_raw) / abs(y_raw)
           for e in (0.1, 0.01)}
    ok = decr and all(g <= 0.05 for g in rel.values()) and elapsed < 60
    _report("A3", ok,
            f"residuals decreasing: {decr}, value gaps at K=64: "
            f"{rel[0.1]:.3%} (eps=0.1), {rel[0.01]:.3%} (eps=0.01), "
            f"{elapsed:.1f}s")


def test_A4_negative_controls():
    # (a) jump model: residual floor never below half its coarsest value
    F = from_catalog("square")
    sw = residual_sweep(lambda K: ModelConfig("compensated_jump", K=K),
                        lambda s: F(s), K_SWEEP)
    floor_ok = bool(np.all(sw.residuals >= 0.5 * sw.residuals[0]))

    # (b) product-noise with terminal depending only on the independent coin:
    # Z must vanish and the residual equals Var(coin) = 1 exactly
    built, tree, M, clock, _ = _setup("product_noise", 6)
    lo, hi = tree.level_slice(tree.K)
    zeta = product_noise_coin(tree)[lo:hi]
    res = gkw_decompose(tree, M, clock, zeta)
    var_floor = 1.0  # fair coin: E=0, Var=1, independent of M
    indep_ok = res.bracketNN_T >= var_floor - 1e-10
    _report("A4", floor_ok and indep_ok,
            f"jump floor ok: {floor_ok} (min ratio "
            f"{(sw.residuals / sw.residuals[0]).min():.2f}), "
            f"independence residual {res.bracketNN_T:.12f} >= {var_floor}")


def test_A4_product_noise_control_as_a_rate():
    """The coin-only terminal keeps its whole variance in N at every mesh:
    the residual is Var(coin) = 1 for K = 2..6, a log-log slope of 0."""
    Ks = list(range(2, 7))
    residuals = []
    for K in Ks:
        built = build(ModelConfig("product_noise", K=K))
        tree, M = built.tree, built.M
        assert tree.child_stride == 4
        lo, hi = tree.level_slice(K)
        zeta = product_noise_coin(tree)[lo:hi]
        residuals.append(gkw_decompose(
            tree, M, predictable_bracket(tree, M), zeta).bracketNN_T)
    slope = float(np.polyfit(np.log(Ks), np.log(residuals), 1)[0])
    npt.assert_allclose(residuals, 1.0, rtol=0, atol=1e-12)
    assert abs(slope) <= 1e-9, slope


def test_A5_cascade_correctness():
    t0 = time.perf_counter()
    # (a)+(b): monotone cascade and the uniform a-priori bound
    built, tree, M, clock, mterm = _setup("binary", 64)
    zeta = 0.5 * np.clip(mterm[:, 0], -1, 1)
    drv = bsde.driver_from_catalog("quadratic_mixed", gamma=1.0, b=0.5,
                                   eta=0.2)
    sol = bsde.solve_quadratic(tree, M, clock, None, zeta, drv)
    trace = sol.diagnostics["cascade_trace"]
    mono_ok = trace.monotone_violation_n <= 1e-8
    C_K = float(predictable_bracket_range(tree, M).C[-1])
    bound = math.exp(0.5 * C_K) * (0.5 + 0.2 * C_K) + 1e-8
    bound_ok = all(s["y_sup"] <= bound for s in trace.stages)

    # (c) entropic closed form for the pure quadratic driver
    errs = []
    for K in K_SWEEP:
        _, tr, Mk, ck, mt = _setup("binary", K)
        zk = 0.5 * np.clip(mt[:, 0], -1, 1)
        s = bsde.solve_quadratic(tr, Mk, ck, None, zk,
                                 bsde.driver_from_catalog("pure_quadratic",
                                                          gamma=1.0))
        lo = tr.level_slice(K)[0]
        ref = math.log(float(path_prob(tr)[lo:] @ np.exp(zk)))
        errs.append(abs(s.Y0 - ref))
    ch_ok = errs[-1] <= 2e-2 and all(b < a for a, b in zip(errs, errs[1:]))
    elapsed = time.perf_counter() - t0
    _report("A5", mono_ok and bound_ok and ch_ok and elapsed < 120,
            f"monotone: {mono_ok}, bound: {bound_ok}, "
            f"closed-form errors {['%.1e' % e for e in errs]}, {elapsed:.1f}s")


def test_A6_approximation_layer_oracles():
    # (a) grid-search inf-convolution vs the closed-form envelope
    gamma, n, step = 1.0, 2, bsde.GRID_STEP
    quad = bsde.driver_from_catalog("pure_quadratic", gamma=gamma)
    blind = bsde.DriverSpec(id="blind", klass="quadratic", f=quad.f,
                            growth=dict(quad.growth), nonnegative=True)
    z = np.linspace(-2.5, 2.5, 1000)
    zero = np.zeros_like(z)
    got = bsde.inf_convolve(blind, n)(0.0, None, z, zero, z)
    ref = bsde.huber_envelope(z, n / gamma, gamma)
    a_err = float(np.max(np.abs(got - ref)))
    a_ok = a_err <= step * n

    # (b) truncated driver equals its formula at random points
    rng = np.random.default_rng(7)
    growth = {"a": 0.3, "b": 0.7, "gamma": 2.0}
    q_p = bsde.truncated_driver(2.0, growth)
    y = rng.normal(0, 3, 1000)
    zz = rng.normal(0, 3, 1000)
    exact = bsde.huber_envelope(zz, 2.0, 2.0) + 0.7 * np.abs(y) + 0.3
    b_ok = bool(np.all(q_p(0.0, None, zz, y, zz) == exact))

    # (c) mollified-indicator Lipschitz constant scales like eps^{-1/2}
    eps = np.array([1e-1, 1e-2, 1e-3])
    lips = [lipschitz_scan(mollify(indicator_halfspace(), e), -1, 1, 2e-4)
            for e in eps]
    slope = float(np.polyfit(np.log(eps), np.log(lips), 1)[0])
    c_ok = abs(slope + 0.5) <= 0.1
    _report("A6", a_ok and b_ok and c_ok,
            f"envelope err {a_err:.3f} <= {step * n}, formula exact: {b_ok}, "
            f"log-log slope {slope:.3f}")


def test_A7_duality_gap_trend():
    growth = {"a": 0.2, "b": 1.0, "gamma": 1.0}
    details = []
    ok = True
    for p in (1.0, 2.0):
        gaps = []
        for K in (8, 16, 32):
            _, tree, M, clock, mterm = _setup("binary", K)
            zeta = 0.5 * np.clip(mterm[:, 0], -1, 1)
            sol = bsde.solve_lipschitz(tree, M, clock, None, zeta,
                                       bsde.truncated_driver(p, growth,
                                                             eta=0.2))
            dv = bsde.dual_value(tree, M, clock, zeta, growth, p, eta=0.2)
            gaps.append(abs(sol.Y0 - float(np.ravel(dv.value.values)[0])))
        ok = ok and all(b < a for a, b in zip(gaps, gaps[1:])) \
            and gaps[-1] < 5e-2
        details.append(f"p={p:g}: {['%.1e' % g for g in gaps]}")
    _report("A7", ok, "; ".join(details))


def test_A8_comparison_campaign():
    from orthres.cli import _affine_driver, _random_affine_pair
    _, tree, M, clock, mterm = _setup("binary", 8)
    # the 100 seeds' pairs in one streamed sweep: every seed's first column,
    # then every seed's second
    z1, z2, p1, p2 = zip(*(
        _random_affine_pair(np.random.default_rng(seed), mterm[:, 0])
        for seed in range(100)))
    verdicts = bsde.compare(tree, M, clock, None, np.column_stack(z1 + z2),
                            _affine_driver(*np.array(p1 + p2).T))
    assert len(verdicts) == 100
    worst = 0.0
    for v in verdicts:
        assert v.applicable
        worst = max(worst, v.worst_violation)
    _report("A8", worst <= 1e-11, f"worst violation {worst:.2e} over 100 seeds")


def test_A9_markov_grouping():
    built, tree, M, clock, mterm = _setup("product_noise", 5)
    lo, hi = tree.level_slice(tree.K)
    f = bsde.driver_from_catalog("zero")
    markov = bsde.solve_lipschitz(tree, M, clock, None, mterm[:, 0] ** 2, f)
    s_markov = markov_grouping_check(tree, None, M, markov)
    auxdep = bsde.solve_lipschitz(tree, M, clock, None,
                                  product_noise_coin(tree)[lo:hi], f)
    s_aux = markov_grouping_check(tree, None, M, auxdep)
    ok = s_markov <= 1e-10 and s_aux >= 0.5
    _report("A9", ok, f"Markov spread {s_markov:.2e}, "
                      f"aux-dependent spread {s_aux:.2f}")


def test_A10_bit_identical_reports(tmp_path):
    cfgs = [
        {"experiment": "residual_sweep",
         "model": {"kind": "trinomial", "K": 8},
         "output": str(tmp_path / "rs"),
         "F": {"id": "indicator_halfspace"}, "K_list": [4, 8]},
        {"experiment": "comparison_campaign",
         "model": {"kind": "binary", "K": 5},
         "output": str(tmp_path / "cc"), "seeds": 20, "seed": 3},
    ]
    ok = True
    for raw in cfgs:
        path = tmp_path / f"{raw['experiment']}.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 0
        first = {ext: (tmp_path / (raw["output"].rsplit("/", 1)[-1] + ext))
                 .read_bytes() for ext in (".csv", ".json", ".curves.tsv")}
        assert cli_main(["run", str(path)]) == 0
        for ext, blob in first.items():
            ok = ok and (tmp_path / (raw["output"].rsplit("/", 1)[-1] + ext)
                         ).read_bytes() == blob
    _report("A10", ok, "2 configs x 3 artifacts re-run byte-identical")
