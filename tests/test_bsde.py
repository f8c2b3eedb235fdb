import math
import re
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthres import _kernels
from orthres.errors import ContractionError, InvariantViolation
from orthres.ftree import predictable_bracket
from orthres.gkw import gkw_decompose, martingale_from_terminal
from orthres.models import ModelConfig, build
from orthres.mollify import indicator_halfspace, sine
from orthres import forward
from orthres import bsde
from orthres.bsde import (DriverSpec, check_growth, compare,
                          driver_from_catalog, dual_value, huber_envelope,
                          inf_convolve, markov_grouping_check, regularity_scan,
                          solve_lipschitz, solve_quadratic, truncated_driver,
                          vanishing_N_experiment)

from conftest import random_full_tree, random_martingale, small_trees


def binary_setup(K=8, recombine=True):
    built = build(ModelConfig("binary", K=K,
                              params={"recombine": recombine}))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(K)
    return tree, M, clock, M.scalar[lo:hi]


# -- driver layer -----------------------------------------------------------

def test_huber_envelope_formula():
    z = np.linspace(-5, 5, 101)
    gamma, p = 2.0, 1.5
    expect = np.where(np.abs(z) <= p, 0.5 * gamma * z ** 2,
                      gamma * p * np.abs(z) - 0.5 * gamma * p ** 2)
    npt.assert_allclose(huber_envelope(z, p, gamma), expect, atol=1e-14)


@given(st.floats(-20, 20), st.floats(1, 8), st.floats(0.1, 4))
def test_huber_envelope_is_lower_quadratic(z, p, gamma):
    v = float(huber_envelope(np.array([z]), p, gamma)[0])
    assert v <= 0.5 * gamma * z * z + 1e-12
    assert v >= 0.0


def test_truncated_driver_matches_formula(rng):
    growth = {"a": 0.3, "b": 0.7, "gamma": 2.0}
    p = 2.0
    q_p = truncated_driver(p, growth)
    y = rng.normal(0, 3, 1000)
    z = rng.normal(0, 3, 1000)
    expect = (np.where(np.abs(z) <= p, 0.5 * 2.0 * z ** 2,
                       2.0 * p * np.abs(z) - 0.5 * 2.0 * p ** 2)
              + 0.7 * np.abs(y) + 0.3)
    npt.assert_allclose(q_p(0.0, None, z, y, z), expect, atol=0.0)
    with pytest.raises(ValueError):
        truncated_driver(0.5, growth)


def test_inf_convolve_closed_form_is_huber():
    gamma = 1.0
    drv = driver_from_catalog("pure_quadratic", gamma=gamma)
    for n in (1, 2, 5):
        fn = inf_convolve(drv, n)
        z = np.linspace(-10, 10, 1001)
        expect = huber_envelope(z, n / gamma, gamma)
        npt.assert_allclose(fn(0.0, None, z, np.zeros_like(z), z), expect,
                            atol=1e-14)


def test_inf_convolve_grid_matches_closed_form():
    gamma = 1.0
    drv = driver_from_catalog("pure_quadratic", gamma=gamma)
    blind = DriverSpec(id="blind_quad", klass="quadratic",
                       f=drv.f, growth=dict(drv.growth), nonnegative=True)
    n, step = 2, bsde.GRID_STEP
    fn_grid = inf_convolve(blind, n)
    z = np.linspace(-2.5, 2.5, 1000)
    zero = np.zeros_like(z)
    expect = huber_envelope(z, n / gamma, gamma)
    got = fn_grid(0.0, None, z, zero, z)
    assert np.max(np.abs(got - expect)) <= step * n


def test_inf_convolve_monotone_in_n():
    drv = driver_from_catalog("quadratic_mixed", gamma=2.0, b=1.0, eta=0.5)
    z = np.linspace(-6, 6, 301)
    y = np.linspace(-3, 3, 301)
    f4 = inf_convolve(drv, 4)(0.0, None, z, y, z)
    f8 = inf_convolve(drv, 8)(0.0, None, z, y, z)
    full = drv(0.0, None, z, y, z)
    assert np.all(f4 <= f8 + 1e-12)
    assert np.all(f8 <= full + 1e-12)


def test_check_growth_holds_for_catalog_quadratics():
    drv = driver_from_catalog("quadratic_mixed", gamma=1.5, b=0.5, eta=1.0)
    y = np.linspace(-4, 4, 41)
    z = np.linspace(-6, 6, 61)
    assert check_growth(drv, y, z) <= 1e-12


# -- Lipschitz solver -------------------------------------------------------

def test_zero_driver_reduces_to_gkw():
    tree, M, clock, mterm = binary_setup(K=6)
    zeta = np.sin(2 * mterm)
    sol = solve_lipschitz(tree, M, clock, None, zeta,
                          driver_from_catalog("zero"))
    Y = martingale_from_terminal(tree, zeta)
    res = gkw_decompose(tree, M, Y)
    npt.assert_allclose(sol.Y.values, Y.values, atol=1e-12)
    npt.assert_allclose(sol.bracketNN_T, res.bracketNN_T, atol=1e-14)


def test_constant_driver_clock_oracle():
    tree, M, clock, mterm = binary_setup(K=8)
    c = 0.7
    zeta = mterm ** 2
    sol = solve_lipschitz(tree, M, clock, None, zeta,
                          driver_from_catalog("constant", c=c))
    C_K = float(clock.C.values[-1, 0])
    e_zeta = float(tree.path_prob[tree.level_slice(8)[0]:] @ zeta)
    npt.assert_allclose(sol.Y0, e_zeta + c * C_K, atol=1e-12)


def test_linear_y_driver_product_oracle():
    tree, M, clock, mterm = binary_setup(K=6)
    beta = 0.5
    zeta = np.abs(mterm)
    sol = solve_lipschitz(tree, M, clock, None, zeta,
                          driver_from_catalog("linear_y", coef=beta))
    # deterministic clock: implicit Euler multiplies by 1/(1 - beta dC_k)
    lo = tree.level_slice(6)[0]
    e_zeta = float(tree.path_prob[lo:] @ zeta)
    fac = 1.0
    for k in range(tree.K):
        a, _ = tree.level_slice(k)
        fac /= 1.0 - beta * clock.dC.values[a]
    npt.assert_allclose(sol.Y0, e_zeta * fac, rtol=1e-10)


def test_contraction_guard():
    tree, M, clock, mterm = binary_setup(K=1)
    with pytest.raises(ContractionError):
        solve_lipschitz(tree, M, clock, None, mterm,
                        driver_from_catalog("linear_y", coef=1.5))


def test_solution_diagnostics_shape():
    tree, M, clock, mterm = binary_setup(K=5)
    sol = solve_lipschitz(tree, M, clock, None, mterm ** 2,
                          driver_from_catalog("linear_y", coef=0.3))
    d = sol.diagnostics
    assert len(d["fixed_point_iters"]) == tree.K
    prof = sol.cond_var_profile()
    assert len(prof) == tree.K + 1
    assert sol.bmo_norm() >= prof[-1] == 0.0
    assert d["y_sup"] == sol.y_sup


# -- per-node references for the vectorised solver ---------------------------

def lipschitz_reference(tree, M, clock, zeta, driver, tol=bsde.FP_TOL):
    """Node-by-node backward Euler: per-node projection of y' on dm, a scalar
    fixed point per node, then the per-edge residual.  Returns
    (Y, z, dN, E[dN^2 | node], Sigma)."""
    m = M.scalar
    nt = tree.n_nonterminal
    dC = clock.dC.values
    q = clock.q.values.reshape(nt, -1)[:, 0]
    y = np.zeros(tree.n_nodes)
    lo, hi = tree.level_slice(tree.K)
    y[lo:hi] = zeta
    z, s2, res = np.zeros(nt), np.zeros(nt), np.zeros(nt)
    dn = np.zeros(len(tree.echild))
    for k in range(tree.K - 1, -1, -1):
        a, b = tree.level_slice(k)
        for i in range(a, b):
            e0, e1 = int(tree.estart[i]), int(tree.estart[i + 1])
            ch = tree.echild[e0:e1]
            p = tree.eprob[e0:e1]
            dm = m[ch] - m[i]
            ey = sum(p[j] * y[c] for j, c in enumerate(ch))
            s2[i] = sum(p[j] * dm[j] ** 2 for j in range(len(ch)))
            m1 = sum(p[j] * dm[j] * (y[c] - ey) for j, c in enumerate(ch))
            z[i] = m1 / s2[i] if s2[i] > bsde.PROJ_EPS else 0.0
            cur = ey
            for _ in range(10_000):
                new = ey + float(driver(tree.grid.t[k], None, m[i:i + 1],
                                        np.array([cur]),
                                        np.array([q[i] * z[i]]))[0]) * dC[i]
                done = abs(new - cur) < tol
                cur = new
                if done:
                    break
            else:
                raise AssertionError(f"reference fixed point stalled at {i}")
            y[i] = cur
            for j, c in enumerate(ch):
                dn[e0 + j] = y[c] - ey - z[i] * dm[j]
            res[i] = sum(p[j] * dn[e0 + j] ** 2 for j in range(len(ch)))
    return y, z, dn, res, s2


def cond_var_profile_loop(tree, zsq_term, res_node):
    """The per-level loop the solver used to run on every solve: backward max
    of E[sum_{j>=k} (|Zq*|^2 dC + dN^2) | node]."""
    R = np.zeros(tree.n_nodes)
    for k in range(tree.K - 1, -1, -1):
        lo, hi = tree.level_slice(k)
        R[lo:hi] = (_kernels.backward_expect(tree, R, lo, hi)
                    + zsq_term[lo:hi] + res_node[lo:hi])
    return np.array([float(np.max(R[slice(*tree.level_slice(k))]))
                     for k in range(tree.K + 1)])


def _property_driver(kind, c, kz):
    if kind == "linear_y":
        return driver_from_catalog("linear_y", coef=c)
    if kind == "constant":
        return driver_from_catalog("constant", c=c)
    return DriverSpec(id="affine", klass="lipschitz",
                      f=lambda t, x, m, y, z: c * y + kz * z + 0.25,
                      growth={"a": 0.25, "b": abs(c), "gamma": 0.0},
                      eta=0.25, y_part=(c, 0.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
       st.sampled_from(["linear_y", "constant", "affine"]),
       st.floats(-0.5, 0.5), st.floats(-1.0, 1.0), st.floats(0.2, 2.0))
def test_solver_matches_per_node_reference(seed, K, kind, c, kz, scale):
    rng = np.random.default_rng(seed)
    tree = random_full_tree(rng, K=K)
    M = random_martingale(rng, tree, scale)
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(K)
    zeta = np.sin(3.0 * M.scalar[lo:hi]) + rng.normal(size=hi - lo)
    drv = _property_driver(kind, c, kz)
    sol = solve_lipschitz(tree, M, clock, None, zeta, drv)
    y, z, dn, res, s2 = lipschitz_reference(tree, M, clock, zeta, drv)
    tol = dict(rtol=1e-9, atol=1e-10)
    npt.assert_allclose(sol.Y.values[:, 0], y, **tol)
    npt.assert_allclose(sol.Z.values[:, 0], z, **tol)
    npt.assert_allclose(sol.dN, dn, **tol)
    nt = tree.n_nonterminal
    npt.assert_allclose(sol.bracketNN_T, tree.path_prob[:nt] @ res, **tol)
    npt.assert_allclose(clock.sigma.ravel(), s2, rtol=1e-12, atol=1e-15)
    prof = cond_var_profile_loop(tree, z * z * s2, res)
    npt.assert_allclose(sol.cond_var_profile(), prof, **tol)
    npt.assert_allclose(sol.bmo_norm(), prof.max(), **tol)


def _y_part_driver(ky, b, kz, c0, declared=None):
    """k_y*y + b*|y| + kz*z + c0, declaring ``declared`` (default: the truth)
    as its y-part."""
    return DriverSpec(id="y_part", klass="lipschitz",
                      f=lambda t, x, m, y, z: ky * y + b * np.abs(y)
                      + kz * z + c0,
                      y_part=(ky, b) if declared is None else declared)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
       st.floats(-0.8, 0.8), st.floats(0.0, 1.0), st.booleans(),
       st.floats(-1.0, 1.0), st.sampled_from([1.0, 1e-8, 0.0]),
       st.floats(0.2, 2.0))
# a node with a tiny E[dm^2], where Z itself amplifies the reference's error
@example(55193, 4, 0.5, 0.0, False, 0.0, 1e-8, 1.0)
def test_closed_form_step_matches_fixed_point(seed, K, u, share, b_neg, kz,
                                               zscale, scale):
    rng = np.random.default_rng(seed)
    tree = random_full_tree(rng, K=K)
    M = random_martingale(rng, tree, scale)
    clock = predictable_bracket(tree, M)
    # (k_y, b) of both signs with (|k_y| + |b|) dC_max <= 0.8
    dc_max = float(clock.dC.values.max())
    ky = u * share / dc_max
    b = (-1 if b_neg else 1) * abs(u) * (1 - share) / dc_max
    lo, hi = tree.level_slice(K)
    # zscale < 1 drops the z and constant terms, so r = E[y'] is tiny or 0
    # and of either sign from node to node
    zeta = zscale * (np.sin(3.0 * M.scalar[lo:hi])
                     + 0.5 * rng.normal(size=hi - lo))
    drv = _y_part_driver(ky, b, kz if zscale == 1.0 else 0.0,
                         0.25 if zscale == 1.0 else 0.0)
    sol = solve_lipschitz(tree, M, clock, None, zeta, drv)
    y, z, dn, res, s2 = lipschitz_reference(tree, M, clock, zeta, drv,
                                            tol=1e-15)
    # the reference stops at an absolute 1e-15, so it is good to ~4e-15 in y
    # and in Z*sqrt(E[dm^2]); a wrong sign branch would miss by ~|r| b dC,
    # far above 1e-13
    tol = dict(rtol=1e-9, atol=1e-13)
    npt.assert_allclose(sol.Y.values[:, 0], y, **tol)
    npt.assert_allclose(sol.Z.values[:, 0] * np.sqrt(s2), z * np.sqrt(s2),
                        **tol)
    npt.assert_allclose(sol.dN, dn, **tol)
    nt = tree.n_nonterminal
    npt.assert_allclose(sol.bracketNN_T, tree.path_prob[:nt] @ res, **tol)
    assert sol.diagnostics["fixed_point_iters"] == [0] * K


@pytest.mark.parametrize("drv", [
    _y_part_driver(0.5, 0.0, 0.0, 0.0, declared=(0.0, 0.0)),
    _y_part_driver(0.0, 0.3, 0.0, 0.1, declared=(0.0, -0.3)),
    DriverSpec(id="nan", f=lambda t, x, m, y, z: np.full_like(y, np.nan))],
    ids=["undeclared_linear", "wrong_sign_b", "nan"])
def test_misdeclared_or_nan_driver_raises(drv):
    tree, M, clock, mterm = binary_setup(K=6)
    with pytest.raises(InvariantViolation, match="implicit step"):
        solve_lipschitz(tree, M, clock, None, 1.0 + mterm ** 2, drv)


def test_no_y_part_step_is_the_explicit_sum():
    # with y_part (0, 0) the step is r / 1.0, bit for bit E[y'] + f dC
    tree, M, clock, mterm = binary_setup(K=6)
    zeta = np.sin(2 * mterm)
    sol = solve_lipschitz(tree, M, clock, None, zeta,
                          truncated_driver(2.0, {"b": 0.0, "gamma": 1.0,
                                                 "a": 0.2}))
    y = sol.Y.values[:, 0]
    nt = tree.n_nonterminal
    for k in range(tree.K):
        a, b = tree.level_slice(k)
        ey = _kernels.level_moments_d1(
            tree, tree.eprob * _kernels.edge_increments(tree, M.scalar),
            y, a, b)[0]
        z = sol.Z.values[a:b, 0] * clock.q.values.reshape(nt, -1)[a:b, 0]
        g = huber_envelope(z, 2.0, 1.0) + 0.2
        assert np.array_equal(y[a:b], ey + g * clock.dC.values[a:b])


def test_inf_convolve_grid_adds_the_declared_y_part():
    gamma, ky, b, n = 1.0, -0.3, 1.5, 2
    mixed = driver_from_catalog("quadratic_mixed", gamma=gamma, b=b)
    z = np.linspace(-2.5, 2.5, 500)
    y = np.linspace(-3.0, 3.0, 500)
    expect = huber_envelope(z, n / gamma, gamma) + b * np.abs(y)
    for k in (0.0, ky):
        blind = DriverSpec(id="blind_mixed", klass="quadratic",
                           f=lambda t, x, m, y, z, k=k: mixed.f(t, x, m, y, z)
                           + k * y,
                           growth=dict(mixed.growth), y_part=(k, b),
                           nonnegative=True)
        got = inf_convolve(blind, n)(0.0, None, z, y, z)
        assert np.max(np.abs(got - expect - k * y)) <= bsde.GRID_STEP * n
        assert inf_convolve(blind, n).y_part == (k, b)
        with pytest.raises(ValueError):
            inf_convolve(blind, 1)
    with pytest.raises(ValueError):
        inf_convolve(mixed, 1)


@pytest.mark.parametrize("name,params", [
    ("pure_quadratic", {"gamma": -1.0}),
    ("pure_quadratic", {"gamma": math.nan}),
    ("pure_quadratic", {"gamma": math.inf}),
    ("quadratic_mixed", {"gamma": 1.0, "b": -0.5}),
    ("quadratic_mixed", {"gamma": 1.0, "b": 0.5, "eta": -0.1}),
    ("quadratic_mixed", {"gamma": 1.0, "b": math.inf}),
    ("linear_y", {"coef": math.nan}),
    ("constant", {"c": math.inf}),
    ("constant", {"c": -math.inf})])
def test_catalog_rejects_bad_parameters(name, params):
    with pytest.raises(ValueError):
        driver_from_catalog(name, **params)


# -- quadratic cascade ------------------------------------------------------

def test_cascade_monotone_and_bounded():
    tree, M, clock, mterm = binary_setup(K=12)
    zeta = 0.5 * np.clip(mterm, -1, 1)
    drv = driver_from_catalog("quadratic_mixed", gamma=1.0, b=0.5, eta=0.1)
    sol = solve_quadratic(tree, M, clock, None, zeta, drv)
    trace = sol.diagnostics["cascade_trace"]
    assert trace.monotone_violation_n <= 1e-8
    C_K = float(clock.C.values[-1, 0])
    bound = 1.05 * math.exp(0.5 * C_K) * (0.5 + 0.1 * C_K)
    for stage in trace.stages:
        assert stage["y_sup"] <= bound


def test_cascade_handles_small_n_list():
    tree, M, clock, mterm = binary_setup(K=6)
    drv = driver_from_catalog("pure_quadratic", gamma=1.0)
    sol = solve_quadratic(tree, M, clock, None, 0.1 * mterm, drv,
                          p_list=(4,), n_list=(1,))
    assert np.isfinite(sol.Y0)


def test_cascade_rejects_lipschitz_driver():
    tree, M, clock, mterm = binary_setup(K=4)
    with pytest.raises(ValueError):
        solve_quadratic(tree, M, clock, None, mterm,
                        driver_from_catalog("zero"))


def test_cascade_rejects_signed_driver():
    tree, M, clock, mterm = binary_setup(K=4)
    signed = DriverSpec(id="signed", klass="quadratic",
                        f=lambda t, x, m, y, z: -0.5 * z * z,
                        growth={"a": 0.0, "b": 0.0, "gamma": 1.0})
    with pytest.raises(ValueError):
        solve_quadratic(tree, M, clock, None, mterm, signed)


@pytest.mark.parametrize("kind,K,F,did,params,n_cert", [
    ("binary", 12, None, "quadratic_mixed", {"gamma": 1.0, "b": 0.5,
                                             "eta": 0.1}, 4),
    ("trinomial", 16, sine(), "pure_quadratic", {"gamma": 1.0}, 4),
    ("trinomial", 16, sine(), "pure_quadratic", {"gamma": 0.0}, 4),
    ("trinomial", 64, indicator_halfspace(), "pure_quadratic",
     {"gamma": 5.0}, 32),
    ("trinomial", 64, indicator_halfspace(), "quadratic_mixed",
     {"gamma": 5.0, "b": 0.5, "eta": 0.1}, 32)],
    ids=["binary_mixed", "trinomial_pure", "trinomial_gamma0",
         "indicator_pure_n32", "indicator_mixed_n32"])
def test_cascade_stops_at_its_certificate_on_the_direct_solve(
        kind, K, F, did, params, n_cert):
    """The first stage whose max|q Z| stays below n/gamma ends the sweep, and
    it is the direct solve of the quadratic driver bit for bit."""
    built = build(ModelConfig(kind, K=K))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(K)
    zeta = (0.5 * np.clip(M.scalar[lo:hi], -1, 1) if F is None
            else F(M.values[lo:hi]))
    drv = driver_from_catalog(did, **params)
    n_list = (4, 8, 16, 32, 64)
    sol = solve_quadratic(tree, M, clock, None, zeta, drv, n_list=n_list)
    stages = sol.diagnostics["cascade_trace"].stages
    assert [s["n"] for s in stages] == list(n_list[:n_list.index(n_cert) + 1])
    q = clock.q.values.reshape(tree.n_nonterminal, -1)[:, 0]
    if params["gamma"] > 0:
        assert np.abs(q * sol.Z.values[:, 0]).max() <= n_cert / params["gamma"]
    direct = solve_lipschitz(tree, M, clock, None, zeta, drv)
    assert np.array_equal(sol.Y.values, direct.Y.values)
    assert np.array_equal(sol.Z.values, direct.Z.values)
    assert sol.bracketNN_T == direct.bracketNN_T


def test_cole_hopf_oracle():
    tree, M, clock, mterm = binary_setup(K=16)
    gamma = 1.0
    zeta = 0.5 * np.clip(mterm, -1, 1)
    drv = driver_from_catalog("pure_quadratic", gamma=gamma)
    sol = solve_quadratic(tree, M, clock, None, zeta, drv)
    lo = tree.level_slice(16)[0]
    ref = math.log(float(tree.path_prob[lo:] @ np.exp(gamma * zeta))) / gamma
    npt.assert_allclose(sol.Y0, ref, atol=1e-3)


# -- dual representation ----------------------------------------------------

def test_dual_exact_without_discounting():
    tree, M, clock, mterm = binary_setup(K=10)
    zeta = 0.5 * np.clip(mterm, -1, 1)
    growth = {"a": 0.0, "b": 0.0, "gamma": 1.0}
    sol = solve_lipschitz(tree, M, clock, None, zeta,
                          truncated_driver(2.0, growth))
    dv = dual_value(tree, M, clock, zeta, growth, 2.0)
    npt.assert_allclose(float(np.ravel(dv.value.values)[0]), sol.Y0,
                        atol=1e-13)
    assert dv.floored_fraction == 0.0


def test_dual_gap_shrinks_with_refinement():
    growth = {"a": 0.2, "b": 1.0, "gamma": 1.0}
    gaps = []
    for K in (8, 16):
        tree, M, clock, mterm = binary_setup(K=K)
        zeta = 0.5 * np.clip(mterm, -1, 1)
        sol = solve_lipschitz(tree, M, clock, None, zeta,
                              truncated_driver(1.0, growth, eta=0.2))
        dv = dual_value(tree, M, clock, zeta, growth, 1.0, eta=0.2)
        gaps.append(abs(sol.Y0 - float(np.ravel(dv.value.values)[0])))
    assert gaps[1] < gaps[0]


def _dual_value_reference(tree, M, clock, zeta, growth, p, eta=None):
    """The dual DP as it was before its candidates became columns: one
    weighted child sum per candidate nu, a loop over beta = +-b, and the
    floored edges counted as a rounded float sum.  Kept as the reference."""
    def weighted_child_sum(w, vals, lo, hi):
        sl, idx = _kernels._segments(tree, lo, hi)
        return np.add.reduceat(tree.eprob[sl] * w[sl] * vals[tree.echild[sl]],
                               idx)
    b = float(growth["b"])
    gamma = float(growth["gamma"])
    if eta is None:
        eta = float(growth.get("a", 0.0))
    nt = tree.n_nonterminal
    dC = clock.dC.values
    qdiag = clock.q.values.reshape(nt, -1)[:, 0]
    W = np.empty(tree.n_nodes)
    lo, hi = tree.level_slice(tree.K)
    W[lo:hi] = zeta
    floored = total_edges = 0
    betas = (-b, b) if b > 0 else (0.0,)
    nu_grid = np.linspace(-float(p), float(p), bsde.DUAL_NU_POINTS)
    ones = np.ones(tree.n_nodes)
    wfull = np.ones(len(tree.eprob))
    flfull = np.zeros(len(tree.eprob))
    dm_all = _kernels.edge_increments(tree, M.scalar)
    pdm = tree.eprob * dm_all
    for k in range(tree.K - 1, -1, -1):
        a, bb = tree.level_slice(k)
        m1 = _kernels.level_moments_d1(tree, pdm, W, a, bb)[1]
        dck, qk = dC[a:bb], qdiag[a:bb]
        ok = (qk > bsde.PROJ_EPS) & (dck > bsde.PROJ_EPS)
        z_hat = np.where(ok, m1 / np.where(ok, qk * dck, 1.0), 0.0)
        etak = bsde.eta_at(eta, tree.grid.t[k])
        best = np.full(bb - a, -np.inf)
        best_floor = np.zeros(bb - a, dtype=np.int64)
        sl = tree._edge_slice(k)
        par, dm = tree.eparent[sl], dm_all[sl]
        for nu in [np.clip(z_hat, -p, p)] + [np.full(bb - a, g)
                                             for g in nu_grid]:
            tilt = np.where(ok, gamma * nu / np.where(ok, qk, 1.0), 0.0)
            w = 1.0 + tilt[par - a] * dm
            wfull[sl] = np.maximum(w, bsde.DUAL_FLOOR)
            flfull[sl] = (w < bsde.DUAL_FLOOR) / tree.eprob[sl]
            val = weighted_child_sum(wfull, W, a, bb)
            node_fl = np.rint(weighted_child_sum(flfull, ones, a, bb)
                              ).astype(np.int64)
            for beta in betas:
                cand = (np.exp(-beta * dck) * val
                        + (etak - 0.5 * gamma * nu ** 2) * dck)
                take = cand > best
                best_floor = np.where(take, node_fl, best_floor)
                best = np.where(take, cand, best)
        W[a:bb] = best
        floored += int(best_floor.sum())
        total_edges += len(dm)
    return W, floored / max(total_edges, 1)


@st.composite
def dual_cases(draw):
    tree, M = draw(small_trees())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo, hi = tree.level_slice(tree.K)
    zeta = rng.normal(size=hi - lo)
    # a large gamma * p tilts some reweightings below the floor
    growth = {"a": draw(st.floats(0, 1)), "b": draw(st.sampled_from(
        [0.0, 0.5, 2.0])), "gamma": draw(st.floats(0, 50))}
    return tree, M, zeta, growth, draw(st.floats(1, 8))


@settings(deadline=None, max_examples=60)
@given(dual_cases())
def test_dual_value_matches_per_candidate_reference(case):
    tree, M, zeta, growth, p = case
    clock = predictable_bracket(tree, M)
    with mock.patch.object(bsde, "DUAL_FLOOR_BUDGET", 1.0):
        dv = dual_value(tree, M, clock, zeta, growth, p)
    W, frac = _dual_value_reference(tree, M, clock, zeta, growth, p)
    assert np.array_equal(dv.value.values[:, 0], W)
    assert dv.floored_fraction == frac


def test_dual_value_reference_sees_floors():
    """The property test's draws reach the floor: a steep tilt on a coarse
    lattice floors a third of the edges, the same ones in both versions."""
    tree, M, clock, mterm = binary_setup(K=4)
    growth = {"a": 0.1, "b": 0.5, "gamma": 40.0}
    with mock.patch.object(bsde, "DUAL_FLOOR_BUDGET", 1.0):
        dv = dual_value(tree, M, clock, np.sin(3 * mterm), growth, 8.0)
    W, frac = _dual_value_reference(tree, M, clock, np.sin(3 * mterm),
                                    growth, 8.0)
    assert frac > 0.1
    assert np.array_equal(dv.value.values[:, 0], W)
    assert dv.floored_fraction == frac


def test_dual_value_takes_the_finite_beta_candidate():
    """exp(b dC) overflows for a huge b, so with zero data every beta = -b
    candidate is inf * 0 = NaN: the beta = +b one, 0, must win at every
    node, as in the reference, rather than the value becoming NaN."""
    tree, M, clock, mterm = binary_setup(K=3)
    growth = {"a": 0.0, "b": 1e4, "gamma": 1.0}
    zeta = np.zeros_like(mterm)
    with np.errstate(over="ignore", invalid="ignore"):
        dv = dual_value(tree, M, clock, zeta, growth, 2.0)
        W, frac = _dual_value_reference(tree, M, clock, zeta, growth, 2.0)
    assert not W.any()
    assert np.array_equal(dv.value.values[:, 0], W)
    assert dv.floored_fraction == frac


# -- comparison -------------------------------------------------------------

def test_compare_ordered_data():
    tree, M, clock, mterm = binary_setup(K=6)
    f = driver_from_catalog("linear_y", coef=0.3)
    s1 = solve_lipschitz(tree, M, clock, None, mterm ** 2 + 0.5, f)
    s2 = solve_lipschitz(tree, M, clock, None, mterm ** 2, f)
    v = compare(s1, s2)
    assert v.applicable and v.ok
    assert v.worst_violation == 0.0


def test_compare_rejects_unordered_terminals():
    tree, M, clock, mterm = binary_setup(K=4)
    f = driver_from_catalog("zero")
    s1 = solve_lipschitz(tree, M, clock, None, mterm, f)
    s2 = solve_lipschitz(tree, M, clock, None, -mterm, f)
    v = compare(s1, s2)
    assert not v.applicable


def test_compare_rejects_different_trees():
    t1, M1, c1, m1 = binary_setup(K=4)
    t2, M2, c2, m2 = binary_setup(K=5)
    f = driver_from_catalog("zero")
    s1 = solve_lipschitz(t1, M1, c1, None, m1, f)
    s2 = solve_lipschitz(t2, M2, c2, None, m2, f)
    assert not compare(s1, s2).applicable


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_compare_property_random_ordered_data(seed):
    from orthres.cli import _random_lipschitz_pair
    tree, M, clock, mterm = binary_setup(K=5)
    rng = np.random.default_rng(seed)
    zeta1, zeta2, f1, f2 = _random_lipschitz_pair(rng, mterm)
    s1 = solve_lipschitz(tree, M, clock, None, zeta1, f1)
    s2 = solve_lipschitz(tree, M, clock, None, zeta2, f2)
    v = compare(s1, s2)
    assert v.applicable
    assert v.worst_violation <= 1e-11


# -- experiments ------------------------------------------------------------

def test_markov_grouping_on_product_noise():
    built = build(ModelConfig("product_noise", K=5))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    f = driver_from_catalog("zero")
    markov = solve_lipschitz(tree, M, clock, None, M.scalar[lo:hi] ** 2, f)
    assert markov_grouping_check(tree, None, M, markov) <= 1e-12
    auxdep = solve_lipschitz(tree, M, clock, None, built.aux.scalar[lo:hi], f)
    assert markov_grouping_check(tree, None, M, auxdep) >= 0.5


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_zero_driver_solve_is_closure_plus_gkw(seed, K):
    """The zero driver's step is y = E[y']: the solver reproduces the
    closure and the GKW projection, which stay the reference."""
    rng = np.random.default_rng(seed)
    tree = random_full_tree(rng, K=K)
    M = random_martingale(rng, tree, 1.0)
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(K)
    zeta = rng.normal(0.0, 1.0, size=hi - lo)
    sol = solve_lipschitz(tree, M, clock, None, zeta,
                          driver_from_catalog("zero"))
    Y = martingale_from_terminal(tree, zeta)
    ref = gkw_decompose(tree, M, Y)
    assert np.array_equal(sol.Y.values, Y.values)
    assert np.array_equal(sol.Z.values, ref.Z.values)
    npt.assert_allclose(sol.bracketNN_T, ref.bracketNN_T, rtol=1e-12,
                        atol=0.0)


def test_non_finite_bracket_is_an_invariant_violation():
    built = build(ModelConfig("trinomial", K=4))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    zeta = np.sin(3.0 * M.scalar[lo:hi])
    f = driver_from_catalog("zero")
    # a finite Y whose residual increments overflow when squared
    huge = 1e200 * zeta
    with np.errstate(over="ignore"):
        with pytest.raises(InvariantViolation,
                           match=r"E\[\[N\]_T\] is not finite:"):
            solve_lipschitz(tree, M, clock, None, huge, f)
        with pytest.raises(InvariantViolation,
                           match="not finite in column 1"):
            solve_lipschitz(tree, M, clock, None,
                            np.column_stack([zeta, huge, huge]), f)


def test_vanishing_N_report_structure(monkeypatch):
    F = indicator_halfspace()
    drv = driver_from_catalog("pure_quadratic", gamma=1.0)
    solves = []

    def counting(*args, **kwargs):
        solves.append(args[5])
        return solve_lipschitz(*args, **kwargs)
    monkeypatch.setattr(bsde, "solve_lipschitz", counting)
    rep = vanishing_N_experiment(lambda K: ModelConfig("trinomial", K=K),
                                 None, F, drv, [0.1], [4, 8])
    assert len(rep.rows) == 4
    # one direct solve of the quadratic driver per (K, eps) column
    assert len(solves) == 4 and all(d is drv for d in solves)
    assert rep.decreasing_in_K()
    raw, gaps = rep.eps_gap_at_max_K()
    assert raw > 0 and 0.1 in gaps


def test_regularity_scan_bounded_derivatives():
    built = build(ModelConfig("binary", K=6, params={"recombine": False}))
    F = indicator_halfspace()
    drv = driver_from_catalog("pure_quadratic", gamma=1.0)
    scan = regularity_scan(built.tree, built.M, 0, np.linspace(-1, 1, 9),
                           F, drv)
    assert 0.0 <= scan.inf_u <= scan.sup_u <= 1.0 + 1e-9
    assert np.isfinite(scan.max_first_diff)
    assert np.isfinite(scan.max_second_diff)
    # value is increasing in the start point for a monotone payoff
    assert np.all(np.diff(scan.u) >= -1e-12)


def test_regularity_scan_extracts_once_and_clocks_once_per_point(monkeypatch):
    built = build(ModelConfig("trinomial", K=10))
    tree, M = built.tree, built.M
    coeffs, F = forward.identity(), sine()
    drv = driver_from_catalog("pure_quadratic", gamma=1.0)
    grid = np.linspace(-1.0, 1.0, 5)
    lo, _ = tree.level_slice(4)
    # the per-point restart the scan replaces: extract, shift, clock, solve
    want = []
    for m in grid:
        sub, Msub, Xsub = forward.shift_start(tree, M, 4, lo, m,
                                              coeffs=coeffs, x=[0.0])
        clock = predictable_bracket(sub, Msub)
        zeta = bsde._terminal_values(sub, Msub, Xsub, F)
        want.append(solve_lipschitz(sub, Msub, clock, Xsub, zeta, drv).Y0)

    calls = {"clock": 0, "extract": 0, "solve": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped
    clock_fn = counting("clock", predictable_bracket)
    extract_fn = counting("extract", forward.extract_subtree)
    for mod in ("orthres.ftree", "orthres.bsde"):
        monkeypatch.setattr(f"{mod}.predictable_bracket", clock_fn)
    for mod in ("orthres.forward", "orthres.bsde"):
        monkeypatch.setattr(f"{mod}.extract_subtree", extract_fn)
    monkeypatch.setattr(bsde, "solve_lipschitz",
                        counting("solve", solve_lipschitz))
    scan = regularity_scan(tree, M, 4, grid, F, drv, coeffs=coeffs,
                           x_value=[0.0])
    assert calls == {"clock": len(grid), "extract": 1, "solve": len(grid)}
    assert np.array_equal(scan.u, want)


@pytest.mark.parametrize("drv", [
    driver_from_catalog("pure_quadratic", gamma=1.0),
    driver_from_catalog("quadratic_mixed", gamma=1.0, b=0.5, eta=0.1)],
    ids=["pure_quadratic", "quadratic_mixed"])
def test_cascade_runs_one_sweep_for_nonnegative_driver(drv, monkeypatch):
    tree, M, clock, mterm = binary_setup(K=10)
    zeta = 0.5 * np.clip(mterm, -1, 1)
    # p only sets the first n, so p = 1 alone is the sweep the p-loop repeated
    once = solve_quadratic(tree, M, clock, None, zeta, drv, p_list=(1,))
    solves = []

    def counting(*args, **kwargs):
        solves.append(args[5].id)
        return solve_lipschitz(*args, **kwargs)
    monkeypatch.setattr(bsde, "solve_lipschitz", counting)
    sol = solve_quadratic(tree, M, clock, None, zeta, drv)
    trace = sol.diagnostics["cascade_trace"]
    assert len(solves) == len(set(solves)) == len(trace.stages)
    assert {s["p"] for s in trace.stages} == {1}
    assert np.array_equal(sol.Y.values, once.Y.values)
    assert sol.bracketNN_T == once.bracketNN_T


# -- batched solves ------------------------------------------------------------

def _batch_setup(seed, K, B, u, share, zscale):
    """A random full tree, B terminal columns scaled by zscale, and per-column
    (k_y, b, k_z, c0) of both signs with (|k_y| + |b|) dC_max <= |u|."""
    rng = np.random.default_rng(seed)
    tree = random_full_tree(rng, K=K)
    M = random_martingale(rng, tree, 1.0)
    clock = predictable_bracket(tree, M)
    dc_max = float(clock.dC.values.max())
    mix = rng.uniform(0.0, 1.0, size=B)
    ky = u * share * mix / dc_max * rng.choice([-1, 1], size=B)
    b = u * (1 - share) * mix / dc_max * rng.choice([-1, 1], size=B)
    # zscale < 1 drops the z and constant terms, so r = E[y'] is tiny or 0
    kz = rng.uniform(-1, 1, size=B) * (zscale == 1.0)
    c0 = rng.uniform(-0.5, 0.5, size=B) * (zscale == 1.0)
    lo, hi = tree.level_slice(K)
    zeta = zscale * (np.sin(3.0 * M.scalar[lo:hi])[:, None]
                     + 0.5 * rng.normal(size=(hi - lo, B)))
    return tree, M, clock, zeta, ky, b, kz, c0


_batch_args = (st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
               st.integers(1, 6), st.floats(-0.8, 0.8), st.floats(0.0, 1.0),
               st.sampled_from([1.0, 1e-8, 0.0]))


@settings(max_examples=60, deadline=None)
@given(*_batch_args)
def test_batched_columns_equal_1d_solves(seed, K, B, u, share, zscale):
    tree, M, clock, zeta, ky, b, kz, c0 = _batch_setup(
        seed, K, B, u, share, zscale)
    batch = solve_lipschitz(tree, M, clock, None, zeta,
                            _y_part_driver(ky, b, kz, c0))
    assert batch.Y.values.shape == (tree.n_nodes, B)
    assert batch.dN.shape == (len(tree.echild), B)
    for j in range(B):
        one = solve_lipschitz(tree, M, clock, None, zeta[:, j].copy(),
                              _y_part_driver(ky[j], b[j], kz[j], c0[j]))
        assert np.array_equal(batch.Y.values[:, j], one.Y.values[:, 0])
        assert np.array_equal(batch.Z.values[:, j], one.Z.values[:, 0])
        assert np.array_equal(batch.dN[:, j], one.dN)
        assert batch.bracketNN_T[j] == one.bracketNN_T
        assert batch.Y0[j] == one.Y0


@settings(max_examples=40, deadline=None)
@given(*_batch_args, st.lists(st.sampled_from(["ordered", "zeta", "driver"]),
                              min_size=6, max_size=6))
def test_batched_compare_equals_per_pair_verdicts(seed, K, B, u, share,
                                                  zscale, kinds):
    tree, M, clock, zeta, ky, b, kz, c0 = _batch_setup(
        seed, K, B, u, share, zscale)
    # column j of the upper batch sits above the lower one, unless kinds[j]
    # unorders its terminal data or its drivers
    kinds = kinds[:B]
    shift = np.array([-0.5 if k == "zeta" else 0.25 for k in kinds])
    lift = np.array([-0.5 if k == "driver" else 0.25 for k in kinds])
    upper = solve_lipschitz(tree, M, clock, None, zeta + shift,
                            _y_part_driver(ky, b, kz, c0 + lift))
    lower = solve_lipschitz(tree, M, clock, None, zeta,
                            _y_part_driver(ky, b, kz, c0))
    verdicts = compare(upper, lower)
    assert len(verdicts) == B
    for j, v in enumerate(verdicts):
        s1 = solve_lipschitz(tree, M, clock, None,
                             zeta[:, j] + shift[j],
                             _y_part_driver(ky[j], b[j], kz[j],
                                            c0[j] + lift[j]))
        s2 = solve_lipschitz(tree, M, clock, None, zeta[:, j].copy(),
                             _y_part_driver(ky[j], b[j], kz[j], c0[j]))
        assert v == compare(s1, s2)
        assert v.applicable == (kinds[j] == "ordered")
    # the same verdicts from column views of one batch holding both sides
    both = solve_lipschitz(tree, M, clock, None,
                           np.hstack([zeta + shift, zeta]),
                           _y_part_driver(np.tile(ky, 2), np.tile(b, 2),
                                          np.tile(kz, 2),
                                          np.hstack([c0 + lift, c0])))
    halves = (slice(None, B), slice(B, None))
    drivers = (_y_part_driver(ky, b, kz, c0 + lift),
               _y_part_driver(ky, b, kz, c0))
    assert compare(*(both.columns(c, f) for c, f in zip(halves, drivers))) \
        == verdicts


def _miss(message):
    """The level and the 'misses its equation ... at y = ...' part."""
    level = int(re.search(r"level (\d+)", message).group(1))
    return level, re.search(r"misses .*?(?=: the driver)", message).group(0)


@settings(max_examples=40, deadline=None)
@given(*_batch_args[:5], st.integers(0, 5))
def test_misdeclared_column_names_its_deepest_failing_level(
        seed, K, B, u, share, bad):
    tree, M, clock, zeta, ky, b, kz, c0 = _batch_setup(
        seed, K, B, u, share, 1.0)
    bad = bad % B
    # column ``bad`` hides a k_y*y term of 0.1/dC_max from its declaration
    hidden = np.zeros(B)
    hidden[bad] = 0.1 / float(clock.dC.values.max())

    def misdeclared(ky, b, kz, c0, hidden):
        return DriverSpec(id="misdeclared", klass="lipschitz",
                          f=lambda t, x, m, y, z: ky * y + b * np.abs(y)
                          + kz * z + c0 + hidden * y,
                          y_part=(ky, b))
    with pytest.raises(InvariantViolation) as one:
        solve_lipschitz(tree, M, clock, None, zeta[:, bad].copy(),
                        misdeclared(ky[bad], b[bad], kz[bad], c0[bad],
                                    hidden[bad]))
    with pytest.raises(InvariantViolation) as batch:
        solve_lipschitz(tree, M, clock, None, zeta,
                        misdeclared(ky, b, kz, c0, hidden))
    level, miss = _miss(str(one.value))
    assert f"implicit step at level {level}, column {bad} " \
        in str(batch.value)
    assert _miss(str(batch.value)) == (level, miss)


def _campaign_per_seed(cfg):
    """The campaign one seed at a time: two 1-D solves and one compare per
    seed, the reference for the batched runner."""
    from orthres import cli
    built = build(cfg.model)
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    rows = []
    for i in range(cfg.seeds):
        rng = np.random.default_rng(cfg.seed + i)
        zeta1, zeta2, f1, f2 = cli._random_lipschitz_pair(
            rng, M.scalar[lo:hi])
        v = compare(solve_lipschitz(tree, M, clock, None, zeta1, f1),
                    solve_lipschitz(tree, M, clock, None, zeta2, f2))
        rows.append({"seed": cfg.seed + i, "applicable": v.applicable,
                     "ok": v.ok, "violation": v.worst_violation})
    return rows


@pytest.mark.parametrize("seed", [0, 41])
@pytest.mark.parametrize("budget", [None, 4], ids=["default", "4_columns"])
def test_batched_campaign_rows_equal_per_seed_rows(seed, budget,
                                                   monkeypatch):
    from orthres import cli
    cfg = cli.parse_config({"experiment": "comparison_campaign",
                            "model": {"kind": "trinomial", "K": 12},
                            "seeds": 7, "seed": seed, "output": "unused"})
    if budget is not None:
        # room for 4 columns: groups of 2 seeds, then a group of 1
        tree = build(cfg.model).tree
        monkeypatch.setattr(bsde, "SWEEP_BYTES",
                            budget * 8 * (tree.n_nodes + tree.n_nonterminal))
    solves = []

    def counting(*args, **kwargs):
        solves.append(np.shape(args[4]))
        return solve_lipschitz(*args, **kwargs)
    monkeypatch.setattr(bsde, "solve_lipschitz", counting)
    rows, _, _ = cli._run_comparison_campaign(cfg)
    assert rows == _campaign_per_seed(cfg)
    widths = [s[1] for s in solves]
    assert widths == ([14] if budget is None else [4, 4, 4, 2])


def test_sweep_budget_holds_8_columns_at_K256():
    tree = build(ModelConfig("trinomial", K=256)).tree
    assert bsde.columns_per_sweep(tree) == 8
    assert 8 * 8 * (tree.n_nodes + tree.n_nonterminal) <= bsde.SWEEP_BYTES
