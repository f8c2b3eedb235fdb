import math
import re
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthres import _kernels
from orthres.errors import ContractionError, InvariantViolation
from orthres.ftree import (AdaptedProcess, conditional_covariances,
                           predictable_bracket)
from orthres.gkw import gkw_decompose, martingale_from_terminal
from orthres.models import ModelConfig, build
from orthres.mollify import TerminalMap, indicator_halfspace, sine
from orthres import bsde, cli, forward
from orthres.bsde import (DriverSpec, compare, driver_from_catalog,
                          dual_value, huber_envelope, inf_convolve,
                          regularity_scan, solve_lipschitz, solve_quadratic,
                          truncated_driver, vanishing_N_experiment)

import reference
from conftest import (permute_last_level, random_full_tree,
                      random_martingale, small_trees)
from reference import (check_growth, edge_layout, edge_slice,
                       markov_grouping_check, path_prob,
                       predictable_bracket_range, product_noise_coin,
                       solution_dN)


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
    res = gkw_decompose(tree, M, clock, zeta)
    npt.assert_allclose(sol.Y.values, Y.values, atol=1e-12)
    npt.assert_allclose(sol.bracketNN_T, res.bracketNN_T, atol=1e-14)


def test_constant_driver_clock_oracle():
    tree, M, clock, mterm = binary_setup(K=8)
    c = 0.7
    zeta = mterm ** 2
    sol = solve_lipschitz(tree, M, clock, None, zeta,
                          driver_from_catalog("constant", c=c))
    C_K = float(predictable_bracket_range(tree, M).C[-1])
    e_zeta = float(path_prob(tree)[tree.level_slice(8)[0]:] @ zeta)
    npt.assert_allclose(sol.Y0, e_zeta + c * C_K, atol=1e-12)


def test_linear_y_driver_product_oracle():
    tree, M, clock, mterm = binary_setup(K=6)
    beta = 0.5
    zeta = np.abs(mterm)
    sol = solve_lipschitz(tree, M, clock, None, zeta,
                          driver_from_catalog("linear_y", coef=beta))
    # deterministic clock: implicit Euler multiplies by 1/(1 - beta dC_k)
    lo = tree.level_slice(6)[0]
    e_zeta = float(path_prob(tree)[lo:] @ zeta)
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
    # y_sup is the solution's property, not a diagnostic as well
    assert set(d) == {"fixed_point_iters"}
    assert sol.y_sup == float(np.max(np.abs(sol.Y.values)))


# -- per-node references for the vectorised solver ---------------------------

def lipschitz_reference(tree, M, clock, zeta, driver, tol=bsde.FP_TOL):
    """Node-by-node backward Euler: per-node projection of y' on dm, a scalar
    fixed point per node, then the per-edge residual.  Returns
    (Y, z, dN, E[dN^2 | node], Sigma)."""
    m = M.scalar
    nt = tree.n_nonterminal
    dC = clock.dC.values
    q = clock.factor(0, nt)
    y = np.zeros(tree.n_nodes)
    lo, hi = tree.level_slice(tree.K)
    y[lo:hi] = zeta
    z, s2, res = np.zeros(nt), np.zeros(nt), np.zeros(nt)
    dn = np.zeros(len(tree.echild))
    ec, pr = tree.echild, tree.eprob
    # projected where Sigma exceeds PROJ_EPS times its largest value
    floor = _kernels.PROJ_EPS * predictable_bracket_range(tree, M).sigma.max()
    for k in range(tree.K - 1, -1, -1):
        a, b = tree.level_slice(k)
        for i in range(a, b):
            e0, e1 = int(tree.estart[i]), int(tree.estart[i + 1])
            ch = ec[e0:e1]
            p = pr[e0:e1]
            dm = m[ch] - m[i]
            ey = sum(p[j] * y[c] for j, c in enumerate(ch))
            s2[i] = sum(p[j] * dm[j] ** 2 for j in range(len(ch)))
            m1 = sum(p[j] * dm[j] * (y[c] - ey) for j, c in enumerate(ch))
            z[i] = m1 / s2[i] if s2[i] > floor else 0.0
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
                      y_part=(c, 0.0))


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
    npt.assert_allclose(solution_dN(sol), dn, **tol)
    npt.assert_allclose(sol.dN2, res, **tol)
    nt = tree.n_nonterminal
    npt.assert_allclose(sol.bracketNN_T, path_prob(tree)[:nt] @ res, **tol)
    npt.assert_allclose(conditional_covariances(tree, M), s2, rtol=1e-12,
                        atol=1e-15)
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
    npt.assert_allclose(solution_dN(sol), dn, **tol)
    npt.assert_allclose(sol.dN2, res, **tol)
    nt = tree.n_nonterminal
    npt.assert_allclose(sol.bracketNN_T, path_prob(tree)[:nt] @ res, **tol)
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
    for k in range(tree.K):
        a, b = tree.level_slice(k)
        pdm = (edge_layout(tree, tree.eprob, a, b)
               * _kernels.edge_increments(tree, M.scalar, a, b))
        ey = _kernels.level_moments_d1(tree, pdm, y, a, b)[0]
        z = sol.Z.values[a:b, 0] * clock.factor(a, b)
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


def cond_second_moment_loop(tree, xi, y):
    """E[(xi - y_i)^2 | node i] for every node i: the node's unit mass is
    pushed forward edge by edge to the leaves."""
    lo, hi = tree.level_slice(tree.K)
    out = np.empty(tree.n_nodes)
    ep, ec, pr = tree.eparent, tree.echild, tree.eprob
    for i in range(tree.n_nodes):
        mass = np.zeros(tree.n_nodes)
        mass[i] = 1.0
        for k in range(tree.level_of(i), tree.K):
            sl = edge_slice(tree, k)
            np.add.at(mass, ec[sl], mass[ep[sl]] * pr[sl])
        out[i] = mass[lo:hi] @ (xi - y[i]) ** 2
    return out


@settings(max_examples=40, deadline=None)
@given(small_trees(), st.integers(0, 2 ** 32 - 1))
def test_zero_driver_profile_is_the_conditional_variance(tree_M, seed):
    # for the zero driver Y_k = E[xi | F_k], and each level of the profile is
    # the largest E[(xi - Y_k)^2 | node] over that level's nodes
    tree, M = tree_M
    lo, hi = tree.level_slice(tree.K)
    xi = np.random.default_rng(seed).normal(size=hi - lo)
    sol = solve_lipschitz(tree, M, predictable_bracket(tree, M), None, xi,
                          driver_from_catalog("zero"))
    var = cond_second_moment_loop(tree, xi, sol.Y.values[:, 0])
    want = [var[slice(*tree.level_slice(k))].max() for k in range(tree.K + 1)]
    npt.assert_allclose(sol.cond_var_profile(), want, rtol=0, atol=1e-12)


def test_cascade_bmo_norm_bounded_under_refinement():
    # measured 0.5108, 0.4996, 0.4928, 0.4891 at K = 16, 32, 64, 128
    drv = driver_from_catalog("pure_quadratic", gamma=1.0)
    norms = []
    for K in (16, 32, 64, 128):
        built = build(ModelConfig("trinomial", K=K))
        tree, M = built.tree, built.M
        lo, hi = tree.level_slice(K)
        sol = solve_quadratic(tree, M, predictable_bracket(tree, M), None,
                              sine()(M.values[lo:hi]), drv)
        norms.append(sol.bmo_norm())
    assert all(0.45 <= v <= 0.55 for v in norms), norms


# -- quadratic cascade ------------------------------------------------------

def test_cascade_monotone_and_bounded():
    tree, M, clock, mterm = binary_setup(K=12)
    zeta = 0.5 * np.clip(mterm, -1, 1)
    drv = driver_from_catalog("quadratic_mixed", gamma=1.0, b=0.5, eta=0.1)
    sol = solve_quadratic(tree, M, clock, None, zeta, drv)
    trace = sol.diagnostics["cascade_trace"]
    assert trace.monotone_violation_n <= 1e-8
    C_K = float(predictable_bracket_range(tree, M).C[-1])
    bound = 1.05 * math.exp(0.5 * C_K) * (0.5 + 0.1 * C_K)
    for stage in trace.stages:
        assert stage["y_sup"] <= bound


def test_cascade_handles_small_n_list():
    tree, M, clock, mterm = binary_setup(K=6)
    drv = driver_from_catalog("pure_quadratic", gamma=1.0)
    sol = solve_quadratic(tree, M, clock, None, 0.1 * mterm, drv,
                          p=4, n_list=(1,))
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
    q = clock.factor(0, tree.n_nonterminal)
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
    ref = math.log(float(path_prob(tree)[lo:] @ np.exp(gamma * zeta))) / gamma
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


@pytest.mark.parametrize("h", [1e-9, 1e-7, 1e-3, 1.0, 1e3])
def test_dual_exact_at_every_scale_of_M(h):
    """Without discounting the dual DP is the primal solve at any step h of
    M: both project and tilt where E[dm^2 | node] is large against its
    largest value, so a small h (Sigma = h^2 = 1e-14, dC as small) is not
    left unprojected by one and tilted by the other."""
    built = build(ModelConfig("binary", K=10, params={"h": h}))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    zeta = 0.5 * np.clip(M.scalar[lo:hi] / h * np.sqrt(0.1), -1, 1)
    growth = {"a": 0.0, "b": 0.0, "gamma": 1.0}
    sol = solve_lipschitz(tree, M, clock, None, zeta,
                          truncated_driver(2.0, growth))
    dv = dual_value(tree, M, clock, zeta, growth, 2.0)
    assert sol.Y0 > 0
    npt.assert_allclose(dv.value.values[0, 0], sol.Y0, rtol=0, atol=1e-13)


def test_dual_gap_shrinks_with_refinement():
    growth = {"a": 0.2, "b": 1.0, "gamma": 1.0}
    gaps = []
    for K in (8, 16):
        tree, M, clock, mterm = binary_setup(K=K)
        zeta = 0.5 * np.clip(mterm, -1, 1)
        sol = solve_lipschitz(tree, M, clock, None, zeta,
                              truncated_driver(1.0, growth))
        dv = dual_value(tree, M, clock, zeta, growth, 1.0)
        gaps.append(abs(sol.Y0 - float(np.ravel(dv.value.values)[0])))
    assert gaps[1] < gaps[0]


def _dual_value_reference(tree, M, clock, zeta, growth, p):
    """The dual DP as it was before its candidates became columns: one
    weighted child sum per candidate nu, a loop over beta = +-b, and the
    floored edges counted as a rounded float sum.  Kept as the reference."""
    ep, ec = tree.eparent, tree.echild

    def weighted_child_sum(w, vals, lo, hi):
        sl = edge_slice(tree, tree.level_of(lo))
        return np.add.reduceat(tree.eprob[sl] * w[sl] * vals[ec[sl]],
                               tree.estart[lo:hi] - tree.estart[lo])
    b = float(growth["b"])
    gamma = float(growth["gamma"])
    eta = float(growth.get("a", 0.0))
    nt = tree.n_nonterminal
    dC = clock.dC.values
    qdiag = clock.factor(0, nt)
    sigma = predictable_bracket_range(tree, M).sigma.ravel()
    W = np.empty(tree.n_nodes)
    lo, hi = tree.level_slice(tree.K)
    W[lo:hi] = zeta
    floored = total_edges = 0
    betas = (-b, b) if b > 0 else (0.0,)
    nu_grid = np.linspace(-float(p), float(p), bsde.DUAL_NU_POINTS)
    ones = np.ones(tree.n_nodes)
    wfull = np.ones(len(tree.eprob))
    flfull = np.zeros(len(tree.eprob))
    dm_all = M.scalar[ec] - M.scalar[ep]
    for k in range(tree.K - 1, -1, -1):
        a, bb = tree.level_slice(k)
        pdm = (edge_layout(tree, tree.eprob, a, bb)
               * _kernels.edge_increments(tree, M.scalar, a, bb))
        m1 = _kernels.level_moments_d1(tree, pdm, W, a, bb)[1]
        dck, qk = dC[a:bb], qdiag[a:bb]
        # tilted where Sigma is projected and q > 0
        ok = (sigma[a:bb] > _kernels.PROJ_EPS * sigma.max()) & (qk > 0)
        z_hat = np.where(ok, m1 / np.where(ok, qk * dck, 1.0), 0.0)
        etak = float(eta)
        best = np.full(bb - a, -np.inf)
        best_floor = np.zeros(bb - a, dtype=np.int64)
        sl = edge_slice(tree, k)
        par, dm = ep[sl], dm_all[sl]
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
    [v] = compare(tree, M, clock, None,
                  np.column_stack([mterm ** 2 + 0.5, mterm ** 2]), f)
    assert v.applicable and v.ok
    assert v.worst_violation == 0.0


def test_compare_rejects_unordered_terminals():
    tree, M, clock, mterm = binary_setup(K=4)
    f = driver_from_catalog("zero")
    [v] = compare(tree, M, clock, None, np.column_stack([mterm, -mterm]), f)
    assert not v.applicable


def test_compare_needs_column_pairs():
    tree, M, clock, mterm = binary_setup(K=4)
    f = driver_from_catalog("zero")
    for zeta in (mterm, np.column_stack([mterm] * 3)):
        with pytest.raises(ValueError, match="B even"):
            compare(tree, M, clock, None, zeta, f)


def _pair_batch(rng, mterm):
    """One seed's ordered pair as two columns and their batch driver."""
    zeta1, zeta2, p1, p2 = cli._random_affine_pair(rng, mterm)
    return (np.column_stack([zeta1, zeta2]),
            cli._affine_driver(*np.array([p1, p2]).T))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_compare_property_random_ordered_data(seed):
    tree, M, clock, mterm = binary_setup(K=5)
    [v] = compare(tree, M, clock, None,
                  *_pair_batch(np.random.default_rng(seed), mterm))
    assert v.applicable
    assert v.worst_violation <= 1e-11


@pytest.mark.parametrize("seed", [3, 11])
def test_compare_reads_the_lower_columns_x(seed):
    """With an X that the columns share, each pair's drivers are compared
    at that X, the lower column's, as the reference does with the second
    solution's X."""
    rng = np.random.default_rng(seed)
    tree = random_full_tree(rng, K=3)
    M = random_martingale(rng, tree)
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    B = 3
    X = AdaptedProcess(tree, rng.normal(size=(tree.n_nodes, 1)))
    zeta = rng.normal(size=(hi - lo, B))
    zeta = np.hstack([zeta + 0.2, zeta])
    # the upper drivers sit 0.3 above the lower ones in the first pair and
    # 0.1 below them in the last, at every X
    c0 = np.concatenate([[0.3, 0.0, -0.1], np.zeros(B)])

    def drv(c):
        return DriverSpec(id="x", klass="lipschitz",
                          f=lambda t, x, m, y, z: 0.2 * z + c + 0.4 * x[:, :1]
                          if y.ndim == 2 else 0.2 * z + c + 0.4 * x[:, 0])
    verdicts = compare(tree, M, clock, X, zeta, drv(c0))
    for j, v in enumerate(verdicts):
        s1, s2 = (solve_lipschitz(tree, M, clock, X, zeta[:, c].copy(),
                                  drv(c0[c]))
                  for c in (j, j + B))
        assert v == reference.compare(s1, s2, X=X)
    assert [v.applicable for v in verdicts] == [True, True, False]


def _pair_data(draw, tree, M, B):
    """Terminal data of B pairs (upper half, then lower half) and their
    batch driver.  A pair is ordered, has unordered terminals or unordered
    drivers, is one column twice ("tie": its difference is 0 at every node)
    or has its upper column on the lower one at some leaves only
    ("partial": ties there)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["ordered", "zeta", "driver",
                                           "tie", "partial"]),
                          min_size=B, max_size=B))
    clock = predictable_bracket(tree, M)
    dc_max = float(clock.dC.values.max())
    lo, hi = tree.level_slice(tree.K)
    m = M.scalar[lo:hi]
    low = np.sin(3.0 * m)[:, None] + 0.5 * rng.normal(size=(hi - lo, B))
    ky = rng.uniform(-0.4, 0.4, size=B) / dc_max
    kz = rng.uniform(-1, 1, size=B)
    c0 = rng.uniform(-0.5, 0.5, size=B)
    step = {"ordered": 0.25, "zeta": -0.5, "driver": 0.25, "tie": 0.0}
    shift = np.array([step.get(k, 0.0) for k in kinds]) + np.array(
        [k == "partial" for k in kinds]) * (rng.uniform(size=(hi - lo, B))
                                            < 0.5)
    lift = np.array([{"ordered": 0.25, "zeta": 0.25, "driver": -0.5}.get(
        k, 0.0) for k in kinds])
    zeta = np.hstack([low + shift, low])
    driver = _y_part_driver(np.tile(ky, 2), np.zeros(2 * B), np.tile(kz, 2),
                            np.hstack([c0 + lift, c0]))
    halves = [_y_part_driver(ky, np.zeros(B), kz, c) for c in (c0 + lift, c0)]
    return clock, zeta, driver, halves, kinds


@settings(max_examples=60, deadline=None)
@given(st.data(), small_trees(), st.integers(1, 5))
def test_streamed_compare_equals_the_reference(data, tree_m, B):
    """The streamed compare gives the verdicts of the reference on stored
    solutions, worst node included, on random full trees and every model
    kind, for ordered and unordered pairs and tied minima."""
    tree, M = tree_m
    clock, zeta, driver, halves, kinds = _pair_data(data.draw, tree, M, B)
    verdicts = compare(tree, M, clock, None, zeta, driver)
    both = solve_lipschitz(tree, M, clock, None, zeta, driver)
    expected = reference.compare(*(reference.columns(both, c, f) for c, f in
                                   zip((slice(None, B), slice(B, None)),
                                       halves)))
    assert verdicts == expected
    for v, kind in zip(verdicts, kinds):
        assert v.applicable == (kind not in ("zeta", "driver"))
        if kind == "tie":
            assert (v.worst_violation, v.worst_node) == (0.0, 0)


# -- experiments ------------------------------------------------------------

def test_markov_grouping_on_product_noise():
    built = build(ModelConfig("product_noise", K=5))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    f = driver_from_catalog("zero")
    markov = solve_lipschitz(tree, M, clock, None, M.scalar[lo:hi] ** 2, f)
    assert markov_grouping_check(tree, None, M, markov) <= 1e-12
    coin = product_noise_coin(tree)[lo:hi]
    auxdep = solve_lipschitz(tree, M, clock, None, coin, f)
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
    ref = gkw_decompose(tree, M, clock, zeta)
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


def test_step_only_sweeps_form_no_residual_to_overflow():
    """compare and regularity_scan take the step alone and form no
    E[[N]_T], so a solution whose residual increments overflow when squared
    gets its verdicts and its scan, while solve_lipschitz, which closes the
    residuals, refuses it."""
    built = build(ModelConfig("trinomial", K=4))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    huge = 1e200 * np.sin(3.0 * M.scalar[lo:hi])
    f = driver_from_catalog("zero")
    F = TerminalMap(id="huge_sine", arity=1,
                    evaluator=lambda s: 1e200 * np.sin(3.0 * s[:, 0]))
    with np.errstate(over="ignore"):
        with pytest.raises(InvariantViolation,
                           match=r"E\[\[N\]_T\] is not finite"):
            solve_lipschitz(tree, M, clock, None, huge, f)
        verdicts = compare(tree, M, clock, None,
                           np.column_stack([huge + 1e190, huge]), f)
        scan = regularity_scan(tree, M, 1, np.linspace(-0.5, 0.5, 5), F, f)
    assert [(v.applicable, v.ok) for v in verdicts] == [(True, True)]
    assert np.all(np.isfinite(scan.u)) and np.abs(scan.u).max() > 1e197
    assert np.all(np.isfinite(scan.z))


def test_non_finite_terminal_value_is_an_invariant_violation():
    """A NaN or inf leaf is refused before the sweep, naming the leaf and
    the column of a batch, not blamed on the driver, and with no numpy
    warning on the way."""
    tree, M, clock, mterm = binary_setup(K=4)
    f = driver_from_catalog("linear_y", coef=0.5)
    zeta = mterm.copy()
    zeta[2] = math.nan
    batch = np.column_stack([mterm, mterm])
    batch[3, 1] = -math.inf
    quadratic = driver_from_catalog("pure_quadratic", gamma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation,
                           match="^zeta is nan at leaf 2$"):
            solve_lipschitz(tree, M, clock, None, zeta, f)
        with pytest.raises(InvariantViolation,
                           match="^zeta is -inf at leaf 3, column 1$"):
            solve_lipschitz(tree, M, clock, None, batch, f)
        with pytest.raises(InvariantViolation,
                           match="^zeta is nan at leaf 2$"):
            solve_quadratic(tree, M, clock, None, zeta, quadratic)


def test_dual_value_checks_its_leaves_before_the_dp():
    """The dual DP refuses a NaN leaf and a short zeta as the solvers do,
    before any arithmetic: no numpy warning and no broadcast error."""
    built = build(ModelConfig("trinomial", K=6))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(6)
    zeta = np.sin(3.0 * M.scalar[lo:hi])
    zeta[4] = math.nan
    growth = {"a": 0.0, "b": 0.5, "gamma": 1.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation,
                           match="^zeta is nan at leaf 4$"):
            dual_value(tree, M, clock, zeta, growth, 1.0)
        with pytest.raises(InvariantViolation,
                           match="^zeta needs one value per leaf$"):
            dual_value(tree, M, clock, zeta[1:], growth, 1.0)


def test_dual_value_refuses_a_batch_of_leaf_values(monkeypatch):
    """The dual DP is 1-D: a (leaves, B) zeta passes the solvers' leaf check
    but is refused before any level is formed, not by numpy's broadcast."""
    built = build(ModelConfig("trinomial", K=6))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(6)
    zeta = np.sin(3.0 * M.scalar[lo:hi])
    growth = {"a": 0.0, "b": 0.5, "gamma": 1.0}

    def no_level(*args, **kwargs):
        raise AssertionError("a level was formed")

    monkeypatch.setattr(bsde._kernels, "edge_increments", no_level)
    with pytest.raises(InvariantViolation,
                       match="^dual_value takes one column of leaf values$"):
        dual_value(tree, M, clock, np.column_stack([zeta, zeta]), growth,
                   1.0)


def test_vanishing_N_report_structure(monkeypatch):
    F = indicator_halfspace()
    drv = driver_from_catalog("pure_quadratic", gamma=1.0)
    sweeps = []
    levels = bsde._levels

    def counting(*args, **kwargs):
        sweeps.append((np.shape(args[4])[1], args[5]))
        return levels(*args, **kwargs)
    monkeypatch.setattr(bsde, "_levels", counting)
    rep = vanishing_N_experiment([ModelConfig("trinomial", K=K)
                                  for K in (4, 8)], None, F, drv, [0.1])
    assert len(rep.rows) == 4
    # one streamed sweep of the quadratic driver per K, with the raw column
    # and one column per eps
    assert len(sweeps) == 2
    assert all(w == 2 and d is drv for w, d in sweeps)
    assert rep.decreasing_in_K()
    raw, gaps = rep.eps_gap_at_max_K()
    assert raw > 0 and 0.1 in gaps


@pytest.mark.parametrize("experiment", ["vanishing_N", "residual_sweep"])
def test_refinement_frees_each_K_before_building_the_next(experiment):
    """Over K = 64 after 32, or after 64 again, the traced peak is that of
    K = 64 alone: the previous K's tree, M and clock are not alive while
    the next K is set up (K = 32's would add over 100 kB)."""
    from orthres.gkw import residual_sweep
    F = indicator_halfspace()

    def run(K_list):
        models = [ModelConfig("trinomial", K=K) for K in K_list]
        if experiment == "vanishing_N":
            vanishing_N_experiment(models, None, F, bsde.zero_driver(),
                                   [0.01])
        else:
            residual_sweep(models, F)

    def peak(K_list):
        tracemalloc.start()
        try:
            run(K_list)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    run([4])  # first-call allocations are not the experiment's
    alone = peak([64])
    assert peak([32, 64]) < alone + 16 * 1024
    assert peak([64, 64]) < alone + 16 * 1024


def test_sweep_frees_each_consumed_level(monkeypatch):
    """When the next level's moments are formed, the consumed level's dn is
    gone: neither _levels, _closed nor _consume still holds its per-edge
    arrays; nor, in a sweep of the step alone, its dm and dy."""
    built = build(ModelConfig("trinomial", K=16))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    zeta = np.random.default_rng(3).normal(size=(hi - lo, 4))
    moments, taken, alive = _kernels.level_moments_d1, [], []

    def spy(*args, **kwargs):
        if taken:
            alive.append(any(ref() is not None for ref in taken[-1]))
        return moments(*args, **kwargs)

    def take(k, a, b, y, z, z_arg, res, dn):
        taken.append([weakref.ref(dn)])

    def take_step(k, a, b, y, z, z_arg, edges):
        taken.append([weakref.ref(e) for e in edges[:2]])

    monkeypatch.setattr(_kernels, "level_moments_d1", spy)
    bsde._consume(bsde._closed(tree, M, clock, None, zeta,
                               bsde.linear_y(0.1)), take)
    assert len(taken) == tree.K
    assert alive == [False] * (tree.K - 1)
    taken.clear()
    alive.clear()
    bsde._consume(bsde._levels(tree, M, clock, None, zeta,
                               bsde.linear_y(0.1)), take_step)
    assert len(taken) == tree.K
    assert alive == [False] * (tree.K - 1)


@pytest.mark.parametrize("kind,coeffs", [("trinomial", None),
                                          ("binary", "identity"),
                                          ("compensated_jump", None)])
def test_vanishing_N_rows_equal_per_eps_solves(kind, coeffs):
    """The streamed sweep's rows are bit for bit those of one 1-D
    solve_lipschitz per (K, eps)."""
    from orthres.mollify import mollify
    F = indicator_halfspace()
    drv = driver_from_catalog("quadratic_mixed", gamma=1.0, b=0.5, eta=0.1)
    co = forward.from_catalog(coeffs) if coeffs else None
    K_list, eps_list = [6, 9], [0.3, 0.05]
    rep = vanishing_N_experiment([ModelConfig(kind, K=K) for K in K_list],
                                 co, F, drv, eps_list, x0=0.2)
    rows = []
    for K in K_list:
        built = build(ModelConfig(kind, K=K))
        tree, M = built.tree, built.M
        clock = predictable_bracket(tree, M)
        X = None if co is None else forward.euler_forward(
            tree, M, clock, co, np.atleast_1d(0.2))
        for eps in [None] + eps_list:
            Fe = F if eps is None else mollify(F, eps)
            sol = solve_lipschitz(tree, M, clock, X,
                                  bsde._terminal_values(tree, M, X, Fe), drv)
            rows.append((K, eps, sol.bracketNN_T, sol.Y0))
    got = [(r.K, None if math.isnan(r.eps) else r.eps, r.bracketNN_T, r.y0)
           for r in rep.rows]
    assert got == rows


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


def test_regularity_scan_starts_X_at_x0_zero_by_default():
    """A scan given coefficients and no x0 starts X at 0.0, the name and
    default of setup_problem, rather than at NaN; a terminal map of (x, m)
    shows that x0 reaches X."""
    built = build(ModelConfig("trinomial", K=10))
    F = TerminalMap(id="x_and_m_1", arity=2,
                    evaluator=lambda s: np.sin(s[:, 0]) + np.cos(s[:, 1]))
    drv = driver_from_catalog("pure_quadratic", gamma=1.0)

    def scan(**x0):
        return regularity_scan(built.tree, built.M, 3,
                               np.linspace(-1.0, 1.0, 5), F, drv,
                               coeffs=forward.identity(), **x0)
    default, zero, half = scan(), scan(x0=0.0), scan(x0=0.5)
    assert np.array_equal(default.u, zero.u)
    assert np.array_equal(default.z, zero.z)
    assert not np.array_equal(half.u, zero.u)


def _scan_per_column(tree, M, t_idx, grid, F, drv, coeffs, x):
    """The scan's columns one at a time: one Euler pass on M0, F on the
    leaves of (X, M0 + m), and a 1-D solve on M0 with the shared clock and
    the driver seeing m; the reference for the batched sweeps."""
    lo, _ = tree.level_slice(t_idx)
    sub, order = forward.extract_subtree(tree, lo)
    M0 = AdaptedProcess(sub, M.values[order] - M.values[lo])
    clock = predictable_bracket(sub, M0)
    X = None if coeffs is None else forward.euler_forward(
        sub, M0, clock, coeffs, x)
    sols = []
    for m in grid:
        Mm = AdaptedProcess(sub, M0.values + m)
        zeta = bsde._terminal_values(sub, Mm, X, F)
        shifted = replace(drv, f=lambda t, x, mm, y, z, m=m: drv.f(
            t, x, mm + m, y, z))
        sols.append(solve_lipschitz(sub, M0, clock, X, zeta, shifted))
    return sols


def _counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


# f depends on m, so a column that saw the wrong shift would show
M_DRIVER = DriverSpec(
    id="m_dependent", y_part=(0.1, 0.0),
    f=lambda t, x, m, y, z: 0.5 * z * z + 0.2 * np.sin(3.0 * m) + 0.1 * y)
# a terminal map of (x, m) with n_x = 2, the arity-(n_x + 1) path of
# _terminal_values
F_XM = TerminalMap(id="x_and_m", arity=3,
                   evaluator=lambda s: (np.sin(2.0 * s[:, 0])
                                        + np.cos(s[:, 1]) + s[:, 2] ** 2))


@pytest.mark.parametrize("columns", [None, 1, 2, "all"])
@pytest.mark.parametrize("drv,F,coeffs", [
    (driver_from_catalog("pure_quadratic", gamma=1.0), sine(),
     forward.identity()),
    (M_DRIVER, F_XM, forward.constant_drift(c=0.5, n=2)),
    (M_DRIVER, sine(), None)], ids=["catalog", "x_and_m", "no_coeffs"])
def test_regularity_scan_sweeps_equal_per_column_solves(columns, drv, F,
                                                        coeffs, monkeypatch):
    """u and the root Z equal per-column 1-D solves bit for bit, whatever the
    sweep width, a grid wider than one sweep issues ceil(count/width)
    sweeps, and the scan makes one Euler pass whatever the sweep count."""
    built = build(ModelConfig("trinomial", K=10))
    tree, M = built.tree, built.M
    grid = np.linspace(-1.0, 1.0, 7)
    x = None if coeffs is None else np.linspace(0.25, -0.5, coeffs.n)
    lo, _ = tree.level_slice(3)
    sub, _ = forward.extract_subtree(tree, lo)
    if columns is not None:
        width = len(grid) if columns == "all" else columns
        monkeypatch.setattr(bsde, "SWEEP_BYTES",
                            width * bsde._stream_bytes(sub))
    width = bsde.columns_per_sweep(sub)
    want = _scan_per_column(tree, M, 3, grid, F, drv, coeffs, x)
    calls = {"sweep": 0, "euler": 0}
    monkeypatch.setattr(bsde, "_levels",
                        _counting(calls, "sweep", bsde._levels))
    monkeypatch.setattr(bsde, "euler_forward",
                        _counting(calls, "euler", forward.euler_forward))
    scan = regularity_scan(tree, M, 3, grid, F, drv, coeffs=coeffs, x0=x)
    assert calls["sweep"] == math.ceil(len(grid) / width)
    assert calls["euler"] == (coeffs is not None)
    assert np.array_equal(scan.u, [s.Y0 for s in want])
    assert np.array_equal(scan.z, [s.Z.values[0, 0] for s in want])


def test_regularity_scan_extracts_once_and_clocks_once(monkeypatch):
    built = build(ModelConfig("trinomial", K=10))
    tree, M = built.tree, built.M
    coeffs, F = forward.identity(), sine()
    drv = driver_from_catalog("pure_quadratic", gamma=1.0)
    grid = np.linspace(-1.0, 1.0, 5)
    lo, _ = tree.level_slice(4)
    # two columns per sweep: the 5 points take 3 sweeps
    sub, _ = forward.extract_subtree(tree, lo)
    monkeypatch.setattr(bsde, "SWEEP_BYTES", 2 * bsde._stream_bytes(sub))
    # the per-point restart the scan replaced: extract, shift, clock, solve
    per_point = []
    for m in grid:
        sub, Msub, Xsub = forward.shift_start(tree, M, 4, lo, m,
                                              coeffs=coeffs, x=[0.0])
        clock = predictable_bracket(sub, Msub)
        zeta = bsde._terminal_values(sub, Msub, Xsub, F)
        per_point.append(
            solve_lipschitz(sub, Msub, clock, Xsub, zeta, drv).Y0)
    want = [s.Y0 for s in _scan_per_column(tree, M, 4, grid, F, drv,
                                           coeffs, [0.0])]

    calls = {"clock": 0, "extract": 0, "sweep": 0}
    clock_fn = _counting(calls, "clock", predictable_bracket)
    extract_fn = _counting(calls, "extract", forward.extract_subtree)
    for mod in ("orthres.ftree", "orthres.bsde"):
        monkeypatch.setattr(f"{mod}.predictable_bracket", clock_fn)
    for mod in ("orthres.forward", "orthres.bsde"):
        monkeypatch.setattr(f"{mod}.extract_subtree", extract_fn)
    monkeypatch.setattr(bsde, "_levels",
                        _counting(calls, "sweep", bsde._levels))
    scan = regularity_scan(tree, M, 4, grid, F, drv, coeffs=coeffs, x0=0.0)
    assert calls == {"clock": 1, "extract": 1, "sweep": 3}
    assert np.array_equal(scan.u, want)
    # the shared clock moves u by a few ulps at most
    npt.assert_allclose(scan.u, per_point, rtol=0, atol=1e-15)


def test_regularity_scan_root_z_is_the_central_difference(monkeypatch):
    """On a trinomial subtree the root's projection onto dM is the central
    difference of Y at level 1, (Y+ - Y-) / (2h), in every column; the
    summary's gradient gap is built from it."""
    built = build(ModelConfig("trinomial", K=12))
    tree, M = built.tree, built.M
    grid = np.linspace(-0.5, 0.5, 6)
    lo, _ = tree.level_slice(5)
    sub, order = forward.extract_subtree(tree, lo)
    m0 = M.scalar[order] - M.scalar[lo]
    # two columns per sweep: the 6 points take 3 sweeps
    monkeypatch.setattr(bsde, "SWEEP_BYTES", 2 * bsde._stream_bytes(sub))
    # level 1's y and the root's Z of every sweep
    sweeps = []

    def keep(steps, take=None):
        seen = {}
        sweeps.append(seen)

        def record(k, a, b, y, z, z_arg, edges):
            seen[k] = (y.copy(), z.copy())
        return consume(steps, record)
    consume = bsde._consume
    monkeypatch.setattr(bsde, "_consume", keep)
    scan = regularity_scan(tree, M, 5, grid, sine(),
                           driver_from_catalog("pure_quadratic", gamma=1.0),
                           coeffs=forward.identity(), x0=0.0)
    assert len(sweeps) == 3
    y = np.concatenate([s[1][0] for s in sweeps], axis=1)
    z = np.concatenate([s[0][1] for s in sweeps], axis=1)
    a, b = sub.level_slice(1)
    up, down = np.argmax(m0[a:b]), np.argmin(m0[a:b])
    h = (m0[a + up] - m0[a + down]) / 2
    npt.assert_allclose(z[0], (y[up] - y[down]) / (2 * h), rtol=0, atol=1e-12)
    assert np.array_equal(scan.z, z[0])
    dm = grid[1] - grid[0]
    gap = np.abs(np.diff(scan.u) / dm - (scan.z[1:] + scan.z[:-1]) / 2)
    assert scan.max_grad_gap == gap.max()


@pytest.mark.parametrize("drv", [
    driver_from_catalog("pure_quadratic", gamma=1.0),
    driver_from_catalog("quadratic_mixed", gamma=1.0, b=0.5, eta=0.1)],
    ids=["pure_quadratic", "quadratic_mixed"])
def test_cascade_runs_one_sweep_for_nonnegative_driver(drv, monkeypatch):
    tree, M, clock, mterm = binary_setup(K=10)
    zeta = 0.5 * np.clip(mterm, -1, 1)
    # p only sets the first n, so p = 1 alone is the sweep the p-loop repeated
    once = solve_quadratic(tree, M, clock, None, zeta, drv, p=1)
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


def _per_level_bracket(sol):
    """E[[N]_T] of a 1-D solve summed per level, then in level order."""
    tree = sol.tree
    dn = solution_dN(sol)
    res = _kernels._segment_sum(tree, tree.eprob * dn * dn,
                                tree.estart[:tree.n_nonterminal])
    bracket, pp = 0.0, path_prob(tree)
    for k in range(tree.K - 1, -1, -1):
        a, b = tree.level_slice(k)
        bracket = bracket + np.sum(pp[a:b] * res[a:b])
    return bracket


@settings(max_examples=60, deadline=None)
@given(*_batch_args)
def test_batched_columns_equal_1d_solves(seed, K, B, u, share, zscale):
    """Each column of a batch of any width 1..6 on a random full tree is its
    1-D solve, whose E[[N]_T] sums per level, then in level order."""
    tree, M, clock, zeta, ky, b, kz, c0 = _batch_setup(
        seed, K, B, u, share, zscale)
    batch = solve_lipschitz(tree, M, clock, None, zeta,
                            _y_part_driver(ky, b, kz, c0))
    assert batch.Y.values.shape == (tree.n_nodes, B)
    batch_dn = solution_dN(batch)
    assert batch_dn.shape == (len(tree.echild), B)
    assert batch.dN2.shape == (tree.n_nonterminal, B)
    for j in range(B):
        one = solve_lipschitz(tree, M, clock, None, zeta[:, j].copy(),
                              _y_part_driver(ky[j], b[j], kz[j], c0[j]))
        assert np.array_equal(batch.Y.values[:, j], one.Y.values[:, 0])
        assert np.array_equal(batch.Z.values[:, j], one.Z.values[:, 0])
        assert np.array_equal(batch_dn[:, j], solution_dN(one))
        assert np.array_equal(batch.dN2[:, j], one.dN2)
        assert batch.bracketNN_T[j] == one.bracketNN_T
        assert one.bracketNN_T == _per_level_bracket(one)
        assert batch.Y0[j] == one.Y0


@settings(max_examples=40, deadline=None)
@given(small_trees(), st.integers(2, 4))
def test_stored_residual_is_the_reprojected_dN_squared(tm, B):
    """E[dN^2 | node] as a solve stores it is edge_sum(p dN dN) of the
    per-edge dN projected again from its Y and Z, bit for bit: for a 1-D
    solve and for each column of a batch, on every model kind."""
    tree, M = tm
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    zeta = np.column_stack([np.sin((j + 1) * M.scalar[lo:hi])
                            for j in range(B)])
    drv = driver_from_catalog("quadratic_mixed", gamma=1.0, b=0.5, eta=0.1)
    nt = tree.n_nonterminal
    one = solve_lipschitz(tree, M, clock, None, zeta[:, 0].copy(), drv)
    batch = solve_lipschitz(tree, M, clock, None, zeta, drv)
    pairs = [(one.dN2, solution_dN(one))]
    pairs += zip(batch.dN2.T, solution_dN(batch).T)
    for got, dn in pairs:
        want = _kernels._segment_sum(tree, tree.eprob * dn * dn,
                                     tree.estart[:nt])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=40, deadline=None)
@given(*_batch_args)
def test_levels_columns_equal_solo_solves(seed, K, B, u, share, zscale):
    """Each column of a streamed _levels sweep is its own solve_lipschitz:
    level by level y, Z and E[dN^2 | node], then E[[N]_T]."""
    tree, M, clock, zeta, ky, b, kz, c0 = _batch_setup(
        seed, K, B, u, share, zscale)
    solos = [solve_lipschitz(tree, M, clock, None, zeta[:, j].copy(),
                             _y_part_driver(ky[j], b[j], kz[j], c0[j]))
             for j in range(B)]
    seen = []

    def check(k, a, b_, y, z, z_arg, res, dn):
        seen.append(k)
        assert y.shape == z.shape == res.shape == (b_ - a, B)
        for j, one in enumerate(solos):
            assert np.array_equal(y[:, j], one.Y.values[a:b_, 0])
            assert np.array_equal(z[:, j], one.Z.values[a:b_, 0])
            assert np.array_equal(res[:, j], one.dN2[a:b_])
            assert np.array_equal(z_arg[:, j], clock.factor(a, b_)
                                  * one.Z.values[a:b_, 0])
    bracket, root = bsde._consume(bsde._closed(
        tree, M, clock, None, zeta, _y_part_driver(ky, b, kz, c0)), check)
    assert seen == list(range(K - 1, -1, -1))
    assert root[:3] == (0, 0, 1)
    for j, one in enumerate(solos):
        assert bracket[j] == one.bracketNN_T
        assert root[3][0, j] == one.Y0


@st.composite
def step_sweeps(draw):
    """A tree of any kind with its M and clock, leaf values as one column
    or a batch, an X that is absent or shared by the columns, and a driver
    that reads X and declares a y-part."""
    tree, M = draw(small_trees())
    clock = predictable_bracket(tree, M)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    B = draw(st.sampled_from([None, 1, 3]))
    lo, hi = tree.level_slice(tree.K)
    zeta = np.sin(3.0 * M.scalar[lo:hi])
    if B is not None:
        zeta = zeta[:, None] + 0.5 * rng.normal(size=(hi - lo, B))
    X = None
    if draw(st.booleans()):
        X = forward.euler_forward(tree, M, clock, forward.identity(n=2),
                                  [0.5, -0.25])
    ky = 0.4 / max(float(clock.dC.values.max()), 1.0)

    def f(t, x, m, y, z):
        xs = 0.0 if x is None else (x[:, :1] if y.ndim == 2 else x[:, 0])
        return ky * y + 0.3 * z + 0.1 * xs
    return tree, M, clock, X, zeta, DriverSpec(id="x_read", f=f,
                                               y_part=(ky, 0.0))


@settings(max_examples=80, deadline=None)
@given(step_sweeps())
def test_step_only_sweep_equals_the_closed_sweep(case):
    """Per level, the step alone (_levels) yields the y, Z and q Z of the
    sweep whose residuals are closed (_closed), byte for byte, on random
    full trees, strided lattices, the jump lattice and the rest, for one
    column or a batch, with or without X; the step
    returns nothing and the closed sweep E[[N]_T]."""
    tree, M, clock, X, zeta, driver = case
    seen = {"step": [], "closed": []}

    def step(k, a, b, y, z, z_arg, edges):
        seen["step"].append((k, a, b, y.copy(), z.copy(), z_arg.copy()))

    def closed(k, a, b, y, z, z_arg, res, dn):
        seen["closed"].append((k, a, b, y.copy(), z.copy(), z_arg.copy()))
    value, root = bsde._consume(
        bsde._levels(tree, M, clock, X, zeta, driver), step)
    bracket, closed_root = bsde._consume(
        bsde._closed(tree, M, clock, X, zeta, driver), closed)
    assert value is None and len(root) == 6 and len(closed_root) == 7
    assert np.all(np.isfinite(bracket))
    assert len(seen["step"]) == len(seen["closed"]) == tree.K
    for got, want in zip(seen["step"], seen["closed"]):
        assert got[:3] == want[:3]
        for x, w in zip(got[3:], want[3:]):
            assert x.shape == w.shape and x.tobytes() == w.tobytes()
    sol = solve_lipschitz(tree, M, clock, X, zeta, driver)
    assert np.array_equal(bracket, sol.bracketNN_T)
    assert np.array_equal(root[3], sol.Y.values[:1].reshape(root[3].shape))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["binary", "trinomial"]),
       st.integers(1, 9), st.sampled_from([1, 2, 3, 50]),
       st.sampled_from(["C", "F"]))
def test_lattice_sweep_columns_equal_1d_solves_on_both_child_paths(
        seed, kind, K, B, order):
    """Each column of a B-column _levels sweep is its 1-D solve bit for bit,
    for C- and F-ordered zeta, on a line lattice, whose levels read their
    children as a view, and on its copy with permuted leaves, which gathers
    them; the two copies agree bit for bit on every level."""
    rng = np.random.default_rng(seed)
    built = build(ModelConfig(kind, K=K))
    tree, M = built.tree, built.M
    lo, hi = tree.level_slice(K)
    zeta = (np.sin(3.0 * M.scalar[lo:hi])[:, None]
            + 0.5 * rng.normal(size=(hi - lo, B)))
    perm, new_id = permute_last_level(tree, rng)
    m_perm = np.empty_like(M.values)
    m_perm[new_id] = M.values
    zeta_perm = np.empty_like(zeta)
    zeta_perm[new_id[lo:hi] - lo] = zeta
    assert tree.child_stride == 1 and perm.child_stride is None
    # the leaves' order leaves dC alone: one set of coefficients serves both
    u = 0.8 / float(predictable_bracket(tree, M).dC.values.max())
    ky, b = (u / 2 * rng.uniform(-1, 1, size=B) for _ in range(2))
    kz, c0 = rng.uniform(-1, 1, size=B), rng.uniform(-0.5, 0.5, size=B)
    sweeps = []
    for tr, m, z0 in ((tree, M.values, zeta), (perm, m_perm, zeta_perm)):
        Mt = AdaptedProcess(tr, m)
        clock = predictable_bracket(tr, Mt)
        z0 = np.asarray(z0, order=order)
        solos = [solve_lipschitz(tr, Mt, clock, None, z0[:, j].copy(),
                                 _y_part_driver(ky[j], b[j], kz[j], c0[j]))
                 for j in range(B)]
        levels = []

        def check(k, a, b_, y, z, z_arg, res, dn):
            for j, one in enumerate(solos):
                assert np.array_equal(y[:, j], one.Y.values[a:b_, 0])
                assert np.array_equal(z[:, j], one.Z.values[a:b_, 0])
                assert np.array_equal(res[:, j], one.dN2[a:b_])
            levels.append((y.copy(), z.copy(), res.copy()))
        bracket, root = bsde._consume(bsde._closed(
            tr, Mt, clock, None, z0, _y_part_driver(ky, b, kz, c0)), check)
        for j, one in enumerate(solos):
            assert bracket[j] == one.bracketNN_T
            assert root[3][0, j] == one.Y0
        sweeps.append((levels, bracket))
    (lv1, br1), (lv2, br2) = sweeps
    assert np.array_equal(br1, br2)
    for a, b in zip(lv1, lv2):
        for x1, x2 in zip(a, b):
            assert np.array_equal(x1, x2)


@settings(max_examples=40, deadline=None)
@given(*_batch_args, st.lists(st.sampled_from(["ordered", "zeta", "driver"]),
                              min_size=6, max_size=6))
def test_batched_compare_equals_per_pair_verdicts(seed, K, B, u, share,
                                                  zscale, kinds):
    tree, M, clock, zeta, ky, b, kz, c0 = _batch_setup(
        seed, K, B, u, share, zscale)
    # column j of the upper half sits above the lower one, unless kinds[j]
    # unorders its terminal data or its drivers
    kinds = kinds[:B]
    shift = np.array([-0.5 if k == "zeta" else 0.25 for k in kinds])
    lift = np.array([-0.5 if k == "driver" else 0.25 for k in kinds])
    pairs = np.hstack([zeta + shift, zeta])
    driver = _y_part_driver(np.tile(ky, 2), np.tile(b, 2), np.tile(kz, 2),
                            np.hstack([c0 + lift, c0]))
    verdicts = compare(tree, M, clock, None, pairs, driver)
    assert len(verdicts) == B
    for j, v in enumerate(verdicts):
        s1 = solve_lipschitz(tree, M, clock, None,
                             zeta[:, j] + shift[j],
                             _y_part_driver(ky[j], b[j], kz[j],
                                            c0[j] + lift[j]))
        s2 = solve_lipschitz(tree, M, clock, None, zeta[:, j].copy(),
                             _y_part_driver(ky[j], b[j], kz[j], c0[j]))
        assert v == reference.compare(s1, s2)
        assert v.applicable == (kinds[j] == "ordered")
    # the same verdicts from column views of one stored batch of both sides
    both = solve_lipschitz(tree, M, clock, None, pairs, driver)
    halves = (slice(None, B), slice(B, None))
    drivers = (_y_part_driver(ky, b, kz, c0 + lift),
               _y_part_driver(ky, b, kz, c0))
    assert reference.compare(*(reference.columns(both, c, f)
                               for c, f in zip(halves, drivers))) == verdicts


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
    """The campaign one seed at a time: two 1-D solves and the reference
    compare per seed, the reference for the streamed runner."""
    built = build(cfg.model)
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    rows = []
    for i in range(cfg.seeds):
        rng = np.random.default_rng(cfg.seed + i)
        zeta1, zeta2, f1, f2 = reference.random_lipschitz_pair(
            rng, M.scalar[lo:hi])
        v = reference.compare(
            solve_lipschitz(tree, M, clock, None, zeta1, f1),
            solve_lipschitz(tree, M, clock, None, zeta2, f2))
        rows.append({"seed": cfg.seed + i, "applicable": v.applicable,
                     "ok": v.ok, "violation": v.worst_violation})
    return rows


@pytest.mark.parametrize("seed", [0, 41])
@pytest.mark.parametrize("budget", [None, 4], ids=["default", "4_columns"])
def test_batched_campaign_rows_equal_per_seed_rows(seed, budget,
                                                   monkeypatch):
    cfg = cli.parse_config({"experiment": "comparison_campaign",
                            "model": {"kind": "trinomial", "K": 12},
                            "seeds": 7, "seed": seed, "output": "unused"})
    if budget is not None:
        # room for 4 columns: groups of 2 seeds, then a group of 1
        tree = build(cfg.model).tree
        monkeypatch.setattr(bsde, "SWEEP_BYTES",
                            budget * bsde._stream_bytes(tree))
    sweeps = []

    def counting(*args, **kwargs):
        sweeps.append(np.shape(args[4]))
        return compare(*args, **kwargs)
    monkeypatch.setattr(bsde, "compare", counting)
    rows, _, _ = cli._run_comparison_campaign(cfg)
    assert rows == _campaign_per_seed(cfg)
    widths = [s[1] for s in sweeps]
    assert widths == ([14] if budget is None else [4, 4, 4, 2])


def test_sweep_budget_holds_50_streamed_columns_at_K256():
    tree = build(ModelConfig("trinomial", K=256)).tree
    assert bsde.columns_per_sweep(tree) == 50
    # one column: nine arrays of the widest level's 1533 edges
    assert bsde._stream_bytes(tree) == 8 * 9 * 1533
    assert 50 * bsde._stream_bytes(tree) <= bsde.SWEEP_BYTES


def test_streamed_compare_keeps_no_full_size_column():
    """Each further pair column of a streamed compare adds at most what
    _stream_bytes budgets for it, far below a full-size Y and Z."""
    built = build(ModelConfig("trinomial", K=128))
    tree, M = built.tree, built.M
    clock = predictable_bracket(tree, M)
    lo, hi = tree.level_slice(tree.K)
    rng = np.random.default_rng(5)

    def peak(pairs):
        zeta = rng.normal(size=(hi - lo, 2 * pairs))
        driver = cli._affine_driver(np.zeros(2 * pairs),
                                    rng.uniform(-1, 1, 2 * pairs),
                                    rng.uniform(size=2 * pairs))
        tracemalloc.start()
        try:
            compare(tree, M, clock, None, zeta, driver)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_column = (peak(34) - peak(2)) / 64
    assert per_column <= bsde._stream_bytes(tree)
    assert per_column < 8 * (tree.n_nodes + tree.n_nonterminal) / 4


def test_benchmark_scan_runs_one_streamed_sweep(monkeypatch):
    """The 41-point restart scan at trinomial K = 128, t_idx = 48 fits one
    sweep: one Euler pass and one _levels sweep, each column adding at most
    what _stream_bytes budgets for it."""
    built = build(ModelConfig("trinomial", K=128))
    tree, M = built.tree, built.M
    lo, _ = tree.level_slice(48)
    sub, _ = forward.extract_subtree(tree, lo)
    drv = driver_from_catalog("pure_quadratic", gamma=1.0)

    def peak(count):
        tracemalloc.start()
        try:
            regularity_scan(tree, M, 48, np.linspace(-1.0, 1.0, count),
                            sine(), drv, coeffs=forward.identity(), x0=0.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_column = (peak(41) - peak(2)) / 39
    assert per_column <= bsde._stream_bytes(sub)
    calls = {"euler": 0, "sweep": 0}
    monkeypatch.setattr(bsde, "euler_forward",
                        _counting(calls, "euler", forward.euler_forward))
    monkeypatch.setattr(bsde, "_levels",
                        _counting(calls, "sweep", bsde._levels))
    regularity_scan(tree, M, 48, np.linspace(-1.0, 1.0, 41), sine(), drv,
                    coeffs=forward.identity(), x0=0.0)
    assert calls == {"euler": 1, "sweep": 1}


def test_scan_columns_share_one_x(monkeypatch):
    """Doubling a restart scan's grid adds no full-size X per column: the
    columns share the one X of the scan's Euler pass, so each adds less than
    X's 8 * n_x * n_nodes bytes, and at most what _stream_bytes budgets."""
    built = build(ModelConfig("trinomial", K=96))
    tree, M = built.tree, built.M
    lo, _ = tree.level_slice(16)
    sub, _ = forward.extract_subtree(tree, lo)
    coeffs = forward.identity(n=2)
    drv = driver_from_catalog("pure_quadratic", gamma=1.0)
    # one sweep at either width, whatever each column holds
    monkeypatch.setattr(bsde, "SWEEP_BYTES", 10 ** 12)

    def peak(count):
        tracemalloc.start()
        try:
            regularity_scan(tree, M, 16, np.linspace(-1.0, 1.0, count),
                            sine(), drv, coeffs=coeffs, x0=[0.0, 0.5])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_column = (peak(64) - peak(32)) / 32
    assert per_column <= bsde._stream_bytes(sub)
    assert per_column < 8 * coeffs.n * sub.n_nodes
