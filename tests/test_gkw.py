import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthres import _kernels, bsde
from orthres.bsde import (compare, constant, dual_value, linear_y,
                          pure_quadratic, solve_lipschitz,
                          vanishing_N_experiment, zero_driver)
from orthres.errors import InvariantViolation
from orthres.forward import euler_forward, extract_subtree, identity
from orthres.ftree import (AdaptedProcess, ScenarioTree, TimeGrid,
                           conditional_covariances, is_martingale,
                           predictable_bracket)
from orthres.gkw import gkw_decompose, martingale_from_terminal, residual_sweep
from orthres.models import ModelConfig, build
from orthres.mollify import indicator_halfspace, sine, square

from conftest import random_full_tree, random_martingale, small_trees
from reference import (TreeBuilder, bracket_split, edge_slice, gkw_levels,
                       gkw_pinv, path_prob, running_sum)


def trinomial_k1(p=0.25, h=1.0):
    built = build(ModelConfig("trinomial", K=1, params={"p": p, "h": h}))
    return built.tree, built.M


def decompose(tree, M, zeta):
    """gkw_decompose of zeta on the clock of M."""
    return gkw_decompose(tree, M, predictable_bracket(tree, M), zeta)


def brute_force_gkw(tree, M, Y):
    """Independent per-node least squares oracle via numpy lstsq."""
    nt = tree.n_nonterminal
    y, m = Y.values[:, 0], M.values
    total = 0.0
    Z = np.zeros((nt, M.dim))
    ec, pr, pp = tree.echild, tree.eprob, path_prob(tree)
    for i in range(nt):
        e0, e1 = int(tree.estart[i]), int(tree.estart[i + 1])
        p = pr[e0:e1]
        dm = m[ec[e0:e1]] - m[i]
        dy = y[ec[e0:e1]] - y[i]
        A = np.sqrt(p)[:, None] * dm
        b = np.sqrt(p) * dy
        z = np.linalg.lstsq(A, b, rcond=None)[0]
        res = dy - dm @ z
        Z[i] = z
        total += pp[i] * float(p @ res ** 2)
    return Z, total


def exact_trinomial_indicator_residual(K, p=0.25):
    """E[[N]_T] of 1{M_K > 0} on the trinomial lattice, from its exact law.

    Independent of the tree code: the law of the step count S_k on -k..k
    comes from repeated convolution, V_k(s) = P(s + S_K - S_k > 0) from the
    law of the remaining steps, and each node contributes what is left of
    V_{k+1} - V_k after projecting it on the step dS in {-1, 0, 1}.  The
    mesh h scales dS and cancels out of the projection.
    """
    step = np.array([p, 1 - 2 * p, p])
    ds = np.array([-1.0, 0.0, 1.0])
    laws = [np.array([1.0])]
    for _ in range(K):
        laws.append(np.convolve(laws[-1], step))

    def value(k):
        n = K - k
        s = np.arange(-k, k + 1)[:, None] + np.arange(-n, n + 1)[None, :]
        return (s > 0) @ laws[n]

    total = 0.0
    v = value(0)
    for k in range(K):
        v_next = value(k + 1)
        # children of state s at level k sit at s-1, s, s+1
        dv = np.stack([v_next[:-2], v_next[1:-1], v_next[2:]], axis=1) \
            - v[:, None]
        cov = (dv * ds) @ step
        res = dv ** 2 @ step - cov ** 2 / (ds ** 2 @ step)
        total += float(laws[k] @ res)
        v = v_next
    return total


# -- exact representation on complete branching -----------------------------

def test_binary_residual_is_zero():
    built = build(ModelConfig("binary", K=8))
    tree, M = built.tree, built.M
    lo, hi = tree.level_slice(tree.K)
    res = decompose(tree, M, np.sin(3.0 * M.scalar[lo:hi]))
    assert res.bracketNN_T <= 1e-15
    npt.assert_allclose(res.dN, 0.0, atol=1e-12)


# -- hand oracle: trinomial one step ----------------------------------------

def test_trinomial_square_one_step_oracle():
    tree, M = trinomial_k1()
    res = decompose(tree, M, M.scalar[1:4] ** 2)
    # symmetric states, even payoff: projection on dM vanishes
    npt.assert_allclose(res.Z.values, 0.0, atol=1e-14)
    order = np.argsort(M.scalar[1:4])
    npt.assert_allclose(res.dN[order], [0.5, -0.5, 0.5], atol=1e-14)
    npt.assert_allclose(res.bracketNN_T, 0.25, atol=1e-14)
    npt.assert_allclose(res.Y0, 0.5, atol=1e-14)


def test_matches_brute_force_least_squares(rng):
    for _ in range(8):
        tree = random_full_tree(rng, K=3)
        M = random_martingale(rng, tree)
        lo, hi = tree.level_slice(tree.K)
        zeta = rng.normal(size=hi - lo)
        res = decompose(tree, M, zeta)
        Z_ref, total_ref = brute_force_gkw(
            tree, M, martingale_from_terminal(tree, zeta))
        npt.assert_allclose(res.bracketNN_T, total_ref, atol=1e-10)
        npt.assert_allclose(res.Z.values, Z_ref, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.floats(0.2, 2.0))
def test_matches_pinv_reference(seed, K, scale):
    """The kernel projection is the per-node pinv loop on scalar M."""
    rng = np.random.default_rng(seed)
    tree = random_full_tree(rng, K=K)
    M = random_martingale(rng, tree, scale)
    lo, hi = tree.level_slice(K)
    zeta = np.sin(3.0 * M.scalar[lo:hi]) + rng.normal(size=hi - lo)
    res = decompose(tree, M, zeta)
    Z, dn, bracket = gkw_pinv(tree, M, martingale_from_terminal(tree, zeta))
    tol = dict(rtol=1e-12, atol=1e-12)
    npt.assert_allclose(res.Z.values, Z, **tol)
    npt.assert_allclose(res.dN, dn, **tol)
    npt.assert_allclose(res.bracketNN_T, bracket, **tol)


# -- the zero-driver solve against the level loop it replaced -----------------

def assert_matches_level_loop(tree, M, zeta):
    """Y, Z and dN bit for bit; E[[N]_T], which the solve sums per level and
    the loop over every node at once, to 1e-14 relative.  The returned Y is
    the closure of zeta and a martingale."""
    Y = martingale_from_terminal(tree, zeta)
    res = decompose(tree, M, zeta)
    z, dn, bracket = gkw_levels(tree, M, Y)
    assert np.array_equal(res.Y.values, Y.values)
    assert is_martingale(tree, res.Y)
    assert np.array_equal(res.Z.values[:, 0], z)
    assert np.array_equal(res.dN, dn)
    npt.assert_allclose(res.bracketNN_T, bracket, rtol=1e-14, atol=0)
    assert res.Y0 == Y.values[0, 0]


# one lattice of each model kind, small enough for the per-level loops
EVERY_KIND = [("trinomial", 64), ("compensated_jump", 48), ("binary", 32),
              ("product_noise", 6), ("time_changed", 12)]


@settings(max_examples=60, deadline=None)
@given(small_trees(), st.sampled_from((indicator_halfspace(), sine())))
def test_matches_level_loop_on_small_trees(tm, F):
    tree, M = tm
    lo, hi = tree.level_slice(tree.K)
    assert_matches_level_loop(tree, M, F(M.values[lo:hi]))


@pytest.mark.parametrize("kind,K", EVERY_KIND)
@pytest.mark.parametrize("F", [indicator_halfspace(), sine()],
                         ids=["indicator", "sine"])
def test_matches_level_loop_on_every_kind(kind, K, F):
    built = build(ModelConfig(kind, K=K))
    lo, hi = built.tree.level_slice(K)
    assert_matches_level_loop(built.tree, built.M, F(built.M.values[lo:hi]))


@pytest.mark.parametrize("kind,K", EVERY_KIND)
@pytest.mark.parametrize("F", [indicator_halfspace(), sine()],
                         ids=["indicator", "sine"])
def test_sweep_dn_is_edge_residuals_on_its_own_y(kind, K, F):
    """The dN the sweep forms is byte for byte edge_residuals_d1's, run
    level by level on edge_increments of M with the level's own y as ey, so
    the sweep and the kernel the oracles use cannot drift apart."""
    built = build(ModelConfig(kind, K=K))
    tree, M = built.tree, built.M
    lo, hi = tree.level_slice(K)
    res = decompose(tree, M, F(M.values[lo:hi]))
    y, z = res.Y.scalar, res.Z.values[:, 0]
    dn = np.empty(len(tree.echild))
    for k in range(K):
        a, b = tree.level_slice(k)
        _kernels.edge_residuals_d1(
            tree, _kernels.edge_increments(tree, M.scalar, a, b), y, y[a:b],
            z[a:b], a, b, dn)
    assert res.dN.tobytes() == dn.tobytes()


# -- the closure on a clock without increments --------------------------------

@st.composite
def closure_cases(draw):
    """(tree, M, zeta): a small_trees tree (random full trees of mixed
    arity given as arrays or of one arity in closed form, every built kind,
    recombining and full, the two-sided jump and ``time_changed``), as it is
    or as the subtree of a random non-terminal node, with leaf values
    (leaves,) or a batch (leaves, 2 .. 3), a random share of them -0.0."""
    tree, M = draw(small_trees())
    if draw(st.booleans()):
        sub, order = extract_subtree(
            tree, draw(st.integers(0, tree.n_nonterminal - 1)))
        tree, M = sub, AdaptedProcess(sub, M.values[order])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo, hi = tree.level_slice(tree.K)
    shape = (hi - lo,) + ((draw(st.integers(2, 3)),)
                          if draw(st.booleans()) else ())
    zeta = rng.normal(size=shape)
    zeta[rng.random(shape) < draw(st.sampled_from((0.0, 0.5, 1.0)))] = -0.0
    return tree, M, zeta


def _closed_levels(tree, M, clock, zeta):
    """Each level's Y, Z, E[dN^2 | node] and per-edge dN as bytes, and
    E[[N]_T], from one zero-driver ``_closed`` sweep on ``clock``."""
    levels = []

    def take(k, a, b, y, z, z_arg, res, dn):
        levels.append(tuple(np.ascontiguousarray(v).tobytes()
                            for v in (y, z, res, dn)))
    bracket, _ = bsde._consume(bsde._closed(tree, M, clock, None, zeta,
                                            zero_driver()), take)
    return levels, np.asarray(bracket).tobytes()


@settings(max_examples=100, deadline=None)
@given(closure_cases(), st.sampled_from((constant(0.0), linear_y(0.3),
                                         pure_quadratic(1.0))))
def test_closure_without_increments_equals_the_full_clock_sweep(case,
                                                                driver):
    """The clock without increments makes the full clock's checks and finds
    its sigma_max, and the zero driver's closure on it is byte for byte the
    zero-driver sweep on the full clock, the reference: every level's Y, Z,
    E[dN^2 | node] and per-edge dN, and E[[N]_T], in 1-D and in a batch;
    likewise the stored solve and, in 1-D, the GKW decomposition.  Any
    other driver, a zero constant too, is refused on it, and so are the
    readers of dC: the factor, the Euler pass and compare."""
    tree, M, zeta = case
    full = predictable_bracket(tree, M)
    bare = predictable_bracket(tree, M, increments=False)
    assert bare.dC is None and bare.sigma_max == full.sigma_max
    assert (_closed_levels(tree, M, bare, zeta)
            == _closed_levels(tree, M, full, zeta))
    got = solve_lipschitz(tree, M, bare, None, zeta, zero_driver())
    want = solve_lipschitz(tree, M, full, None, zeta, zero_driver())
    for name in ("Y", "Z"):
        assert (getattr(got, name).values.tobytes()
                == getattr(want, name).values.tobytes()), name
    assert got.dN2.tobytes() == want.dN2.tobytes()
    assert (np.asarray(got.bracketNN_T).tobytes()
            == np.asarray(want.bracketNN_T).tobytes())
    if zeta.ndim == 1:
        got, want = (gkw_decompose(tree, M, c, zeta) for c in (bare, full))
        for name in ("Y", "Z"):
            assert (getattr(got, name).values.tobytes()
                    == getattr(want, name).values.tobytes()), name
        assert got.dN.tobytes() == want.dN.tobytes()
        assert (np.float64(got.bracketNN_T).tobytes()
                == np.float64(want.bracketNN_T).tobytes())
    with pytest.raises(InvariantViolation, match="without them takes only "
                                                 "the zero driver"):
        solve_lipschitz(tree, M, bare, None, zeta, driver)
    pairs = np.tile(zeta.reshape(len(zeta), -1), 2)
    for reads_dc in (lambda: bare.factor(0, tree.n_nonterminal),
                     lambda: euler_forward(tree, M, bare, identity(), 0.0),
                     lambda: compare(tree, M, bare, None, pairs,
                                     zero_driver())):
        with pytest.raises(InvariantViolation, match="without its "
                                                     "increments dC"):
            reads_dc()


def test_closure_refuses_a_non_finite_conditional_expectation():
    """Leaf values at the largest float under moves whose probabilities
    sum to 1 + 2e-15, within the tolerance, overflow E[y'] to inf: the
    closure raises the step's miss, in 1-D and in a batch, with the full
    clock's message."""
    tree = ScenarioTree(TimeGrid.uniform(1), [0, 1, 3], [0, 0], [1, 2],
                        [0.5 + 2e-15, 0.5])
    M = AdaptedProcess(tree, [0.0, -1.0, 1.0])
    top = np.full(2, np.finfo(float).max)
    for zeta in (top, np.column_stack([np.zeros(2), top])):
        messages = []
        for increments in (True, False):
            clock = predictable_bracket(tree, M, increments=increments)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(InvariantViolation,
                                  match="misses its equation by nan at "
                                        "y = inf") as err:
                solve_lipschitz(tree, M, clock, None, zeta, zero_driver())
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_residual_sweep_clocks_without_increments(monkeypatch):
    """A residual sweep and a zero-driver vanishing-N sweep without
    coefficients clock their trees without increments; given coefficients,
    whose Euler pass reads dC, or a driver other than the zero one, the
    clock keeps them."""
    seen = []

    def clock(tree, M, increments=True):
        seen.append(increments)
        return predictable_bracket(tree, M, increments)
    monkeypatch.setattr(bsde, "predictable_bracket", clock)
    config_for = lambda K: ModelConfig("trinomial", K=K)
    residual_sweep(config_for, indicator_halfspace(), [4])
    vanishing_N_experiment(config_for, None, indicator_halfspace(),
                           zero_driver(), [0.1], [4])
    assert seen == [False, False]
    vanishing_N_experiment(config_for, identity(), indicator_halfspace(),
                           zero_driver(), [0.1], [4])
    vanishing_N_experiment(config_for, None, indicator_halfspace(),
                           constant(0.0), [0.1], [4])
    assert seen == [False, False, True, True]


def four_child_d2(s1, s2):
    """One step to the four corners (+-s1, +-s2), each with probability 1/4,
    and the corner indicator 1{m1 > 0, m2 > 0} closed into a martingale."""
    b = TreeBuilder(TimeGrid.uniform(1))
    b.begin_level()
    for _ in range(4):
        b.child(0, 0.25)
    b.end_level()
    tree = b.build()
    M = AdaptedProcess(tree, np.array(
        [[0, 0], [s1, s2], [s1, -s2], [-s1, s2], [-s1, -s2]], dtype=float))
    leaves = M.values[1:]
    Y = martingale_from_terminal(
        tree, ((leaves[:, 0] > 0) & (leaves[:, 1] > 0)).astype(float))
    return tree, M, Y


def test_d2_martingale_is_refused():
    """A two-dimensional M is refused wherever its values are read, not
    read by its first column: by the martingale check and the clock, and
    by the decomposition and the dual DP given the first column's clock."""
    tree, M, Y = four_child_d2(0.3, 0.5)
    zeta = Y.scalar[1:]
    clock = predictable_bracket(tree, AdaptedProcess(tree, M.values[:, 0]))
    for refused in (lambda: is_martingale(tree, M),
                    lambda: predictable_bracket(tree, M),
                    lambda: gkw_decompose(tree, M, clock, zeta),
                    lambda: dual_value(tree, M, clock, zeta,
                                       {"b": 0.0, "gamma": 1.0}, 1)):
        with pytest.raises(InvariantViolation, match="got dimension 2$"):
            refused()


def test_decompose_rejects_non_finite_terminal_values():
    tree, M = trinomial_k1()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="zeta is nan at leaf 1$"):
            decompose(tree, M, [0.0, np.nan, 1.0])


@pytest.mark.parametrize("s1,s2", [(1.0, 1.0), (0.3, 0.5)])
def test_pinv_reference_d2_corner_indicator(s1, s2):
    """dY = (3/4, -1/4, -1/4, -1/4) projects on the two coins with weight
    1/4 each: Z = (1/(4 s1), 1/(4 s2)), and what is left is
    Var(dY) - 1/8 = 3/16 - 1/8 = 1/16 at any scale."""
    tree, M, Y = four_child_d2(s1, s2)
    Z, dn, bracket = gkw_pinv(tree, M, Y)
    npt.assert_allclose(Z, [[0.25 / s1, 0.25 / s2]], rtol=1e-14)
    npt.assert_allclose(dn, [0.25, -0.25, -0.25, 0.25], atol=1e-15)
    npt.assert_allclose(bracket, 0.0625, rtol=1e-14)


def test_orthogonality_and_pythagoras(rng):
    tree = random_full_tree(rng, K=4)
    M = random_martingale(rng, tree)
    lo, hi = tree.level_slice(tree.K)
    zeta = rng.normal(size=hi - lo)
    res = decompose(tree, M, zeta)
    # E[dN dM | node] = 0 at every node
    ec, pr = tree.echild, tree.eprob
    for i in range(tree.n_nonterminal):
        e0, e1 = int(tree.estart[i]), int(tree.estart[i + 1])
        p = pr[e0:e1]
        dm = M.scalar[ec[e0:e1]] - M.scalar[i]
        assert abs(p @ (res.dN[e0:e1] * dm)) < 1e-10
    # Var(zeta) = E[int Z^2 d[M]] + E[[N]_T]
    w = path_prob(tree)[lo:hi]
    var = float(w @ (zeta - w @ zeta) ** 2)
    nt = tree.n_nonterminal
    zpart = float(path_prob(tree)[:nt] @ (res.Z.values[:, 0] ** 2
                                         * conditional_covariances(tree, M)))
    npt.assert_allclose(var, zpart + res.bracketNN_T, atol=1e-9)


def test_running_N_on_tree_telescopes():
    built = build(ModelConfig("trinomial", K=3,
                              params={"recombine": False}))
    tree, M = built.tree, built.M
    lo, hi = tree.level_slice(tree.K)
    res = decompose(tree, M, (M.scalar[lo:hi] > 0).astype(float))
    Y = res.Y
    # Y - Y0 = int Z dM + N pathwise
    recon = np.zeros(tree.n_nodes)
    ep, ec = tree.eparent, tree.echild
    for k in range(tree.K):
        sl = edge_slice(tree, k)
        par, chi = ep[sl], ec[sl]
        dm = M.scalar[chi] - M.scalar[par]
        recon[chi] = recon[par] + res.Z.values[par, 0] * dm
    npt.assert_allclose(Y.scalar - Y.scalar[0],
                        recon + running_sum(tree, res.dN), atol=1e-12)


def test_level_profile_sums_to_total(rng):
    tree = random_full_tree(rng, K=4)
    M = random_martingale(rng, tree)
    lo, hi = tree.level_slice(tree.K)
    res = decompose(tree, M, rng.normal(size=hi - lo))
    # E[dN^2] of each step, weighted by the mass reaching its parent
    profile = np.zeros(tree.K)
    ep, pp = tree.eparent, path_prob(tree)
    for k in range(tree.K):
        sl = edge_slice(tree, k)
        w = pp[ep[sl]] * tree.eprob[sl]
        profile[k] = w @ res.dN[sl] ** 2
    npt.assert_allclose(profile.sum(), res.bracketNN_T, atol=1e-12)


# -- sweeps -----------------------------------------------------------------

def test_residual_sweep_binary_all_zero():
    F = square()
    sw = residual_sweep(lambda K: ModelConfig("binary", K=K),
                        lambda s: F(s), [2, 4, 8])
    npt.assert_allclose(sw.residuals, 0.0, atol=1e-15)


def test_residual_sweep_trinomial_decreasing():
    F = indicator_halfspace()
    sw = residual_sweep(lambda K: ModelConfig("trinomial", K=K),
                        lambda s: F(s), [8, 16, 32])
    assert sw.strictly_decreasing()
    assert sw.trend_statistic() > 0
    assert all(r.n_nodes == (r.K + 1) ** 2 for r in sw.rows)


# the step h of M, from far below to far above unit scale
SCALES = (1e-9, 1e-7, 1e-3, 1.0, 1e3)


@pytest.mark.parametrize("kind", ["binary", "trinomial"])
def test_residual_is_invariant_under_the_scale_of_M(kind):
    """E[[N]_T] of the indicator does not depend on the scale of M: dY is
    projected where E[dm^2 | node] is large against its largest value, not
    against an absolute floor, so a step h = 1e-7 (Sigma = 1e-14) is still
    projected.  The binary walk is complete, so its residual is 0 at every
    h; the trinomial one is not, and is the same at every h."""
    F = indicator_halfspace()
    got = [residual_sweep(
        lambda K: ModelConfig(kind, K=K, params={"h": h}),
        lambda s: F(s), [4, 6]).residuals for h in SCALES]
    want = got[SCALES.index(1.0)]
    for h, r in zip(SCALES, got):
        npt.assert_allclose(r, want, rtol=0, atol=1e-12, err_msg=f"h = {h}")
    if kind == "binary":
        npt.assert_allclose(want, 0.0, atol=1e-12)
    else:
        assert want.min() > 0.01


def test_residual_sweep_trinomial_indicator_matches_exact_reference():
    F = indicator_halfspace()
    Ks = [8, 64]
    sw = residual_sweep(lambda K: ModelConfig("trinomial", K=K),
                        lambda s: F(s), Ks)
    ref = [exact_trinomial_indicator_residual(K) for K in Ks]
    npt.assert_allclose(sw.residuals, ref, rtol=1e-12, atol=0)


def test_residual_sweep_jump_floor():
    F = square()
    sw = residual_sweep(lambda K: ModelConfig("compensated_jump", K=K),
                        lambda s: F(s), [8, 16, 32])
    assert np.all(sw.residuals >= 0.5 * sw.residuals[0])
    assert sw.residuals.min() > 1.0


def test_residual_sweep_row_is_the_vanishing_N_raw_column():
    F = indicator_halfspace()
    for kind, K in (("trinomial", 32), ("compensated_jump", 16)):
        row, = residual_sweep(lambda K: ModelConfig(kind, K=K), F, [K]).rows
        report = vanishing_N_experiment(lambda K: ModelConfig(kind, K=K),
                                        None, F, zero_driver(), [0.01], [K])
        raw = next(r for r in report.rows if np.isnan(r.eps))
        assert row.bracketNN_T == raw.bracketNN_T


# -- bracket split ----------------------------------------------------------

def test_bracket_split_binary_zero():
    built = build(ModelConfig("binary", K=3, params={"recombine": False}))
    tree, M = built.tree, built.M
    lo, hi = tree.level_slice(tree.K)
    zeta = M.scalar[lo:hi] ** 2
    res = decompose(tree, M, zeta)
    Y = res.Y

    ts = tree.grid.t

    def u(level, m):
        return m[0] ** 2 + (ts[-1] - ts[level]) * 1.0  # E[(m + G)^2] form

    A1, A2 = bracket_split(tree, M, Y, res, u)
    npt.assert_allclose(A1, 0.0, atol=1e-14)
    npt.assert_allclose(A2, 0.0, atol=1e-14)


def test_bracket_split_trinomial_one_step_oracle():
    tree, M = trinomial_k1()
    zeta = M.scalar[1:4] ** 2
    res = decompose(tree, M, zeta)
    Y = res.Y
    var_step = 2 * 0.25 * 1.0  # E[dM^2] at the root

    def u(level, m):
        return m[0] ** 2 + (1 - level) * var_step

    A1, A2 = bracket_split(tree, M, Y, res, u)
    # A1 + A2 telescopes to E[dY dN] = E[dN^2] = 1/4
    npt.assert_allclose(A1[-1] + A2[-1], 0.25, atol=1e-14)


def test_bracket_split_rejects_non_markov_u():
    tree, M = trinomial_k1()
    res = decompose(tree, M, M.scalar[1:4] ** 2)
    with pytest.raises(InvariantViolation):
        bracket_split(tree, M, res.Y, res, lambda level, m: 0.0)


def test_bracket_split_matches_telescoped_covariation():
    built = build(ModelConfig("trinomial", K=3,
                              params={"recombine": False}))
    tree, M = built.tree, built.M
    lo, hi = tree.level_slice(tree.K)
    zeta = M.scalar[lo:hi] ** 2
    res = decompose(tree, M, zeta)
    Y = res.Y
    yv = Y.scalar
    var_step = 1.0 / 3  # per-step variance T/K

    def u(level, m):
        return m[0] ** 2 + (tree.K - level) * var_step

    A1, A2 = bracket_split(tree, M, Y, res, u)
    total = 0.0
    ep, ec, pp = tree.eparent, tree.echild, path_prob(tree)
    for k in range(tree.K):
        sl = edge_slice(tree, k)
        par, chi = ep[sl], ec[sl]
        w = pp[par] * tree.eprob[sl]
        total += float(w @ ((yv[chi] - yv[par]) * res.dN[sl]))
    npt.assert_allclose(A1[-1] + A2[-1], total, atol=1e-12)
