"""Simple references that the tests check the library against.

Each is the plain loop that the library either replaced with a vectorised
version or never needed outside the tests: the true-tree test, an incremental
tree builder, exact conditional expectations, the pathwise bracket, a JSON
round trip, the level-by-level and the d-general GKW projections, any
per-edge array in the kernels' layout, a solve's per-edge dN, the two-term
bracket split, the Markov grouping spread, a driver growth check, the
comparison check on two stored solutions, a clamped terminal map, a tree's
path probabilities and closed-form child stride by their definitions, and
the martingale check and the clock over all non-terminal nodes at once, and
the Euler pass with its coefficients evaluated per edge, and the lattice
walk that filled every node's M and stored the two-sided jump's children;
the clock C itself, which the library keeps only as its increments dC,
lives here.
The library's martingale is scalar (d = 1); the d-general covariances, PSD
factor and GKW projection are kept here, built on nothing from the library
but its kernels.
"""

import json
import math
from collections import namedtuple
from dataclasses import replace

import numpy as np

from orthres import _kernels
from orthres.bsde import CompareVerdict
from orthres.cli import _affine_driver, _random_affine_pair
from orthres.errors import InvariantViolation
from orthres.forward import CONSISTENCY_TOL
from orthres.ftree import (PSD_TOL, AdaptedProcess, MartingaleCheck,
                           PredictableField, ScenarioTree, TimeGrid)


def node_level(tree):
    """(n_nodes,) level of every node, read off ``level_start``."""
    return np.repeat(np.arange(tree.K + 1), np.diff(tree.level_start))


def edge_slice(tree, k):
    """The slice of the edges out of level k, in edge order."""
    lo, hi = tree.level_slice(k)
    return slice(int(tree.estart[lo]), int(tree.estart[hi]))


def is_tree(tree):
    """True when every non-root node has exactly one incoming edge, False on
    a recombining lattice."""
    in_degree = np.bincount(tree.echild, minlength=tree.n_nodes)
    return bool(np.all(in_degree[tree.level_start[1]:] == 1))


def path_prob(tree):
    """(n_nodes,) probability mass reaching every node, built from the
    tree's level reads."""
    return np.concatenate([tree.level_path_prob(k)
                           for k in range(tree.K + 1)])


def path_prob_loop(tree):
    """Each node's probability mass, by its definition: edge by edge in
    order, each child adds its parent's mass times the edge's probability,
    from 0.0."""
    pp = [0.0] * tree.n_nodes
    pp[0] = 1.0
    for par, chi, p in zip(tree.eparent.tolist(), tree.echild.tolist(),
                           tree.eprob.tolist()):
        pp[chi] += pp[par] * p
    return np.array(pp)


def closed_form_stride(tree):
    """The s >= 1 with which move i of level-local node j lands on
    level-local node s*j + i of the next level on every level, or None, by
    looking at every edge."""
    r, ls = tree.arity, tree.level_start.tolist()
    if r is None:
        return None
    echild = tree.echild
    strides = set()
    for k in range(tree.K):
        for j in range(ls[k + 1] - ls[k]):
            e0 = int(tree.estart[ls[k] + j])
            for i in range(r):
                c = int(echild[e0 + i]) - ls[k + 1] - i  # s*j if closed
                if (c != 0) if j == 0 else (c % j or c // j < 1):
                    return None
                if j:
                    strides.add(c // j)
    if len(strides) > 1:
        return None
    return strides.pop() if strides else 1


class TreeBuilder:
    """Incremental level-by-level construction with optional state merging.

    ``child(parent, prob, key=...)`` merges children of the current level that
    share the same hashable key (recombining lattice); ``key=None`` always
    creates a fresh node.
    """

    def __init__(self, grid):
        self.grid = grid
        self.level_start = [0, 1]
        self.eparent = []
        self.echild = []
        self.eprob = []
        self._level_keys = {}
        self._next_id = 1

    @property
    def n_nodes(self):
        return self._next_id

    def begin_level(self):
        self._level_keys = {}

    def child(self, parent, prob, key=None):
        if key is not None and key in self._level_keys:
            cid = self._level_keys[key]
        else:
            cid = self._next_id
            self._next_id += 1
            if key is not None:
                self._level_keys[key] = cid
        self.eparent.append(parent)
        self.echild.append(cid)
        self.eprob.append(prob)
        return cid

    def end_level(self):
        self.level_start.append(self._next_id)

    def build(self):
        return ScenarioTree(self.grid, self.level_start,
                            self.eparent, self.echild, self.eprob)


def cond_exp(tree, X, k, of_level=None):
    """Exact E[X_{of_level} | F_k] by backward weighted averaging.

    Returns an array of shape (nodes at level k, dim).  ``of_level`` defaults
    to the terminal level.
    """
    if of_level is None:
        of_level = tree.K
    if not 0 <= k < of_level <= tree.K:
        raise ValueError(f"need 0 <= k < of_level <= K, got ({k}, {of_level})")
    vals = np.array(X.values if isinstance(X, AdaptedProcess) else X, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    # one buffer for all levels: step j writes level j and reads only level j+1
    cur, out = vals, np.zeros((tree.n_nodes, vals.shape[1]))
    for j in range(of_level - 1, k - 1, -1):
        lo, hi = tree.level_slice(j)
        for c in range(out.shape[1]):
            out[lo:hi, c] = _kernels.backward_expect(tree, cur[:, c], lo, hi)
        cur = out
    lo, hi = tree.level_slice(k)
    return out[lo:hi].copy()


def pathwise_bracket(tree, M):
    """Cumulative sum of dM dM* along each node's path (true trees only)."""
    if not is_tree(tree):
        raise InvariantViolation("pathwise bracket needs a non-recombining tree")
    d = M.dim
    B = np.zeros((tree.n_nodes, d, d))
    ep, ec = tree.eparent, tree.echild
    for k in range(tree.K):
        sl = edge_slice(tree, k)
        dm = M.values[ec[sl]] - M.values[ep[sl]]
        B[ec[sl]] = B[ep[sl]] + dm[:, :, None] * dm[:, None, :]
    return AdaptedProcess(tree, B.reshape(tree.n_nodes, d * d))


def accumulated_trace(tree, sigma):
    """V: the conditional variances ``sigma``, (nt,), summed along the path
    to each node, whose arctan is the clock C."""
    V = np.zeros(tree.n_nodes)
    ep, ec = tree.eparent, tree.echild
    for k in range(tree.K):
        sl = edge_slice(tree, k)
        V[ec[sl]] = V[ep[sl]] + sigma[ep[sl]]
    return V


def clock_from_increments(tree, dC):
    """C: the increments dC, (nt,), summed along the path to each node from
    0 at the root, the last edge into a node in edge order winning."""
    C = np.zeros(tree.n_nodes)
    ep, ec = tree.eparent, tree.echild
    for k in range(tree.K):
        sl = edge_slice(tree, k)
        C[ec[sl]] = C[ep[sl]] + dC[ep[sl]]
    return C


def running_sum(tree, dN):
    """N: the per-edge dN summed along each node's path (true trees only)."""
    N = np.zeros(tree.n_nodes)
    ep, ec = tree.eparent, tree.echild
    for k in range(tree.K):
        sl = edge_slice(tree, k)
        N[ec[sl]] = N[ep[sl]] + dN[sl]
    return N


def product_noise_coin(tree):
    """The latest coin of each ``product_noise`` node (0 at the root): node i
    of level k is move (i - level_start[k]) mod 4 of its parent, and the
    moves' coins are (-1, 1, -1, 1)."""
    moves = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])
    i = np.arange(tree.n_nodes)
    coin = moves[(i - tree.level_start[node_level(tree)]) % 4, 1].astype(float)
    coin[0] = 0.0
    return coin


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def tree_to_json(tree, M=None):
    level = node_level(tree)
    doc = {
        "grid": tree.grid.t.tolist(),
        "nodes": [{"id": int(i), "level": int(level[i])}
                  for i in range(tree.n_nodes)],
    }
    if is_tree(tree):
        for p, c, w in zip(tree.eparent, tree.echild, tree.eprob):
            doc["nodes"][int(c)]["parent"] = int(p)
            doc["nodes"][int(c)]["prob"] = float(w)
    else:
        doc["edges"] = [[int(p), int(c), float(w)] for p, c, w in
                        zip(tree.eparent, tree.echild, tree.eprob)]
    if M is not None:
        doc["mart_values"] = M.values.tolist()
    return json.dumps(doc, sort_keys=True)


def tree_from_json(text):
    doc = json.loads(text)
    grid = TimeGrid(np.asarray(doc["grid"]))
    nodes = doc["nodes"]
    levels = np.array([n["level"] for n in nodes])
    counts = np.bincount(levels, minlength=grid.K + 1)
    level_start = np.concatenate([[0], np.cumsum(counts)])
    if "edges" in doc:
        ep, ec, pr = (np.array(x) for x in zip(*doc["edges"]))
    else:
        ep = np.array([n["parent"] for n in nodes if "parent" in n])
        ec = np.array([n["id"] for n in nodes if "parent" in n])
        pr = np.array([n["prob"] for n in nodes if "parent" in n])
    tree = ScenarioTree(grid, level_start, ep, ec, pr)
    M = None
    if "mart_values" in doc:
        M = AdaptedProcess(tree, np.asarray(doc["mart_values"]))
    return tree, M


# ---------------------------------------------------------------------------
# GKW and BSDE checks
# ---------------------------------------------------------------------------

def edge_layout(tree, w, lo, hi):
    """The edges of [lo, hi) of any per-edge (E,) array w, in the kernels'
    layout of the range: contiguous where the range's children are a view,
    and a transposed view of w where they are gathered, in the gather's edge
    order.  The library lays out only probabilities (``edge_probs``)."""
    w = w[_kernels._edges(tree, lo, hi)]
    if not _kernels._strided(tree):
        return w
    w = w.reshape(hi - lo, -1).T
    return (w if _kernels._first_child(tree, lo, hi) is None
            else np.ascontiguousarray(w))


def gkw_levels(tree, M, Y):
    """Projection of dY on dM for a scalar M, level by level from each
    level's own increments and E[dm^2 | node], as a loop of its own rather
    than gkw_decompose's zero-driver solve.  Returns (Z of shape (nt,), the
    per-edge dN, E[[N]_T] summed over every node at once)."""
    nt = tree.n_nonterminal
    dn = np.zeros(len(tree.echild))
    z, res = np.empty(nt), np.empty(nt)
    y, m = Y.scalar, M.scalar
    # projected where Sigma exceeds PROJ_EPS times its largest value
    floor = _kernels.PROJ_EPS * covariances_range(tree, M).max()
    for k in range(tree.K):
        a, b = tree.level_slice(k)
        dm = increments(tree, m, a, b)
        pdm = edge_layout(tree, tree.eprob, a, b) * dm
        ey, m1 = _kernels.level_moments_d1(tree, pdm, y, a, b)[:2]
        s2 = _kernels.edge_sum(tree, pdm * dm, a, b)
        z[a:b] = np.where(s2 > floor, m1 / np.where(s2 > floor, s2, 1.0),
                          0.0)
        res[a:b] = _kernels.edge_residuals_d1(tree, dm, y, ey, z[a:b], a, b,
                                              dn)
    return z, dn, float(np.sum(path_prob(tree)[:nt] * res))


def gkw_pinv(tree, M, Y):
    """Projection of dY on dM node by node for an M of any dimension d:
    Z = pinv(E[dM dM* | node]) E[dY dM | node].  Returns (Z of shape (nt, d),
    the per-edge dN = dY - dM Z, E[[N]_T])."""
    sigma = covariances_range(tree, M)
    nt = tree.n_nonterminal
    y = Y.scalar
    Z = np.zeros((nt, M.dim))
    dn = np.zeros(len(tree.echild))
    res = np.zeros(nt)
    ec, pr = tree.echild, tree.eprob
    for i in range(nt):
        e0, e1 = int(tree.estart[i]), int(tree.estart[i + 1])
        p = pr[e0:e1]
        dm = M.values[ec[e0:e1]] - M.values[i]
        dy = y[ec[e0:e1]] - float(p @ y[ec[e0:e1]])
        Z[i] = np.linalg.pinv(sigma[i], rcond=_kernels.PROJ_EPS) @ (
            (p * dy) @ dm)
        dn[e0:e1] = dy - dm @ Z[i]
        res[i] = float(p @ dn[e0:e1] ** 2)
    return Z, dn, float(np.sum(path_prob(tree)[:nt] * res))


def increments(tree, m, lo, hi):
    """dm on the edges of [lo, hi), in their layout, from the full-size
    values m."""
    return _kernels.edge_increments(tree, m[lo:hi], m, lo, hi)


def solution_dN(sol):
    """Per-edge dN = dY - Z dM of a stored solve, (edges,) or (edges, B),
    projected again over every edge from its Y and Z."""
    tree = sol.tree
    nt = tree.n_nonterminal
    y = sol._cols(sol.Y)
    dn = np.empty((len(tree.echild),) + y.shape[1:])
    _kernels.edge_residuals_d1(
        tree, increments(tree, sol.M.scalar, 0, nt), y,
        _kernels.backward_expect(tree, y, 0, nt), sol._cols(sol.Z), 0, nt, dn)
    return dn


def bracket_split(tree, M, Y, gkw_result, u, markov_tol=1e-9):
    """Two-term split of the discrete covariation sums of [Y, N].

    ``u(level, m)`` must reproduce Y on the tree (Markov representation).
    Returns per-level cumulative expectations (A1_k, A2_k) with
    A1 + A2 equal to the telescoped E[sum dY dN] edge-exactly.
    """
    level = node_level(tree)
    uvals = np.array([u(int(level[i]), M.values[i])
                      for i in range(tree.n_nodes)], dtype=float)
    spread = float(np.max(np.abs(uvals - Y.scalar)))
    if spread > markov_tol:
        raise InvariantViolation(
            f"u(level, M) does not represent Y (max gap {spread:.3e})")
    dn = gkw_result.dN
    A1 = np.zeros(tree.K)
    A2 = np.zeros(tree.K)
    ep, ec, pr, pp = tree.eparent, tree.echild, tree.eprob, path_prob(tree)
    for k in range(tree.K):
        sl = edge_slice(tree, k)
        par, chi = ep[sl], ec[sl]
        w = pp[par] * pr[sl]
        u_next_here = np.array([u(k + 1, M.values[i]) for i in par])
        a1 = (u_next_here - uvals[par]) * dn[sl]
        a2 = (uvals[chi] - u_next_here) * dn[sl]
        A1[k] = float(w @ a1)
        A2[k] = float(w @ a2)
    return np.cumsum(A1), np.cumsum(A2)


def markov_grouping_check(tree, X, M, sol, decimals=9):
    """Max spread of Y within groups of equal (level, X-value, M-value)."""
    groups = {}
    y, level = sol.Y.values[:, 0], node_level(tree)
    for i in range(tree.n_nodes):
        key = (int(level[i]),
               tuple(np.round(X.values[i], decimals)) if X is not None else (),
               tuple(np.round(M.values[i], decimals)))
        groups.setdefault(key, []).append(y[i])
    spread = 0.0
    for vals in groups.values():
        if len(vals) > 1:
            spread = max(spread, max(vals) - min(vals))
    return spread


def check_growth(driver, y_grid, z_grid, t=0.0):
    """Spot-check |f| <= a(1+b|y|) + (gamma/2)|z|^2 on a grid, for the
    driver's declared growth (a, b, gamma); returns the worst exceedance
    (<= 0 means the declared growth holds there)."""
    g = driver.growth
    worst = -math.inf
    for y in y_grid:
        yv = np.full(len(z_grid), float(y))
        zv = np.asarray(z_grid, dtype=float)
        lhs = np.abs(driver(t, None, np.zeros_like(zv), yv, zv))
        rhs = g["a"] * (1 + g["b"] * np.abs(yv)) + 0.5 * g["gamma"] * zv ** 2
        worst = max(worst, float(np.max(lhs - rhs)))
    return worst


# ---------------------------------------------------------------------------
# comparison on stored solutions
# ---------------------------------------------------------------------------

def random_lipschitz_pair(rng, mterm):
    """Ordered terminal data and ordered affine drivers for one seed."""
    zeta1, zeta2, p1, p2 = _random_affine_pair(rng, mterm)
    return zeta1, zeta2, _affine_driver(*p1), _affine_driver(*p2)


def columns(sol, cols, driver):
    """The solves in columns ``cols`` of a batch, as a batch of their own
    driven by ``driver``: the batch driver restricted to those columns,
    which an opaque callable cannot be sliced into."""
    return replace(sol, zeta=sol.zeta[:, cols], driver=driver,
                   Y=AdaptedProcess(sol.tree, sol.Y.values[:, cols]),
                   Z=PredictableField(sol.tree, sol.Z.values[:, cols]),
                   dN2=sol.dN2[:, cols], bracketNN_T=sol.bracketNN_T[cols])


def compare(sol1, sol2, tol_cmp=1e-11, pre_tol=1e-12, X=None):
    """Comparison check on two stored solutions: zeta1 >= zeta2 and f1 >= f2
    along the second solution (and its forward process X, if any) imply
    Y1 >= Y2.  Preconditions are verified, not assumed.

    For two batches of B columns, column j of sol1 is compared with column j
    of sol2: each driver is evaluated once per level for all columns, and the
    result is a list of B verdicts."""
    batch = sol2.zeta.ndim == 2
    width = sol2.zeta.shape[1] if batch else 1
    tree = sol1.tree
    if tree is not sol2.tree:
        out = [CompareVerdict(False, False, math.inf, -1,
                              "solutions live on different trees")] * width
        return out if batch else out[0]
    nt = tree.n_nonterminal
    col = (slice(None),) + (None,) * batch
    m = sol2.M.scalar[:nt][col]
    qdiag = sol2.clock.factor(0, nt)[col]
    y2, z2 = sol2._cols(sol2.Y), sol2._cols(sol2.Z)
    x2 = X.values if X is not None else None
    worst_pre = np.zeros(sol2.zeta.shape[1:])
    for k in range(tree.K):
        a, b = tree.level_slice(k)
        t = tree.grid.t[k]
        xk = x2[a:b] if x2 is not None else None
        # column-major, as in solve_lipschitz
        yk = np.asfortranarray(y2[a:b])
        zk = np.asfortranarray(z2[a:b]) * qdiag[a:b]
        gap = (sol1.driver(t, xk, m[a:b], yk, zk)
               - sol2.driver(t, xk, m[a:b], yk, zk))
        worst_pre = np.minimum(worst_pre, np.min(gap, axis=0))
    zeta_gap = np.atleast_1d(np.min(sol1.zeta - sol2.zeta, axis=0))
    worst_pre = np.atleast_1d(worst_pre)
    out = []
    for j in range(width):
        if zeta_gap[j] < -pre_tol:
            out.append(CompareVerdict(False, False, math.inf, -1,
                                      "terminal conditions are not ordered"))
        elif worst_pre[j] < -pre_tol:
            out.append(CompareVerdict(
                False, False, math.inf, -1,
                f"drivers are not ordered along (Y2, Z2q*): "
                f"min gap {worst_pre[j]:.3e}"))
        else:
            # one column at a time: no full-size (n, B) difference
            diff = sol1.Y.values[:, j] - sol2.Y.values[:, j]
            node = int(np.argmin(diff))
            worst = float(diff[node])
            out.append(CompareVerdict(True, worst >= -tol_cmp,
                                      max(0.0, -worst), node))
    return out if batch else out[0]


def clamp(F, n):
    """Pointwise clamp of F to [-n, n]."""
    if n < 1:
        raise ValueError("clamp level must be >= 1")
    base = F

    def ev(x):
        return np.clip(base(x), -n, n)

    return replace(F, id=f"{F.id}~clamp{n}", evaluator=ev, halfspace=None)


def is_martingale_range(tree, M, tol=1e-12):
    """The martingale check as one backward_expect call over every
    non-terminal node."""
    worst = 0.0
    nt = tree.n_nonterminal
    for c in range(M.dim):
        ey = _kernels.backward_expect(tree, M.values[:, c], 0, nt)
        worst = max(worst, float(np.max(np.abs(ey - M.values[:nt, c]))))
    return MartingaleCheck(worst <= tol, worst)


def psd_cholesky_stack(A, tol=PSD_TOL):
    """Lower-triangular factors of a (n, d, d) stack, column j for every
    matrix at once, each judged against max(1, max|A|)."""
    A = np.asarray(A, dtype=float)
    n, d = A.shape[0], A.shape[-1]
    tols = tol * np.maximum(1.0, np.abs(A).reshape(n, d * d).max(
        axis=1, initial=0.0))
    L = np.zeros_like(A)
    for j in range(d):
        row = L[:, j, :j]
        s = A[:, j, j] - np.einsum("nk,nk->n", row, row)
        bad = s < -tols
        if bad.any():
            i = np.flatnonzero(bad)[np.argmin(s[bad] / tols[bad])]
            where = f" in matrix {i}" if n > 1 else ""
            raise InvariantViolation(
                f"matrix not PSD within tolerance (pivot {s[i]:.3e}{where})")
        live = s > tols
        np.sqrt(s, out=L[:, j, j], where=live)
        if j + 1 < d:
            r = A[:, j + 1:, j] - np.einsum("nik,nk->ni", L[:, j + 1:, :j], row)
            np.divide(r, L[:, j, j, None], out=L[:, j + 1:, j],
                      where=live[:, None])
    return L


def psd_cholesky(A, tol=PSD_TOL):
    """Lower-triangular factor of a PSD matrix, zeroing rank-deficient
    columns."""
    return psd_cholesky_stack(np.asarray(A, dtype=float)[None], tol)[0]


def covariances_range(tree, M):
    """Sigma = E[dM dM* | node] over every non-terminal node at once."""
    nt = tree.n_nonterminal
    if M.dim == 1:
        dm = increments(tree, M.scalar, 0, nt)
        p = edge_layout(tree, tree.eprob, 0, nt)
        return _kernels.edge_sum(tree, p * dm * dm, 0, nt).reshape(nt, 1, 1)
    sl = slice(0, int(tree.estart[nt]))
    dm = M.values[tree.echild[sl]] - M.values[tree.eparent[sl]]
    w = tree.eprob[sl][:, None, None] * (dm[:, :, None] * dm[:, None, :])
    return _kernels._segment_sum(tree, w, tree.estart[:nt])


# the range oracle's clock as arrays: C (n_nodes,), dC (nt,), Sigma
# (nt, d, d) and q, the PSD factor of Sigma/dC, (nt, d, d)
RangeClock = namedtuple("RangeClock", "C dC sigma q")


def predictable_bracket_range(tree, M):
    """The clock with full-size temporaries: Sigma, the trace and the
    factor's input over every non-terminal node, and each level's edges
    stored by a gather, the last edge in edge order winning."""
    nt = tree.n_nonterminal
    sigma = covariances_range(tree, M)
    tr = np.einsum("kii->k", sigma)
    V = np.zeros(tree.n_nodes)
    worst = 0.0
    ep, ec = tree.eparent, tree.echild
    for k in range(tree.K):
        sl = edge_slice(tree, k)
        if tree.arity is None:
            cand = V[ep[sl]] + tr[ep[sl]]
        else:
            lo, hi = tree.level_slice(k)
            cand = np.repeat(V[lo:hi] + tr[lo:hi], tree.arity)
        child = ec[sl]
        V[child] = cand
        worst = max(worst, float(np.max(np.abs(V[child] - cand))))
    if worst > 1e-9:
        raise InvariantViolation(
            "recombined nodes disagree on the accumulated bracket trace "
            f"(max {worst:.3e}); use a non-recombining tree")
    C = np.arctan(V)
    dC = np.arctan(V[:nt] + tr) - C[:nt]
    q = psd_cholesky_stack(np.divide(sigma, dC[:, None, None],
                                     out=np.zeros_like(sigma),
                                     where=dC[:, None, None] > 0))
    return RangeClock(C, dC, sigma, q)


def euler_forward_edges(tree, M, clock, coeffs, x0):
    """The explicit Euler scheme with its coefficients evaluated once per
    edge, on the parent's repeated rows, and sigma dM as an einsum over the
    one component of M; returns X as an AdaptedProcess.
    """
    n = coeffs.n
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    X = np.zeros((tree.n_nodes, n))
    X[0] = x0
    dC = clock.dC.values
    t = tree.grid.t
    for k in range(tree.K):
        lo, hi = tree.level_slice(k)
        par, chi = tree.edge_parents(lo, hi), tree.edge_children(lo, hi)
        xp = X[par]
        sig = np.asarray(coeffs.sigma(t[k], xp), dtype=float)
        drift = np.asarray(coeffs.b(t[k], xp), dtype=float)
        # sigma as an (n, 1) matrix against dM as a 1-vector
        upd = xp + np.einsum("eij,ej->ei", sig.reshape(-1, n, 1),
                             M.values[chi] - M.values[par])
        upd += drift.reshape(upd.shape) * dC[par][:, None]
        if not np.all(np.isfinite(upd)):
            raise InvariantViolation("coefficient evaluation produced "
                                     "non-finite forward state")
        # every edge into one child must give it the state stored there
        # (the last edge's)
        X[chi] = upd
        err = np.abs(X[chi] - upd).max()
        if err > CONSISTENCY_TOL:
            raise InvariantViolation(
                "forward state is path-dependent on a recombining "
                f"lattice (mismatch {err:.3e}); rebuild as a full tree")
    return AdaptedProcess(tree, X)


# -- the lattice walk with a filled M ---------------------------------------

def _filled_stride_levels(K, moves, s):
    """The stride walk's states, level by level, as its adds produce them:
    move i of level-local node j lands on local child s*j + i, the last
    node's other children being move 0 of virtual nodes past the level."""
    r, c = moves.shape
    powers = np.full(K + 1, s, dtype=np.int64)
    powers[0] = 1
    np.multiply.accumulate(powers, out=powers)
    sizes = ((np.cumsum(powers) - powers) * (r - 1) + 1).tolist()
    last, other = (np.zeros((rows, c), dtype=np.int64, order="F")
                   for rows in (sizes[-1], sizes[-2] + r - s))
    src, dst = (other, last) if K % 2 else (last, other)
    virtual = (np.arange(K)[:, None, None] * moves[-1]
               + (moves[s:] - moves[0])).reshape(-1, c)
    src[1:1 + len(virtual)] = dst[1:1 + len(virtual)] = virtual
    yield src[:1]
    for n, size in zip(sizes, sizes[1:]):
        for i, m in enumerate(moves[:s]):
            np.add(src[:n + r - s], m, dst[i:size:s])
        yield dst[:size]
        src, dst = dst, src


def _filled_simplex_levels(K, child):
    """The two-sided jump walk's (up, down) states, level by level, filling
    each level's children into ``child`` (nt, 3) as it goes."""
    bounds = np.cumsum([0] + [(k + 1) * (k + 2) // 2
                              for k in range(K + 1)]).tolist()
    u = np.repeat(np.arange(K + 1), np.arange(1, K + 2))
    j = np.arange(len(u)) - u * (u + 1) // 2
    for k in range(K + 1):
        lo, hi = bounds[k:k + 2]
        states = np.empty((hi - lo, 2), dtype=np.int64)
        np.subtract(k, u[:hi - lo], out=states[:, 0])
        states[:, 1] = j[:hi - lo]
        if k < K:
            c = child[lo:hi]
            c[:, 0] = np.arange(hi, 2 * hi - lo)
            np.add(c[:, 0], u[:hi - lo] + 1, out=c[:, 1])
            np.add(c[:, 1], 1, out=c[:, 2])
        yield states


def filled_lattice_walk(config, moves, probs, value):
    """The lattice walk that filled M: ``(level_start, M, echild)`` for the
    arguments the builders pass ``models._lattice_walk``, with every
    level's ``value(states, k)`` written into one (n_nodes,) array, the
    root a literal 0.0, and the two-sided jump's children as the int64
    array the walk stored (None for a walk with a child stride)."""
    moves = np.asarray(moves, dtype=np.int64)
    K, recombine = config.K, config.params.get("recombine", True)
    r = len(moves)
    if recombine and moves[:, 1:].any():
        sizes = [(k + 1) * (k + 2) // 2 for k in range(K + 1)]
        echild = np.empty((sum(sizes[:-1]), 3), dtype=np.int64)
        levels = _filled_simplex_levels(K, echild)
    else:
        s = 1 if recombine else r
        sizes = [1]
        for _ in range(K):
            sizes.append(s * (sizes[-1] - 1) + r)
        echild, levels = None, _filled_stride_levels(K, moves, s)
    level_start = np.cumsum([0] + sizes)
    mvals = np.empty(level_start[-1])
    for k, states in enumerate(levels):
        mvals[level_start[k]:level_start[k + 1]] = value(states, k)
    mvals[0] = 0.0
    return (level_start, mvals,
            None if echild is None else echild.ravel())

