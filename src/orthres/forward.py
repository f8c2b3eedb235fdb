"""Forward state X driven by M and the clock on a tree.

Explicit Euler along edges: X_{k+1} = X_k + sigma(t_k, X_k, M_k) dM
+ b(t_k, X_k, M_k) dC_k.  On recombining lattices the update must be
consistent across incoming edges (it is whenever X is a function of the
lattice state, e.g. constant coefficients); otherwise a full tree is needed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .ftree import AdaptedProcess, ScenarioTree, TimeGrid


@dataclass(frozen=True)
class SdeCoeffs:
    """sigma(t, x, m) -> (n, d) matrix, b(t, x, m) -> (n,) drift.

    Both evaluators are vectorized: x (N, n), m (N, d) -> (N, n, d) / (N, n).
    """

    id: str
    n: int
    sigma: callable
    b: callable


def euler_forward(tree, M, clock, coeffs, x0, consistency_tol=1e-9):
    """Run the explicit Euler scheme; returns X as an AdaptedProcess."""
    n = coeffs.n
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    X = np.zeros((tree.n_nodes, n))
    X[0] = x0
    dC = clock.dC.values
    t = tree.grid.t
    seen = np.zeros(tree.n_nodes, dtype=bool)
    seen[0] = True
    for k in range(tree.K):
        sl = tree._edge_slice(k)
        par, chi = tree.eparent[sl], tree.echild[sl]
        xp, mp = X[par], M.values[par]
        sig = np.asarray(coeffs.sigma(t[k], xp, mp), dtype=float)
        drift = np.asarray(coeffs.b(t[k], xp, mp), dtype=float)
        dm = M.values[chi] - mp
        upd = xp + np.einsum("eij,ej->ei", sig, dm) + drift * dC[par][:, None]
        if not np.all(np.isfinite(upd)):
            raise InvariantViolation("coefficient evaluation produced "
                                     "non-finite forward state")
        err = 0.0
        clash = seen[chi]
        if np.any(clash):
            err = np.abs(X[chi[clash]] - upd[clash]).max()
        order = np.argsort(chi, kind="stable")
        dup = chi[order][1:] == chi[order][:-1]
        if np.any(dup):
            gap = np.abs(upd[order][1:][dup] - upd[order][:-1][dup]).max()
            err = max(err, float(gap))
        if err > consistency_tol:
            raise InvariantViolation(
                "forward state is path-dependent on a recombining "
                f"lattice (mismatch {err:.3e}); rebuild as a full tree")
        X[chi] = upd
        seen[chi] = True
    return AdaptedProcess(tree, X)


def extract_subtree(tree, node):
    """Sub-DAG reachable from a node, as a fresh tree plus the node map."""
    level0 = int(tree.node_level[node])
    keep = np.zeros(tree.n_nodes, dtype=bool)
    keep[node] = True
    for k in range(level0, tree.K):
        sl = tree._edge_slice(k)
        keep[tree.echild[sl][keep[tree.eparent[sl]]]] = True
    # new id of old node i: the number of kept nodes before it
    new_id = np.concatenate([[0], np.cumsum(keep)])
    ekeep = keep[tree.eparent]
    grid = TimeGrid(tree.grid.t[level0:] - tree.grid.t[level0])
    sub = ScenarioTree(grid, tree.d, new_id[tree.level_start[level0:]],
                       new_id[tree.eparent[ekeep]],
                       new_id[tree.echild[ekeep]], tree.eprob[ekeep])
    return sub, np.flatnonzero(keep)


def shift_martingale(sub, order, M, node, m):
    """M on a subtree extracted from ``node``, shifted to start at m."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    return AdaptedProcess(sub, M.values[order] - M.values[node] + m)


def shift_start(tree, M, t_idx, node, m, coeffs=None, clock=None, x=None):
    """Restart (M, X) from a node at level t_idx with M shifted to start at m.

    Returns (subtree, M_shifted) or (subtree, M_shifted, X_restarted) when
    coefficients are supplied.  ``clock`` is the clock of the restarted
    subtree; it is computed from M_shifted when omitted.
    """
    if int(tree.node_level[node]) != t_idx:
        raise ValueError(f"node {node} is not at level {t_idx}")
    sub, order = extract_subtree(tree, node)
    Msub = shift_martingale(sub, order, M, node, m)
    if coeffs is None:
        return sub, Msub
    if clock is None:
        from .ftree import predictable_bracket
        clock = predictable_bracket(sub, Msub)
    X = euler_forward(sub, Msub, clock, coeffs, x)
    return sub, Msub, X


# ---------------------------------------------------------------------------
# coefficient catalog
# ---------------------------------------------------------------------------

def identity(n=1):
    """sigma = I, b = 0: X - x0 tracks M."""
    return SdeCoeffs(
        id="identity", n=n,
        sigma=lambda t, x, m: np.broadcast_to(
            np.eye(n, m.shape[1]), (x.shape[0], n, m.shape[1])),
        b=lambda t, x, m: np.zeros((x.shape[0], n)))


def constant_drift(c=1.0, n=1):
    c = float(c)
    return SdeCoeffs(
        id="constant_drift", n=n,
        sigma=lambda t, x, m: np.zeros((x.shape[0], n, m.shape[1])),
        b=lambda t, x, m: np.full((x.shape[0], n), c))


def linear_sigma(a=1.0):
    """sigma(x) = a*x (n = d = 1): discrete stochastic exponential."""
    return SdeCoeffs(
        id="linear_sigma", n=1,
        sigma=lambda t, x, m: (float(a) * x)[:, :, None],
        b=lambda t, x, m: np.zeros((x.shape[0], 1)))


def affine(a=1.0, c=0.0):
    """sigma(x) = a*x, b(x) = c*x (n = d = 1)."""
    return SdeCoeffs(
        id="affine", n=1,
        sigma=lambda t, x, m: (float(a) * x)[:, :, None],
        b=lambda t, x, m: float(c) * x)


CATALOG = {
    "identity": identity,
    "constant_drift": constant_drift,
    "linear_sigma": linear_sigma,
    "affine": affine,
}


def from_catalog(cid, **params):
    if cid not in CATALOG:
        raise KeyError(f"unknown coefficient id {cid!r}")
    return CATALOG[cid](**params)
