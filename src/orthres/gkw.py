"""Exact orthogonal decomposition of tree martingales against M.

At every non-terminal node the increment of Y is split into its least-squares
projection on the increment of M plus a residual dN that is conditionally
uncorrelated with M.  The terminal expectation of the summed squared
residuals is the discrete analogue of E[[N]_T].
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvariantViolation
from .ftree import (AdaptedProcess, PredictableField, backward_closure,
                    conditional_covariances, is_martingale)
from . import models

PINV_RCOND = 1e-12


@dataclass
class GkwResult:
    Z: PredictableField
    dN: np.ndarray                     # per edge
    N: AdaptedProcess                  # running sum; None on recombining lattices
    bracketNN_T: float                 # realized E[[N]_T]
    level_profile: np.ndarray          # residual contribution per step
    Y0: float


def martingale_from_terminal(tree, zeta):
    """Close a terminal variable into the martingale E[zeta | F_k]."""
    return backward_closure(tree, zeta)


def gkw_decompose(tree, M, Y, martingale_tol=1e-9):
    """Least-squares projection of dY on dM node by node.

    Y must already be a martingale (take ``martingale_from_terminal`` of the
    terminal variable first).
    """
    chk = is_martingale(tree, Y, martingale_tol)
    if not chk:
        raise InvariantViolation(
            f"Y is not a martingale (violation {chk.max_violation:.3e}); "
            "close the terminal variable with martingale_from_terminal first")
    nt = tree.n_nonterminal
    d = M.dim
    dn = np.zeros(len(tree.echild))
    profile = np.zeros(tree.K)
    if d == 1:
        y = Y.scalar
        m = M.scalar
        dm = _kernels.edge_increments(tree, m)
        pdm = tree.eprob * dm
        ey, m1 = _kernels.level_moments_d1(tree, pdm, y, 0, nt)[:2]
        s2 = _kernels.edge_sum(tree, pdm * dm, 0, nt)
        z = np.where(s2 > PINV_RCOND, m1 / np.where(s2 > 0, s2, 1.0), 0.0)
        res = _kernels.edge_residuals_d1(tree, dm, y, ey, z, 0, nt, dn)
        Z = z[:, None]
    else:
        sigma = conditional_covariances(tree, M)
        y = Y.scalar
        Z = np.zeros((nt, d))
        res = np.zeros(nt)
        for i in range(nt):
            e0, e1 = int(tree.estart[i]), int(tree.estart[i + 1])
            p = tree.eprob[e0:e1]
            dm = M.values[tree.echild[e0:e1]] - M.values[i]
            ey = float(p @ y[tree.echild[e0:e1]])
            dy = y[tree.echild[e0:e1]] - ey
            rhs = (p * dy) @ dm
            Z[i] = np.linalg.pinv(sigma[i], rcond=PINV_RCOND) @ rhs
            dn[e0:e1] = dy - dm @ Z[i]
            res[i] = float(p @ dn[e0:e1] ** 2)
    node_contrib = tree.path_prob[:nt] * res
    for k in range(tree.K):
        lo, hi = tree.level_slice(k)
        profile[k] = float(np.sum(node_contrib[lo:hi]))
    total = float(np.sum(node_contrib))

    N = None
    if tree.is_tree:
        nvals = np.zeros(tree.n_nodes)
        for k in range(tree.K):
            sl = tree._edge_slice(k)
            nvals[tree.echild[sl]] = nvals[tree.eparent[sl]] + dn[sl]
        N = AdaptedProcess(tree, nvals)
    return GkwResult(
        Z=PredictableField(tree, Z),
        dN=dn,
        N=N,
        bracketNN_T=total,
        level_profile=profile,
        Y0=float(Y.values[0, 0]),
    )


@dataclass
class SweepRow:
    K: int
    bracketNN_T: float
    normalized: float
    n_nodes: int


@dataclass
class SweepResult:
    rows: list = field(default_factory=list)

    @property
    def residuals(self):
        return np.array([r.bracketNN_T for r in self.rows])

    def strictly_decreasing(self):
        r = self.residuals
        return bool(np.all(np.diff(r) < 0))

    def trend_statistic(self):
        """Mean per-doubling log decrease of the residual (>0 means shrinking)."""
        r = np.maximum(self.residuals, 1e-300)
        return float(np.mean(-np.diff(np.log(r))))


def residual_sweep(config_for, F, K_list):
    """GKW residual of E[F(M_K)|F] across mesh refinements.

    ``config_for(K)`` returns a ModelConfig; F maps terminal martingale
    states (array of shape (leaves, d)) to terminal values.
    """
    out = SweepResult()
    for K in K_list:
        built = models.build(config_for(K))
        tree, M = built.tree, built.M
        lo, hi = tree.level_slice(tree.K)
        zeta = np.asarray(F(M.values[lo:hi]), dtype=float)
        Y = martingale_from_terminal(tree, zeta)
        res = gkw_decompose(tree, M, Y)
        var = float(tree.path_prob[lo:hi] @ (zeta - zeta @ tree.path_prob[lo:hi]) ** 2)
        out.rows.append(SweepRow(
            K=K, bracketNN_T=res.bracketNN_T,
            normalized=res.bracketNN_T / var if var > 0 else 0.0,
            n_nodes=tree.n_nodes))
    return out


def bracket_split(tree, M, Y, gkw_result, u, markov_tol=1e-9):
    """Two-term split of the discrete covariation sums of [Y, N].

    ``u(level, m)`` must reproduce Y on the tree (Markov representation).
    Returns per-level cumulative expectations (A1_k, A2_k) with
    A1 + A2 equal to the telescoped E[sum dY dN] edge-exactly.
    """
    uvals = np.array([u(int(tree.node_level[i]), M.values[i])
                      for i in range(tree.n_nodes)], dtype=float)
    spread = float(np.max(np.abs(uvals - Y.scalar)))
    if spread > markov_tol:
        raise InvariantViolation(
            f"u(level, M) does not represent Y (max gap {spread:.3e})")
    dn = gkw_result.dN
    A1 = np.zeros(tree.K)
    A2 = np.zeros(tree.K)
    for k in range(tree.K):
        sl = tree._edge_slice(k)
        par, chi = tree.eparent[sl], tree.echild[sl]
        w = tree.path_prob[par] * tree.eprob[sl]
        u_next_here = np.array([u(k + 1, M.values[i]) for i in par])
        a1 = (u_next_here - uvals[par]) * dn[sl]
        a2 = (uvals[chi] - u_next_here) * dn[sl]
        A1[k] = float(w @ a1)
        A2[k] = float(w @ a2)
    return np.cumsum(A1), np.cumsum(A2)
