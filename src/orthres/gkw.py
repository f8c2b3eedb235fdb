"""Exact orthogonal decomposition of tree martingales against M.

The decomposition Y = Y0 + int Z dM + N of Y = E[zeta | F_k] is the
zero-driver case of the backward solver: ``bsde._levels`` with the zero
driver takes the step y = E[y' | node] and projects each level's dy on dm
(forming E[dm^2 | node] from the level's increments), and ``bsde._closed``
forms dN and E[dN^2 | node] on that level, so its E[[N]_T] is the discrete
analogue of the orthogonal part's bracket; this module stores what that
sweep yields.  The step reads E[dm^2 | node], not the clock's increments
dC, so it runs on a clock built without them too.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels, bsde
from .ftree import AdaptedProcess, PredictableField, backward_closure


@dataclass
class GkwResult:
    Y: AdaptedProcess                  # E[zeta | F_k]
    Z: PredictableField
    dN: np.ndarray                     # per edge
    bracketNN_T: float                 # realized E[[N]_T]

    @property
    def Y0(self):
        return float(self.Y.values[0, 0])


def martingale_from_terminal(tree, zeta):
    """Close a terminal variable into the martingale E[zeta | F_k]."""
    return backward_closure(tree, zeta)


def gkw_decompose(tree, M, clock, zeta):
    """Least-squares projection of dY on dM node by node, for a scalar M and
    the martingale Y = E[zeta | F_k] of the leaf values zeta, (leaves,).

    One zero-driver sweep of the solver's levels on the caller's clock of M
    forms Y, Z, each level's per-edge dN and E[[N]_T]; this stores them at
    full size, dN in edge order.  The clock may be one without increments
    (``predictable_bracket(tree, M, increments=False)``): the closure reads
    none, and the result is the same bit for bit.  Returns Y with the
    decomposition.
    """
    zeta = bsde._leaf_values(tree, zeta)
    y_all = np.empty(tree.n_nodes)
    y_all[tree.level_start[tree.K]:] = zeta
    z_all = np.empty((tree.n_nonterminal, 1))
    dn = np.empty(int(tree.estart[-1]))

    def take(k, a, b, y, z, z_arg, res, dn_level):
        y_all[a:b] = y
        z_all[a:b, 0] = z
        _kernels.store_edges(tree, dn_level, a, b, dn)
    bracket, _ = bsde._consume(bsde._closed(tree, M, clock, None, zeta,
                                            bsde.zero_driver()), take)
    return GkwResult(Y=AdaptedProcess(tree, y_all),
                     Z=PredictableField(tree, z_all), dN=dn,
                     bracketNN_T=bracket)


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
        """Mean per-doubling log decrease of the residual (>0 means
        shrinking); 0.0 for fewer than two rows."""
        if len(self.rows) < 2:
            return 0.0
        r = np.maximum(self.residuals, 1e-300)
        return float(np.mean(-np.diff(np.log(r))))


def residual_sweep(models, F):
    """GKW residual of E[F(M_K)|F] across mesh refinements: per ModelConfig
    of ``models``, one streamed zero-driver sweep of the solver's levels on a
    clock without increments.  F maps terminal martingale states (array of
    shape (leaves, d)) to terminal values.
    """
    return SweepResult([_sweep_row(model, F) for model in models])


def _sweep_row(model, F):
    """The sweep's row for ``model``; its tree, M and clock are freed on
    return, before the next model is built."""
    zero = bsde.zero_driver()
    tree, M, clock, _ = bsde.setup_problem(model, driver=zero)
    lo, hi = tree.level_slice(tree.K)
    zeta = np.asarray(F(M.values[lo:hi]), dtype=float)
    bracket, _ = bsde._consume(bsde._closed(tree, M, clock, None, zeta,
                                            zero))
    w = tree.level_path_prob(tree.K)
    var = float(w @ (zeta - zeta @ w) ** 2)
    return SweepRow(K=model.K, bracketNN_T=bracket,
                    normalized=bracket / var if var > 0 else 0.0,
                    n_nodes=tree.n_nodes)
