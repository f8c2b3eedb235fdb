import numpy as np
import pytest
from hypothesis import strategies as st

from orthres.ftree import AdaptedProcess, ScenarioTree, TimeGrid, TreeBuilder
from orthres.models import KINDS, ModelConfig, build


def random_full_tree(rng, K=3, max_branch=3, T=1.0):
    """Small non-recombining tree with random branch counts and probabilities."""
    b = TreeBuilder(TimeGrid.uniform(K, T))
    frontier = [0]
    for k in range(K):
        b.begin_level()
        nxt = []
        for nid in frontier:
            nb = int(rng.integers(2, max_branch + 1))
            probs = rng.dirichlet(np.ones(nb))
            # exact renormalization so the validator's 1e-14 gate holds
            probs = probs / probs.sum()
            probs[-1] = 1.0 - probs[:-1].sum()
            for pr in probs:
                nxt.append(b.child(nid, float(pr)))
        b.end_level()
        frontier = nxt
    return b.build()


def random_martingale(rng, tree, scale=1.0):
    """Backward-centered random walk: a valid martingale on any tree."""
    vals = np.zeros(tree.n_nodes)
    for k in range(tree.K):
        sl = tree._edge_slice(k)
        par, chi = tree.eparent[sl], tree.echild[sl]
        step = rng.normal(0.0, scale, size=len(chi))
        vals[chi] = vals[par] + step
    # recenter increments node by node so E[dM | node] = 0
    for i in range(tree.n_nonterminal):
        e0, e1 = int(tree.estart[i]), int(tree.estart[i + 1])
        p = tree.eprob[e0:e1]
        chi = tree.echild[e0:e1]
        vals[chi] -= p @ (vals[chi] - vals[i]) / p.sum()
    return AdaptedProcess(tree, vals)


@st.composite
def small_trees(draw):
    """(tree, M): a random full tree with a random martingale, or a small
    built model of any kind, full-tree variants included."""
    kind = draw(st.sampled_from(("random",) + KINDS))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        tree = random_full_tree(rng, K=draw(st.integers(1, 4)))
        return tree, random_martingale(rng, tree)
    # the default jump intensities need K >= 5; product noise grows like 4^K
    K = draw(st.integers(5 if kind == "compensated_jump" else 1,
                         4 if kind == "product_noise" else 12))
    params = {"recombine": draw(st.booleans())} \
        if kind in ("binary", "trinomial") and K <= 6 else {}
    built = build(ModelConfig(kind, K=K, params=params))
    return built.tree, built.M


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
