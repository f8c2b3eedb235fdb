import numpy as np
import pytest
from hypothesis import settings, strategies as st

from orthres.ftree import AdaptedProcess, ScenarioTree, TimeGrid
from orthres.models import KINDS, ModelConfig, build

from reference import TreeBuilder

# CI runs the suite with --hypothesis-profile=ci: every run draws the same
# examples, so a failing property there fails the same way locally
settings.register_profile("ci", derandomize=True)
# CI's fuzz step: the config fuzzer alone, on many more examples
settings.register_profile("fuzz", derandomize=True, max_examples=2000)


def random_full_tree(rng, K=3, max_branch=3, T=1.0, min_branch=2):
    """Small non-recombining tree with random branch counts and probabilities."""
    b = TreeBuilder(TimeGrid.uniform(K, T))
    frontier = [0]
    for k in range(K):
        b.begin_level()
        nxt = []
        for nid in frontier:
            nb = int(rng.integers(min_branch, max_branch + 1))
            probs = rng.dirichlet(np.ones(nb))
            # exact renormalization so the validator's 1e-14 gate holds
            probs = probs / probs.sum()
            probs[-1] = 1.0 - probs[:-1].sum()
            for pr in probs:
                nxt.append(b.child(nid, float(pr)))
        b.end_level()
        frontier = nxt
    return b.build()


def closed_form_twin(tree):
    """``tree`` given its edges in closed form: the same levels and
    probabilities, no index arrays, the stride read off the level sizes."""
    return ScenarioTree(tree.grid, tree.level_start, None, None, tree.eprob)


def random_martingale(rng, tree, scale=1.0):
    """Backward-centered random walk: a valid martingale on any tree."""
    vals = np.zeros(tree.n_nodes)
    ep, ec, pr = tree.eparent, tree.echild, tree.eprob
    es, ls = tree.estart, tree.level_start
    for k in range(tree.K):
        sl = slice(int(es[ls[k]]), int(es[ls[k + 1]]))
        par, chi = ep[sl], ec[sl]
        step = rng.normal(0.0, scale, size=len(chi))
        vals[chi] = vals[par] + step
    # recenter increments node by node so E[dM | node] = 0
    for i in range(tree.n_nonterminal):
        e0, e1 = int(tree.estart[i]), int(tree.estart[i + 1])
        p = pr[e0:e1]
        chi = ec[e0:e1]
        vals[chi] -= p @ (vals[chi] - vals[i]) / p.sum()
    return AdaptedProcess(tree, vals)


def permute_last_level(tree, rng):
    """A copy of ``tree`` whose leaves are renumbered by a random
    permutation that moves the first leaf, and the new id of every old node.
    Only leaves move, so every other node keeps its id and its edges in
    their order, but no level-local closed form survives: the copy's
    children are gathered where the original's are a view."""
    lo, hi = tree.level_slice(tree.K)
    perm = rng.permutation(hi - lo)
    if perm[0] == 0:
        perm[[0, -1]] = perm[[-1, 0]]
    new_id = np.arange(tree.n_nodes)
    new_id[lo:hi] = lo + perm
    return ScenarioTree(tree.grid, tree.level_start, tree.eparent,
                        new_id[tree.echild], tree.eprob), new_id


@st.composite
def small_trees(draw):
    """(tree, M): a random full tree with a random martingale, or a small
    built model of any kind, full-tree variants included.  A random tree
    has random branch counts and is given as arrays, or has one arity and
    is given in closed form, so its children are read as views."""
    kind = draw(st.sampled_from(("random",) + KINDS))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        K = draw(st.integers(1, 4))
        if draw(st.booleans()):
            tree = random_full_tree(rng, K=K)
        else:
            r = draw(st.integers(2, 3))
            tree = closed_form_twin(random_full_tree(rng, K=K, min_branch=r,
                                                     max_branch=r))
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
