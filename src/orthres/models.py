"""Martingale model zoo: walks with a continuous limit, an enlarged-filtration
product model, and a compensated-jump counterexample.

All builders calibrate to unit-diffusion scale by default: per-step variance
T/K for the continuous-limit kinds.  Models whose filtration equals
sigma(M) recombine into lattices; the product model keeps the full tree.

``binary``, ``trinomial``, ``compensated_jump`` and ``product_noise`` take
fixed integer moves and share one ``_lattice_walk``, checked against
``estimate_nodes``; ``product_noise`` walks with recombination off.  Every
such walk is built in closed form, numbering children in the order of their
first appearance.  One stride walk (``_stride_walk``) builds every lattice
with a child stride s, whose trees keep no edge arrays: full trees (s = r)
and recombining walks on one component (s = 1: ``binary``, ``trinomial``,
the one-sided jump).  The two-sided jump lattice (``_simplex_walk``) has no
stride and passes its children, whose parents the tree derives.  Each walk
yields its integer states one level at a time, mapped to that level's M, so
no build holds or frees a full-size state array.  ``time_changed`` merges
states by rounded float value, level by level, numbered by
``_first_appearance``, and passes its children.  Every node of every built
model takes its moves with the same probabilities, so each builder passes
them as one move row, not one per edge.
``ModelConfig`` checks every builder's parameters, so a bad one is refused
before anything is built.
"""

import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvariantViolation, ModelError, NodeCapExceeded
from .ftree import (AdaptedProcess, ScenarioTree, TimeGrid, id_dtype,
                    is_martingale)

DEFAULT_NODE_CAP = 5_000_000

KINDS = ("binary", "trinomial", "time_changed", "product_noise",
         "compensated_jump")

# Builder parameters read as floats; ``recombine`` is read as a bool.
FLOAT_PARAMS = ("h", "p", "lam", "jump", "lam_down", "jump_down", "kappa",
                "h_cap")


def node_cap():
    return int(os.environ.get("ORTHRES_NODE_CAP", DEFAULT_NODE_CAP))


@dataclass
class ModelConfig:
    kind: str
    K: int
    T: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        # a K past the largest float is refused, as the jump's T/K would
        # overflow forming it
        if not 1 <= self.K <= sys.float_info.max:
            raise ModelError("K must be >= 1 and at most the largest float")
        if not 0 < self.T < math.inf:
            raise ModelError(f"T must be positive and finite, got {self.T!r}")
        prm = {}
        for name in (n for n in FLOAT_PARAMS if n in self.params):
            try:
                prm[name] = float(self.params[name])
            except (TypeError, ValueError):
                raise ModelError(f"model param {name!r} must be a number, "
                                 f"got {self.params[name]!r}")
        # the builders' own parameter ranges, each written so NaN fails it
        if self.kind in ("binary", "trinomial", "time_changed",
                         "product_noise") and not prm.get("h", 1.0) > 0:
            raise ModelError("h must be positive")
        if self.kind == "trinomial" and not 0 < prm.get("p", 0.25) < 0.5:
            raise ModelError("trinomial branch probability must lie in "
                             "(0, 1/2)")
        if self.kind == "compensated_jump":
            lam = prm.get("lam", 2.0)
            lam_down = prm.get("lam_down", lam)
            dt = self.T / self.K
            if not (lam > 0 and lam_down >= 0):
                raise ModelError("need lam > 0 and lam_down >= 0")
            if not lam * dt + lam_down * dt < 1:
                raise ModelError("need (lam + lam_down)*dt < 1")
            # a positive intensity must give its jump a positive step
            # probability, or the lattice loses the branch estimate_nodes
            # counts
            for name, rate in (("lam", lam), ("lam_down", lam_down)):
                if rate > 0 and rate * dt == 0:
                    raise ModelError(f"{name} = {rate!r} is positive but "
                                     f"{name}*dt underflows to 0")
        if self.kind == "time_changed" and not prm.get("kappa", 1.0) >= 0:
            raise ModelError("kappa must be >= 0")
        if self.kind == "time_changed" and not prm.get("h_cap", 1.0) > 0:
            raise ModelError("h_cap must be positive")


@dataclass
class BuiltModel:
    """A built tree and its martingale M."""

    tree: object
    M: AdaptedProcess


def _validated(tree, mvals, tol=1e-12):
    M = AdaptedProcess(tree, mvals)
    chk = is_martingale(tree, M, tol)
    if not chk:
        raise ModelError(f"constructed process is not a martingale "
                         f"(violation {chk.max_violation:.3e})")
    return M


def estimate_nodes(kind, K, params=None):
    """Node count of one built model: exact for the fixed-move lattices,
    an upper bound for ``time_changed``.  A count over both the node cap
    and 2**63 is math.inf: it is found so from the
    logarithm of a lower bound, base**K on a full tree and (K + 1)**d / d!
    on a lattice whose count has degree d in K, before the count is formed,
    so that no K forms a number too large to compute or to print."""
    params = params or {}
    if kind not in KINDS:
        raise ModelError(f"unknown model kind {kind!r}")
    recomb = bool(params.get("recombine", True))
    two_sided = kind == "compensated_jump" and float(
        params.get("lam_down", params.get("lam", 2.0))) != 0.0
    # a full tree's branching (time_changed merges by value, so its bound
    # is the full binary tree), None on a lattice
    base = {"product_noise": 4, "time_changed": 2}.get(
        kind, None if recomb else 3 if kind == "trinomial" or two_sided
        else 2)
    d = 3 if two_sided else 2
    limit = math.log(max(node_cap(), 2 ** 63))
    if base:
        # K log(base) > limit, with no float formed from a huge K
        if K > limit / math.log(base):
            return math.inf
        return (base ** (K + 1) - 1) // (base - 1)
    if d * math.log(K + 1) - math.log(math.factorial(d)) > limit:
        return math.inf
    if kind == "trinomial":
        return (K + 1) ** 2
    if d == 3:
        return (K + 1) * (K + 2) * (K + 3) // 6
    return (K + 1) * (K + 2) // 2


def _first_appearance(keys):
    """Number the distinct keys in the order of their first appearance.

    Returns ``(children, first)``: ``children[i]`` is the number given to
    ``keys[i]`` and ``first[c]`` the index of the first key numbered ``c``.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def _stride_walk(K, moves, s):
    """A walk in closed form with child stride s = 1 or r = len(moves):
    move i of local node j lands on local child s*j + i, so the tree needs
    no edge arrays.  s = r gives a full tree, s = 1 a recombining walk on
    one component, whose moves must be an arithmetic progression.

    A level of n nodes is followed by one of s*(n - 1) + r: moves 0 .. s-1
    of every node, then the last node's other moves.  The last node of
    level k is k*moves[r-1], so those r - s children are move 0 of virtual
    nodes past the level, set in both level buffers before the walk, which
    no level reaches before they are read: a level takes s adds and no
    temporary.  Returns level_start and an iterator over the levels'
    (size, n_comp) states, each a view that the level after next
    overwrites.
    """
    r, c = moves.shape
    # level k holds 1 + (r - 1)(1 + s + ... + s**(k - 1)) nodes
    powers = np.full(K + 1, s, dtype=np.int64)
    powers[0] = 1
    np.multiply.accumulate(powers, out=powers)
    sizes = (np.cumsum(powers) - powers) * (r - 1) + 1
    level_start = np.zeros(K + 2, dtype=np.int64)
    np.cumsum(sizes, out=level_start[1:])
    sizes = sizes.tolist()
    # level k lives in buffer k % 2, beside the virtual nodes of every
    # level; column-major, so each add runs along one component's rows
    last, other = (np.zeros((rows, c), dtype=np.int64, order="F")
                   for rows in (sizes[-1], sizes[-2] + r - s))
    src, dst = (other, last) if K % 2 else (last, other)
    virtual = (np.arange(K)[:, None, None] * moves[-1]
               + (moves[s:] - moves[0])).reshape(-1, c)
    src[1:1 + len(virtual)] = dst[1:1 + len(virtual)] = virtual
    step = list(enumerate(moves[:s]))

    def levels(src, dst):
        yield src[:1]
        for n, size in zip(sizes, sizes[1:]):
            for i, m in step:
                np.add(src[:n + r - s], m, dst[i:size:s])
            yield dst[:size]
            src, dst = dst, src
    return level_start, levels(src, dst)


def _simplex_walk(K):
    """The recombining two-sided jump walk in closed form: moves (1, 0),
    (0, 0) and (0, 1) on the (up, down) jump counts.

    Level k lists the states (i, j) for i = k .. 0 and j = 0 .. k - i, the
    order of their first appearance among the parent-major, move-minor
    candidates.  With u = k - i, state (i, j) is local node u(u+1)/2 + j, and
    its moves land on local children of the next level at that index plus
    0, u + 1 and u + 2.  Levels grow by k + 2 nodes, which no one child
    stride fits, so this walk returns level_start, echild and an iterator
    over the levels' (size, 2) states, which fills each level's children as
    it yields its states: every node has three edges, so the tree derives
    their parents, and every node shares the move row.
    """
    sizes = (np.arange(K + 1) + 1) * (np.arange(K + 1) + 2) // 2
    level_start = np.zeros(K + 2, dtype=np.int64)
    np.cumsum(sizes, out=level_start[1:])
    nt = int(level_start[-2])
    # in the dtype the tree keeps, so it takes them with no copy
    child = np.empty((nt, 3), dtype=id_dtype(int(level_start[-1])))
    bounds = level_start.tolist()

    def levels():
        # (u, j) of each local index of level K; every level's is a prefix
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
    return level_start, child.ravel(), levels()


def _lattice_walk(config, moves, probs, value):
    """Build a fixed-move lattice over integer states.

    ``moves`` is an (n_moves, n_comp) table of steps in {-1, 0, 1} taken
    with ``probs``, one row that every node shares; ``value(states, k)``
    maps level k's (size, n_comp) states to its M.  Children are
    numbered in the order of their first appearance among the parent-major,
    move-minor candidates; with ``recombine`` off every candidate is a new
    node.  One stride walk builds every shape with a child stride: a full
    tree (``_stride_walk`` at s = r) and a recombining walk on one component
    (at s = 1); the two-sided jump walk (``_simplex_walk``), the one
    recombining walk on two, has its own.  Each yields its states one level
    at a time, so no state array outgrows two levels.  It must fill
    ``estimate_nodes``, which is checked against the cap first.
    """
    K = config.K
    n = estimate_nodes(config.kind, K, config.params)
    if n > node_cap():
        raise NodeCapExceeded(n, node_cap())
    moves = np.asarray(moves, dtype=np.int64)
    recombine, echild = config.params.get("recombine", True), None
    if recombine and moves[:, 1:].any():
        level_start, echild, levels = _simplex_walk(K)
    else:
        level_start, levels = _stride_walk(
            K, moves, 1 if recombine else len(moves))
    if level_start[-1] != n:
        raise InvariantViolation(
            f"{config.kind} lattice filled {level_start[-1]} nodes, "
            f"estimate is {n}")
    mvals = np.empty(n)
    bounds = level_start.tolist()
    for k, states in enumerate(levels):
        mvals[bounds[k]:bounds[k + 1]] = value(states, k)
    mvals[0] = 0.0      # a literal, as a negative step would give -0.0
    tree = ScenarioTree(TimeGrid.uniform(K, config.T), level_start,
                        None, echild, np.asarray(probs, dtype=float)[None])
    return tree, _validated(tree, mvals)


def build_binary(config):
    """Symmetric +-h walk; recombining lattice; h defaults to sqrt(T/K)."""
    h = float(config.params.get("h", np.sqrt(config.T / config.K)))
    return _lattice_walk(config, [[-1], [1]], [0.5, 0.5],
                         lambda s, k: s[:, 0] * h)


def build_trinomial(config):
    """Steps (-h, 0, +h) with probabilities (p, 1-2p, p); lattice."""
    p = float(config.params.get("p", 0.25))
    h = float(config.params.get("h", np.sqrt(config.T / (2 * p * config.K))))
    return _lattice_walk(config, [[-1], [0], [1]], [p, 1 - 2 * p, p],
                         lambda s, k: s[:, 0] * h)


def build_compensated_jump(config):
    """Compensated Poisson-type walk with fixed jump sizes; lattice, Markov,
    discontinuous in the limit.

    Per step an up jump of size ``jump`` fires with probability lam*dt and a
    down jump of size ``jump_down`` with probability lam_down*dt (at most one
    of the two); dM subtracts the compensator so M is a martingale.  With
    lam_down = 0 this degenerates to the one-sided Bernoulli jump
    dM = (J - lam*dt)*jump, whose two-branch steps are representable exactly.
    The default two-sided walk branches three ways and carries a genuine
    orthogonal component.  States count (up jumps, down jumps) so far.
    """
    lam = float(config.params.get("lam", 2.0))
    jump = float(config.params.get("jump", 1.0))
    lam_down = float(config.params.get("lam_down", lam))
    jump_down = float(config.params.get("jump_down", jump))
    dt = config.T / config.K
    pu, pd = lam * dt, lam_down * dt
    comp = (lam * jump - lam_down * jump_down) * dt
    moves, probs = [[1, 0], [0, 0]], [pu, 1 - pu - pd]
    if lam_down > 0:
        moves.append([0, 1])
        probs.append(pd)

    # less the compensator, k * comp on level k
    return _lattice_walk(
        config, moves, probs,
        lambda s, k: jump * s[:, 0] - jump_down * s[:, 1] - k * comp)


def build_time_changed(config):
    """Binary walk with state-dependent step h(m) = h0*sqrt(1+kappa*|m|),
    capped; non-deterministic bracket, Markov.

    Children of one level merge when their states rounded to 12 decimals
    agree.  The rounding is ``np.round``, or Python's ``round`` when h_cap <
    h0 caps every step (the two differ on a few doubles in 10,000): the
    scalar loop this replaced rounded numpy floats one way and Python floats
    the other.  A node's M is its first candidate, and its children step
    from that M.
    """
    K, T = config.K, config.T
    kappa = float(config.params.get("kappa", 1.0))
    h0 = float(config.params.get("h", np.sqrt(T / K)))
    hcap = float(config.params.get("h_cap", 3 * h0))
    m = np.zeros(1)
    mvals, echild = [m], []
    n = 1
    for _ in range(K):
        h = np.minimum(h0 * np.sqrt(1 + kappa * np.abs(m)), hcap)
        cand = np.column_stack([m - h, m + h]).ravel()
        if hcap < h0:
            keys = np.array([round(c, 12) for c in cand.tolist()])
        else:
            keys = np.round(cand, 12)
        children, first = _first_appearance(keys)
        if n + len(first) > node_cap():
            raise NodeCapExceeded(n + len(first), node_cap())
        ids = n + children
        n += len(first)
        # in the dtype this level's ids fit, the tree's where the last
        # level's do, so no full-size int64 copy is made
        echild.append(ids.astype(id_dtype(n)))
        m = cand[first]
        mvals.append(m)
    level_start = np.cumsum([0] + [len(v) for v in mvals])
    # two edges out of every node, down and up with probability 1/2 each:
    # the tree derives their parents and holds one move row
    tree = ScenarioTree(TimeGrid.uniform(K, T), level_start, None,
                        np.concatenate(echild), [[0.5, 0.5]])
    return tree, _validated(tree, np.concatenate(mvals))


def build_product_noise(config):
    """Binary M walk times an independent fair coin per step.

    The filtration is strictly larger than sigma(M): each step also flips a
    coin that M ignores.  Full tree, branching 4: node i of level k is move
    (i - level_start[k]) mod 4 of its parent, a (step, coin) row of the
    move table below.
    """
    h = float(config.params.get("h", np.sqrt(config.T / config.K)))
    moves = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])  # (step, coin)
    return _lattice_walk(
        replace(config, params={**config.params, "recombine": False}),
        moves, [0.25] * 4, lambda s, k: s[:, 0] * h)


BUILDERS = {"binary": build_binary, "trinomial": build_trinomial,
            "compensated_jump": build_compensated_jump,
            "time_changed": build_time_changed,
            "product_noise": build_product_noise}


def build(config):
    """Build the model ``config`` names; ``ModelConfig`` has checked it."""
    tree, M = BUILDERS[config.kind](config)
    return BuiltModel(tree=tree, M=M)
