"""Martingale model zoo: walks with a continuous limit, an enlarged-filtration
product model, and a compensated-jump counterexample.

All builders calibrate to unit-diffusion scale by default: per-step variance
T/K for the continuous-limit kinds.  Models whose filtration equals
sigma(M) recombine into lattices; the product model keeps the full tree.

``binary``, ``trinomial``, ``compensated_jump`` and ``product_noise`` take
fixed integer moves and share one vectorised ``_lattice_walk``, sized by
``estimate_nodes``; ``product_noise`` walks with recombination off.
``time_changed`` merges states by float value, so it is the one builder that
builds edge by edge through ``TreeBuilder``.  ``ModelConfig`` checks every
builder's parameters, so a bad one is refused before anything is built.
"""

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvariantViolation, ModelError, NodeCapExceeded
from .ftree import (AdaptedProcess, ScenarioTree, TimeGrid, TreeBuilder,
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
    d: int = 1
    T: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}")
        if self.K < 1:
            raise ModelError("K must be >= 1")
        if self.d != 1:
            raise ModelError("builders ship with d=1; higher-dimensional "
                             "martingales are constructed by hand in tests")
        if self.T <= 0:
            raise ModelError("T must be positive")
        prm = {}
        for name in (n for n in FLOAT_PARAMS if n in self.params):
            try:
                prm[name] = float(self.params[name])
            except (TypeError, ValueError):
                raise ModelError(f"model param {name!r} must be a number, "
                                 f"got {self.params[name]!r}")
        # the builders' own parameter ranges, each written so NaN fails it
        if self.kind == "binary" and not prm.get("h", 1.0) > 0:
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
        if self.kind == "time_changed" and not prm.get("kappa", 1.0) >= 0:
            raise ModelError("kappa must be >= 0")


@dataclass
class BuiltModel:
    """Builder output plus provenance for reports."""

    tree: object
    M: AdaptedProcess
    aux: AdaptedProcess = None
    meta: dict = field(default_factory=dict)


def _validated(tree, mvals, tol=1e-12):
    M = AdaptedProcess(tree, mvals)
    chk = is_martingale(tree, M, tol)
    if not chk:
        raise ModelError(f"constructed process is not a martingale "
                         f"(violation {chk.max_violation:.3e})")
    return M


def _check_cap(builder):
    if builder.n_nodes > node_cap():
        raise NodeCapExceeded(builder.n_nodes, node_cap())


def estimate_nodes(kind, K, params=None):
    """Node count of one built model: exact for the fixed-move lattices,
    an upper bound for ``time_changed``."""
    params = params or {}
    recomb = bool(params.get("recombine", True))
    if kind == "binary":
        return (K + 1) * (K + 2) // 2 if recomb else 2 ** (K + 1) - 1
    if kind == "trinomial":
        return (K + 1) ** 2 if recomb else (3 ** (K + 1) - 1) // 2
    if kind == "compensated_jump":
        one_sided = float(params.get("lam_down",
                                     params.get("lam", 2.0))) == 0.0
        if not recomb:
            base = 2 if one_sided else 3
            return (base ** (K + 1) - 1) // (base - 1)
        if one_sided:
            return (K + 1) * (K + 2) // 2
        return (K + 1) * (K + 2) * (K + 3) // 6
    if kind == "time_changed":
        # merging is value-driven; report the no-merge upper bound
        return 2 ** (K + 1) - 1
    if kind == "product_noise":
        return (4 ** (K + 1) - 1) // 3
    raise ModelError(f"unknown model kind {kind!r}")


def _lattice_walk(config, moves, probs, value):
    """Build a fixed-move lattice level by level over integer states.

    ``moves`` is an (n_moves, n_comp) table of steps in {-1, 0, 1} taken
    with ``probs``; ``value(states, level)`` maps node states to M.  Children are
    numbered in the order of their first appearance among the parent-major,
    move-minor candidates, which is the order ``TreeBuilder.child`` gives;
    with ``recombine`` off every candidate is a new node.  The arrays are
    sized once from ``estimate_nodes``, which must match the filled count.
    """
    K = config.K
    n = estimate_nodes(config.kind, K, config.params)
    if n > node_cap():
        raise NodeCapExceeded(n, node_cap())
    recomb = bool(config.params.get("recombine", True))
    moves = np.asarray(moves, dtype=np.int64)
    n_edges = len(moves) * estimate_nodes(config.kind, K - 1, config.params)
    states = np.zeros((n, moves.shape[1]), dtype=np.int64)
    eparent = np.empty(n_edges, dtype=np.int64)
    echild = np.empty(n_edges, dtype=np.int64)
    eprob = np.empty(n_edges)
    # states lie in [-K, K] per component, so this key is one-to-one
    radix = (2 * K + 1) ** np.arange(moves.shape[1], dtype=np.int64)
    level_start = [0, 1]
    for k in range(K):
        lo, hi = level_start[-2], level_start[-1]
        e0, e1 = len(moves) * lo, len(moves) * hi
        cand = (states[lo:hi, None, :] + moves).reshape(-1, moves.shape[1])
        if recomb:
            _, first, inverse = np.unique((cand + K) @ radix,
                                          return_index=True,
                                          return_inverse=True)
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            children, fresh = rank[inverse], cand[first[order]]
        else:
            children, fresh = np.arange(len(cand)), cand
        if hi + len(fresh) > n or e1 > n_edges:
            raise InvariantViolation(
                f"{config.kind} lattice outgrew its estimate of {n} nodes")
        eparent[e0:e1] = np.repeat(np.arange(lo, hi), len(moves))
        echild[e0:e1] = hi + children
        eprob[e0:e1] = np.tile(probs, hi - lo)
        states[hi:hi + len(fresh)] = fresh
        level_start.append(hi + len(fresh))
    if level_start[-1] != n or len(moves) * level_start[-2] != n_edges:
        raise InvariantViolation(
            f"{config.kind} lattice filled {level_start[-1]} nodes, "
            f"estimate is {n}")
    tree = ScenarioTree(TimeGrid.uniform(K, config.T), 1, level_start,
                        eparent, echild, eprob)
    mvals = value(states, tree.node_level)
    mvals[0] = 0.0      # a literal, as a negative step would give -0.0
    return tree, _validated(tree, mvals)


def build_binary(config):
    """Symmetric +-h walk; recombining lattice; h defaults to sqrt(T/K)."""
    h = float(config.params.get("h", np.sqrt(config.T / config.K)))
    return _lattice_walk(config, [[-1], [1]], [0.5, 0.5],
                         lambda s, level: s[:, 0] * h)


def build_trinomial(config):
    """Steps (-h, 0, +h) with probabilities (p, 1-2p, p); lattice."""
    p = float(config.params.get("p", 0.25))
    h = float(config.params.get("h", np.sqrt(config.T / (2 * p * config.K))))
    return _lattice_walk(config, [[-1], [0], [1]], [p, 1 - 2 * p, p],
                         lambda s, level: s[:, 0] * h)


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
    if pd > 0:
        moves.append([0, 1])
        probs.append(pd)
    return _lattice_walk(
        config, moves, probs,
        lambda s, level: jump * s[:, 0] - jump_down * s[:, 1] - level * comp)


def build_time_changed(config):
    """Binary walk with state-dependent step h(m) = h0*sqrt(1+kappa*|m|),
    capped; non-deterministic bracket, Markov."""
    K, T = config.K, config.T
    kappa = float(config.params.get("kappa", 1.0))
    h0 = float(config.params.get("h", np.sqrt(T / K)))
    hcap = float(config.params.get("h_cap", 3 * h0))

    def step(m):
        return min(h0 * np.sqrt(1 + kappa * abs(m)), hcap)

    b = TreeBuilder(TimeGrid.uniform(K, T))
    states = {0: 0.0}
    mvals = [0.0]
    for k in range(K):
        b.begin_level()
        nxt = {}
        for nid, m in states.items():
            h = step(m)
            for s in (-1, 1):
                mc = m + s * h
                cid = b.child(nid, 0.5, key=round(mc, 12))
                if cid == len(mvals):
                    mvals.append(mc)
                nxt[cid] = mc
        b.end_level()
        _check_cap(b)
        states = nxt
    tree = b.build()
    return tree, _validated(tree, np.array(mvals))


def build_product_noise(config):
    """Binary M walk times an independent fair coin per step.

    The filtration is strictly larger than sigma(M): each node also records
    the latest coin flip in ``aux`` (+-1, 0 at the root).  M ignores aux.
    Full tree, branching 4: node i of level k is move
    (i - level_start[k]) mod 4 of its parent.
    """
    h = float(config.params.get("h", np.sqrt(config.T / config.K)))
    moves = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])  # (step, coin)
    tree, M = _lattice_walk(
        replace(config, params={**config.params, "recombine": False}),
        moves, [0.25] * 4, lambda s, level: s[:, 0] * h)
    move = (np.arange(tree.n_nodes) - tree.level_start[tree.node_level]) % 4
    aux = moves[move, 1].astype(float)
    aux[0] = 0.0
    return tree, M, AdaptedProcess(tree, aux)


def build(config):
    """Dispatch on kind; returns a BuiltModel with provenance."""
    aux = None
    if config.kind == "binary":
        tree, M = build_binary(config)
    elif config.kind == "trinomial":
        tree, M = build_trinomial(config)
    elif config.kind == "compensated_jump":
        tree, M = build_compensated_jump(config)
    elif config.kind == "time_changed":
        tree, M = build_time_changed(config)
    elif config.kind == "product_noise":
        tree, M, aux = build_product_noise(config)
    else:  # pragma: no cover - guarded by ModelConfig
        raise ModelError(config.kind)
    meta = {
        "kind": config.kind,
        "K": config.K,
        "T": config.T,
        "params": dict(config.params),
        "n_nodes": tree.n_nodes,
        "markov": True,
        "recombining": not tree.is_tree,
        "filtration_enlarged": config.kind == "product_noise",
        "continuous_limit": config.kind != "compensated_jump",
    }
    return BuiltModel(tree=tree, M=M, aux=aux, meta=meta)
