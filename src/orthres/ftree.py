"""Finite filtration engine on level-ordered scenario trees.

A tree is stored as flat arrays: nodes are numbered level by level, edges are
grouped by parent node.  Recombining lattices are supported as level-layered
DAGs: a node may have several incoming edges.  A tree's builder gives its
edges as index arrays, which the tree keeps, as children alone where every
node has the same number of edges, whose parents are then computed, or in
one closed form (a ``child_stride``), from which their parents and children
are computed and no per-edge index array is stored.  It gives their
probabilities as one move row that every non-terminal node shares (every
model builder does), or one per edge; a node's level is read off
``level_start``.  A tree with r edges out of every non-terminal node
computes its edge offsets where they are read (``EdgeOffsets``).  A tree
keeps its path probabilities only on every c-th level, c = floor(sqrt(K)),
and steps a level forward from the checkpoint above it where it is read.
So a closed-form lattice keeps no per-node array.

The martingale M is scalar (d = 1).  The martingale check, the conditional
variances and the clock run one level at a time, narrow levels merged into
runs of at most ``RUN_NODES`` nodes, and read a level's children as a view
where the tree has a ``child_stride``: beyond their outputs no temporary
outgrows a level or a run.  The clock stores at most its increments dC,
and none where no reader needs them (the GKW closure steps on E[dM^2 |
node] alone): it carries the accumulated trace for two levels, and the
conditional variances Sigma and its factor q are formed on demand for a
node range where they are read.  A tree stores its edges' children as
int32 where its node ids fit, and every read gives them as int64.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvariantViolation

PROB_TOL = 1e-14
MASS_TOL = 1e-12
PSD_TOL = 1e-12
# the martingale check and Sigma merge consecutive levels into runs of at
# most this many nodes: a narrow level costs more in calls than in work,
# while a wider level runs alone and reads its children as a view
RUN_NODES = 1024


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points t[0]=0 < ... < t[K]=T."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise InvariantViolation("time grid needs at least two points")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise InvariantViolation("time grid must start at 0 and strictly increase")
        object.__setattr__(self, "t", t)
        t.flags.writeable = False

    @classmethod
    def uniform(cls, K, T=1.0):
        return cls(np.linspace(0.0, T, K + 1))

    @property
    def K(self):
        return len(self.t) - 1

    @property
    def T(self):
        return float(self.t[-1])


def id_dtype(n):
    """The dtype a tree of n nodes stores its edges' children in: int32
    where every node id 0 .. n - 1 fits, int64 beyond."""
    return np.int32 if n <= 2 ** 31 else np.int64


def _per_move(first, r, step):
    """The (n*r,) edge-order array whose move i of node j is first[j] +
    step*i, filled move by move: numpy runs a broadcast over rows r wide
    several times slower."""
    out = np.empty((len(first), r), dtype=np.int64)
    for i in range(r):
        np.add(first, step * i, out=out[:, i])
    return out.ravel()


class EdgeOffsets:
    """The (n_nodes + 1,) int64 edge offsets min(i, nt)*r of a tree with r
    edges out of each of its nt non-terminal nodes, computed where they are
    indexed and never stored: an int (negative too) gives an int, a slice or
    an integer array an int64 array, as indexing the array would."""

    itemsize = 8

    def __init__(self, n, nt, r):
        self._len, self._nt, self._r = n + 1, nt, r

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        n = self._len
        if isinstance(i, slice):
            return self._at(np.arange(*i.indices(n)))
        try:
            j = operator.index(i)
        except TypeError:
            idx = np.asarray(i)
            if idx.size and idx.dtype.kind not in "iu":
                raise IndexError("edge offsets take an int, a slice or an "
                                 f"integer array, got {idx.dtype}")
            idx = idx.astype(np.int64)
            if idx.size and not (-n <= idx.min() and idx.max() < n):
                raise IndexError(f"index out of bounds for {n} edge offsets")
            idx[idx < 0] += n
            return self._at(idx)
        if not -n <= j < n:
            raise IndexError(f"index {j} out of bounds for {n} edge offsets")
        return min(j % n, self._nt) * self._r

    def _at(self, idx):
        """min(idx, nt)*r of the non-negative int64 idx, formed in place."""
        np.minimum(idx, self._nt, out=idx)
        idx *= self._r
        return idx


class ScenarioTree:
    """Level-ordered finite filtered probability space.

    Attributes
    ----------
    grid : TimeGrid
    level_start : (K+2,) node-id offset of each level
    estart : (n_nodes+1,) per-node offset into the edges: an int64 array
        on a tree given its edges' parents, an ``EdgeOffsets`` on any other
    probs : (1, r) move row that every non-terminal node takes, or (E,)
        edge probabilities grouped by parent
    arity : r when every non-terminal node has r edges, else None
    child_stride : s on a tree given its edges in closed form, where on
        every level move i of level-local node j lands on level-local node
        s*j + i of the next level (1 on line lattices and their subtrees, r
        on full trees numbered level by level), None on a tree given
        arrays; where it is set, the kernels read a level's children as a
        strided view of the level below

    The probabilities are given as one (1, r) row, move i of every
    non-terminal node being its i-th edge, as every model builder gives
    them, or as an (E,) array, one per edge.  The edges are given as
    ``eparent`` and ``echild`` arrays, which the tree keeps and then has no
    ``child_stride``; as ``echild`` alone, grouped by parent with r edges
    out of every non-terminal node, whose parents the tree derives; or in
    closed form as None for both: then every non-terminal node has r edges
    (the row's r, or len(eprob) / n_nonterminal), each level's size must be
    s*(n - 1) + r for the n nodes above it and one stride 1 <= s <= r, and
    the tree keeps no per-edge index arrays.  Kept children are stored in
    ``id_dtype(n_nodes)``, int32 where the node ids fit (4 bytes an edge,
    taken as given when they come in it), and kept parents as int64.
    ``edge_parents`` and ``edge_children`` give the edges of any node
    range as int64, from the closed form, as slices of the kept parents or
    as int64 copies of the kept children's slices; ``level_of`` gives a
    node's level from ``level_start``, and no tree holds one level per
    node.  ``eprob``, ``eparent`` and ``echild`` build the whole array on
    each read where the tree does not keep it in that form.

    The path probabilities, the mass reaching each node, are formed level by
    level in one forward pass, which refuses a level whose mass is not 1
    within MASS_TOL, and kept only on every c-th level, c = max(1,
    floor(sqrt(K))).  ``level_path_prob(k)`` steps level k forward from the
    checkpoint at or below it, and ``descending_path_probs()`` streams the
    non-terminal levels from K - 1 to 0, one block of c levels at a time.
    """

    def __init__(self, grid, level_start, eparent, echild, eprob):
        self.grid = grid
        self.level_start = ls = np.asarray(level_start, dtype=np.int64)
        self.probs = p = np.asarray(eprob, dtype=float)
        n = int(ls[-1])
        self.n_nodes = n
        if len(ls) != self.K + 2 or ls[0] != 0 or np.any(np.diff(ls) < 1):
            raise InvariantViolation("level_start must hold K + 2 increasing "
                                     "node offsets from 0")
        if ls[1] != 1:
            raise InvariantViolation(f"level 0 must hold one root node, got "
                                     f"{ls[1]}")
        if not (p.ndim == 1 or p.ndim == 2 and p.shape[0] == 1):
            raise InvariantViolation("edge probabilities must be a (1, r) "
                                     f"move row or one per edge, got shape "
                                     f"{p.shape}")
        nt = self.n_nonterminal
        if eparent is None:
            # r edges out of every non-terminal node, in parent order
            self._eparent = None
            self._echild = None if echild is None else self._child_ids(echild)
            n_edges = (len(self._echild) if echild is not None
                       else len(p) if p.ndim == 1 else p.shape[1] * nt)
            r = n_edges // nt
            if r < 1 or r * nt != n_edges:
                raise InvariantViolation(
                    f"edges without parents need the same number out of "
                    f"each of {nt} non-terminal nodes, got {n_edges} edges")
            if p.ndim == 1 and len(p) != n_edges:
                raise InvariantViolation(
                    f"{n_edges} edges need one probability each, got "
                    f"{len(p)}")
            self.estart = EdgeOffsets(n, nt, r)
            self.arity = r
        else:
            self._set_edge_arrays(eparent, echild)
        if p.ndim == 2 and self.arity != p.shape[1]:
            raise InvariantViolation(
                f"a move row of {p.shape[1]} probabilities needs that "
                f"many edges out of every non-terminal node")
        self.validate()

        for a in (self.level_start, self._eparent, self._echild, self.probs,
                  self.estart):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        # the forward mass pass keeps every c-th level's path probabilities:
        # a level is then stepped from at most c - 1 levels above it
        self._every = c = max(1, math.isqrt(self.K))
        self._checkpoints = []
        pp = np.ones(1)
        for k in range(self.K + 1):
            if k % c == 0:
                pp.flags.writeable = False
                self._checkpoints.append(pp)
            # summed in np.add.reduceat's order, not np.sum's pairwise one
            mass = float(np.add.reduceat(pp, [0])[0])
            if abs(mass - 1.0) > MASS_TOL:
                raise InvariantViolation(
                    f"level {k} probability mass {mass} != 1")
            if k < self.K:
                pp = self._step(k, pp)

    def _set_edge_arrays(self, eparent, echild):
        """Store the given edges sorted by parent, with estart and arity."""
        n = self.n_nodes
        self._eparent = np.asarray(eparent, dtype=np.int64)
        self._echild = self._child_ids(echild)
        if np.any(self._eparent[1:] < self._eparent[:-1]):
            order = np.argsort(self._eparent, kind="stable")
            self._eparent = self._eparent[order]
            self._echild = self._echild[order]
            if self.probs.ndim == 1:
                self.probs = self.probs[order]
        # sorted, so the ends bound every parent; the children are bounded
        # level by level in validate, before anything indexes with them
        if self._eparent.size and not (0 <= self._eparent[0]
                                       and self._eparent[-1] < n):
            raise InvariantViolation(
                f"edge parents must lie in [0, {n}), got "
                f"{self._eparent[0]} .. {self._eparent[-1]}")
        self.estart = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._eparent, minlength=n),
                  out=self.estart[1:])
        out_degree = np.diff(self.estart[:self.n_nonterminal + 1])
        if out_degree.size and out_degree.min() < 1:
            raise InvariantViolation("every non-terminal node needs an edge")
        self.arity = (int(out_degree[0]) if out_degree.min()
                      == out_degree.max() else None)

    def _child_ids(self, echild):
        """``echild`` as the tree keeps it, in ``id_dtype(n_nodes)``, with
        no copy where it comes in that dtype.  Ids out of range stay int64,
        for validate to refuse, not wrapped into range by the cast."""
        c, want = np.asarray(echild), id_dtype(self.n_nodes)
        if c.dtype != want:
            c = np.asarray(c, dtype=np.int64)
            if c.size and 0 <= c.min() and c.max() < self.n_nodes:
                c = c.astype(want)
        return c

    # -- structure ---------------------------------------------------------
    @property
    def K(self):
        return self.grid.K

    @property
    def n_nonterminal(self):
        return int(self.level_start[self.K])

    def level_slice(self, k):
        return int(self.level_start[k]), int(self.level_start[k + 1])

    def level_of(self, node):
        """The level of node id ``node``."""
        return int(np.searchsorted(self.level_start, node, "right")) - 1

    def edge_parents(self, lo, hi):
        """The parent of every edge out of the nodes [lo, hi), in edge
        order: a slice of the kept array, or each node repeated r times."""
        if self._eparent is not None:
            return self._eparent[self.estart[lo]:self.estart[hi]]
        nt = self.n_nonterminal
        return _per_move(np.arange(min(lo, nt), min(hi, nt)), self.arity, 0)

    def edge_children(self, lo, hi):
        """The child of every edge out of the nodes [lo, hi), in edge
        order, as int64; the range may span levels."""
        if self._echild is not None:
            return self._echild[self.estart[lo]:self.estart[hi]].astype(
                np.int64)
        nt, ls, s = self.n_nonterminal, self.level_start, self.child_stride
        lo, hi = min(lo, nt), min(hi, nt)
        first = np.arange(s * lo, s * hi, s)
        # move 0 of node j on level k lands on ls[k+1] + s*(j - ls[k]): each
        # level the range meets adds its own offset
        k, at = self.level_of(lo), lo
        while at < hi:
            end = min(int(ls[k + 1]), hi)
            first[at - lo:end - lo] += int(ls[k + 1]) - s * int(ls[k])
            at, k = end, k + 1
        return _per_move(first, self.arity, 1)

    # -- path probabilities ------------------------------------------------
    def _step(self, k, pp):
        """Level k + 1's path probabilities from level k's, ``pp``: each
        child adds its incoming mass in edge order from 0.0."""
        lo, hi, b = self.level_start[k:k + 3].tolist()
        p, s = self.probs, self.child_stride
        if s is None:
            w = ((pp[:, None] * p).ravel() if p.ndim == 2
                 else pp[self.edge_parents(lo, hi) - lo]
                 * p[_kernels._edges(self, lo, hi)])
            return np.bincount(self.edge_children(lo, hi) - hi, w, b - hi)
        # move i of the level's nodes feeds children i, i + s, ...: adding
        # the highest move first adds each child's incoming mass in edge
        # order (parent-major), as bincount does
        row = (p[0] if p.ndim == 2 else
               p[_kernels._edges(self, lo, hi)].reshape(hi - lo, -1).T)
        out, n = np.zeros(b - hi), hi - lo
        for i in range(self.arity - 1, -1, -1):
            out[i:i + s * n:s] += pp * row[i]
        return out

    def level_path_prob(self, k):
        """(level size,) probability mass reaching each node of level k,
        stepped forward from the checkpoint at or below k."""
        if not 0 <= k <= self.K:
            raise IndexError(f"level {k} out of range 0 .. {self.K}")
        j = k - k % self._every
        pp = self._checkpoints[j // self._every]
        for i in range(j, k):
            pp = self._step(i, pp)
        return pp

    def descending_path_probs(self):
        """Yield (k, level k's path probabilities) for k = K - 1 .. 0,
        stepping one block of levels forward from its checkpoint at a time,
        so that at most one block is held."""
        c = self._every
        for j in range((self.K - 1) // c * c, -1, -c):
            block = [self._checkpoints[j // c]]
            for i in range(j, min(j + c, self.K) - 1):
                block.append(self._step(i, block[-1]))
            while block:
                yield j + len(block) - 1, block.pop()

    @property
    def eprob(self):
        """(E,) probability of every edge, built on each read from a move
        row."""
        p = self.probs
        return np.tile(p[0], self.n_nonterminal) if p.ndim == 2 else p

    @property
    def eparent(self):
        """(E,) parent of every edge, built on each read where the tree
        keeps no index arrays."""
        return self.edge_parents(0, self.n_nodes)

    @property
    def echild(self):
        """(E,) int64 child of every edge, built on each read from the
        closed form or the kept children."""
        return self.edge_children(0, self.n_nodes)

    def validate(self):
        """Check the edges: probabilities in (0, 1] summing to 1 per
        non-terminal node (once for a move row), and each level's edges
        ending on the next level.  Sets ``child_stride`` on the way.
        """
        p = self.probs
        # written so that NaN fails it
        if not (np.all(p > 0) and np.all(p <= 1)):
            raise InvariantViolation("edge probabilities must lie in (0,1]")
        nt = self.n_nonterminal
        if self._echild is not None and self.estart[nt] != len(self._echild):
            raise InvariantViolation("edges must connect consecutive levels")
        # __init__ gave every non-terminal node an edge, so no segment is
        # empty; a strided sum reads no offsets, so none are formed for it
        p, at = ((p[0], [0]) if p.ndim == 2 else
                 (p, None if _kernels._strided(self) else self.estart[:nt]))
        bad = np.abs(_kernels._segment_sum(self, p, at) - 1.0)
        if bad.max() > PROB_TOL:
            raise InvariantViolation(
                f"outgoing probabilities sum to 1 violated by {bad.max():.3e}")
        if self._echild is None:
            self.child_stride = self._closed_form_stride()
            return
        self.child_stride = None
        ls = self.level_start
        first = self.estart[ls[:-2]]
        if (np.any(np.minimum.reduceat(self._echild, first) < ls[1:-1])
                or np.any(np.maximum.reduceat(self._echild, first)
                          >= ls[2:])):
            raise InvariantViolation("edges must connect consecutive levels")

    def _closed_form_stride(self):
        """The stride s of a tree given its edges in closed form, read off
        the first level with two nodes (1 without one): every level's size
        must then be s*(n - 1) + r for the n nodes above it, with
        1 <= s <= r, so that each level's children end on the next level
        and every node of it has an incoming edge."""
        r, sizes = self.arity, np.diff(self.level_start)
        wide = np.flatnonzero(sizes[:self.K] > 1)
        s, rem = 1, 0
        if wide.size:
            s, rem = divmod(int(sizes[wide[0] + 1]) - r,
                            int(sizes[wide[0]]) - 1)
        bad = (np.flatnonzero(sizes[1:] != s * (sizes[:-1] - 1) + r)
               if 1 <= s <= r and not rem else wide[:1])
        if bad.size:
            k = int(bad[0]) + 1
            raise InvariantViolation(
                f"closed-form level {k} holds {sizes[k]} nodes, not "
                f"s*({sizes[k - 1]} - 1) + {r} for one stride "
                f"1 <= s <= {r}")
        return s


@dataclass
class AdaptedProcess:
    """One real vector per node."""

    tree: ScenarioTree
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.tree.n_nodes:
            raise InvariantViolation("adapted process needs one value per node")
        # min and max propagate NaN, so this refuses NaN and +-inf without a
        # full-size mask
        if not -np.inf < v.min(initial=0.0) <= v.max(initial=0.0) < np.inf:
            raise InvariantViolation("adapted process has non-finite entries")
        self.values = v

    @property
    def dim(self):
        return self.values.shape[1]

    @property
    def scalar(self):
        """(n_nodes,) view of the values; a process of any other dimension
        is refused, not read by its first column."""
        if self.dim != 1:
            raise InvariantViolation("a scalar process (d = 1) is needed, "
                                     f"got dimension {self.dim}")
        return self.values[:, 0]


@dataclass
class PredictableField:
    """One value per non-terminal node, applied on the step to the next level."""

    tree: ScenarioTree
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[0] != self.tree.n_nonterminal:
            raise InvariantViolation("predictable field must cover every "
                                     "non-terminal node")
        self.values = v

    @property
    def dim(self):
        return self.values.shape[1] if self.values.ndim > 1 else 1


@dataclass
class ClockAndFactor:
    """The increments dC of the clock C = arctan of the accumulated bracket
    trace, per non-terminal node, or None on a clock built without them.
    Sigma = E[dM^2 | node], which the clock is built from, is formed again
    from the tree and M where it is read, and ``factor`` forms the clock's
    factor q on a node range; at most dC is stored.  A clock without dC
    serves the GKW closure, which reads Sigma and ``projects`` alone; every
    reader of dC or q refuses it."""

    tree: ScenarioTree = field(repr=False)
    M: AdaptedProcess = field(repr=False)
    dC: PredictableField              # scalar, per non-terminal node, or None
    sigma_max: float                  # the largest Sigma, its scale

    def projects(self, sigma):
        """Where dY is projected on dM: Sigma above PROJ_EPS times the
        largest Sigma, a test that scaling M leaves unchanged."""
        return sigma > _kernels.PROJ_EPS * self.sigma_max

    def increments(self):
        """dC's (nt,) values; InvariantViolation on a clock without them."""
        if self.dC is None:
            raise InvariantViolation(
                "this clock was built without its increments dC, which only "
                "the zero driver's closure steps without")
        return self.dC.values

    def factor(self, lo, hi, sigma=None):
        """q = sqrt(Sigma/dC) on the non-terminal nodes [lo, hi), so that
        q^2 dC = Sigma: 0 where dC <= 0, and where Sigma/dC is at most
        PSD_TOL * max(1, Sigma/dC).  ``sigma`` is the range's Sigma, formed
        here when not given.  Besides it and the (hi - lo,) result it holds
        only boolean masks of that size."""
        dc = self.increments()[lo:hi]
        if sigma is None:
            sigma = conditional_covariances(self.tree, self.M, lo, hi)
        q = np.divide(sigma, dc, out=np.zeros(hi - lo), where=dc > 0)
        # q >= 0, so q > PSD_TOL * max(1, q) reads PSD_TOL < q < inf
        live = (q > PSD_TOL) & (q < np.inf)
        np.sqrt(q, out=q, where=live)
        q[~live] = 0.0
        return q


class MartingaleCheck:
    def __init__(self, ok, max_violation):
        self.ok = bool(ok)
        self.max_violation = float(max_violation)

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _runs(tree, lo=0, hi=None):
    """[a, b) node ranges that cover the non-terminal nodes [lo, hi), in
    level order: as many consecutive levels as hold at most RUN_NODES nodes,
    or one, the first and last cut to the range."""
    ls, K = tree.level_start, tree.K
    hi = tree.n_nonterminal if hi is None else hi
    k = tree.level_of(lo)
    while lo < hi:
        j = int(np.searchsorted(ls, ls[k] + RUN_NODES, "right")) - 1
        j = min(K, max(k + 1, j))
        b = min(int(ls[j]), hi)
        yield lo, b
        lo, k = b, j


def backward_closure(tree, leaf_values):
    """Fill the whole tree with E[zeta | F_k] from leaf values (all levels)."""
    leaf_values = np.asarray(leaf_values, dtype=float)
    lo, hi = tree.level_slice(tree.K)
    if leaf_values.shape[0] != hi - lo:
        raise InvariantViolation("need one terminal value per leaf")
    out = np.empty(tree.n_nodes)
    out[lo:hi] = leaf_values
    for k in range(tree.K - 1, -1, -1):
        a, b = tree.level_slice(k)
        out[a:b] = _kernels.backward_expect(tree, out, a, b)
    return AdaptedProcess(tree, out)


def is_martingale(tree, M, tol=1e-12):
    """Check E[M_{k+1} | node] == M_k at every non-terminal node, one run
    of levels at a time, so that no temporary outgrows a run."""
    v = M.scalar
    worst = 0.0
    for lo, hi in _runs(tree):
        ey = _kernels.backward_expect(tree, v, lo, hi)
        worst = max(worst, float(np.max(np.abs(ey - v[lo:hi]))))
    return MartingaleCheck(worst <= tol, worst)


def level_variances(tree, pdm, dm, lo, hi):
    """Sigma = E[dm^2 | node] on the nodes [lo, hi) from the range's p*dm and
    dm, in their layout; a Sigma that is not finite is refused."""
    sigma = _kernels.edge_sum(tree, pdm * dm, lo, hi)
    # Sigma >= 0, so this fails on inf and NaN alone
    if not sigma.max() < np.inf:
        i = int(np.flatnonzero(~np.isfinite(sigma))[0])
        raise InvariantViolation(
            f"E[dM^2 | node] is {sigma[i]} at node {lo + i}: the increments "
            "of M overflow")
    return sigma


def conditional_covariances(tree, M, lo=0, hi=None):
    """Sigma = E[dM^2 | node] on the non-terminal nodes [lo, hi) (all of
    them by default), shape (hi - lo,), filled one run of levels at a
    time."""
    m = M.scalar
    hi = tree.n_nonterminal if hi is None else hi
    sigma = np.empty(hi - lo)
    for a, b in _runs(tree, lo, hi):
        dm = _kernels.edge_increments(tree, m, a, b)
        pdm = _kernels.edge_probs(tree, a, b) * dm
        sigma[a - lo:b - lo] = level_variances(tree, pdm, dm, a, b)
    return sigma


def predictable_bracket(tree, M, increments=True):
    """The clock C = arctan(V) of the accumulated trace V of the conditional
    variances Sigma, as its increments dC = arctan(V + Sigma) - arctan(V),
    stored only with ``increments``; without, the pass makes the same
    checks and finds the same ``sigma_max``, and the clock's dC is None.

    Built from conditional variances so that dC is predictable.  Requires
    the accumulated trace to be consistent across recombined paths.  Sigma
    and V are held for one run of levels at a time, V also on the level
    below the run, so beyond dC no temporary outgrows a level or a run.
    """
    ls, s, r = tree.level_start, tree.child_stride, tree.arity
    dC = np.empty(tree.n_nonterminal) if increments else None
    V = np.zeros(1)     # the accumulated trace on the run's first level
    worst = sigma_max = 0.0
    for a, b in _runs(tree):
        sigma = conditional_covariances(tree, M, a, b)
        sigma_max = max(sigma_max, float(sigma.max()))
        # V on the run's levels and the level below them
        k = tree.level_of(a)
        buf = np.zeros(int(ls[tree.level_of(b - 1) + 2]) - a)
        buf[:len(V)] = V
        # each node's candidate for its children's V, turned into dC
        # where it is kept
        run = dC[a:b] if increments else np.empty(b - a)
        lo = a
        while lo < b:
            hi, end = int(ls[k + 1]), int(ls[k + 2])
            cand = np.add(buf[lo - a:hi - a], sigma[lo - a:hi - a],
                          out=run[lo - a:hi - a])
            nxt = buf[hi - a:end - a]
            if s is None:
                child = tree.edge_children(lo, hi) - hi
                # with r edges out of every node, node j's are r*j .. r*j +
                # r - 1: no parent array is needed
                cand = (cand[tree.edge_parents(lo, hi) - lo] if r is None
                        else np.repeat(cand, r))
                nxt[child] = cand
                # every incoming edge must agree on the accumulated trace
                worst = max(worst, float(np.max(np.abs(nxt[child] - cand))))
            else:
                # move i of node lo + j lands on child s*j + i: row i of an
                # (r, n) view of nxt.  Writing the highest move first lets
                # the last edge in edge order win, as the gathered store does
                w = nxt.itemsize
                child = np.ndarray((r, hi - lo), nxt.dtype, nxt, 0,
                                   (w, s * w))
                for i in range(r - 1, -1, -1):
                    child[i] = cand
                worst = max(worst, float(np.max(np.abs(child - cand))))
            lo, k = hi, k + 1
        if increments:
            np.arctan(run, out=run)
            run -= np.arctan(buf[:b - a])
        V = buf[b - a:]
    if worst > 1e-9:
        raise InvariantViolation(
            "recombined nodes disagree on the accumulated bracket trace "
            f"(max {worst:.3e}); use a non-recombining tree")
    return ClockAndFactor(
        tree=tree, M=M, sigma_max=sigma_max,
        dC=PredictableField(tree, dC) if increments else None)
