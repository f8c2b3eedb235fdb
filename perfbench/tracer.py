"""Outside-in tracer: spans and counters around the public functions of each
orthres layer, installed by patching module and class attributes.

Nothing under ``src/`` knows about it. A function that another module bound
with ``from .x import y`` is found by identity in every loaded ``orthres``
module and patched there too; late imports inside function bodies read the
patched module attribute at call time. ``uninstall`` restores every original.

Every counter reads only the arguments and the return value of a call.
"""

import importlib
import itertools
import os
import sys
import weakref
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus counters."""

    def __init__(self, pass_id=0):
        self.pass_id = pass_id
        self.spans = []           # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)
        self.seen = defaultdict(set)        # distinct keys per counter
        self.cascade_drivers = {}           # cascade span -> driver ids
        self.itemsizes = {}                 # kernel -> (edge, node) bytes
        self._patches = []
        self._tokens = {}
        self._serial = itertools.count()

    # -- patching -----------------------------------------------------------
    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` (and every module alias of it) by a
        function that records a span named ``name`` per call."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            targets += [(mod, a) for mod in _orthres_modules()
                        for a, v in list(vars(mod).items())
                        if v is original and (mod, a) != (owner, attr)]
        for mod, a in targets:
            self._patches.append((mod, a, original))
            setattr(mod, a, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters -----------------------------------------------------------
    def token(self, obj):
        """A serial number per live object: unlike ``id`` it is never reused
        after the object is collected."""
        key = id(obj)
        tok = self._tokens.get(key)
        if tok is None:
            tok = self._tokens[key] = next(self._serial)
            weakref.finalize(obj, self._tokens.pop, key, None)
        return tok

    def enclosing(self, name):
        """Index of the innermost open span called ``name``, or -1."""
        for idx in reversed(self.stack):
            if self.spans[idx][0] == name:
                return idx
        return -1

    # -- results ------------------------------------------------------------
    def self_times(self):
        """Per span name: (self seconds, inclusive seconds, calls).

        Self time is a span's duration minus the durations of its direct
        children; in one thread children never overlap, so that is the part
        of the interval they cover.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, t0, t1, _), c in zip(self.spans, child):
            agg = out[name]
            agg[0] += t1 - t0 - c
            agg[1] += t1 - t0
            agg[2] += 1
        return dict(out)

    def covered(self):
        """Seconds covered by root spans."""
        return sum(t1 - t0 for _, t0, t1, p in self.spans if p < 0)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("pass\tspan\tparent\tname\tstart\tend\n")
            for i, (name, t0, t1, p) in enumerate(self.spans):
                fh.write(f"{self.pass_id}\t{i}\t{p}\t{name}\t{t0!r}\t"
                         f"{t1!r}\n")


def _orthres_modules():
    return [m for n, m in list(sys.modules.items())
            if (n == "orthres" or n.startswith("orthres.")) and m is not None]


# ---------------------------------------------------------------------------
# counters per layer
# ---------------------------------------------------------------------------

def _count_build(tr, args, kwargs, built):
    tr.counts["models.nodes"] += built.tree.n_nodes
    tr.counts["models.edges"] += len(built.tree.echild)


def _count_clock(tr, args, kwargs, result):
    tree, M = _arg(args, kwargs, 0, "tree"), _arg(args, kwargs, 1, "M")
    tr.counts["ftree.clock_nodes"] += tree.n_nodes
    tr.seen["ftree.clock"].add((tr.token(tree), tr.token(M)))


def _count_extract(tr, args, kwargs, result):
    tree, node = _arg(args, kwargs, 0, "tree"), _arg(args, kwargs, 1, "node")
    tr.seen["forward.extract"].add((tr.token(tree), int(node)))


def _count_eval(tr, args, kwargs, values):
    tr.counts["mollify.eval_points"] += len(values)


def _count_lipschitz(tr, args, kwargs, sol):
    tr.counts["bsde.fp_iters"] += sum(sol.diagnostics["fixed_point_iters"])
    cascade = tr.enclosing("bsde.cascade")
    if cascade >= 0:
        tr.counts["bsde.cascade_solves"] += 1
        tr.cascade_drivers.setdefault(cascade, set()).add(
            _arg(args, kwargs, 5, "driver").id)


def _count_dual(tr, args, kwargs, result):
    tr.counts["bsde.floored_fraction_sum"] += result.floored_fraction


def _count_report(tr, args, kwargs, result):
    prefix = _arg(args, kwargs, 0, "cfg").output
    for ext in (".csv", ".json", ".curves.tsv", ".timing.json"):
        tr.counts["cli.report_bytes"] += os.path.getsize(prefix + ext)


# Per kernel: the positional index of ``lo`` (``hi`` follows it), then the
# arrays it touches once per edge and once per node. "echild", "eprob" and
# "estart" are the tree's arrays, an integer is a positional argument
# (gathered per edge or read per node), "out" is one float64 result per node.
# Each array counts once, so the bytes are the compulsory traffic, computed
# from item sizes rather than measured.
KERNELS = {
    "backward_expect": (2, ("echild", "eprob", 1), ("estart", "out")),
    "level_moments_d1": (3, ("echild", "eprob", 1, 2),
                         ("estart", 1, "out", "out", "out")),
    "edge_residuals_d1": (5, ("echild", "eprob", 1, 2, 7),
                          ("estart", 1, 3, 4, "out")),
    "weighted_child_sum": (3, ("echild", "eprob", 1, 2), ("estart", "out")),
}


def _itemsize(tree, args, what):
    if what == "out":
        return 8
    if isinstance(what, str):
        return getattr(tree, what).itemsize
    return args[what].itemsize


def _kernel_counter(kernel):
    """Counts edges and nodes per call; item sizes are read on the first
    call (they are fixed by the tree's and solver's dtypes)."""
    at, edge_arrays, node_arrays = KERNELS[kernel]
    edges_key, nodes_key = f"kernels.{kernel}.edges", f"kernels.{kernel}.nodes"

    def count(tr, args, kwargs, result):
        tree, lo, hi = args[0], args[at], args[at + 1]
        tr.counts[edges_key] += int(tree.estart[hi]) - int(tree.estart[lo])
        tr.counts[nodes_key] += hi - lo
        if kernel not in tr.itemsizes:
            tr.itemsizes[kernel] = (
                sum(_itemsize(tree, args, a) for a in edge_arrays),
                sum(_itemsize(tree, args, a) for a in node_arrays))
    return count


# Which function of which layer is wrapped, under which span name. Functions
# called once per node or per fixed-point iteration (``psd_cholesky``,
# ``TreeBuilder.child``, driver callables) and factories that only build
# closures are not wrapped: they run inside the spans below, and a span per
# call would cost more than the work.
LAYERS = (
    ("models", "orthres.models", "build", "build", _count_build),
    ("ftree", "orthres.ftree", "ScenarioTree.__init__", "tree_init", None),
    ("ftree", "orthres.ftree", "predictable_bracket", "clock", _count_clock),
    ("ftree", "orthres.ftree", "backward_closure", "closure", None),
    ("ftree", "orthres.ftree", "is_martingale", "mart_check", None),
    ("gkw", "orthres.gkw", "gkw_decompose", "decompose", None),
    ("gkw", "orthres.gkw", "martingale_from_terminal", "terminal_closure",
     None),
    ("gkw", "orthres.gkw", "residual_sweep", "sweep", None),
    ("mollify", "orthres.mollify", "mollify", "make", None),
    ("mollify", "orthres.mollify", "TerminalMap.__call__", "eval",
     _count_eval),
    ("mollify", "orthres.mollify", "MollifiedMap.__call__", "eval",
     _count_eval),
    ("forward", "orthres.forward", "extract_subtree", "extract",
     _count_extract),
    ("forward", "orthres.forward", "shift_start", "restart", None),
    ("forward", "orthres.forward", "euler_forward", "euler", None),
    ("bsde", "orthres.bsde", "solve_lipschitz", "lipschitz",
     _count_lipschitz),
    ("bsde", "orthres.bsde", "solve_quadratic", "cascade", None),
    ("bsde", "orthres.bsde", "dual_value", "dual", _count_dual),
    ("bsde", "orthres.bsde", "compare", "compare", None),
    ("bsde", "orthres.bsde", "vanishing_N_experiment", "experiment", None),
    ("bsde", "orthres.bsde", "regularity_scan", "experiment", None),
    ("cli", "orthres.cli", "main", "main", None),
    ("cli", "orthres.cli", "parse_config", "parse", None),
    ("cli", "orthres.cli", "preflight", "preflight", None),
    ("cli", "orthres.cli", "write_reports", "report", _count_report),
) + tuple(("kernels", "orthres._kernels", k, k, _kernel_counter(k))
          for k in KERNELS)

# Call counts reported, by span name.
CALLS = {"models.build": "models.builds", "ftree.tree_init": "ftree.trees",
         "ftree.clock": "ftree.clock_calls",
         "gkw.decompose": "gkw.decompose_calls",
         "forward.extract": "forward.extract_calls",
         "bsde.lipschitz": "bsde.lipschitz_solves",
         "bsde.cascade": "bsde.cascades", "bsde.dual": "bsde.dual_calls",
         **{f"kernels.{k}": f"kernels.{k}_calls" for k in KERNELS}}

LAYER_NAMES = ("models", "ftree", "gkw", "mollify", "forward", "bsde",
               "kernels", "cli")


def install(tracer):
    """Wrap every entry of LAYERS; ``tracer.uninstall()`` undoes it."""
    for layer, module, attr, short, after in LAYERS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, f"{layer}.{short}", after)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    times = tracer.self_times()
    c = tracer.counts
    out = {}
    for layer, _, _, short, _ in LAYERS:
        out[f"{layer}.{short}_s"] = times.get(f"{layer}.{short}",
                                              (0.0, 0.0, 0))[0]
    for span, metric in CALLS.items():
        out[metric] = times.get(span, (0.0, 0.0, 0))[2]
    for layer in LAYER_NAMES:
        out[f"{layer}.self_s"] = sum(
            v[0] for k, v in times.items() if k.split(".")[0] == layer)
    build_incl = times.get("models.build", (0.0, 0.0, 0))[1]
    kernel_calls = sum(out[f"kernels.{k}_calls"] for k in KERNELS)
    kernel_edges = sum(c[f"kernels.{k}.edges"] for k in KERNELS)
    kernel_bytes = sum(c[f"kernels.{k}.edges"] * edge_b
                       + c[f"kernels.{k}.nodes"] * node_b
                       for k, (edge_b, node_b) in tracer.itemsizes.items())
    out.update({
        "models.nodes": c["models.nodes"],
        "models.edges": c["models.edges"],
        "models.nodes_per_s": _ratio(c["models.nodes"], build_incl),
        "ftree.clock_nodes": c["ftree.clock_nodes"],
        "ftree.clock_distinct_ratio": _ratio(len(tracer.seen["ftree.clock"]),
                                             out["ftree.clock_calls"]),
        "mollify.eval_points": c["mollify.eval_points"],
        "forward.extract_distinct_ratio": _ratio(
            len(tracer.seen["forward.extract"]),
            out["forward.extract_calls"]),
        "bsde.fp_iters": c["bsde.fp_iters"],
        "bsde.cascade_solves": c["bsde.cascade_solves"],
        "bsde.cascade_distinct_ratio": _ratio(
            sum(len(d) for d in tracer.cascade_drivers.values()),
            c["bsde.cascade_solves"]),
        "bsde.dual_floored_fraction": _ratio(c["bsde.floored_fraction_sum"],
                                             out["bsde.dual_calls"]),
        "kernels.edges": kernel_edges,
        "kernels.edges_per_call": _ratio(kernel_edges, kernel_calls),
        "kernels.bytes_computed": kernel_bytes,
        "cli.report_bytes": c["cli.report_bytes"],
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - tracer.covered(),
        "trace.spans": len(tracer.spans),
    })
    return out
