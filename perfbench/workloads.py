"""Seeded request streams for the softsched benchmark.

Every workload is a pure function of (name, seed, size): the same seed
gives byte-identical request lines, and any seed gives the same shape
(request count, size ladder, key structure, race share), because seeds
only move graph structure and stream order, never the size mix.

The graph generators mirror lib/dfg/generate.ml (``random_dag`` and
``layered``, same op pool) but run here, so the program under test only
ever sees NDJSON.  Every generated graph records its vertex names, ops
and edges so the reply checker can judge a reply against the request's
own graph.
"""

import json
import math
import random

OPS = ["add", "sub", "mul", "lt", "and", "xor"]

# The three Figure 3 resource configurations.
FIG3 = ["2alu,2mul,1mem", "4alu,4mul,1mem", "2alu,1mul,1mem"]

SUITE = ["HAL", "AR", "EF", "FIR", "DCT", "IIR", "MM3", "CONV"]

# Daemon result-cache capacity (LRU entries): the warm working set fits
# in it, cold_sched's traced replay overflows it.
CACHE_CAPACITY = 32


class Graph:
    """A request's own graph: names in declaration order, op per name,
    edges in operand order."""

    def __init__(self, names, ops, edges):
        self.names = names
        self.ops = ops
        self.edges = edges

    def dfg(self, order=None):
        order = self.names if order is None else order
        lines = ["vertex %s %s" % (v, self.ops[v]) for v in order]
        lines += ["edge %s %s" % e for e in self.edges]
        return "\n".join(lines) + "\n"

    def renamed(self, prefix):
        m = {v: prefix + v for v in self.names}
        return Graph(
            [m[v] for v in self.names],
            {m[v]: op for v, op in self.ops.items()},
            [(m[a], m[b]) for a, b in self.edges],
        )


def _named(prefix, ops, edges):
    names = ["%s%d" % (prefix, i) for i in range(len(ops))]
    return Graph(
        names,
        dict(zip(names, ops)),
        [(names[a], names[b]) for a, b in edges],
    )


def random_dag(rng, n, edge_prob, prefix="v"):
    """Each forward pair (i, j), i < j, is an edge with probability
    ``edge_prob``.  Sources are visited by geometric skipping, so the
    cost is O(V + E) rather than O(V^2); edges come out grouped by
    destination, sources ascending, as the OCaml generator adds them."""
    ops = [rng.choice(OPS) for _ in range(n)]
    edges = []
    log_q = math.log(1.0 - edge_prob)
    for j in range(1, n):
        i = -1
        while True:
            i += 1 + int(math.log(1.0 - rng.random()) / log_q)
            if i >= j:
                break
            edges.append((i, j))
    return _named(prefix, ops, edges)


def layered(rng, layers, width, fanin, prefix="v"):
    """``layers`` ranks of ``width`` vertices; each vertex past the first
    rank draws ``min(fanin, width)`` distinct predecessors from the rank
    before it."""
    ops = [rng.choice(OPS) for _ in range(layers * width)]
    edges = []
    for layer in range(1, layers):
        prev = range((layer - 1) * width, layer * width)
        for v in range(layer * width, (layer + 1) * width):
            for u in rng.sample(prev, min(fanin, width)):
                edges.append((u, v))
    return _named(prefix, ops, edges)


def sized_dag(rng, n, kind):
    """One DAG of about ``n`` vertices: ``kind`` 0 is layered (width 15,
    fan-in 3), 1 is random with an expected out-degree of 3.  The shape
    is fixed; the seed only moves edges and ops."""
    if kind == 0:
        return layered(rng, max(2, round(n / 15)), 15, 3)
    return random_dag(rng, n, min(0.5, 6.0 / n))


class Request:
    """One request line plus what the checker needs to judge its reply:
    the graph (None for a named design, resolved from the CLI), the
    resources and, for renamed repeats, the graph it was renamed from."""

    __slots__ = ("rid", "line", "graph", "design", "resources", "effort",
                 "renamed_from", "key")

    def __init__(self, rid, graph, design, resources, effort, key,
                 order=None, renamed_from=None):
        self.rid = rid
        self.graph = graph
        self.design = design
        self.resources = resources
        self.effort = effort
        self.renamed_from = renamed_from
        self.key = key
        body = {"id": rid}
        if graph is not None:
            body["dfg"] = graph.dfg(order)
        else:
            body["design"] = design
        body["resources"] = resources
        body["effort"] = effort
        body["schedule"] = True
        self.line = (json.dumps(body, separators=(",", ":")) + "\n").encode()


class Workload:
    """A generated workload: ``prime`` requests (sent during set-up),
    ``stream`` (the timed, looped request sequence) and ``batch`` (the
    fixed file fed to ``softsched batch``)."""

    def __init__(self, name, prime, stream, batch, loops, rounds):
        self.name = name
        # The serve driver stops only after whole rounds of this many
        # requests and reports medians over rounds, so each round must
        # hold the same mix.
        self.rounds = rounds
        self.prime = prime
        self.stream = stream
        self.batch = batch
        # Whether the serve driver may wrap around the stream (False
        # for cold_sched: a repeat would be a cache hit).
        self.loops = loops

    def shape(self):
        reqs = self.prime + self.stream
        sizes = sorted(len(r.graph.names) for r in reqs if r.graph)
        edges = sorted(len(r.graph.edges) for r in reqs if r.graph)

        def q(xs):
            if not xs:
                return None
            return [xs[0], xs[len(xs) // 4], xs[len(xs) // 2],
                    xs[3 * len(xs) // 4], xs[-1]]

        return {
            "requests": len(self.stream),
            "prime": len(self.prime),
            "batch": len(self.batch),
            "vertices_q": q(sizes),
            "edges_q": q(edges),
            "distinct_keys": len({r.key for r in reqs}),
            "cache_capacity": CACHE_CAPACITY,
            "race_share": round(
                sum(r.effort == "race" for r in self.stream)
                / max(1, len(self.stream)), 3),
            "renamed_share": round(
                sum(r.renamed_from is not None for r in self.stream)
                / max(1, len(self.stream)), 3),
        }


def _ladder(rng, lo, hi, count):
    """``count`` (size, kind) pairs: sizes spread evenly over [lo, hi],
    each size once layered (kind 0) and once random (kind 1), order
    shuffled.  The mix is fixed; only its order depends on the seed."""
    sizes = [lo + (hi - lo) * i // max(1, count // 2 - 1)
             for i in range(count // 2)]
    pairs = [(n, kind) for n in sizes for kind in (0, 1)]
    rng.shuffle(pairs)
    return pairs


def cold_sched(seed, n_stream, n_batch, ladder):
    """Distinct 200..600-vertex DAGs, half layered and half random, fast
    effort: every request is a cache miss, so the kernel dominates.  Each
    ``ladder`` requests (a round) hold every size once per kind.  The
    batch file is the stream's first ``n_batch`` requests."""
    rng = random.Random(seed * 7919 + 1)
    pairs = []
    while len(pairs) < n_stream:
        pairs += _ladder(rng, 200, 600, ladder)
    reqs = [Request("c%d" % i, sized_dag(rng, n, kind), "inline", FIG3[0],
                    "fast", key=("c", i))
            for i, (n, kind) in enumerate(pairs[:n_stream])]
    return Workload("cold_sched", [], reqs, reqs[:n_batch], loops=False,
                    rounds=ladder)


def warm_inline(seed, working_set, n_stream, n_batch, rounds):
    """A working set of inline DAGs (150..250 vertices), primed during
    set-up, then requested over and over with shuffled vertex
    declarations; every fourth repeat also renames every vertex."""
    rng = random.Random(seed * 7919 + 2)
    base = [sized_dag(rng, n, kind)
            for n, kind in _ladder(rng, 150, 250, working_set)]
    prime = [Request("p%d" % i, g, "inline", FIG3[0], "fast", key=("w", i))
             for i, g in enumerate(base)]

    def repeats(tag, count):
        out = []
        for k in range(count):
            i = rng.randrange(working_set)
            g = base[i]
            renamed = None
            if k % 4 == 3:
                renamed, g = g, g.renamed("r%d_" % k)
            order = list(g.names)
            rng.shuffle(order)
            out.append(Request("%s%d" % (tag, k), g, "inline", FIG3[0],
                               "fast", key=("w", i), order=order,
                               renamed_from=renamed))
        return out

    stream = repeats("w", n_stream)
    batch = prime + repeats("b", n_batch)
    return Workload("warm_inline", prime, stream, batch, loops=True,
                    rounds=rounds)


RACE_CAPACITY = 24
ZIPF_S = 1.4


def race_probe(seed, count, n_inline=96):
    """The race layer's stream: a Zipf-skewed (exponent 1.4) sequence
    over the suite designs x the three Figure 3 configurations plus
    small inline DAGs (30..120 vertices).  One request in five races the
    engine portfolio on a suite design (a race on a 100-vertex inline
    DAG takes seconds, on a suite design well under one).  Distinct keys
    outnumber its 24-entry cache, so hits, inserts and evictions
    interleave.  The seed draws the inline graphs' structure only; the
    popularity ranks and the order come from a fixed generator."""
    rng = random.Random(seed * 7919 + 3)
    order = random.Random(0x5EED)
    named = [(None, d, FIG3[c]) for c in range(3) for d in SUITE]
    inline = [(sized_dag(rng, n, kind), "inline", FIG3[i % 3])
              for i, (n, kind) in enumerate(_ladder(order, 30, 120, n_inline))]
    # One named design then four inline DAGs per rank group.
    ranked = []
    for r in range(len(named)):
        ranked += [named[r]] + inline[4 * r:4 * r + 4]
    ranked += inline[4 * len(named):]

    def zipf(items):
        return items, [(r + 1) ** -ZIPF_S for r in range(len(items))]

    fast, race = zipf(ranked), zipf(named)
    out = []
    for k in range(count):
        # Blocks of 20 requests with exactly 4 races each.
        if k % 20 == 0:
            efforts = ["race"] * 4 + ["fast"] * 16
            order.shuffle(efforts)
        effort = efforts[k % 20]
        g, design, res = order.choices(*(race if effort == "race"
                                         else fast))[0]
        out.append(Request("m%d" % k, g, design, res, effort,
                           key=(design, id(g), res, effort)))
    return out
