"""Independent reply checker: judges an ok reply's schedule against the
request's own graph, using nothing from the program under test.

Checks, in order:
  * every vertex appears exactly once, under its request name and with
    its op;
  * every edge (u, v) has step(v) >= step(u) + delay(u);
  * no more than count(class) ops of one class are busy in any step;
  * no two ops overlap on one unit, and a unit only runs its own class;
  * ``diameter`` equals the schedule length, max(step + delay).

The delay and class model restates the paper's (two-cycle multiplier,
single-cycle ALU and memory ops, zero-delay constants and ports).
"""

import re

_MUL = {"mul", "div", "mac", "msu"}
_ALU = {"add", "sub", "neg", "lt", "gt", "eq", "and", "or", "xor", "shl",
        "shr", "select", "mov"}
_MEM = {"ld", "st"}
_CLASSES = ("alu", "mul", "mem")


def op_class(op):
    if op in _ALU:
        return "alu"
    if op in _MUL:
        return "mul"
    if op in _MEM:
        return "mem"
    return None


def op_delay(op):
    if op in _MUL:
        return 2
    if op.startswith(("const(", "in(", "out(")):
        return 0
    return 1


def parse_resources(spec):
    """"2alu,2mul,1mem" -> {"alu": 2, "mul": 2, "mem": 1}."""
    counts = {c: 0 for c in _CLASSES}
    for part in spec.replace(" ", "").split(","):
        m = re.fullmatch(r"(\d+)(alu|mul|mem)", part)
        if not m:
            raise ValueError("bad resource spec %r" % spec)
        counts[m.group(2)] = int(m.group(1))
    return counts


def unit_classes(counts):
    """Thread index -> class: the threads are numbered class by class in
    alu, mul, mem order."""
    out = []
    for c in _CLASSES:
        out += [c] * counts[c]
    return out


class RefGraph:
    """What the checker needs of a request's graph: name -> op, name ->
    delay, and the edge list."""

    __slots__ = ("ops", "delays", "edges")

    def __init__(self, ops, edges, delays=None):
        self.ops = ops
        self.delays = delays or {v: op_delay(op) for v, op in ops.items()}
        self.edges = edges


def check(reply, graph, resources):
    """Return None when ``reply`` (a parsed ok reply) is a valid schedule
    of ``graph`` under ``resources`` (a parse_resources dict), else a
    one-line reason."""
    sched = reply.get("schedule")
    if not isinstance(sched, list):
        return "reply has no schedule"
    steps = {}
    units = {}
    for slot in sched:
        v = slot.get("v")
        if v not in graph.ops:
            return "unknown vertex %r" % (v,)
        if v in steps:
            return "vertex %r scheduled twice" % v
        if slot.get("op") != graph.ops[v]:
            return "vertex %r has op %r, request says %r" % (
                v, slot.get("op"), graph.ops[v])
        step = slot.get("step")
        if not isinstance(step, int) or step < 0:
            return "vertex %r has bad step %r" % (v, step)
        steps[v] = step
        if slot.get("unit") is not None:
            units[v] = slot["unit"]
    if len(steps) != len(graph.ops):
        return "%d of %d vertices scheduled" % (len(steps), len(graph.ops))
    delay = graph.delays
    for u, v in graph.edges:
        if steps[v] < steps[u] + delay[u]:
            return "edge %s->%s: step %d < %d + %d" % (
                u, v, steps[v], steps[u], delay[u])
    busy = {c: {} for c in _CLASSES}
    for v, s in steps.items():
        c = op_class(graph.ops[v])
        if c is None:
            continue
        per_step = busy[c]
        for t in range(s, s + delay[v]):
            n = per_step.get(t, 0) + 1
            if n > resources[c]:
                return "step %d: %d %s ops busy, %d available" % (
                    t, n, c, resources[c])
            per_step[t] = n
    kinds = unit_classes(resources)
    held = {}
    for v, k in units.items():
        if not isinstance(k, int) or not 0 <= k < len(kinds):
            return "vertex %r on unknown unit %r" % (v, k)
        if kinds[k] != op_class(graph.ops[v]):
            return "vertex %r (%s) on a %s unit" % (v, graph.ops[v], kinds[k])
        for t in range(steps[v], steps[v] + delay[v]):
            other = held.get((k, t))
            if other is not None:
                return "unit %d step %d runs both %s and %s" % (k, t, other, v)
            held[(k, t)] = v
    length = max((s + delay[v] for v, s in steps.items()), default=0)
    if reply.get("diameter") != length:
        return "diameter %r but schedule length %d" % (
            reply.get("diameter"), length)
    return None


# -- named suite designs, resolved through the CLI's DOT export ----------

_SYMBOL = {"+": "add", "-": "sub", "*": "mul", "/": "div", "~": "neg",
           "<": "lt", ">": "gt", "==": "eq", "&": "and", "|": "or",
           "^": "xor", "<<": "shl", ">>": "shr", "mac": "mac", "msu": "msu",
           "sel": "select", "mov": "mov", "ld": "ld", "st": "st", "wd": "wd"}

_NODE = re.compile(r'^\s*n(\d+) \[label="([^:"]+): ([^"]*) \((\d+)\)"')
_EDGE = re.compile(r"^\s*n(\d+) -> n(\d+)")


def graph_of_dot(text):
    """Rebuild a design's graph from ``softsched dot NAME``: node labels
    read ``name: symbol (delay)``.  Ports and constants print their
    name or value as the symbol; their op is pinned down by the reply's
    spelling (``in(x)``, ``out(y)``, ``const(3)``) and checked against
    the symbol and the zero delay here."""
    names, syms, delays, edges = {}, {}, {}, []
    for line in text.splitlines():
        m = _NODE.match(line)
        if m:
            i = int(m.group(1))
            names[i] = m.group(2)
            syms[names[i]] = m.group(3)
            delays[names[i]] = int(m.group(4))
            continue
        m = _EDGE.match(line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2))))
    return syms, delays, [(names[a], names[b]) for a, b in edges]


def ops_of_dot(syms, delays, reply):
    """Resolve the DOT symbols to op spellings, taking port and constant
    ops from the reply only when they agree with the symbol."""
    spelled = {s.get("v"): s.get("op") for s in reply.get("schedule", [])}
    ops = {}
    for v, sym in syms.items():
        if sym in _SYMBOL:
            ops[v] = _SYMBOL[sym]
            continue
        got = spelled.get(v)
        if (delays[v] == 0 and got in
                ("in(%s)" % sym, "out(%s)" % sym, "const(%s)" % sym)):
            ops[v] = got
        else:
            ops[v] = "<%s>" % sym
    return ops
