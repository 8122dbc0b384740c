"""Self-test of the benchmark: ``python3 perfbench/run.py --selftest``.

1. The reply checker accepts a hand-made valid schedule and rejects
   hand-corrupted copies of it: a precedence violation, an unknown
   vertex name, an over-subscribed class, a wrong diameter, and more.
2. The generators are deterministic per seed, and a second seed gives
   the same shape.
3. A smoke-sized run of every workload, end to end and traced, prints a
   result line with exactly the metrics BENCHMARK.json declares and
   passes its own checks.
"""

import copy
import json
import subprocess
import sys

import checker
import workloads as W

# a -> c, b -> c, c -> d, a -> e; two multipliers feeding an adder.
OPS = {"a": "mul", "b": "mul", "c": "add", "d": "sub", "e": "add",
       "x": "in(x)"}
EDGES = [("x", "a"), ("a", "c"), ("b", "c"), ("c", "d"), ("a", "e")]
RES = checker.parse_resources("1alu,2mul,1mem")
VALID = {
    "diameter": 5,
    "schedule": [
        {"v": "x", "op": "in(x)", "step": 0},
        {"v": "a", "op": "mul", "unit": 1, "step": 0},
        {"v": "b", "op": "mul", "unit": 2, "step": 0},
        {"v": "c", "op": "add", "unit": 0, "step": 2},
        {"v": "e", "op": "add", "unit": 0, "step": 3},
        {"v": "d", "op": "sub", "unit": 0, "step": 4},
    ],
}


def corrupt(name, edit):
    reply = copy.deepcopy(VALID)
    edit(reply)
    return name, reply


def slot(reply, v):
    return next(s for s in reply["schedule"] if s["v"] == v)


CORRUPTED = [
    corrupt("precedence violation",
            lambda r: slot(r, "c").update(step=1)),
    corrupt("unknown vertex name",
            lambda r: slot(r, "e").update(v="r_e")),
    corrupt("over-subscribed class",
            lambda r: (slot(r, "c").update(step=3, unit=None),
                       slot(r, "e").update(unit=None))),
    corrupt("wrong diameter", lambda r: r.update(diameter=6)),
    corrupt("vertex scheduled twice",
            lambda r: r["schedule"].append(dict(slot(r, "d")))),
    corrupt("missing vertex", lambda r: r["schedule"].pop()),
    corrupt("wrong op", lambda r: slot(r, "d").update(op="add")),
    corrupt("unit overlap", lambda r: slot(r, "b").update(unit=1)),
    corrupt("op on a unit of another class",
            lambda r: slot(r, "a").update(unit=0)),
]


def check_checker():
    ref = checker.RefGraph(OPS, EDGES)
    why = checker.check(VALID, ref, RES)
    assert why is None, "valid schedule rejected: %s" % why
    for name, reply in CORRUPTED:
        why = checker.check(reply, ref, RES)
        assert why is not None, "checker accepted: %s" % name
        print("  rejects %-30s (%s)" % (name, why))
    # The DOT route for named designs: ports and constants take their op
    # from the reply only when it agrees with the label.
    syms, delays, edges = checker.graph_of_dot(
        'digraph G {\n  n0 [label="x: x (0)"];\n'
        '  n1 [label="m: * (2)"];\n  n0 -> n1;\n}\n')
    reply = {"diameter": 2, "schedule": [
        {"v": "x", "op": "in(x)", "step": 0},
        {"v": "m", "op": "mul", "unit": 0, "step": 0}]}
    ref = checker.RefGraph(checker.ops_of_dot(syms, delays, reply), edges,
                           delays)
    res = checker.parse_resources("1mul")
    assert checker.check(reply, ref, res) is None
    reply["schedule"][0]["op"] = "const(1)"
    ref = checker.RefGraph(checker.ops_of_dot(syms, delays, reply), edges,
                           delays)
    assert checker.check(reply, ref, res) is not None


def check_generators(sizes):
    import run
    for name in sizes:
        a = run.make_workload(name, 7, sizes)
        b = run.make_workload(name, 7, sizes)
        c = run.make_workload(name, 8, sizes)
        lines = lambda w: [r.line for r in w.prime + w.stream + w.batch]
        assert lines(a) == lines(b), "%s: same seed, other inputs" % name
        assert lines(a) != lines(c), "%s: seed ignored" % name
        sa, sc = a.shape(), c.shape()
        for k in ("requests", "prime", "batch", "distinct_keys",
                  "cache_capacity", "race_share", "renamed_share"):
            assert sa[k] == sc[k], "%s: shape %s moves with the seed" % (
                name, k)
        print("  %s: deterministic, shape %s" % (name, json.dumps(sa)))
    a, b, c = (W.race_probe(seed, 40) for seed in (7, 7, 8))
    assert [r.line for r in a] == [r.line for r in b]
    assert [r.line for r in a] != [r.line for r in c]
    assert sum(r.effort == "race" for r in a) == 8
    print("  race probe: deterministic, 1 request in 5 races")


def smoke(name, trace, declared):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
         "3", "--seconds", "2", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    assert p.returncode == 0, "%s trace=%d exited %d:\n%s" % (
        name, trace, p.returncode, p.stderr[-3000:])
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True, "%s trace=%d: %s" % (name, trace,
                                                         p.stderr[-3000:])
    assert out["failed"] == 0 and out["attempted"] >= 1
    want = {n: u for n, u in declared}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want, "%s trace=%d: metrics %s, declared %s" % (
        name, trace, sorted(got), sorted(want))
    print("  %s trace=%d: %d requests checked" % (name, trace,
                                                  out["attempted"]))


def main():
    import run
    print("checker:")
    check_checker()
    print("generators:")
    check_generators(run.SMOKE)
    print("smoke runs:")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for name in sorted(run.SIZES):
            smoke(name, trace, run.declared(section))
    print("selftest ok")
    return 0
