#!/usr/bin/env python3
"""softsched benchmark: seeded workloads driven through the real
``softsched`` binary, every reply checked independently.

    python3 perfbench/run.py --workload cold_sched --seed 1 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout: the program is built from
source with dune first.  ``--trace 0`` measures the end-to-end metrics
(serve and batch drivers); ``--trace 1`` measures the per-layer metrics
(an in-process replay through the library's public calls, plus the
daemon's own queue-wait histograms).  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
perfbench/NOTES.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import atexit
import itertools
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import time
from collections import deque

import checker
import workloads as W

BUILD_DIR = ".bench_build"
BIN = os.path.join(BUILD_DIR, "default", "bin", "softsched.exe")
TRACER = os.path.join(BUILD_DIR, "default", "perfbench", "tracer",
                      "tracer.exe")
RUN_DIR = ".bench_run"
SPAWN_TRIALS = 9
PRIME_TRIALS = 3
SLICES = 3

# Per-workload sizes: the timed stream, the serve driver's round (the
# unit its medians are taken over), the batch file, the traced replay
# and, on cold_sched, the race probe the traced run also replays.  The
# stream only needs to outlast the serve phase; cold_sched must never
# wrap around (a repeat would be a cache hit).
SIZES = {
    "cold_sched": {"stream": 720, "round": 36, "batch": 36, "trace": 36,
                   "race_probe": 100},
    "warm_inline": {"working_set": 32, "stream": 2000, "round": 1000,
                    "batch": 800, "trace": 400},
}
SMOKE = {
    "cold_sched": {"stream": 12, "round": 4, "batch": 4, "trace": 4,
                   "race_probe": 20},
    "warm_inline": {"working_set": 6, "stream": 60, "round": 20,
                    "batch": 30, "trace": 30},
}


def declared(section):
    """(name, unit) of each metric BENCHMARK.json declares in
    ``section``."""
    with open("BENCHMARK.json") as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[section]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def jobs():
    return len(os.sched_getaffinity(0))


def make_workload(name, seed, sizes):
    s = sizes[name]
    if name == "cold_sched":
        return W.cold_sched(seed, s["stream"], s["batch"], s["round"])
    return W.warm_inline(seed, s["working_set"], s["stream"], s["batch"],
                         s["round"])


def quantile(xs, q):
    """Linear-interpolated quantile of a non-empty sorted list."""
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- build ----------------------------------------------------------------

def require_source_tree():
    for need in ("dune-project", os.path.join("bin", "dune"),
                 os.path.join("lib", "serve", "dune")):
        if not os.path.exists(need):
            fail("no softsched source tree here (missing %s); run from the "
                 "root of a checkout" % need)


def build(trace):
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    targets = ["./bin/softsched.exe"]
    if trace:
        targets.append("./perfbench/tracer/tracer.exe")
    r = subprocess.run(["dune", "build", "--root", ".", "--build-dir",
                        BUILD_DIR, "--profile", "release"] + targets,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if r.returncode != 0:
        fail("build failed:\n" + r.stderr.decode(errors="replace")[-4000:])


# -- the daemon -----------------------------------------------------------

class Daemon:
    """One ``softsched serve`` subprocess on a Unix socket in the run
    directory (a relative path, so long checkout paths do not matter).
    Daemons still running at exit (an error path) are stopped then."""

    live = []

    def __init__(self, tag):
        self.path = os.path.join(RUN_DIR, tag + ".sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.err = open(os.path.join(RUN_DIR, tag + ".err"), "wb")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [BIN, "serve", "--socket", self.path, "--jobs", str(jobs()),
             "--cache-size", str(W.CACHE_CAPACITY)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.err)
        Daemon.live.append(self)
        self.sock = None
        self.rfile = None

    def connect(self, timeout=30.0):
        """Connect and get the first request (a stats probe) answered;
        returns the seconds from spawn to that reply."""
        limit = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                fail("daemon exited with %d at start-up" % self.proc.returncode)
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.path)
                break
            except OSError:
                s.close()
                if time.perf_counter() > limit:
                    fail("daemon did not listen within %.0fs" % timeout)
                time.sleep(0.001)
        self.sock = s
        self.rfile = s.makefile("rb", buffering=1 << 16)
        self.stats()
        return time.perf_counter() - self.t_spawn

    def stats(self):
        self.sock.sendall(b'{"admin":"stats","id":"stats"}\n')
        line = self.rfile.readline()
        if not line:
            fail("daemon closed the connection on a stats probe")
        return json.loads(line)["stats"]

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self):
        Daemon.live.remove(self)
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


class Replies:
    """Reply lines reduced to what checking needs: the per-request
    prefix is verified on the fly, and the result core (from
    ``"degraded"`` to the end) is interned, so thousands of warm hits
    cost one parse and one check per distinct (core, graph)."""

    def __init__(self):
        self.index = {}  # result core -> k
        self.cores = []  # k -> result core
        self.parsed = {}  # k -> parsed reply
        self.rows = []  # (request, k or None, error text or None)

    def add(self, req, line):
        if not line:
            self.rows.append((req, None, "missing reply"))
            return
        if not line.startswith(b'{"id":"%s",' % req.rid.encode()):
            self.rows.append((req, None, "reply id does not echo %s" % req.rid))
            return
        at = line.find(b'"degraded"')
        if at < 0 or b'"status":"ok"' not in line[:at]:
            self.rows.append((req, None, line[:300].decode(errors="replace")))
            return
        core = line[at:]
        k = self.index.get(core)
        if k is None:
            k = self.index[core] = len(self.cores)
            self.cores.append(core)
        self.rows.append((req, k, None))

    def reply(self, k):
        r = self.parsed.get(k)
        if r is None:
            r = self.parsed[k] = json.loads(b"{" + self.cores[k])
        return r


def pipelined(daemon, reqs, depth, duration, sink, stamps=None, rounds=1):
    """Closed loop over one connection: ``depth`` requests outstanding,
    a new one written as each reply is read, until ``reqs`` runs out or
    ``duration`` seconds pass and the number sent is a whole multiple of
    ``rounds`` (then the outstanding ones drain).  ``stamps`` collects
    (write time, read time) per request.  Returns the start time."""
    it = iter(reqs)
    sent = [0]
    out = deque()
    t0 = time.perf_counter()
    stop_at = t0 + duration
    sock, rfile = daemon.sock, daemon.rfile

    def send():
        r = next(it, None)
        if r is not None:
            sent[0] += 1
            out.append((r, time.perf_counter()))
            sock.sendall(r.line)

    for _ in range(depth):
        send()
    while out:
        line = rfile.readline()
        t = time.perf_counter()
        r, ts = out.popleft()
        sink.add(r, line)
        if stamps is not None:
            stamps.append((ts, t))
        if not line:
            for r, _ in out:
                sink.add(r, b"")
            out.clear()
            break
        if t < stop_at or sent[0] % rounds:
            send()
    return t0


def per_round(t0, stamps, rows, size):
    """Split a serve slice into rounds of ``size`` requests; returns one
    (ok replies/s, p50 ms, p95 ms, latencies) per whole round."""
    out = []
    start = t0
    for k in range(0, len(stamps) - size + 1, size):
        chunk = stamps[k:k + size]
        end = chunk[-1][1]
        ok = sum(1 for _, c, _ in rows[k:k + size] if c is not None)
        lat = sorted(1000.0 * (tr - ts) for ts, tr in chunk)
        out.append((ok / (end - start), quantile(lat, 0.50),
                    quantile(lat, 0.95), lat))
        start = end
    return out


def timed_stream(wl):
    return itertools.cycle(wl.stream) if wl.loops else iter(wl.stream)


def setup(wl, depth):
    """Set-up time: spawn to the first answered request, median over
    SPAWN_TRIALS daemons, plus the priming pass, median over the last
    PRIME_TRIALS of them; the last daemon is kept.  Returns (daemon,
    set-up seconds, priming replies)."""
    ready, prime = [], []
    for k in range(SPAWN_TRIALS):
        d = Daemon("serve%d" % k)
        ready.append(d.connect())
        primed = Replies()
        if wl.prime and k >= SPAWN_TRIALS - PRIME_TRIALS:
            t0 = pipelined(d, wl.prime, depth, 1e9, primed)
            prime.append(time.perf_counter() - t0)
        if k < SPAWN_TRIALS - 1:
            d.stop()
    med = statistics.median
    return d, med(ready) + (med(prime) if prime else 0.0), primed


def write_batch_file(wl):
    path = os.path.join(RUN_DIR, "batch.ndjson")
    with open(path, "wb") as f:
        for r in wl.batch:
            f.write(r.line)
    return path


def batch_once(wl, path):
    """Feed the batch file to one ``softsched batch`` process, bytes in
    to bytes out; returns (requests/s, reply lines)."""
    with open(path, "rb") as inp:
        t0 = time.perf_counter()
        p = subprocess.run(
            [BIN, "batch", "--jobs", str(jobs()), "--cache-size",
             str(W.CACHE_CAPACITY)],
            stdin=inp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
    if p.returncode != 0:
        fail("softsched batch exited with %d" % p.returncode)
    return len(wl.batch) / dt, p.stdout.split(b"\n")


# -- checking -------------------------------------------------------------

class Judge:
    """Checks replies against their requests' graphs, memoised per
    (distinct reply core, graph), and tallies the outcomes: "ok",
    "renamed_hit" (the known defect: a cache hit on a renamed isomorphic
    graph answers with the first graph's vertex names; the reply is
    otherwise a valid schedule of the request) or "failed"."""

    def __init__(self, designs):
        self.designs = designs  # name -> (symbols, delays, edges)
        self.memo = {}
        self.refs = {}
        self.tally = {"ok": 0, "renamed_hit": 0, "failed": 0}
        self.failures = []

    def check(self, replies, k, g, design, spec):
        mk = (id(replies), k, id(g), design, spec)
        why = self.memo.get(mk, 0)
        if why == 0:
            reply = replies.reply(k)
            if g is None:
                syms, delays, edges = self.designs[design]
                ref = checker.RefGraph(checker.ops_of_dot(syms, delays, reply),
                                       edges, delays)
            else:
                ref = self.refs.get(id(g))
                if ref is None:
                    ref = self.refs[id(g)] = checker.RefGraph(g.ops, g.edges)
            why = self.memo[mk] = checker.check(
                reply, ref, checker.parse_resources(spec))
        return why

    def judge(self, replies):
        for req, k, why in replies.rows:
            if k is not None:
                why = self.check(replies, k, req.graph, req.design,
                                 req.resources)
                if (why is not None and req.renamed_from is not None
                        and self.check(replies, k, req.renamed_from,
                                       req.design, req.resources) is None):
                    self.tally["renamed_hit"] += 1
                    continue
            if why is None:
                self.tally["ok"] += 1
            else:
                self.tally["failed"] += 1
                if len(self.failures) < 5:
                    self.failures.append("%s: %s" % (req.rid, why))


def load_designs(reqs):
    names = sorted({r.design for r in reqs if r.graph is None})
    out = {}
    for n in names:
        p = subprocess.run([BIN, "dot", n], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL)
        if p.returncode != 0:
            fail("softsched dot %s exited with %d" % (n, p.returncode))
        out[n] = checker.graph_of_dot(p.stdout.decode())
    return out


# -- the two modes --------------------------------------------------------

def end_to_end(wl, seconds):
    """The serve and batch drivers, interleaved: SLICES times, a serve
    slice (whole rounds on the one daemon, whose cache carries over)
    then one batch run.  Each figure is a median over rounds or batch
    runs spread across the whole run, so a burst of load from outside
    moves one sample, not the figure."""
    depth = jobs()
    judge = Judge(load_designs(wl.stream + wl.batch))
    batch_path = write_batch_file(wl)
    daemon, setup_s, primed = setup(wl, depth)
    timed, batch = Replies(), Replies()
    it = timed_stream(wl)
    rounds, batch_rates = [], []
    try:
        for _ in range(SLICES):
            stamps, first = [], len(timed.rows)
            t0 = pipelined(daemon, it, depth, 0.75 * seconds / SLICES, timed,
                           stamps, wl.rounds)
            rounds += per_round(t0, stamps, timed.rows[first:], wl.rounds)
            rate, lines = batch_once(wl, batch_path)
            batch_rates.append(rate)
            if not batch.rows:
                for r, line in zip(wl.batch, lines):
                    batch.add(r, line)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    for rs in (primed, timed, batch):
        judge.judge(rs)
    tally = judge.tally
    diam = [batch.reply(k)["diameter"] for _, k, _ in batch.rows
            if k is not None]
    sent = sum(tally.values())
    med = statistics.median
    lat_ms = sorted(x for r in rounds for x in r[3])
    m = {
        "throughput_rps": (med(r[0] for r in rounds), "1/s"),
        "latency_p50_ms": (med(r[1] for r in rounds), "ms"),
        "latency_p95_ms": (med(r[2] for r in rounds), "ms"),
        "batch_rps": (med(batch_rates), "1/s"),
        "ok_share": (tally["ok"] / sent, "share"),
        "csteps_mean": (statistics.mean(diam) if diam else float("nan"),
                        "csteps"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "latency_samples": len(lat_ms),
        "rounds": len(rounds),
        "failed_share": 1.0 - tally["ok"] / sent,
        "renamed_hit_replies": tally["renamed_hit"],
        "failed_replies": tally["failed"],
    }
    info["pooled_latency_p50_ms"] = quantile(lat_ms, 0.50)
    info["pooled_latency_p95_ms"] = quantile(lat_ms, 0.95)
    if len(lat_ms) >= 1000:
        info["latency_p99_ms"] = quantile(lat_ms, 0.99)
    return m, info, sent, tally["failed"], judge.failures


def trace_replay(reqs, capacity, prime, tag):
    """Run tracer.exe on ``reqs`` (the first ``prime`` answered but not
    measured); returns (its result object, the reply lines).  The
    per-request spans are left in RUN_DIR/<tag>.spans."""
    req_path = os.path.join(RUN_DIR, tag + ".ndjson")
    out_path = os.path.join(RUN_DIR, tag + ".replies")
    spans_path = os.path.join(RUN_DIR, tag + ".spans")
    with open(req_path, "wb") as f:
        for r in reqs:
            f.write(r.line)
    p = subprocess.run([TRACER, req_path, out_path, spans_path,
                        str(capacity), str(prime)],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if p.returncode != 0:
        fail("tracer exited with %d:\n%s" % (
            p.returncode, p.stderr.decode(errors="replace")[-3000:]))
    res = json.loads(p.stdout.decode().strip().splitlines()[-1])
    replies = Replies()
    with open(out_path, "rb") as f:
        for r, line in zip(reqs, f.read().split(b"\n")):
            replies.add(r, line)
    return res, replies


def layers(wl, seed, seconds, sizes):
    """Per-layer profile: the in-process traced replay (tracer.exe) on a
    fixed prefix of the stream, plus the daemon's own queue-wait
    histograms after a timed serve phase.  On cold_sched the traced run
    also replays the race probe, the only source of the race layer."""
    depth = jobs()
    size = sizes[wl.name]
    probe = (W.race_probe(seed, size["race_probe"])
             if "race_probe" in size else [])
    judge = Judge(load_designs(wl.stream + wl.batch + probe))
    daemon, _, primed = setup(wl, depth)
    timed = Replies()
    try:
        pipelined(daemon, timed_stream(wl), depth, 0.3 * seconds, timed,
                  rounds=wl.rounds)
        qw = daemon.stats()["latency_ms"]["queue_wait"]
    finally:
        daemon.stop()
    replay = wl.prime + wl.stream[:size["trace"]]
    res, traced = trace_replay(replay, W.CACHE_CAPACITY, len(wl.prime),
                               "trace")
    checked = [primed, timed, traced]
    errors = res["errors"]
    got = {k: (v, u) for k, (v, u) in res["metrics"].items()}
    info = {"largest_layer": max(res["layers_s"], key=res["layers_s"].get)}
    info.update(res["info"])
    if probe:
        pres, preplies = trace_replay(probe, W.RACE_CAPACITY, 0, "probe")
        checked.append(preplies)
        errors += pres["errors"]
        got.update({k: (v, u) for k, (v, u) in pres["metrics"].items()
                    if k.startswith("race.") or k == "split.race_share"})
        info["race_probe.largest_layer"] = max(pres["layers_s"],
                                               key=pres["layers_s"].get)
        info["race_probe.cache_hit_ratio"] = pres["metrics"][
            "cache.hit_ratio"][0]
        info["race_probe.cache_evictions"] = pres["metrics"][
            "cache.evictions"][0]
    for rs in checked:
        judge.judge(rs)
    tally = judge.tally
    got["pool.queue_wait_ms_p50"] = (qw["p50"], "ms")
    got["pool.queue_wait_ms_p95"] = (qw["p95"], "ms")
    # Every declared layer metric, zero where the layer did not run on
    # this workload (no race on warm_inline, no kernel on warm_inline's
    # hits); anything else (an engine outside the declared portfolio) is
    # printed but not reported.
    m = {name: got.pop(name, (0.0, unit))
         for name, unit in declared("per_layer")}
    info.update({"renamed_hit_replies": tally["renamed_hit"],
                 "failed_replies": tally["failed"]})
    info.update({k: v for k, (v, _) in got.items()})
    sent = sum(tally.values())
    return m, info, sent, tally["failed"], judge.failures + errors


def stop_daemons():
    for d in list(Daemon.live):
        d.stop()


def main():
    atexit.register(stop_daemons)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: every path in seconds")
    ap.add_argument("--selftest", action="store_true",
                    help="checker rejection tests, then a smoke run of "
                    "every workload in both modes")
    ap.add_argument("--shape", action="store_true",
                    help="print the workload's shape and exit")
    a = ap.parse_args()
    if a.selftest:
        import selftest
        sys.exit(selftest.main())
    if a.workload is None:
        ap.error("--workload is required")
    sizes = SMOKE if a.smoke else SIZES
    if not a.shape:
        require_source_tree()
    wl = make_workload(a.workload, a.seed, sizes)
    if a.shape:
        print(json.dumps(wl.shape()))
        return
    build(a.trace)
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    if a.trace:
        m, info, sent, failed, why = layers(wl, a.seed, a.seconds, sizes)
    else:
        m, info, sent, failed, why = end_to_end(wl, a.seconds)
    for k in sorted(m):
        print("%-34s %14.6g %s" % (k, m[k][0], m[k][1]))
    for k in sorted(info):
        print("%-34s %14s" % (k, info[k]))
    for w in why:
        log("perfbench: check failed: " + w)
    print(json.dumps({
        "correct": failed == 0 and not why,
        "attempted": sent,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }))


if __name__ == "__main__":
    main()
