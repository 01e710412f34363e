"""Replay machinery of the incdfs benchmark.

A workload names input sequences, the maintainers that replay them, the
streams that consume them and how often the read side is checked.  One
round generates every sequence, builds every maintainer (set-up), then
replays and streams everything once.  Untraced rounds time whole loops
only; traced rounds also time every public call and record spans, so
their numbers never feed the end-to-end metrics.

Every output is checked: the validity oracle at each checkpoint, scipy's
strongly connected components at each SCC query, the retained-edge bound
of random streams, the golden counters at the golden seed, and identical
counts across repeats, rounds and the traced/untraced pair.
"""
from __future__ import annotations

import gc
import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from speed import TICK_S, ScaledClock

# the benchmark measures the checkout it sits in, never an installed copy
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "incdfs" / "__init__.py").is_file():
    raise ImportError(f"{SRC / 'incdfs'} not found: run from the root of a checkout")
sys.path.insert(0, str(SRC))

from incdfs import (  # noqa: E402
    ADFS1,
    Counters,
    Graph,
    StreamState,
    classify_edge,
    compute_pc,
    gen_gnm,
    gen_worstcase_adfs1,
    gen_worstcase_fdfs,
    gen_worstcase_sdfs3,
    is_valid_dfs_tree,
    lca,
    make_algorithm,
    static_dfs,
    stick_profile,
)

GOLDEN_SEED = 1
PROBE_PAIRS = 20000  # inserted pairs fed to the per-call core probes
MAX_CHUNK = 32  # insertions timed as one interval at most

GENERATORS = {
    "gnm": lambda s, seed: gen_gnm(s.n, s.m, seed=seed + 1_000_003 * s.salt, mode=s.mode),
    "worstcase_adfs1": lambda s, seed: gen_worstcase_adfs1(s.n, s.m),
    "worstcase_fdfs": lambda s, seed: gen_worstcase_fdfs(s.n, s.m),
    "worstcase_sdfs3": lambda s, seed: gen_worstcase_sdfs3(s.n, s.m),
}


@dataclass(frozen=True)
class Seq:
    """One input sequence.  Random sequences of one workload differ by
    their salt; the adversarial families ignore the seed."""

    name: str
    gen: str
    n: int
    m: int
    mode: str
    salt: int = 0


@dataclass(frozen=True)
class Replay:
    """One maintainer replaying one sequence, `repeat` times from scratch.

    tail > 0 loads all but the last `tail` edges as one batch during
    set-up and times only the remaining single insertions; the full
    rebuild baselines cannot replay a long sequence edge by edge.
    """

    algo: str
    seq: str
    repeat: int = 1
    tail: int = 0
    adversarial: bool = False

    @property
    def key(self):
        return f"{self.algo}{'.adv' if self.adversarial else ''}/{self.seq}"


@dataclass(frozen=True)
class Stream:
    """One StreamState over a sequence; directed streams answer
    scc_query every scc_every edges and at the end."""

    seq: str
    scc_every: int = 0

    @property
    def key(self):
        return f"stream/{self.seq}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sequences: tuple
    replays: tuple
    streams: tuple
    check_every: int


def build(algo, n, mode, adversarial=False):
    """Construct a maintainer through the public API."""
    if adversarial:
        return ADFS1(n, adversarial_order=True)
    return make_algorithm(algo, n, mode)


def tree_hash(tree):
    return hashlib.sha256(repr((tree.parent, tree.children)).encode()).hexdigest()[:16]


def replay_record(algo):
    c = algo.counters
    prof = stick_profile(algo.tree)
    return {
        "insertions": c.insertions,
        "edges_processed": c.edges_processed,
        "rebuilds": c.rebuilds,
        "vertices_remarked": c.vertices_remarked,
        "l_s": prof.l_s,
        "bristle": prof.bristle,
        "tree": tree_hash(algo.tree),
    }


def stream_record(ss):
    return {
        "streamed": ss.streamed,
        "dropped": ss.dropped,
        "duplicates": ss.duplicates,
        "peak_retained": ss.peak_retained,
        "retained": ss.retained_edges,
        "tree": tree_hash(ss.core.tree),
    }


def scc_partition_matches(n, edges, comps):
    """Compare scc_query's partition with scipy's strong components of
    the streamed edges (vertex 0 carries no edge and is dropped)."""
    members = sorted(v for c in comps for v in c)
    if members != list(range(1, n + 1)):
        return False
    eu = np.fromiter((u for u, _ in edges), dtype=np.int64, count=len(edges))
    ev = np.fromiter((v for _, v in edges), dtype=np.int64, count=len(edges))
    g = csr_matrix((np.ones(len(edges), dtype=np.int8), (eu, ev)), shape=(n + 1, n + 1))
    _, labels = connected_components(g, directed=True, connection="strong")
    labels = labels[1:]
    ours = np.empty(n, dtype=np.int64)
    for i, c in enumerate(comps):
        ours[np.asarray(c) - 1] = i
    pairs = np.unique(ours * (n + 1) + labels)
    return len(comps) == len(np.unique(labels)) == len(pairs)


class Tracer:
    """Spans (id, name, start_ns, end_ns, parent) kept in memory, plus
    per-call durations held as lists of nanoseconds."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self._stack = []

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, time.perf_counter_ns(), 0, parent])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][3] = time.perf_counter_ns()
        self._stack.pop()

    def calls_of(self, name):
        return self.calls.setdefault(name, [])

    def timed(self, name, fn, *args, **kw):
        sid = self.open(name)
        try:
            return fn(*args, **kw)
        finally:
            self.close(sid)
            s = self.spans[sid]
            self.calls_of(name).append(s[3] - s[2])


@dataclass
class Verdicts:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass
class RoundResult:
    clock: ScaledClock = field(default_factory=ScaledClock)
    inserts: dict = field(default_factory=dict)  # algo -> accepted insertions
    work: dict = field(default_factory=dict)  # algo -> edges_processed in timed loops
    streamed: int = 0
    records: dict = field(default_factory=dict)
    streams: list = field(default_factory=list)  # (key, n, peak_retained, dropped, streamed)
    finals: dict = field(default_factory=dict)  # traced only: seq -> (graph, tree, edges)


def _checkpoint(algo, clock, verdicts, key, tracer):
    clock.tick()
    if tracer is None:
        t0 = time.perf_counter()
        report = is_valid_dfs_tree(algo.graph, algo.tree)
        stick_profile(algo.tree)
        if not algo.directed:
            compute_pc(algo.graph, algo.tree)
        clock.add("check", time.perf_counter() - t0)
    else:
        sid = tracer.open("checkpoint")
        report = tracer.timed("core.is_valid_dfs_tree", is_valid_dfs_tree, algo.graph, algo.tree)
        tracer.timed("core.stick_profile", stick_profile, algo.tree)
        if not algo.directed:
            tracer.timed("bench.compute_pc", compute_pc, algo.graph, algo.tree)
        tracer.close(sid)
        s = tracer.spans[sid]
        clock.add("check", (s[3] - s[2]) / 1e9)
    verdicts.check(report.ok, f"{key}: invalid tree ({report.reason})")


class Pacer:
    """Cuts edges into chunks timed one at a time.  Chunk sizes adapt so
    that each chunk takes about TICK_S, letting calibration ticks fall
    between them however slow a single insertion is; MAX_CHUNK bounds the
    damage when insertions turn expensive mid-sequence.  A chunk also ends
    at every multiple of `every` and at the end, flagged for a checkpoint."""

    def __init__(self, edges, every):
        self.edges = edges
        self.every = max(1, every)
        self._size = 1
        self._last = 0.0

    def took(self, seconds):
        self._last = seconds

    def __iter__(self):
        edges, every, n = self.edges, self.every, len(self.edges)
        pos = 0
        while pos < n:
            stop = min((pos // every + 1) * every, n)
            end = min(pos + self._size, stop)
            yield edges[pos:end], end == stop
            pos = end
            grow = TICK_S / self._last if self._last > 0 else 2.0
            self._size = max(1, min(MAX_CHUNK, 2 * self._size, int(self._size * grow)))


def _replay(algo, name, edges, every, clock, verdicts, key, tracer):
    """Insert edges chunk by chunk, timing each chunk, with a checkpoint
    after every `every` insertions and after the last."""
    ins = algo.insert
    bucket = f"insert:{name}"
    pacer = Pacer(edges, every)
    if tracer is None:
        for chunk, check in pacer:
            clock.tick()
            t0 = time.perf_counter()
            for u, v in chunk:
                ins(u, v)
            dt = time.perf_counter() - t0
            pacer.took(dt)
            clock.add(bucket, dt)
            if check:
                _checkpoint(algo, clock, verdicts, key, tracer)
        return
    absorb = tracer.calls_of(f"{name}.absorb")
    repair = tracer.calls_of(f"{name}.repair")
    counters = algo.counters
    ns = time.perf_counter_ns
    for chunk, check in pacer:
        clock.tick()
        t0 = time.perf_counter()
        for u, v in chunk:
            rb = counters.rebuilds
            c0 = ns()
            ins(u, v)
            d = ns() - c0
            (absorb if counters.rebuilds == rb else repair).append(d)
        dt = time.perf_counter() - t0
        pacer.took(dt)
        clock.add(bucket, dt)
        if check:
            _checkpoint(algo, clock, verdicts, key, tracer)


def _stream(ss, edges, spec, clock, verdicts, tracer):
    se = ss.stream_edge
    done = 0
    if tracer is not None:
        keep = tracer.calls_of("streaming.keep")
        drop = tracer.calls_of("streaming.drop")
        ns = time.perf_counter_ns
    pacer = Pacer(edges, spec.scc_every or len(edges))
    for chunk, query in pacer:
        clock.tick()
        t0 = time.perf_counter()
        if tracer is None:
            for u, v in chunk:
                se(u, v)
        else:
            for u, v in chunk:
                c0 = ns()
                kept = se(u, v)
                (keep if kept else drop).append(ns() - c0)
        dt = time.perf_counter() - t0
        pacer.took(dt)
        clock.add("stream", dt)
        done += len(chunk)
        if spec.scc_every and query:
            clock.tick()
            t0 = time.perf_counter()
            if tracer is None:
                comps = ss.scc_query()
            else:
                comps = tracer.timed("streaming.scc_query", ss.scc_query)
            clock.add("scc", time.perf_counter() - t0)
            verdicts.check(
                scc_partition_matches(ss.n, edges[:done], comps),
                f"{spec.key}: scc_query differs from scipy after {done} edges",
            )


def _setup(wl, seed, res, tracer):
    """Generate every sequence and build every maintainer and stream."""
    clock = res.clock
    seqs = {}
    for s in wl.sequences:
        t0 = time.perf_counter()
        if tracer:
            seqs[s.name] = tracer.timed(f"generators.{s.gen}", GENERATORS[s.gen], s, seed)
        else:
            seqs[s.name] = GENERATORS[s.gen](s, seed)
        clock.add("gen", time.perf_counter() - t0)
    modes = {s.name: s.mode for s in wl.sequences}
    jobs = []
    for r in wl.replays:
        seq = seqs[r.seq]
        for i in range(r.repeat):
            algo = build(r.algo, seq.n, modes[r.seq], r.adversarial)
            if r.tail:
                algo.insert_batch(seq.edges[:-r.tail])
            jobs.append((r, i, algo))
    streams = [(st, StreamState(seqs[st.seq].n, directed=modes[st.seq] != "undirected"))
               for st in wl.streams]
    return seqs, jobs, streams


def run_round(wl: Workload, seed: int, verdicts: Verdicts, tracer: Tracer | None = None):
    """Set up, replay and stream the workload once."""
    res = RoundResult()
    clock = res.clock
    gc.collect()
    random_seq = {s.name: s.gen == "gnm" for s in wl.sequences}
    rid = tracer.open("round") if tracer else None
    sid = tracer.open("setup") if tracer else None
    clock.tick()
    t0 = time.perf_counter()
    seqs, jobs, streams = _setup(wl, seed, res, tracer)
    clock.add("setup", time.perf_counter() - t0)
    if tracer:
        tracer.close(sid)
    gc.collect()
    gc.freeze()
    try:
        for r, i, algo in jobs:
            edges = seqs[r.seq].edges
            timed = edges[-r.tail:] if r.tail else edges
            ins0 = algo.counters.insertions
            work0 = algo.counters.edges_processed
            jid = tracer.open(f"replay:{r.key}") if tracer else None
            try:
                # repeats are checked at their end and against the first
                _replay(algo, r.algo, timed, wl.check_every if i == 0 else len(timed),
                        clock, verdicts, r.key, tracer)
            except Exception as exc:  # a replay must not raise on these inputs
                traceback.print_exc()
                verdicts.check(False, f"{r.key}: raised {exc!r}")
                continue
            finally:
                if tracer:
                    tracer.close(jid)
            res.inserts[r.algo] = res.inserts.get(r.algo, 0) + algo.counters.insertions - ins0
            res.work[r.algo] = res.work.get(r.algo, 0) + algo.counters.edges_processed - work0
            rec = replay_record(algo)
            if r.key in res.records:
                verdicts.check(rec == res.records[r.key], f"{r.key}: repeats differ")
            else:
                res.records[r.key] = rec
                if tracer and not r.tail and r.seq not in res.finals:
                    res.finals[r.seq] = (algo.graph, algo.tree, edges)
        for st, ss in streams:
            seq = seqs[st.seq]
            jid = tracer.open(f"stream:{st.seq}") if tracer else None
            try:
                _stream(ss, seq.edges, st, clock, verdicts, tracer)
            except Exception as exc:
                traceback.print_exc()
                verdicts.check(False, f"{st.key}: raised {exc!r}")
                continue
            finally:
                if tracer:
                    tracer.close(jid)
            res.streamed += ss.streamed
            res.records[st.key] = stream_record(ss)
            res.streams.append((st.key, seq.n, ss.peak_retained, ss.dropped, ss.streamed))
            if random_seq[st.seq]:  # the O(n log n) space bound is for random streams
                bound = 4 * seq.n * math.log(seq.n)
                verdicts.check(ss.peak_retained <= bound,
                               f"{st.key}: peak_retained {ss.peak_retained} > 4 n ln n = {bound:.0f}")
    finally:
        gc.unfreeze()
        clock.finish()
    if tracer:
        tracer.close(rid)
    return res


def _per_op_ns(fn, items):
    t0 = time.perf_counter_ns()
    for it in items:
        fn(*it)
    return time.perf_counter_ns() - t0


def core_probes(res: RoundResult, tracer: Tracer):
    """Time core primitives on each sequence's final graph and tree, fed
    with the inserted pairs.  Returns per-operation figures."""
    out = {}
    tot = {k: 0 for k in ("add", "has", "lca", "cls", "sd", "sdw", "sdi", "sdiw",
                          "dfn", "ord", "ops", "pairs", "trees")}
    for name, (graph, tree, edges) in res.finals.items():
        pid = tracer.open(f"probes:{name}")
        fresh = Graph(graph.n, directed=graph.directed)
        tot["add"] += _per_op_ns(fresh.add_edge, edges)
        tot["has"] += _per_op_ns(fresh.has_edge, edges)
        tot["ops"] += len(edges)
        pairs = [(tree, u, v) for u, v in edges[:PROBE_PAIRS]]
        tot["lca"] += _per_op_ns(lca, pairs)
        tot["cls"] += _per_op_ns(classify_edge, [p + (graph.directed,) for p in pairs])
        tot["pairs"] += len(pairs)
        for interrupt, k in ((False, "sd"), (True, "sdi")):
            c = Counters()
            tot[k] += _per_op_ns(static_dfs, [(graph, 0, None, c, interrupt)])
            tot[k + "w"] += c.edges_processed
        tot["dfn"] += _per_op_ns(tree.recompute_dfn, [()])
        tot["ord"] += _per_op_ns(tree.order_times, [()])
        tot["trees"] += 1
        tracer.close(pid)
    out["core.add_edge_ns"] = tot["add"] / tot["ops"]
    out["core.has_edge_ns"] = tot["has"] / tot["ops"]
    out["core.lca_ns"] = tot["lca"] / tot["pairs"]
    out["core.classify_edge_ns"] = tot["cls"] / tot["pairs"]
    out["core.static_dfs.ns_per_work"] = tot["sd"] / tot["sdw"]
    out["core.static_dfs_int.ns_per_work"] = tot["sdi"] / tot["sdiw"]
    out["core.recompute_dfn_us"] = tot["dfn"] / tot["trees"] / 1e3
    out["core.order_times_us"] = tot["ord"] / tot["trees"] / 1e3
    return out
