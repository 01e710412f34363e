"""End-to-end behavior guarantees, one test per numbered criterion.

Each test prints one "criterion N: PASS ..." line (visible with -s or -rP)
so a run reads as a checklist.  These tests are statistical at fixed seeds:
every threshold below was chosen once, up front, and the seeds are not
tuned to the thresholds.
"""
from __future__ import annotations

import math
import time

import pytest

from incdfs.adfs import ADFS1, ADFS2
from incdfs.bench import fit_exponent, make_algorithm, predict_stick
from incdfs.core import (
    ROOT,
    Counters,
    DfsTree,
    Graph,
    is_valid_dfs_tree,
    static_dfs,
    stick_profile,
)
from incdfs.generators import (
    gen_gnm,
    gen_worstcase_adfs1,
    gen_worstcase_fdfs,
    gen_worstcase_sdfs3,
)
from incdfs.sdfs import SDFS, SDFSInt
from incdfs.sdfs2 import Sdfs2State
from incdfs.streaming import StreamState
from oracles import offline_scc


def _full_m(n: int, mode: str) -> int:
    return n * (n - 1) if mode == "directed" else n * (n - 1) // 2


def _run(algo, edges):
    for u, v in edges:
        algo.insert(u, v)
    return algo


# -- criterion 1: validity after every insertion ---------------------------

ALGO_MODES = [
    ("sdfs", "undirected"), ("sdfs-int", "undirected"), ("adfs1", "undirected"),
    ("adfs2", "undirected"), ("sdfs2", "undirected"), ("sdfs3", "undirected"),
    ("sdfs", "directed"), ("sdfs-int", "directed"), ("fdfs", "directed"),
    ("sdfs2", "directed"), ("sdfs3", "directed"),
    ("sdfs", "dag"), ("sdfs-int", "dag"), ("fdfs", "dag"),
    ("sdfs2", "dag"), ("sdfs3", "dag"),
]


def _replay_validated(algo, edges):
    """Insert every edge and assert validity after each one.

    A full oracle pass runs whenever the tree state differs from the last
    validated snapshot.  When the four tree arrays compare equal to that
    snapshot the tree is bit-identical to a state already proven valid, so
    only the freshly inserted edge can break it; the cached preorder
    intervals decide that in O(1) (an edge is fine unless it jumps
    left-to-right across disjoint intervals).
    """
    directed = algo.directed
    cache = None
    start = end = None
    for u, v in edges:
        algo.insert(u, v)
        t = algo.tree
        if (
            cache is not None
            and t.parent == cache[0]
            and t.children == cache[1]
            and t.depth == cache[2]
            and t.dfn == cache[3]
            and t.dfn_valid == cache[4]
        ):
            if directed:
                ok = start[v] <= end[u]
            else:
                ok = start[v] <= end[u] and start[u] <= end[v]
            assert ok, f"{algo.name}: edge ({u},{v}) violates tree at m={algo.graph.m}"
        else:
            rep = is_valid_dfs_tree(algo.graph, t)
            assert rep.ok, f"{algo.name}: {rep.reason} at m={algo.graph.m}"
            _, start, end = t.intervals()
            cache = (
                list(t.parent),
                [list(c) for c in t.children],
                list(t.depth),
                list(t.dfn),
                t.dfn_valid,
            )
    rep = is_valid_dfs_tree(algo.graph, algo.tree)
    assert rep.ok, f"{algo.name}: {rep.reason} at final m={algo.graph.m}"


def test_criterion_01_validity_after_every_insertion():
    n = 100
    t0 = time.perf_counter()
    for name, mode in ALGO_MODES:
        for seed in range(20):
            seq = gen_gnm(n, _full_m(n, mode), seed=seed, mode=mode)
            _replay_validated(make_algorithm(name, n, mode), seq.edges)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"validity suite took {elapsed:.1f}s (budget 300s)"
    print(
        f"criterion 1: PASS ({len(ALGO_MODES)} algorithm/mode pairs x 20 seeds, "
        f"valid after every insertion, {elapsed:.1f}s < 300s)"
    )


# -- criterion 2: quadratic totals at full density -------------------------


def test_criterion_02_quadratic_totals_full_density():
    sizes = (128, 256, 512, 1024)
    seeds = range(5)
    totals = {name: {n: [] for n in sizes} for name in ("adfs1", "adfs2", "sdfs2")}
    for n in sizes:
        for seed in seeds:
            seq = gen_gnm(n, _full_m(n, "undirected"), seed=seed)
            for name in totals:
                algo = _run(make_algorithm(name, n, "undirected"), seq.edges)
                totals[name][n].append(algo.counters.edges_processed)
    slopes = {}
    for name, by_n in totals.items():
        series = [(n, sum(v) / len(v)) for n, v in by_n.items()]
        slope, _ = fit_exponent(series)
        slopes[name] = slope
        assert 1.85 <= slope <= 2.15, f"{name} slope {slope:.3f} outside [1.85, 2.15]"
    for n in sizes:
        for s, (a1, a2) in enumerate(zip(totals["adfs1"][n], totals["adfs2"][n])):
            assert abs(a1 - a2) <= 0.1 * max(a1, a2), (
                f"adfs1/adfs2 totals differ >10% at n={n} seed={s}: {a1} vs {a2}"
            )
    fmt = ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
    print(f"criterion 2: PASS (log-log slopes {fmt}; twins within 10% per run)")


# -- criteria 3 and 4: ADFS1 per-insertion cost ----------------------------


def test_criterion_03_and_04_adfs1_per_insertion_cost():
    n = 1000
    full = _full_m(n, "undirected")
    lo, hi = int(2 * n * math.log(n)), int(n * math.sqrt(n))
    tail = n * n // 10
    seq = gen_gnm(n, full, seed=0)
    algo = ADFS1(n)
    marks = {}
    count = 0
    for u, v in seq.edges:
        algo.insert(u, v)
        count += 1
        if count in (lo, hi, full - tail):
            marks[count] = algo.counters.edges_processed
    mid_mean = (marks[hi] - marks[lo]) / (hi - lo)
    tail_mean = (algo.counters.edges_processed - marks[full - tail]) / tail
    assert 1.0 <= mid_mean <= 3.0, f"mid-density mean delta {mid_mean:.3f}"
    print(f"criterion 3: PASS (mean delta {mid_mean:.3f} in [1.0, 3.0] "
          f"over insertions {lo}..{hi})")
    assert tail_mean <= 1.2, f"tail mean delta {tail_mean:.4f} > 1.2"
    print(f"criterion 4: PASS (mean delta {tail_mean:.4f} <= 1.2 over last {tail} insertions)")


# -- criteria 5, 6: stick length vs prediction -----------------------------


def _static_sticks_at(n, checkpoints, seed, mode="undirected"):
    """l_s of a fresh DFS of the accumulated graph at each checkpoint."""
    seq = gen_gnm(n, checkpoints[-1], seed=seed, mode=mode)
    g = Graph(n, directed=mode != "undirected")
    it = iter(seq.edges)
    count = 0
    out = []
    for target in checkpoints:
        while count < target:
            u, v = next(it)
            g.add_edge(u, v)
            count += 1
        out.append(stick_profile(static_dfs(g)).l_s)
    return out


def test_criterion_05_stick_length_matches_prediction():
    n, c = 1000, 1.0
    full = _full_m(n, "undirected")
    # n^2/2 exceeds the undirected edge universe; the densest checkpoint is
    # therefore the full sequence
    cps = [int(3 * n * math.log(n)), int(8 * n * math.log(n)),
           n * n // 4, min(n * n // 2, full)]
    preds = [predict_stick(n, m, c) for m in cps]
    sums = [0.0] * len(cps)
    for seed in range(20):
        for j, ls in enumerate(_static_sticks_at(n, cps, seed)):
            sums[j] += ls
    means = [s / 20 for s in sums]
    for m, mean, pred in zip(cps, means, preds):
        assert mean >= pred, f"mean l_s {mean:.1f} < predicted {pred} at m={m}"
    for m, mean, pred in zip(cps[-2:], means[-2:], preds[-2:]):
        assert abs(mean - pred) <= 0.05 * pred, (
            f"mean l_s {mean:.1f} not within 5% of {pred} at m={m}"
        )
    pairs = ", ".join(f"m={m}: {mean:.1f}>={p}" for m, mean, p in zip(cps, means, preds))
    print(f"criterion 5: PASS ({pairs}; densest two within 5%)")


def test_criterion_06_bristle_shrinks_with_density():
    n = 1024
    cps = [int((2 ** i) * n * math.log(n)) for i in range(1, 6)]
    bounds = [n // (2 ** (i - 1)) for i in range(1, 6)]
    hits = [0] * len(cps)
    trials = 20
    for seed in range(trials):
        for j, ls in enumerate(_static_sticks_at(n, cps, seed)):
            if n - ls <= bounds[j]:
                hits[j] += 1
    for j, (m, bound, hit) in enumerate(zip(cps, bounds, hits)):
        assert hit >= math.ceil(0.95 * trials), (
            f"bristle <= {bound} in only {hit}/{trials} trials at m={m}"
        )
    print(f"criterion 6: PASS (bristle within n/2^(i-1) in {min(hits)}..{max(hits)} "
          f"of {trials} trials per density step)")


# -- criterion 7: DAG sequences never grow a stick -------------------------


def test_criterion_07_dag_stick_stays_zero():
    n = 1000
    full = _full_m(n, "dag")
    for seed in range(10):
        seq = gen_gnm(n, full, seed=seed, mode="dag")
        algo = make_algorithm("fdfs", n, "dag")
        count = 0
        for u, v in seq.edges:
            algo.insert(u, v)
            count += 1
            if count % 2000 == 0 or count == full:
                ls = stick_profile(algo.tree).l_s
                assert ls == 0, f"stick {ls} != 0 at m={count} seed={seed}"
    print("criterion 7: PASS (l_s = 0 at every sampled point, 10 DAG runs n=1000)")


# -- criterion 8: FDFS quadratic on random DAGs ----------------------------


def test_criterion_08_fdfs_quadratic_on_dags():
    sizes = (128, 256, 512)
    series = []
    for n in sizes:
        tot = []
        for seed in range(5):
            seq = gen_gnm(n, _full_m(n, "dag"), seed=seed, mode="dag")
            algo = _run(make_algorithm("fdfs", n, "dag"), seq.edges)
            tot.append(algo.counters.edges_processed)
        series.append((n, sum(tot) / len(tot)))
    slope, _ = fit_exponent(series)
    assert 1.8 <= slope <= 2.2, f"fdfs slope {slope:.3f} outside [1.8, 2.2]"
    print(f"criterion 8: PASS (fdfs log-log slope {slope:.3f} in [1.8, 2.2])")


# -- criterion 9: adversarial families are tight ---------------------------


def test_criterion_09a_adfs_adversarial_family():
    ratios = []
    last_total = 0
    for n in (64, 128, 256):
        seq = gen_worstcase_adfs1(n, 4 * n)
        m = len(seq.edges)
        a1 = ADFS1(n, adversarial_order=True)
        _run(a1, seq.edges)
        c1 = a1.counters.edges_processed
        a2 = _run(ADFS2(n), seq.edges)
        c2 = a2.counters.edges_processed
        assert c1 > last_total, f"adversarial totals not increasing at n={n}"
        last_total = c1
        assert c1 >= 3 * c2, f"adfs2 only {c1 / c2:.2f}x cheaper at n={n}"
        ratios.append(c1 / (n ** 1.5 * m ** 0.5))
    assert max(ratios) <= 4 * min(ratios), f"normalized band too wide: {ratios}"
    print(f"criterion 9a: PASS (total/(n^1.5 m^0.5) in "
          f"[{min(ratios):.4f}, {max(ratios):.4f}], adfs2 >= 3x cheaper)")


def test_criterion_09b_fdfs_adversarial_family():
    ratios = []
    for n in (32, 64, 128):
        seq = gen_worstcase_fdfs(n, n * n // 8)
        m = len(seq.edges)
        algo = _run(make_algorithm("fdfs", n, "dag"), seq.edges)
        ratios.append(algo.counters.edges_processed / (m * n))
    assert max(ratios) <= 4 * min(ratios), f"normalized band too wide: {ratios}"
    print(f"criterion 9b: PASS (total/(m n) in [{min(ratios):.4f}, {max(ratios):.4f}])")


def test_criterion_09c_sdfs3_adversarial_family():
    ratios = []
    for k in (8, 12, 16):
        m = 2 * k * k
        seq = gen_worstcase_sdfs3(m // 2, m)
        algo = _run(make_algorithm("sdfs3", seq.n, "undirected"), seq.edges)
        ratios.append(algo.counters.edges_processed / len(seq.edges) ** 2)
    assert max(ratios) <= 4 * min(ratios), f"normalized band too wide: {ratios}"
    print(f"criterion 9c: PASS (total/m^2 in [{min(ratios):.4f}, {max(ratios):.4f}])")


# -- criterion 10: naive baselines behave as expected ----------------------


def test_criterion_10_naive_baselines():
    quad = []
    for n in (32, 64, 128):
        full = _full_m(n, "undirected")
        seq = gen_gnm(n, full, seed=0)
        algo = _run(SDFS(n), seq.edges)
        ratio = algo.counters.edges_processed / full ** 2
        assert 0.2 <= ratio <= 1.0, f"sdfs total/m^2 = {ratio:.3f} at n={n}"
        quad.append(ratio)
    n = 128
    full = _full_m(n, "undirected")
    threshold = int(n * math.log(n))
    norms = []
    for seed in range(3):
        seq = gen_gnm(n, full, seed=seed)
        algo = SDFSInt(n)
        count = 0
        at_threshold = None
        for u, v in seq.edges:
            algo.insert(u, v)
            count += 1
            if count == threshold:
                at_threshold = algo.counters.edges_processed
        mean = (algo.counters.edges_processed - at_threshold) / (full - threshold)
        norms.append(mean / (n * math.log(n)))
    assert all(0.3 <= x <= 3.0 for x in norms), f"sdfs-int delta/(n ln n) = {norms}"
    print(f"criterion 10: PASS (sdfs total/m^2 in [{min(quad):.3f}, {max(quad):.3f}]; "
          f"sdfs-int delta/(n ln n) in [{min(norms):.2f}, {max(norms):.2f}])")


# -- criteria 11, 12: streaming ---------------------------------------------


def test_criterion_11_streaming_space_bound():
    n = 1000
    bound = 4 * n * math.log(n)
    peaks = []
    for seed in range(10):
        seq = gen_gnm(n, _full_m(n, "undirected"), seed=seed)
        st = StreamState(n)
        st.stream_sequence(seq.edges)
        assert st.peak_retained <= bound, (
            f"peak {st.peak_retained} > 4 n ln n = {bound:.0f} at seed={seed}"
        )
        peaks.append(st.peak_retained)
    print(f"criterion 11: PASS (peak retained {min(peaks)}..{max(peaks)} "
          f"<= {bound:.0f} over 10 full-density streams)")


def test_criterion_12_streaming_scc_matches_offline():
    runs = 0
    for n in (60, 120, 180, 240, 300):
        for density in ("sparse", "quadratic"):
            m = int(2 * n * math.log(n)) if density == "sparse" else n * n // 4
            for seed in range(5):
                seq = gen_gnm(n, m, seed=seed, mode="directed")
                st = StreamState(n, directed=True)
                st.stream_sequence(seq.edges)
                offline = offline_scc(n, seq.edges)
                assert st.scc_query() == offline, f"SCC mismatch n={n} m={m} seed={seed}"
                runs += 1
    assert runs == 50
    print("criterion 12: PASS (scc_query matches offline oracle on 50 streams)")


# -- criterion 13: bristle-only twin equality -------------------------------


def _fork_graph(g):
    h = Graph.__new__(Graph)
    h.n = g.n
    h.directed = g.directed
    h.m = g.m
    h._out_adj = None if g._out_adj is None else [list(a) for a in g._out_adj]
    h._eindex = dict(g._eindex)
    h._eu = g._eu.copy()
    h._ev = g._ev.copy()
    return h


def _fork_tree(t):
    s = DfsTree(t.n)
    s.parent = list(t.parent)
    s.children = [list(c) for c in t.children]
    s.depth = list(t.depth)
    s.dfn = list(t.dfn)
    s.dfn_valid = t.dfn_valid
    return s


def _fork_counters(c):
    d = Counters()
    d.edges_processed = c.edges_processed
    d.rebuilds = c.rebuilds
    d.insertions = c.insertions
    d.vertices_remarked = c.vertices_remarked
    return d


def _contract_stick(tree, stick):
    """Remove the stick proper from a forked tree, hanging the bristle root
    directly below the pseudo root."""
    broot = tree.children[stick[-1]][0]
    for q in stick:
        tree.parent[q] = -2
        tree.children[q] = []
    tree.children[ROOT] = [broot]
    tree.parent[broot] = ROOT
    tree.refresh_depths(broot)
    tree.dfn_valid = False


def _twin_adfs1(algo):
    twin = ADFS1.__new__(ADFS1)
    twin.graph = _fork_graph(algo.graph)
    twin.counters = _fork_counters(algo.counters)
    twin.tree = _fork_tree(algo.tree)
    twin.adversarial_order = algo.adversarial_order
    twin.pending = list(algo.pending)
    twin._back = [list(l) for l in algo._back]
    twin.discarded_edges = algo.discarded_edges
    _contract_stick(twin.tree, algo.stick)
    twin.on_stick = bytearray(algo.n + 1)
    twin.stick = []
    twin.bristle_root = algo.bristle_root
    return twin


def _twin_sdfs2(algo):
    twin = Sdfs2State.__new__(Sdfs2State)
    twin.graph = _fork_graph(algo.graph)
    twin.counters = _fork_counters(algo.counters)
    twin.tree = _fork_tree(algo.tree)
    twin.discarded_edges = algo.discarded_edges
    twin.bristle_root = algo.bristle_root
    twin.stored = [list(l) for l in algo.stored]
    twin._stored_in = twin.stored
    twin.prune_hook = None
    _contract_stick(twin.tree, algo.stick)
    twin.on_stick = bytearray(algo.n + 1)
    twin.stick = []
    return twin


def _twin_equality_run(make, fork, seed, n, m):
    seq = gen_gnm(n, m, seed=seed)
    algo = make(n)
    compared = 0
    for u, v in seq.edges:
        stick = algo.stick
        if stick and not (
            algo.tree.depth[u] <= len(stick) or algo.tree.depth[v] <= len(stick)
        ):
            twin = fork(algo)
            b_full = algo.counters.edges_processed
            b_twin = twin.counters.edges_processed
            algo.insert(u, v)
            twin.insert(u, v)
            d_full = algo.counters.edges_processed - b_full
            d_twin = twin.counters.edges_processed - b_twin
            assert d_full == d_twin, (
                f"scan counts diverge on ({u},{v}) at m={algo.graph.m}: "
                f"{d_full} vs {d_twin} (seed={seed})"
            )
            compared += 1
        else:
            algo.insert(u, v)
    return compared


def test_criterion_13_bristle_only_twin_equality():
    n = 200
    m = int(2.5 * n * math.log(n))
    total = 0
    for seed in range(5):
        total += _twin_equality_run(ADFS1, _twin_adfs1, seed, n, m)
        total += _twin_equality_run(Sdfs2State, _twin_sdfs2, seed, n, m)
    assert total > 1000, f"too few bristle-internal insertions compared: {total}"
    print(f"criterion 13: PASS ({total} bristle-internal insertions scanned "
          f"identically on full and stick-contracted states)")


# -- criterion 14: the paper's result 2 in this repo's charge models -------


def test_criterion_14_sdfs2_against_adfs2_at_full_density():
    # adfs2 charges one unit per settled edge (each insertion and each pool
    # pop); sdfs2 one per insertion plus, per bristle rebuild, every edge
    # among the bristles.  Past m0 = 4 n ln n the two charge about the same
    # per insertion; sdfs2's sparse phase makes its total larger.
    n = 256
    m0 = math.ceil(4 * n * math.log(n))
    assert m0 == 5679
    for seed in (0, 1):
        edges = gen_gnm(n, _full_m(n, "undirected"), seed=seed).edges
        total, tail = {}, {}
        for name in ("adfs2", "sdfs2"):
            algo = _run(make_algorithm(name, n, "undirected"), edges[:m0])
            at_m0 = algo.counters.edges_processed
            total[name] = _run(algo, edges[m0:]).counters.edges_processed
            tail[name] = (total[name] - at_m0) / (len(edges) - m0)
        assert total["adfs2"] <= n * n, f"adfs2 total {total['adfs2']} > n^2 (seed={seed})"
        assert total["sdfs2"] <= 4 * n * n, f"sdfs2 total {total['sdfs2']} > 4 n^2 (seed={seed})"
        ratio = tail["sdfs2"] / tail["adfs2"]
        assert ratio <= 1.25, f"sdfs2/adfs2 per insertion past m0 = {ratio:.3f} (seed={seed})"
        print(
            f"criterion 14: PASS (seed {seed}: totals/n^2 adfs2="
            f"{total['adfs2'] / n**2:.3f} sdfs2={total['sdfs2'] / n**2:.3f}; "
            f"per insertion past m0 sdfs2/adfs2={ratio:.3f})"
        )
