import math

import numpy as np
import pytest
from oracles import reference_gen_worstcase_adfs1

import incdfs.generators as generators
from incdfs.generators import (
    GeneratorError,
    UpdateSequence,
    batches,
    dump_sequence,
    gen_gnm,
    gen_gnp,
    gen_worstcase_adfs1,
    gen_worstcase_fdfs,
    gen_worstcase_sdfs3,
    load_dataset,
)


def is_simple(seq):
    seen = set()
    for u, v in seq.edges:
        if u == v:
            return False
        key = (u, v) if seq.directed else (min(u, v), max(u, v))
        if key in seen:
            return False
        seen.add(key)
    return True


def is_acyclic(seq):
    # Kahn's algorithm over the final graph
    indeg = [0] * (seq.n + 1)
    adj = {v: [] for v in range(1, seq.n + 1)}
    for u, v in seq.edges:
        adj[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(1, seq.n + 1) if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for w in adj[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == seq.n


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: gen_gnm(5.0, 3, seed=0), "n", id="gnm-n"),
    pytest.param(lambda: gen_gnm(5, 3.0, seed=0), "m", id="gnm-m"),
    pytest.param(lambda: gen_gnm(5, 3, seed=0.5), "seed", id="gnm-seed"),
    pytest.param(lambda: gen_gnp(5.0, 0.5, seed=0), "n", id="gnp-n"),
    pytest.param(lambda: gen_gnp(5, 0.5, seed=1.0), "seed", id="gnp-seed"),
    pytest.param(lambda: gen_worstcase_fdfs(6.0, 10), "n", id="fdfs-n"),
    pytest.param(lambda: gen_worstcase_fdfs(6, 10.0), "m", id="fdfs-m"),
    pytest.param(lambda: gen_worstcase_adfs1(64.0, 256), "n", id="adfs1-n"),
    pytest.param(lambda: gen_worstcase_adfs1(64, 256.0), "m", id="adfs1-m"),
    pytest.param(lambda: gen_worstcase_sdfs3(64.0, 128), "n", id="sdfs3-n"),
    pytest.param(lambda: gen_worstcase_sdfs3(64, 128.0), "m", id="sdfs3-m"),
])
def test_non_integer_size_or_seed_rejected(call, name):
    # not a TypeError from deep inside, and never a sequence with n == 5.0
    with pytest.raises(GeneratorError, match=f"^{name} must be an integer"):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: gen_gnm(np.int64(5), np.int32(3), seed=np.int64(0)), id="gnm"),
    pytest.param(lambda: gen_gnp(np.int32(5), 0.5, seed=np.int64(1)), id="gnp"),
    pytest.param(lambda: gen_worstcase_fdfs(np.int64(6), np.int64(10)), id="fdfs"),
    pytest.param(lambda: gen_worstcase_adfs1(np.int64(64), np.int64(256)), id="adfs1"),
    pytest.param(lambda: gen_worstcase_sdfs3(np.int64(64), np.int64(128)), id="sdfs3"),
])
def test_numpy_sizes_come_back_as_python_ints(call):
    seq = call()
    assert type(seq.n) is int
    assert not any(isinstance(x, np.integer) for x in seq.meta.values())


class TestGnm:
    def test_deterministic_per_seed(self):
        a = gen_gnm(40, 100, seed=7)
        b = gen_gnm(40, 100, seed=7)
        c = gen_gnm(40, 100, seed=8)
        assert a.edges == b.edges
        assert a.edges != c.edges

    @pytest.mark.parametrize("mode", ["undirected", "directed", "dag"])
    def test_simple_and_sized(self, mode):
        seq = gen_gnm(30, 120, seed=1, mode=mode)
        assert len(seq) == 120
        assert is_simple(seq)
        assert all(1 <= u <= 30 and 1 <= v <= 30 for u, v in seq.edges)

    def test_dag_mode_every_prefix_acyclic(self):
        seq = gen_gnm(25, 150, seed=3, mode="dag")
        assert seq.directed and seq.dag
        assert is_acyclic(seq)
        # acyclicity of the whole sequence implies it for every prefix

    def test_full_density(self):
        n = 12
        seq = gen_gnm(n, n * (n - 1) // 2, seed=0)
        assert len(seq) == n * (n - 1) // 2
        assert is_simple(seq)

    def test_out_of_range_m(self):
        with pytest.raises(GeneratorError):
            gen_gnm(10, 46, seed=0)

    def test_unknown_mode(self):
        with pytest.raises(GeneratorError, match="unknown mode 'bogus'"):
            gen_gnm(10, 5, seed=0, mode="bogus")

    @pytest.mark.parametrize("n, m, seed, mode", [
        (-3, 0, 0, "undirected"), (0, 0, 0, "undirected"),
        (-5, 0, 0, "directed"), (0, 0, 0, "dag"), (5, 3, -1, "undirected"),
    ])
    def test_bad_n_or_seed(self, n, m, seed, mode):
        with pytest.raises(GeneratorError, match="need n >= 1 and seed >= 0"):
            gen_gnm(n, m, seed=seed, mode=mode)

    def test_uniform_ish_coverage(self):
        # every edge of a small universe appears across enough seeds
        hits = set()
        for seed in range(40):
            hits.update(
                (min(u, v), max(u, v)) for u, v in gen_gnm(6, 5, seed=seed).edges
            )
        assert len(hits) == 15


class TestGnp:
    def test_determinism_and_simplicity(self):
        a = gen_gnp(50, 0.1, seed=5)
        b = gen_gnp(50, 0.1, seed=5)
        assert a.edges == b.edges
        assert is_simple(a)

    def test_extreme_probabilities(self):
        assert len(gen_gnp(20, 0.0, seed=1)) == 0
        assert len(gen_gnp(20, 1.0, seed=1)) == 190

    def test_expected_count_in_bounds(self):
        n, p = 80, 0.2
        universe = n * (n - 1) // 2
        sizes = [len(gen_gnp(n, p, seed=s)) for s in range(10)]
        mean = sum(sizes) / len(sizes)
        sigma = math.sqrt(universe * p * (1 - p))
        assert abs(mean - universe * p) < 4 * sigma

    def test_invalid_probability(self):
        with pytest.raises(GeneratorError):
            gen_gnp(10, 1.5, seed=0)

    @pytest.mark.parametrize("n, seed", [(-3, 0), (0, 0), (5, -1)])
    def test_bad_n_or_seed(self, n, seed):
        with pytest.raises(GeneratorError, match="need n >= 1 and seed >= 0"):
            gen_gnp(n, 0.5, seed=seed)


class TestWorstcaseFdfs:
    def test_structure(self):
        n, m = 16, 25
        seq = gen_worstcase_fdfs(n, m)
        h = n // 2
        assert seq.directed and seq.dag
        assert is_simple(seq) and is_acyclic(seq)
        # last n/2 insertions are the triggers (a_i, head-of-B)
        triggers = seq.edges[seq.meta["trigger_start"]:]
        assert triggers == [(i, h + 1) for i in range(1, h + 1)]
        # the fill stays inside B and respects index order (acyclic)
        fill = seq.edges[2 * (h - 1): seq.meta["trigger_start"]]
        assert len(fill) == m - h
        assert all(h + 1 <= u < v <= n for u, v in fill)

    def test_fill_is_densest_near_head(self):
        seq = gen_worstcase_fdfs(12, 14)
        fill = seq.edges[10: seq.meta["trigger_start"]]
        sources = [u for u, _ in fill]
        assert sources == sorted(sources)

    def test_determinism(self):
        assert gen_worstcase_fdfs(20, 40).edges == gen_worstcase_fdfs(20, 40).edges

    def test_infeasible_parameters(self):
        with pytest.raises(GeneratorError):
            gen_worstcase_fdfs(15, 30)  # odd n
        with pytest.raises(GeneratorError):
            gen_worstcase_fdfs(8, 3)  # m < n/2

    def test_fill_clamped_at_capacity(self):
        n = 8
        h = n // 2
        seq = gen_worstcase_fdfs(n, 1000)
        assert seq.meta["fill"] == h * (h - 1) // 2 - (h - 1)
        assert is_simple(seq) and is_acyclic(seq)


class TestWorstcaseAdfs1:
    def test_simple_and_deterministic(self):
        a = gen_worstcase_adfs1(64, 256)
        b = gen_worstcase_adfs1(64, 256)
        assert a.edges == b.edges
        assert not a.directed and not a.dag
        assert is_simple(a)
        assert all(1 <= u <= 64 and 1 <= v <= 64 for u, v in a.edges)

    def test_stage_layout(self):
        seq = gen_worstcase_adfs1(64, 256)
        k, n_s, p = seq.meta["k"], seq.meta["n_s"], seq.meta["p"]
        pool_lo, pool_hi = seq.meta["pool"]
        # the pool is the full heads-by-tail grid, right after the spine
        assert pool_hi - pool_lo == p * k
        heads = set(range(1, k + 1))
        assert all(u in heads for u, _ in seq.edges[pool_lo:pool_hi])
        # each stage ends with exactly two trigger edges (witness, trigger)
        ell = k * n_s + 1
        rungs = set(range(k + 1, k + 1 + ell))
        for s0, s1 in seq.meta["stages"]:
            witness, trigger = seq.edges[s1 - 2], seq.edges[s1 - 1]
            assert witness[0] in heads and witness[1] in rungs
            assert trigger[1] in rungs

    def test_adversarial_order_is_much_slower(self):
        from incdfs.adfs import ADFS1, ADFS2

        costs = {}
        for n in (64, 128):
            m = 4 * n
            seq = gen_worstcase_adfs1(n, m)
            a1, a2 = ADFS1(n, adversarial_order=True), ADFS2(n)
            for u, v in seq.edges:
                a1.insert(u, v)
                a2.insert(u, v)
            c1 = a1.counters.edges_processed
            c2 = a2.counters.edges_processed
            assert c1 >= 3 * c2
            costs[n] = c1 / (n ** 1.5 * m ** 0.5)
        ratio = max(costs.values()) / min(costs.values())
        assert ratio < 4.0

    def test_infeasible_parameters(self):
        with pytest.raises(GeneratorError, match="infeasible"):
            gen_worstcase_adfs1(4, 6)
        with pytest.raises(GeneratorError, match="infeasible"):
            gen_worstcase_adfs1(100, 50)  # m < n

    def test_length_theta_of_m(self):
        seq = gen_worstcase_adfs1(100, 400)
        assert 400 // 3 <= len(seq) <= 400

    # every size the repo builds, the infeasible ones, and a sparse/dense
    # spread of small sizes
    REFERENCE_GRID = [
        (64, 256), (128, 1024), (100, 400), (128, 512), (256, 1024),
        (4, 6), (100, 50), (16, 40), (30, 60),
        (12, 12), (12, 48), (29, 58), (29, 232), (46, 46), (46, 736),
        (80, 160), (97, 1552), (148, 592), (199, 398), (256, 2048), (256, 4096),
    ]

    @pytest.mark.parametrize("n,m", REFERENCE_GRID)
    def test_matches_reference_shortlist_replay(self, n, m):
        try:
            expected = reference_gen_worstcase_adfs1(n, m)
        except GeneratorError as err:
            with pytest.raises(GeneratorError, match="infeasible") as got:
                gen_worstcase_adfs1(n, m)
            assert str(got.value) == str(err)
            return
        seq = gen_worstcase_adfs1(n, m)
        assert seq.edges == expected.edges
        assert seq.meta == expected.meta

    @pytest.mark.parametrize("n,m", [(64, 256), (128, 1024)])
    def test_replays_once_per_drain_order(self, n, m, monkeypatch):
        orders = []
        replay = generators._replay_adfs

        def counting(n, edges, adversarial):
            orders.append(adversarial)
            return replay(n, edges, adversarial)

        monkeypatch.setattr(generators, "_replay_adfs", counting)
        seq = gen_worstcase_adfs1(n, m)
        assert sorted(orders) == [False, True]
        assert seq.meta["replay_cost_adversarial"] > seq.meta["replay_cost_default"]


class TestWorstcaseSdfs3:
    def test_simple_and_deterministic(self):
        a = gen_worstcase_sdfs3(64, 128)
        b = gen_worstcase_sdfs3(64, 128)
        assert a.edges == b.edges
        assert not a.directed
        assert is_simple(a)
        assert len(a) <= 128

    def test_fill_size_relations(self):
        seq = gen_worstcase_sdfs3(144, 288)
        meta = seq.meta
        assert meta["e_y"] - meta["e_z"] == meta["k"] + 1
        assert meta["e_x"] == meta["e_z"] + meta["e_y"]
        assert meta["q"] > meta["r"] + meta["k"]
        assert meta["p"] == meta["q"] + meta["r"] + meta["k"]

    def test_stage_grid_shape(self):
        seq = gen_worstcase_sdfs3(64, 128)
        k = seq.meta["k"]
        phases = seq.meta["phases"]
        assert len(phases) == k
        # every phase has k cross edges; all but the last add 2 transitions
        lengths = [s1 - s0 for s0, s1 in phases]
        assert lengths == [k + 2] * (k - 1) + [k]

    def test_quadratic_total_work_band(self):
        from incdfs.sdfs3 import Sdfs3State

        ratios = []
        for k in (8, 12):
            m = 2 * k * k
            seq = gen_worstcase_sdfs3(m // 2, m)
            algo = Sdfs3State(seq.n)
            for u, v in seq.edges:
                algo.insert(u, v)
            ratios.append(algo.counters.edges_processed / m ** 2)
        assert max(ratios) / min(ratios) < 4.0

    def test_infeasible_parameters(self):
        with pytest.raises(GeneratorError, match="infeasible"):
            gen_worstcase_sdfs3(5, 8)

    @pytest.mark.parametrize("n,m", [(5, 4), (5, 11)])
    def test_m_outside_n_to_n_choose_2_rejected(self, n, m):
        with pytest.raises(GeneratorError, match=r"infeasible: need n <= m <= n\(n-1\)/2"):
            gen_worstcase_sdfs3(n, m)


class TestDataset:
    def test_roundtrip_with_timestamps(self, tmp_path):
        p = tmp_path / "ds.txt"
        p.write_text(
            "# toy dataset\n"
            "10 20 5\n"
            "20 30 5\n"
            "10 30 7\n"
            "30 40 7\n"
            "20 30 9\n"  # duplicate, dropped
            "40 40 9\n"  # self loop, dropped
        )
        seq = load_dataset(p)
        assert seq.n == 4
        assert seq.edges == [(1, 2), (2, 3), (1, 3), (3, 4)]
        assert seq.batch_id == [0, 0, 1, 1]
        out = tmp_path / "dump.txt"
        dump_sequence(seq, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "4 4 0 0"
        assert lines[1] == "1 2 0"

    def test_timestamps_reorder_stably(self, tmp_path):
        p = tmp_path / "ds.txt"
        p.write_text("1 2 9\n3 4 2\n5 6 9\n")
        seq = load_dataset(p)
        # the t=2 edge comes first; equal-t edges keep file order
        assert seq.batch_id == [0, 1, 1]
        assert seq.edges[0] == (1, 2)  # relabeled 3->1, 4->2

    def test_no_timestamps_single_edge_batches(self, tmp_path):
        p = tmp_path / "ds.txt"
        p.write_text("5 6\n6 7\n")
        seq = load_dataset(p)
        assert seq.batch_id == [0, 1]
        assert [len(b) for b in batches(seq)] == [1, 1]

    def test_nan_timestamp_rejected(self, tmp_path):
        # NaN would break the stable sort: (4, 5) at t = 0 landed after t = 1
        p = tmp_path / "ds.txt"
        p.write_text("1 2 nan\n2 3 1\n3 4 nan\n4 5 0\n")
        with pytest.raises(GeneratorError, match=r"ds\.txt:1: NaN timestamp"):
            load_dataset(p)

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "ds.txt"
        p.write_text("1 2\nbogus line here extra\n")
        with pytest.raises(GeneratorError, match=":2"):
            load_dataset(p)

    @pytest.mark.parametrize("text,where", [
        ("1 2\n# note\n3 x\n", ":3: invalid literal"),
        ("1 2.5 7\n", ":1: invalid literal"),
    ])
    def test_non_integer_vertex_reports_position(self, tmp_path, text, where):
        p = tmp_path / "ds.txt"
        p.write_text(text)
        with pytest.raises(GeneratorError, match=where):
            load_dataset(p)

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n", "3 3\n"])
    def test_empty_dataset_rejected(self, tmp_path, text):
        p = tmp_path / "ds.txt"
        p.write_text(text)
        with pytest.raises(GeneratorError, match="empty dataset"):
            load_dataset(p)

    def test_mixed_timestamp_columns_rejected(self, tmp_path):
        # either column count first: the first line that differs is named
        p = tmp_path / "ds.txt"
        for text in ("1 2 4\n# note\n2 3\n", "1 2\n# note\n2 3 4\n"):
            p.write_text(text)
            with pytest.raises(GeneratorError) as err:
                load_dataset(p)
            assert str(err.value) == f"{p}:3: inconsistent timestamp columns"

    def test_directed_keeps_antiparallel_pairs(self, tmp_path):
        p = tmp_path / "ds.txt"
        p.write_text("1 2\n2 1\n")
        assert len(load_dataset(p, directed=True)) == 2
        assert len(load_dataset(p, directed=False)) == 1


class TestUpdateSequence:
    def test_dag_requires_directed(self):
        with pytest.raises(GeneratorError):
            UpdateSequence(3, False, True, [], "x")

    def test_batch_id_length_must_match(self):
        with pytest.raises(GeneratorError, match="batch_id length"):
            UpdateSequence(3, False, False, [(1, 2), (2, 3)], "x", batch_id=[0])

    def test_no_batch_ids_single_edge_batches(self):
        seq = UpdateSequence(3, False, False, [(1, 2), (2, 3)], "x")
        assert list(batches(seq)) == [[(1, 2)], [(2, 3)]]

    def test_batch_grouping(self):
        seq = UpdateSequence(
            5, False, False, [(1, 2), (2, 3), (3, 4)], "x", batch_id=[0, 0, 2]
        )
        assert [b for b in batches(seq)] == [[(1, 2), (2, 3)], [(3, 4)]]
