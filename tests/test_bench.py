import io
import math

import pytest

import incdfs.bench as bench
from incdfs.bench import (
    ExperimentConfig,
    MetricRow,
    compute_pc,
    fit_exponent,
    make_algorithm,
    predict_stick,
    read_csv,
    replay,
    run_experiment,
    write_csv,
)
from incdfs.core import (
    EdgeClass,
    Graph,
    GraphError,
    classify_edge,
    is_valid_dfs_tree,
    static_dfs,
)
from incdfs.generators import GeneratorError, gen_gnm


class TestComputePc:
    def test_chain_tree_is_zero(self):
        # a chain makes every vertex pair ancestor-related
        g = Graph(4)
        for u, v in [(1, 2), (2, 3), (3, 4)]:
            g.add_edge(u, v)
        tree = static_dfs(g)
        assert compute_pc(g, tree) == 0.0

    def test_star_tree_is_one(self):
        g = Graph(5)
        tree = static_dfs(g)  # pseudo-root star, no real edges
        assert compute_pc(g, tree) == 1.0

    def test_matches_bruteforce_classifier(self):
        seq = gen_gnm(60, 500, seed=4)
        algo = make_algorithm("adfs2", 60, "undirected")
        for u, v in seq.edges:
            algo.insert(u, v)
        g, tree = algo.graph, algo.tree
        cross = total = 0
        for u in range(1, 61):
            for v in range(u + 1, 61):
                if g.has_edge(u, v):
                    continue
                total += 1
                if classify_edge(tree, u, v, directed=False) is EdgeClass.CROSS:
                    cross += 1
        assert compute_pc(g, tree) == pytest.approx(cross / total)

    def test_directed_graph_rejected(self):
        g = Graph(3, directed=True)
        with pytest.raises(GraphError, match="undirected"):
            compute_pc(g, static_dfs(g))

    def test_complete_graph_rejected(self):
        g = Graph(3)
        for u, v in [(1, 2), (1, 3), (2, 3)]:
            g.add_edge(u, v)
        with pytest.raises(GraphError):
            compute_pc(g, static_dfs(g))


class TestPredictStick:
    def test_below_threshold_zero(self):
        n = 100
        m = int(n / 2 * (math.log(n) + 1)) - 5
        assert predict_stick(n, m, c=1.0) == 0

    def test_matches_exhaustive_scan(self):
        n, m, c = 1000, 250000, 1.0
        best = next(
            n0 for n0 in range(2, n + 1)
            if (n0 * n0 / (n * n)) * m >= (n0 / 2) * (math.log(n0) + c)
        )
        assert predict_stick(n, m, c) == n - best

    def test_monotone_in_m(self):
        n = 300
        last = -1
        for m in range(500, 40000, 1500):
            cur = predict_stick(n, m, c=1.0)
            assert cur >= last
            last = cur

    def test_density_schedule_bristle_bound(self):
        n = 1024
        m = int(2 * n * math.log(n))
        pred = predict_stick(n, m, c=1.0)
        assert n - pred <= n / 2  # predicted bristle at most n/2 at i=1

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            predict_stick(1, 10)
        with pytest.raises(GraphError):
            predict_stick(10, 10, c=0.0)


class TestFitExponent:
    def test_exact_square_law(self):
        slope, resid = fit_exponent([(x, x * x) for x in (2, 5, 11, 40)])
        assert slope == pytest.approx(2.0)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_scaled_cubic(self):
        slope, resid = fit_exponent([(x, 7 * x ** 3) for x in (3, 9, 27)])
        assert slope == pytest.approx(3.0)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            fit_exponent([(1, 1), (2, 0), (3, 9)])
        with pytest.raises(GraphError):
            fit_exponent([(1, 1), (2, 4)])


class TestReplayAndCsv:
    def test_sdfs_full_density_row_count(self):
        n = 10
        cfg = ExperimentConfig(algo="sdfs", n=n, m=45, seed=0)
        rows = run_experiment(cfg)
        assert len(rows) == 45
        cums = [r.cumulative for r in rows]
        assert all(b > a for a, b in zip(cums, cums[1:]))

    def test_cumulative_equals_sum_of_deltas(self):
        cfg = ExperimentConfig(algo="adfs1", n=30, m=120, seed=1, sample_every=7)
        rows = run_experiment(cfg)
        assert rows[-1].cumulative == sum(r.delta for r in rows)

    def test_mean_row_appended_for_trials(self):
        cfg = ExperimentConfig(algo="sdfs2", n=20, m=60, seed=0, trials=3,
                               sample_every=60)
        rows = run_experiment(cfg)
        assert len(rows) == 4  # one final row per trial + one mean row
        assert rows[-1].cumulative == pytest.approx(
            sum(r.cumulative for r in rows[:3]) / 3, rel=1e-4
        )

    def test_csv_roundtrip(self):
        cfg = ExperimentConfig(algo="adfs2", n=25, m=100, seed=2, trials=2,
                               sample_every=25)
        rows = run_experiment(cfg)
        buf = io.StringIO()
        write_csv(rows, buf)
        buf.seek(0)
        assert read_csv(buf) == rows

    def test_csv_with_a_wrong_header_rejected(self):
        buf = io.StringIO("m,delta\n1,2\n")
        with pytest.raises(GeneratorError, match="unexpected CSV header"):
            read_csv(buf)

    def test_pc_bounds_and_bristle_complement(self):
        cfg = ExperimentConfig(algo="adfs2", n=40, m=300, seed=5, sample_every=10)
        for r in run_experiment(cfg):
            assert 0.0 <= r.pc <= 1.0
            assert r.ls + r.bristle == 40

    def test_batch_mode_groups_dataset(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("1 2 0\n2 3 0\n3 4 1\n1 4 1\n")
        cfg = ExperimentConfig(algo="sdfs", dataset=str(path), batch=True,
                               sample_every=1)
        rows = run_experiment(cfg)
        # two batches -> two sampled rows, one rebuild per batch
        assert [r.rebuilds for r in rows] == [1, 2]

    def test_dataset_read_once_for_all_trials(self, tmp_path, monkeypatch):
        path = tmp_path / "ds.txt"
        path.write_text("1 2\n2 3\n3 1\n1 4\n")
        calls = []
        load = bench.load_dataset
        monkeypatch.setattr(bench, "load_dataset",
                            lambda *a, **k: calls.append(a) or load(*a, **k))
        cfg = ExperimentConfig(algo="adfs2", dataset=str(path), trials=3,
                               sample_every=2)
        rows = run_experiment(cfg)
        assert len(calls) == 1
        assert rows[:2] == rows[2:4] == rows[4:6] == rows[6:]

    @pytest.mark.parametrize("algo", ["fdfs", "sdfs2", "sdfs3"])
    def test_batch_with_fdfs_warns_and_falls_back(self, algo):
        cfg = ExperimentConfig(algo=algo, n=15, m=40, seed=0, mode="dag",
                               batch=True, trials=2)
        with pytest.warns(UserWarning) as record:
            rows = run_experiment(cfg)
        assert len(record) == 1
        assert rows[-1].m == 40

    @pytest.mark.parametrize("k", [0, -2])
    def test_sample_every_below_one_rejected(self, k):
        algo = make_algorithm("sdfs2", 10, "undirected")
        with pytest.raises(GraphError, match="sample_every"):
            replay(algo, gen_gnm(10, 20, seed=0), sample_every=k)
        assert algo.graph.m == 0
        with pytest.raises(GraphError, match="sample_every"):
            run_experiment(ExperimentConfig(algo="sdfs2", n=10, m=20, sample_every=k))
        with pytest.raises(GraphError, match="trials"):
            run_experiment(ExperimentConfig(algo="sdfs2", n=10, m=20, trials=k))

    def test_invalid_algorithm_mode_combinations(self):
        with pytest.raises(GraphError):
            make_algorithm("adfs1", 10, "directed")
        with pytest.raises(GraphError):
            make_algorithm("fdfs", 10, "undirected")
        with pytest.raises(GraphError):
            make_algorithm("nope", 10, "undirected")
        with pytest.raises(GraphError, match="unknown mode"):
            make_algorithm("sdfs", 10, "bogus")

    @pytest.mark.parametrize("name", ["sdfs", "sdfs-int", "sdfs2"])
    def test_dag_mode_treated_as_directed(self, name):
        # only fdfs and sdfs3 reject a cycle-closing edge in dag mode; these
        # three take it in and keep a valid tree
        algo = make_algorithm(name, 3, "dag")
        for u, v in [(1, 2), (2, 3), (3, 1)]:
            assert algo.insert(u, v)
            assert is_valid_dfs_tree(algo.graph, algo.tree).ok
        assert algo.directed and algo.graph.m == 3

    def test_adfs_twins_within_ten_percent(self):
        seq = gen_gnm(200, 2000, seed=9)
        totals = []
        for name in ("adfs1", "adfs2"):
            algo = make_algorithm(name, 200, "undirected")
            replay(algo, seq, sample_every=2000)
            totals.append(algo.counters.edges_processed)
        assert abs(totals[0] - totals[1]) <= 0.1 * max(totals)
