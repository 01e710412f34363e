import io
import re

import pytest

from incdfs import cli
from incdfs.adfs import ADFS1, ADFS2
from incdfs.bench import read_csv, replay
from incdfs.cli import main
from incdfs.core import ValidityReport
from incdfs.generators import gen_worstcase_adfs1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBenchCommand:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--algo", "sdfs", "--n", "12", "--m", "30",
            "--sample-every", "10",
        )
        assert code == 0
        rows = read_csv(io.StringIO(out))
        assert rows[-1].m == 30

    def test_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run_cli(
            capsys, "bench", "--algo", "adfs2", "--n", "20", "--m", "50",
            "--sample-every", "50", "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = read_csv(fh)
        assert len(rows) == 1 and rows[0].m == 50

    def test_directed_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--algo", "fdfs", "--mode", "dag", "--n", "16",
            "--m", "40", "--sample-every", "40",
        )
        assert code == 0
        assert read_csv(io.StringIO(out))[-1].pc == 0.0


class TestBroomstickCommand:
    def test_reports_prediction(self, capsys):
        code, out, err = run_cli(
            capsys, "broomstick", "--algo", "sdfs2", "--n", "60", "--m", "600",
            "--sample-every", "100",
        )
        assert code == 0
        assert "predicted l_s>=" in err
        assert "measured l_s=" in err

    def test_prediction_skipped_outside_its_domain(self, capsys):
        # predict_stick models undirected G(n, m) with n >= 2 and m >= 1;
        # the measured line stays.  A directed static-DFS stick falls below
        # the undirected prediction, and a random dag's stick stays empty.
        for algo, mode, n, m in (("adfs2", "undirected", 1, 0),
                                 ("sdfs2", "directed", 200, 4000),
                                 ("fdfs", "dag", 60, 700)):
            code, out, err = run_cli(capsys, "broomstick", "--algo", algo, "--mode", mode,
                                     "--n", str(n), "--m", str(m))
            assert code == 0
            assert read_csv(io.StringIO(out))[-1].m == m
            assert "measured l_s=" in err and "predicted" not in err
            if mode != "directed":
                assert "measured l_s=0" in err


class TestWorstcaseCommand:
    @pytest.mark.parametrize("algo,n,m", [
        ("adfs1", 64, 256), ("adfs2", 64, 256), ("fdfs", 32, 100),
        ("sdfs3", 64, 128),
    ])
    def test_families_run(self, capsys, algo, n, m):
        code, out, err = run_cli(
            capsys, "worstcase", "--algo", algo, "--n", str(n), "--m", str(m),
            "--sample-every", "1000",
        )
        assert code == 0
        assert "worstcase-" in err and "total=" in err

    def test_adfs1_built_as_by_the_factory(self, capsys, monkeypatch):
        # the CLI builds ADFS1 with the adversarial pool order, as the
        # harness and the demos do; it does not set the attribute later
        import incdfs.cli as cli

        built = []

        def spy(algo, seq, **kwargs):
            built.append(algo)
            return replay(algo, seq, **kwargs)

        monkeypatch.setattr(cli, "replay", spy)
        code, _, _ = run_cli(capsys, "worstcase", "--algo", "adfs1", "--n", "64",
                             "--m", "256", "--sample-every", "1000")
        assert code == 0
        (algo,) = built
        seq = gen_worstcase_adfs1(64, 256)
        twin = ADFS1(seq.n, adversarial_order=True)
        replay(twin, seq, sample_every=1000)
        assert type(algo) is type(twin) is ADFS1
        assert algo.adversarial_order is twin.adversarial_order is True
        assert repr(algo.counters) == repr(twin.counters)
        assert algo.tree.parent == twin.tree.parent

    def test_adversarial_order_is_adfs1_only(self):
        with pytest.raises(TypeError):
            ADFS2(8, adversarial_order=True)

    def test_unknown_family(self, capsys):
        # --algo offers only the four families, so argparse refuses sdfs
        with pytest.raises(SystemExit) as exc:
            main(["worstcase", "--algo", "sdfs"])
        assert exc.value.code == 2
        assert "invalid choice: 'sdfs'" in capsys.readouterr().err


class TestStreamCommand:
    def test_undirected_stream(self, capsys):
        code, out, _ = run_cli(
            capsys, "stream", "--n", "80", "--m", "800",
        )
        assert code == 0
        assert "peak_retained=" in out

    def test_directed_stream_scc_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "stream", "--mode", "directed", "--n", "50", "--m", "400",
        )
        assert code == 0
        assert "oracle_match=True" in out

    def test_scc_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "strong_components", lambda n, adj: [])
        code, out, _ = run_cli(
            capsys, "stream", "--mode", "directed", "--n", "20", "--m", "60",
        )
        assert code == 1
        assert "oracle_match=False" in out


class TestValidateCommand:
    @pytest.mark.parametrize("algo,mode", [
        ("sdfs", "undirected"), ("sdfs-int", "directed"), ("adfs1", "undirected"),
        ("sdfs2", "directed"), ("sdfs3", "undirected"), ("fdfs", "dag"),
    ])
    def test_algorithms_validate(self, capsys, algo, mode):
        code, out, _ = run_cli(
            capsys, "validate", "--algo", algo, "--mode", mode, "--n", "25",
            "--m", "90", "--seed", "3", "--sample-every", "10",
        )
        assert code == 0
        assert out.startswith("valid:")

    def test_invalid_tree_exits_1(self, capsys, monkeypatch):
        bad = ValidityReport(False, (1, 2), "cross edge (1,2)")
        monkeypatch.setattr(cli, "is_valid_dfs_tree", lambda graph, tree: bad)
        code, out, err = run_cli(
            capsys, "validate", "--algo", "sdfs", "--n", "10", "--m", "20",
            "--sample-every", "5",
        )
        assert code == 1
        assert out == ""
        assert err == "INVALID at m=5: cross edge (1,2)\n"

    def test_dataset_input(self, tmp_path, capsys):
        path = tmp_path / "ds.txt"
        path.write_text("1 2\n2 3\n3 1\n1 4\n")
        code, out, _ = run_cli(
            capsys, "validate", "--algo", "sdfs", "--dataset", str(path),
        )
        assert code == 0


class TestBadParameters:
    @pytest.mark.parametrize("argv", [
        ("bench", "--n", "10", "--m", "-1"),
        ("validate", "--n", "5", "--m", "11"),
        ("broomstick", "--algo", "adfs1", "--mode", "directed", "--n", "8", "--m", "10"),
        ("bench", "--algo", "fdfs", "--n", "8", "--m", "10"),
        ("bench", "--seed", "-1"),
        ("bench", "--n", "-5", "--m", "0", "--mode", "directed"),
        ("stream", "--n", "0", "--m", "0"),
    ])
    def test_one_line_and_exit_code_2(self, capsys, argv):
        # GraphError and GeneratorError become one stderr line, no traceback
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"incdfs {argv[0]}: error: ")
        assert err.count("\n") == 1

    def test_missing_dataset_one_line_and_exit_code_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        code, out, err = run_cli(capsys, "validate", "--dataset", str(missing))
        assert code == 2
        assert out == ""
        assert err.startswith("incdfs validate: error: ") and str(missing) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("bench", "--algo", "adfs2", "--n", "20", "--m", "50"),
        ("broomstick", "--algo", "adfs2", "--n", "20", "--m", "50"),
        ("worstcase", "--algo", "adfs1", "--n", "64", "--m", "256"),
    ])
    def test_unwritable_out_fails_before_the_replay(self, capsys, tmp_path,
                                                    monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("replayed before opening --out")

        monkeypatch.setattr(cli, "run_experiment", never)
        monkeypatch.setattr(cli, "replay", never)
        out = tmp_path / "missing-dir" / "r.csv"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"incdfs {argv[0]}: error: ") and str(out) in err
        assert err.count("\n") == 1


# the options each subcommand reads; it refuses every other one
READS = {
    "bench": ("--algo", "--n", "--m", "--seed", "--trials", "--mode", "--batch",
              "--dataset", "--sample-every", "--out"),
    "broomstick": ("--algo", "--n", "--m", "--seed", "--mode", "--dataset",
                   "--sample-every", "--out"),
    "worstcase": ("--algo", "--n", "--m", "--sample-every", "--out"),
    "stream": ("--n", "--m", "--seed", "--mode", "--dataset"),
    "validate": ("--algo", "--n", "--m", "--seed", "--mode", "--dataset", "--sample-every"),
}


class TestOptionSets:
    @pytest.mark.parametrize("command", READS)
    def test_help_lists_exactly_the_options_read(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        offered = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert offered - {"--help"} == set(READS[command])


class TestCountOptions:
    @pytest.mark.parametrize("command,algo", [
        ("bench", "sdfs"), ("broomstick", "sdfs2"), ("worstcase", "adfs1"),
        ("validate", "sdfs"), ("stream", "sdfs"),
    ])
    @pytest.mark.parametrize("option", ["--sample-every", "--trials"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_below_one_rejected_at_parse_time(self, capsys, command, algo, option, value):
        # a subcommand that does not read the option refuses it outright
        head = [command] if command == "stream" else [command, "--algo", algo]
        with pytest.raises(SystemExit) as exc:
            main(head + ["--n", "12", "--m", "30", option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if option in READS[command]:
            assert "must be >= 1" in err
        else:
            assert f"unrecognized arguments: {option} {value}" in err
