"""Command-line harness.

Subcommands: bench (metric replay), broomstick (stick/cross-probability
sweep with the theoretical prediction), worstcase (adversarial families),
stream (semi-streaming run with SCC check), validate (oracle replay).
"""
from __future__ import annotations

import argparse
import contextlib
import math
import sys

from .adfs import ADFS1
from .bench import (
    ALGORITHM_NAMES,
    ExperimentConfig,
    make_algorithm,
    predict_stick,
    replay,
    run_experiment,
    write_csv,
)
from .core import GraphError, is_valid_dfs_tree, stick_profile
from .generators import (
    GeneratorError,
    gen_gnm,
    gen_worstcase_adfs1,
    gen_worstcase_fdfs,
    gen_worstcase_sdfs3,
    load_dataset,
)
from .streaming import StreamState, strong_components


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_OPTIONS = {
    "--algo": {"choices": ALGORITHM_NAMES, "default": "sdfs"},
    "--n": {"type": int, "default": 100},
    "--m": {"type": int, "default": 200},
    "--seed": {"type": int, "default": 0},
    "--trials": {"type": _positive_int, "default": 1},
    "--mode": {"choices": ["undirected", "directed", "dag"], "default": "undirected"},
    "--batch": {"action": "store_true"},
    "--dataset": {"metavar": "PATH", "default": None},
    "--sample-every": {"type": _positive_int, "default": 1, "metavar": "K"},
    "--out": {"metavar": "PATH.csv", "default": None},
}
# the options _get_sequence reads
_SEQUENCE = ("--n", "--m", "--seed", "--mode", "--dataset")
_FAMILIES = {
    "adfs1": gen_worstcase_adfs1,
    "adfs2": gen_worstcase_adfs1,
    "fdfs": gen_worstcase_fdfs,
    "sdfs3": gen_worstcase_sdfs3,
}


@contextlib.contextmanager
def _output(path):
    """The CSV destination, stdout or the file at path; callers enter it
    before anything runs, so a path that cannot be written fails at once."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _get_sequence(args):
    if args.dataset is not None:
        return load_dataset(args.dataset, directed=args.mode != "undirected")
    return gen_gnm(args.n, args.m, seed=args.seed, mode=args.mode)


def cmd_bench(args):
    cfg = ExperimentConfig(
        algo=args.algo, n=args.n, m=args.m, seed=args.seed, trials=args.trials,
        mode=args.mode, batch=args.batch, dataset=args.dataset,
        sample_every=args.sample_every,
    )
    with _output(args.out) as fh:
        write_csv(run_experiment(cfg), fh)
    return 0


def cmd_broomstick(args):
    with _output(args.out) as fh:
        seq = _get_sequence(args)
        algo = make_algorithm(args.algo, seq.n, args.mode)
        write_csv(replay(algo, seq, sample_every=args.sample_every), fh)
    prof = stick_profile(algo.tree)
    m = len(seq.edges)
    line = f"# n={seq.n} m={m} measured l_s={prof.l_s} bristle={prof.bristle}"
    # predict_stick models undirected G(n, m) with n >= 2 and m >= 1
    if not seq.directed and seq.n >= 2 and m >= 1:
        line += f" predicted l_s>={predict_stick(seq.n, m, c=1.0)}"
    print(line, file=sys.stderr)
    return 0


def cmd_worstcase(args):
    with _output(args.out) as fh:
        seq = _FAMILIES[args.algo](args.n, args.m)
        mode = "dag" if seq.dag else ("directed" if seq.directed else "undirected")
        algo = (ADFS1(seq.n, adversarial_order=True) if args.algo == "adfs1"
                else make_algorithm(args.algo, seq.n, mode))
        write_csv(replay(algo, seq, sample_every=args.sample_every), fh)
    total = algo.counters.edges_processed
    print(
        f"# {seq.provenance}: n={seq.n} m={len(seq.edges)} total={total} "
        f"total/m^2={total / len(seq.edges) ** 2:.6g}",
        file=sys.stderr,
    )
    return 0


def cmd_stream(args):
    directed = args.mode != "undirected"
    seq = _get_sequence(args)
    edges = seq.edges
    st = StreamState(seq.n, directed=directed)
    st.stream_sequence(edges)
    bound = 4 * st.n * math.log(max(st.n, 2))
    print(
        f"streamed={st.streamed} retained={st.retained_edges} "
        f"peak_retained={st.peak_retained} bound(4 n ln n)={bound:.0f} "
        f"dropped={st.dropped} duplicates={st.duplicates}"
    )
    if directed:
        comps = st.scc_query()
        adj = [[] for _ in range(st.n + 1)]
        for u, v in edges:
            adj[u].append(v)
        ok = comps == strong_components(st.n, adj)
        print(f"scc components={len(comps)} oracle_match={ok}")
        if not ok:
            return 1
    return 0


def cmd_validate(args):
    seq = _get_sequence(args)
    algo = make_algorithm(args.algo, seq.n, args.mode)
    for inserted, (u, v) in enumerate(seq.edges, start=1):
        algo.insert(u, v)
        if inserted % args.sample_every == 0 or inserted == len(seq.edges):
            rep = is_valid_dfs_tree(algo.graph, algo.tree)
            if not rep.ok:
                print(f"INVALID at m={algo.graph.m}: {rep.reason}", file=sys.stderr)
                return 1
    print(f"valid: algo={args.algo} n={seq.n} m={algo.graph.m}")
    return 0


# each subcommand takes only the options it reads
_COMMANDS = (
    ("bench", cmd_bench, tuple(_OPTIONS)),
    ("broomstick", cmd_broomstick, ("--algo", *_SEQUENCE, "--sample-every", "--out")),
    ("worstcase", cmd_worstcase, ("--algo", "--n", "--m", "--sample-every", "--out")),
    ("stream", cmd_stream, _SEQUENCE),
    ("validate", cmd_validate, ("--algo", *_SEQUENCE, "--sample-every")),
)
_OVERRIDES = {("worstcase", "--algo"): {"choices": tuple(_FAMILIES), "required": True}}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="incdfs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, options in _COMMANDS:
        p = sub.add_parser(name)
        for opt in options:
            p.add_argument(opt, **_OVERRIDES.get((name, opt), _OPTIONS[opt]))
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, GeneratorError, OSError) as exc:
        # bad parameters, input or files: one line and exit code 2, as
        # argparse does
        print(f"incdfs {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
