"""Replay one random insertion sequence through every maintainer.

The cost metric is edges_processed: adjacency entries scanned during
repairs plus one per inserted edge.  It is hardware-independent, so the
numbers below are exactly reproducible.

Run:  python3 demos/algorithm_shootout.py
"""
from incdfs import ALGORITHM_NAMES, gen_gnm, is_valid_dfs_tree, make_algorithm

n = 100  # kept small: sdfs is charged a full rescan per insert
m = n * (n - 1) // 2


def shootout(mode):
    seq = gen_gnm(n, m if mode == "undirected" else m, seed=1, mode=mode)
    print(f"\n-- {mode} (n={n}, m={len(seq.edges)}) --")
    print(f"{'algorithm':>10} {'edges_processed':>16} {'rebuilds':>9} {'per insert':>11}")
    for name in ALGORITHM_NAMES:
        try:
            algo = make_algorithm(name, n, mode)
        except Exception:
            continue  # not applicable to this graph class
        for u, v in seq.edges:
            algo.insert(u, v)
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok
        c = algo.counters
        print(f"{name:>10} {c.edges_processed:>16} {c.rebuilds:>9} "
              f"{c.edges_processed / len(seq.edges):>11.2f}")


for mode in ("undirected", "dag"):
    shootout(mode)

print("\nsdfs is charged a full rescan per insertion (its code reruns the DFS"
      "\nonly on a cross or anti-cross edge); the broomstick-aware algorithms"
      "\n(adfs*, sdfs2) settle near one scanned edge per insert.")
