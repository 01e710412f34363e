"""The benchmark's workloads.

Every workload runs all seven maintainers, an undirected and a directed
stream with SCC queries, and read-side checkpoints, so that every metric
exists on every workload; the workloads differ in the regime they put
those layers in.  The reason for each is in its `why`.
"""
from harness import Replay, Seq, Stream, Workload

GNM = Workload(
    name="gnm",
    why=(
        "broomstick regime of random G(n,m), undirected and directed: re-hangs, stick upkeep, "
        "LCA walks, bristle rebuilds, dfn ranks and the directed stream's SCC queries"
    ),
    sequences=(
        Seq("gnm-u", "gnm", 600, 20000, "undirected"),
        Seq("gnm-u2", "gnm", 600, 20000, "undirected", salt=1),
        Seq("gnm-d", "gnm", 400, 10000, "directed"),
        Seq("gnm-d2", "gnm", 400, 10000, "directed", salt=1),
        Seq("gnm-d3", "gnm", 400, 10000, "directed", salt=2),
        Seq("gnm-d4", "gnm", 400, 10000, "directed", salt=3),
    ),
    replays=(
        Replay("adfs1", "gnm-u"),
        Replay("adfs1", "gnm-u2"),
        Replay("adfs2", "gnm-u"),
        Replay("adfs2", "gnm-u2"),
        Replay("sdfs3", "gnm-u"),
        Replay("sdfs3", "gnm-u2"),
        Replay("sdfs2", "gnm-u"),
        Replay("sdfs", "gnm-u", tail=50),
        Replay("sdfs", "gnm-u2", tail=50),
        Replay("sdfs-int", "gnm-u", tail=100),
        Replay("sdfs-int", "gnm-u2", tail=100),
        Replay("fdfs", "gnm-d"),
        Replay("fdfs", "gnm-d2"),
        Replay("fdfs", "gnm-d3"),
        Replay("fdfs", "gnm-d4"),
        Replay("sdfs3", "gnm-d"),
        Replay("sdfs3", "gnm-d2"),
        Replay("sdfs2", "gnm-d"),
        Replay("sdfs", "gnm-d", tail=100),
        Replay("sdfs", "gnm-d2", tail=100),
        Replay("sdfs-int", "gnm-d", tail=100),
        Replay("sdfs-int", "gnm-d2", tail=100),
    ),
    # scc_query's and fdfs's costs vary from one random digraph to the
    # next, so they get two more
    streams=(Stream("gnm-u"), Stream("gnm-u2"))
    + tuple(Stream(f"gnm-d{k}", scc_every=250) for k in ("", "2", "3", "4")),
    check_every=2000,
)

SMALL_CHECKED = Workload(
    name="small-checked",
    why=(
        "small G(n,m) where the full-rebuild baselines replay every edge, with a validity "
        "checkpoint after every 10th insertion, so reads sit beside writes"
    ),
    # fdfs's cost varies most from one random digraph to the next, so it
    # also replays four more of them
    sequences=tuple(
        Seq(f"small-{m[0]}{salt}", "gnm", 300, 1500, m, salt=salt)
        for m, salts in (("undirected", 2), ("directed", 6)) for salt in range(salts)
    ),
    replays=tuple(
        Replay(algo, f"small-u{salt}", repeat=k)
        for salt in (0, 1)
        for algo, k in (("sdfs", 1), ("sdfs-int", 1), ("adfs1", 12), ("adfs2", 12),
                        ("sdfs2", 1), ("sdfs3", 4))
    ) + tuple(
        Replay(algo, f"small-d{salt}", repeat=k)
        for salt in (0, 1)
        for algo, k in (("sdfs", 1), ("sdfs-int", 1), ("sdfs2", 1), ("sdfs3", 2))
    ) + tuple(Replay("fdfs", f"small-d{salt}", repeat=2) for salt in range(6)),
    streams=tuple(
        Stream(f"small-{m}{salt}", scc_every=100 if m == "d" else 0)
        for m in ("u", "d") for salt in (0, 1)
    ),
    check_every=10,
)

ADVERSARIAL = Workload(
    name="adversarial",
    why=(
        "the three worst-case families: adfs1's adversarial pool order, fdfs's per-trigger "
        "renumbering and sdfs3's stage rebuilds, which random inputs never reach"
    ),
    sequences=(
        Seq("wc-adfs1", "worstcase_adfs1", 128, 1024, "undirected"),
        Seq("wc-fdfs", "worstcase_fdfs", 400, 20000, "dag"),
        Seq("wc-sdfs3", "worstcase_sdfs3", 400, 20000, "undirected"),
        Seq("wc-fdfs-s", "worstcase_fdfs", 200, 4000, "dag"),
    ),
    replays=(
        Replay("adfs1", "wc-adfs1", repeat=10, adversarial=True),
        Replay("adfs2", "wc-adfs1", repeat=6),
        Replay("adfs2", "wc-sdfs3", repeat=6),
        Replay("fdfs", "wc-fdfs"),
        Replay("sdfs3", "wc-fdfs"),
        Replay("sdfs3", "wc-sdfs3"),
        Replay("sdfs2", "wc-adfs1", repeat=2),
        Replay("sdfs2", "wc-sdfs3"),
        Replay("sdfs", "wc-fdfs", tail=80),
        Replay("sdfs", "wc-sdfs3", tail=80),
        Replay("sdfs-int", "wc-fdfs", tail=150),
        Replay("sdfs-int", "wc-sdfs3", tail=150),
    ),
    # not random streams, so their retained-edge bound is printed, not checked
    streams=(Stream("wc-sdfs3"), Stream("wc-fdfs-s", scc_every=150)),
    check_every=500,
)

WORKLOADS = {w.name: w for w in (GNM, SMALL_CHECKED, ADVERSARIAL)}
