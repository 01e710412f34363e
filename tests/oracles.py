"""Independent brute-force oracles used across the test suite.

These deliberately avoid the library's own helpers wherever a result is
being checked: ancestor sets are materialized explicitly, classification
is done from first principles, and SCC uses scipy's csgraph rather than
the package's Tarjan pass.
"""
import random

from incdfs.core import ROOT, DfsTree, EdgeClass, Graph
from incdfs.sdfs2 import Sdfs2State


def ancestor_set(tree, v):
    """All ancestors of v including v, by explicit parent enumeration."""
    out = {v}
    while tree.parent[v] >= 0:
        v = tree.parent[v]
        out.add(v)
    return out


def brute_classify(tree, u, v, directed):
    """Classify (u,v) from ancestor sets and an explicit post-order walk."""
    if tree.parent[v] == u or (not directed and tree.parent[u] == v):
        return EdgeClass.TREE
    if directed and tree.parent[u] == v:
        return EdgeClass.BACK
    anc_u = ancestor_set(tree, u)
    anc_v = ancestor_set(tree, v)
    if v in anc_u:
        return EdgeClass.BACK
    if u in anc_v:
        return EdgeClass.FORWARD if directed else EdgeClass.BACK
    if not directed:
        return EdgeClass.CROSS
    post = postorder_ranks(tree)
    return EdgeClass.CROSS if post[v] < post[u] else EdgeClass.ANTI_CROSS


def postorder_ranks(tree):
    """Post-order ranks computed recursively, independent of tree.dfn."""
    ranks = {}
    counter = [0]

    def rec(v):
        for c in tree.children[v]:
            rec(c)
        counter[0] += 1
        ranks[v] = counter[0]

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(10000 + tree.n)
    try:
        rec(ROOT)
    finally:
        sys.setrecursionlimit(old)
    return ranks


def brute_lca(tree, u, v):
    anc = ancestor_set(tree, u)
    while v not in anc:
        v = tree.parent[v]
    return v


def random_graph(n, m, seed, directed=False):
    """A random simple graph built through the public Graph API."""
    rng = random.Random(seed)
    g = Graph(n, directed=directed)
    if directed:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    else:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(pairs)
    for u, v in pairs[:m]:
        g.add_edge(u, v)
    return g


def tree_from_parents(n, parents, child_order=None):
    """Build a DfsTree by hand for fixture tests.

    parents: dict vertex -> parent.  Children default to ascending order.
    """
    from incdfs.core import DfsTree

    t = DfsTree(n)
    for v, p in parents.items():
        t.parent[v] = p
    order = child_order or {}
    kids = {v: [] for v in range(n + 1)}
    for v in sorted(parents):
        kids[parents[v]].append(v)
    for v, lst in order.items():
        kids[v] = list(lst)
    for v in range(n + 1):
        t.children[v] = kids.get(v, [])
    # depths by walk
    def depth_of(v):
        d = 0
        while t.parent[v] >= 0:
            v = t.parent[v]
            d += 1
        return d

    for v in range(n + 1):
        t.depth[v] = depth_of(v)
    t.recompute_dfn()
    return t


def reference_static_dfs(graph, interrupt=False):
    """Static DFS that charges edges_processed one scan at a time: the
    reference for core.static_dfs, which charges a full DFS in closed form.
    Returns (tree, charge).
    """
    n = graph.n
    tree = DfsTree(n)
    parent = tree.parent
    depth = tree.depth
    dfn = tree.dfn
    children = tree.children
    for v in range(n + 1):
        parent[v] = -2
        depth[v] = -1
    parent[ROOT] = -1
    depth[ROOT] = 0
    adj = graph.out_adj
    directed = graph.directed
    # state: 0 unvisited, 1 active, 2 finished
    state = bytearray(n + 1)
    target = n + 1
    state[ROOT] = 1
    visited = 1
    rank = 1
    scanned = 0
    stack = [(ROOT, iter(adj[ROOT]))]
    done = False
    while stack:
        u, it = stack[-1]
        advanced = False
        for w in it:
            st = state[w]
            if directed:
                scanned += 1
            elif st == 0 or (st == 1 and parent[u] != w):
                # undirected: charge each edge once -- at discovery, or at
                # the first (descendant-side) scan of a back edge
                scanned += 1
            if st == 0:
                state[w] = 1
                parent[w] = u
                depth[w] = depth[u] + 1
                children[u].append(w)
                visited += 1
                stack.append((w, iter(adj[w])))
                advanced = True
                if interrupt and visited == target:
                    done = True
                break
        if done:
            break
        if not advanced:
            stack.pop()
            state[u] = 2
            dfn[u] = rank
            rank += 1
    if done:
        # post-order ranks for the vertices still on the stack
        while stack:
            u, _ = stack.pop()
            if state[u] == 1:
                state[u] = 2
                dfn[u] = rank
                rank += 1
    tree.dfn_valid = True
    return tree, scanned


class ReferenceSdfs2(Sdfs2State):
    """Sdfs2State with the bristle rebuild that charges one scan at a time
    and leaves dfn to be recomputed: the reference for Sdfs2State._rebuild,
    which charges in closed form and keeps a directed dfn exact."""

    def _rebuild(self, eu, ev):
        tree = self.tree
        root = self.bristle_root
        # the bristle set is exactly the subtree of the bristle root
        bristles = []
        stack = [root]
        while stack:
            q = stack.pop()
            bristles.append(q)
            stack.extend(tree.children[q])
        # adjacency over the bristle-induced subgraph: current tree edges,
        # stored non-tree edges, then the triggering edge
        adj = {}
        for q in bristles:
            if self.directed:
                adj[q] = tree.children[q] + self._stored[q]
            else:
                up = [] if q == root else [tree.parent[q]]
                adj[q] = tree.children[q] + up + self._stored[q]
        adj[eu] = adj[eu] + [ev]
        if not self.directed:
            adj[ev] = adj[ev] + [eu]
        old_edges = set()
        for q in bristles:
            if q != ROOT:
                for c in tree.children[q]:
                    old_edges.add((q, c))
            for t in self._stored[q]:
                if self.directed or q < t:
                    old_edges.add((q, t))
        old_edges.add((eu, ev))

        # static DFS from the bristle root: directed charges every scanned
        # out-entry, undirected charges each edge once (at discovery or the
        # descendant-side scan)
        parent, depth, children = tree.parent, tree.depth, tree.children
        state = {q: 0 for q in bristles}
        for q in bristles:
            children[q] = []
        state[root] = 1
        scanned = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            q, it = stack[-1]
            advanced = False
            for w in it:
                st = state[w]
                if self.directed or st == 0 or (st == 1 and parent[q] != w):
                    scanned += 1
                if st == 0:
                    state[w] = 1
                    parent[w] = q
                    depth[w] = depth[q] + 1
                    children[q].append(w)
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                state[q] = 2
        self.counters.edges_processed += scanned
        self.counters.rebuilds += 1
        tree.dfn_valid = False

        for q in bristles:
            self._stored[q] = []
            if self._stored_in is not None:
                self._stored_in[q] = []
        for a, b in old_edges:
            if parent[b] == a:
                continue
            if not self.directed and parent[a] == b:
                continue
            self._store(a, b)
        self._recompute_stick()
