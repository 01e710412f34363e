"""Graph and DFS-tree primitives shared by every incremental algorithm.

Vertex 0 is a pseudo root connected to every real vertex, so a single DFS
from 0 always spans the whole graph.  Real vertices are numbered 1..n.
Adjacency lists keep insertion order; every traversal scans them in that
order, which makes all runs reproducible from a seed.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import index, length_hint

import numpy as np

ROOT = 0


class GraphError(ValueError):
    """Raised for malformed graph operations (self-loop, duplicate, range)."""


class EdgeClass(enum.Enum):
    TREE = "tree"
    BACK = "back"
    FORWARD = "forward"
    CROSS = "cross"
    ANTI_CROSS = "anti-cross"


class Counters:
    """Instrumentation shared by all algorithms.

    edges_processed is the platform-independent cost metric: adjacency
    entries examined during rebuilds plus, in the incremental maintainers,
    one per inserted edge (sdfs and sdfs-int charge only their DFS).  In
    undirected traversals each edge is charged once even though it sits in
    two adjacency lists.  Tree bookkeeping (depth fixups, LCA walks) is
    deliberately not metered.
    """

    __slots__ = ("edges_processed", "rebuilds", "insertions", "vertices_remarked")

    def __init__(self):
        self.edges_processed = 0
        self.rebuilds = 0
        self.insertions = 0
        self.vertices_remarked = 0

    def __repr__(self):
        return (
            f"Counters(edges_processed={self.edges_processed}, "
            f"rebuilds={self.rebuilds}, insertions={self.insertions}, "
            f"vertices_remarked={self.vertices_remarked})"
        )


class Graph:
    """Simple graph over vertices 0..n with pseudo edges 0-v for all v.

    m counts real edges only.  Edge endpoint arrays are kept as growing
    numpy buffers so the validity oracle can classify all edges at once.
    """

    def __init__(self, n: int, directed: bool = False):
        if n < 1:
            raise GraphError("need at least one real vertex")
        self.n = n
        self.directed = directed
        self.m = 0
        self.out_adj: list[list[int]] = [[] for _ in range(n + 1)]
        self.in_adj: list[list[int]] | None = (
            [[] for _ in range(n + 1)] if directed else None
        )
        self.out_adj[ROOT] = list(range(1, n + 1))
        if directed:
            for v in range(1, n + 1):
                self.in_adj[v].append(ROOT)
        else:
            for v in range(1, n + 1):
                self.out_adj[v].append(ROOT)
        self._eindex: dict[tuple[int, int], int] = {}
        cap = 16
        self._eu = np.empty(cap, dtype=np.int32)
        self._ev = np.empty(cap, dtype=np.int32)

    def _key(self, u: int, v: int) -> tuple[int, int]:
        if self.directed:
            return (u, v)
        return (u, v) if u < v else (v, u)

    def _check(self, u: int, v: int):
        if u == v:
            raise GraphError(f"self-loop ({u},{v})")
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise GraphError(f"endpoint out of range in ({u},{v})")

    def has_edge(self, u: int, v: int) -> bool:
        return self._key(u, v) in self._eindex

    def add_edge(self, u: int, v: int):
        """Add real edge (u, v), or raise GraphError and change nothing.

        Endpoints are normalised with operator.index before any state is
        touched, so numpy ints are stored as Python ints and a non-integer
        endpoint cannot leave a half-registered edge behind.
        """
        try:
            u = index(u)
            v = index(v)
        except TypeError:
            raise GraphError(f"non-integer endpoint in ({u!r},{v!r})") from None
        self._check(u, v)
        key = self._key(u, v)
        if key in self._eindex:
            raise GraphError(f"duplicate edge ({u},{v})")
        if self.m == len(self._eu):
            self._eu = np.concatenate([self._eu, np.empty_like(self._eu)])
            self._ev = np.concatenate([self._ev, np.empty_like(self._ev)])
        self._eindex[key] = self.m
        self._eu[self.m] = u
        self._ev[self.m] = v
        self.m += 1
        self.out_adj[u].append(v)
        if self.directed:
            self.in_adj[v].append(u)
        else:
            self.out_adj[v].append(u)

    def remove_edge(self, u: int, v: int):
        """Remove a real edge (used by stick pruning and defensive rejects).

        The edge array is compacted by swapping the last edge into the hole,
        so array order is storage order, not strict insertion order.
        """
        key = self._key(u, v)
        pos = self._eindex.pop(key, None)
        if pos is None:
            raise GraphError(f"no such edge ({u},{v})")
        last = self.m - 1
        if pos != last:
            lu, lv = int(self._eu[last]), int(self._ev[last])
            self._eu[pos] = lu
            self._ev[pos] = lv
            self._eindex[self._key(lu, lv)] = pos
        self.m = last
        self.out_adj[u].remove(v)
        if self.directed:
            self.in_adj[v].remove(u)
        else:
            self.out_adj[v].remove(u)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the real-edge endpoint arrays (do not mutate)."""
        return self._eu[: self.m], self._ev[: self.m]

    def real_edges(self) -> list[tuple[int, int]]:
        eu, ev = self.edge_arrays()
        return list(zip(eu.tolist(), ev.tolist()))


class DfsTree:
    """Rooted ordered tree: parent, ordered children, depth, post-order dfn.

    dfn maps vertex -> post-order rank in 1..n+1 (the pseudo root finishes
    last).  Undirected algorithms rebuild subtrees without renumbering, so
    dfn carries a validity flag; directed algorithms keep it exact.
    """

    __slots__ = ("n", "parent", "children", "depth", "dfn", "dfn_valid")

    def __init__(self, n: int):
        self.n = n
        self.parent = [-1] * (n + 1)
        self.children: list[list[int]] = [[] for _ in range(n + 1)]
        self.depth = [0] * (n + 1)
        self.dfn = [0] * (n + 1)
        self.dfn_valid = False

    def recompute_dfn(self):
        """Recompute post-order ranks from the current structure."""
        dfn = self.dfn
        rank = 1
        stack = [(ROOT, 0)]
        children = self.children
        while stack:
            v, i = stack[-1]
            if i < len(children[v]):
                stack[-1] = (v, i + 1)
                stack.append((children[v][i], 0))
            else:
                stack.pop()
                dfn[v] = rank
                rank += 1
        self.dfn_valid = True

    def order_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Entry/exit times of a traversal in children order.

        u is an ancestor of v iff pre[u] <= pre[v] and post[u] >= post[v].
        """
        n1 = self.n + 1
        pre = [0] * n1
        post = [0] * n1
        t = 0
        children = self.children
        # entries: vertex v to enter, or ~v to exit
        stack = [ROOT]
        push = stack.append
        pop = stack.pop
        while stack:
            v = pop()
            t += 1
            if v >= 0:
                pre[v] = t
                push(~v)
                for c in reversed(children[v]):
                    push(c)
            else:
                post[~v] = t
        return np.asarray(pre, dtype=np.int64), np.asarray(post, dtype=np.int64)

    def refresh_depths(self, root: int):
        """Recompute depth below root from parent/children (bookkeeping)."""
        depth = self.depth
        base = depth[self.parent[root]] + 1 if root != ROOT else 0
        stack = [(root, base)]
        children = self.children
        while stack:
            v, d = stack.pop()
            depth[v] = d
            for c in children[v]:
                stack.append((c, d + 1))


@dataclass(frozen=True)
class StickProfile:
    l_s: int
    bristle: int
    bristle_root: int


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violation: tuple[int, int] | None = None
    reason: str = ""

    def __bool__(self):
        return self.ok


def is_ancestor(tree: DfsTree, a: int, v: int) -> bool:
    """True iff a is an ancestor of v (a == v counts), by parent walk."""
    depth = tree.depth
    parent = tree.parent
    if depth[a] > depth[v]:
        return False
    while depth[v] > depth[a]:
        v = parent[v]
    return v == a


def lca(tree: DfsTree, u: int, v: int) -> int:
    """Lowest common ancestor by depth-aligned parent walk; lca(u,u)=u."""
    depth = tree.depth
    parent = tree.parent
    while depth[u] > depth[v]:
        u = parent[u]
    while depth[v] > depth[u]:
        v = parent[v]
    while u != v:
        u = parent[u]
        v = parent[v]
    return u


def static_dfs(
    graph: Graph,
    start: int = ROOT,
    restrict_to=None,
    counters: Counters | None = None,
    interrupt: bool = False,
) -> DfsTree:
    """Full DFS of the graph from the pseudo root.

    Children are appended in adjacency-scan order and dfn is assigned in
    post-order, so the result is deterministic for a fixed adjacency order.
    With interrupt=True the scan stops as soon as the last vertex is
    discovered (the naive-with-interrupt baseline); the vertices still on
    the stack then finish in stack order, which yields the same tree and
    dfn as the full DFS.

    start and restrict_to are positional slots only: the DFS always runs
    from ROOT over the whole graph, and any other value raises GraphError.

    counters, when given, receives the edges_processed charge: one per
    scanned out-entry (directed) or one per edge (undirected; the second
    scan of an edge, from its other endpoint, is free).  A full DFS scans
    every entry, so it charges exactly n + m in both modes.  An interrupted
    DFS charges only the entries it reached: a directed one n + m minus the
    entries left in the iterators on the stack, an undirected one n tree
    edges plus the back edges scanned from their descendant end.
    """
    if start != ROOT or restrict_to is not None:
        raise GraphError("static_dfs runs from the pseudo root over the whole graph")
    n = graph.n
    tree = DfsTree(n)
    parent = tree.parent
    depth = tree.depth
    dfn = tree.dfn
    children = tree.children
    adj = graph.out_adj
    count_back = interrupt and not graph.directed
    # False: unvisited, True: visited.  Only the undirected interrupted DFS
    # must tell finished vertices from those on the stack; there they turn 2.
    state = [False] * (n + 1)
    state[ROOT] = True
    finished = 2 if count_back else True
    verts = [ROOT]
    its = [iter(adj[ROOT])]
    push_v = verts.append
    push_it = its.append
    pop_v = verts.pop
    pop_it = its.pop
    left = n
    d = 0
    rank = 1
    back = 0
    while its:
        u = verts[-1]
        pu = parent[u]
        for w in its[-1]:
            if not state[w]:
                state[w] = True
                parent[w] = u
                d += 1
                depth[w] = d
                children[u].append(w)
                push_v(w)
                push_it(iter(adj[w]))
                left -= 1
                break
            elif count_back and state[w] is True and w != pu:
                # a back edge seen from its descendant end: its first scan
                back += 1
        else:
            pop_v()
            pop_it()
            state[u] = finished
            dfn[u] = rank
            rank += 1
            d -= 1
            continue
        if interrupt and not left:
            break
    charge = n + graph.m
    if its:
        # interrupted: charge what was reached, then finish the stack
        if count_back:
            charge = n + back
        else:
            charge -= sum(map(length_hint, its))
        for u in reversed(verts):
            dfn[u] = rank
            rank += 1
    tree.dfn_valid = True
    if counters is not None:
        counters.edges_processed += charge
    return tree


def classify_edge(tree: DfsTree, u: int, v: int, directed: bool) -> EdgeClass:
    """Classify edge (u,v) against the tree.

    Directed: tree / back (v a proper ancestor of u) / forward (u a proper
    ancestor of v) / cross when dfn(v) < dfn(u) / anti-cross otherwise.
    Undirected: ancestor relations collapse to back, the rest is cross.
    """
    if u == v:
        raise GraphError("identical endpoints")
    if tree.parent[v] == u or (not directed and tree.parent[u] == v):
        return EdgeClass.TREE
    if directed and tree.parent[u] == v:
        return EdgeClass.BACK
    if is_ancestor(tree, v, u):
        return EdgeClass.BACK
    if is_ancestor(tree, u, v):
        return EdgeClass.FORWARD if directed else EdgeClass.BACK
    if not directed:
        return EdgeClass.CROSS
    if not tree.dfn_valid:
        tree.recompute_dfn()
    return EdgeClass.CROSS if tree.dfn[v] < tree.dfn[u] else EdgeClass.ANTI_CROSS


def is_valid_dfs_tree(graph: Graph, tree: DfsTree) -> ValidityReport:
    """DFS validity oracle: structure checks plus no anti-cross (directed)
    or no cross (undirected) among the graph's real edges."""
    n = graph.n
    if tree.n != n:
        raise GraphError("tree/graph vertex-count mismatch")
    parent = tree.parent
    children = tree.children
    # structural checks (vectorized: parent sanity, depth recurrence)
    if parent[ROOT] != -1 or tree.depth[ROOT] != 0:
        return ValidityReport(False, None, "bad root")
    par = np.asarray(parent, dtype=np.int64)
    depth = np.asarray(tree.depth, dtype=np.int64)
    if (par[1:] < 0).any():
        v = 1 + int(np.argmax(par[1:] < 0))
        return ValidityReport(False, None, f"vertex {v} detached")
    if (depth[1:] != depth[par[1:]] + 1).any():
        v = 1 + int(np.argmax(depth[1:] != depth[par[1:]] + 1))
        return ValidityReport(False, None, f"depth broken at {v}")
    for v in range(1, n + 1):
        p = parent[v]
        if p != ROOT and not graph.has_edge(p, v):
            return ValidityReport(False, (p, v), f"tree edge ({p},{v}) not in graph")
    nch = sum(len(c) for c in children)
    if nch != n:
        return ValidityReport(False, None, "children/parent mismatch")
    for v in range(n + 1):
        for c in children[v]:
            if parent[c] != v:
                return ValidityReport(False, None, f"children list broken at {v}")
    pre, post = tree.order_times()
    if pre[ROOT] != 1 or post[ROOT] != 2 * (n + 1):
        return ValidityReport(False, None, "tree not connected to root")
    if tree.dfn_valid:
        # stored dfn must be the post-order of the traversal just done:
        # post-order rank is the rank of the exit time
        ranks = np.empty(n + 1, dtype=np.int64)
        ranks[np.argsort(post)] = np.arange(1, n + 2)
        if (np.asarray(tree.dfn, dtype=np.int64) != ranks).any():
            v = int(np.argmax(np.asarray(tree.dfn, dtype=np.int64) != ranks))
            return ValidityReport(False, None, f"dfn not post-order at {v}")
    if graph.m == 0:
        return ValidityReport(True)
    eu, ev = graph.edge_arrays()
    # interval tests: Euler intervals are nested or disjoint, so for a
    # directed edge (u, v), v lying strictly to the right of u's interval
    # (pre[v] > post[u]) is exactly the anti-cross condition; undirected
    # cross means the intervals are disjoint in either order
    if graph.directed:
        bad = pre[ev] > post[eu]
    else:
        bad = (pre[ev] > post[eu]) | (pre[eu] > post[ev])
    if bad.any():
        i = int(np.argmax(bad))
        u, v = int(eu[i]), int(ev[i])
        kind = "anti-cross" if graph.directed else "cross"
        return ValidityReport(False, (u, v), f"{kind} edge ({u},{v})")
    return ValidityReport(True)


def stick_profile(tree: DfsTree) -> StickProfile:
    """Broomstick measurements of the tree.

    The stick is the maximal unbranched chain below the root: walking down
    while every vertex (including the root) has exactly one child.  The
    first vertex with 0 or >= 2 children is the bristle root; it is not
    counted.  l_s counts real vertices strictly between the root and the
    bristle root; bristles are the n - l_s remaining real vertices.
    """
    children = tree.children
    cur = ROOT
    while len(children[cur]) == 1:
        cur = children[cur][0]
    l_s = tree.depth[cur] - 1 if cur != ROOT else 0
    if l_s < 0:
        l_s = 0
    return StickProfile(l_s, tree.n - l_s, cur)
