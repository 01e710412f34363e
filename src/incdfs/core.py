"""Graph and DFS-tree primitives shared by every incremental algorithm.

Vertex 0 is a pseudo root connected to every real vertex, so a single DFS
from 0 always spans the whole graph.  Real vertices are numbered 1..n.
Adjacency lists keep insertion order; every traversal scans them in that
order, which makes all runs reproducible from a seed.  A graph builds its
adjacency lists on their first read, so maintainers that never scan them
(adfs1, adfs2, sdfs2) never pay for them.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from operator import index, length_hint

import numpy as np

ROOT = 0


class GraphError(ValueError):
    """Raised for malformed graph operations (self-loop, duplicate, range)."""


class CycleError(GraphError):
    """Raised in dag mode when an insertion would create a cycle."""


class EdgeClass(enum.Enum):
    TREE = "tree"
    BACK = "back"
    FORWARD = "forward"
    CROSS = "cross"
    ANTI_CROSS = "anti-cross"


@dataclass(slots=True)
class Counters:
    """Instrumentation shared by all algorithms.

    edges_processed is the platform-independent cost metric: adjacency
    entries examined during rebuilds plus, in the incremental maintainers,
    one per inserted edge.  sdfs and sdfs-int are charged the DFS a naive
    rebuild would run, whether or not they rerun it.  In undirected
    traversals each edge is charged once even though it sits in two
    adjacency lists.  Tree bookkeeping (depth fixups, LCA walks) is
    deliberately not metered.

    rebuilds counts repairs; for sdfs and sdfs-int it counts the
    insertions (one per batch) answered with a full-DFS tree.
    """

    edges_processed: int = 0
    rebuilds: int = 0
    insertions: int = 0
    vertices_remarked: int = 0


class Graph:
    """Simple graph over vertices 0..n with pseudo edges 0-v for all v.

    m counts real edges only.  The graph only grows (remove_edge takes
    back just the last edge added), so all of it keeps insertion order:
    a dict of edge keys answers has_edge, growing numpy buffers of the
    endpoints let the validity oracle classify all edges at once, and
    out_adj is built from the keys on its first read and kept current
    from then on; a graph whose adjacency is never read never builds it.
    """

    def __init__(self, n: int, directed: bool = False):
        try:
            n = index(n)
        except TypeError:
            raise GraphError(f"non-integer vertex count {n!r}") from None
        if n < 1:
            raise GraphError("need at least one real vertex")
        self.n = n
        self.directed = directed
        self.m = 0
        self._out_adj: list[list[int]] | None = None
        self._eindex: dict[tuple[int, int], None] = {}
        self._eu = np.empty(16, dtype=np.int32)
        self._ev = np.empty_like(self._eu)

    @property
    def out_adj(self) -> list[list[int]]:
        """Out-lists indexed by vertex, pseudo edges first, then the real
        edges in insertion order (both ends of an undirected edge)."""
        adj = self._out_adj
        if adj is None:
            n = self.n
            directed = self.directed
            adj = [[] if directed else [ROOT] for _ in range(n + 1)]
            adj[ROOT] = list(range(1, n + 1))
            for u, v in self._eindex:
                adj[u].append(v)
                if not directed:
                    adj[v].append(u)
            self._out_adj = adj
        return adj

    def _key(self, u: int, v: int) -> tuple[int, int]:
        if self.directed:
            return (u, v)
        return (u, v) if u < v else (v, u)

    def has_edge(self, u: int, v: int) -> bool:
        return self._key(u, v) in self._eindex

    @staticmethod
    def endpoints(u, v) -> tuple[int, int]:
        """(u, v) normalised with operator.index, so numpy ints become
        Python ints; a non-integer endpoint raises GraphError."""
        try:
            return index(u), index(v)
        except TypeError:
            raise GraphError(f"non-integer endpoint in ({u!r},{v!r})") from None

    def add_new_edge(self, u, v):
        """Add real edge (u, v) and return it normalised, or return None
        for a self-loop or an edge already present.

        The endpoints are normalised (see endpoints) before either check
        and before any state is touched, so numpy ints are stored (and
        returned) as Python ints.  A non-integer or out-of-range endpoint
        raises GraphError and changes nothing.
        """
        # endpoints() and _key() inlined: this runs once per insertion
        try:
            u, v = index(u), index(v)
        except TypeError:
            raise GraphError(f"non-integer endpoint in ({u!r},{v!r})") from None
        if u == v:
            if not 1 <= u <= self.n:
                raise GraphError(f"endpoint out of range in ({u},{v})")
            return None
        key = (u, v) if u < v or self.directed else (v, u)
        eindex = self._eindex
        if key in eindex:
            return None
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise GraphError(f"endpoint out of range in ({u},{v})")
        m = self.m
        if m == len(self._eu):
            self._eu = np.concatenate([self._eu, np.empty_like(self._eu)])
            self._ev = np.concatenate([self._ev, np.empty_like(self._ev)])
        eindex[key] = None
        self._eu[m] = u
        self._ev[m] = v
        self.m = m + 1
        adj = self._out_adj
        if adj is not None:
            adj[u].append(v)
            if not self.directed:
                adj[v].append(u)
        return u, v

    def add_edge(self, u: int, v: int):
        """Add real edge (u, v) and return it normalised, or raise
        GraphError and change nothing (see add_new_edge); a self-loop or a
        duplicate raises too."""
        edge = self.add_new_edge(u, v)
        if edge is None:
            raise GraphError(f"self-loop or duplicate edge ({u!r},{v!r})")
        return edge

    def remove_edge(self, u: int, v: int):
        """Take back (u, v), the last edge added; IncrementalDfs undoes an
        insertion with it.  Any other edge raises GraphError, changing nothing."""
        key = self._key(u, v)
        eindex = self._eindex
        if not eindex or next(reversed(eindex)) != key:
            raise GraphError(f"({u},{v}) is not the last edge added")
        del eindex[key]
        self.m -= 1
        adj = self._out_adj
        if adj is not None:
            adj[u].pop()
            if not self.directed:
                adj[v].pop()

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
    preorder lists a subtree in mirrored preorder, the one walk that
    intervals (and through it the validity oracle and order_times),
    recompute_dfn and the sdfs2 bristle rebuild share.
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
        """Recompute post-order ranks from the current structure, in place
        (callers may hold the dfn list)."""
        dfn = self.dfn
        for rank, v in enumerate(reversed(self.preorder()), 1):
            dfn[v] = rank
        self.dfn_valid = True

    def preorder(self, root: int = ROOT) -> list[int]:
        """root's subtree in mirrored preorder: pop a vertex, list it, push
        its children, so the last child's subtree comes first.  Read
        backwards, the list is the subtree's post-order."""
        order = []
        visit = order.append
        children = self.children
        stack = [root]
        pop = stack.pop
        push = stack.extend
        while stack:
            v = pop()
            visit(v)
            push(children[v])
        return order

    def intervals(self, depth: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """Each vertex's 0-based post-order rank and its subtree's preorder
        interval [start, end], in children order, as int64 arrays from one
        preorder walk; depth, when given, is the tree's depth as an int64
        array.  The children lists must be a permutation of 1..n, which
        is_valid_dfs_tree checks before it calls this.

        Read backwards, the mirrored preorder is the post-order, so
        position gives the rank.  In preorder, the last vertex of v's
        subtree follows v's depth proper ancestors and the rank vertices
        that finish before v, so end = rank + depth, and start = end -
        size + 1.  Intervals are nested or disjoint: u and v are
        ancestor-related iff theirs overlap, and v's subtree lies wholly
        after u's iff start[v] > end[u].
        """
        n1 = self.n + 1
        order = self.preorder()
        rank = np.empty(n1, dtype=np.int64)
        rank[np.fromiter(order, dtype=np.int64, count=n1)] = np.arange(n1 - 1, -1, -1)
        size = [1] * n1
        parent = self.parent
        for v in order[:0:-1]:  # post-order without the root: children first
            size[parent[v]] += size[v]
        if depth is None:
            depth = np.asarray(self.depth, dtype=np.int64)
        end = rank + depth
        return rank, end - np.asarray(size, dtype=np.int64) + 1, end

    def order_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Entry/exit times, from 1, of a traversal in children order, in
        closed form from intervals: start entries and start - depth exits
        come before v's entry, and end + 1 entries and rank exits before
        its exit.

        u is an ancestor of v iff pre[u] <= pre[v] and post[u] >= post[v].
        """
        rank, start, end = self.intervals()
        return 2 * start - (end - rank) + 1, end + rank + 2

    def refresh_depths(self, root: int):
        """Recompute depth of root and its subtree from parent/children
        (bookkeeping)."""
        depth = self.depth
        children = self.children
        depth[root] = depth[self.parent[root]] + 1 if root != ROOT else 0
        stack = [root]
        while stack:
            v = stack.pop()
            d = depth[v] + 1
            kids = children[v]
            for c in kids:
                depth[c] = d
            stack.extend(kids)


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


def violates(tree: DfsTree, u: int, v: int, directed: bool) -> bool:
    """True iff the new edge (u, v) is cross (undirected: its lca is
    neither endpoint) or anti-cross (directed: dfn(v) > dfn(u) and
    lca(u, v) != v; dfn must be exact), i.e. it invalidates the tree."""
    if directed:
        return tree.dfn[v] > tree.dfn[u] and lca(tree, u, v) != v
    w = lca(tree, u, v)
    return w != u and w != v


def lca(tree: DfsTree, u: int, v: int) -> int:
    """Lowest common ancestor by depth-aligned parent walk; lca(u,u)=u.
    Unchecked, for the hot path: u and v must be ids in 0..n.  For
    ancestor-related u and v the walk stops once the depths align."""
    parent = tree.parent
    # align the depths with a counted loop: no depth read per step
    k = tree.depth[u] - tree.depth[v]
    if k > 0:
        for _ in range(k):
            u = parent[u]
    else:
        for _ in range(-k):
            v = parent[v]
    while u != v:
        u = parent[u]
        v = parent[v]
    return u


def path_below(tree: DfsTree, v: int, w: int) -> list[int]:
    """The tree path from v up to the child of w, v first.  Unchecked, for
    the hot path: w must be a proper ancestor of v."""
    parent = tree.parent
    path = [v]
    while parent[v] != w:
        v = parent[v]
        path.append(v)
    return path


def static_dfs(
    graph: Graph,
    start: int = ROOT,
    restrict_to=None,
    counters: Counters | None = None,
    interrupt: bool = False,
) -> DfsTree:
    """DFS of the graph from the pseudo root.

    Children are appended in adjacency-scan order and dfn is assigned in
    post-order, so the result is deterministic for a fixed adjacency order.
    The scan stops as soon as the last vertex is discovered; the vertices
    still on the stack then finish in stack order, which yields the same
    tree and dfn as a scan of every entry.  Both naive baselines run this
    one walk and differ only in what they are charged.

    start and restrict_to are positional slots only: the DFS always runs
    from ROOT over the whole graph, and any other value raises GraphError.

    counters, when given, receives the edges_processed charge: one per
    scanned out-entry (directed) or one per edge (undirected; the second
    scan of an edge, from its other endpoint, is free).  By default it
    prices the full scan of every entry: n + m in both modes.  With
    interrupt=True (the naive-with-interrupt baseline) it prices only the
    entries reached: directed, n + m minus the entries left in the
    iterators on the stack; undirected, n tree edges plus the back edges
    scanned from their descendant end.  An undirected DFS has no cross
    edges, so a visited neighbour w of u is an ancestor of u on the stack
    or a finished descendant; the parent is the only ancestor at
    depth(u) - 1, so w closes a back edge seen from its descendant end
    exactly when depth(w) < depth(u) - 1.
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
    visited = [False] * (n + 1)
    visited[ROOT] = True
    verts = [ROOT]
    its = [iter(adj[ROOT])]
    push_v = verts.append
    push_it = its.append
    pop_v = verts.pop
    pop_it = its.pop
    left = n
    pd = -1  # depth(u) - 1, u the vertex on top of the stack
    rank = 1
    back = 0
    while left:
        u = verts[-1]
        for w in its[-1]:
            if not visited[w]:
                visited[w] = True
                parent[w] = u
                pd += 1
                depth[w] = pd + 1
                children[u].append(w)
                push_v(w)
                push_it(iter(adj[w]))
                left -= 1
                break
            elif count_back and depth[w] < pd:
                # a back edge seen from its descendant end: its first scan
                back += 1
        else:
            pop_v()
            pop_it()
            dfn[u] = rank
            rank += 1
            pd -= 1
    if count_back:
        charge = n + back
    elif interrupt:
        charge = n + graph.m - sum(map(length_hint, its))
    else:
        charge = n + graph.m
    for u in reversed(verts):
        dfn[u] = rank
        rank += 1
    tree.dfn_valid = True
    if counters is not None:
        counters.edges_processed += charge
    return tree


def restricted_dfs(adj, root, fresh, parent, depth, children) -> list:
    """Static DFS from root over the fresh vertices; returns the post-order
    of root and every vertex it entered.

    The DFS clears fresh[root], then enters every vertex w with fresh[w]
    truthy that it finds by scanning adj, in adjacency order.  On entry it
    clears fresh[w], hangs w as the last child of the vertex it was found
    from (children[u].append(w), parent[w] = u) and sets depth[w] one below
    it; root's own parent and depth (which is read) are the caller's.
    fresh may be a list or a bytearray, and the other mappings may be the
    tree's lists or scratch dicts: the repairs that must stay undone until
    they are known to succeed hand in {} / defaultdict(list).

    It charges nothing.  Every adjacency list of a visited vertex is
    scanned to the end, so the callers charge in closed form from the
    returned post-order.
    """
    post = []
    finish = post.append
    fresh[root] = False
    stack = [(root, iter(adj[root]))]
    push = stack.append
    pop = stack.pop
    while stack:
        u, it = stack[-1]
        for w in it:
            if fresh[w]:
                fresh[w] = False
                parent[w] = u
                depth[w] = depth[u] + 1
                children[u].append(w)
                push((w, iter(adj[w])))
                break
        else:
            pop()
            finish(u)
    return post


def classify_edge(tree: DfsTree, u: int, v: int, directed: bool) -> EdgeClass:
    """Classify edge (u,v) against the tree.

    Directed: tree / back (v a proper ancestor of u) / forward (u a proper
    ancestor of v) / cross when dfn(v) < dfn(u) / anti-cross otherwise.
    Undirected: ancestor relations collapse to back, the rest is cross.
    It never changes the tree: directed cross/anti-cross needs dfn_valid.
    u and v must be distinct ids in 1..n, else GraphError.
    """
    if not (1 <= u <= tree.n and 1 <= v <= tree.n):
        raise GraphError(f"endpoint out of range in ({u},{v})")
    if u == v:
        raise GraphError("identical endpoints")
    if tree.parent[v] == u or (not directed and tree.parent[u] == v):
        return EdgeClass.TREE
    if directed and tree.parent[u] == v:
        return EdgeClass.BACK
    w = lca(tree, u, v)
    if w == v:
        return EdgeClass.BACK
    if w == u:
        return EdgeClass.FORWARD if directed else EdgeClass.BACK
    if not directed:
        return EdgeClass.CROSS
    if not tree.dfn_valid:
        raise GraphError("directed classification needs an exact dfn")
    return EdgeClass.CROSS if tree.dfn[v] < tree.dfn[u] else EdgeClass.ANTI_CROSS


def is_valid_dfs_tree(graph: Graph, tree: DfsTree) -> ValidityReport:
    """DFS validity oracle: structure checks plus no anti-cross (directed)
    or no cross (undirected) among the graph's real edges.

    The checks run in a fixed order and the first failure is reported:
    root, parents in 0..n, the depth recurrence, tree edges present in the
    graph, children lists, reachability, dfn (when flagged exact), then
    the edge intervals.  Once the depth recurrence holds, the parent links
    form a tree rooted at ROOT and depth is exact, so no graph edge can
    match a parent link in both directions: every graph edge matches at
    most one child, and every child at most one graph edge (keys are
    unique).  All tree edges are present iff the number of matching graph
    edges equals the number of vertices with a real parent.

    The preorder walk lists every vertex once iff the children entries are
    a permutation of 1..n; when they are not, a walk that skips vertices
    already seen names the first vertex not reached.  Otherwise
    DfsTree.intervals gives the post-order ranks, which dfn must equal
    plus one, and the preorder intervals: a directed edge (u, v) is
    anti-cross iff start[v] > end[u], and an undirected edge is cross iff
    its intervals are disjoint in either order.
    """
    n = graph.n
    if tree.n != n:
        raise GraphError("tree/graph vertex-count mismatch")
    parent = tree.parent
    children = tree.children
    if parent[ROOT] != -1 or tree.depth[ROOT] != 0:
        return ValidityReport(False, None, "bad root")
    par = np.asarray(parent, dtype=np.int64)
    depth = np.asarray(tree.depth, dtype=np.int64)
    # range-check before any take: take wraps negative ids
    p1 = par[1:]
    off = (p1 < 0) | (p1 > n)
    if off.any():
        v = 1 + int(np.argmax(off))
        return ValidityReport(False, None, f"vertex {v} detached")
    broken = depth[1:] != depth.take(p1) + 1
    if broken.any():
        v = 1 + int(np.argmax(broken))
        return ValidityReport(False, None, f"depth broken at {v}")
    eu, ev = graph.edge_arrays()
    linked = np.count_nonzero(par.take(ev) == eu)
    if not graph.directed:
        linked += np.count_nonzero(par.take(eu) == ev)
    if linked != np.count_nonzero(p1):
        for v in range(1, n + 1):
            p = parent[v]
            if p != ROOT and not graph.has_edge(p, v):
                return ValidityReport(False, (p, v), f"tree edge ({p},{v}) not in graph")
    nkids = np.fromiter(map(len, children), dtype=np.int64, count=n + 1)
    if nkids.sum() != n:
        return ValidityReport(False, None, "children/parent mismatch")
    # all children entries in list order, each beside the vertex listing it;
    # out-of-range entries are flagged, so the clipped take never aliases
    kids = np.fromiter(chain.from_iterable(children), dtype=np.int64, count=n)
    owner = np.repeat(np.arange(n + 1), nkids)
    wrong = (kids < 1) | (kids > n) | (par.take(kids, mode="clip") != owner)
    if wrong.any():
        v = int(owner[np.argmax(wrong)])
        return ValidityReport(False, None, f"children list broken at {v}")
    # every listed child has the right parent and the parent links form a
    # tree (depth recurrence), so when the n entries are a permutation of
    # 1..n one walk down from the root lists every vertex once.  Otherwise
    # a duplicate hides some vertex, and a walk that re-entered a subtree
    # per entry would double its work at each level of such a chain.
    listed = np.zeros(n + 1, dtype=bool)
    listed[kids] = True
    if np.count_nonzero(listed) != n:
        seen = bytearray(n + 1)
        stack = [ROOT]
        while stack:
            v = stack.pop()
            if not seen[v]:
                seen[v] = True
                stack.extend(children[v])
        v = seen.index(0, 1)
        return ValidityReport(False, None, f"vertex {v} not reached from the root")
    rank, start, end = tree.intervals(depth)
    if tree.dfn_valid:
        stale = np.asarray(tree.dfn, dtype=np.int64) != rank + 1
        if stale.any():
            v = int(np.argmax(stale))
            return ValidityReport(False, None, f"dfn not post-order at {v}")
    if graph.m == 0:
        return ValidityReport(True)
    if graph.directed:
        bad = start.take(ev) > end.take(eu)
    else:
        bad = (start.take(ev) > end.take(eu)) | (start.take(eu) > end.take(ev))
    if bad.any():
        i = int(np.argmax(bad))
        u, v = int(eu[i]), int(ev[i])
        kind = "anti-cross" if graph.directed else "cross"
        return ValidityReport(False, (u, v), f"{kind} edge ({u},{v})")
    return ValidityReport(True)


def extend_stick(children, stick, cur) -> int:
    """Walk the stick down from cur, the bristle root before the latest
    repair (ROOT for the star tree), append each real vertex it leaves to
    stick, the stick proper listed top down, and return the bristle root.

    The stick is the maximal unbranched chain below the root: the first
    vertex (the root included) with 0 or >= 2 children is the bristle
    root, and the real vertices above it are the stick proper.  Under edge
    insertions it only grows (base.IncrementalDfs), so the walk resumes at
    the old bristle root, where a branch or a leaf costs one test.
    """
    kids = children[cur]
    while len(kids) == 1:
        if cur != ROOT:
            stick.append(cur)
        cur = kids[0]
        kids = children[cur]
    return cur


def stick_profile(tree: DfsTree) -> StickProfile:
    """Broomstick measurements of the tree (see extend_stick).

    l_s counts the stick proper; bristles are the n - l_s remaining real
    vertices.
    """
    stick = []
    root = extend_stick(tree.children, stick, ROOT)
    return StickProfile(len(stick), tree.n - len(stick), root)
