"""Independent brute-force oracles used across the test suite.

These deliberately avoid the library's own helpers wherever a result is
being checked: ancestor sets are materialized explicitly, classification
is done from first principles, and SCCs come either from scipy's csgraph
on the full edge list (offline_scc) or from mutual reachability by BFS
from every vertex (brute_scc), never from the package's strong_components.
"""
import copy
import random
from collections import deque

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from incdfs.adfs import ADFS1, ADFS2
from incdfs.base import IncrementalDfs
from incdfs.core import (
    ROOT,
    DfsTree,
    EdgeClass,
    Graph,
    GraphError,
    ValidityReport,
    lca,
    static_dfs,
)
from incdfs.fdfs import CycleError, FdfsState
from incdfs.generators import GeneratorError, UpdateSequence, _adfs1_layout
from incdfs.sdfs2 import Sdfs2State
from incdfs.sdfs3 import Sdfs3State


def offline_scc(n, edges):
    """Reference partition via scipy's strong connectivity."""
    if edges:
        u, v = zip(*edges)
    else:
        u, v = (), ()
    mat = csr_matrix(
        (np.ones(len(edges)), (np.array(u, dtype=int) - 1, np.array(v, dtype=int) - 1)),
        shape=(n, n),
    )
    _, labels = connected_components(mat, directed=True, connection="strong")
    comps = {}
    for vertex, lab in enumerate(labels, start=1):
        comps.setdefault(lab, []).append(vertex)
    out = [sorted(c) for c in comps.values()]
    out.sort(key=lambda c: c[0])
    return out


def brute_scc(n, adj):
    """Partition of 1..n into mutually reachable classes, by BFS from every
    vertex over the out-lists adj[1..n] (adj[0] is not read)."""
    reach = []
    for s in range(1, n + 1):
        seen = {s}
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        reach.append(seen)
    comps = []
    placed = set()
    for s in range(1, n + 1):
        if s not in placed:
            comp = [t for t in range(1, n + 1) if t in reach[s - 1] and s in reach[t - 1]]
            placed.update(comp)
            comps.append(comp)
    return comps


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


# dag insertions that close a cycle, each after its prefix: y an ancestor
# of x; the repair DFS entering x; the repair DFS entering a blocked
# ancestor of x
DAG_CYCLE_CASES = [
    ([(1, 2), (2, 3)], (3, 1)),
    ([(3, 1), (1, 4)], (4, 3)),
    ([(1, 2), (3, 1)], (2, 3)),
]


def state_snapshot(algo):
    """Deep copy of everything an insertion may change: the graph, the
    tree with dfn (and fdfs's dfn_index) and the four counters."""
    g, t, c = algo.graph, algo.tree, algo.counters
    return copy.deepcopy((
        g.m, g.real_edges(), g.out_adj, g._eindex,
        t.parent, t.children, t.depth, t.dfn, t.dfn_valid,
        getattr(algo, "dfn_index", None),
        c.edges_processed, c.rebuilds, c.insertions, c.vertices_remarked,
    ))


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


class ReferenceSdfs(IncrementalDfs):
    """SDFS that reruns static_dfs on every insertion: the reference for
    SDFS, which reruns it only for a cross or anti-cross edge and charges
    a kept tree in closed form."""

    name = "sdfs"
    interrupt = False

    def _apply(self, u, v):
        self.tree = static_dfs(self.graph, counters=self.counters, interrupt=self.interrupt)
        self.counters.rebuilds += 1

    def _apply_batch(self, edges):
        self._apply(None, None)


class ReferenceSdfsInt(ReferenceSdfs):
    name = "sdfs-int"
    interrupt = True


class _ScanningPool:
    """ADFS pool drain that rescans the whole pool on every pop, keying
    each entry from the current depths: the reference for the heap pool,
    which re-keys once per re-hang."""

    def _drain(self):
        while self.pending:
            u, v = self._pop()
            self._process(u, v)

    def _pop_adversarial(self):
        # deepest shallower endpoint first, then shallowest deeper
        # endpoint: picks the stage witness in the worst-case replays
        depth = self.tree.depth
        best_i, best_key = 0, None
        for i, (u, v) in enumerate(self.pending):
            du, dv = depth[u], depth[v]
            key = (min(du, dv), -max(du, dv), -min(u, v), -max(u, v))
            if best_key is None or key > best_key:
                best_i, best_key = i, key
        return self.pending.pop(best_i)

    def _pop_min_shallow(self):
        # ADFS2: minimum-depth shallower endpoint, ties on its vertex id
        depth = self.tree.depth
        best_i, best_key = 0, None
        for i, (u, v) in enumerate(self.pending):
            if depth[u] > depth[v] or (depth[u] == depth[v] and u > v):
                u, v = v, u
            key = (depth[u], u, v)
            if best_key is None or key < best_key:
                best_i, best_key = i, key
        return self.pending.pop(best_i)


class ReferenceAdfs1(_ScanningPool, ADFS1):
    def _pop(self):
        if self.adversarial_order:
            return self._pop_adversarial()
        return self.pending.pop()


class ReferenceAdfs2(_ScanningPool, ADFS2):
    def _pop(self):
        return self._pop_min_shallow()


class ReferenceSdfs2(Sdfs2State):
    """Sdfs2State with the bristle rebuild that charges one scan at a time
    and renumbers a directed tree whole: the reference for
    Sdfs2State._rebuild, which charges in closed form and ranks only the
    bristles."""

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
                adj[q] = tree.children[q] + self.stored[q]
            else:
                up = [] if q == root else [tree.parent[q]]
                adj[q] = tree.children[q] + up + self.stored[q]
        adj[eu] = adj[eu] + [ev]
        if not self.directed:
            adj[ev] = adj[ev] + [eu]
        old_edges = set()
        for q in bristles:
            if q != ROOT:
                for c in tree.children[q]:
                    old_edges.add((q, c))
            for t in self.stored[q]:
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
        if self.directed:
            tree.recompute_dfn()  # the anti-cross test reads dfn
        else:
            tree.dfn_valid = False

        for q in bristles:
            self.stored[q] = []
            if self._stored_in is not None:
                self._stored_in[q] = []
        for a, b in old_edges:
            if parent[b] == a:
                continue
            if not self.directed and parent[a] == b:
                continue
            self._store(a, b)
        self._grow_stick()


def _reject_reference(algo, x, y):
    """IncrementalDfs.insert takes the edge back out of the graph."""
    raise CycleError(f"insertion ({x},{y}) closes a cycle")


def _taking_back_rejects(apply):
    """A reference's _apply whose rejected insertions take back their
    charge and their remarks, as the library's do."""

    def wrapped(self, x, y):
        c = self.counters
        before = c.edges_processed, c.vertices_remarked
        try:
            apply(self, x, y)
        except CycleError:
            c.edges_processed, c.vertices_remarked = before
            raise

    return wrapped


class ReferenceFdfs(FdfsState):
    """FdfsState with the rebuild that scans and charges one out-entry at a
    time over epoch-stamped scratch marks and renumbers from a post-order
    walk of the spliced subtree: the reference for FdfsState._rebuild, which
    runs core.restricted_dfs and charges in closed form."""

    _apply = _taking_back_rejects(FdfsState._apply)

    def __init__(self, n, mode="dag"):
        super().__init__(n, mode=mode)
        self._stamp = [0] * (n + 1)
        self._epoch = 0

    def _rebuild(self, x, y, w):
        tree = self.tree
        dfn, index = tree.dfn, self.dfn_index
        c = y
        if self.mode == "directed":
            while tree.parent[c] != w:
                c = tree.parent[c]
        lo, hi = dfn[x], dfn[c]
        self._epoch += 1
        epoch, stamp = self._epoch, self._stamp
        VISITED, BLOCKED = epoch, -epoch
        a = tree.parent[x]
        while a != w:
            stamp[a] = BLOCKED
            a = tree.parent[a]

        def eligible(v):
            return lo < dfn[v] <= hi and stamp[v] != BLOCKED

        # phase 1: partial DFS from y over the candidate set
        adj = self.graph.out_adj
        stamp[y] = VISITED
        dfs_children = {y: []}
        stack = [(y, iter(adj[y]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for t in it:
                self.counters.edges_processed += 1
                if self.mode == "dag" and (t == x or stamp[t] == BLOCKED):
                    _reject_reference(self, x, y)
                if stamp[t] != VISITED and eligible(t):
                    stamp[t] = VISITED
                    dfs_children[v].append(t)
                    dfs_children[t] = []
                    stack.append((t, iter(adj[t])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()

        # phase 2: splice the reached set in as a subtree rooted at y
        reached = dfs_children.keys()
        for v in reached:
            p = tree.parent[v]
            if stamp[p] != VISITED:
                tree.children[p].remove(v)
        for v in reached:
            keep = [c for c in tree.children[v] if stamp[c] != VISITED]
            tree.children[v] = dfs_children[v] + keep
            for c in dfs_children[v]:
                tree.parent[c] = v
        tree.parent[y] = x
        tree.children[x].append(y)
        tree.depth[y] = tree.depth[x] + 1
        walk = [y]
        while walk:
            v = walk.pop()
            dv = tree.depth[v] + 1
            for c in tree.children[v]:
                tree.depth[c] = dv
                walk.append(c)

        # phase 3: renumber the contiguous rank interval [lo, hi]
        old_block = [index[r] for r in range(lo, hi + 1)]
        post = []
        walk = [(y, False)]
        while walk:
            v, done = walk.pop()
            if done:
                post.append(v)
                continue
            walk.append((v, True))
            for c in reversed(tree.children[v]):
                walk.append((c, False))
        moved = set(post)
        new_block = post + [x]
        new_block += [v for v in old_block if v not in moved and v != x]
        for r, v in zip(range(lo, hi + 1), new_block):
            dfn[v] = r
            index[r] = v
        self.counters.rebuilds += 1


class ReferenceSdfs3(Sdfs3State):
    """Sdfs3State with the repair loops that scan and charge one entry at a
    time: the reference for Sdfs3State's restricted_dfs repairs, which
    charge in closed form.  Its directed loop finds the candidates by a
    scan over all ranks and renumbers the whole tree with recompute_dfn,
    where Sdfs3State shares fdfs's phase 1 and renumbers only the candidate
    interval.  _apply dispatches to the loops here, never to
    FdfsState._apply, so the library's directed repair is not compared with
    itself."""

    def __init__(self, n, mode="undirected"):
        super().__init__(n, mode=mode)
        self._stamp = [0] * (n + 1)
        self._epoch = 0

    @_taking_back_rejects
    def _apply(self, x, y):
        self.counters.edges_processed += 1
        if self.directed:
            self._apply_directed(x, y)
        else:
            self._apply_undirected(x, y)

    def _subtree_walker(self, root):
        stack = [root]
        while stack:
            v = stack.pop()
            stack.extend(self.tree.children[v])
            yield v

    def _apply_undirected(self, x, y):
        tree = self.tree
        w = lca(tree, x, y)
        if w == x or w == y:
            return
        r1 = x
        while tree.parent[r1] != w:
            r1 = tree.parent[r1]
        r2 = y
        while tree.parent[r2] != w:
            r2 = tree.parent[r2]
        it1, it2 = self._subtree_walker(r1), self._subtree_walker(r2)
        while True:
            if next(it2, None) is None:
                root, entry, anchor = r2, y, x
                break
            self.counters.vertices_remarked += 1
            if next(it1, None) is None:
                root, entry, anchor = r1, x, y
                break
            self.counters.vertices_remarked += 1
        members = list(self._subtree_walker(root))
        # per-member state: 0 unvisited, 1 active, 2 finished
        state = {v: 0 for v in members}
        for v in members:
            tree.children[v] = []
        tree.children[w].remove(root)
        parent, depth, children = tree.parent, tree.depth, tree.children
        adj = self.graph.out_adj
        parent[entry] = anchor
        depth[entry] = depth[anchor] + 1
        children[anchor].append(entry)
        state[entry] = 1
        stack = [(entry, iter(adj[entry]))]
        while stack:
            q, it = stack[-1]
            advanced = False
            for t in it:
                if t == ROOT:
                    continue
                st = state.get(t)
                if st is None or st == 0 or (st == 1 and parent[q] != t):
                    self.counters.edges_processed += 1
                if st == 0:
                    state[t] = 1
                    parent[t] = q
                    depth[t] = depth[q] + 1
                    children[q].append(t)
                    stack.append((t, iter(adj[t])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                state[q] = 2
        tree.dfn_valid = False
        self.counters.rebuilds += 1

    def _apply_directed(self, x, y):
        tree = self.tree
        if not tree.dfn_valid:
            tree.recompute_dfn()
        dfn = tree.dfn
        if dfn[x] >= dfn[y]:
            return
        w = lca(tree, x, y)
        if w == y:
            if self.mode == "dag":
                _reject_reference(self, x, y)
            return
        lo = dfn[x]
        if self.mode == "dag":
            hi = dfn[y]
        else:
            c = y
            while tree.parent[c] != w:
                c = tree.parent[c]
            hi = dfn[c]
        self._epoch += 1
        epoch, stamp = self._epoch, self._stamp
        CAND, SEEN = epoch, -epoch
        candidates = [v for v in range(1, tree.n + 1) if lo < dfn[v] <= hi]
        blocked = set()
        a = tree.parent[x]
        while a != w:
            blocked.add(a)
            a = tree.parent[a]
        candidates = [v for v in candidates if v not in blocked]
        for v in candidates:
            stamp[v] = CAND
        self.counters.vertices_remarked += len(candidates)
        roots = sorted(
            (v for v in candidates if stamp[tree.parent[v]] != CAND),
            key=lambda v: dfn[v],
        )
        adj = self.graph.out_adj

        # phase 1: resume through (x, y), mutation deferred
        stamp[y] = SEEN
        dfs_children = {y: []}
        stack = [(y, iter(adj[y]))]
        while stack:
            q, it = stack[-1]
            advanced = False
            for t in it:
                self.counters.edges_processed += 1
                if self.mode == "dag" and (t == x or t in blocked):
                    for v in dfs_children:
                        stamp[v] = 0
                    _reject_reference(self, x, y)
                if stamp[t] == CAND:
                    stamp[t] = SEEN
                    dfs_children[q].append(t)
                    dfs_children[t] = []
                    stack.append((t, iter(adj[t])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()

        parent, depth, children = tree.parent, tree.depth, tree.children
        touched_parents = {parent[r] for r in roots}
        for v in candidates:
            children[v] = []
        for v, kids in dfs_children.items():
            children[v] = kids
            for k in kids:
                parent[k] = v
        parent[y] = x
        children[x].append(y)
        depth[y] = depth[x] + 1
        walk = [y]
        while walk:
            q = walk.pop()
            dq = depth[q] + 1
            for k in children[q]:
                depth[k] = dq
                walk.append(k)

        # phase 2: re-traverse every detached subtree whose root was not
        # absorbed, left to right, re-hung in place
        for r in roots:
            if stamp[r] != CAND:
                continue
            stamp[r] = SEEN
            stack = [(r, iter(adj[r]))]
            while stack:
                q, it = stack[-1]
                advanced = False
                for t in it:
                    self.counters.edges_processed += 1
                    if stamp[t] == CAND:
                        stamp[t] = SEEN
                        parent[t] = q
                        depth[t] = depth[q] + 1
                        children[q].append(t)
                        stack.append((t, iter(adj[t])))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()

        for p in touched_parents:
            children[p] = [ch for ch in children[p] if parent[ch] == p]
        tree.recompute_dfn()
        self.counters.rebuilds += 1


# -- reference adversarial ADFS1 generator ----------------------------------
#
# gen_worstcase_adfs1 as it was when it replayed a shortlist of 8 shapes in
# both drain orders (18 replays per call) and walked the final trees with
# its own Euler tour.  The library now picks the estimate's top shape and
# replays it twice; its edges and meta must equal these.  The layout itself
# (_adfs1_layout) is unchanged and shared.


def _euler_intervals(tree):
    """Entry/exit times of every vertex in the given rooted tree."""
    n = len(tree.parent) - 1
    tin = [0] * (n + 1)
    tout = [0] * (n + 1)
    clock = 0
    stack = [(0, False)]
    while stack:
        v, done = stack.pop()
        if done:
            tout[v] = clock
            continue
        tin[v] = clock
        clock += 1
        stack.append((v, True))
        for c in tree.children[v]:
            stack.append((c, False))
    return tin, tout


def _comparable(tin, tout, a, b):
    return (tin[a] <= tin[b] < tout[a]) or (tin[b] <= tin[a] < tout[b])


def _reference_replay_adfs(n: int, edges, adversarial: bool):
    algo = ADFS1(n, adversarial_order=True) if adversarial else ADFS2(n)
    for u, v in edges:
        algo.insert(u, v)
    return algo


def reference_gen_worstcase_adfs1(n: int, m: int) -> UpdateSequence:
    """Adversarial undirected family: drained in the worst pool order the
    re-hanging maintainer pays Theta(sqrt(m) * n^1.5) in total, while the
    shallowest-first drain order pays only a constant per stage after the
    one-off pool collection.

    Every stage tips the whole head chain over (the trigger), then the
    adversarial order replays the head-tail pool plus the stage witness.
    The sequence length is Theta(m); parameters are chosen by replaying a
    small shortlist of candidate shapes and keeping the one with the
    largest measured cost ratio between the two drain orders.
    """
    if not (1 <= n <= m <= n * (n - 1) // 2):
        raise GeneratorError(
            f"parameter combination infeasible: need n <= m <= n(n-1)/2, got n={n}, m={m}"
        )
    k0 = max(2, round((m / n) ** 0.5))
    shapes = []
    for k in sorted({k0, max(2, k0 - 1), 2}, reverse=True):
        for n_s in range(1, n + 1):
            # vertex budget: n_s*(k+2) + p + 3k - 1 <= n
            p_v = n - (n_s * (k + 2) + 3 * k - 1)
            # edge budget: p*(k+1) + n_s*(k+4) + 3k - 3 <= m
            p_e = (m - (n_s * (k + 4) + 3 * k - 3)) // (k + 1)
            p = min(p_v, p_e)
            if p < 2:
                break
            ecount = p * (k + 1) + n_s * (k + 4) + 3 * k - 3
            est_c1 = ecount + n_s * (p * k + 1)
            est_c2 = ecount + p * k + n_s + 1
            shapes.append((est_c1 / est_c2, est_c1, n_s, p, k))
    if not shapes:
        raise GeneratorError(
            "parameter combination infeasible: need n >= 4*n_s + p + 3k - 1 "
            f"and m >= p(k+1) + n_s(k+4) + 3k - 3 with n_s >= 1, p >= 2, k >= 2 "
            f"(got n={n}, m={m})"
        )
    shapes.sort(reverse=True)
    best = None
    for _, _, n_s, p, k in shapes[:8]:
        edges, used, meta = _adfs1_layout(n_s, p, k)
        c1 = _reference_replay_adfs(n, edges, adversarial=True).counters.edges_processed
        c2 = _reference_replay_adfs(n, edges, adversarial=False).counters.edges_processed
        key = (c1 / c2, c1, -n_s)
        if best is None or key > best[0]:
            best = (key, edges, used, meta, c1, c2)
    _, edges, used, meta, c1, c2 = best
    meta.update({"replay_cost_adversarial": c1, "replay_cost_default": c2})
    # the construction needs only Theta(m) insertions; pad toward m/3 with
    # edges that are back edges in both final trees, so neither drain
    # order's behaviour changes
    target = max(len(edges), -(-m // 3))
    if target > len(edges):
        meta["topup_start"] = len(edges)
        t1 = _reference_replay_adfs(n, edges, adversarial=True)
        t2 = _reference_replay_adfs(n, edges, adversarial=False)
        tin1, tout1 = _euler_intervals(t1.tree)
        tin2, tout2 = _euler_intervals(t2.tree)
        for a in range(1, used + 1):
            if len(edges) >= target:
                break
            for b in range(a + 1, used + 1):
                if t1.graph.has_edge(a, b):
                    continue
                if _comparable(tin1, tout1, a, b) and _comparable(tin2, tout2, a, b):
                    edges.append((a, b))
                    if len(edges) >= target:
                        break
    edges = edges[:m]
    return UpdateSequence(
        n=n,
        directed=False,
        dag=False,
        edges=edges,
        provenance="worstcase-adfs1",
        meta=meta,
    )


def _post_ranks(post: np.ndarray) -> np.ndarray:
    """Post-order ranks 1..len(post) from the exit times post."""
    ranks = np.empty(len(post), dtype=np.int64)
    ranks[np.argsort(post)] = np.arange(1, len(post) + 1)
    return ranks


def reference_order_times(tree):
    """DfsTree.order_times as it was before the closed form: entry/exit
    times of a traversal in children order, by an Euler walk of its own.
    Kept verbatim as the reference; unlike the closed form it also runs on
    children lists that are not a permutation.

    u is an ancestor of v iff pre[u] <= pre[v] and post[u] >= post[v].
    """
    n1 = tree.n + 1
    pre = [0] * n1
    post = [0] * n1
    t = 0
    children = tree.children
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


def reference_is_valid_dfs_tree(graph, tree) -> ValidityReport:
    """The validity oracle as it was before the vectorised passes: Euler
    times from reference_order_times, a has_edge loop over the tree edges
    and argsort ranks.  Kept verbatim as the differential reference."""
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
    pre, post = reference_order_times(tree)
    if not pre.all():
        v = int(np.argmin(pre))
        return ValidityReport(False, None, f"vertex {v} not reached from the root")
    if tree.dfn_valid:
        # stored dfn must be the post-order of the traversal just done:
        # post-order rank is the rank of the exit time
        ranks = _post_ranks(post)
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


def reference_compute_pc(graph, tree) -> float:
    """compute_pc as it was before the closed form, kept verbatim as the
    differential reference."""
    if graph.directed:
        raise GraphError("compute_pc is defined for undirected graphs")
    n = graph.n
    total = n * (n - 1) // 2
    if graph.m >= total:
        raise GraphError("graph is complete: no next edge")
    ancestor_pairs = sum(tree.depth[v] - 1 for v in range(1, n + 1))
    return (total - ancestor_pairs) / (total - graph.m)
