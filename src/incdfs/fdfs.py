"""FDFS: incremental DFS for DAGs and general directed graphs.

The tree's post-order numbering (dfn) and its inverse dfn_index are kept
exact.  An inserted edge (x, y) with dfn(x) >= dfn(y) never invalidates
the tree and is absorbed in O(1).  Otherwise y finished after x, so a y
on the stick (base.IncrementalDfs's view) is an ancestor of x: the edge
is a back edge, taken with w = y and no ancestry walk.  Any other edge
is tested with lca; a back edge is stored, and in dag mode rejected as a
cycle.  What is left is an anti-cross edge, repaired in phases; sdfs3's
directed modes run this same repair and only charge differently.  The
repair changes the tree only at or below w, which sits at or below the
bristle root, so the stick only grows: the marks grow after each repair.
No edge is forgotten, so discarded_edges stays 0.

Candidate set: vertices with dfn in (dfn(x), hi], excluding the proper
ancestors of x below w = lca(x, y) (the blocked ancestors), where
hi = dfn(y) in dag mode and hi = dfn(c) in directed mode with c the child
of w whose subtree contains y (the whole subtree is eligible there, not
just ranks up to y).

Phase 1 is core.restricted_dfs from y over the candidates into scratch
mappings, charging every out-entry of the reached vertices in closed form.
In dag mode x and its blocked ancestors are fresh as well: the DFS
entering any of them means y reaches x, so the insertion closes a cycle
and is rejected with CycleError before anything is written.  A rejected
insertion leaves the graph, the tree, dfn, dfn_index and all four
counters exactly as before the call.  The splice then hangs the reached
vertices from (x, y) as the subtree of y.

Only the block dfn_index[lo : hi + 1] is renumbered, lo = dfn(x):
- A candidate's old subtree lies inside (lo, hi]: its ranks are
  contiguous up to its own, and a descendant ranked at or below lo would
  make it an ancestor of x, and those are blocked.
- The repair moves only reached candidates, into y's new subtree under
  x; an unreached candidate keeps its parent and its place among its
  siblings.
- So the block's vertices take exactly the ranks lo..hi and no other
  vertex's rank changes.  In order they are y's new subtree (phase 1's
  post-order), x, then rest: the members after x that phase 1 did not
  reach, which are the unreached candidates and the blocked ancestors, in
  their old rank order.
"""
from __future__ import annotations

from collections import defaultdict

from .base import IncrementalDfs
from .core import GraphError, lca, path_below, restricted_dfs


class CycleError(GraphError):
    """Raised in dag mode when an insertion would create a cycle."""


def reject(algo, x, y):
    """Take back the insertion (x, y), which closes a cycle, and raise
    CycleError.  Callers reject before touching the tree or any counter
    except the insertion's own edges_processed unit, which goes back too."""
    algo.graph.remove_edge(x, y)
    algo.counters.insertions -= 1
    algo.counters.edges_processed -= 1
    raise CycleError(f"insertion ({x},{y}) closes a cycle")


class FdfsState(IncrementalDfs):
    name = "fdfs"
    supports_batch = False
    modes = ("dag", "directed")

    def __init__(self, n: int, mode: str = "dag"):
        if mode not in self.modes:
            raise GraphError(f"{self.name} mode {mode!r} is not one of {self.modes}")
        self.mode = mode
        super().__init__(n, directed=(mode != "undirected"))
        if self.directed:  # undirected sdfs3 never reads the ranks
            self.dfn_index = [0] * (n + 2)  # rank -> vertex
            for v, r in enumerate(self.tree.dfn):
                self.dfn_index[r] = v

    # -- candidate machinery ----------------------------------------------

    def _interval(self, x, y, w):
        """The block dfn_index[dfn(x) + 1 : hi + 1], the members ranked
        after x, and the blocked ancestors in rank order (all inside it)."""
        tree = self.tree
        c = path_below(tree, y, w)[-1] if self.mode == "directed" else y
        blocked = path_below(tree, x, w)[1:]
        return self.dfn_index[tree.dfn[x] + 1 : tree.dfn[c] + 1], blocked

    def candidate_set(self, x, y):
        """Eligible vertices for the pending anti-cross edge (x, y): directed
        and dag modes only, x and y in 1..n, dfn(x) < dfn(y) and y no
        ancestor of x."""
        tree = self.tree
        if not self.directed:
            raise GraphError("candidate set defined only in directed and dag modes")
        if not (1 <= x <= tree.n and 1 <= y <= tree.n):
            raise GraphError(f"endpoint out of range in ({x},{y})")
        if tree.dfn[x] >= tree.dfn[y]:
            raise GraphError("candidate set defined only for dfn(x) < dfn(y)")
        w = lca(tree, x, y)
        if w == y:
            raise GraphError(f"({x},{y}) is a back edge: no candidate set")
        block, blocked = self._interval(x, y, w)
        return set(block).difference(blocked)

    # -- rebuild ----------------------------------------------------------

    def _apply(self, x, y):
        tree = self.tree
        self.counters.edges_processed += 1
        if tree.dfn[x] >= tree.dfn[y]:
            return  # back/forward/cross for the maintained order: stored
        # a marked y is an ancestor of x, which finished before it
        w = y if self.on_stick[y] else lca(tree, x, y)
        if w == y:
            # back edge: y already reaches x through the tree
            if self.mode == "dag":
                reject(self, x, y)
            return
        self._rebuild(x, y, w)

    def _rebuild(self, x, y, w):
        tree = self.tree
        parent, children = tree.parent, tree.children
        block, blocked = self._interval(x, y, w)
        fresh = bytearray(len(parent))
        for v in block:
            fresh[v] = True
        # x and its blocked ancestors are no candidates; in dag mode they
        # stay fresh as tripwires: entering one of them closes a cycle
        dag = self.mode == "dag"
        for a in blocked:
            fresh[a] = dag
        fresh[x] = dag

        # phase 1: restricted DFS from y into scratch mappings, so a
        # rejection leaves the tree as it was
        adj = self.graph.out_adj
        new_parent = {y: x}  # keyed by every reached vertex
        new_children = defaultdict(list)
        post = restricted_dfs(adj, y, fresh, new_parent, {y: 0}, new_children)
        if dag and not (fresh[x] and all(map(fresh.__getitem__, blocked))):
            reject(self, x, y)
        for a in blocked:
            fresh[a] = True
        rest = [v for v in block if fresh[v]]
        self._charge(post, rest, blocked)

        # splice the reached set in as a subtree rooted at y.  A reached
        # vertex's children are all reached too (tree edges are graph
        # edges and its children's ranks lie in the interval), so its new
        # children are exactly its DFS children.
        for v in post:
            p = parent[v]
            if p not in new_parent:
                children[p].remove(v)
        for v in post:
            children[v] = new_children[v]
        for v, p in new_parent.items():
            parent[v] = p
        children[x].append(y)
        tree.refresh_depths(y)

        dfn, index = tree.dfn, self.dfn_index
        for r, v in enumerate(post + [x] + rest, dfn[x]):
            dfn[v] = r
            index[r] = v
        self.counters.rebuilds += 1
        self._grow_stick()

    def _charge(self, post, rest, blocked):
        """Phase 1 scans every out-entry of the reached vertices, post; rest
        lists the other block members after x in rank order, the blocked
        ancestors among them."""
        adj = self.graph.out_adj
        self.counters.edges_processed += sum(map(len, map(adj.__getitem__, post)))
