"""Common driver interface shared by all incremental DFS maintainers."""
from __future__ import annotations

from .core import ROOT, Counters, DfsTree, Graph


def star_tree(n: int) -> DfsTree:
    """static_dfs of the empty graph, in closed form: every real vertex
    hangs from the pseudo root in id order and finishes in that order, so
    dfn[v] = v and the root's dfn is n + 1.  No adjacency list is read."""
    tree = DfsTree(n)
    tree.parent = [-1] + [0] * n
    tree.children[ROOT] = list(range(1, n + 1))
    tree.depth = [0] + [1] * n
    tree.dfn = [n + 1, *range(1, n + 1)]
    tree.dfn_valid = True
    return tree


class IncrementalDfs:
    """Base class: owns the graph, the current tree, and the work counters.

    Subclasses implement _apply(u, v) to restore the DFS-tree invariant
    after one edge insertion, and may override _apply_batch for grouped
    updates.
    """

    name = "base"
    supports_batch = True

    def __init__(self, n: int, directed: bool = False):
        self.graph = Graph(n, directed=directed)
        self.counters = Counters()
        self.tree = star_tree(n)

    @property
    def n(self):
        return self.graph.n

    @property
    def directed(self):
        return self.graph.directed

    def insert(self, u: int, v: int) -> bool:
        """Insert one edge and restore the invariant.

        Duplicate edges (and self loops) are ignored and return False.
        Both checks run on the normalised endpoints (Graph.add_new_edge),
        so the maintainers see Python ints and a non-integer endpoint
        raises GraphError.
        """
        edge = self.graph.add_new_edge(u, v)
        if edge is None:
            return False
        self.counters.insertions += 1
        self._apply(*edge)
        return True

    def insert_batch(self, edges) -> int:
        """Insert a group of edges, restoring the invariant once at the end."""
        if not self.supports_batch:
            raise NotImplementedError(f"{self.name} has no batch mode")
        add = self.graph.add_new_edge
        fresh = []
        for u, v in edges:
            edge = add(u, v)
            if edge is not None:
                fresh.append(edge)
                self.counters.insertions += 1
        if fresh:
            self._apply_batch(fresh)
        return len(fresh)

    def _apply(self, u, v):
        raise NotImplementedError

    def _apply_batch(self, edges):
        for u, v in edges:
            self._apply(u, v)
