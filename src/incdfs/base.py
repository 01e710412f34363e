"""Common driver interface shared by all incremental DFS maintainers,
and the one stick view they all read (IncrementalDfs)."""
from __future__ import annotations

from .core import ROOT, Counters, CycleError, DfsTree, Graph, GraphError, extend_stick


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
    """Base class: owns the graph, the current tree, the work counters and
    the stick view.

    Subclasses implement _apply(u, v) to restore the DFS-tree invariant
    after one edge insertion, and _apply_batch(edges) for grouped updates
    unless they set supports_batch = False.

    The stick view: on_stick marks the stick proper, stick lists it top
    down, bristle_root is the first vertex below it, and discarded_edges
    counts the edges a maintainer forgot for touching it.  Every stick
    vertex is an ancestor of every other vertex except the stick vertices
    above it, so an edge with a marked endpoint is a back or forward edge
    and can never invalidate the tree: every maintainer tests the marks
    before it walks for ancestry.  The stick only grows (a repair sits at
    or below the bristle root, an sdfs rerun keeps it), so every
    maintainer calls _grow_stick after each repair.  _prune(q) drops the
    edges a maintainer stores on q once q joined; the default stores none.
    """

    name = "base"
    supports_batch = True

    def __init__(self, n: int, directed: bool = False):
        self.graph = Graph(n, directed=directed)
        self.counters = Counters()
        self.tree = star_tree(self.graph.n)
        self.discarded_edges = 0
        self.on_stick = bytearray(self.graph.n + 1)
        self.stick: list[int] = []
        self.bristle_root = extend_stick(self.tree.children, self.stick, ROOT)

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
        raises GraphError.  A maintainer rejects an insertion by raising
        CycleError before it changes anything, and insert takes the edge
        back; any other exception poisons the maintainer (_poison).
        """
        edge = self.graph.add_new_edge(u, v)
        if edge is None:
            return False
        try:
            self._apply(*edge)
        except CycleError:
            self.graph.remove_edge(*edge)
            raise
        except BaseException as exc:
            self._poison(exc)
            raise
        self.counters.insertions += 1
        return True

    def insert_batch(self, edges) -> int:
        """Insert a group of edges, restoring the invariant once at the end.

        If adding an edge raises, the batch's edges already added are taken
        back, last first, and the exception propagates with nothing changed;
        a repair that raises poisons the maintainer, as in insert.
        """
        if not self.supports_batch:
            raise NotImplementedError(f"{self.name} has no batch mode")
        graph = self.graph
        add = graph.add_new_edge
        fresh = []
        try:
            for u, v in edges:
                edge = add(u, v)
                if edge is not None:
                    fresh.append(edge)
        except BaseException:
            for edge in reversed(fresh):
                graph.remove_edge(*edge)
            raise
        if fresh:
            try:
                self._apply_batch(fresh)
            except BaseException as exc:
                self._poison(exc)
                raise
            self.counters.insertions += len(fresh)
        return len(fresh)

    def _apply(self, u, v):
        raise NotImplementedError

    def _grow_stick(self):
        """Extend the stick view from the bristle root (core.extend_stick);
        prune every vertex that joined, once all of them are marked."""
        start = len(self.stick)
        self.bristle_root = extend_stick(self.tree.children, self.stick, self.bristle_root)
        joined = self.stick[start:]
        for q in joined:
            self.on_stick[q] = 1
        for q in joined:
            self._prune(q)

    def _poison(self, exc):
        """Refuse every later insertion, naming exc, the first failure."""
        msg = f"{self.name} is unusable: an earlier insertion raised {exc!r}"

        def refuse(*args, **kwargs):
            raise GraphError(msg)

        self.insert = self.insert_batch = refuse

    def _prune(self, q):
        pass
