"""Baseline maintainers that recompute the DFS tree from scratch.

SDFS reruns a full DFS after every insertion.  SDFSInt runs the same DFS
but abandons the scan as soon as every vertex has been visited, which on
random inputs skips most of the adjacency lists of the late-discovered
vertices.  Batch insertion recomputes once per batch for both.
"""
from __future__ import annotations

from .base import IncrementalDfs
from .core import static_dfs


class SDFS(IncrementalDfs):
    name = "sdfs"
    interrupt = False

    def _apply(self, u, v):
        self.tree = static_dfs(self.graph, counters=self.counters, interrupt=self.interrupt)
        self.counters.rebuilds += 1

    def _apply_batch(self, edges):
        self._apply(None, None)


class SDFSInt(SDFS):
    name = "sdfs-int"
    interrupt = True
