"""Audit of the uncharged work: the charge must price the wall time.

The Counters docstring leaves tree bookkeeping unmetered: ancestry walks
(core.lca), branch walks (core.path_below) and walks over a subtree
(DfsTree.preorder, DfsTree.refresh_depths).  edges_processed stands in
for time only while those uncharged steps per charged unit stay bounded
as n grows.  This test counts them by wrapping those module-level names,
replays every maintainer and mode at two sizes four times apart, and
asserts that the steps per charged unit at the larger size are at most K
times those at the smaller.

K = 2 was fixed before the first run: steps per unit that grow like
sqrt(n) or faster fail it.  An ancestry walk that crosses the whole
stick for every insertion grows like n per unit at full density.

sdfs and sdfs-int are left out: their charge prices a naive full rerun
for every insertion, n + m units, whatever their code runs, so a walk
would vanish against it at any size.
"""
from __future__ import annotations

import pytest

import incdfs.adfs
import incdfs.core
import incdfs.fdfs
import incdfs.sdfs3
from incdfs.adfs import ADFS1
from incdfs.bench import make_algorithm
from incdfs.core import ROOT, DfsTree
from incdfs.generators import (
    gen_gnm,
    gen_worstcase_adfs1,
    gen_worstcase_fdfs,
    gen_worstcase_sdfs3,
)

K = 2.0

# maintainer and mode replayed on full-density gen_gnm at n = 128 and 512
GNM_CASES = [
    ("adfs1", "undirected"), ("adfs2", "undirected"),
    ("sdfs2", "undirected"), ("sdfs2", "directed"),
    ("fdfs", "dag"), ("fdfs", "directed"),
    ("sdfs3", "undirected"), ("sdfs3", "directed"), ("sdfs3", "dag"),
]

# each adversarial family with the maintainer it targets, at n and 4n
FAMILIES = {
    "wc-adfs1": (lambda n: gen_worstcase_adfs1(n, 4 * n),
                 lambda n: ADFS1(n, adversarial_order=True), 64),
    "wc-fdfs": (lambda n: gen_worstcase_fdfs(n, n * n // 8),
                lambda n: make_algorithm("fdfs", n, "dag"), 32),
    "wc-sdfs3": (lambda n: gen_worstcase_sdfs3(n, 2 * n),
                 lambda n: make_algorithm("sdfs3", n, "undirected"), 64),
}


def _count_walks(monkeypatch):
    """Wrap the walks the maintainers call; return the step tally, keyed
    by walk: lca's alignment and lock-step steps, path_below's length and
    the vertices preorder and refresh_depths visit."""
    steps = {"lca": 0, "path_below": 0, "tree": 0}
    lca, path_below = incdfs.core.lca, incdfs.core.path_below
    preorder, refresh_depths = DfsTree.preorder, DfsTree.refresh_depths

    def counted_lca(tree, u, v):
        w = lca(tree, u, v)
        depth = tree.depth
        steps["lca"] += max(depth[u], depth[v]) - depth[w]
        return w

    def counted_path_below(tree, v, w):
        path = path_below(tree, v, w)
        steps["path_below"] += len(path)
        return path

    def counted_preorder(self, root=ROOT):
        order = preorder(self, root)
        steps["tree"] += len(order)
        return order

    def counted_refresh_depths(self, root):
        refresh_depths(self, root)
        steps["tree"] += len(preorder(self, root))

    for module in (incdfs.core, incdfs.adfs, incdfs.fdfs, incdfs.sdfs3):
        monkeypatch.setattr(module, "lca", counted_lca)
        if hasattr(module, "path_below"):
            monkeypatch.setattr(module, "path_below", counted_path_below)
    monkeypatch.setattr(DfsTree, "preorder", counted_preorder)
    monkeypatch.setattr(DfsTree, "refresh_depths", counted_refresh_depths)
    return steps


def _steps_per_unit(monkeypatch, algo, edges):
    steps = _count_walks(monkeypatch)
    for u, v in edges:
        algo.insert(u, v)
    monkeypatch.undo()
    return sum(steps.values()) / algo.counters.edges_processed, steps


def _assert_bounded(label, small, large):
    (r1, s1), (r2, s2) = small, large
    print(f"{label}: steps per unit {r1:.3f} -> {r2:.3f} ({s1} -> {s2})")
    assert r2 <= K * r1, (
        f"{label}: uncharged steps per unit grew {r2 / r1:.2f}x, over K = {K}: "
        f"{r1:.3f} ({s1}) -> {r2:.3f} ({s2})")


@pytest.mark.parametrize("name,mode", GNM_CASES)
def test_uncharged_steps_per_unit_on_full_gnm(monkeypatch, name, mode):
    ratios = []
    for n in (128, 512):
        m = n * (n - 1) if mode == "directed" else n * (n - 1) // 2
        seq = gen_gnm(n, m, seed=0, mode=mode)
        ratios.append(_steps_per_unit(monkeypatch, make_algorithm(name, n, mode), seq.edges))
    _assert_bounded(f"{name} {mode}", *ratios)


# adfs1's adversarial pool order pops back edges whose endpoints lie far
# apart in depth, and lca aligns across that whole gap for every pop: 22
# steps per unit at n = 64 and 88 at n = 256, nearly all of them on back
# edges.  A fix needs an ancestry test that a re-hang keeps.  strict: once
# it is fixed, the mark must go.
_ADFS1_WALK = pytest.mark.xfail(
    strict=True, reason="adfs1's lca walk on its adversarial family is uncharged")


@pytest.mark.parametrize("family", [
    pytest.param("wc-adfs1", marks=_ADFS1_WALK), "wc-fdfs", "wc-sdfs3",
])
def test_uncharged_steps_per_unit_on_adversarial_families(monkeypatch, family):
    gen, build, n = FAMILIES[family]
    ratios = []
    for size in (n, 4 * n):
        seq = gen(size)
        ratios.append(_steps_per_unit(monkeypatch, build(seq.n), seq.edges))
    _assert_bounded(family, *ratios)
