"""Update-sequence generators: random models, adversarial families, datasets.

Random generators draw from numpy's PCG64 so equal seeds give identical
sequences.  Adversarial generators are seedless and deterministic:
identical arguments produce byte-identical sequences.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, islice
from math import isnan
from operator import index, itemgetter

import numpy as np


class GeneratorError(ValueError):
    """Raised for infeasible generator parameters or malformed datasets."""


@dataclass
class UpdateSequence:
    n: int
    directed: bool
    dag: bool
    edges: list  # ordered (u, v) pairs, endpoints in 1..n
    provenance: str
    batch_id: list | None = None  # per-edge, non-decreasing
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.edges)

    def __post_init__(self):
        if self.dag and not self.directed:
            raise GeneratorError("dag sequences must be directed")
        if self.batch_id is not None and len(self.batch_id) != len(self.edges):
            raise GeneratorError("batch_id length mismatch")


def _edge_universe(n: int, mode: str, rng=None):
    """Endpoint arrays of the full edge universe for the given mode."""
    if mode == "undirected":
        iu, iv = np.triu_indices(n, 1)
        return iu + 1, iv + 1, None
    if mode == "directed":
        iu, iv = np.where(~np.eye(n, dtype=bool))
        return iu + 1, iv + 1, None
    if mode == "dag":
        # orient every pair from lower to higher rank in a random
        # topological permutation of the vertices
        order = rng.permutation(n) + 1
        iu, iv = np.triu_indices(n, 1)
        return order[iu], order[iv], order
    raise GeneratorError(f"unknown mode {mode!r}")


def _ints(**named) -> list[int]:
    """The named sizes and seeds, in order, normalised with operator.index
    so that numpy ints become Python ints; a non-integer raises
    GeneratorError."""
    out = []
    for name, x in named.items():
        try:
            out.append(index(x))
        except TypeError:
            raise GeneratorError(f"{name} must be an integer (got {x!r})") from None
    return out


def _rng(n: int, seed: int):
    """The PCG64 stream of a random sequence on n >= 1 vertices, seed >= 0."""
    if n < 1 or seed < 0:
        raise GeneratorError(f"need n >= 1 and seed >= 0 (got n={n}, seed={seed})")
    return np.random.Generator(np.random.PCG64(seed))


def gen_gnm(n: int, m: int, seed: int, mode: str = "undirected") -> UpdateSequence:
    """First m edges of a uniformly random permutation of the edge universe."""
    n, m, seed = _ints(n=n, m=m, seed=seed)
    rng = _rng(n, seed)
    eu, ev, order = _edge_universe(n, mode, rng)
    if not (0 <= m <= len(eu)):
        raise GeneratorError(f"m={m} out of range [0, {len(eu)}] for mode {mode}")
    perm = rng.permutation(len(eu))[:m]
    edges = list(zip(eu[perm].tolist(), ev[perm].tolist()))
    return UpdateSequence(
        n=n,
        directed=mode != "undirected",
        dag=mode == "dag",
        edges=edges,
        provenance={"undirected": "random-gnm", "directed": "random-gnm", "dag": "random-dag"}[mode],
        meta={"seed": seed, "mode": mode},
    )


def gen_gnp(n: int, p: float, seed: int) -> UpdateSequence:
    """Independent Bernoulli(p) per unordered pair, emitted in random order."""
    if not (0.0 <= p <= 1.0):
        raise GeneratorError(f"invalid probability {p}")
    n, seed = _ints(n=n, seed=seed)
    rng = _rng(n, seed)
    eu, ev, _ = _edge_universe(n, "undirected")
    keep = rng.random(len(eu)) < p
    eu, ev = eu[keep], ev[keep]
    perm = rng.permutation(len(eu))
    edges = list(zip(eu[perm].tolist(), ev[perm].tolist()))
    return UpdateSequence(
        n=n,
        directed=False,
        dag=False,
        edges=edges,
        provenance="random-gnp",
        meta={"seed": seed, "p": p},
    )


def gen_worstcase_fdfs(n: int, m: int) -> UpdateSequence:
    """Adversarial DAG family on which the partial-rebuild algorithm does
    Theta(m) work for each of n/2 trigger insertions.

    Two chains A and B of n/2 vertices; m - n/2 forward edges packed inside
    B (densest near its head), then the n/2 triggers (a_i, b_1).
    """
    n, m = _ints(n=n, m=m)
    if n % 2 or n < 4:
        raise GeneratorError("n must be even and >= 4")
    h = n // 2
    if m < h:
        raise GeneratorError(f"need m >= n/2 (got m={m})")
    capacity = h * (h - 1) // 2 - (h - 1)
    # requests beyond B's internal capacity are clamped; the trigger cost
    # is already maximal at that point
    fill = min(m - h, capacity)
    a = list(range(1, h + 1))
    b = list(range(h + 1, n + 1))
    edges = []
    # chains first: they fix the initial DFS tree as two chains under the root
    for i in range(h - 1):
        edges.append((a[i], a[i + 1]))
    for i in range(h - 1):
        edges.append((b[i], b[i + 1]))
    # acyclic fill inside B, lexicographic, skipping the chain edges
    edges.extend(_fill_within(b, fill))
    triggers = [(a[i], b[0]) for i in range(h)]
    edges.extend(triggers)
    return UpdateSequence(
        n=n,
        directed=True,
        dag=True,
        edges=edges,
        provenance="worstcase-fdfs",
        meta={"trigger_start": len(edges) - h, "fill": fill},
    )


def _adfs1_layout(n_s: int, p: int, k: int):
    """Edge list of one spine/pool/stage construction.

    Layout: a spine chain of k head vertices, a ladder of k*n_s + 1 rung
    vertices, and a tail chain of p vertices; a pool of all head-tail
    pairs; then n_s stages, each adding a short dangling chain, one
    witness edge (head top, next unused rung) and one trigger edge
    (dangle bottom, current ladder pivot) at equal depth.
    """
    ell = k * n_s + 1
    heads = list(range(1, k + 1))
    rungs = list(range(k + 1, k + 1 + ell))
    tail = list(range(k + 1 + ell, k + 1 + ell + p))
    nxt = k + ell + p
    edges = []
    chain = heads + rungs + tail
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b))
    pool_start = len(edges)
    for a in heads:
        for x in tail:
            edges.append((a, x))
    stage_start = len(edges)
    stages = []
    for t in range(1, n_s + 1):
        s0 = len(edges)
        if t == 1:
            dangle = list(range(nxt + 1, nxt + k + 2))
            nxt += k + 1
            for a, b in zip(dangle, dangle[1:]):
                edges.append((a, b))
            bottom = dangle[-1]
        elif t == 2:
            dangle = list(range(nxt + 1, nxt + k + 2))
            nxt += k + 1
            prev = rungs[0]
            for q in dangle:
                edges.append((prev, q))
                prev = q
            bottom = dangle[-1]
        else:
            # graft two fresh vertices below the deepest leftover rung of
            # stage t-2; that leftover sits k-1 below the pivot, so the
            # dangle bottom lands exactly at the trigger's target depth
            base = rungs[k * (t - 3) + 1]
            g1, g2 = nxt + 1, nxt + 2
            nxt += 2
            edges.append((base, g1))
            edges.append((g1, g2))
            bottom = g2
        head_top = heads[0] if t % 2 == 1 else heads[-1]
        edges.append((head_top, rungs[k * t]))       # witness
        edges.append((bottom, rungs[k * (t - 1)]))   # trigger
        stages.append((s0, len(edges)))
    return edges, nxt, {
        "k": k,
        "n_s": n_s,
        "p": p,
        "pool": (pool_start, stage_start),
        "stages": stages,
        "vertices_used": nxt,
    }


def _replay_adfs(n: int, edges, adversarial: bool):
    from .adfs import ADFS1, ADFS2

    algo = ADFS1(n, adversarial_order=True) if adversarial else ADFS2(n)
    for u, v in edges:
        algo.insert(u, v)
    return algo


def gen_worstcase_adfs1(n: int, m: int) -> UpdateSequence:
    """Adversarial undirected family: drained in the worst pool order the
    re-hanging maintainer pays Theta(sqrt(m) * n^1.5) in total, while the
    shallowest-first drain order pays only a constant per stage after the
    one-off pool collection.

    Every stage tips the whole head chain over (the trigger), then the
    adversarial order replays the head-tail pool plus the stage witness.
    The sequence length is Theta(m).  The shape (n_s, p, k) is the one
    with the largest estimated cost ratio between the two drain orders
    (ties go to the larger estimated adversarial cost, then to the larger
    n_s, p and k).  The chosen layout is replayed once in each drain order:
    those replays give meta's two costs and the two final trees the top-up
    is checked against.
    """
    n, m = _ints(n=n, m=m)
    if not (1 <= n <= m <= n * (n - 1) // 2):
        raise GeneratorError(
            f"parameter combination infeasible: need n <= m <= n(n-1)/2, got n={n}, m={m}"
        )
    k0 = max(2, round((m / n) ** 0.5))
    best = None
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
            shape = (est_c1 / est_c2, est_c1, n_s, p, k)
            if best is None or shape > best:
                best = shape
    if best is None:
        raise GeneratorError(
            "parameter combination infeasible: need n >= 4*n_s + p + 3k - 1 "
            f"and m >= p(k+1) + n_s(k+4) + 3k - 3 with n_s >= 1, p >= 2, k >= 2 "
            f"(got n={n}, m={m})"
        )
    edges, used, meta = _adfs1_layout(*best[2:])
    t1 = _replay_adfs(n, edges, adversarial=True)
    t2 = _replay_adfs(n, edges, adversarial=False)
    meta.update({
        "replay_cost_adversarial": t1.counters.edges_processed,
        "replay_cost_default": t2.counters.edges_processed,
    })
    # the construction needs only Theta(m) insertions; pad toward m/3 with
    # edges that are back edges in both final trees, so neither drain
    # order's behaviour changes
    target = max(len(edges), -(-m // 3))
    if target > len(edges):
        meta["topup_start"] = len(edges)
        s1, e1 = (t.tolist() for t in t1.tree.intervals()[1:])
        s2, e2 = (t.tolist() for t in t2.tree.intervals()[1:])
        has_edge = t1.graph.has_edge
        for a in range(1, used + 1):
            if len(edges) >= target:
                break
            for b in range(a + 1, used + 1):
                # a and b are ancestor-related in a tree iff their
                # preorder intervals overlap
                if (s1[a] <= e1[b] and s1[b] <= e1[a]
                        and s2[a] <= e2[b] and s2[b] <= e2[a]
                        and not has_edge(a, b)):
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


def _fill_within(vs, count):
    """First `count` lexicographic pairs inside vs, skipping chain pairs."""
    pairs = ((a, b) for i, a in enumerate(vs) for b in vs[i + 2:])
    out = list(islice(pairs, count))
    if len(out) == count:
        return out
    raise GeneratorError(
        f"internal: fill capacity exceeded ({count} edges in {len(vs)} vertices)"
    )


def gen_worstcase_sdfs3(n: int, m: int) -> UpdateSequence:
    """Adversarial undirected family forcing the smaller-subtree rebuilder
    to Theta(m^2) total work.

    Three chains hang from the root: heads A + tail X, heads B + tail Y,
    heads C + tail Z, with e_z dense edges packed into Z, e_y = e_z + k + 1
    into Y and e_x = e_z + e_y into X.  A k x k grid of cross edges
    (b_i, c_phase) then repeatedly makes the C-side the smaller subtree, so
    each of the k^2 stages rebuilds it at Theta(e_z) = Theta(m).  Two
    transition edges per phase tip first the B-side (an exact size tie) and
    then the shrunken A-side over, restoring the setup one level deeper.
    """
    n, m = _ints(n=n, m=m)
    if not (1 <= n <= m <= n * (n - 1) // 2):
        raise GeneratorError(
            f"parameter combination infeasible: need n <= m <= n(n-1)/2, got n={n}, m={m}"
        )
    best = None
    kmax = max(2, int(m ** 0.5) + 1)
    for k in range(2, kmax + 1):
        # fixed edge cost besides the dense fills: three chains
        # (6k + 4r - 1), stage grid (k^2), transitions (2k - 2), and the
        # fill surplus over 4*e_z (2k + 2)
        base = k * k + 10 * k - 1
        for r in range(2, n + 1):
            if 6 * k + 4 * r + 2 > n:
                break
            cap_z = (r - 1) * (r - 2) // 2
            e_z = min(cap_z, (m - base - 4 * r) // 4)
            if e_z < 1:
                continue
            score = k * k * (e_z + k + r)
            if best is None or score > best[0] or (score == best[0] and k < best[1]):
                best = (score, k, r, e_z)
    if best is None:
        raise GeneratorError(
            "parameter combination infeasible: need n >= 6k + 4r + 2 and "
            f"m >= k^2 + 10k + 4r + 3 with k >= 2, r >= 2 (got n={n}, m={m})"
        )
    _, k, r, e_z = best
    q = r + k + 1
    p = q + r + k
    e_y = e_z + k + 1
    e_x = e_z + e_y
    if (q - 1) * (q - 2) // 2 < e_y or (p - 1) * (p - 2) // 2 < e_x:
        raise GeneratorError("parameter combination infeasible: fill capacity")
    ids = iter(range(1, n + 1))
    A = [next(ids) for _ in range(k)]
    X = [next(ids) for _ in range(p)]
    B = [next(ids) for _ in range(k)]
    Y = [next(ids) for _ in range(q)]
    C = [next(ids) for _ in range(k)]
    Z = [next(ids) for _ in range(r)]
    edges = []
    for chain in (A + X, B + Y, C + Z):
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
    edges.extend(_fill_within(Z, e_z))
    edges.extend(_fill_within(Y, e_y))
    edges.extend(_fill_within(X, e_x))
    stage_start = len(edges)
    phases = []
    for phase in range(k):
        s0 = len(edges)
        for i in range(k):
            edges.append((B[i], C[phase]))
        if phase < k - 1:
            edges.append((A[phase], C[phase]))
            edges.append((A[phase + 1], C[phase]))
        phases.append((s0, len(edges)))
    if len(edges) > m:
        raise GeneratorError("internal: edge budget exceeded")
    return UpdateSequence(
        n=n,
        directed=False,
        dag=False,
        edges=edges,
        provenance="worstcase-sdfs3",
        meta={
            "k": k,
            "p": p,
            "q": q,
            "r": r,
            "e_x": e_x,
            "e_y": e_y,
            "e_z": e_z,
            "stage_start": stage_start,
            "phases": phases,
            "vertices_used": 6 * k + 4 * r + 2,
        },
    )


def load_dataset(path, directed: bool = False) -> UpdateSequence:
    """Read a whitespace-separated edge list: "u v" or "u v t" per line,
    '#' comments skipped.

    Vertices are re-indexed densely to 1..n in first-appearance order.
    Duplicate edges are dropped.  Equal timestamps become one batch and
    edges are stably reordered by timestamp; without timestamps every edge
    is its own batch.
    """
    rows = []
    have_ts = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GeneratorError(f"{path}:{lineno}: malformed line {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                t = float(parts[2]) if len(parts) == 3 else None
            except ValueError as exc:
                raise GeneratorError(f"{path}:{lineno}: {exc}") from None
            if t is not None and isnan(t):
                # NaN compares false with everything, so no sort orders it
                raise GeneratorError(f"{path}:{lineno}: NaN timestamp")
            if have_ts is not None and (t is not None) != have_ts:
                raise GeneratorError(f"{path}:{lineno}: inconsistent timestamp columns")
            have_ts = t is not None
            if u == v:
                continue  # self-loops carry no information here
            rows.append((u, v, t))
    if not rows:
        raise GeneratorError(f"{path}: empty dataset")
    if have_ts:
        rows.sort(key=lambda r: r[2])  # stable: ties keep file order
    index: dict[int, int] = {}
    seen = set()
    edges = []
    batches = []
    batch = -1
    last_t = object()
    for u, v, t in rows:
        du = index.setdefault(u, len(index) + 1)
        dv = index.setdefault(v, len(index) + 1)
        key = (du, dv) if directed else (min(du, dv), max(du, dv))
        if key in seen:
            continue
        seen.add(key)
        if not have_ts or t != last_t:
            batch += 1
            last_t = t
        edges.append((du, dv))
        batches.append(batch)
    return UpdateSequence(
        n=len(index),
        directed=directed,
        dag=False,
        edges=edges,
        provenance="dataset",
        batch_id=batches,
        meta={"path": str(path)},
    )


def dump_sequence(seq: UpdateSequence, path):
    """Write a sequence: header "n m directed dag", then "u v batch_id"."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{seq.n} {len(seq.edges)} {int(seq.directed)} {int(seq.dag)}\n")
        for i, (u, v) in enumerate(seq.edges):
            b = seq.batch_id[i] if seq.batch_id is not None else i
            fh.write(f"{u} {v} {b}\n")


def batches(seq: UpdateSequence):
    """Yield lists of edges grouped by batch_id (single-edge batches when
    no batch ids are present)."""
    if seq.batch_id is None:
        for e in seq.edges:
            yield [e]
        return
    for _, group in groupby(zip(seq.edges, seq.batch_id), key=itemgetter(1)):
        yield [e for e, _ in group]
