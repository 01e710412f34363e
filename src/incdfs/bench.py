"""Benchmark harness: replay sequences, collect per-insertion metrics,
compute broomstick statistics and theoretical predictions, emit CSV.

The cost metric is edges_processed, not wall time; logarithms are natural
throughout.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adfs import ADFS1, ADFS2
from .core import GraphError, stick_profile
from .fdfs import FdfsState
from .generators import GeneratorError, UpdateSequence, batches, gen_gnm, load_dataset
from .sdfs import SDFS, SDFSInt
from .sdfs2 import Sdfs2State
from .sdfs3 import Sdfs3State

# fdfs and sdfs3 take the mode, the others directed; each rejects its bad modes
_CONSTRUCTORS = {
    "sdfs": SDFS, "sdfs-int": SDFSInt, "fdfs": FdfsState, "adfs1": ADFS1,
    "adfs2": ADFS2, "sdfs2": Sdfs2State, "sdfs3": Sdfs3State,
}
ALGORITHM_NAMES = tuple(_CONSTRUCTORS)


def make_algorithm(name: str, n: int, mode: str):
    """Instantiate a maintainer for the given graph mode.

    Only fdfs and sdfs3 enforce acyclicity in dag mode, raising
    CycleError for an insertion that closes a cycle; sdfs, sdfs-int and
    sdfs2 treat dag as directed and accept such an edge."""
    if mode not in ("undirected", "directed", "dag"):
        raise GraphError(f"unknown mode {mode!r}")
    cls = _CONSTRUCTORS.get(name)
    if cls is None:
        raise GraphError(f"unknown algorithm {name!r}")
    if issubclass(cls, FdfsState):
        return cls(n, mode)
    return cls(n, mode != "undirected")


# -- theory ----------------------------------------------------------------


def compute_pc(graph, tree) -> float:
    """Exact probability that the next uniformly random non-edge is a
    cross edge for the current tree.

    Every existing non-tree edge is a back edge in a valid undirected DFS
    tree, so the ancestor-related pairs not yet present are exactly
    (sum of real ancestor counts) - m.  A real vertex v has depth[v] - 1
    real proper ancestors, so the pairs are sum(depth[1:]) - n, and

        pc = (C(n, 2) - sum(depth[1:]) + n) / (C(n, 2) - m).
    """
    if graph.directed:
        raise GraphError("compute_pc is defined for undirected graphs")
    n = graph.n
    total = n * (n - 1) // 2
    if graph.m >= total:
        raise GraphError("graph is complete: no next edge")
    ancestor_pairs = sum(tree.depth[1:]) - n
    return (total - ancestor_pairs) / (total - graph.m)


def predict_stick(n: int, m: int, c: float = 1.0) -> int:
    """Predicted minimum stick length n - n0*, where n0* is the smallest
    bristle size whose expected internal edge count already exceeds its
    own connectivity threshold: (n0^2/n^2) m >= (n0/2)(ln n0 + c)."""
    if n < 2 or m < 1 or c < 1:
        raise GraphError(f"invalid parameters n={n}, m={m}, c={c}")
    for n0 in range(2, n + 1):
        if (n0 * n0 / (n * n)) * m >= (n0 / 2) * (math.log(n0) + c):
            return n - n0
    return 0


def fit_exponent(series):
    """Least-squares slope of ln(total) against ln(size).

    Returns (slope, residual) where residual is the sum of squared
    log-space errors."""
    if len(series) < 3:
        raise GraphError("need at least 3 points")
    xs = np.array([s[0] for s in series], dtype=float)
    ys = np.array([s[1] for s in series], dtype=float)
    if (xs <= 0).any() or (ys <= 0).any():
        raise GraphError("fit_exponent needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = float(np.sum((slope * lx + intercept - ly) ** 2))
    return float(slope), residual


# -- experiment driver -----------------------------------------------------


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


class MetricRow(NamedTuple):
    m: int | float
    delta: int | float
    cumulative: int | float
    ls: int | float
    bristle: int | float
    pc: float
    rebuilds: int | float


@dataclass
class ExperimentConfig:
    algo: str
    n: int = 100
    m: int = 200
    seed: int = 0
    trials: int = 1
    mode: str = "undirected"
    batch: bool = False
    dataset: str | None = None
    sample_every: int = 1


CSV_HEADER = "m,delta,cumulative,ls,bristle,pc,rebuilds"


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


def write_csv(rows, fh):
    fh.write(CSV_HEADER + "\n")
    for r in rows:
        fh.write(",".join(_fmt(x) for x in r) + "\n")


def read_csv(fh):
    header = fh.readline().strip()
    if header != CSV_HEADER:
        raise GeneratorError(f"unexpected CSV header {header!r}")
    rows = []
    for line in fh:
        parts = line.strip().split(",")
        vals = [float(p) if ("." in p or "e" in p or "inf" in p) else int(p) for p in parts]
        rows.append(MetricRow(*vals))
    return rows


def replay(algo, seq: UpdateSequence, batch: bool = False, sample_every: int = 1):
    """Run one sequence through one maintainer, sampling metric rows every
    sample_every insertions (plus a final row)."""
    if sample_every < 1:
        raise GraphError(f"sample_every must be >= 1, got {sample_every}")
    rows = []
    prev_cum = 0
    inserted = 0
    next_sample = sample_every
    undirected = not algo.directed

    def snapshot():
        nonlocal prev_cum
        cum = algo.counters.edges_processed
        prof = stick_profile(algo.tree)
        total = algo.n * (algo.n - 1) // 2
        pc = 0.0
        if undirected and algo.graph.m < total:
            pc = _sig6(compute_pc(algo.graph, algo.tree))
        rows.append(
            MetricRow(algo.graph.m, cum - prev_cum, cum, prof.l_s, prof.bristle, pc,
                      algo.counters.rebuilds)
        )
        prev_cum = cum

    use_batch = batch and algo.supports_batch
    groups = batches(seq) if use_batch else ([e] for e in seq.edges)
    for group in groups:
        if use_batch and len(group) > 1:
            algo.insert_batch(group)
        else:
            for u, v in group:
                algo.insert(u, v)
        inserted += len(group)
        if inserted >= next_sample:
            snapshot()
            next_sample = (inserted // sample_every + 1) * sample_every
    if not rows or rows[-1].m != algo.graph.m:
        snapshot()
    return rows


def _mean_rows(per_trial):
    """Positionwise mean across trials (trials may differ in length when
    sequences differ; the mean covers the common prefix)."""
    if len(per_trial) == 1:
        return []
    length = min(len(rows) for rows in per_trial)
    out = []
    for i in range(length):
        cols = list(zip(*(rows[i] for rows in per_trial)))
        out.append(MetricRow(*(_sig6(sum(c) / len(c)) for c in cols)))
    return out


def run_experiment(config: ExperimentConfig):
    """Replay trials and return per-trial rows followed by mean rows."""
    if config.trials < 1:
        raise GraphError("trials must be >= 1")
    per_trial = []
    if config.dataset is not None:  # every trial replays the same file
        dataset = load_dataset(config.dataset, directed=config.mode != "undirected")
    for trial in range(config.trials):
        if config.dataset is not None:
            seq = dataset
        else:
            seq = gen_gnm(config.n, config.m, seed=config.seed + trial, mode=config.mode)
        algo = make_algorithm(config.algo, seq.n, config.mode)
        if trial == 0 and config.batch and not algo.supports_batch:
            # replay falls back to per-edge inserts
            warnings.warn(f"{config.algo} has no batch mode; using per-edge inserts")
        per_trial.append(replay(algo, seq, batch=config.batch,
                                sample_every=config.sample_every))
    rows = [r for rows in per_trial for r in rows]
    rows.extend(_mean_rows(per_trial))
    return rows
