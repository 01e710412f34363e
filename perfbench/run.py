"""incdfs benchmark: replay seeded insertion sequences through the public
API and report wall-clock metrics per maintainer, with every output
checked against golden counters and independent oracles.

    python3 perfbench/run.py --workload gnm --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the library from ./src.
The load is a closed loop: one process, one caller, the next edge goes in
when the previous insert returns.  Rounds repeat until --seconds is used
up and each end-to-end metric is the median over rounds.  --trace 1
alternates untraced and traced rounds and prints the per-layer metrics
instead; spans and per-call durations go to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

from speed import CAL_REF_S

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
GOLDEN = HERE / "golden.json"
ALGOS = ("sdfs", "sdfs-int", "fdfs", "adfs1", "adfs2", "sdfs2", "sdfs3")
STICK_WALKERS = ("adfs1", "adfs2", "sdfs2")

END_TO_END_UNITS = {
    **{f"us_per_insert.{a}": "us" for a in ALGOS},
    "us_per_edge.stream": "us",
    "scc_query_ms": "ms",
    "check_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_ALGO_UNITS = {
    "absorb_us_p50": "us",
    "repair_us_p50": "us",
    "repair_us_p99": "us",
    "repair_rate": "ratio",
    "repair_time_share": "ratio",
    "ns_per_work": "ns",
    "work": "count",
    "rebuilds": "count",
    "remarked": "count",
    "stick_len": "count",
    "bristle": "count",
}

PER_LAYER_UNITS = {
    **{f"{a}.{k}": u for a in ALGOS for k, u in PER_ALGO_UNITS.items()},
    **{f"{a}.stick_walk_share_est": "ratio" for a in STICK_WALKERS},
    "core.add_edge_ns": "ns",
    "core.has_edge_ns": "ns",
    "core.lca_ns": "ns",
    "core.classify_edge_ns": "ns",
    "core.static_dfs.ns_per_work": "ns",
    "core.static_dfs_int.ns_per_work": "ns",
    "core.recompute_dfn_us": "us",
    "core.order_times_us": "us",
    "core.oracle_us_p50": "us",
    "core.oracle_us_p99": "us",
    "core.stick_profile_us": "us",
    "bench.compute_pc_us": "us",
    "streaming.drop_us_p50": "us",
    "streaming.keep_us_p50": "us",
    "streaming.keep_us_p99": "us",
    "streaming.dropped_share": "ratio",
    "streaming.peak_retained": "count",
    "streaming.retained_over_nlogn": "ratio",
    "streaming.scc_query_ms_p90": "ms",
    "generators.gen_s": "s",
    "trace.overhead": "ratio",
}


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def pct(samples, q):
    """q-th percentile of a sample list, 0.0 when there is none."""
    if not samples:
        return 0.0
    return float(numpy.percentile(samples, q))


def compare_records(verdicts, got, want, what):
    for key in sorted(set(got) | set(want)):
        verdicts.check(got.get(key) == want.get(key),
                       f"{what}: {key} is {got.get(key)}, expected {want.get(key)}")


def loop_seconds(r):
    """Scaled time of a round's replay and stream loops."""
    return sum(r.clock.total(f"insert:{a}") for a in ALGOS) + r.clock.total("stream")


def end_to_end(rounds, samples):
    def median_rate(bucket, count, scale):
        return statistics.median(scale * r.clock.total(bucket) / count(r) for r in rounds)

    m = {
        f"us_per_insert.{a}": median_rate(f"insert:{a}", lambda r: r.inserts[a], 1e6)
        for a in ALGOS
    }
    m["us_per_edge.stream"] = median_rate("stream", lambda r: r.streamed, 1e6)
    scc = [s for r in rounds for s in r.clock.scaled("scc")]
    checks = [s for r in rounds for s in r.clock.scaled("check")]
    m["scc_query_ms"] = statistics.median(scc) * 1e3
    m["check_us"] = statistics.median(checks) * 1e6
    m["setup_s"] = statistics.median(r.clock.total("setup") for r in rounds)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples.update({"scc_query_ms": len(scc), "check_us": len(checks), "setup_s": len(rounds),
                    "us_per_insert": len(rounds)})
    return m


def per_layer(pairs, tracer, probes, samples):
    """Per-layer metrics of the traced rounds.  Their times are scaled by
    the traced rounds' median speed; the per-call timers stay in ns."""
    calls = tracer.calls
    traced = [t for _, t in pairs]
    first = traced[0]
    scale = statistics.median(
        [CAL_REF_S / statistics.median(t.clock.samples) for t in traced])
    m = {}

    def p(name, q, unit=1e3):
        return pct(calls.get(name, []), q) * scale / unit

    stick_us = p("core.stick_profile", 50)
    for a in ALGOS:
        absorb = calls.get(f"{a}.absorb", [])
        repair = calls.get(f"{a}.repair", [])
        total = sum(absorb) + sum(repair)
        work = sum(t.work[a] for t in traced)
        recs = [v for k, v in first.records.items() if k.split("/")[0].split(".")[0] == a]
        m[f"{a}.absorb_us_p50"] = p(f"{a}.absorb", 50)
        m[f"{a}.repair_us_p50"] = p(f"{a}.repair", 50)
        m[f"{a}.repair_us_p99"] = p(f"{a}.repair", 99)
        m[f"{a}.repair_rate"] = len(repair) / (len(absorb) + len(repair))
        m[f"{a}.repair_time_share"] = sum(repair) / total
        m[f"{a}.ns_per_work"] = total * scale / work
        for name, field in (("work", "edges_processed"), ("rebuilds", "rebuilds"),
                            ("remarked", "vertices_remarked"), ("stick_len", "l_s"),
                            ("bristle", "bristle")):
            m[f"{a}.{name}"] = sum(r[field] for r in recs)
        if a in STICK_WALKERS:
            m[f"{a}.stick_walk_share_est"] = len(repair) * stick_us * 1e3 / (total * scale)
        samples.update({f"{a}.absorb_us_p50": len(absorb), f"{a}.repair_us_p50": len(repair),
                        f"{a}.repair_us_p99": len(repair)})
    for key in probes[0]:
        m[key] = statistics.median(pr[key] for pr in probes) * scale
    m["core.oracle_us_p50"] = p("core.is_valid_dfs_tree", 50)
    m["core.oracle_us_p99"] = p("core.is_valid_dfs_tree", 99)
    m["core.stick_profile_us"] = stick_us
    m["bench.compute_pc_us"] = p("bench.compute_pc", 50)
    m["streaming.drop_us_p50"] = p("streaming.drop", 50)
    m["streaming.keep_us_p50"] = p("streaming.keep", 50)
    m["streaming.keep_us_p99"] = p("streaming.keep", 99)
    m["streaming.dropped_share"] = (sum(s[3] for s in first.streams)
                                    / sum(s[4] for s in first.streams))
    m["streaming.peak_retained"] = max(s[2] for s in first.streams)
    m["streaming.retained_over_nlogn"] = max(peak / (n * math.log(n))
                                             for _, n, peak, _, _ in first.streams)
    m["streaming.scc_query_ms_p90"] = p("streaming.scc_query", 90, 1e6)
    m["generators.gen_s"] = statistics.median(t.clock.total("gen") for t in traced)
    m["trace.overhead"] = statistics.median(loop_seconds(t) / loop_seconds(u) for u, t in pairs)
    samples.update({name: len(calls.get(name, [])) for name in (
        "core.is_valid_dfs_tree", "core.stick_profile", "bench.compute_pc",
        "streaming.drop", "streaming.keep", "streaming.scc_query")})
    samples.update({"trace.overhead": len(pairs), "probes": len(probes)})
    return m


def write_trace(tracer, workload, seed, facts):
    out = CHECKOUT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = out / f"trace-{workload}-seed{seed}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"machine": facts, "span_fields": ["id", "name", "start_ns", "end_ns", "parent"],
                   "spans": tracer.spans}, fh)
    numpy.savez_compressed(f"{stem}.npz", **{k: numpy.asarray(v, dtype=numpy.int64)
                                             for k, v in tracer.calls.items()})
    return stem


def measure(wl, seed, seconds, trace, golden):
    """Run rounds of the workload for about `seconds`.  Returns the result
    object, the sample counts, the verdicts, the tracer and the untraced
    rounds."""
    import harness

    verdicts = harness.Verdicts()
    tracer = harness.Tracer() if trace else None
    rounds, pairs, probes = [], [], []
    start = time.perf_counter()
    while True:
        r = harness.run_round(wl, seed, verdicts)
        rounds.append(r)
        if len(rounds) == 1 and seed == harness.GOLDEN_SEED:
            compare_records(verdicts, r.records, golden.get(wl.name, {}), "golden")
        else:
            compare_records(verdicts, r.records, rounds[0].records, "round")
        if trace:
            t = harness.run_round(wl, seed, verdicts, tracer)
            compare_records(verdicts, t.records, r.records, "traced")
            probes.append(harness.core_probes(t, tracer))
            t.finals.clear()
            pairs.append((r, t))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    samples = {}
    if trace:
        metrics = per_layer(pairs, tracer, probes, samples)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(rounds, samples)
        units = END_TO_END_UNITS
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, samples, verdicts, tracer, rounds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import harness
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"run.py: cannot load the library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["workloads"]
    facts = machine_facts()
    result, samples, verdicts, tracer, rounds = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), golden)
    first = rounds[0]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": facts,
        "speed": statistics.median(r.clock.speed() for r in rounds),
        "samples": samples,
        "peak_retained_vs_4nlnn": {key: [peak, round(4 * n * math.log(n))]
                                   for key, n, peak, _, _ in first.streams},
        "fail_ratio": verdicts.failed / verdicts.attempted,
        "failures": verdicts.notes[:20],
    }
    if tracer is not None:
        info["trace_files"] = str(write_trace(tracer, args.workload, args.seed, facts)
                                  .relative_to(CHECKOUT)) + ".{json,npz}"
    for note in verdicts.notes[:20]:
        print(f"FAILED: {note}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
