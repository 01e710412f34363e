"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload, shrunk to a few dozen vertices, it checks that both
modes emit exactly the metrics BENCHMARK.json names, each with its unit,
and that fail_ratio is 0 against a golden table taken from the same
code.  It then checks that a tampered golden value and a broken tree each
make fail_ratio greater than 0.  Exits non-zero on the first problem.
"""
import copy
import dataclasses
import json

import harness
import run
from harness import Seq
from workloads import WORKLOADS

WORST_CASE = {
    "wc-adfs1": Seq("wc-adfs1", "worstcase_adfs1", 24, 60, "undirected"),
    "wc-fdfs": Seq("wc-fdfs", "worstcase_fdfs", 20, 60, "dag"),
    "wc-sdfs3": Seq("wc-sdfs3", "worstcase_sdfs3", 30, 80, "undirected"),
    "wc-fdfs-s": Seq("wc-fdfs-s", "worstcase_fdfs", 12, 30, "dag"),
}


def tiny(wl):
    sequences = tuple(dataclasses.replace(s, n=30, m=150) if s.gen == "gnm" else WORST_CASE[s.name]
                      for s in wl.sequences)
    replays = tuple(dataclasses.replace(r, tail=min(r.tail, 5)) for r in wl.replays)
    streams = tuple(dataclasses.replace(s, scc_every=min(s.scc_every, 50)) for s in wl.streams)
    return dataclasses.replace(wl, sequences=sequences, replays=replays, streams=streams,
                               check_every=min(wl.check_every, 50))


def expect(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def measure(wl, golden, trace=False):
    result, _, verdicts, _, _ = run.measure(wl, harness.GOLDEN_SEED, 0, trace, golden)
    return result, verdicts


def main():
    spec = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect(sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"]),
           "workload names differ from BENCHMARK.json")
    for name, full in WORKLOADS.items():
        wl = tiny(full)
        golden = {name: harness.run_round(wl, harness.GOLDEN_SEED, harness.Verdicts()).records}
        for trace in (False, True):
            result, verdicts = measure(wl, golden, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(result)}")
            expect(result["failed"] == 0 and result["correct"],
                   f"{name} trace={trace}: {verdicts.notes[:3]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want[trace], f"{name} trace={trace}: metrics/units differ from "
                   f"BENCHMARK.json: {sorted(set(got.items()) ^ set(want[trace].items()))}")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name}: a metric value is not a number")

        key = sorted(golden[name])[0]
        tampered = {name: {**golden[name], key: {**golden[name][key]}}}
        field = "edges_processed" if "edges_processed" in tampered[name][key] else "streamed"
        tampered[name][key][field] += 1
        result, _ = measure(wl, tampered)
        expect(result["failed"] > 0, f"{name}: a tampered golden value went unnoticed")

        orig = harness.build

        def broken(*args, **kw):
            # readers see a copy of the tree with one depth off; the
            # maintainer itself keeps working on the real tree
            algo = orig(*args, **kw)
            ins = algo.insert
            real = [algo.tree]

            def insert(u, v):
                algo.tree = real[0]
                accepted = ins(u, v)
                real[0] = algo.tree
                algo.tree = copy.deepcopy(algo.tree)
                algo.tree.depth[u] += 1
                return accepted

            algo.insert = insert
            return algo

        harness.build = broken
        try:
            result, verdicts = measure(wl, golden)
        finally:
            harness.build = orig
        expect(result["failed"] > 0 and any("invalid tree" in n for n in verdicts.notes),
               f"{name}: a broken tree went unnoticed")
        print(f"selftest {name}: ok")
    print("selftest ok")


if __name__ == "__main__":
    main()
