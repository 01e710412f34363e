"""The benchmark's golden counters, replayed as part of the test suite.

One untimed round of every benchmark workload at the golden seed must
reproduce perfbench/golden.json exactly: per maintainer and stream the
insertions, edges_processed, rebuilds, vertices_remarked, stick
measurements and a hash of the final tree, with every checkpoint, SCC
query and retained-edge bound passing.  The benchmark's own tiny-size
self-test runs as well.  The perfbench modules are imported read-only and
no bytecode is written next to them.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_perfbench():
    sys.path.insert(0, str(PERFBENCH))
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import harness
        import run
        from workloads import WORKLOADS
    finally:
        sys.dont_write_bytecode = writes
    return harness, run, WORKLOADS


harness, run, WORKLOADS = _import_perfbench()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def test_golden_seed_matches_harness():
    assert GOLDEN["seed"] == harness.GOLDEN_SEED


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_round(name):
    verdicts = harness.Verdicts()
    res = harness.run_round(WORKLOADS[name], harness.GOLDEN_SEED, verdicts)
    run.compare_records(verdicts, res.records, GOLDEN["workloads"][name], "golden")
    assert verdicts.attempted > len(res.records)
    assert verdicts.failed == 0, verdicts.notes[:5]


def test_benchmark_selftest():
    proc = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest ok" in proc.stdout
