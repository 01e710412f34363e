"""Regenerate perfbench/golden.json: the exact counters and final-tree
hashes of one round of every workload at the golden seed.

    python3 perfbench/make_golden.py

Only a change that means to alter what the library computes should need
this; such a change says why in its description.
"""
import json

import harness
from run import GOLDEN
from workloads import WORKLOADS


def main():
    table = {}
    for name, wl in WORKLOADS.items():
        verdicts = harness.Verdicts()
        table[name] = harness.run_round(wl, harness.GOLDEN_SEED, verdicts).records
        if verdicts.failed:
            raise SystemExit(f"{name}: {verdicts.notes[:5]}")
    GOLDEN.write_text(json.dumps({"seed": harness.GOLDEN_SEED, "workloads": table},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
