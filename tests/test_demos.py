import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "algorithm_shootout", "broomstick_emergence", "streaming_scc", "worstcase_families",
])
def test_demo_runs(demo):
    # the demos call the public API (make_algorithm, ADFS1's
    # adversarial_order, the stream); each must finish cleanly
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-B", str(ROOT / "demos" / f"{demo}.py")],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
