"""The library's import set: ``scipy.stats`` and ``networkx`` stay out.

Both cost a large share of a short report's wall time and memory on
first import, and nothing on the library's paths needs them:
``spearman`` takes its Student-t tail from ``scipy.special`` and the
fat-tree's distance queries are arithmetic.  A fresh interpreter is the
only place the check means anything, since the test session itself
imports both.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = textwrap.dedent(
    """
    import sys

    import repro
    import repro.figures.registry
    import repro.pipeline
    import repro.validation
    from repro.analysis.stats import spearman
    from repro.cluster.topology import FatTreeTopology

    spearman([1.0, 3.0, 2.0, 5.0, 4.0], [2.0, 1.0, 4.0, 3.0, 6.0])
    assert FatTreeTopology(64).hop_distance(0, 40) == 4
    print(sorted(m for m in ("scipy.stats", "networkx") if m in sys.modules))
    """
)


def test_library_imports_neither_scipy_stats_nor_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
