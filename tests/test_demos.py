"""Every demo runs end to end on the library API, and the coverage draws
keep their verdicts."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo, line", [
    ("certify_bump_showcase.py", "certify_frame verdict: certified"),
    ("random_window_gallery.py",
     "     0        4.265e-17    certified    4.567e-07    1.744e-19"),
    ("rational_vs_irrational.py",
     "      64   7.185118e-04     2.222909e-04"),
], ids=["certify_bump_showcase", "random_window_gallery",
        "rational_vs_irrational"])
def test_demo_runs(demo, line):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    proc = subprocess.run([sys.executable, f"demos/{demo}"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
    # upper_bound_rowsum is a row-count estimate, not a bound
    assert "rigorous" not in proc.stdout


def test_coverage_table_bands():
    """The verdicts of all five bands of the coverage draws, 0.50-0.99, as
    recorded in ROADMAP's coverage table; the two near-critical bands run
    the longest determinant scans."""
    spec = importlib.util.spec_from_file_location(
        "coverage_table", ROOT / "demos" / "coverage_table.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    bands = demo.coverage_draws()
    assert [len(draws) for draws in bands] == [12] * 5
    row0 = "row 0 has no good pair on part of (0, alpha)"
    floor = "no determinant floor found"
    assert [demo.band_verdicts(draws)[:2] for draws in bands] == [
        (7, {row0: 5}), (8, {row0: 3, floor: 1}), (9, {floor: 3}),
        (8, {floor: 4}), (3, {floor: 9})]
