"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


def test_ladder_sweep_prints_its_table():
    proc = run_script("ladder_sweep.py", "--max-p", "3", "--all-k")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["p", "k", "dim"]
    rows = [line.split() for line in lines[2:]]
    # 3, 5 and 7 are prime, so every k in 1..2p is a coprime label
    assert [(row[0], row[1]) for row in rows] == [(str(p), str(k)) for p in (1, 2, 3) for k in range(1, 2 * p + 1)]
    assert all(row[-1] == "True" for row in rows)


def test_gram_demo_prints_its_table():
    proc = run_script("gram_demo.py", "--samples", "20000")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("Laughlin exponents [1, 3, 5], 2 electrons, 20000 samples")
    assert lines[1].split() == ["entry", "exact", "monte", "carlo", "stderr", "sigmas"]
    assert [line.split()[0] for line in lines[2:]] == [f"({i},{j})" for i in range(3) for j in range(3)]
