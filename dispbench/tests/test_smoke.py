"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest dispbench/tests -q

Each workload runs once untraced and once traced. The test asserts that
every metric named in BENCHMARK.json is printed with its unit, and that
no check fails except the named known failures.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from dispbench import run, tracing, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join(root, "dispbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.PER_LAYER
    for name in workloads.KNOWN_FAILURES:
        assert any(name in w["why"] for w in SPEC["workloads"]), name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    text = "\n".join(lines[:-1])
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        line = rf"^\s+{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$"
        assert re.search(line, text, re.MULTILINE), m
    assert "error_rate = " in text
    # Every failure is one of the named known defects.
    assert result["correct"], proc.stderr
    known = sum(int(line.rsplit(":", 1)[1]) for line in lines if line.strip().startswith("known failure"))
    assert result["failed"] == known
    assert 1 <= result["attempted"]
    for line in lines:
        if line.strip().startswith("known failure"):
            assert line.split()[2].rstrip(":") in workloads.KNOWN_FAILURES


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "dispbench"), tmp_path / "dispbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "rect-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
