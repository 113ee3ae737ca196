"""Smoke test of the benchmark: a short untraced and traced run of every
workload, plus the refusal to run without the sources.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess, expected: list[dict]) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    digests = re.search(r"digest=(\S+)", proc.stderr).group(1)
    return result, dict(pair.split(":") for pair in digests.split(","))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_traced_outputs_match(workload):
    plain, plain_digest = parse(run(workload, 0), SPEC["end_to_end"])
    traced, traced_digest = parse(run(workload, 1), SPEC["per_layer"])
    assert traced["metrics"]["error_rate"]["value"] == 0
    # a one-second run may not reach every input of a rotation
    common = plain_digest.keys() & traced_digest.keys()
    assert common and all(plain_digest[k] == traced_digest[k] for k in common)


def test_refuses_to_run_without_sources():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
