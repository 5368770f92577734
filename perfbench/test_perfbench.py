"""Smoke tests of the benchmark at toy scale.

Every workload runs end to end in this process and must emit exactly
the metrics ``BENCHMARK.json`` declares, with their units.  A tampered
``serve`` reply must be caught by the correctness check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _main(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--toy"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_declared_workloads_are_the_runnable_ones():
    assert WORKLOADS == list(run.WORKLOADS)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(run.LAYER_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_exactly_the_declared_metrics(capsys, workload, trace):
    code, result = _main(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


@pytest.mark.parametrize("tamper", ["theta", "type"])
def test_tampered_serve_reply_fails_the_run(capsys, monkeypatch, tamper):
    import repro.serving.protocol as protocol

    real_read_frame = protocol.read_frame

    async def tampering_read_frame(reader):
        reply = await real_read_frame(reader)
        if reply and reply.get("type") == "result" and reply.get("id") == 0:
            if tamper == "theta":
                reply["theta"][0][0] += 1e-12
            else:
                reply["type"] = "busy"
        return reply

    monkeypatch.setattr(protocol, "read_frame", tampering_read_frame)
    code, result = _main(capsys, "serve", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_checkout_without_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
