"""Harness self-test: every workload at a one-second budget, untraced and traced.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "--workload", "consensus_ref", "--seed", "0", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_stub_answers_are_deterministic_and_sometimes_malformed():
    from lacmas.guidance import ActRequest, build_act_prompt, parse_act_response

    import llm_stub

    replies = []
    for i in range(64):
        req = ActRequest(iteration=i, current_d=0.7, current_c=1.3, trajectory=((i, 1.0 + i, 0.1),))
        prompt = build_act_prompt(req)
        assert llm_stub.answer(prompt) == llm_stub.answer(prompt)
        replies.append(llm_stub.answer(prompt))
    malformed = sum(r == llm_stub.MALFORMED for r in replies)
    assert 0 < malformed < len(replies) // 2
    for r in replies:
        if r != llm_stub.MALFORMED:
            parse_act_response(r)
