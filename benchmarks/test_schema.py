"""Schema test for the benchmark's output (about two minutes on one core).

    python3 -m pytest -q benchmarks/test_schema.py

Checks that BENCHMARK.json, the metric tables in run.py and layertrace.py,
and what the benchmark prints all agree, that every name and unit has the
allowed form, that the trace shows what each workload claims to exercise,
and that the benchmark fails cleanly where there is no vrec source tree.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import layertrace  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(workload: str, trace: int) -> dict:
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())
    return out


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def untraced(request):
    return request.param, _result(request.param, 0)


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def traced(request):
    return request.param, _result(request.param, 1)


def _units(out: dict) -> dict:
    return {k: v["unit"] for k, v in out["metrics"].items()}


def test_spec_matches_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layertrace.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_names_and_units_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for m in metrics)


def test_end_to_end_output(untraced):
    _, out = untraced
    assert _units(out) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_per_layer_output(traced):
    workload, out = traced
    assert _units(out) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["trace.coverage"] >= 0.9
    assert m["numerics.tensors_per_sample"] > 0
    if workload == "train_pipeline":
        assert m["numerics.backward_calls"] > 0 and m["verifiers.adjust_calls"] > 0
        assert m["backbone.reencode_ratio"] == pytest.approx(2.75, abs=0.1)
        assert 0 < m["training.verifier_stats_share"] < 1
        assert m["labeling.cf_s"] > 0 and m["stage2.numerics.backward_s"] > 0
        assert 0 < m["evaluation.recall_at_10"] <= 1
    else:
        assert m["numerics.backward_calls"] == 0
        assert m["checkpoint.save_s"] > 0 and m["checkpoint.load_s"] > 0
    if workload == "serve_deep":
        assert m["backbone.reencode_ratio"] > 6 and m["verifiers.adjust_calls"] > 0
    if workload == "serve_plain":
        assert m["backbone.reencode_ratio"] == 1.0 and m["verifiers.adjust_calls"] == 0


def test_fails_without_vrec_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("serve_plain", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
