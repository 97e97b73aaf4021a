"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the root.

Runs every workload at minimal size, untraced and traced, and checks the
printed result against BENCHMARK.json.  Not part of the package's test
suite (``testpaths`` names only ``tests``).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload):
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = run_bench(workload, trace)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]
        assert proc.returncode == (0 if result["correct"] else 1)
        units = {m["name"]: m["unit"] for m in spec}
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name)
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
            assert f"{name} {metric['value']} {metric['unit']}" in lines
        assert any(line.startswith("failed_frac ") for line in lines)


def test_benchmark_json_matches_the_code():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import layers
    import run
    import workloads

    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == list(layers.LAYER_METRICS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("growth_model", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_and_nesting():
    sys.path.insert(0, HERE)
    from tracing import Tracer, tail_value

    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(1000))
    mod.outer = lambda: [mod.inner() for _ in range(3)]
    original = mod.outer
    tracer = Tracer()
    tracer.span(mod, "inner", "inner")
    tracer.span(mod, "outer", "outer")
    with tracer:
        mod.outer()
    assert mod.outer is original
    assert [s.name for s in tracer.spans] == ["inner"] * 3 + ["outer"]
    assert len({s.task for s in tracer.spans}) == 1
    assert tracer.sanity_problems() == []
    selfs = tracer.self_times()
    outer = tracer.spans[-1]
    inner_total = sum(s.duration for s in tracer.spans[:3])
    assert selfs[id(outer)] == pytest.approx(outer.duration - inner_total)
    assert tail_value(list(range(10))) is None
    assert tail_value(list(range(20))) == 9
