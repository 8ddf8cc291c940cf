"""Self-tests of the benchmark on tiny saturation cells (each well under 1 s).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import LAYERS, Layer, Tracer, layer_metrics  # noqa: E402

TINY = ["m_alpha(9,1/3)", "m_alpha(10,1/3)"]


@pytest.fixture
def fake_module(monkeypatch):
    """A module ``fakepkg.layers`` whose outer() calls inner() by global name."""
    mod = types.ModuleType("fakepkg.layers")
    exec(
        "def inner():\n    return 1\n"
        "def outer():\n    return inner() + inner()\n",
        mod.__dict__,
    )
    monkeypatch.setitem(sys.modules, "fakepkg.layers", mod)
    return mod


def test_self_time_subtracts_nested_spans(fake_module):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])  # outer [0,10], inner [1,3] and [4,7]
    layers = [Layer("fake.outer", "fakepkg.layers", "outer"),
              Layer("fake.inner", "fakepkg.layers", "inner")]
    with Tracer(layers, package="fakepkg", clock=lambda: next(ticks)) as tr:
        assert fake_module.outer() == 2
    assert fake_module.outer.__name__ == "outer"  # restored on exit
    assert tr.stats["fake.outer"]["calls"] == 1
    assert tr.stats["fake.inner"]["calls"] == 2
    assert tr.stats["fake.outer"]["self_s"] == pytest.approx(10.0 - 2.0 - 3.0)
    assert tr.stats["fake.inner"]["self_s"] == pytest.approx(5.0)
    names = [tr.span_names[i] for i in tr.span_name]
    assert names == ["fake.inner", "fake.inner", "fake.outer"]
    outer_id = tr.span_id[2]
    assert list(tr.span_parent) == [outer_id, outer_id, -1]


def test_missing_layer_is_reported_and_run_finishes():
    from equiangular.exactnum import parse_scalar
    from equiangular import saturate

    layers = [Layer("saturate.scan", "equiangular.saturate", "_candidate_data_gone"),
              *[layer for layer in LAYERS if layer.name != "saturate.scan"]]
    with Tracer(layers) as tr:
        assert saturate.m_alpha(9, parse_scalar("1/3"), jobs=1).value == 16
    assert tr.unmeasured() == ["saturate.scan"]
    metrics = layer_metrics(tr.stats)
    assert metrics["saturate.scan.calls"][0] == 0
    assert metrics["saturate.compat.calls"][0] > 0
    assert saturate._candidate_data_raw.__name__ == "_candidate_data_raw"


def test_failed_operation_does_not_stop_the_run():
    def boom():
        raise ValueError("broken")

    ops = [("boom", boom), ("fine", lambda: {"x": (1, 2)})]
    records, solve_s = worker.run_ops(ops, {"boom": {}, "fine": {"x": [1, 2]}})
    assert [r["ok"] for r in records] == [False, True]
    assert "ValueError: broken" in records[0]["error"]
    assert solve_s > 0


def test_wrong_expectation_raises_error_rate(tmp_path):
    with open(worker.EXPECTED) as fh:
        expected = json.load(fh)
    expected["m_alpha(9,1/3)"]["value"] = 17
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    result = run.run("sat-rational", 3, 0, False, only=TINY, expected=str(path))
    summary = result["summary"]
    assert summary["correct"] is False
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert result["error_rate"] == 0.5
    failed = [op for op in result["passes"][0]["ops"] if not op["ok"]]
    assert failed[0]["op"] == "m_alpha(9,1/3)" and "value" in failed[0]["error"]


def test_cache_dir_and_optimize_do_not_reach_workers(monkeypatch, tmp_path):
    monkeypatch.setenv("EQUIANGULAR_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("PYTHONOPTIMIZE", "2")
    env = run.child_env()
    assert "EQUIANGULAR_CACHE_DIR" not in env and "PYTHONOPTIMIZE" not in env
    # the worker refuses to measure when either reaches it ...
    leaked = subprocess.run([sys.executable, run.WORKER, "--setup-only"],
                            env=dict(env, EQUIANGULAR_CACHE_DIR=str(tmp_path)),
                            capture_output=True, text=True, timeout=60)
    assert leaked.returncode == 3 and "ready" not in leaked.stdout
    # ... so a clean run proves neither got through
    result = run.run("sat-rational", 1, 0, False, only=TINY)
    assert result["summary"]["correct"] is True
    assert list(tmp_path.iterdir()) == []


def test_traced_counts_repeat_exactly():
    def counts():
        result = run.run("sat-rational", 5, 0, True, only=["m_alpha(8,1/3)", *TINY])
        summary = result["summary"]
        assert summary["correct"] is True
        metrics = summary["metrics"]
        assert metrics["trace.layers_missing"]["value"] == 0
        assert "trace.overhead_s" in metrics
        return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}

    first = counts()
    assert first["graphenum.refine.calls"] > 0 and first["saturate.scan.calls"] > 0
    assert counts() == first


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sat-rational",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
