"""Self-test of the benchmark; run from the checkout root with

    python3 -m pytest perfbench -q

Small command lines of the same kinds the workloads run keep it to a few
seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from tracer import TRACED
from workloads import reduce_ops


@pytest.fixture()
def runner(tmp_path):
    with run.Runner(tmp_path, time.perf_counter()) as r:
        yield r


def traced(args: tuple[str, ...], runner: run.Runner) -> tuple[dict, str]:
    spans = runner.workdir / "spans.json"
    sample, out = runner.child([sys.executable, str(run.TRACER), str(spans), *args], "traced")
    assert sample.problem is None, sample.problem
    return json.loads(spans.read_text()), out


def test_census_output_same_with_and_without_tracing(runner):
    args = ("census", "--n", "5", "--m", "2")
    plain, out = runner.child(run.mcw_argv(args), "plain")
    assert plain.problem is None, plain.problem
    _, traced_out = traced(args, runner)
    assert out and traced_out == out


def panel_op(workdir: Path):
    """A reduce op from the fixed panel that takes relation-chain moves."""
    return next(op for op in reduce_ops(1, workdir) if op.args[2].endswith("panel-6-2-0.json"))


def test_every_traced_function_records_a_call(runner):
    commands = [
        ("enumerate", "--n", "4", "--m", "1"),
        ("census", "--n", "4", "--m", "2"),
        ("check", "--n", "3", "--m", "2", "--seed", "0"),
        panel_op(runner.workdir).args,
    ]
    calls: dict[str, int] = {}
    for args in commands:
        stats, _ = traced(args, runner)
        for name, stat in stats.items():
            calls[name] = calls.get(name, 0) + stat["calls"]
    listed = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns] + ["cli"]
    assert [name for name in listed if not calls.get(name)] == []


def test_reduce_ops_share_no_memo(runner):
    op = panel_op(runner.workdir)
    first, _ = traced(op.args, runner)
    second, _ = traced(op.args, runner)
    key_calls = first["algebra.canonical_key"]["calls"]
    assert key_calls > 0
    assert second["algebra.canonical_key"]["calls"] == key_calls


def test_benchmark_json_names_the_reported_metrics(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    totals = {name: {"calls": 1, "total_s": 0.0, "self_s": 0.0, "raised": 0, "items": 0, "true": 0}
              for name in [f"{m}.{f}" for m, fs in TRACED.items() for f in fs] + ["cli"]}
    layer = run.per_layer(totals, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    ops = reduce_ops(1, tmp_path)[:1]
    sample = run.Sample(1.0, 1.0, 1.0, 1024, None)
    e2e = run.end_to_end(ops, [[sample]], 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
