"""mcw benchmark: runs one workload through the mcw command line, one child
process at a time (a closed loop with one client), checks every output and
prints one JSON result as the last line of standard output.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's op list is run in whole passes for about
``--seconds`` seconds, and the result holds the end-to-end metrics.  With
``--trace 1`` each op runs once untraced and once under ``tracer.py``, and
the result holds the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import TRACED
from workloads import OP_LIMIT_S, WORKLOADS, Op

ROOT = Path(__file__).resolve().parents[1]
TRACER = Path(__file__).resolve().parent / "tracer.py"
SPAWNER = Path(__file__).resolve().parent / "spawner.py"
SETUP_REPEATS = 11
# No op starts after this many seconds, so a run ends within 180 s even when
# the program hangs; ops left unstarted count as failed.
HARD_STOP_S = 120.0
# The host's speed drifts: on the 2-vCPU machine this benchmark was written
# on, the time of a fixed pure-Python loop ranged over a factor of two within
# minutes, and op times followed it.  Every time is therefore scaled to a
# reference speed, at which calibration_s() returns REFERENCE_S, using the
# loop's time just before and just after the op.  A first version of this
# cut the quartile spread of census wall_s over six runs from 9.7 % to 2.2 %.
REFERENCE_S = 0.035


def calibration_s() -> float:
    """Time of a fixed pure-Python job that allocates, sorts and hashes
    tuples, as mcw does."""
    start = time.perf_counter()
    rows = [(i * 7919 % 1009, i, (i, i + 1)) for i in range(30_000)]
    rows.sort()
    table = {row: i for i, row in enumerate(rows)}
    sum(len(row[2]) for row in table)
    return time.perf_counter() - start


@dataclass
class Sample:
    """One process.  ``wall_s`` and ``cpu_s`` are at the reference speed;
    ``raw_wall_s`` is the wall time as the clock read it."""

    wall_s: float
    cpu_s: float
    raw_wall_s: float
    rss_kb: int
    problem: str | None


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONSTARTUP", None)
    return env


def mcw_argv(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "mcw.cli", *args]


class Runner:
    """Runs the measured processes of one benchmark run, through
    ``spawner.py``, inside ``workdir``; no process starts after the hard
    stop, counted from ``started``."""

    def __init__(self, workdir: Path, started: float) -> None:
        self.workdir = workdir
        self.started = started
        self.env = _child_env()
        self.spawner = subprocess.Popen(
            [sys.executable, str(SPAWNER)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def remaining(self) -> float:
        return HARD_STOP_S - (time.perf_counter() - self.started)

    def child(self, argv: list[str], name: str) -> tuple[Sample, str]:
        """Run one process with its output in ``workdir/name``; return its
        sample and, if it exited 0, its standard output.  A process over
        the per-op limit is killed and charged the limit."""
        limit = min(OP_LIMIT_S, self.remaining())
        if limit <= 0:
            return Sample(OP_LIMIT_S, 0.0, OP_LIMIT_S, 0, "not started before the hard stop"), ""
        out_path, err_path = self.workdir / f"{name}.out", self.workdir / f"{name}.err"
        request = {"argv": argv, "out": str(out_path), "err": str(err_path),
                   "env": self.env, "cwd": str(ROOT), "limit_s": limit}
        before = calibration_s()
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        scale = 2 * REFERENCE_S / (before + calibration_s())
        if not reply:
            raise SystemExit("the spawner process exited")
        r = json.loads(reply)
        sample = Sample(r["wall_s"] * scale, r["cpu_s"] * scale, r["wall_s"], r["rss_kb"], None)
        if r["wall_s"] >= limit:
            sample.wall_s = sample.raw_wall_s = limit
            sample.problem = f"over the {limit:g} s limit"
        elif r["code"] != 0:
            err = err_path.read_text(encoding="utf-8", errors="replace").strip()
            sample.problem = f"exit {r['code']}: {err[-300:]}"
        if sample.problem:
            return sample, ""
        return sample, out_path.read_text(encoding="utf-8")

    def op(self, op: Op, traced_spans: Path | None = None) -> Sample:
        """Run one op, untraced or under the tracer, and check its output."""
        if traced_spans is None:
            sample, out = self.child(mcw_argv(op.args), "op")
        else:
            argv = [sys.executable, str(TRACER), str(traced_spans), *op.args]
            sample, out = self.child(argv, "traced")
        if sample.problem is None:
            try:
                sample.problem = op.check(out)
            except (ValueError, KeyError, TypeError) as exc:
                sample.problem = f"unreadable output: {exc!r}"
        return sample

    def setup(self) -> float:
        """Median time of ``mcw --help``: interpreter start plus importing
        the CLI and every layer.  One untimed start compiles the bytecode
        first."""
        times = []
        for i in range(SETUP_REPEATS + 1):
            sample, out = self.child(mcw_argv(("--help",)), "help")
            if sample.problem is not None or "Usage" not in out:
                raise SystemExit(f"mcw does not start: {sample.problem}")
            if i:
                times.append(sample.wall_s)
        return statistics.median(times)

    def timed(self, ops: list[Op], seconds: float) -> list[list[Sample]]:
        """Whole passes over ``ops`` while another pass fits in ``seconds``."""
        samples: list[list[Sample]] = [[] for _ in ops]
        t0 = time.perf_counter()
        passes = 0
        while True:
            for i, op in enumerate(ops):
                samples[i].append(self.op(op))
            passes += 1
            elapsed = time.perf_counter() - t0
            if elapsed * (passes + 1) / passes > seconds:
                return samples

    def traced(self, ops: list[Op]):
        """Each op once untraced and once traced; returns the samples, the
        span totals summed over the traced ops, and traced over untraced
        wall."""
        samples = []
        untraced_wall = traced_wall = 0.0
        totals: dict[str, dict[str, float]] = {}
        spans_path = self.workdir / "spans.json"
        for op in ops:
            plain = self.op(op)
            spans_path.unlink(missing_ok=True)
            traced = self.op(op, spans_path)
            samples.append(plain if plain.problem else traced)
            untraced_wall += plain.wall_s
            traced_wall += traced.wall_s
            if spans_path.exists():
                for name, stat in json.loads(spans_path.read_text()).items():
                    acc = totals.setdefault(name, dict.fromkeys(stat, 0))
                    for key, value in stat.items():
                        acc[key] += value
        return samples, totals, traced_wall / untraced_wall


def _sum_of_medians(samples: list[list[Sample]], field: str) -> float:
    return sum(statistics.median(getattr(s, field) for s in per_op) for per_op in samples)


def end_to_end(ops: list[Op], samples: list[list[Sample]], setup_s: float) -> dict:
    rss = [statistics.median(s.rss_kb for s in per_op) for per_op in samples]
    wall = _sum_of_medians(samples, "wall_s")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (_sum_of_medians(samples, "cpu_s"), "s"),
        "throughput_per_s": (sum(op.items for op in ops) / wall, "1/s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
    }


def _fn_metric(field: str, stat: dict) -> tuple[float, str]:
    if field == "true_ratio":
        return (stat["true"] / stat["calls"] if stat["calls"] else 0.0), "ratio"
    if field == "rejected":
        return stat["raised"], "count"
    return stat[field], ("s" if field.endswith("_s") else "count")


# Per-layer metrics as "module.function.field"; see README.md for the
# end-to-end metric and workload each one should move.
PER_LAYER = [
    "geometry.enumerate_dissections.self_s", "geometry.enumerate_dissections.items",
    "serialize.dumps.self_s", "serialize.dissection_to_json.self_s",
    "geometry.faces.calls", "geometry.faces.self_s",
    "algebra.quiver_of.calls", "algebra.quiver_of.self_s",
    "algebra.components.calls", "algebra.components.self_s",
    "algebra.full_relation_cycles.calls", "algebra.full_relation_cycles.self_s",
    "homology.smith_normal_form.calls", "homology.smith_normal_form.self_s",
    "homology.cartan_matrix.calls", "homology.cartan_matrix.self_s",
    "homology.derived_invariant.total_s",
    "homology.determinant.calls", "homology.determinant.self_s",
    "geometry.apply_move.calls", "geometry.apply_move.self_s",
    "mutation.preserves_invariant.calls", "mutation.preserves_invariant.total_s",
    "mutation.preserves_invariant.true_ratio",
    "mutation.realizability_report.calls", "mutation.realizability_report.total_s",
    "mutation.tilting_mutation_plus.calls", "mutation.tilting_mutation_plus.self_s",
    "mutation.tilting_mutation_plus.rejected",
    "mutation.tilting_mutation_minus.calls", "mutation.tilting_mutation_minus.self_s",
    "mutation.tilting_mutation_minus.rejected",
    "mutation.remove_relation_chain.calls", "mutation.remove_relation_chain.rejected",
    "mutation.record_move.calls", "mutation.record_move.total_s",
    "algebra.canonical_form.calls", "algebra.canonical_form.self_s",
    "algebra.canonical_key.calls",
    "algebra.iso_quivers.calls", "algebra.iso_quivers.self_s",
    "normalform.reduce_component.calls", "normalform.reduce_component.total_s",
    "normalform.reduce_component.self_s", "normalform.build_normal_form.self_s",
]


def per_layer(totals: dict, overhead_ratio: float) -> dict:
    missing = [
        f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns
        if f"{mod}.{fn}" not in totals
    ]
    if missing:
        raise SystemExit(f"tracer recorded nothing for {', '.join(missing)}")
    metrics = {}
    for metric in PER_LAYER:
        name, field = metric.rsplit(".", 1)
        metrics[metric] = _fn_metric(field, totals[name])
    moves = ("tilting_mutation_plus", "tilting_mutation_minus", "remove_relation_chain")
    attempted = sum(totals[f"mutation.{m}"]["calls"] for m in moves)
    accepted = attempted - sum(totals[f"mutation.{m}"]["raised"] for m in moves)
    metrics["mutation.accept_ratio"] = (accepted / attempted if attempted else 0.0, "ratio")
    metrics["cli.self_s"] = (totals["cli"]["self_s"], "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    if not (ROOT / "src" / "mcw" / "cli.py").is_file():
        print(f"error: no mcw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with (
        tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp,
        Runner(Path(tmp), started) as runner,
    ):
        setup_s = runner.setup()
        ops = WORKLOADS[args.workload](args.seed, runner.workdir)
        if args.trace:
            flat, totals, ratio = runner.traced(ops)
            metrics = per_layer(totals, ratio)
        else:
            per_op = runner.timed(ops, args.seconds)
            flat = [s for per in per_op for s in per]
            metrics = end_to_end(ops, per_op, setup_s)
            raw = _sum_of_medians(per_op, "raw_wall_s")
            print(f"{args.workload} wall_s as the clock read it = {raw:.6g} s", file=sys.stderr)

    problems = [s.problem for s in flat if s.problem]
    for problem in sorted(set(problems)):
        print(f"failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(flat),
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
