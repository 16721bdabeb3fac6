"""End-to-end command tests through click's runner.

Each command is checked for its output shape, its determinism, and the
documented exit codes: 0 ok, 1 invariant failure, 2 bad input, 3 cap.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from itertools import pairwise
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import mcw.algebra
import mcw.cli
import mcw.geometry
import mcw.homology
import mcw.mutation
import mcw.normalform
import mcw.render
import mcw.serialize
from conftest import gentle_by_lists, in_moved_order
from mcw.algebra import components, is_gentle, quiver, quiver_of
from mcw.cli import main
from mcw.geometry import PolygonParams, diagonal, dissection, enumerate_dissections, fuss_catalan
from mcw.mutation import apply_mutation
from mcw.normalform import NormalFormSpec, build_normal_form
from mcw.serialize import (
    dissection_from_json,
    dissection_lines,
    dissection_to_json,
    dumps,
    quiver_from_json,
    quiver_to_json,
    trace_from_json,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def runner():
    return CliRunner()


def write_dissection(path, n, m, chords):
    path.write_text(dumps(dissection_to_json(dissection(n, m, chords))) + "\n")
    return str(path)


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


def test_enumerate_pentagon(runner):
    result = invoke(runner, "enumerate", "--n", "2", "--m", "1")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 5
    parsed = [dissection_from_json(json.loads(line)) for line in lines]
    assert len(set(parsed)) == 5
    assert lines == sorted(lines)


@pytest.mark.parametrize("n,m", [(9, 1), (4, 3)])
def test_enumerate_lines_follow_the_dissection_order(runner, n, m):
    # At N = 12 and N = 17 labels reach two digits, where the lines sorted
    # as strings are no longer in the order of the dissections.
    result = invoke(runner, "enumerate", "--n", str(n), "--m", str(m))
    assert result.exit_code == 0
    lines = result.output.splitlines()
    got = [tuple(map(tuple, json.loads(line)["diagonals"])) for line in lines]
    assert all(x < y for x, y in pairwise(got))
    assert got == [t.diagonals for t in enumerate_dissections(PolygonParams(n, m))]
    assert lines != sorted(lines)


# First-line garbles, each a (text, replacement) pair.
GARBLES = [
    (", ", ","),  # the encoder's spacing lost
    ("}\n", "\n"),  # not JSON
    ("[0, 2]", "[0, 9]"),  # a chord outside the hexagon of 3/1
    ('"n": 3', '"n": 4'),  # the same chords, named for 4/1
    ('4]], "m": 1, "n": 3', '7]], "m": 1, "n": 9'),  # a chord of 9/1 only
]


def test_enumerate_refuses_a_renderer_that_disagrees(runner, tmp_path, monkeypatch):
    # The first line is compared with the encoding of the fan at vertex 0,
    # the first dissection of the requested polygon; nothing is loaded, so
    # every garble, whether not JSON or naming a chord or polygon of another
    # size, fails that text comparison before the command writes anything.
    args = ["enumerate", "--n", "3", "--m", "1"]
    for k, (old, new) in enumerate(GARBLES):

        def garbled(p, cap, old=old, new=new):
            lines = dissection_lines(p, cap)
            yield next(lines).replace(old, new)
            yield from lines

        monkeypatch.setattr(mcw.cli, "dissection_lines", garbled)
        result = invoke(runner, *args)
        assert result.exit_code == 1, old
        assert result.stdout == ""
        assert "line renderer wrote" in result.stderr
        out = tmp_path / f"e{k}.jsonl"
        assert invoke(runner, *args, "--out", str(out)).exit_code == 1
        assert not out.exists()


def test_enumerate_encodes_only_the_first_line(runner, monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(mcw.cli, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in ("dumps", "dissection_to_json"):
        monkeypatch.setattr(mcw.cli, name, counted(name))
    result = invoke(runner, "enumerate", "--n", "6", "--m", "1")
    assert result.exit_code == 0
    assert len(result.output.splitlines()) == fuss_catalan(6, 1)
    assert calls == {"dumps": 1, "dissection_to_json": 1}


def test_enumerate_is_deterministic(runner):
    a = invoke(runner, "enumerate", "--n", "3", "--m", "2")
    b = invoke(runner, "enumerate", "--n", "3", "--m", "2")
    assert a.output == b.output


def test_enumerate_rejects_bad_rank(runner):
    result = invoke(runner, "enumerate", "--n", "0", "--m", "1")
    assert result.exit_code == 2


def test_enumerate_cap(runner):
    result = invoke(runner, "enumerate", "--n", "4", "--m", "3", "--cap", "10")
    assert result.exit_code == 3


@pytest.mark.parametrize("n", ["100000", "1000000"])
def test_enumerate_refuses_a_large_n_at_once(runner, n):
    # FC(n, 1) has about 0.6 n digits: too many to print, and at n = 10^6
    # tens of seconds to compute.
    result = invoke(runner, "enumerate", "--n", n, "--m", "1")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == (
        f"error: at least 2^{n} dissections exceed the cap of 1000000\n"
    )


def test_enumerate_is_not_bound_by_the_file_size_limit(runner):
    # FC(1, m) = m + 1: at m = 50,000 the count is well inside the cap,
    # though the polygon, of 100,002 vertices, is past the file size limit.
    result = invoke(runner, "enumerate", "--n", "1", "--m", "50000")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 50_001
    assert json.loads(lines[0]) == {"diagonals": [[0, 50001]], "m": 50_000, "n": 1}


def test_refused_enumeration_writes_nothing(runner, tmp_path):
    args = ["enumerate", "--n", "4", "--m", "3", "--cap", "10"]
    result = invoke(runner, *args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "exceed the cap of 10" in result.stderr
    out = tmp_path / "e.jsonl"
    assert invoke(runner, *args, "--out", str(out)).exit_code == 3
    assert not out.exists()


@pytest.mark.parametrize("n,m", [(5, 1), (3, 2)])
def test_enumerate_out_file_matches_stdout(runner, tmp_path, n, m):
    out = tmp_path / "e.jsonl"
    shown = invoke(runner, "enumerate", "--n", str(n), "--m", str(m))
    written = invoke(runner, "enumerate", "--n", str(n), "--m", str(m), "--out", str(out))
    assert shown.exit_code == written.exit_code == 0
    assert written.output == ""
    assert out.read_bytes() == shown.stdout_bytes
    assert len(shown.output.splitlines()) == fuss_catalan(n, m)


# Peak traced allocation of `enumerate --n 9 --m 1 --out FILE` in MB when
# the command held every dissection, every output line and their joined
# text (Python 3.11.7).  Streaming keeps it below half of that.
MATERIALIZED_PEAK_MB = 11.17


def test_enumerate_streams_without_holding_its_output(runner, tmp_path):
    out = tmp_path / "e.jsonl"
    tracemalloc.start()
    try:
        result = invoke(runner, "enumerate", "--n", "9", "--m", "1", "--out", str(out))
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == fuss_catalan(9, 1)
    assert peak_mb < MATERIALIZED_PEAK_MB / 2


class RecordingStdout(io.StringIO):
    """A standard output that keeps each write, as each would be one system
    call if standard output wrote through."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("n", [8, 10])
def test_enumerate_writes_blocks_of_lines(monkeypatch, tmp_path, n):
    # Where standard output writes through, each write is a system call:
    # the first line goes alone, after its check, and the rest in blocks.
    want = "".join(dissection_lines(PolygonParams(n, 1)))
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    main.main(["enumerate", "--n", str(n), "--m", "1"], standalone_mode=False)
    blocks = -(-fuss_catalan(n, 1) // mcw.cli._BLOCK_LINES)
    assert len(stdout.writes) <= blocks + 1
    assert "".join(stdout.writes) == want
    out = tmp_path / "e.jsonl"
    main.main(["enumerate", "--n", str(n), "--m", "1", "--out", str(out)], standalone_mode=False)
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("command", ["enumerate"])
def test_cap_zero_is_enforced(runner, command):
    result = invoke(runner, command, "--n", "3", "--m", "1", "--cap", "0")
    assert result.exit_code == 3
    assert "exceed the cap of 0" in result.output


@pytest.mark.parametrize("command", ["enumerate", "reduce"])
def test_negative_cap_is_a_usage_error(runner, tmp_path, command):
    if command == "reduce":
        src = write_dissection(tmp_path / "t.json", 3, 1, [(0, 2), (2, 5), (3, 5)])
        args = ["reduce", "--in", src]
    else:
        args = [command, "--n", "3", "--m", "1"]
    result = invoke(runner, *args, "--cap", "-1")
    assert result.exit_code == 2
    assert "-1 is not in the range x>=0" in result.output


def test_quiver_json_and_dot(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 3, 1, [(0, 2), (2, 4), (0, 4)])
    result = invoke(runner, "quiver", "--in", src)
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["vertices"] == 3
    assert len(obj["relations"]) == 3
    dot = invoke(runner, "quiver", "--in", src, "--format", "dot")
    assert dot.exit_code == 0
    assert dot.output.startswith("digraph")


@pytest.mark.parametrize("field, bad", [("n", "x"), ("m", 1.5), ("n", True)])
def test_quiver_rejects_non_integer_fields(runner, tmp_path, field, bad):
    doc = {"n": 2, "m": 1, "diagonals": [], field: bad}
    src = tmp_path / "t.json"
    src.write_text(json.dumps(doc))
    result = invoke(runner, "quiver", "--in", str(src))
    assert result.exit_code == 2
    assert f"{field} must be an integer" in result.output


def test_quiver_rejects_malformed_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    result = invoke(runner, "quiver", "--in", str(bad))
    assert result.exit_code == 2
    assert "missing keys" in result.output


@pytest.mark.parametrize("command", ["invariants", "quiver", "equiv"])
def test_deeply_nested_json_is_invalid_input(runner, tmp_path, command):
    # The JSON reader recurses once per level of nesting; a file nested past
    # the interpreter's recursion limit is refused as input, by name.
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000)
    args = ["equiv", str(src), str(src)] if command == "equiv" else [command, "--in", str(src)]
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert f"error: {src}: JSON nested too deeply to read" in result.output


@pytest.mark.parametrize("command", ["invariants", "reduce", "equiv"])
def test_bytes_that_are_not_utf8_are_invalid_input(runner, tmp_path, command):
    src = tmp_path / "bad.json"
    src.write_bytes(b"\xff\xfe{")
    args = ["equiv", str(src), str(src)] if command == "equiv" else [command, "--in", str(src)]
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert f"error: {src}: unreadable JSON: 'utf-8' codec can't decode byte 0xff" in result.output


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)
@pytest.mark.parametrize("command", ["invariants", "reduce", "quiver"])
def test_an_integer_past_the_digit_limit_is_invalid_input(runner, tmp_path, command):
    digits = sys.get_int_max_str_digits() + 1
    src = tmp_path / "long.json"
    src.write_text(f'{{"n": {"9" * digits}, "m": 1, "diagonals": []}}')
    result = invoke(runner, command, "--in", str(src))
    assert result.exit_code == 2
    assert f"error: {src}: unreadable JSON: Exceeds the limit" in result.output


@pytest.mark.parametrize("command", ["census", "enumerate", "reduce"])
def test_out_into_a_missing_directory_is_invalid_input(runner, tmp_path, command):
    src = write_dissection(tmp_path / "t.json", 2, 1, [(0, 2), (0, 3)])
    args = [command, "--in", src] if command == "reduce" else [command, "--n", "3", "--m", "1"]
    out = tmp_path / "missing" / "x.json"
    result = invoke(runner, *args, "--out", str(out))
    assert result.exit_code == 2
    assert f"error: cannot write {out}: No such file or directory" in result.output
    assert not out.parent.exists()


@pytest.mark.parametrize("parent, reason", [("missing", "No such file or directory"), ("file", "Not a directory")])
def test_out_is_refused_before_any_work(runner, tmp_path, monkeypatch, parent, reason):
    def never(p):
        raise AssertionError("the census ran before its --out was checked")

    monkeypatch.setattr(mcw.cli, "census_counts", never)
    (tmp_path / "file").write_text("")
    out = tmp_path / parent / "census.jsonl"
    result = invoke(runner, "census", "--n", "3", "--m", "20000", "--out", str(out))
    assert result.exit_code == 2
    assert result.stderr == f"error: cannot write {out}: {reason}\n"
    assert not (tmp_path / "missing").exists()


def test_refused_enumeration_into_a_missing_directory_is_a_cap(runner, tmp_path):
    out = tmp_path / "missing" / "x.jsonl"
    result = invoke(runner, "enumerate", "--n", "6", "--m", "1", "--cap", "10", "--out", str(out))
    assert result.exit_code == 3
    assert not out.parent.exists()


def test_invariants_one_line_per_component(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 4, 2, [(0, 3), (6, 9)])
    result = invoke(runner, "invariants", "--in", src)
    assert result.exit_code == 0
    lines = [json.loads(line) for line in result.output.strip().splitlines()]
    assert len(lines) == 2
    assert all(line["s"] == 1 and line["r"] == 0 for line in lines)


def test_mutate_admissible_move(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 2, 1, [(0, 2), (0, 3)])
    result = invoke(runner, "mutate", "--in", src, "--move", "d(0,2):+1")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["dissection"]["diagonals"] == [[0, 3], [1, 3]]
    assert [r["kind"] for r in payload["records"]] == ["plus"]


def test_mutate_rejects_class_changing_move(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 3, 1, [(0, 2), (2, 4), (0, 4)])
    result = invoke(runner, "mutate", "--in", src, "--move", "d(0,2):+1")
    assert result.exit_code == 1
    assert "changes the derived invariant" in result.output


def replay_mutate(runner, path, a, b, k):
    """Run ``mcw mutate`` and replay its records from the input's quiver;
    the replayed result must be the emitted quiver, label for label."""
    t = dissection_from_json(json.loads(Path(path).read_text()))
    result = invoke(runner, "mutate", "--in", str(path), "--move", f"d({a},{b}):{k:+d}")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    state = quiver_of(t)
    for rec in payload["records"]:
        state = apply_mutation(state, rec["kind"], rec["site"])
    assert in_moved_order(state, t, diagonal(a, b), k) == quiver_from_json(payload["quiver"])
    return payload["records"]


def test_mutate_records_the_moves_that_realise_the_rotation(runner):
    # The minus move at d(3,12) is refused (its in-arrow 1->2 composes to
    # zero with every out-arrow), and two plus moves at the same vertex
    # realise the rotation.
    records = replay_mutate(runner, DATA / "rotation_m2_found.json", 3, 12, -1)
    assert [(r["kind"], r["site"]) for r in records] == [("plus", [2]), ("plus", [2])]


def test_mutate_records_replay_at_every_m2_replacement_site(runner, tmp_path):
    data = json.loads((DATA / "rotation_m2_sites.json").read_text())
    for site in data["sites"]:
        src = write_dissection(tmp_path / "t.json", data["n"], data["m"], site["diagonals"])
        a, b, k = site["move"]
        records = replay_mutate(runner, src, a, b, k)
        assert [r["kind"] for r in records] == (["minus"] if k == 1 else ["plus"]) * 2, site


def test_check_and_mutate_refuse_an_isomorphic_but_mislabelled_move(runner, tmp_path, monkeypatch):
    # The stub's result is the right quiver with its first and last vertex
    # swapped: isomorphic to the moved dissection's quiver, but not equal
    # to it label for label.
    real = mcw.mutation.rotation_move
    swaps = []

    def swapped(q, v, k):
        records, moved = real(q, v, k)
        perm = list(range(q.vertex_count))
        perm[0], perm[-1] = perm[-1], perm[0]
        arrows = [(perm[a.source], perm[a.target]) for a in moved.arrows]
        out = quiver(q.m, q.vertex_count, arrows, moved.relations)
        assert mcw.algebra.iso_quivers(out, moved) is not None
        swaps.append(out != moved)
        return records, out

    monkeypatch.setattr(mcw.mutation, "rotation_move", swapped)
    src = write_dissection(tmp_path / "t.json", 2, 1, [(0, 2), (0, 3)])
    result = invoke(runner, "mutate", "--in", src, "--move", "d(0,2):+1")
    assert result.exit_code == 1
    assert result.output == (
        "error: Dissection(n=2, m=1, {d(0,2), d(0,3)}): rotating d(0,2) by +1: "
        "arrow d(0,3)->d(1,3) only in the geometry\n"
    )
    result = invoke(runner, "check", "--n", "3", "--m", "1")
    assert result.exit_code == 1
    assert result.output.splitlines()[-1] == (
        "error: Dissection(n=2, m=1, {d(0,2), d(0,3)}): rotating d(0,2) by -1: "
        "arrow d(0,3)->d(1,3) only in the geometry"
    )
    assert swaps == [True] + [False] * 4 + [True]  # n = 1 has one vertex to swap


def test_check_names_a_refused_rotation_and_its_reasons(runner, monkeypatch):
    def refuse(q, kind, site):
        raise mcw.mutation.MoveRejected(f"no {kind} here")

    monkeypatch.setattr(mcw.mutation, "apply_mutation", refuse)
    result = invoke(runner, "check", "--n", "1", "--m", "1")
    assert result.exit_code == 1
    assert result.output == (
        "error: Dissection(n=1, m=1, {d(1,3)}): rotating d(1,3) by +1: "
        "plus refused: no plus here; minus 1 of 1 refused: no minus here\n"
    )


def test_mutate_input_validation(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 2, 1, [(0, 2), (0, 3)])
    assert invoke(runner, "mutate", "--in", src, "--move", "flip 0 2").exit_code == 2
    absent = invoke(runner, "mutate", "--in", src, "--move", "d(1,4):+1")
    assert absent.exit_code == 2
    assert absent.stderr == "error: d(1,4) is not in the dissection\n"
    assert invoke(runner, "mutate", "--in", src, "--move", "d(0,2):0").exit_code == 2


def test_reduce_trace(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 3, 1, [(0, 2), (2, 5), (3, 5)])
    result = invoke(runner, "reduce", "--in", src)
    assert result.exit_code == 0
    trace = json.loads(result.output)
    assert trace["steps"]
    assert trace["final"]["relations"] == []


def test_reduce_cap_flag(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 3, 1, [(0, 2), (2, 5), (3, 5)])
    assert invoke(runner, "reduce", "--in", src, "--cap", "0").exit_code == 3


def test_reduce_ignores_mcw_cap(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 3, 1, [(0, 2), (2, 5), (3, 5)])
    plain = invoke(runner, "reduce", "--in", src)
    via_env = invoke(runner, "reduce", "--in", src, env={"MCW_CAP": "0"})
    assert via_env.exit_code == 0
    assert json.loads(via_env.output)["steps"]
    assert via_env.output == plain.output


BRIDGED_TRIANGLES = [(0, 2), (2, 4), (0, 4), (5, 7), (7, 9), (5, 9), (4, 9)]


def test_reduce_trace_labels_every_step_with_its_phase(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 7, 1, BRIDGED_TRIANGLES)
    trace = json.loads(invoke(runner, "reduce", "--in", src).output)
    phases = [step["phase"] for step in trace["steps"]]
    assert "chain" in phases
    assert set(phases) <= {"relations", "chain", "tail"}
    assert trace_from_json(trace).phases == tuple(phases)


def test_reduce_cap_stops_the_search(runner, tmp_path):
    # Two full triangles joined by a bridge (s=7, as in the benchmark's
    # panel): the cap is checked before each step of the reduction.
    src = write_dissection(tmp_path / "t.json", 7, 1, BRIDGED_TRIANGLES)
    capped = invoke(runner, "reduce", "--in", src, "--cap", "1")
    assert capped.exit_code == 3
    assert "more than the cap of 1 steps" in capped.output


def test_reduce_cap_refuses_a_longer_script(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 7, 1, BRIDGED_TRIANGLES)
    needed = len(json.loads(invoke(runner, "reduce", "--in", src).output)["steps"])
    capped = invoke(runner, "reduce", "--in", src, "--cap", str(needed - 1))
    assert capped.exit_code == 3
    assert f"more than the cap of {needed - 1} steps" in capped.output
    assert invoke(runner, "reduce", "--in", src, "--cap", str(needed)).exit_code == 0


def test_enumerate_into_a_closed_pipe_exits_0():
    # The reader closes the pipe while the command is still writing: after
    # one line, and, with standard output writing through, inside the
    # first block of 256 lines.  The exit-code table keeps 1 for oracle
    # failures.
    src = Path(mcw.__file__).resolve().parents[1]
    for unbuffered, take in (("", lambda f: f.readline()), ("1", lambda f: f.read(5000))):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen(
            [sys.executable, "-m", "mcw.cli", "enumerate", "--n", "9", "--m", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        head = take(proc.stdout)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert json.loads(head.split(b"\n")[0])["n"] == 9
        assert err == b""


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("command", ["census", "enumerate"])
def test_a_full_out_file_is_invalid_input(runner, command):
    # /dev/full takes the open and fails every write with ENOSPC, as a full
    # disk does; exit 1 stays for invariant failures.
    result = invoke(runner, command, "--n", "5", "--m", "1", "--out", "/dev/full")
    assert result.exit_code == 2
    assert result.stderr == "error: cannot write /dev/full: No space left on device\n"


@needs_dev_full
@pytest.mark.parametrize(
    "args",
    [["enumerate", "--n", "8", "--m", "1"], ["census", "--n", "5", "--m", "1"], ["check", "--n", "2", "--m", "1"]],
    ids=["enumerate", "census", "check"],
)
def test_a_full_standard_output_is_invalid_input(args):
    # The output still buffered goes to the null device, so the flush at
    # shutdown cannot fail again and turn the exit code into 120.
    src = Path(mcw.__file__).resolve().parents[1]
    for unbuffered in ("", "1"):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "mcw.cli", *args],
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        assert proc.returncode == 2
        assert proc.stderr == b"error: cannot write standard output: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="no /proc/self/mem")
@pytest.mark.parametrize("command", ["quiver", "invariants"])
def test_a_file_that_fails_to_read_is_invalid_input(runner, command):
    # The file opens, but reading its first bytes fails with EIO: the page
    # at address 0 is never mapped.
    result = invoke(runner, command, "--in", "/proc/self/mem")
    assert result.exit_code == 2
    assert result.stderr == "error: cannot read /proc/self/mem: Input/output error\n"


@pytest.mark.parametrize("spec", ["d(0,2):+2", "d(0,2):-3"])
def test_mutate_rejects_multi_step_rotation(runner, tmp_path, spec):
    src = write_dissection(tmp_path / "t.json", 2, 1, [(0, 2), (0, 3)])
    result = invoke(runner, "mutate", "--in", src, "--move", spec)
    assert result.exit_code == 2
    assert f"move {spec!r}: rotation count must be +1 or -1" in result.output


@pytest.mark.parametrize("s", [18, 40])
def test_reduce_large_fan_is_its_own_normal_form(runner, tmp_path, s):
    src = write_dissection(tmp_path / "fan.json", s, 1, [(0, j) for j in range(2, s + 2)])
    result = invoke(runner, "reduce", "--in", src)
    assert result.exit_code == 0
    trace = json.loads(result.output)
    assert trace["steps"] == []
    assert trace["final"]["vertices"] == s


def _never(*args):
    raise AssertionError("canonical-form work on unrealizable input")


unrealizable = pytest.mark.parametrize(
    "q, problem",
    [
        (quiver(1, 13, [(0, leaf) for leaf in range(1, 13)]), "not gentle"),
        (
            quiver(1, 4, [(0, 1), (1, 2), (2, 3), (3, 0)], [(0, 1), (1, 2), (2, 3), (3, 0)]),
            "length 4, expected 3",
        ),
        # Both are refused on their degrees alone; a search over their
        # oriented cycles or paths would be exponential (the ladder's
        # oriented paths double with every rung).
        (
            quiver(1, 42, [(a, b) for k in range(20) for a in (2 * k, 2 * k + 1)
                           for b in (2 * k + 2, 2 * k + 3)]),
            "not gentle",
        ),
        (
            quiver(1, 13, [(i, j) for i in range(13) for j in range(13)
                           if 1 <= (j - i) % 13 <= 6]),
            "not gentle",
        ),
    ],
    ids=["twelve-leaf-star", "full-relation-four-cycle", "ladder", "circulant-tournament"],
)


@unrealizable
def test_reduce_rejects_unrealizable_quiver(runner, tmp_path, monkeypatch, q, problem):
    monkeypatch.setattr(mcw.algebra, "canonical_form", _never)
    for name in ("canonical_key", "iso_quivers"):
        monkeypatch.setattr(mcw.normalform, name, _never)
    src = tmp_path / "q.json"
    src.write_text(dumps(quiver_to_json(q)) + "\n")
    start = time.perf_counter()
    result = invoke(runner, "reduce", "--in", str(src))
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert problem in result.output


@unrealizable
@pytest.mark.parametrize("command", ["invariants", "equiv"])
def test_invariants_and_equiv_reject_unrealizable_quiver(runner, tmp_path, command, q, problem):
    src = tmp_path / "q.json"
    src.write_text(dumps(quiver_to_json(q)) + "\n")
    args = ["equiv", str(src), str(src)] if command == "equiv" else [command, "--in", str(src)]
    start = time.perf_counter()
    result = invoke(runner, *args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert "component 0 is not realizable" in result.output
    assert problem in result.output


@pytest.mark.parametrize("name", ["found_affine_a3", "found_square_m2"])
@pytest.mark.parametrize("command", ["invariants", "equiv", "reduce"])
def test_unoriented_cycle_is_invalid_input(runner, command, name):
    # Neither quiver comes from a dissection; the first is the affine A_3
    # quiver, which equiv used to call equivalent to linear A_4.
    src = str(DATA / f"{name}.json")
    args = ["equiv", src, src] if command == "equiv" else [command, "--in", src]
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert "component 0 is not realizable: underlying graph has cycle rank 1" in result.output


PARTIAL = {
    "partial_pentagon_m1": "cycle through (0, 1, 4, 3, 2) has length 5, expected 3",
    "partial_square_m1": "cycle through (0, 1, 3, 2) has length 4, expected 3",
}


@pytest.mark.parametrize("name", sorted(PARTIAL))
@pytest.mark.parametrize("command", ["invariants", "equiv", "reduce"])
def test_dissection_with_a_large_cell_is_invalid_input(runner, tmp_path, command, name):
    # A dissection with fewer than n diagonals can have a cell with more
    # than m + 2 corners, all on diagonals: its quiver is an oriented cycle
    # of the wrong length with full relations.  equiv used to call the
    # pentagon equivalent to the valid s = 5, r = 1 dissection.
    src = str(DATA / f"{name}.json")
    valid = write_dissection(tmp_path / "s5.json", 5, 1, [(0, 2), (2, 4), (0, 4), (4, 6), (4, 7)])
    args = {
        "invariants": ["invariants", "--in", src],
        "equiv": ["equiv", src, valid],
        "reduce": ["reduce", "--in", src],
    }[command]
    result = invoke(runner, *args)
    assert result.exit_code == 2, result.output
    assert f"component 0 is not realizable: {PARTIAL[name]}" in result.output


def test_mutate_refuses_a_partial_dissection(runner):
    src = str(DATA / "partial_pentagon_m1.json")
    result = invoke(runner, "mutate", "--in", src, "--move", "d(0,2):+1")
    assert result.exit_code == 2
    assert "a move needs all n=7 diagonals, not 5" in result.output


@pytest.mark.parametrize("command", ["quiver", "invariants", "reduce"])
def test_crossing_dissection_is_rejected(runner, tmp_path, command):
    src = write_dissection(tmp_path / "t.json", 2, 1, [(0, 2), (1, 3)])
    result = invoke(runner, command, "--in", src)
    assert result.exit_code == 2
    assert "d(0,2) crosses d(1,3)" in result.output


DUPLICATE = {
    "dissection": (
        {"n": 3, "m": 1, "diagonals": [[0, 2], [0, 3], [0, 4], [2, 0]]},
        "invalid dissection: duplicate diagonal d(0,2)",
    ),
    "quiver": (
        {"m": 2, "vertices": 3, "arrows": [[0, 1], [1, 2]], "relations": [[0, 1], [0, 1]]},
        "duplicate relation (0,1)",
    ),
}


@pytest.mark.parametrize(
    "command, kind",
    [(c, "dissection") for c in ("quiver", "invariants", "reduce", "render")]
    + [(c, "quiver") for c in ("invariants", "reduce", "render")],
)
def test_a_repeated_diagonal_or_relation_is_invalid_input(runner, tmp_path, command, kind):
    # Both used to be merged into one, and every command exited 0.
    doc, problem = DUPLICATE[kind]
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    args = [command, "--in", str(src)] + (["--format", "dot"] if command == "render" else [])
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert f"error: {problem}\n" in result.output


@pytest.mark.parametrize(
    "field, value, problem",
    [("m", 0, "need m >= 1, got m=0"), ("vertices", -2, "need vertices >= 0, got vertices=-2")],
)
@pytest.mark.parametrize("command", ["invariants", "reduce", "render"])
def test_quiver_level_and_size_are_checked_on_load(runner, tmp_path, command, field, value, problem):
    # m = 0 used to reach the realizability screen, which named a relation
    # chain "of length 0 exceeding bound -1"; render drew either quiver.
    doc = {"m": 1, "vertices": 3, "arrows": [[0, 1], [1, 2]], "relations": [], field: value}
    if field == "vertices":
        doc["arrows"] = []
    src = tmp_path / "q.json"
    src.write_text(json.dumps(doc))
    args = [command, "--in", str(src)] + (["--format", "svg"] if command == "render" else [])
    result = invoke(runner, *args)
    assert result.exit_code == 2
    assert f"error: {problem}\n" in result.output
    assert "bound" not in result.output


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 3, "m": 1, "diagonals": []},
        {"m": 1, "vertices": 0, "arrows": [], "relations": []},
    ],
)
def test_invariants_of_no_component_writes_nothing(runner, tmp_path, doc):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    result = invoke(runner, "invariants", "--in", str(src))
    assert result.exit_code == 0
    assert result.stdout == ""
    out = tmp_path / "inv.jsonl"
    assert invoke(runner, "invariants", "--in", str(src), "--out", str(out)).exit_code == 0
    assert out.read_text() == ""


def test_reduce_component_range(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 2, 1, [(0, 2), (0, 3)])
    assert invoke(runner, "reduce", "--in", src, "--component", "7").exit_code == 2


def test_equiv_verdicts(runner, tmp_path):
    cycle = write_dissection(
        tmp_path / "cycle.json", 4, 2, [(0, 3), (3, 6), (6, 9), (0, 9)]
    )
    rotated = write_dissection(
        tmp_path / "rot.json", 4, 2, [(1, 4), (4, 7), (7, 10), (1, 10)]
    )
    fan = write_dissection(
        tmp_path / "fan.json", 4, 2, [(0, 3), (0, 5), (0, 7), (0, 9)]
    )
    same = invoke(runner, "equiv", cycle, rotated)
    assert same.exit_code == 0
    assert json.loads(same.output)["equivalent"] is True
    diff = invoke(runner, "equiv", cycle, fan)
    assert diff.exit_code == 0
    assert json.loads(diff.output)["equivalent"] is False


def test_equiv_input_validation(runner, tmp_path):
    a = write_dissection(tmp_path / "a.json", 2, 1, [(0, 2), (0, 3)])
    b = write_dissection(tmp_path / "b.json", 1, 2, [(0, 3)])
    split = write_dissection(tmp_path / "c.json", 4, 2, [(0, 3), (6, 9)])
    assert invoke(runner, "equiv", a, b).exit_code == 2
    result = invoke(runner, "equiv", a, split)
    assert result.exit_code == 2
    assert "components" in result.output


def test_census_finds_the_cycle_class(runner):
    result = invoke(runner, "census", "--n", "4", "--m", "2")
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.strip().splitlines()]
    assert {"s": 4, "r": 1, "count": 3} in rows
    assert rows == sorted(rows, key=lambda row: (row["s"], row["r"]))


def test_check_small_grid_passes(runner):
    result = invoke(runner, "check", "--n", "2", "--m", "2", "--samples", "5")
    assert result.exit_code == 0
    assert "all checks passed" in result.output


def test_census_has_no_cap(runner):
    result = invoke(runner, "census", "--n", "3", "--m", "1", "--cap", "0")
    assert result.exit_code == 2
    assert "No such option" in result.output


# Each file is about 60 bytes; a command that built anything as large as
# its polygon or quiver would run out of memory.
HUGE_DISSECTION = '{"n": 1000000000000, "m": 1, "diagonals": [[0, 2]]}'
HUGE_QUIVER = '{"m": 1, "vertices": 1000000000000, "arrows": [], "relations": []}'
SIZE_COMMANDS = {
    "quiver": ["quiver", "--in"],
    "invariants": ["invariants", "--in"],
    "reduce": ["reduce", "--in"],
    "equiv": ["equiv"],
    "render": ["render", "--format", "svg", "--in"],
    "mutate": ["mutate", "--move", "d(0,2):+1", "--in"],
}


@pytest.mark.parametrize("command", list(SIZE_COMMANDS))
@pytest.mark.parametrize(
    "text, message",
    [
        (
            HUGE_DISSECTION,
            "error: a dissection of the 1000000000003-gon (n=1000000000000, m=1) "
            "exceeds the cap of 100000 polygon vertices\n",
        ),
        (HUGE_QUIVER, "error: a quiver of 1000000000000 vertices exceeds the cap of 100000 vertices\n"),
    ],
    ids=["dissection", "quiver"],
)
def test_an_oversized_file_is_refused_at_once(runner, tmp_path, command, text, message):
    path = tmp_path / "huge.json"
    path.write_text(text + "\n")
    args = SIZE_COMMANDS[command] + [str(path)] * (2 if command == "equiv" else 1)
    start = time.perf_counter()
    result = invoke(runner, *args)
    assert time.perf_counter() - start < 1
    if text == HUGE_QUIVER and command in ("quiver", "mutate"):
        # These two commands read dissections only.
        assert (result.exit_code, result.stderr) == (
            2,
            f"error: {path} is a quiver file; this command reads dissection files\n",
        )
    else:
        assert (result.exit_code, result.stderr) == (3, message)


def quiver_file(path, src):
    """The quiver of the dissection file src, written to path."""
    q = quiver_of(dissection_from_json(json.loads(Path(src).read_text())))
    path.write_text(dumps(quiver_to_json(q)) + "\n")
    return str(path)


@pytest.mark.parametrize("command", ["quiver", "mutate"])
def test_dissection_commands_name_a_quiver_file(runner, tmp_path, command):
    # A valid quiver file is refused by its kind, as the oversized one above.
    path = quiver_file(tmp_path / "q.json", DATA / "rotation_m2_found.json")
    result = invoke(runner, *SIZE_COMMANDS[command], path)
    assert (result.exit_code, result.stderr) == (
        2,
        f"error: {path} is a quiver file; this command reads dissection files\n",
    )


@pytest.mark.parametrize("command", ["invariants", "reduce", "equiv", "render"])
def test_component_commands_read_both_kinds(runner, tmp_path, command):
    src = DATA / "rotation_m2_found.json"
    outputs = []
    for path in (str(src), quiver_file(tmp_path / "q.json", src)):
        args = SIZE_COMMANDS[command] + [path] * (2 if command == "equiv" else 1)
        result = invoke(runner, *args)
        assert result.exit_code == 0, result.output
        outputs.append(result.stdout)
    if command != "render":  # a dissection is drawn with its polygon
        assert outputs[0] == outputs[1]


def test_each_distinct_component_is_screened_once(runner, tmp_path, monkeypatch):
    # 100,000 isolated vertices are one component value, screened once.
    path = tmp_path / "isolated.json"
    path.write_text(dumps({"m": 1, "vertices": 100_000, "arrows": [], "relations": []}))
    screened = []
    real = mcw.mutation.realizability_report

    def counted(q):
        screened.append(q)
        return real(q)

    monkeypatch.setattr(mcw.mutation, "realizability_report", counted)
    result = invoke(runner, "reduce", "--in", str(path))
    assert result.exit_code == 0
    assert screened == [quiver(1, 1, [])]


def test_each_distinct_component_gets_one_invariant(runner, tmp_path, monkeypatch):
    # Two values among five components: vertices 0, 1, 4 are isolated, and
    # 2->3, 5->6 are the same one-arrow component.
    path = tmp_path / "q.json"
    path.write_text(dumps({"m": 1, "vertices": 7, "arrows": [[2, 3], [5, 6]], "relations": []}))
    expected = invoke(runner, "invariants", "--in", str(path)).stdout
    assert len(expected.splitlines()) == 5
    computed = []
    real = mcw.homology.derived_invariant

    def counted(q):
        computed.append(q)
        return real(q)

    monkeypatch.setattr(mcw.homology, "derived_invariant", counted)
    result = invoke(runner, "invariants", "--in", str(path))
    assert result.exit_code == 0
    assert result.stdout == expected
    assert computed == [quiver(1, 1, []), quiver(1, 2, [(0, 1)])]


def test_a_refusal_names_the_first_failing_component(runner, tmp_path):
    # Components 1 and 3 are the same relation-free 3-cycle; 1 is named.
    path = tmp_path / "q.json"
    arrows = [[1, 2], [2, 3], [3, 1], [5, 6], [6, 7], [7, 5]]
    path.write_text(dumps({"m": 1, "vertices": 8, "arrows": arrows, "relations": []}))
    result = invoke(runner, "invariants", "--in", str(path))
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {path}: component 1 is not realizable: ")


def test_a_dissection_at_the_vertex_cap_still_runs(runner, tmp_path):
    path = tmp_path / "cap.json"
    path.write_text('{"n": 99997, "m": 1, "diagonals": [[0, 2]]}\n')
    result = invoke(runner, "invariants", "--in", str(path))
    assert result.exit_code == 0
    assert json.loads(result.output) == {"s": 1, "r": 0, "snf": [1], "parity": [0, 0]}


def test_census_refuses_a_polygon_past_its_vertex_cap(runner, monkeypatch):
    # Refused before any table is built: the fold tables of m = 10^11 would
    # take far more memory than the machine has.
    result = invoke(runner, "census", "--n", "3", "--m", "99999999999")
    assert result.exit_code == 3
    assert result.stderr == (
        "error: a census of the 399999999998-gon (n=3, m=99999999999) exceeds "
        "the cap of 100000 polygon vertices\n"
    )
    monkeypatch.setattr(mcw.geometry, "MAX_VERTICES", PolygonParams(4, 2).N)
    assert invoke(runner, "census", "--n", "4", "--m", "2").exit_code == 0
    assert invoke(runner, "census", "--n", "5", "--m", "2").exit_code == 3


def test_census_refuses_work_past_its_term_budget(runner, monkeypatch):
    # 7/1's folds convolve 98 terms in all.
    monkeypatch.setattr(mcw.geometry, "CENSUS_MAX_TERMS", 97)
    result = invoke(runner, "census", "--n", "7", "--m", "1")
    assert result.exit_code == 3
    assert result.stderr == (
        "error: a census of the 10-gon (n=7, m=1) exceeds the budget of "
        "97 convolution terms\n"
    )
    monkeypatch.setattr(mcw.geometry, "CENSUS_MAX_TERMS", 98)
    assert invoke(runner, "census", "--n", "7", "--m", "1").exit_code == 0


def test_check_refuses_negative_samples(runner):
    result = invoke(runner, "check", "--n", "3", "--m", "1", "--samples", "-1")
    assert result.exit_code == 2
    assert "-1 is not in the range x>=0" in result.output


@pytest.mark.parametrize("n,m", [("0", "1"), ("1", "0")])
def test_check_refuses_an_empty_grid(runner, n, m):
    result = invoke(runner, "check", "--n", n, "--m", m)
    assert result.exit_code == 2
    assert "0 is not in the range x>=1" in result.output
    assert "all checks passed" not in result.output


@pytest.mark.parametrize("samples", [0, 20])
def test_check_tests_moves_only_until_the_sample_is_full(runner, monkeypatch, samples):
    # Every move counts as admissible here, and the algebra side agrees with
    # geometry, so each cell tests exactly min(samples, moves) of its moves.
    tested = []

    def admissible(t, d, k):
        tested.append(t.params)
        return True

    monkeypatch.setattr(mcw.mutation, "preserves_invariant", admissible)
    monkeypatch.setattr(mcw.mutation, "rotate", lambda t, d, k, q: (t, q, ()))
    result = invoke(runner, "check", "--n", "3", "--m", "2", "--samples", str(samples))
    assert result.exit_code == 0
    lines = result.output.splitlines()
    cells = [(n, m) for m in (1, 2) for n in (1, 2, 3)]
    for (n, m), line in zip(cells, lines):
        want = min(samples, 2 * n * fuss_catalan(n, m))
        assert tested.count(PolygonParams(n, m)) == want, (n, m)
        assert line.endswith(f"{want} sampled moves ok"), line
    assert len(tested) == sum(min(samples, 2 * n * fuss_catalan(n, m)) for n, m in cells)
    assert lines[-1] == "all checks passed"


def test_census_counts_without_enumerating(runner, monkeypatch):
    def enumerating(*args):
        raise AssertionError("census built a dissection")

    monkeypatch.setattr(mcw.cli, "enumerate_dissections", enumerating)
    for name in ("quiver_of", "components"):
        monkeypatch.setattr(mcw.algebra, name, enumerating)
    monkeypatch.setattr(mcw.homology, "derived_invariant", enumerating)
    result = invoke(runner, "census", "--n", "9", "--m", "1")
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert sum(row["count"] for row in rows) == fuss_catalan(9, 1)


def test_census_refuses_a_miscount(runner, monkeypatch):
    # The counted dissections must equal FC(n, m): an FC off by one is caught.
    real = mcw.geometry.fuss_catalan
    monkeypatch.setattr(mcw.geometry, "fuss_catalan", lambda n, m: real(n, m) + 1)
    result = invoke(runner, "census", "--n", "4", "--m", "2")
    assert result.exit_code == 1
    assert f"counted {real(4, 2)} dissections of the 12-gon, expected {real(4, 2) + 1}" in (
        result.output
    )


@unrealizable
def test_check_names_the_dissection_of_an_unrealizable_quiver(runner, monkeypatch, q, problem):
    monkeypatch.setattr(mcw.algebra, "quiver_of", lambda t: q)
    result = invoke(runner, "check", "--n", "1", "--m", "1")
    assert result.exit_code == 1
    assert "error: n=1 m=1 Dissection(n=1, m=1, {d(0,2)}): " in result.output
    assert problem in result.output


@unrealizable
def test_is_gentle_matches_its_oracle_on_unrealizable_input(q, problem):
    assert is_gentle(q) == gentle_by_lists(q)


def _component_values(n, m):
    """The distinct component values over the cells that ``mcw check --n n
    --m m`` visits."""
    return {
        comp.quiver
        for mm in range(1, m + 1)
        for nn in range(1, n + 1)
        for t in enumerate_dissections(PolygonParams(nn, mm))
        for comp in components(quiver_of(t))
    }


def test_check_screens_each_component_once(runner, monkeypatch):
    # One screen per distinct component value over the run: 25 at 3/2,
    # where the cells hold 125 components.
    screened = []
    real = mcw.normalform.realizability_report

    def counting(q):
        screened.append(q)
        return real(q)

    for module in (mcw.mutation, mcw.normalform):
        monkeypatch.setattr(module, "realizability_report", counting)
    result = invoke(runner, "check", "--n", "3", "--m", "2", "--samples", "0")
    assert result.exit_code == 0
    assert len(screened) == len(set(screened)) == 25
    assert set(screened) == _component_values(3, 2)


def test_check_reduces_each_distinct_component_once(runner, monkeypatch):
    reduced = []
    real = mcw.normalform.reduce_component

    def counting(q, cap=None):
        reduced.append(q)
        return real(q, cap)

    monkeypatch.setattr(mcw.normalform, "reduce_component", counting)
    result = invoke(runner, "check", "--n", "4", "--m", "2", "--samples", "0")
    assert result.exit_code == 0
    assert len(reduced) == len(set(reduced)) == 102
    assert set(reduced) == _component_values(4, 2)


def test_check_splits_a_class_against_a_component_reduced_earlier(runner, monkeypatch):
    # Every 3-vertex component of the 4/2 cell already occurred at 3/2, so
    # class (3, 0) there holds only components reduced in an earlier cell.
    # The first dissection of 4/2 is given a new value of that class, a path
    # through vertex 2 that no cell before yields, and the patched reduction
    # sends it to a final with no arrows.  The split is caught by checking
    # its witness against the class's normal form, the one form that every
    # earlier member was held to.
    new = quiver(2, 3, [(0, 2), (2, 1)])
    earlier = _component_values(3, 2)
    assert new not in earlier
    cell = list(enumerate_dissections(PolygonParams(4, 2)))
    assert any(
        comp.quiver in earlier and comp.quiver.vertex_count == 3
        for t in cell[1:]
        for comp in components(quiver_of(t))
    )
    real_quiver_of, real_reduce = mcw.algebra.quiver_of, mcw.normalform.reduce_component
    monkeypatch.setattr(
        mcw.algebra, "quiver_of", lambda t: new if t == cell[0] else real_quiver_of(t)
    )

    def reduce(q, cap=None):
        if q == new:
            return SimpleNamespace(final=quiver(2, 3, []), iso_witness=(0, 1, 2))
        return real_reduce(q, cap)

    monkeypatch.setattr(mcw.normalform, "reduce_component", reduce)
    result = invoke(runner, "check", "--n", "4", "--m", "2", "--samples", "0")
    assert result.exit_code == 1
    assert (
        f"error: n=4 m=2 {cell[0]!r}: witness (0, 1, 2) does not map the reduced "
        "form onto the normal form of class (3, 0)"
    ) in result.output


@pytest.mark.parametrize(
    "spoil",
    [lambda w: (w[1], w[0], *w[2:]), lambda w: (w[0],) * len(w)],
    ids=["two-entries-swapped", "not-a-bijection"],
)
def test_check_refuses_a_wrong_witness(runner, monkeypatch, spoil):
    # The reduction reaches the normal form, but its witness is spoiled on
    # every component with two or more vertices; the first is the path of
    # the first dissection of 2/1.
    real = mcw.normalform.reduce_component

    def reduce(q, cap=None):
        trace = real(q, cap)
        if q.vertex_count < 2:
            return trace
        witness = spoil(trace.iso_witness)
        return mcw.normalform.ReductionTrace(trace.steps, trace.final, witness, trace.phases)

    monkeypatch.setattr(mcw.normalform, "reduce_component", reduce)
    result = invoke(runner, "check", "--n", "3", "--m", "1", "--samples", "0")
    assert result.exit_code == 1
    t = next(enumerate_dissections(PolygonParams(2, 1)))
    witness = spoil((0, 1))
    assert result.stderr == (
        f"error: n=2 m=1 {t!r}: witness {witness} does not map the reduced form "
        "onto the normal form of class (2, 0)\n"
    )


@pytest.mark.parametrize(
    "error, code",
    [
        (mcw.geometry.GeometryError, 2),
        (mcw.geometry.CapExceeded, 3),
        (mcw.geometry.CensusError, 1),
        (mcw.algebra.AlgebraError, 2),
        (mcw.homology.HomologyError, 1),
        (mcw.mutation.MutationError, 1),
        (mcw.normalform.NormalFormError, 1),
        (mcw.serialize.SerializeError, 2),
        (mcw.render.RenderError, 2),
        (lambda message: json.JSONDecodeError(message, "", 0), 2),
    ],
)
def test_each_domain_error_keeps_its_exit_code(runner, monkeypatch, error, code):
    exc = error("boom")

    def failing(p):
        raise exc

    monkeypatch.setattr(mcw.cli, "census_counts", failing)
    result = invoke(runner, "census", "--n", "3", "--m", "1")
    assert result.exit_code == code
    assert result.stderr == f"error: {exc}\n"


def test_an_error_of_no_domain_is_not_mapped(runner, monkeypatch):
    def failing(p):
        raise ValueError("boom")

    monkeypatch.setattr(mcw.cli, "census_counts", failing)
    with pytest.raises(ValueError, match="boom"):
        invoke(runner, "census", "--n", "3", "--m", "1")


_LOADED_LAYERS = """
import json, sys, types
import mcw

def executed():
    return [n for n in mcw._LAYERS if type(sys.modules["mcw." + n]) is types.ModuleType]

class ClickWatch:
    before_click = None

    def find_spec(self, name, path=None, target=None):
        if name == "click" and self.before_click is None:
            self.before_click = executed()
        return None

watch = ClickWatch()
sys.meta_path.insert(0, watch)
from mcw.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps([executed(), watch.before_click]), file=sys.stderr)
"""

_EVERY_LAYER_BUT_RENDER = {"geometry", "algebra", "homology", "mutation", "normalform", "serialize"}


@pytest.mark.parametrize(
    "command, layers",
    [
        ("--help", {"geometry", "serialize"}),
        ("census", {"geometry", "serialize"}),
        ("enumerate", {"geometry", "serialize"}),
        ("render", {"geometry", "algebra", "serialize", "render"}),
        ("reduce", _EVERY_LAYER_BUT_RENDER),
        ("quiver", {"geometry", "algebra", "serialize"}),
        ("invariants", {"geometry", "algebra", "homology", "mutation", "serialize"}),
        ("mutate", {"geometry", "algebra", "homology", "mutation", "serialize"}),
        ("equiv", _EVERY_LAYER_BUT_RENDER),
        ("check", _EVERY_LAYER_BUT_RENDER),
    ],
)
def test_a_command_executes_only_the_layers_it_runs(tmp_path, command, layers):
    # README's table of the layers each command executes, and the order:
    # each of them is executed before click is imported.  A layer stays an
    # unexecuted lazy module until something reads from it; an executed one
    # is a plain module again.  The package runs from a copy with no
    # bytecode cache, so every layer it executes is compiled from source.
    src = write_dissection(tmp_path / "t.json", 3, 1, [(0, 2), (0, 3), (0, 4)])
    args = {
        "--help": ["--help"],
        "census": ["census", "--n", "7", "--m", "1"],
        "enumerate": ["enumerate", "--n", "4", "--m", "1"],
        "render": ["render", "--in", src, "--format", "dot"],
        "reduce": ["reduce", "--in", src],
        "quiver": ["quiver", "--in", src],
        "invariants": ["invariants", "--in", src],
        "mutate": ["mutate", "--in", str(DATA / "rotation_m2_found.json"), "--move", "d(3,12):-1"],
        "equiv": ["equiv", src, src],
        "check": ["check", "--n", "2", "--m", "1"],
    }[command]
    package = Path(mcw.cli.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "src" / "mcw", ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_LAYERS, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    executed, before_click = json.loads(proc.stderr.splitlines()[-1])
    assert set(executed) == layers
    assert before_click == executed


def test_render_svg_and_determinism(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 2, 1, [(0, 2), (0, 3)])
    first = invoke(runner, "render", "--in", src, "--format", "svg")
    second = invoke(runner, "render", "--in", src, "--format", "svg")
    assert first.exit_code == 0
    assert first.output.count('class="chord"') == 2
    assert first.output == second.output


def test_render_quiver_dot(runner, tmp_path):
    src = tmp_path / "q.json"
    q = build_normal_form(NormalFormSpec(4, 1, 2))
    src.write_text(dumps(quiver_to_json(q)) + "\n")
    result = invoke(runner, "render", "--in", str(src), "--format", "dot")
    assert result.exit_code == 0
    assert result.output.count("style=dotted") == 4


def test_output_file_flag(runner, tmp_path):
    src = write_dissection(tmp_path / "t.json", 2, 1, [(0, 2), (0, 3)])
    out = tmp_path / "q.json"
    result = invoke(runner, "quiver", "--in", src, "--out", str(out))
    assert result.exit_code == 0
    assert result.output == ""
    assert json.loads(out.read_text())["vertices"] == 2
