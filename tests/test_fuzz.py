"""Random JSON into every loader and into the commands that read files.

The bar is the same everywhere: a value, or an error whose exit code is 2
(bad input) or 3 (a cap) with a message; never a traceback, never exit 1.
The documents are random-shaped, or carry each loader's keys with random
values, sometimes with one key left out, so that both the shape checks and
the checks past them are reached.  Integers run up to 10^30, past the size
limit that guards the commands.
"""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import all_dissections
from mcw.algebra import quiver_of
from mcw.cli import main
from mcw.geometry import MAX_VERTICES
from mcw.serialize import (
    dissection_from_json,
    dissection_to_json,
    invariant_from_json,
    move_from_json,
    quiver_from_json,
    quiver_to_json,
    trace_from_json,
)

BIG = 10**30
EDGES = st.sampled_from([MAX_VERTICES, MAX_VERTICES + 1, 10**12, BIG])
# Loading costs little at any size.  A command works on what it loaded, so
# its sizes skip the range between small and refused: a quiver of 50,000
# isolated vertices is valid input that takes seconds to answer.
LOAD_SIZES = st.one_of(st.integers(-3, 8), st.integers(-BIG, BIG), EDGES)
RUN_SIZES = st.one_of(
    st.integers(-3, 8), st.integers(-BIG, -1), st.integers(10**12, BIG), st.just(MAX_VERTICES + 1)
)

shaped = st.recursive(
    st.none() | st.booleans() | LOAD_SIZES | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
small = st.integers(-1, 7)
pairs = st.lists(st.lists(small, min_size=2, max_size=2), max_size=5)
ints = st.lists(small, max_size=5)


def fields(**values):
    """Objects with these keys, each holding its strategy's value; half of
    them have one key left out or holding a random-shaped value."""

    def spoil(key):
        rest = {k: v for k, v in values.items() if k != key}
        return st.fixed_dictionaries(rest) | st.fixed_dictionaries({**rest, key: shaped})

    return st.sampled_from([None] * len(values) + list(values)).flatmap(spoil)


# Every dissection of the hexagon and of the 4/2 and 3/3 polygons (N = 12,
# 14), and their quivers, so that the commands also run on valid input.
WHOLE = [t for n, m in ((3, 1), (4, 2), (3, 3)) for t in all_dissections(n, m)]


def dissections(sizes):
    return st.sampled_from(list(map(dissection_to_json, WHOLE))) | fields(
        n=sizes, m=sizes, diagonals=pairs
    )


def quivers(sizes):
    return st.sampled_from([quiver_to_json(quiver_of(t)) for t in WHOLE]) | fields(
        m=sizes, vertices=sizes, arrows=pairs, relations=pairs
    )


invariant_values = st.fixed_dictionaries(
    {"s": small, "r": small, "snf": ints, "parity": st.lists(small, min_size=2, max_size=2)}
)
invariants = invariant_values | fields(s=LOAD_SIZES, r=LOAD_SIZES, snf=ints, parity=ints)
kinds = st.sampled_from(["plus", "minus", "rel_rem", "swap"])
# A record whose invariants are one value passes MoveRecord; drawn apart,
# they differ in some field, at times in the parity counts alone.
moves = invariant_values.flatmap(
    lambda inv: fields(kind=kinds, site=ints, before=st.just(inv), after=st.just(inv))
) | fields(kind=kinds, site=ints, before=invariants, after=invariants)
steps = st.tuples(moves, st.sampled_from([None, "relations", "chain", "tail", "sweep"])).map(
    lambda mp: mp[0] if mp[1] is None else {**mp[0], "phase": mp[1]}
)
traces = fields(steps=st.lists(steps, max_size=3), final=quivers(LOAD_SIZES), iso=ints)

LOADERS = {
    "dissection": (dissection_from_json, dissections(LOAD_SIZES)),
    "quiver": (quiver_from_json, quivers(LOAD_SIZES)),
    "invariant": (invariant_from_json, invariants),
    "move": (move_from_json, moves),
    "trace": (trace_from_json, traces),
}


@pytest.mark.parametrize("name", list(LOADERS))
def test_every_loader_returns_a_value_or_refuses_with_2_or_3(name):
    load, documents = LOADERS[name]

    @settings(max_examples=200, deadline=None)
    @given(documents | shaped)
    def run(doc):
        try:
            load(doc)
        except (ValueError, RuntimeError) as exc:
            assert getattr(exc, "exit_code", None) in (2, 3), repr(exc)
            assert str(exc), repr(exc)

    run()


@pytest.mark.parametrize(
    "command", [["invariants"], ["reduce"], ["quiver"], ["render", "--format", "svg"]]
)
def test_file_commands_exit_0_2_or_3(command, tmp_path):
    runner = CliRunner()
    path = tmp_path / "in.json"

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(dissections(RUN_SIZES) | quivers(RUN_SIZES) | shaped)
    def run(doc):
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [*command, "--in", str(path)], catch_exceptions=False)
        assert result.exit_code in (0, 2, 3), (doc, result.stderr)
        if result.exit_code:
            assert result.stderr.startswith("error: "), (doc, result.stderr)

    run()
