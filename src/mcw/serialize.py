"""JSON views of the package's value types.

Formats are flat and order-stable: arrows are listed in id order, relation
pairs and diagonals sorted, and every loader goes through the ordinary
constructors so a hand-edited file gets the same validation as code.
"""

from __future__ import annotations

import json
from typing import Any, Hashable, Iterable, Iterator, Mapping

from . import algebra, homology, mutation, normalform
from .geometry import (
    ENUMERATION_CAP,
    MAX_VERTICES,
    CapExceeded,
    Dissection,
    GeometryError,
    PolygonParams,
    check_chords,
    diagonal,
    dissection,
    lex_dissections,
)


class SerializeError(ValueError):
    """A JSON document does not match the expected shape."""

    exit_code = 2


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(", ", ": "))


def dumps(payload: Mapping[str, Any]) -> str:
    """One stable text form: sorted keys, no trailing spaces."""

    return _ENCODER.encode(payload)


def _require(obj: Any, *keys: str) -> None:
    if not isinstance(obj, Mapping):
        raise SerializeError(f"expected a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SerializeError(f"missing keys: {', '.join(missing)}")


def _is_int(value: Any) -> bool:
    # JSON booleans load as bool, a subclass of int; they are not integers here.
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(obj: Mapping[str, Any], key: str) -> int:
    """The integer at ``obj[key]``; strings, floats and booleans are refused."""

    value = obj[key]
    if not _is_int(value):
        raise SerializeError(f"{key} must be an integer, got {value!r}")
    return value


def _int_pairs(value: Any, what: str) -> list[tuple[int, int]]:
    try:
        pairs = [(a, b) for a, b in value]
    except (TypeError, ValueError) as exc:
        raise SerializeError(f"{what} must be a list of integer pairs") from exc
    if not all(_is_int(x) for pair in pairs for x in pair):
        raise SerializeError(f"{what} must be a list of integer pairs")
    return pairs


def _repeated(items: Iterable[Hashable]) -> Hashable | None:
    """The first item equal to an earlier one, or None."""
    seen = set()
    for x in items:
        if x in seen:
            return x
        seen.add(x)
    return None


def _int_list(value: Any, what: str) -> list[int]:
    if not isinstance(value, (list, tuple)) or not all(_is_int(x) for x in value):
        raise SerializeError(f"{what} must be a list of integers, got {value!r}")
    return value


def dissection_to_json(t: Dissection) -> dict[str, Any]:
    return {
        "n": t.params.n,
        "m": t.params.m,
        "diagonals": list(map(list, t.diagonals)),
    }


_fragment = "[{}, {}], ".format


def dissection_lines(p: PolygonParams, cap: int = ENUMERATION_CAP) -> Iterator[str]:
    """One line per maximal dissection of p, in lexicographic order, each
    the text of ``dumps(dissection_to_json(t)) + "\\n"`` without building t,
    its dict or an encoder call.  lex_dissections builds the diagonal list
    as text from "[a, b], " fragments, so each line is that text between
    the fixed head and tail of the object.  The cap is checked on the
    first pull, as in dissection_tuples."""

    head, tail = '{"diagonals": [', f'], "m": {p.m}, "n": {p.n}}}\n'
    for body in lex_dissections(p, _fragment, "".join, cap):
        yield head + body[:-2] + tail


def dissection_from_json(obj: Any) -> Dissection:
    """Load a dissection, rejecting repeated, non-allowable and crossing
    diagonals.

    Non-crossing partial dissections are accepted, as ``Dissection`` allows.
    A polygon of more than MAX_VERTICES vertices raises CapExceeded.
    """
    _require(obj, "n", "m", "diagonals")
    n, m = _int_field(obj, "n"), _int_field(obj, "m")
    chords = _int_pairs(obj["diagonals"], "diagonals")
    try:
        t = dissection(n, m, chords)
    except GeometryError as exc:
        raise SerializeError(f"invalid dissection: {exc}") from exc
    N = t.params.N
    if N > MAX_VERTICES:
        raise CapExceeded(
            f"a dissection of the {N}-gon (n={n}, m={m}) exceeds the cap of "
            f"{MAX_VERTICES} polygon vertices"
        )
    # The constructor keeps one of each diagonal; a file lists each once.
    twice = _repeated(diagonal(a, b) for a, b in chords)
    if twice is not None:
        raise SerializeError(f"invalid dissection: duplicate diagonal {twice}")
    report = check_chords(t)
    if not report.ok:
        raise SerializeError(f"invalid dissection: {report.detail}")
    return t


def quiver_to_json(q: algebra.QuiverWithRelations) -> dict[str, Any]:
    return {
        "m": q.m,
        "vertices": q.vertex_count,
        "arrows": [[a.source, a.target] for a in q.arrows],
        "relations": sorted([i, j] for i, j in q.relations),
    }


def quiver_from_json(obj: Any) -> algebra.QuiverWithRelations:
    """Load a quiver, rejecting a level below 1, a negative vertex count and
    a relation listed twice; the constructor checks the arrows and that each
    relation composes.  More than MAX_VERTICES vertices raise CapExceeded."""
    _require(obj, "m", "vertices", "arrows", "relations")
    m, vertices = _int_field(obj, "m"), _int_field(obj, "vertices")
    if m < 1:
        raise SerializeError(f"need m >= 1, got m={m}")
    if vertices < 0:
        raise SerializeError(f"need vertices >= 0, got vertices={vertices}")
    if vertices > MAX_VERTICES:
        raise CapExceeded(
            f"a quiver of {vertices} vertices exceeds the cap of {MAX_VERTICES} vertices"
        )
    arrows = _int_pairs(obj["arrows"], "arrows")
    relations = _int_pairs(obj["relations"], "relations")
    twice = _repeated(relations)
    if twice is not None:
        raise SerializeError("duplicate relation ({},{})".format(*twice))
    # Arrows are serialized in id order, which is the constructor's
    # normalized order, so relation indices survive the round trip.
    return algebra.quiver(m, vertices, arrows, relations)


def invariant_to_json(inv: homology.DerivedInvariant) -> dict[str, Any]:
    return {
        "s": inv.s,
        "r": inv.r,
        "snf": list(inv.snf),
        "parity": list(inv.cycle_parity_counts),
    }


def invariant_from_json(obj: Any) -> homology.DerivedInvariant:
    _require(obj, "s", "r", "snf", "parity")
    parity = _int_list(obj["parity"], "parity")
    if len(parity) != 2:
        raise SerializeError(f"parity must be an (odd, even) pair, got {parity!r}")
    return homology.DerivedInvariant(
        _int_field(obj, "s"),
        _int_field(obj, "r"),
        tuple(_int_list(obj["snf"], "snf")),
        (parity[0], parity[1]),
    )


def move_to_json(rec: mutation.MoveRecord) -> dict[str, Any]:
    return {
        "kind": rec.kind,
        "site": list(rec.site),
        "before": invariant_to_json(rec.invariant_before),
        "after": invariant_to_json(rec.invariant_after),
    }


def move_from_json(obj: Any) -> mutation.MoveRecord:
    _require(obj, "kind", "site", "before", "after")
    site = tuple(_int_list(obj["site"], "site"))
    before, after = invariant_from_json(obj["before"]), invariant_from_json(obj["after"])
    # MoveRecord refuses an unknown kind and a changed invariant; in a file
    # either is bad input.
    try:
        return mutation.MoveRecord(obj["kind"], site, before, after)
    except mutation.MutationError as exc:
        raise SerializeError(str(exc)) from exc


def trace_to_json(trace: normalform.ReductionTrace) -> dict[str, Any]:
    return {
        "steps": [
            {**move_to_json(rec), "phase": phase}
            for rec, phase in zip(trace.steps, trace.phases)
        ],
        "final": quiver_to_json(trace.final),
        "iso": list(trace.iso_witness),
    }


def trace_from_json(obj: Any) -> normalform.ReductionTrace:
    _require(obj, "steps", "final", "iso")
    if not isinstance(obj["steps"], list):
        raise SerializeError("steps must be a list")
    for rec in obj["steps"]:
        _require(rec, "phase")
        if rec["phase"] not in normalform.PHASES:
            raise SerializeError(f"unknown phase {rec['phase']!r}")
    return normalform.ReductionTrace(
        tuple(move_from_json(rec) for rec in obj["steps"]),
        quiver_from_json(obj["final"]),
        tuple(_int_list(obj["iso"], "iso")),
        tuple(rec["phase"] for rec in obj["steps"]),
    )
