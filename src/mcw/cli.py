"""Command-line front end.

Exit codes: 0 success, 1 invariant or oracle failure, 2 invalid input,
3 cap exceeded.  A reader that closes standard output early (``mcw ... |
head``) ends the command quietly with exit 0.  Every command is
deterministic for fixed inputs and flags; randomized spot checks take an
explicit --seed.
"""

from __future__ import annotations

import errno
import json
import os
import random
import re
import sys
from contextlib import contextmanager
from functools import cache, wraps
from itertools import islice
from typing import Any, Callable, Iterator, Mapping, NoReturn, TextIO

import click

from . import algebra, homology, mutation, normalform, render
from .geometry import (
    ENUMERATION_CAP,
    Diagonal,
    Dissection,
    PolygonParams,
    census_counts,
    diagonal,
    enumerate_dissections,
    fuss_catalan,
)
from .serialize import (
    SerializeError,
    dissection_from_json,
    dissection_lines,
    dissection_to_json,
    dumps,
    invariant_to_json,
    move_to_json,
    quiver_from_json,
    quiver_to_json,
    trace_to_json,
)

# Lines of `enumerate` output per write, about 32 KB of text: one write per
# line costs a system call per line wherever standard output writes through.
_BLOCK_LINES = 256

_MOVE_RE = re.compile(r"^d\((\d+)\s*,\s*(\d+)\)\s*:\s*([+-]?\d+)$")


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _closed_pipe() -> NoReturn:
    """Standard output lost its reader: exit 0 without a message.  Output
    still buffered goes to the null device, so the flush at shutdown cannot
    fail again."""

    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    sys.exit(0)


def _guarded(command: Callable[..., None]) -> Callable[..., None]:
    """Run a command body, mapping domain errors to exit codes."""

    @wraps(command)
    def run(*args: Any, **kwargs: Any) -> None:
        try:
            command(*args, **kwargs)
        except BrokenPipeError:
            _closed_pipe()
        except json.JSONDecodeError as exc:
            _fail(2, str(exc))
        except (ValueError, RuntimeError) as exc:
            # Each domain error class names its code; reading it loads no
            # layer that the command did not run.
            code = getattr(exc, "exit_code", None)
            if code is None:
                raise
            _fail(code, str(exc))

    return run


def _read(path: str, *kinds: str) -> Dissection | algebra.QuiverWithRelations:
    """The value in a JSON file of one of ``kinds``, "dissection" or
    "quiver"; a file with both keys is a dissection.  A file of the other
    kind is refused by name, and one of neither goes to the loader of a
    command's one kind, which names the keys missing."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError:
            raise  # a ValueError too; _guarded reports it as the decoder words it
        except RecursionError:
            raise SerializeError(f"{path}: JSON nested too deeply to read") from None
        except ValueError as exc:
            # Bytes that are not UTF-8, or an integer past the interpreter's
            # digit limit for decimal conversion.
            raise SerializeError(f"{path}: unreadable JSON: {exc}") from None
    if isinstance(obj, Mapping) and "diagonals" in obj:
        kind = "dissection"
    elif isinstance(obj, Mapping) and "arrows" in obj:
        kind = "quiver"
    elif len(kinds) == 1:
        kind = kinds[0]
    else:
        raise SerializeError("expected a dissection or quiver JSON object")
    if kind not in kinds:
        raise SerializeError(f"{path} is a {kind} file; this command reads {kinds[0]} files")
    return dissection_from_json(obj) if kind == "dissection" else quiver_from_json(obj)


def _components(path: str) -> list[algebra.QuiverWithRelations]:
    """Connected components of a dissection or quiver file, each screened
    by ``realizability_report``: the invariants and the reduction are
    defined on the realizable class.  The screen also keeps the
    reduction's canonical labeling off the inputs where its search is known
    to explode.  That search is exponential on non-gentle input and on
    gentle input too (disjoint relation-free 3-cycles, which the cycle-rank
    check refuses), so a gentle screen alone would not be enough.  A
    dissection is screened too: a cell of a partial one can give an
    oriented cycle of the wrong length.  Each distinct component value is
    screened once, in order of first occurrence, so a refusal names the
    first failing component.
    """

    obj = _read(path, "dissection", "quiver")
    if isinstance(obj, Dissection):
        obj = algebra.quiver_of(obj)
    comps = [c.quiver for c in algebra.components(obj)]
    for comp in dict.fromkeys(comps):
        report = mutation.realizability_report(comp)
        if report.problems:
            k = comps.index(comp)
            _fail(2, f"{path}: component {k} is not realizable: {report.problems[0]}")
    return comps


def _writable(out: str | None) -> None:
    """Refuse an --out file that could not be opened for writing, before the
    command does its work; nothing is created, so a command refused later
    still leaves no file behind."""
    if out is None:
        return
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        problem = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        problem = errno.EACCES
    else:
        return
    _fail(2, f"cannot write {out}: {os.strerror(problem)}")


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The text stream a command writes to: standard output or the --out file."""
    if out is None:
        # sys.stdout itself: click's stdout wrapper is line-buffered, which
        # would flush once per line of a streamed listing.  sys.stdout
        # writes through under PYTHONUNBUFFERED, one system call per write,
        # so a command that streams many lines writes them in blocks.
        yield sys.stdout
        sys.stdout.flush()
    else:
        try:
            fh = open(out, "w", encoding="utf-8")
        except OSError as exc:
            _fail(2, f"cannot write {out}: {exc.strerror}")
        with fh:
            yield fh


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _parse_move(spec: str) -> tuple[Diagonal, int]:
    match = _MOVE_RE.match(spec.strip())
    if match is None:
        _fail(2, f'move {spec!r} does not match "d(a,b):+1"')
    a, b, k = (int(g) for g in match.groups())
    if k not in (1, -1):
        _fail(2, f"move {spec!r}: rotation count must be +1 or -1, got {k}")
    return diagonal(a, b), k


_in_opt = click.option(
    "--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True
)
_out_opt = click.option("--out", type=click.Path(dir_okay=False), default=None)
_CAP = click.IntRange(min=0)


@click.group()
def main() -> None:
    """Polygon dissections, their gentle quivers, and derived-class tools."""


@main.command("enumerate")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option(
    "--cap",
    type=_CAP,
    default=ENUMERATION_CAP,
    show_default=True,
    help="Refuse larger enumerations.",
)
@_out_opt
@_guarded
def enumerate_cmd(n: int, m: int, cap: int, out: str | None) -> None:
    """List all dissections of the (m(n+1)+2)-gon, one JSON object per line."""

    p = PolygonParams(n, m)
    lines = dissection_lines(p, cap)
    # The cap is checked on the first pull, so a refused enumeration
    # writes nothing and leaves no --out file behind.
    line = next(lines)
    _writable(out)
    # The lines are rendered as text; the first must be the encoder's text
    # for the lexicographically first dissection of p, the fan at vertex 0.
    fan = Dissection(p, (Diagonal(0, k * m + 1) for k in range(1, n + 1)))
    expected = dumps(dissection_to_json(fan)) + "\n"
    if line != expected:
        _fail(1, f"line renderer wrote {line!r}, the JSON encoder {expected!r}")
    with _output(out) as fh:
        fh.write(line)
        while block := "".join(islice(lines, _BLOCK_LINES)):
            fh.write(block)


@main.command("quiver")
@_in_opt
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "dot", "svg"]),
    default="json",
    show_default=True,
)
@_out_opt
@_guarded
def quiver_cmd(infile: str, fmt: str, out: str | None) -> None:
    """Build the quiver with relations of a dissection."""

    _writable(out)
    t = _read(infile, "dissection")
    q = algebra.quiver_of(t)
    if fmt == "json":
        text = dumps(quiver_to_json(q)) + "\n"
    else:
        text = (render.svg_quiver if fmt == "svg" else render.dot_quiver)(q, t.diagonals)
    _emit(text, out)


@main.command("invariants")
@_in_opt
@_out_opt
@_guarded
def invariants_cmd(infile: str, out: str | None) -> None:
    """Derived invariant of each component, one JSON object per line."""

    _writable(out)
    comps = _components(infile)
    # One invariant and one line per distinct component value.
    lines = {
        c: dumps(invariant_to_json(homology.derived_invariant(c))) + "\n" for c in dict.fromkeys(comps)
    }
    _emit("".join(map(lines.get, comps)), out)


@main.command("mutate")
@_in_opt
@click.option("--move", "move_spec", required=True, help='Move spec "d(a,b):+1".')
@_out_opt
@_guarded
def mutate_cmd(infile: str, move_spec: str, out: str | None) -> None:
    """Rotate one diagonal; refuses moves that change the derived class."""

    _writable(out)
    t = _read(infile, "dissection")
    d, k = _parse_move(move_spec)
    if len(t.diagonals) < t.params.n:
        # A move's rotation assumes that every cell is an (m+2)-gon.
        _fail(2, f"{infile}: a move needs all n={t.params.n} diagonals, not {len(t.diagonals)}")
    if not mutation.preserves_invariant(t, d, k):
        _fail(1, f"moving {d!r} by {k:+d} changes the derived invariant")
    moved, moved_q, records = mutation.rotate(t, d, k, algebra.quiver_of(t))
    payload = {
        "dissection": dissection_to_json(moved),
        "quiver": quiver_to_json(moved_q),
        "records": [move_to_json(rec) for rec in records],
    }
    _emit(dumps(payload) + "\n", out)


@main.command("reduce")
@_in_opt
@click.option("--component", "comp_idx", type=int, default=0, show_default=True)
@click.option("--cap", type=_CAP, default=None, help="Step cap override.")
@_out_opt
@_guarded
def reduce_cmd(infile: str, comp_idx: int, cap: int | None, out: str | None) -> None:
    """Reduce one component to its normal form and print the trace."""

    _writable(out)
    comps = _components(infile)
    if not 0 <= comp_idx < len(comps):
        _fail(2, f"component {comp_idx} out of range; quiver has {len(comps)}")
    trace = normalform.reduce_component(comps[comp_idx], cap)
    _emit(dumps(trace_to_json(trace)) + "\n", out)


@main.command("equiv")
@click.argument("left", type=click.Path(exists=True, dir_okay=False))
@click.argument("right", type=click.Path(exists=True, dir_okay=False))
@_out_opt
@_guarded
def equiv_cmd(left: str, right: str, out: str | None) -> None:
    """Decide derived equivalence of two connected components."""

    _writable(out)
    sides = {}
    for name, path in (("left", left), ("right", right)):
        comps = _components(path)
        if len(comps) != 1:
            _fail(
                2,
                f"{name} input has {len(comps)} components; "
                "equivalence compares connected algebras",
            )
        sides[name] = comps[0]
    if sides["left"].m != sides["right"].m:
        _fail(2, f'levels differ: {sides["left"].m} vs {sides["right"].m}')
    answer = normalform.derived_equivalent(sides["left"], sides["right"])
    payload = {
        "equivalent": answer,
        "left": invariant_to_json(homology.derived_invariant(sides["left"])),
        "right": invariant_to_json(homology.derived_invariant(sides["right"])),
    }
    _emit(dumps(payload) + "\n", out)


@main.command("census")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@_out_opt
@_guarded
def census_cmd(n: int, m: int, out: str | None) -> None:
    """Component counts of every (s, r) class across all dissections."""

    _writable(out)
    tally = census_counts(PolygonParams(n, m))
    lines = [dumps({"s": s, "r": r, "count": count}) for (s, r), count in tally.items()]
    _emit("\n".join(lines) + "\n", out)


@main.command("render")
@_in_opt
@click.option("--format", "fmt", type=click.Choice(["svg", "dot"]), required=True)
@_out_opt
@_guarded
def render_cmd(infile: str, fmt: str, out: str | None) -> None:
    """Draw a dissection or quiver as an SVG or DOT document."""

    _writable(out)
    _emit(render.render(_read(infile, "dissection", "quiver"), fmt), out)


def _check_component(
    q: algebra.QuiverWithRelations,
    where: str,
    normal_form: Callable[[int, int], algebra.QuiverWithRelations],
) -> tuple[int, int]:
    """Reduce one component, compare its derived invariant's Smith diagonal
    with ``bh_diagonal``, check its Cartan determinant against the odd
    cycles, and check the reduction's witness against ``normal_form(s, r)``:
    a bijection that maps the reduced form's arrows and relations exactly
    onto the normal form's.  Returns the component's class (s, r)."""

    # reduce_component screens the component's realizability first.
    try:
        trace = normalform.reduce_component(q)
    except normalform.NormalFormError as exc:
        raise mutation.MutationError(f"{where}: {exc}") from exc
    inv = homology.derived_invariant(q)
    if inv.snf != homology.bh_diagonal(q):
        raise homology.HomologyError(f"{where}: Smith form mismatch")
    odd, _ = inv.cycle_parity_counts
    if homology.determinant(homology.cartan_matrix(q)) not in (0, 2**odd):
        raise homology.HomologyError(f"{where}: Cartan determinant")
    target, final, witness = normal_form(inv.s, inv.r), trace.final, trace.iso_witness
    if (
        final.vertex_count != inv.s
        or sorted(witness) != list(range(inv.s))
        or final.named(witness) != (target.arrow_pairs(), target.relation_triples())
    ):
        raise normalform.NormalFormError(
            f"{where}: witness {witness} does not map the reduced form onto "
            f"the normal form of class {(inv.s, inv.r)}"
        )
    return inv.s, inv.r


def _check_cell(
    n: int,
    m: int,
    rng: random.Random,
    samples: int,
    decided: dict[algebra.QuiverWithRelations, tuple[int, int]],
) -> str:
    """All structural invariants for one (n, m) cell; returns a summary.

    ``decided`` maps each component value already checked in this run to
    its class (s, r).  Every step of that check is a function of the
    quiver value alone, so a component that occurs again is not checked
    again, and the first dissection holding a failing component is the one
    named.  Each class's normal form is built once per cell.

    Up to ``samples`` admissible moves, drawn first, then go through
    ``mutation.rotate``, which compares each with geometry label for label;
    each is handed the quiver of its dissection that the component check
    built.
    """

    ts = list(enumerate_dissections(PolygonParams(n, m)))
    expected = fuss_catalan(n, m)
    if len(ts) != expected:
        raise mutation.MutationError(
            f"n={n} m={m}: enumerated {len(ts)} dissections, expected {expected}"
        )

    @cache
    def normal_form(s: int, r: int) -> algebra.QuiverWithRelations:
        return normalform.build_normal_form(normalform.NormalFormSpec(s, r, m))

    moves = [(t, d, k) for t in ts for d in t.diagonals for k in (1, -1)]
    rng.shuffle(moves)
    admissible = (move for move in moves if mutation.preserves_invariant(*move))
    sampled = list(islice(admissible, samples))
    # The quivers of the sampled moves' dissections, kept from the loop below.
    quivers = dict.fromkeys(t for t, _, _ in sampled)

    classes: set[tuple[int, int]] = set()
    for t in ts:
        q = algebra.quiver_of(t)
        if t in quivers:
            quivers[t] = q
        for comp in algebra.components(q):
            pair = decided.get(comp.quiver)
            if pair is None:
                pair = _check_component(comp.quiver, f"n={n} m={m} {t!r}", normal_form)
                decided[comp.quiver] = pair
            classes.add(pair)

    for t, d, k in sampled:
        mutation.rotate(t, d, k, quivers[t])
    return (
        f"n={n} m={m}: {len(ts)} dissections, {len(classes)} classes, "
        f"{len(sampled)} sampled moves ok"
    )


@main.command("check")
@click.option("--n", type=click.IntRange(min=1), required=True, help="Largest n, inclusive.")
@click.option("--m", type=click.IntRange(min=1), required=True, help="Largest m, inclusive.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--samples",
    type=click.IntRange(min=0),
    default=20,
    show_default=True,
    help="Admissible moves checked per cell.",
)
@_guarded
def check_cmd(n: int, m: int, seed: int, samples: int) -> None:
    """Run the invariant suite over every cell n' <= n, m' <= m."""

    rng = random.Random(seed)
    decided: dict[algebra.QuiverWithRelations, tuple[int, int]] = {}
    for mm in range(1, m + 1):
        for nn in range(1, n + 1):
            click.echo(_check_cell(nn, mm, rng, samples, decided))
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
