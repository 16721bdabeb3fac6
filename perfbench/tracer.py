"""Run one mcw command in-process with spans around its public layer
functions, then write per-function totals as JSON.

Usage: python3 perfbench/tracer.py SPANS_JSON MCW_ARG...

The program is not changed: each traced function is replaced, in every
``mcw.*`` namespace that holds it, by a wrapper that records calls, total
and self time (total minus child spans) and calls that raised.  The whole
``cli.main`` call is the root span ``cli``, so ``cli`` self time is command
time outside every traced function (argument parsing, sorting, output).
Generators are timed per ``next()`` and their yields counted as items.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

TRACED = {
    "geometry": ("enumerate_dissections", "faces", "apply_move"),
    "algebra": (
        "quiver_of", "components", "full_relation_cycles",
        "canonical_form", "canonical_key", "iso_quivers",
    ),
    "homology": ("smith_normal_form", "cartan_matrix", "derived_invariant", "determinant"),
    "mutation": (
        "preserves_invariant", "realizability_report", "tilting_mutation_plus",
        "tilting_mutation_minus", "remove_relation_chain", "record_move",
    ),
    "normalform": ("reduce_component", "build_normal_form"),
    "serialize": ("dumps", "dissection_to_json"),
}


class Tracer:
    """Per-name span totals; a stack of child-time sums gives self time."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self._children: list[float] = []

    def _stat(self, name: str) -> dict[str, float]:
        return self.stats.setdefault(
            name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0, "items": 0, "true": 0},
        )

    def span(self, name: str, fn, *args, **kwargs):
        stat = self._stat(name)
        self._children.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stat["raised"] += 1
            raise
        finally:
            elapsed = perf_counter() - start
            child = self._children.pop()
            if self._children:
                self._children[-1] += elapsed
            stat["total_s"] += elapsed
            stat["self_s"] += elapsed - child
        if result is True:
            stat["true"] += 1
        return result

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                self._stat(name)["calls"] += 1
                it = fn(*args, **kwargs)
                done = object()
                while (item := self.span(name, next, it, done)) is not done:
                    self._stat(name)["items"] += 1
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            self._stat(name)["calls"] += 1
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Replace every traced function in every mcw namespace holding it.
        A name that no longer exists raises, so a rename is an error and
        not a silent zero."""
        import mcw.cli  # noqa: F401  (loads every module the CLI binds from)

        modules = [m for k, m in sys.modules.items() if k == "mcw" or k.startswith("mcw.")]
        for mod_name, funcs in TRACED.items():
            mod = sys.modules[f"mcw.{mod_name}"]
            for func in funcs:
                original = getattr(mod, func)
                wrapper = self.wrap(f"{mod_name}.{func}", original)
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, attr, wrapper)
                self._stat(f"{mod_name}.{func}")


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    tracer = Tracer()
    tracer.install()
    from mcw.cli import main as cli_main

    code = 0
    try:
        tracer.wrap("cli", cli_main)(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        Path(spans_path).write_text(json.dumps(tracer.stats), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
