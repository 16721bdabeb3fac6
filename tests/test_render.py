"""Diagram output: counts, layout anchors, and byte determinism."""

from __future__ import annotations

import pytest

from mcw.algebra import quiver, quiver_of
from mcw.geometry import dissection
from mcw.normalform import NormalFormSpec, build_normal_form
from mcw.render import RenderError, dot_quiver, render, svg_dissection, svg_quiver

FAN = dissection(2, 1, [(0, 2), (0, 3)])
FOUR_CYCLE = build_normal_form(NormalFormSpec(4, 1, 2))
INDICES = range(4)


def test_pentagon_fan_has_two_chords():
    svg = svg_dissection(FAN)
    assert svg.count('class="chord"') == 2
    assert svg.count("<text") == 5


def test_vertex_zero_sits_at_the_top():
    svg = svg_dissection(FAN)
    # Label radius 188 around center 210: top label lands at (210, 22).
    assert '<text x="210.00" y="22.00"' in svg


def test_svg_is_byte_deterministic():
    assert svg_dissection(FAN) == svg_dissection(FAN)
    assert svg_quiver(FOUR_CYCLE, INDICES) == svg_quiver(FOUR_CYCLE, INDICES)


def test_quiver_svg_marks_relations_dashed():
    svg = svg_quiver(FOUR_CYCLE, INDICES)
    assert svg.count('class="arrow"') == 4
    assert svg.count('class="relation"') == 4
    assert svg.count("stroke-dasharray") == 4


def test_quiver_svg_uses_diagonal_labels():
    svg = svg_quiver(quiver_of(FAN), FAN.diagonals)
    assert ">d(0,2)</text>" in svg
    assert ">d(0,3)</text>" in svg
    dot = render(FAN, "dot")
    assert '0 [label="d(0,2)"];' in dot and '1 [label="d(0,3)"];' in dot


def test_four_cycle_dot_counts():
    dot = dot_quiver(FOUR_CYCLE, INDICES)
    assert dot.count(" -> ") == 8  # 4 plain edges + 4 dotted markers
    assert dot.count("style=dotted") == 4
    assert dot.startswith("digraph quiver {")
    assert dot.endswith("}\n")


def test_dot_marker_spans_the_zero_path():
    q = quiver(1, 3, [(0, 1), (1, 2)], [(0, 1)])
    dot = dot_quiver(q, range(3))
    assert '0 -> 2 [style=dotted, constraint=false, label="0"];' in dot


def test_render_dispatch():
    assert render(FAN, "svg") == svg_dissection(FAN)
    assert render(FAN, "dot") == dot_quiver(quiver_of(FAN), FAN.diagonals)
    assert render(FOUR_CYCLE, "svg") == svg_quiver(FOUR_CYCLE, INDICES)
    assert render(FOUR_CYCLE, "dot") == dot_quiver(FOUR_CYCLE, INDICES)
    assert '3 [label="3"];' in render(FOUR_CYCLE, "dot")
    with pytest.raises(RenderError, match="unknown format"):
        render(FAN, "png")
    with pytest.raises(RenderError, match="cannot render"):
        render(42, "svg")
