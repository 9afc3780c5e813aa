"""Tests for SVG diagram rendering."""

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import pytest

from endperiodic import (
    DIAGRAM_KINDS,
    IntMatrix,
    InvalidInputError,
    block_lift,
    render,
    run_pipeline,
    strip_color,
)


def _parse(document: str) -> ET.Element:
    root = ET.fromstring(document)
    assert root.tag.endswith("svg")
    return root


#: SHA-256 of each figure of the running example
FIGURE_SHA = {
    "PieceMap": "fa0bfe30c435e28315b73b2ff4a274c8359dce684a3ca95f7d2ae8451718ce11",
    "Digraphs": "2ddca867a0ba8739cce7f4fd2b6538ffb783c6f298fb3790219ce87e11f9cf04",
    "Orbits": "cb17eeb5a26fa90ba526dda41d3e8ed39f722379c3238dd6cc5a944a147bf1df",
    "ExpandedRectangles":
        "2eaabea6bc1996f9dad7b092faef0bf173fc8fbcb5a4ad6027050a326f1660d4",
    "Complex2D": "da0b2fc6620ee11647a38a51864bafbdab65348b541ffb4b0c3e7da2ce1086d3",
}

#: SHA-256 of three figures of [[2]]: every edge digraph is a self-loop at
#: rectangle 1, so these draw the loop arcs, the one-rectangle orbits and
#: the one generator's window
TWO_FIGURE_SHA = {
    "Digraphs": "09975c6788bb6456092704e32ee3d659e4c105fd3619f93955d17c2a9f5ba850",
    "Orbits": "5a62f6f2ae6aa9a119837934f5579ec0977cb12958806796a8bbd4fcb029bbb1",
    "Complex2D": "da0d2c32181ff1c1dfaf18a2c2faa8c4cc380a6d4a0b0180fe1e48220d3e1cf5",
}

#: SHA-256 of the Complex2D figure of block_lift([[2]], 3) with
#: weak_perron_k=3: two generators, depth cap 15
LIFT_COMPLEX_SHA = "1c98465b5e1512bd4528b43bdb3eb9ac535ff77d8a7db5b84051e67d1cba6fbc"


class TestDocuments:
    @pytest.mark.parametrize(
        "rows, kind",
        [pytest.param(None, kind, id=kind) for kind in DIAGRAM_KINDS]
        + [pytest.param([[2]], kind, id=f"two-{kind}") for kind in TWO_FIGURE_SHA],
    )
    def test_pinned_bytes(self, rows, kind, running_result):
        if rows is None:
            result, pins = running_result, FIGURE_SHA
        else:
            result, pins = run_pipeline(IntMatrix.from_rows(rows)), TWO_FIGURE_SHA
        document = render(kind, result)
        assert hashlib.sha256(document.encode("utf-8")).hexdigest() == pins[kind]

    def test_pinned_lift_window(self):
        result = run_pipeline(block_lift(IntMatrix.from_rows([[2]]), 3),
                              weak_perron_k=3)
        assert len(result.schema.generators) == 2
        assert result.schema.depth_cap == 15
        document = render("Complex2D", result)
        assert hashlib.sha256(document.encode("utf-8")).hexdigest() == LIFT_COMPLEX_SHA

    @pytest.mark.parametrize("kind", DIAGRAM_KINDS)
    def test_well_formed_xml(self, kind, running_result):
        _parse(render(kind, running_result))

    @pytest.mark.parametrize("kind", DIAGRAM_KINDS)
    def test_byte_deterministic(self, kind, running_matrix, running_result):
        again = run_pipeline(running_matrix)
        first = render(kind, running_result)
        second = render(kind, again)
        assert first == second

    def test_unknown_kind_rejected(self, running_result):
        with pytest.raises(InvalidInputError):
            render("Mystery", running_result)


class TestPieceMapDiagram:
    def test_one_region_per_branch(self, running_result):
        D = running_result.decomposition
        vertical = sum(len(D.vertical_order[k]) for k in range(1, D.n + 1))
        horizontal = sum(len(D.horizontal_order[k]) for k in range(1, D.n + 1))
        root = _parse(render("PieceMap", running_result))
        colored = [
            el
            for el in root.iter()
            if el.tag.endswith("rect")
            and el.get("fill", "").startswith("hsl(")
        ]
        assert len(colored) == vertical + horizontal

    def test_palette_is_pure_function(self):
        assert strip_color(1, 2, 3) == strip_color(1, 2, 3)
        assert strip_color(1, 2, 3) != strip_color(2, 2, 3)


class TestDigraphsDiagram:
    def test_four_panels_with_vertex_labels(self, running_result):
        root = _parse(render("Digraphs", running_result))
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        for name in ("f_L", "f_R", "f_T^-1", "f_B^-1"):
            assert name in texts
        n = running_result.decomposition.facts.matrix.n
        assert sum(1 for t in texts if t == "1") == 4
        assert sum(1 for t in texts if t == str(n)) == 4


class TestOrbitsDiagram:
    def test_periodic_point_markers(self, running_result):
        root = _parse(render("Orbits", running_result))
        dots = [
            el
            for el in root.iter()
            if el.tag.endswith("circle")
            and el.get("fill") in ("#c02020", "#2040c0")
        ]
        total = sum(len(v) for v in running_result.points.values())
        assert len(dots) == total

    def test_empty_orbit_list_is_valid(self, running_result):
        @dataclass
        class Stub:
            system: object
            points: dict
            decomposition: object

        stub = Stub(
            system=running_result.system,
            points={},
            decomposition=running_result.decomposition,
        )
        root = _parse(render("Orbits", stub))
        dots = [
            el
            for el in root.iter()
            if el.tag.endswith("circle")
            and el.get("fill") in ("#c02020", "#2040c0")
        ]
        assert dots == []


class TestMissingData:
    @pytest.mark.parametrize(
        "kind,field",
        [
            ("PieceMap", "decomposition"),
            ("Digraphs", "system"),
            ("Orbits", "points"),
            ("ExpandedRectangles", "extended"),
            ("Complex2D", "schema"),
        ],
    )
    def test_error_names_missing_field(self, kind, field):
        with pytest.raises(InvalidInputError) as exc:
            render(kind, object())
        assert kind in str(exc.value)
