import json

import pytest

from edgex import (
    EdgeColoring,
    Precoloring,
    cartesian_product,
    complete,
    complete_bipartite,
    hypercube,
    konig_color,
    path,
    spider,
)
from edgex.serialize import (
    DOT_COLORS,
    FormatError,
    coloring_from_dict,
    coloring_to_dict,
    dumps,
    graph_from_dict,
    graph_to_dict,
    precoloring_from_dict,
    precoloring_to_dict,
    product_from_dict,
    product_to_dict,
    read_doc,
    to_dot,
    write_doc,
)


class TestGraphDocs:
    def test_round_trip_bit_exact(self, tmp_path):
        g = spider(3, 2)
        doc = graph_to_dict(g, "spider")
        first = tmp_path / "a.json"
        write_doc(first, doc)
        name, back = graph_from_dict(read_doc(first))
        second = tmp_path / "b.json"
        write_doc(second, graph_to_dict(back, name))
        assert first.read_bytes() == second.read_bytes()
        assert back == g

    def test_schema(self):
        doc = graph_to_dict(path(3), "p3")
        assert doc == {"name": "p3", "vertices": ["p0", "p1", "p2"], "edges": [[0, 1], [1, 2]]}

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"name": "x", "vertices": ["a"]},
            {"name": "x", "vertices": ["a", "b"], "edges": [[0]]},
            {"name": "x", "vertices": ["a", "b"], "edges": [["0", "1"]]},
            {"name": 3, "vertices": [], "edges": []},
            {"name": "x", "vertices": 5, "edges": []},
            {"name": "x", "vertices": "ab", "edges": []},
            {"name": "x", "vertices": ["a", "b"], "edges": [[False, True]]},
            {"name": "x", "vertices": ["a", "b"], "edges": [[0, True]]},
        ],
    )
    def test_malformed_graph_docs(self, doc):
        with pytest.raises(FormatError):
            graph_from_dict(doc)


def _flip_tag(doc):
    doc["product"]["edge_kinds"][1][0] = "F"


def _wrong_copy_index(doc):
    doc["product"]["edge_kinds"][1][3] = 1


def _left_off_by_one(doc):
    doc["product"]["left"] = 3


def _string_right(doc):
    doc["product"]["right"] = "2"


def _boolean_left(doc):
    # a consistent K_1 box K_2 document but for the boolean
    doc["product"]["left"] = True
    doc["vertices"] = doc["vertices"][:2]
    doc["edges"] = [[0, 1]]
    doc["product"]["edge_kinds"] = [["F", 0, 0, 1]]


def _boolean_right(doc):
    # a consistent P_2 box K_1 document but for the boolean
    doc["product"]["right"] = True
    doc["vertices"] = doc["vertices"][:2]
    doc["edges"] = [[0, 1]]
    doc["product"]["edge_kinds"] = [["L", 0, 1, 0]]


def _add_diagonal_edge(doc):
    # (0,3) joins (p0, v0) to (p1, v1): in no layer and no fiber
    doc["edges"].insert(2, [0, 3])
    doc["product"]["edge_kinds"].insert(2, ["F", 0, 0, 1])


def _diagonal_for_fiber_edge(doc):
    # the same edge count and the same rows as a product, with (0,3) for (0,1)
    del doc["edges"][0]
    doc["edges"].insert(1, [0, 3])
    doc["product"]["edge_kinds"].insert(1, doc["product"]["edge_kinds"].pop(0))


def _drop_layer_copy(doc):
    # base edge p0-p1 is left in layer v1 only
    del doc["edges"][1]
    del doc["product"]["edge_kinds"][1]


class TestProductDocs:
    def test_round_trip(self, tmp_path):
        p = cartesian_product(path(3), complete(2))
        doc = product_to_dict(p, "ladder")
        f = tmp_path / "p.json"
        write_doc(f, doc)
        name, back = product_from_dict(read_doc(f))
        assert name == "ladder"
        assert back == p
        write_doc(tmp_path / "q.json", product_to_dict(back, name))
        assert f.read_bytes() == (tmp_path / "q.json").read_bytes()

    def test_kind_encoding(self):
        doc = product_to_dict(cartesian_product(path(3), complete(2)))
        assert doc["edges"] == [[0, 1], [0, 2], [1, 3], [2, 3], [2, 4], [3, 5], [4, 5]]
        assert doc["product"]["edge_kinds"] == [
            ["F", 0, 0, 1],
            ["L", 0, 1, 0],
            ["L", 0, 1, 1],
            ["F", 1, 0, 1],
            ["L", 1, 2, 0],
            ["L", 1, 2, 1],
            ["F", 2, 0, 1],
        ]
        doc = product_to_dict(cartesian_product(path(2), complete_bipartite(1, 2)))
        assert doc["edges"] == [[0, 1], [0, 2], [0, 3], [1, 4], [2, 5], [3, 4], [3, 5]]
        assert doc["product"]["edge_kinds"] == [
            ["F", 0, 0, 1],
            ["F", 0, 0, 2],
            ["L", 0, 1, 0],
            ["L", 0, 1, 1],
            ["L", 0, 1, 2],
            ["F", 1, 0, 1],
            ["F", 1, 0, 2],
        ]

    def test_mismatched_kinds_rejected(self):
        p = cartesian_product(path(2), complete(2))
        doc = product_to_dict(p)
        doc["product"]["edge_kinds"] = doc["product"]["edge_kinds"][:-1]
        with pytest.raises(FormatError):
            product_from_dict(doc)

    # each edit breaks the P_2 box K_2 document, whose edges are
    # (0,1) F, (0,2) L, (1,3) L, (2,3) F
    @pytest.mark.parametrize(
        "edit",
        [
            _flip_tag,
            _wrong_copy_index,
            _left_off_by_one,
            _string_right,
            _boolean_left,
            _boolean_right,
            _add_diagonal_edge,
            _diagonal_for_fiber_edge,
            _drop_layer_copy,
        ],
    )
    def test_inconsistent_products_rejected(self, edit):
        doc = product_to_dict(cartesian_product(path(2), complete(2)))
        edit(doc)
        with pytest.raises(FormatError):
            product_from_dict(doc)


class TestColoringDocs:
    def test_round_trip(self, tmp_path):
        col = konig_color(hypercube(3))
        doc = coloring_to_dict(col)
        f = tmp_path / "c.json"
        write_doc(f, doc)
        back = coloring_from_dict(read_doc(f))
        assert back == col
        write_doc(tmp_path / "d.json", coloring_to_dict(back))
        assert f.read_bytes() == (tmp_path / "d.json").read_bytes()

    def test_sorted_by_edge(self):
        col = EdgeColoring(2, {(2, 3): 1, (0, 1): 2})
        doc = coloring_to_dict(col)
        assert [r["u"] for r in doc["assignment"]] == [0, 2]

    def test_duplicate_edge_rejected(self):
        doc = {
            "palette_size": 2,
            "assignment": [{"u": 0, "v": 1, "color": 1}, {"u": 1, "v": 0, "color": 2}],
        }
        with pytest.raises(FormatError):
            coloring_from_dict(doc)

    @pytest.mark.parametrize(
        "row",
        [
            {"u": "0", "v": 1, "color": 1},
            {"u": 0, "v": 1, "color": "red"},
            {"u": 0, "color": 1},
            {"u": False, "v": True, "color": 1},
            {"u": 0, "v": 1, "color": True},
        ],
    )
    def test_non_integer_rows_rejected(self, row):
        with pytest.raises(FormatError):
            coloring_from_dict({"palette_size": 2, "assignment": [row]})

    def test_non_integer_palette_rejected(self):
        with pytest.raises(FormatError):
            coloring_from_dict({"palette_size": "3", "assignment": []})

    def test_boolean_palette_rejected(self):
        with pytest.raises(FormatError):
            coloring_from_dict({"palette_size": True, "assignment": []})


class TestPrecoloringDocs:
    def test_round_trip(self, tmp_path):
        pre = Precoloring(4, {(0, 3): 4, (1, 2): 2})
        f = tmp_path / "pre.json"
        write_doc(f, precoloring_to_dict(pre))
        back = precoloring_from_dict(read_doc(f))
        assert back == pre
        write_doc(tmp_path / "pre2.json", precoloring_to_dict(back))
        assert f.read_bytes() == (tmp_path / "pre2.json").read_bytes()

    @pytest.mark.parametrize(
        "doc",
        [
            {"palette_size": 3, "entries": [{"u": False, "v": True, "color": 1}]},
            {"palette_size": 3, "entries": [{"u": 0, "v": 1, "color": True}]},
            {"palette_size": True, "entries": []},
        ],
    )
    def test_booleans_rejected(self, doc):
        with pytest.raises(FormatError):
            precoloring_from_dict(doc)

    def test_mixed_type_row_names_the_row_types(self):
        doc = {"palette_size": 3, "entries": [{"u": "0", "v": 1, "color": 1}]}
        with pytest.raises(FormatError, match="^entries rows must hold integer u, v, color$"):
            precoloring_from_dict(doc)

    def test_not_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(FormatError):
            read_doc(bad)

    def test_non_object_rejected(self, tmp_path):
        bad = tmp_path / "arr.json"
        bad.write_text("[1, 2]")
        with pytest.raises(FormatError):
            read_doc(bad)


class TestDot:
    def test_structure(self):
        g = path(3)
        text = to_dot(g, name="p3")
        assert text.startswith('graph "p3" {')
        assert text.rstrip().endswith("}")
        assert '"p0" -- "p1";' in text

    def test_colors_cycle_over_16_names(self):
        g = path(3)
        col_a = EdgeColoring(20, {(0, 1): 1, (1, 2): 17})
        text = to_dot(g, col_a)
        # color 17 wraps to the same name as color 1
        assert text.count(f"color={DOT_COLORS[0]}") == 2

    def test_quoting(self):
        from edgex import build_graph

        g = build_graph(['a"b', "c\\d"], [(0, 1)])
        text = to_dot(g)
        assert '"a\\"b"' in text and '"c\\\\d"' in text

    def test_one_color_attribute_per_colored_edge(self):
        g = hypercube(2)
        col = konig_color(g)
        text = to_dot(g, col)
        assert text.count("[color=") == len(g.edges)


def test_dumps_is_stable():
    doc = {"b": 1, "a": 2}
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"
