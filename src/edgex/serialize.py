"""JSON document formats and DOT export.

All writers emit canonical documents (sorted canonical edges, fixed key
order, two-space indent, trailing newline), so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

from .coloring import EdgeColoring
from .errors import EdgexError
from .extension import Precoloring
from .families import ProductGraph
from .graph import Graph, build_graph, canonical_edge


class FormatError(EdgexError):
    """A document does not match its schema."""


def graph_to_dict(g: Graph, name: str = "graph") -> dict:
    return {
        "name": name,
        "vertices": list(g.labels),
        "edges": [[u, v] for (u, v) in g.edges],
    }


def graph_from_dict(doc: dict) -> tuple[str, Graph]:
    try:
        name = doc["name"]
        vertices = doc["vertices"]
        edges = doc["edges"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"graph document missing field: {exc}") from exc
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise FormatError("graph vertices and edges must be lists")
    if not isinstance(name, str) or not all(isinstance(x, str) for x in vertices):
        raise FormatError("graph name and vertex labels must be strings")
    if not all(
        isinstance(e, (list, tuple)) and len(e) == 2 and all(type(i) is int for i in e)
        for e in edges
    ):
        raise FormatError("edges must be pairs of integers")
    return name, build_graph(vertices, [tuple(e) for e in edges])


def _edge_kinds(p: ProductGraph) -> list[list]:
    """One row per edge, read off the vertex indexing: ["L", u, v, w] for the
    layer edge (u,w)-(v,w), ["F", u, w, z] for the fiber edge (u,w)-(u,z)."""
    kinds = []
    for (a, b) in p.graph.edges:
        (u, w), (v, z) = p.factors(a), p.factors(b)
        if w == z:
            kinds.append(["L", u, v, w])
        elif u == v:
            kinds.append(["F", u, w, z])
        else:
            raise FormatError(f"edge {(a, b)} is neither a layer nor a fiber edge")
    return kinds


def product_to_dict(p: ProductGraph, name: str = "product") -> dict:
    doc = graph_to_dict(p.graph, name)
    doc["product"] = {
        "left": p.left_order,
        "right": p.right_order,
        "edge_kinds": _edge_kinds(p),
    }
    return doc


def product_from_dict(doc: dict) -> tuple[str, ProductGraph]:
    """Load a product document; its edges must be exactly G box H for the
    factor edges its rows name, and edge_kinds must match the indexing."""
    name, graph = graph_from_dict(doc)
    try:
        meta = doc["product"]
        left = meta["left"]
        right = meta["right"]
        kinds = meta["edge_kinds"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"product document missing field: {exc}") from exc
    if not (type(left) is int and type(right) is int and left >= 0 and right >= 0):
        raise FormatError("product left and right must be non-negative integers")
    if left * right != graph.n:
        raise FormatError(f"product {left} x {right} does not have {graph.n} vertices")
    p = ProductGraph(graph=graph, left_order=left, right_order=right)
    derived = _edge_kinds(p)
    base_edges = {(k[1], k[2]) for k in derived if k[0] == "L"}
    right_edges = {(k[2], k[3]) for k in derived if k[0] == "F"}
    # each edge is a distinct copy of a named factor edge, so the counts agree
    # exactly when no copy is missing
    if len(derived) != len(base_edges) * right + len(right_edges) * left:
        raise FormatError("edges are not every layer and fiber copy of the factor edges")
    if kinds != derived:
        raise FormatError("edge_kinds do not match the vertex indexing")
    return name, p


def _edge_color_doc(palette: int, key: str, mapping: dict) -> dict:
    """The document of a palette and an edge -> color mapping, one row under
    `key` per edge in ascending order: what _edge_color_rows reads back."""
    rows = [{"u": e[0], "v": e[1], "color": c} for e, c in sorted(mapping.items())]
    return {"palette_size": palette, key: rows}


def coloring_to_dict(col: EdgeColoring) -> dict:
    return _edge_color_doc(col.palette_size, "assignment", col.assignment)


def _edge_color_rows(doc: dict, key: str) -> tuple[int, dict]:
    try:
        palette = doc["palette_size"]
        cells = [(r["u"], r["v"], r["color"]) for r in doc[key]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"document missing field: {exc}") from exc
    if type(palette) is not int:
        raise FormatError("palette_size must be an integer")
    if not all(type(x) is int for row in cells for x in row):
        raise FormatError(f"{key} rows must hold integer u, v, color")
    mapping = {canonical_edge(u, v): c for u, v, c in cells}
    if len(mapping) != len(cells):
        raise FormatError(f"duplicate edge in {key}")
    return palette, mapping


def coloring_from_dict(doc: dict) -> EdgeColoring:
    palette, assignment = _edge_color_rows(doc, "assignment")
    return EdgeColoring(palette_size=palette, assignment=assignment)


def precoloring_to_dict(pre: Precoloring) -> dict:
    return _edge_color_doc(pre.palette_size, "entries", pre.entries)


def precoloring_from_dict(doc: dict) -> Precoloring:
    palette, entries = _edge_color_rows(doc, "entries")
    return Precoloring(palette_size=palette, entries=entries)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def write_doc(path: str | Path, doc: dict) -> None:
    Path(path).write_text(dumps(doc), encoding="utf-8")


def read_doc(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top-level value must be an object")
    return doc


# 16 named X11/graphviz colors; edge color index c uses entry (c-1) mod 16
DOT_COLORS = (
    "red",
    "blue",
    "forestgreen",
    "orange",
    "purple",
    "brown",
    "cyan3",
    "magenta",
    "gold",
    "darkgreen",
    "navy",
    "salmon",
    "turquoise4",
    "violetred",
    "gray40",
    "olivedrab",
)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph, coloring: EdgeColoring | None = None, name: str = "graph") -> str:
    """Render the graph as DOT; with a coloring, edges carry color attributes."""
    lines = [f"graph {_quote(name)} {{", "  node [shape=circle];"]
    for label in g.labels:
        lines.append(f"  {_quote(label)};")
    for e in g.edges:
        left = _quote(g.labels[e[0]])
        right = _quote(g.labels[e[1]])
        if coloring is not None and e in coloring.assignment:
            c = coloring.assignment[e]
            dot_color = DOT_COLORS[(c - 1) % len(DOT_COLORS)]
            lines.append(f'  {left} -- {right} [color={dot_color} label="{c}"];')
        else:
            lines.append(f"  {left} -- {right};")
    lines.append("}")
    return "\n".join(lines) + "\n"
