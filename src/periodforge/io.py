"""Text formats: graphs, rational matrices, polynomial dumps.

Graph files hold one declaration per line ('#' starts a comment):

    v <id> [weight]      # weight defaults to 0
    e <id> <u> <v>

Edge ids must run 1..|E| in file order.  Matrix files hold the dimension g
followed by g*g rational entries, row major, whitespace separated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .graphs import Graph, GraphError

if TYPE_CHECKING:
    from .voronoi import QuadraticForm


def parse_graph(text: str) -> Graph:
    vertex_order: list[int] = []
    weights: dict[int, int] = {}
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "v":
                if len(parts) not in (2, 3):
                    raise ValueError
                vid = int(parts[1])
                w = int(parts[2]) if len(parts) == 3 else 0
                if vid in weights:
                    raise GraphError(f"line {lineno}: duplicate vertex {vid}")
                vertex_order.append(vid)
                weights[vid] = w
            elif kind == "e":
                if len(parts) != 4:
                    raise ValueError
                edges.append((int(parts[1]), int(parts[2]), int(parts[3])))
            else:
                raise ValueError
        except ValueError:
            raise GraphError(f"line {lineno}: cannot parse {raw!r}") from None
    if not vertex_order:
        raise GraphError("graph file declares no vertices")
    for k, (eid, _, _) in enumerate(edges, start=1):
        if eid != k:
            raise GraphError(f"edge ids must be 1..{len(edges)} in order; "
                             f"found {eid} at position {k}")
    ren = {vid: i + 1 for i, vid in enumerate(vertex_order)}
    out_edges = []
    for eid, u, v in edges:
        if u not in ren or v not in ren:
            raise GraphError(f"edge {eid} uses an undeclared vertex")
        out_edges.append((ren[u], ren[v]))
    return Graph(tuple(weights[vid] for vid in vertex_order), tuple(out_edges))


def write_graph(g: Graph) -> str:
    lines = []
    for v in range(1, g.nv + 1):
        w = g.weights[v - 1]
        lines.append(f"v {v} {w}" if w else f"v {v}")
    for e in g.edge_ids:
        u, v = g.endpoints(e)
        lines.append(f"e {e} {u} {v}")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> QuadraticForm:
    # a graph-only process never loads the lattice code
    from .voronoi import QuadraticForm, VoronoiError

    tokens = []
    for raw in text.splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    if not tokens:
        raise VoronoiError("empty matrix file")
    try:
        g = int(tokens[0])
        entries = [Fraction(t) for t in tokens[1:]]
    except (ValueError, ZeroDivisionError) as exc:
        raise VoronoiError(f"cannot parse matrix file: {exc}") from None
    if g < 1:
        raise VoronoiError(f"matrix dimension must be positive, got {g}")
    if len(entries) != g * g:
        raise VoronoiError(f"expected {g * g} entries, found {len(entries)}")
    rows = [entries[i * g:(i + 1) * g] for i in range(g)]
    return QuadraticForm(rows)


def write_matrix(q: QuadraticForm) -> str:
    lines = [str(q.dim)]
    for row in q.matrix:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
