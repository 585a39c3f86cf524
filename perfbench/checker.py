"""Independent output checks; nothing here calls into edgex.

Each check returns None when the output is right and a one-line reason
otherwise. The harness records any reason as a failed op of kind ``wrong``.
"""

from __future__ import annotations


def check_extension(edges, palette, entries, coloring):
    """A full proper edge coloring of ``edges`` from 1..palette that agrees
    with the prescription ``entries``."""
    assignment = getattr(coloring, "assignment", None)
    if not isinstance(assignment, dict):
        return f"result is {type(coloring).__name__}, not an edge coloring"
    missing = len(edges) - sum(1 for e in edges if e in assignment)
    if missing:
        return f"{missing} product edges uncolored"
    if len(assignment) != len(edges):
        return f"{len(assignment) - len(edges)} colored edges are not product edges"
    seen = set()
    for (u, v), c in assignment.items():
        if not (isinstance(c, int) and 1 <= c <= palette):
            return f"edge {(u, v)} colored {c!r} outside 1..{palette}"
        for x in (u, v):
            if (x, c) in seen:
                return f"color {c} repeats at vertex {x}"
            seen.add((x, c))
    for e, c in entries.items():
        if assignment[e] != c:
            return f"edge {e} colored {assignment[e]}, prescribed {c}"
    return None


def induced_matching_problem(edges, entries):
    """Reason the prescribed edges are not a distance-2 matching of the graph
    with edge set ``edges``, or None. Local test: no endpoint of one entry is
    an endpoint of, or adjacent to an endpoint of, another."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    owner = {}
    for e in entries:
        if e not in edges:
            return f"prescribed {e} is not a product edge"
        for x in e:
            owner[x] = e
    for e in entries:
        for x in e:
            for y in adj[x] | {x}:
                f = owner.get(y)
                if f is not None and f != e:
                    return f"prescribed {e} and {f} are closer than distance 2"
    return None


def check_refutation(edges, palette, entries, decided, certificate):
    """``decided`` must be None and ``certificate`` a sound local obstruction:
    a vertex of degree ``palette`` where every incident edge touches a
    prescribed edge of one color and none carries that color."""
    if decided is not None:
        return "decide_extendable reported a provably blocked instance extendable"
    problem = induced_matching_problem(edges, entries)
    if problem:
        return problem
    if certificate is None:
        return "no local obstruction certificate"
    hub, color = certificate.hub, certificate.blocked_color
    incident = [e for e in edges if hub in e]
    if len(incident) != palette:
        return f"hub {hub} has degree {len(incident)}, palette is {palette}"
    blocked = [e for e, c in entries.items() if c == color]
    for e in incident:
        if entries.get(e) == color:
            return f"hub edge {e} itself carries the blocked color {color}"
        if not any(f != e and set(e) & set(f) for f in blocked):
            return f"hub edge {e} touches no prescribed edge of color {color}"
    return None


def weighted_matching_count(edges, palette, cap):
    """min(cap, sum over distance-2 matchings M of palette ** |M|), the empty
    matching included: the number of instances explore_bipartite_factor
    must decide at budget ``cap``."""
    edges = sorted(edges)
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    closed = {x: adj[x] | {x} for x in adj}
    total = 0

    def grow(start, near, weight):
        nonlocal total
        total += weight
        for i in range(start, len(edges)):
            if total >= cap:
                return
            u, v = edges[i]
            if u in near or v in near:
                continue
            grow(i + 1, near | closed[u] | closed[v], weight * palette)

    grow(0, frozenset(), 1)
    return min(total, cap)


def check_exploration(report, expected, seed):
    """extendable + counterexamples == instances == min(budget, total)."""
    found = report.extendable + len(report.counterexamples)
    if not found == report.instances == expected:
        return (
            f"extendable {report.extendable} + counterexamples "
            f"{len(report.counterexamples)} vs instances {report.instances} "
            f"vs expected {expected}"
        )
    if report.seed != seed:
        return f"report seed {report.seed}, asked for {seed}"
    return None
