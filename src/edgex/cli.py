"""Batch command-line front end.

One subcommand per pipeline stage; files in, files out. Exit codes:
0 success, 1 malformed input, 2 invalid precoloring, 3 internal invariant
violation, 4 not-extendable verdict, 5 inconclusive (budget exhausted).
Diagnostics go to stderr; set EDGEX_LOG to quiet, info or debug.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import serialize
from .coloring import verify_proper
from .errors import (
    BudgetExceededError,
    EdgexError,
    InternalInvariantError,
    InvalidPrecoloringError,
)
from .extension import (
    extend_hypercube,
    extend_over_complete,
    extend_over_hypercube,
    extend_over_star,
)
from .families import cartesian_product, complete, hypercube, standard_family, star
from .oracle import (
    build_blocked_hub_instance,
    check_local_obstruction,
    decide_extendable,
    explore_bipartite_factor,
)
from .serialize import FormatError

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INVALID_PRECOLORING = 2
EXIT_INTERNAL = 3
EXIT_NOT_EXTENDABLE = 4
EXIT_INCONCLUSIVE = 5

log = logging.getLogger("edgex")

# factor kind of G x H (all but qd:D, which takes no G) -> its entry point,
# H from the kind's parameter M (a call of this module's builder, looked up
# when it runs) and H's name
_FACTORS = {
    "k2m": (extend_over_complete, lambda m: complete(2 * m), lambda m: f"K_{2 * m}"),
    "q": (extend_over_hypercube, lambda m: hypercube(m), lambda m: f"Q_{m}"),
    "star": (extend_over_star, lambda m: star(m), lambda m: f"K_1,{m}"),
}


def _parse_family(spec: str):
    name, _, raw = spec.partition(":")
    try:
        params = [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise FormatError(f"bad family parameters in {spec!r}")
    return standard_family(name, *params)


def _parse_factor(spec: str) -> tuple[str, int]:
    kind, _, raw = spec.partition(":")
    if kind not in _FACTORS and kind != "qd":
        raise FormatError(f"factor must be k2m:M, q:M, star:M or qd:D, got {spec!r}")
    try:
        value = int(raw)
    except ValueError:
        raise FormatError(f"bad factor parameter in {spec!r}")
    return kind, value


def _emit(text: str, out: str | None) -> None:
    """Write text to the file `out`, or to stdout when there is none."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    g = _parse_family(args.family)
    name = args.name or args.family
    if args.format == "dot":
        _emit(serialize.to_dot(g, None, name), args.out)
    else:
        _emit(serialize.dumps(serialize.graph_to_dict(g, name)), args.out)
    log.info("built %s: %d vertices, %d edges", args.family, g.n, len(g.edges))
    return EXIT_OK


def cmd_product(args) -> int:
    lname, left = serialize.graph_from_dict(serialize.read_doc(args.left))
    rname, right = serialize.graph_from_dict(serialize.read_doc(args.right))
    p = cartesian_product(left, right)
    _emit(serialize.dumps(serialize.product_to_dict(p, args.name or f"{lname}x{rname}")), args.out)
    return EXIT_OK


def cmd_extend(args) -> int:
    kind, value = _parse_factor(args.factor)
    pre = serialize.precoloring_from_dict(serialize.read_doc(args.pre))
    if kind == "qd":
        host_name = f"Q_{value}"
        # build_graph's edges are canonical and distinct, so this is "given
        # equals Q_D", and O(1) on the counts of a graph that is not a cube
        given = None if args.graph is None else serialize.graph_from_dict(serialize.read_doc(args.graph))[1]
        if given is not None and given._cube_dim != value:
            raise FormatError(f"supplied graph is not Q_{value}")
        coloring = extend_hypercube(value, pre)  # checks the size before Q_D is built here
    else:
        if args.graph is None:
            raise FormatError("factor kinds k2m, q and star need a base graph file")
        gname, g = serialize.graph_from_dict(serialize.read_doc(args.graph))
        extend, right, right_name = _FACTORS[kind]
        coloring = extend(g, value, pre)
        host_name = f"{gname}x{right_name(value)}"
    host = None
    if args.format == "dot" or args.out_product:  # only these read the host
        host = hypercube(value) if kind == "qd" else cartesian_product(g, right(value)).graph
    if args.format == "dot":
        _emit(serialize.to_dot(host, coloring, host_name), args.out)
    else:
        _emit(serialize.dumps(serialize.coloring_to_dict(coloring)), args.out)
    if args.out_product:
        serialize.write_doc(args.out_product, serialize.graph_to_dict(host, host_name))
    log.info("extended %d prescribed edges over %s", len(pre.entries), host_name)
    return EXIT_OK


def cmd_verify(args) -> int:
    _, g = serialize.graph_from_dict(serialize.read_doc(args.graph))
    coloring = serialize.coloring_from_dict(serialize.read_doc(args.coloring))
    prescribed = serialize.precoloring_from_dict(serialize.read_doc(args.pre)).entries if args.pre else None
    report = verify_proper(g, coloring, prescribed=prescribed)
    if not report.ok:
        print(report)
        return EXIT_MALFORMED
    print("ok")
    return EXIT_OK


def cmd_oracle(args) -> int:
    _, g = serialize.graph_from_dict(serialize.read_doc(args.graph))
    pre = serialize.precoloring_from_dict(serialize.read_doc(args.pre))
    palette = args.palette if args.palette is not None else pre.palette_size
    witness = decide_extendable(g, pre, palette, budget=args.budget)
    if witness is None:
        print("not extendable")
        return EXIT_NOT_EXTENDABLE
    if args.out:
        serialize.write_doc(args.out, serialize.coloring_to_dict(witness))
    print("extendable")
    return EXIT_OK


def cmd_counterexample(args) -> int:
    _, left = serialize.graph_from_dict(serialize.read_doc(args.left))
    _, right = serialize.graph_from_dict(serialize.read_doc(args.right))
    inst = build_blocked_hub_instance(left, right)
    cert = check_local_obstruction(inst.product, inst.precoloring)
    if cert is None:
        raise InternalInvariantError("constructed instance yields no obstruction certificate")
    prefix = args.out_prefix
    serialize.write_doc(f"{prefix}.product.json", serialize.product_to_dict(inst.product))
    serialize.write_doc(f"{prefix}.precoloring.json", serialize.precoloring_to_dict(inst.precoloring))
    serialize.write_doc(
        f"{prefix}.certificate.json",
        {
            "hub": cert.hub,
            "blocked_color": cert.blocked_color,
            "witnesses": [
                {"u": e[0], "v": e[1], "witness_u": f[0], "witness_v": f[1]}
                for e, f in sorted(cert.witnesses.items())
            ],
        },
    )
    log.info("counterexample written: hub %d, %d prescribed edges", cert.hub, len(inst.precoloring.entries))
    return EXIT_OK


def cmd_explore11(args) -> int:
    _, g = serialize.graph_from_dict(serialize.read_doc(args.graph))
    report = explore_bipartite_factor(g, args.n, args.m, args.budget, seed=args.seed)
    doc = {
        "instances": report.instances,
        "extendable": report.extendable,
        "counterexamples": list(report.counterexamples),
        "budget_used": report.budget_used,
        "seed": report.seed,
    }
    _emit(serialize.dumps(doc), args.out)
    if report.counterexamples:
        return EXIT_NOT_EXTENDABLE
    if not report.exhaustive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_export_dot(args) -> int:
    name, g = serialize.graph_from_dict(serialize.read_doc(args.graph))
    coloring = None
    if args.coloring:
        coloring = serialize.coloring_from_dict(serialize.read_doc(args.coloring))
    _emit(serialize.to_dot(g, coloring, name), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgex",
        description="Extend precolored distance-2 matchings in product graphs and hypercubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a standard graph family")
    p.add_argument("family", help="family spec, e.g. hypercube:3, spider:3,2, complete_bipartite:2,3")
    p.add_argument("--name", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("product", help="Cartesian product of two graph files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--name", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("extend", help="extend a precoloring over a product")
    p.add_argument("graph", nargs="?", default=None, help="base graph file (not needed for qd:D)")
    p.add_argument("--factor", required=True, help="k2m:M, q:M, star:M or qd:D")
    p.add_argument("--pre", required=True, help="precoloring file")
    p.add_argument("--out", default=None, help="coloring output file")
    p.add_argument("--out-product", default=None, help="also write the product graph file")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--pre", default=None, help="also report disagreements with a precoloring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exact extendability decision")
    p.add_argument("graph")
    p.add_argument("pre")
    p.add_argument("--palette", type=int, default=None, help="palette size (default: from the file)")
    p.add_argument("--budget", type=int, default=None, help="search node budget")
    p.add_argument("--out", default=None, help="witness output file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("counterexample", help="build a non-extendable instance from two factors")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("explore11", help="sweep precolorings of G x K_{n,m} exactly")
    p.add_argument("graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_explore11)

    p = sub.add_parser("export-dot", help="render a graph (and optional coloring) as DOT")
    p.add_argument("graph")
    p.add_argument("--coloring", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_dot)

    return parser


_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def main(argv: list[str] | None = None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("EDGEX_LOG", "quiet"), logging.ERROR)
    logging.basicConfig(level=level, stream=sys.stderr, format="edgex: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidPrecoloringError as exc:
        log.error("invalid precoloring: %s", exc)
        print(f"error: invalid precoloring: {exc}", file=sys.stderr)
        return EXIT_INVALID_PRECOLORING
    except BudgetExceededError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (EdgexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
