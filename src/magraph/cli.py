"""Command-line front end.

Every command takes the input graph as a positional path or ``--input``;
``builtin:T`` and ``builtin:R`` load the bundled examples. Plain-text tables
by default, ``--json`` for a machine-readable form (distance ``inf`` stays
the string "inf", missing predecessors become null). Exit codes: 0 success,
1 domain error (one-line diagnostic), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .algorithms import (
    DegreeResult,
    bfs,
    bfs_sub,
    degree,
    degree_from_adjacency,
    dfs,
    dfs_sub,
    sub_det_degree,
    sub_det_degree_from_adjacency,
)
from .core import (
    AspectList,
    CompanionTuple,
    Mag,
    SubDetermination,
    _kept_aspects,
    companion_tuple,
    composite_vertex_count,
    sub_determine_mag,
)
from .errors import MagError
from .io import builtin_example, load_mag, save_mag, export_matrix_market
from .matrices import (
    _incidence,
    adjacency_matrix,
    combinatorial_laplacian,
    elimination_matrix,
    main_components,
    normalized_laplacian,
    sub_determination_matrix,
    sub_determined_adjacency,
    trivial_components,
    weighted_laplacian,
)


def _load_input(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Mag:
    given = [x for x in (args.input_pos, args.input_opt) if x]
    if len(given) != 1:
        parser.error("give the input exactly once (positional or --input)")
    target = given[0]
    if target.startswith("builtin:"):
        return builtin_example(target[len("builtin:") :])
    return load_mag(target)


def _parse_zeta(mag: Mag, bits: str) -> SubDetermination:
    zeta = SubDetermination.from_bits(bits)
    zeta.require_valid(mag.order)
    return zeta


def _vertex_column(aspects: AspectList) -> list[str]:
    n = composite_vertex_count(CompanionTuple(aspects.sizes()))
    return ["(" + labels + ")" for labels in aspects.joined_labels(np.arange(n))]


def _plain(value):
    """inf becomes "inf", element-wise through lists and tuples."""
    if isinstance(value, (list, tuple)):
        return [_plain(x) for x in value]
    return "inf" if value == math.inf else value


def _print_fields(fields: dict, as_json: bool) -> None:
    """Print key -> values as sorted-key JSON, or one "key: v1 v2 ..." line each.

    A scalar is a one-value field; a list prints space-separated and a tuple
    (a companion tuple) comma-separated. inf prints as "inf" in both forms,
    None as null in JSON and nil in text.
    """
    if as_json:
        print(json.dumps({k: _plain(v) for k, v in fields.items()}, sort_keys=True))
        return
    for key, value in fields.items():
        if isinstance(value, tuple):
            value = [",".join(map(str, value))]
        elif not isinstance(value, list):
            value = [value]
        print(" ".join([f"{key}:", *("nil" if x is None else str(_plain(x)) for x in value)]))


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def fmt(cells):
        # right-align numbers, left-align the trailing labels column
        parts = [c.rjust(w) for c, w in zip(cells[:-1], widths[:-1])]
        parts.append(cells[-1])
        return "  ".join(parts)
    print(fmt(headers))
    for row in rows:
        print(fmt(row))


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args, parser) -> int:
    mag = _load_input(args, parser)
    if args.json:
        print(json.dumps({"name": mag.name, "ok": True}, sort_keys=True))
    else:
        print(f"ok: {mag.name}")
    return 0


def _cmd_info(args, parser) -> int:
    mag = _load_input(args, parser)
    fields = {
        "name": mag.name,
        "order": mag.order,
        "tau": companion_tuple(mag).sizes,
        "vertices": mag.vertex_count,
        "edges": len(mag.origin),
        "trivial": list(trivial_components(mag)),
    }
    _print_fields(fields, args.json)
    return 0


def _degree_result(mag: Mag, args) -> tuple[DegreeResult, AspectList]:
    if args.zeta:
        zeta = _parse_zeta(mag, args.zeta)
        aspects = _kept_aspects(mag.aspects, zeta)
        if args.algebraic:
            result = sub_det_degree_from_adjacency(
                adjacency_matrix(mag), zeta, args.separate_loops
            )
        else:
            result = sub_det_degree(mag, zeta, args.separate_loops)
        return result, aspects
    if args.algebraic:
        return degree_from_adjacency(adjacency_matrix(mag)), mag.aspects
    return degree(mag), mag.aspects


def _cmd_degree(args, parser) -> int:
    mag = _load_input(args, parser)
    if args.separate_loops and not args.zeta:
        parser.error("--separate-loops requires --zeta")
    result, aspects = _degree_result(mag, args)
    if args.json:
        fields = {"indegree": list(result.indegree), "outdegree": list(result.outdegree)}
        if result.selfdegree is not None:
            fields["selfdegree"] = list(result.selfdegree)
        _print_fields(fields, True)
        return 0
    labels = _vertex_column(aspects)
    headers = ["vertex", "in", "out"]
    if result.selfdegree is not None:
        headers.append("self")
    headers.append("labels")
    rows = []
    for i, (ind, outd) in enumerate(zip(result.indegree, result.outdegree)):
        row = [str(i + 1), str(ind), str(outd)]
        if result.selfdegree is not None:
            row.append(str(result.selfdegree[i]))
        row.append(labels[i])
        rows.append(row)
    _print_table(headers, rows)
    return 0


def _cmd_bfs(args, parser) -> int:
    mag = _load_input(args, parser)
    jm = adjacency_matrix(mag)
    tokens = tuple(t.strip() for t in args.source.split(","))
    if args.zeta:
        zeta = _parse_zeta(mag, args.zeta)
        source = _kept_aspects(mag.aspects, zeta).vertex(tokens)
        result = bfs_sub(jm, zeta, source.numeric)
    else:
        source = mag.aspects.vertex(tokens)
        result = bfs(jm, source)
    fields = {
        "vertices": list(result.vertices),
        "distance": list(result.distance),
        "pred": list(result.pred),
    }
    _print_fields(fields, args.json)
    return 0


def _cmd_dfs(args, parser) -> int:
    mag = _load_input(args, parser)
    jm = adjacency_matrix(mag)
    if args.zeta:
        result = dfs_sub(jm, _parse_zeta(mag, args.zeta))
    else:
        result = dfs(jm)
    fields = {"d": list(result.disc_time), "f": list(result.fin_time), "pred": list(result.pred)}
    _print_fields(fields, args.json)
    return 0


def _subdet_adjacency(mag: Mag, bits: str):
    jm = adjacency_matrix(mag)
    agg = sub_determination_matrix(jm.tau, _parse_zeta(mag, bits))
    return sub_determined_adjacency(jm.matrix, agg)


# --matrix kind -> (builder(mag, zeta bits), --main-components mode or None
# where the flag does not apply); the key order is the order of the choices
_EXPORTS = {
    "adjacency": (lambda mag, _: adjacency_matrix(mag).matrix, "adjacency"),
    "incidence": (lambda mag, _: _incidence(mag).matrix, "incidence"),
    "laplacian": (lambda mag, _: combinatorial_laplacian(_incidence(mag).matrix), "adjacency"),
    "weighted-laplacian": (
        lambda mag, _: weighted_laplacian(_incidence(mag).matrix, mag.edge_weights),
        "adjacency",
    ),
    "normalized-laplacian": (lambda mag, _: normalized_laplacian(_incidence(mag).matrix), "adjacency"),
    "subdet-adjacency": (_subdet_adjacency, None),
    "elimination": (lambda mag, _: elimination_matrix(mag), None),
}


def _cmd_export(args, parser) -> int:
    mag = _load_input(args, parser)
    kind = args.matrix
    build, mode = _EXPORTS[kind]
    if kind == "subdet-adjacency" and not args.zeta:
        parser.error("--matrix subdet-adjacency requires --zeta")
    if kind != "subdet-adjacency" and args.zeta:
        parser.error(f"--zeta does not apply to --matrix {kind}")
    if args.main_components and mode is None:
        parser.error(f"--main-components does not apply to {kind}")
    matrix = build(mag, args.zeta)
    if args.main_components:
        matrix = main_components(matrix, elimination_matrix(mag), mode)
    export_matrix_market(matrix, args.output)
    return 0


def _cmd_subdet(args, parser) -> int:
    mag = _load_input(args, parser)
    zeta = _parse_zeta(mag, args.zeta)
    save_mag(sub_determine_mag(mag, zeta), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magraph",
        description="Inspect, traverse, and export multi-aspect graphs (.mag files).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "input_pos",
        nargs="?",
        metavar="IN",
        help=".mag file, or builtin:T / builtin:R",
    )
    common.add_argument("--input", dest="input_opt", metavar="IN", help="same as IN")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("validate", parents=[common], help="parse and validate a file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", parents=[common], help="order, sizes, counts, trivial components")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("degree", parents=[common], help="per-vertex degrees")
    p.add_argument("--zeta", metavar="BITS", help="sub-determination mask, rightmost bit = aspect 1")
    p.add_argument("--separate-loops", action="store_true", help="report collapsed self-loops separately")
    p.add_argument("--algebraic", action="store_true", help="compute via matrix products")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("bfs", parents=[common], help="breadth-first search")
    p.add_argument("--source", required=True, metavar="LABELS", help="comma-separated labels (kept aspects only with --zeta)")
    p.add_argument("--zeta", metavar="BITS", help="sub-determined search")
    p.set_defaults(func=_cmd_bfs)

    p = sub.add_parser("dfs", parents=[common], help="depth-first search")
    p.add_argument("--zeta", metavar="BITS", help="sub-determined search")
    p.set_defaults(func=_cmd_dfs)

    p = sub.add_parser("export", parents=[common], help="write a matrix in Matrix Market format")
    p.add_argument("--matrix", required=True, choices=_EXPORTS)
    p.add_argument("--zeta", metavar="BITS", help="for subdet-adjacency")
    p.add_argument("--main-components", action="store_true", help="drop trivial rows/columns")
    p.add_argument("-o", "--output", required=True, metavar="OUT")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("subdet", parents=[common], help="write the sub-determined graph")
    p.add_argument("--zeta", required=True, metavar="BITS")
    p.add_argument("-o", "--output", required=True, metavar="OUT")
    p.set_defaults(func=_cmd_subdet)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (MagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
