"""File formats and builtin examples.

The ``.mag`` text format is line-oriented UTF-8. ``#`` starts a comment to
end of line; blank lines are ignored. Sections, in order::

    *mag <name>
    *aspect <name>
    <one element label per line>
    ...more aspects...
    *edges
    a1,...,ap -> b1,...,bp [: weight]

Labels are trimmed and may not contain ``,``, ``->``, ``:``, ``#`` or
newlines; element labels may not start with ``*``. Edge weight defaults to
1.0 when omitted. Aspect order, element order, edge order, and weights all
round-trip exactly through write/parse.

Matrices export to Matrix Market coordinate format (1-based indices,
row-major entries, 17 significant digits).
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path
from typing import TextIO

import numpy as np

from .core import Aspect, AspectList, Mag, _finite_positive, _label_tables, _weight_fault, build_mag
from .errors import (
    EdgeArityError,
    EmptyAspectError,
    InvalidAspectError,
    MagError,
    MagParseError,
    NonPositiveWeightError,
    UnknownElementError,
    UnknownExampleError,
)
from .sparse import SparseMatrix

_FORBIDDEN_IN_LABEL = (",", "->", ":", "#", "\n")


def _check_label(token: str, line: int | None) -> str:
    if not token:
        raise MagParseError("empty label", line=line)
    if token.startswith("*"):
        raise MagParseError(f"label {token!r} may not start with '*'", line=line)
    for bad in _FORBIDDEN_IN_LABEL:
        if bad in token:
            raise MagParseError(f"label {token!r} contains {bad!r}", line=line)
    return token


def parse_mag(text: str) -> Mag:
    """Parse ``.mag`` text into a validated graph.

    Every diagnostic carries the 1-based source line. A fault within one line
    (syntax, label, arity, weight) is reported wherever it occurs; otherwise
    the lowest-line edge fault wins: an unknown element, a self-loop, or a
    duplicate edge at its second occurrence. Labels map straight to composite
    indices, which the Mag constructor validates once.
    """
    name: str | None = None
    aspect_names: list[str] = []
    aspect_index: list[dict[str, int]] = []
    aspect_lines: list[int] = []
    tables: list[dict[str, int]] | None = None
    origin: list[int] = []
    destination: list[int] = []
    weights: list[float] = []
    edge_lines: list[int] = []
    unknown: tuple[int, MagError] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "*":
            directive, _, rest = line.partition(" ")
            rest = rest.strip()
            if directive == "*mag":
                if name is not None:  # every other section needs a *mag before it
                    raise MagParseError("second *mag section", line=lineno)
                if not rest:
                    raise MagParseError("*mag needs a name", line=lineno)
                name = rest
            elif directive == "*aspect":
                if name is None:
                    raise MagParseError("*aspect before *mag", line=lineno)
                if tables is not None:
                    raise MagParseError(
                        "aspect sections must precede *edges", line=lineno
                    )
                if not rest:
                    raise MagParseError("*aspect needs a name", line=lineno)
                if rest in aspect_names:
                    raise InvalidAspectError(
                        f"duplicate aspect name {rest!r}", line=lineno
                    )
                aspect_names.append(rest)
                aspect_index.append({})
                aspect_lines.append(lineno)
            elif directive == "*edges":
                if name is None or not aspect_names:
                    raise MagParseError("*edges before any aspect", line=lineno)
                if tables is not None:
                    raise MagParseError("second *edges section", line=lineno)
                tables = _label_tables(aspect_index)
            else:
                raise MagParseError(f"unknown directive {directive!r}", line=lineno)
            continue
        if tables is not None:
            o, d, w, missing = _parse_edge_line(line, lineno, tables, aspect_names)
            if missing is not None and unknown is None:
                unknown = (len(origin), missing)
            origin.append(o)
            destination.append(d)
            weights.append(w)
            edge_lines.append(lineno)
        elif aspect_names:
            label = _check_label(line, lineno)
            if label in aspect_index[-1]:
                raise InvalidAspectError(
                    f"duplicate element {label!r} in aspect {aspect_names[-1]!r}",
                    line=lineno,
                )
            aspect_index[-1][label] = len(aspect_index[-1])
        else:
            raise MagParseError(f"unexpected line {line!r}", line=lineno)

    if name is None:
        raise MagParseError("missing *mag section", line=1)
    if not aspect_names:
        raise MagParseError("no aspects declared", line=1)
    for aname, index, lineno in zip(aspect_names, aspect_index, aspect_lines):
        if not index:
            raise EmptyAspectError(f"aspect {aname!r} has no elements", line=lineno)

    aspects = AspectList(
        tuple(Aspect(a, tuple(index)) for a, index in zip(aspect_names, aspect_index))
    )
    if unknown is not None:
        k, exc = unknown
        # a self-loop or duplicate on an earlier line wins over the unknown element
        Mag(aspects, origin[:k], destination[:k], weights[:k], name, edge_lines[:k])
        raise exc
    return Mag(aspects, origin, destination, weights, name, edge_lines)


def _parse_edge_line(
    line: str, lineno: int, tables: list[dict[str, int]], names: list[str]
) -> tuple[int, int, float, MagError | None]:
    """Origin and destination index, weight, and the line's unknown-label fault."""
    head, colon, weight_part = line.partition(":")
    sides = head.split("->")
    if len(sides) != 2:
        raise MagParseError(f"edge line needs exactly one '->': {line!r}", line=lineno)
    origin, destination = sides[0].split(","), sides[1].split(",")
    order = len(tables)
    if len(origin) != order or len(destination) != order:
        for token in origin + destination:
            _check_label(token.strip(), lineno)
        raise EdgeArityError(
            f"edge has {len(origin)}+{len(destination)} elements, "
            f"expected {order}+{order}",
            line=lineno,
        )
    missing = None
    try:
        o = sum(map(dict.__getitem__, tables, map(str.strip, origin)))
        d = sum(map(dict.__getitem__, tables, map(str.strip, destination)))
    except KeyError:
        # labels found in their aspect's dict were checked when the aspect was
        # read; a missing one is checked for syntax, which outranks its absence
        o = d = -1
        for table, aname, token in zip(tables * 2, names * 2, origin + destination):
            if token.strip() not in table:
                _check_label(token.strip(), lineno)
                missing = missing or UnknownElementError(
                    f"element {token.strip()!r} not in aspect {aname!r}", line=lineno
                )
    weight = 1.0
    weight_part = weight_part.strip()
    if weight_part:
        try:
            weight = float(weight_part)
        except ValueError:
            raise MagParseError(f"malformed weight {weight_part!r}", line=lineno) from None
        if not _finite_positive(weight):
            raise NonPositiveWeightError(f"weight {_weight_fault(weight)}", line=lineno)
    elif colon:
        raise MagParseError("':' without a weight", line=lineno)
    return o, d, weight, missing


def _check_writable(token: str, what: str) -> str:
    if token != token.strip() or "\n" in token or "#" in token:
        raise MagParseError(f"{what} {token!r} cannot be written to .mag")
    return token


def write_mag(mag: Mag) -> str:
    """Serialize a graph so that parse_mag(write_mag(m)) == m exactly."""
    lines = [f"*mag {_check_writable(mag.name, 'name')}"]
    for a in mag.aspects.aspects:
        lines.append(f"*aspect {_check_writable(a.name, 'aspect name')}")
        for label in a.elements:
            _check_label(_check_writable(label, "label"), None)
            lines.append(label)
    lines.append("*edges")
    origin = mag.aspects.joined_labels(mag.origin)
    destination = mag.aspects.joined_labels(mag.destination)
    for o, d, w in zip(origin, destination, mag.weights.tolist()):
        lines.append(f"{o} -> {d}" if w == 1.0 else f"{o} -> {d} : {w!r}")
    return "\n".join(lines) + "\n"


def load_mag(path) -> Mag:
    return parse_mag(Path(path).read_text(encoding="utf-8"))


def save_mag(mag: Mag, path) -> None:
    Path(path).write_text(write_mag(mag), encoding="utf-8")


# ---------------------------------------------------------------------------
# Matrix Market coordinate format

_MM_HEADER = "%%MatrixMarket matrix coordinate real general"


def export_matrix_market(matrix: SparseMatrix, destination) -> None:
    """Write coordinate-format Matrix Market (1-based, row-major, 17 digits)."""
    rows = matrix.entry_rows + 1
    distinct, which = np.unique(matrix.values, return_inverse=True)
    values = [f"{v:.17g}" for v in distinct.tolist()]  # each distinct value once
    lines = [_MM_HEADER, f"{matrix.rows} {matrix.cols} {matrix.nnz}"]
    lines.extend(
        f"{i} {j} {values[k]}"
        for i, j, k in zip(rows.tolist(), (matrix.indices + 1).tolist(), which.tolist())
    )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def read_matrix_market(source: str | TextIO) -> SparseMatrix:
    """Parse coordinate-format Matrix Market text (or a readable handle); faults name their line."""
    text = source if isinstance(source, str) else source.read()
    lines = text.splitlines()
    if not lines:
        raise MagParseError("empty Matrix Market input", line=1)
    header = lines[0].split()
    expected = _MM_HEADER.lower().split()
    if [t.lower() for t in header] != expected:
        raise MagParseError(f"unsupported Matrix Market header {lines[0]!r}", line=1)
    body = [
        (i, ln)
        for i, ln in enumerate(lines[1:], start=2)
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise MagParseError("missing size line", line=2)
    (size_no, size_line), rest = body[0], body[1:]
    try:
        rows, cols, nnz = (int(p) for p in size_line.split())
    except ValueError:
        rows = cols = nnz = -1
    if min(rows, cols, nnz) < 0:
        raise MagParseError(f"malformed size line {size_line!r}", line=size_no)
    if len(rest) != nnz:
        where = len(lines) if len(rest) < nnz else rest[nnz][0]
        raise MagParseError(f"expected {nnz} entries, found {len(rest)}", line=where)
    entries = []
    for lineno, ln in rest:
        try:
            i, j, x = ln.split()
            r, c, value = int(i) - 1, int(j) - 1, float(x)
        except ValueError:
            raise MagParseError(f"malformed entry {ln!r}", line=lineno) from None
        if not (0 <= r < rows and 0 <= c < cols):
            raise MagParseError(f"entry {ln!r} is outside the {rows}x{cols} matrix", line=lineno)
        if not math.isfinite(value):
            raise MagParseError(f"entry {ln!r} is not finite", line=lineno)
        entries.append((r, c, value))
    ii, jj, vv = zip(*entries) if entries else ((), (), ())
    return SparseMatrix.from_coo(rows, cols, ii, jj, vv)


# ---------------------------------------------------------------------------
# builtin examples

# Urban-transit example: 3 locations x {Bus, Subway} x 3 times. Location 1 has
# no bus stop and location 3 no subway station, so six composite vertices stay
# unconnected. Edge order is pinned (layer transitions, then waits, then
# trips); incidence rows and weight vectors follow it.
_T_EDGES = (
    (("2", "Bus", "t1"), ("2", "Subway", "t1")),
    (("2", "Subway", "t1"), ("2", "Bus", "t1")),
    (("2", "Bus", "t2"), ("2", "Subway", "t2")),
    (("2", "Subway", "t2"), ("2", "Bus", "t2")),
    (("2", "Bus", "t3"), ("2", "Subway", "t3")),
    (("2", "Subway", "t3"), ("2", "Bus", "t3")),
    (("2", "Bus", "t1"), ("2", "Bus", "t2")),
    (("3", "Bus", "t1"), ("3", "Bus", "t2")),
    (("1", "Subway", "t1"), ("1", "Subway", "t2")),
    (("2", "Subway", "t1"), ("2", "Subway", "t2")),
    (("2", "Bus", "t2"), ("2", "Bus", "t3")),
    (("3", "Bus", "t2"), ("3", "Bus", "t3")),
    (("1", "Subway", "t2"), ("1", "Subway", "t3")),
    (("2", "Subway", "t2"), ("2", "Subway", "t3")),
    (("2", "Bus", "t1"), ("3", "Bus", "t2")),
    (("3", "Bus", "t1"), ("2", "Bus", "t2")),
    (("1", "Subway", "t1"), ("2", "Subway", "t2")),
    (("2", "Subway", "t1"), ("1", "Subway", "t2")),
    (("2", "Bus", "t2"), ("3", "Bus", "t3")),
    (("3", "Bus", "t2"), ("2", "Bus", "t3")),
    (("1", "Subway", "t2"), ("2", "Subway", "t3")),
    (("2", "Subway", "t2"), ("1", "Subway", "t3")),
)

# Two-aspect example whose aggregation over the second aspect creates a
# 1 -> 2 -> 3 chain that the full graph does not support end to end.
_R_EDGES = (
    (("1", "1"), ("1", "2")),
    (("2", "1"), ("3", "1")),
    (("2", "1"), ("2", "2")),
    (("3", "1"), ("3", "2")),
    (("1", "2"), ("2", "2")),
)


@lru_cache(maxsize=None)
def builtin_example(name: str) -> Mag:
    """The bundled examples: "T" (3x2x3 transit) and "R" (3x2 chain)."""
    if name == "T":
        aspects = AspectList(
            (
                Aspect("Location", ("1", "2", "3")),
                Aspect("Mode", ("Bus", "Subway")),
                Aspect("Time", ("t1", "t2", "t3")),
            )
        )
        return build_mag(aspects, [aspects.edge(o, d) for o, d in _T_EDGES], "T")
    if name == "R":
        aspects = AspectList(
            (Aspect("a1", ("1", "2", "3")), Aspect("a2", ("1", "2")))
        )
        return build_mag(aspects, [aspects.edge(o, d) for o, d in _R_EDGES], "R")
    raise UnknownExampleError(f"no builtin example {name!r} (try T or R)")
