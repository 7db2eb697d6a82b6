"""Multi-aspect graph data model.

A graph here is a list of *aspects* (named, ordered sets of element labels)
plus a set of directed edges between *composite vertices* (one element per
aspect). Vertices map to matrix rows through a 1-based mixed-radix index whose
radices are the aspect sizes (the companion tuple); all matrix modules key
rows and columns by that index. Internally tuples are 0-based and the +1
happens at this boundary only.

Edges are stored in columnar form. The paper makes a graph isomorphic to a
digraph on composite vertices, so an edge is exactly an (origin index,
destination index, weight) triple: a Mag holds read-only int64 arrays of
0-based origin and destination indices and a float64 array of weights, and
validates them once, vectorized, when it is built. ``Mag.edges`` (MagEdge
objects with labels) is built from the arrays on first access only; the
matrix, degree, I/O and sub-determination code reads the arrays.

Aggregating away some aspects is *sub-determination*: a bitmask selects the
aspects to keep (least significant bit = first aspect), and vertices, edges,
and whole graphs have sub-determined images. Sub-determined edges that
degenerate into self-loops are dropped.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    EdgeArityError,
    EmptyAspectError,
    IndexOutOfRangeError,
    InvalidAspectError,
    InvalidZetaError,
    MagError,
    NonPositiveWeightError,
    SelfLoopEdgeError,
    ShapeMismatchError,
    UnknownElementError,
)

Labels = tuple[str, ...]
Numeric = tuple[int, ...]


@dataclass(frozen=True)
class Aspect:
    """One named, ordered set of element labels."""

    name: str
    elements: Labels

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise EmptyAspectError(f"aspect {self.name!r} has no elements")
        index = {}
        for i, label in enumerate(self.elements):
            if label in index:
                raise InvalidAspectError(
                    f"duplicate element {label!r} in aspect {self.name!r}"
                )
            index[label] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElementError(
                f"element {label!r} not in aspect {self.name!r}"
            ) from None


@dataclass(frozen=True)
class CompositeVertex:
    """A vertex: one element label per aspect, with its numeric (index) form."""

    labels: Labels
    numeric: Numeric

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "numeric", tuple(self.numeric))
        if len(self.labels) != len(self.numeric):
            raise EdgeArityError("label and numeric forms differ in length")

    @property
    def order(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return "(" + ",".join(self.labels) + ")"


@dataclass(frozen=True)
class AspectList:
    """The ordered aspects of a graph; owns label/index conversions."""

    aspects: tuple[Aspect, ...]

    def __post_init__(self):
        object.__setattr__(self, "aspects", tuple(self.aspects))
        if not self.aspects:
            raise EmptyAspectError("aspect list is empty")
        names = set()
        for a in self.aspects:
            if a.name in names:
                raise InvalidAspectError(f"duplicate aspect name {a.name!r}")
            names.add(a.name)

    @property
    def order(self) -> int:
        return len(self.aspects)

    def __len__(self) -> int:
        return len(self.aspects)

    def __getitem__(self, i: int) -> Aspect:
        return self.aspects[i]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.aspects)

    def vertex(self, labels: Sequence[str]) -> CompositeVertex:
        """Explicit label -> numeric conversion (no coercion elsewhere)."""
        labels = tuple(labels)
        if len(labels) != self.order:
            raise EdgeArityError(
                f"vertex has {len(labels)} elements, expected {self.order}"
            )
        numeric = tuple(a.index_of(x) for a, x in zip(self.aspects, labels))
        return CompositeVertex(labels, numeric)

    def vertex_from_numeric(self, numeric: Sequence[int]) -> CompositeVertex:
        numeric = tuple(numeric)
        if len(numeric) != self.order:
            raise EdgeArityError(
                f"vertex has {len(numeric)} components, expected {self.order}"
            )
        labels = []
        for a, i in zip(self.aspects, numeric):
            if not 0 <= i < len(a):
                raise IndexOutOfRangeError(
                    f"component {i} outside aspect {a.name!r} (size {len(a)})"
                )
            labels.append(a.elements[i])
        return CompositeVertex(tuple(labels), numeric)

    def joined_labels(self, index: np.ndarray) -> list[str]:
        """Comma-joined element labels of each 0-based composite index."""
        vertices, which = np.unique(index, return_inverse=True)
        columns = [
            [a.elements[i] for i in digit.tolist()]
            for a, digit in zip(self.aspects, _digits(vertices, self.sizes()))
        ]
        labels = [",".join(t) for t in zip(*columns)]
        return [labels[k] for k in which.tolist()]

    def edge(
        self,
        origin: Sequence[str],
        destination: Sequence[str],
        weight: float = 1.0,
    ) -> "MagEdge":
        return MagEdge(self.vertex(origin), self.vertex(destination), weight)


@dataclass(frozen=True)
class MagEdge:
    """A directed edge between two composite vertices of the same order."""

    origin: CompositeVertex
    destination: CompositeVertex
    weight: float = 1.0

    def __post_init__(self):
        if self.origin.order != self.destination.order:
            raise EdgeArityError("edge endpoints have different orders")
        if self.origin.labels == self.destination.labels:
            raise SelfLoopEdgeError(f"self-loop at {self.origin}")
        if not self.weight > 0:
            raise NonPositiveWeightError(f"edge weight {self.weight} must be > 0")

    def endpoints(self) -> tuple[Labels, Labels]:
        return self.origin.labels, self.destination.labels

    def __str__(self) -> str:
        return f"{self.origin} -> {self.destination}"


@dataclass(frozen=True, eq=False)
class Mag:
    """A multi-aspect graph: aspect list plus an ordered, duplicate-free edge list.

    Edge i runs from composite vertex ``origin[i]`` to ``destination[i]``
    (0-based indices, i.e. the 1-based vertex index minus one) with weight
    ``weights[i]``. The constructor copies the three arrays, checks them
    once (indices in range, no self-loop, no repeated pair, positive
    weights) and makes them read-only; ``lines``, one source line per edge,
    only labels its diagnostics. ``edges`` gives the same edges as MagEdge
    objects, built on first access and cached; the package's own code reads
    only the arrays. Edge order is meaningful (it fixes incidence-matrix
    rows and the weighted-Laplacian weight order) and is preserved exactly
    by file I/O. Two graphs are equal when their names, aspects and arrays
    are.
    """

    aspects: AspectList
    origin: np.ndarray
    destination: np.ndarray
    weights: np.ndarray
    name: str = "mag"
    lines: InitVar[Sequence[int] | None] = None

    def __post_init__(self, lines):
        arrays = _edge_arrays(self.aspects, self.origin, self.destination, self.weights, lines)
        for field, array in zip(("origin", "destination", "weights"), arrays):
            object.__setattr__(self, field, array)

    @cached_property
    def edges(self) -> tuple[MagEdge, ...]:
        """The edges as MagEdge objects, in order; built from the arrays on first access."""
        tau = companion_tuple(self)
        vertex = cache(lambda k: self.aspects.vertex_from_numeric(vertex_from_index(k + 1, tau)))
        return tuple(
            MagEdge(vertex(o), vertex(d), w)
            for o, d, w in zip(self.origin.tolist(), self.destination.tolist(), self.weights.tolist())
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mag):
            return NotImplemented
        return (
            self.name == other.name
            and self.aspects == other.aspects
            and np.array_equal(self.origin, other.origin)
            and np.array_equal(self.destination, other.destination)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.aspects, len(self.origin)))

    @property
    def order(self) -> int:
        return self.aspects.order

    @property
    def vertex_count(self) -> int:
        return composite_vertex_count(companion_tuple(self))

    @property
    def edge_weights(self) -> tuple[float, ...]:
        return tuple(self.weights.tolist())


def _digits(index: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    """Mixed-radix digits of 0-based composite indices, one array per aspect size."""
    rest = np.asarray(index, dtype=np.int64)
    digits = []
    for s in sizes:
        rest, digit = np.divmod(rest, s)
        digits.append(digit)
    return digits


def _repeats(origin: np.ndarray, destination: np.ndarray) -> np.ndarray:
    """True at every edge whose (origin, destination) pair occurs earlier."""
    order = np.lexsort((destination, origin))  # stable: first occurrences sort first
    o, d = origin[order], destination[order]
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:]] = (o[1:] == o[:-1]) & (d[1:] == d[:-1])
    return repeat


def _edge_arrays(aspects: AspectList, origin, destination, weights, lines=None):
    """Check an edge list given as index arrays; return read-only copies.

    Vectorized, O(|E| log |E|). A fault is reported at the first offending
    edge (a duplicate at its second occurrence), tagged with lines[k] when
    source lines are given.
    """
    tau = CompanionTuple(aspects.sizes())
    n = composite_vertex_count(tau)
    if n > np.iinfo(np.int64).max:
        raise IndexOutOfRangeError(f"{n} composite vertices exceed the int64 index range")
    o = np.array(origin, dtype=np.int64)
    d = np.array(destination, dtype=np.int64)
    w = np.array(weights, dtype=np.float64)
    if not o.shape == d.shape == w.shape == (len(o),):
        raise ShapeMismatchError(
            f"edge arrays have shapes {o.shape}, {d.shape} and {w.shape}"
        )
    outside = (o < 0) | (o >= n) | (d < 0) | (d >= n)
    bad = outside | (o == d) | ~(w > 0) | _repeats(o, d)
    if bad.any():
        k = int(bad.argmax())
        line = None if lines is None else lines[k]
        if outside[k]:
            raise IndexOutOfRangeError(f"edge {o[k]} -> {d[k]} leaves 0..{n - 1}", line=line)
        ov, dv = (aspects.vertex_from_numeric(vertex_from_index(int(x) + 1, tau)) for x in (o[k], d[k]))
        if o[k] == d[k]:
            raise SelfLoopEdgeError(f"self-loop at {ov}", line=line)
        if not w[k] > 0:
            raise NonPositiveWeightError(f"edge weight {w[k]} must be > 0", line=line)
        raise DuplicateEdgeError(f"duplicate edge {ov} -> {dv}", line=line)
    for array in (o, d, w):
        array.flags.writeable = False
    return o, d, w


def _endpoint_index(aspects: AspectList, v: CompositeVertex) -> int:
    """0-based composite index of a MagEdge endpoint, checked against the aspects."""
    if aspects.vertex(v.labels) != v:  # raises on a wrong order or an unknown label
        raise UnknownElementError(f"vertex {v} is inconsistent with the aspects")
    return vertex_index(v, CompanionTuple(aspects.sizes())) - 1


@dataclass(frozen=True)
class CompanionTuple:
    """Aspect sizes (tau). A sub-determined tuple has 0 at dropped aspects."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if any(s < 0 for s in self.sizes):
            raise IndexOutOfRangeError("companion tuple entries must be >= 0")

    @property
    def order(self) -> int:
        return len(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self):
        return iter(self.sizes)

    def is_full(self) -> bool:
        return all(s >= 1 for s in self.sizes)

    def restricted(self) -> "CompanionTuple":
        """Drop zero entries (the kept-aspects-only form of a sub-determined tuple)."""
        return CompanionTuple(tuple(s for s in self.sizes if s))


@dataclass(frozen=True)
class SubDetermination:
    """Bitmask over aspects; bit 0 (least significant) is the first aspect."""

    mask: int

    @classmethod
    def from_bits(cls, bits: str) -> "SubDetermination":
        """Parse a binary string whose rightmost character is aspect 1."""
        bits = bits.strip()
        if not bits or any(c not in "01" for c in bits):
            raise InvalidZetaError(f"malformed sub-determination {bits!r}")
        return cls(int(bits, 2))

    def bits(self, p: int) -> str:
        return format(self.mask, f"0{p}b")

    def require_valid(self, p: int) -> None:
        if not 1 <= self.mask <= 2**p - 2:
            raise InvalidZetaError(
                f"mask {self.bits(max(p, 1))} is not a proper nonempty "
                f"aspect sublist for order {p}"
            )

    def keeps(self, position: int) -> bool:
        """Whether the 0-based aspect position survives."""
        return bool(self.mask >> position & 1)

    def kept(self, p: int) -> tuple[int, ...]:
        return tuple(i for i in range(p) if self.keeps(i))


def build_mag(
    aspects: AspectList | Iterable[Aspect | tuple[str, Sequence[str]]],
    edges: Iterable[MagEdge],
    name: str = "mag",
) -> Mag:
    """Validate and assemble a graph from MagEdge objects.

    Rejects (rather than silently fixes) empty aspects, duplicate edges,
    self-loops, unknown elements, and arity mismatches. Each edge is
    converted to its index pair here; the Mag constructor checks the arrays.
    """
    if not isinstance(aspects, AspectList):
        built = []
        for a in aspects:
            if isinstance(a, Aspect):
                built.append(a)
            else:
                aspect_name, elements = a
                built.append(Aspect(aspect_name, tuple(elements)))
        aspects = AspectList(tuple(built))
    origin, destination, weights = [], [], []
    fault = None
    for e in edges:
        try:
            ends = _endpoint_index(aspects, e.origin), _endpoint_index(aspects, e.destination)
        except MagError as exc:
            fault = exc
            break
        origin.append(ends[0])
        destination.append(ends[1])
        weights.append(e.weight)
    mag = Mag(aspects, origin, destination, weights, name)  # a fault on an earlier edge wins
    if fault is not None:
        raise fault
    return mag


def companion_tuple(mag: Mag) -> CompanionTuple:
    """Aspect sizes of a graph; O(p)."""
    return CompanionTuple(mag.aspects.sizes())


def sub_companion_tuple(tau: CompanionTuple, zeta: SubDetermination) -> CompanionTuple:
    """Zero out the entries of the dropped aspects."""
    zeta.require_valid(tau.order)
    return CompanionTuple(
        tuple(s if zeta.keeps(i) else 0 for i, s in enumerate(tau.sizes))
    )


def position_weight(i: int, tau: CompanionTuple) -> int:
    """Mixed-radix weight of tuple position i (1-based; i = p+1 gives the vertex count).

    Zero entries of a sub-determined tuple contribute no factor.
    """
    p = tau.order
    if not 1 <= i <= p + 1:
        raise IndexOutOfRangeError(f"position {i} outside 1..{p + 1}")
    w = 1
    for s in tau.sizes[: i - 1]:
        if s:
            w *= s
    return w


def composite_vertex_count(tau: CompanionTuple) -> int:
    """Product of the (nonzero) aspect sizes."""
    return position_weight(tau.order + 1, tau)


def vertex_index(v: CompositeVertex | Sequence[int], tau: CompanionTuple) -> int:
    """1-based numeric index of a vertex under tau.

    Accepts the numeric tuple directly or a CompositeVertex. With a
    sub-determined tau the components of dropped aspects are ignored, so the
    full-length tuple yields the index of its sub-determined image.
    """
    numeric = v.numeric if isinstance(v, CompositeVertex) else tuple(v)
    if len(numeric) != tau.order:
        raise IndexOutOfRangeError(
            f"vertex has {len(numeric)} components, tuple has {tau.order}"
        )
    d = 0
    w = 1
    for x, s in zip(numeric, tau.sizes):
        if s == 0:
            continue
        if not 0 <= x < s:
            raise IndexOutOfRangeError(f"component {x} outside [0, {s - 1}]")
        d += x * w
        w *= s
    return d + 1


def vertex_from_index(d: int, tau: CompanionTuple) -> Numeric:
    """Invert vertex_index. Dropped aspects of a sub-determined tau come back as 0."""
    n = composite_vertex_count(tau)
    if not 1 <= d <= n:
        raise IndexOutOfRangeError(f"index {d} outside 1..{n}")
    rest = d - 1
    out = []
    for s in tau.sizes:
        if s == 0:
            out.append(0)
        else:
            out.append(rest % s)
            rest //= s
    return tuple(out)


def sub_determine_vertex(v: CompositeVertex, zeta: SubDetermination) -> CompositeVertex:
    """Keep only the aspects selected by zeta, preserving order."""
    zeta.require_valid(v.order)
    kept = zeta.kept(v.order)
    return CompositeVertex(
        tuple(v.labels[i] for i in kept), tuple(v.numeric[i] for i in kept)
    )


def sub_determine_edge(e: MagEdge, zeta: SubDetermination) -> MagEdge | None:
    """Sub-determine both endpoints; None when the image is a self-loop."""
    o = sub_determine_vertex(e.origin, zeta)
    d = sub_determine_vertex(e.destination, zeta)
    if o.labels == d.labels:
        return None
    return MagEdge(o, d, e.weight)


def subdet_image(tau: CompanionTuple, zeta: SubDetermination) -> np.ndarray:
    """0-based sub-determined index of every 0-based composite index under tau.

    Entry j is the index, among the kept aspects, of vertex j's image;
    mixed-radix arithmetic on np.arange(n), O(p·n).
    """
    tz = sub_companion_tuple(tau, zeta)
    index = np.arange(composite_vertex_count(tau), dtype=np.int64)
    image = np.zeros_like(index)
    weight = 1
    for digit, s in zip(_digits(index, tau.sizes), tz.sizes):
        if s:
            image += digit * weight
            weight *= s
    return image


def sub_determine_mag(mag: Mag, zeta: SubDetermination) -> Mag:
    """The graph over the kept aspects.

    Self-loop images are dropped and parallel images collapse to a single
    edge (first occurrence order, unit weight); edge multiplicities survive
    only in the matrix form. O(n + |E| log |E|).
    """
    image = subdet_image(companion_tuple(mag), zeta)
    aspects = AspectList(tuple(mag.aspects.aspects[i] for i in zeta.kept(mag.order)))
    o, d = image[mag.origin], image[mag.destination]
    keep = o != d
    o, d = o[keep], d[keep]
    first = ~_repeats(o, d)
    return Mag(
        aspects,
        o[first],
        d[first],
        np.ones(int(first.sum())),
        f"{mag.name}_zeta{zeta.bits(mag.order)}",
    )
