"""Data model, indexing, and sub-determination."""

import random

import pytest

from magraph import (
    Aspect,
    AspectList,
    CompanionTuple,
    DuplicateEdgeError,
    EdgeArityError,
    EmptyAspectError,
    IndexOutOfRangeError,
    InvalidAspectError,
    InvalidZetaError,
    Mag,
    NonPositiveWeightError,
    SelfLoopEdgeError,
    SubDetermination,
    UnknownElementError,
    build_mag,
    companion_tuple,
    composite_vertex_count,
    position_weight,
    sub_companion_tuple,
    sub_determine_edge,
    sub_determine_mag,
    sub_determine_vertex,
    vertex_from_index,
    vertex_index,
)
from helpers import random_mag


# ---------------------------------------------------------------------------
# construction and validation


def test_builtin_t_shape(mag_t):
    assert mag_t.order == 3
    assert mag_t.vertex_count == 18
    assert len(mag_t.edges) == 22


def test_single_aspect_digraph():
    aspects = AspectList((Aspect("V", ("a", "b")),))
    mag = build_mag(aspects, [aspects.edge(("a",), ("b",))], "tiny")
    assert mag.order == 1
    assert companion_tuple(mag).sizes == (2,)


def test_build_from_name_element_pairs():
    mag = build_mag([("X", ["x1", "x2"]), ("Y", ["y1"])], [], "empty")
    assert companion_tuple(mag).sizes == (2, 1)


def test_self_loop_rejected(mag_t):
    with pytest.raises(SelfLoopEdgeError):
        mag_t.aspects.edge(("1", "Bus", "t1"), ("1", "Bus", "t1"))


def test_duplicate_edge_rejected():
    aspects = AspectList((Aspect("V", ("a", "b")),))
    e = aspects.edge(("a",), ("b",))
    with pytest.raises(DuplicateEdgeError):
        build_mag(aspects, [e, aspects.edge(("a",), ("b",), weight=2.0)])


def test_unknown_element_rejected(mag_t):
    with pytest.raises(UnknownElementError):
        mag_t.aspects.vertex(("1", "Tram", "t1"))


def test_arity_mismatch_rejected(mag_t):
    with pytest.raises(EdgeArityError):
        mag_t.aspects.vertex(("1", "Bus"))


def test_empty_aspect_rejected():
    with pytest.raises(EmptyAspectError):
        Aspect("empty", ())
    with pytest.raises(EmptyAspectError):
        AspectList(())


def test_duplicate_labels_rejected():
    with pytest.raises(InvalidAspectError):
        Aspect("V", ("a", "a"))
    with pytest.raises(InvalidAspectError):
        AspectList((Aspect("V", ("a",)), Aspect("V", ("b",))))


def test_vertex_count_beyond_int64_rejected():
    # edges are stored as int64 composite indices
    aspects = AspectList(
        tuple(Aspect(f"A{k}", tuple(str(i) for i in range(100))) for k in range(10))
    )
    edge = aspects.edge(("0",) * 10, ("1",) * 10)
    with pytest.raises(IndexOutOfRangeError):
        build_mag(aspects, [edge])


def test_nonpositive_weight_rejected(mag_t):
    ends = ("2", "Bus", "t1"), ("2", "Bus", "t2")
    with pytest.raises(NonPositiveWeightError, match="must be > 0"):
        mag_t.aspects.edge(*ends, weight=0.0)
    # inf (and 1e309, which overflows to it) used to pass through build_mag
    for weight in (float("inf"), float("1e309")):
        with pytest.raises(NonPositiveWeightError, match="must be finite"):
            mag_t.aspects.edge(*ends, weight=weight)
        with pytest.raises(NonPositiveWeightError, match="must be finite"):
            Mag(mag_t.aspects, [0], [1], [weight])


# ---------------------------------------------------------------------------
# companion tuple and position weights


def test_companion_tuple_values(mag_t, mag_r):
    assert companion_tuple(mag_t).sizes == (3, 2, 3)
    assert companion_tuple(mag_r).sizes == (3, 2)
    five = build_mag([("V", [str(i) for i in range(5)])], [])
    assert companion_tuple(five).sizes == (5,)


def test_sub_companion_tuple():
    tau = CompanionTuple((3, 2, 3))
    assert sub_companion_tuple(tau, SubDetermination.from_bits("011")).sizes == (3, 2, 0)
    assert sub_companion_tuple(tau, SubDetermination.from_bits("100")).sizes == (0, 0, 3)
    with pytest.raises(InvalidZetaError):
        sub_companion_tuple(tau, SubDetermination.from_bits("111"))
    with pytest.raises(InvalidZetaError):
        sub_companion_tuple(tau, SubDetermination.from_bits("000"))


def test_position_weights():
    tau = CompanionTuple((3, 2, 3))
    assert [position_weight(i, tau) for i in (1, 2, 3)] == [1, 3, 6]
    assert position_weight(4, tau) == 18
    # zero entries of a sub-determined tuple contribute no factor
    assert position_weight(2, CompanionTuple((3, 0, 3))) == 3
    assert position_weight(3, CompanionTuple((3, 0, 3))) == 3
    with pytest.raises(IndexOutOfRangeError):
        position_weight(5, tau)


def test_weight_telescoping():
    rng = random.Random(7)
    for _ in range(50):
        mag = random_mag(rng)
        tau = companion_tuple(mag)
        for i, size in enumerate(tau.sizes, start=1):
            if size:
                assert position_weight(i + 1, tau) == position_weight(i, tau) * size
        assert position_weight(tau.order + 1, tau) == composite_vertex_count(tau)


def test_vertex_count():
    assert composite_vertex_count(CompanionTuple((3, 2, 3))) == 18
    assert composite_vertex_count(CompanionTuple((5,))) == 5
    assert composite_vertex_count(CompanionTuple((3, 2, 0))) == 6


# ---------------------------------------------------------------------------
# numeric representation


def test_vertex_index_worked_values(mag_t):
    tau = companion_tuple(mag_t)
    assert vertex_index(mag_t.aspects.vertex(("1", "Bus", "t1")), tau) == 1
    assert vertex_index(mag_t.aspects.vertex(("2", "Subway", "t2")), tau) == 11
    assert vertex_index(mag_t.aspects.vertex(("2", "Bus", "t3")), tau) == 14


def test_vertex_index_sub_determined(mag_t):
    # full tuple against a sub-determined companion tuple drops the time aspect
    v = mag_t.aspects.vertex(("2", "Bus", "t3"))
    assert vertex_index(v, CompanionTuple((3, 2, 0))) == 2


def test_vertex_from_index_worked_values():
    tau = CompanionTuple((3, 2, 3))
    assert vertex_from_index(14, tau) == (1, 0, 2)
    assert vertex_from_index(1, tau) == (0, 0, 0)
    assert vertex_from_index(18, tau) == (2, 1, 2)
    with pytest.raises(IndexOutOfRangeError):
        vertex_from_index(0, tau)
    with pytest.raises(IndexOutOfRangeError):
        vertex_from_index(19, tau)


def test_vertex_index_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        vertex_index((3, 0, 0), CompanionTuple((3, 2, 3)))
    with pytest.raises(IndexOutOfRangeError):
        vertex_index((0, 0), CompanionTuple((3, 2, 3)))


def test_round_trip_bijection(mag_t):
    tau = companion_tuple(mag_t)
    seen = set()
    for d in range(1, 19):
        v = vertex_from_index(d, tau)
        assert vertex_index(v, tau) == d
        seen.add(v)
    assert len(seen) == 18


def test_round_trip_random():
    rng = random.Random(21)
    for _ in range(50):
        mag = random_mag(rng)
        tau = companion_tuple(mag)
        n = composite_vertex_count(tau)
        assert sorted(
            vertex_index(vertex_from_index(d, tau), tau) for d in range(1, n + 1)
        ) == list(range(1, n + 1))


# ---------------------------------------------------------------------------
# sub-determination of vertices, edges, graphs


def test_sub_determine_vertex(mag_t):
    z = SubDetermination.from_bits("011")
    v = sub_determine_vertex(mag_t.aspects.vertex(("2", "Bus", "t1")), z)
    assert v.labels == ("2", "Bus")
    z1 = SubDetermination.from_bits("001")
    v1 = sub_determine_vertex(mag_t.aspects.vertex(("1", "Subway", "t2")), z1)
    assert v1.labels == ("1",)


def test_sub_determine_vertex_equivalence(mag_t):
    z = SubDetermination.from_bits("011")
    u = mag_t.aspects.vertex(("2", "Bus", "t1"))
    v = mag_t.aspects.vertex(("2", "Bus", "t2"))
    assert sub_determine_vertex(u, z) == sub_determine_vertex(v, z)


def test_sub_determine_edge(mag_t):
    z = SubDetermination.from_bits("011")
    crossing = mag_t.aspects.edge(("2", "Bus", "t1"), ("2", "Subway", "t1"))
    image = sub_determine_edge(crossing, z)
    assert image.origin.labels == ("2", "Bus")
    assert image.destination.labels == ("2", "Subway")
    # an edge that only advances time collapses to a self-loop and is dropped
    waiting = mag_t.aspects.edge(("2", "Bus", "t1"), ("2", "Bus", "t2"))
    assert sub_determine_edge(waiting, z) is None


def test_sub_determine_edge_kept_difference_survives():
    # an edge whose endpoints differ in some kept aspect never drops
    rng = random.Random(19)
    for _ in range(30):
        mag = random_mag(rng, p=rng.randint(2, 3))
        p = mag.order
        z = SubDetermination(rng.randint(1, 2**p - 2))
        kept = z.kept(p)
        for e in mag.edges:
            differs = any(
                e.origin.numeric[i] != e.destination.numeric[i] for i in kept
            )
            image = sub_determine_edge(e, z)
            assert (image is not None) == differs


def test_sub_determine_mag_r(mag_r):
    sub = sub_determine_mag(mag_r, SubDetermination.from_bits("01"))
    tau = companion_tuple(sub)
    assert tau.sizes == (3,)
    pairs = {
        (vertex_index(e.origin, tau), vertex_index(e.destination, tau))
        for e in sub.edges
    }
    assert pairs == {(1, 2), (2, 3)}


def test_sub_determine_mag_edgeless():
    mag = build_mag([("A", ["a", "b"]), ("B", ["x", "y"])], [], "e")
    sub = sub_determine_mag(mag, SubDetermination.from_bits("10"))
    assert sub.edges == ()
    assert companion_tuple(sub).sizes == (2,)


def test_edge_count_monotone_under_sub_determination():
    rng = random.Random(3)
    for _ in range(40):
        mag = random_mag(rng, p=rng.randint(2, 3))
        p = mag.order
        for mask in range(1, 2**p - 1):
            sub = sub_determine_mag(mag, SubDetermination(mask))
            assert len(sub.edges) <= len(mag.edges)


def test_sub_determination_index_consistency():
    # indexing a full vertex with the zeroed tuple equals indexing the
    # sub-determined vertex with the restricted tuple
    rng = random.Random(11)
    for _ in range(40):
        mag = random_mag(rng, p=rng.randint(2, 3))
        tau = companion_tuple(mag)
        p = mag.order
        mask = rng.randint(1, 2**p - 2)
        z = SubDetermination(mask)
        tz = sub_companion_tuple(tau, z)
        restricted = tz.restricted()
        n = composite_vertex_count(tau)
        for d in range(1, n + 1):
            v = mag.aspects.vertex_from_numeric(vertex_from_index(d, tau))
            direct = vertex_index(v, tz)
            via_sub = vertex_index(sub_determine_vertex(v, z), restricted)
            assert direct == via_sub


def test_sub_determination_equivalence_classes():
    rng = random.Random(13)
    for _ in range(20):
        mag = random_mag(rng, p=rng.randint(2, 3))
        tau = companion_tuple(mag)
        p = mag.order
        z = SubDetermination(rng.randint(1, 2**p - 2))
        tz = sub_companion_tuple(tau, z)
        n = composite_vertex_count(tau)
        for _ in range(20):
            u = mag.aspects.vertex_from_numeric(
                vertex_from_index(rng.randint(1, n), tau)
            )
            v = mag.aspects.vertex_from_numeric(
                vertex_from_index(rng.randint(1, n), tau)
            )
            same_image = sub_determine_vertex(u, z) == sub_determine_vertex(v, z)
            same_index = vertex_index(u, tz) == vertex_index(v, tz)
            assert same_image == same_index


def test_zeta_validation():
    with pytest.raises(InvalidZetaError):
        SubDetermination.from_bits("")
    with pytest.raises(InvalidZetaError):
        SubDetermination.from_bits("10x")
    z = SubDetermination.from_bits("01")
    z.require_valid(2)
    with pytest.raises(InvalidZetaError):
        SubDetermination.from_bits("11").require_valid(2)
    # order-1 graphs cannot be sub-determined at all
    with pytest.raises(InvalidZetaError):
        SubDetermination.from_bits("1").require_valid(1)


def test_edge_weight_preserved_by_single_edge_image(mag_t):
    z = SubDetermination.from_bits("011")
    e = mag_t.aspects.edge(("2", "Bus", "t1"), ("2", "Subway", "t1"), weight=0.5)
    assert sub_determine_edge(e, z).weight == 0.5
