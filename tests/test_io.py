"""File format round trips, diagnostics with line numbers, builtin examples."""

import io
import random

import numpy as np
import pytest

from magraph import (
    DuplicateEdgeError,
    EdgeArityError,
    EmptyAspectError,
    MagError,
    MagParseError,
    NonPositiveWeightError,
    SelfLoopEdgeError,
    UnknownElementError,
    UnknownExampleError,
    adjacency_matrix,
    builtin_example,
    combinatorial_laplacian,
    companion_tuple,
    elimination_matrix,
    export_matrix_market,
    incidence_matrix,
    load_mag,
    parse_mag,
    read_matrix_market,
    save_mag,
    write_mag,
)
import expected_builtin as ref
from helpers import from_entries, random_mag, zeros

SAMPLE = """\
# two locations, two times
*mag demo
*aspect Place
home
work
*aspect Time
t1
t2
*edges
home,t1 -> work,t2
work,t1 -> home,t2 : 2.5
"""


def test_parse_basic():
    mag = parse_mag(SAMPLE)
    assert mag.name == "demo"
    assert companion_tuple(mag).sizes == (2, 2)
    assert len(mag.edges) == 2
    assert mag.edges[0].weight == 1.0
    assert mag.edges[1].weight == 2.5


def test_parse_preserves_order():
    mag = parse_mag(SAMPLE)
    assert mag.aspects[0].elements == ("home", "work")
    assert mag.edges[0].origin.labels == ("home", "t1")


@pytest.mark.parametrize("name", ["T", "R"])
def test_round_trip_builtin(name):
    mag = builtin_example(name)
    assert parse_mag(write_mag(mag)) == mag


def test_round_trip_random_weighted():
    rng = random.Random(83)
    for k in range(20):
        mag = random_mag(rng, weights=True, name=f"rand{k}")
        assert parse_mag(write_mag(mag)) == mag


def test_round_trip_on_disk(tmp_path, mag_t):
    path = tmp_path / "t.mag"
    save_mag(mag_t, path)
    assert load_mag(path) == mag_t


def test_duplicate_edge_reports_second_line():
    text = SAMPLE + "home,t1 -> work,t2\n"
    with pytest.raises(DuplicateEdgeError) as err:
        parse_mag(text)
    assert err.value.line == 12


def test_arity_mismatch_line():
    text = SAMPLE + "home,t1,x -> work,t2\n"
    with pytest.raises(EdgeArityError) as err:
        parse_mag(text)
    assert err.value.line == 12


def test_unknown_element_line():
    text = SAMPLE + "pub,t1 -> work,t2\n"
    with pytest.raises(UnknownElementError) as err:
        parse_mag(text)
    assert err.value.line == 12


def test_self_loop_line():
    text = SAMPLE + "home,t1 -> home,t1\n"
    with pytest.raises(SelfLoopEdgeError) as err:
        parse_mag(text)
    assert err.value.line == 12


def test_bad_weight():
    with pytest.raises(MagParseError):
        parse_mag(SAMPLE + "work,t2 -> home,t1 : fast\n")
    with pytest.raises(NonPositiveWeightError):
        parse_mag(SAMPLE + "work,t2 -> home,t1 : -1\n")
    # inf and 1e309 (which overflows to inf) used to be stored as inf
    for weight in ("inf", "1e309"):
        with pytest.raises(NonPositiveWeightError, match="must be finite"):
            parse_mag(SAMPLE + f"work,t2 -> home,t1 : {weight}\n")


def test_empty_aspect_line():
    text = "*mag x\n*aspect A\n*aspect B\nb1\n*edges\n"
    with pytest.raises(EmptyAspectError) as err:
        parse_mag(text)
    assert err.value.line == 2


def test_structural_errors():
    with pytest.raises(MagParseError):
        parse_mag("*aspect A\na\n")  # aspect before *mag
    with pytest.raises(MagParseError):
        parse_mag("*mag x\nstray\n")  # element outside any aspect
    with pytest.raises(MagParseError):
        parse_mag("*mag x\n*aspect A\na\n*edges\n*aspect B\nb\n")
    with pytest.raises(MagParseError):
        parse_mag("*mag x\n*aspect A\na\n*edges\na -> b -> c\n")
    with pytest.raises(MagParseError):
        parse_mag("")


def test_comments_and_blanks_ignored():
    text = "\n# header\n*mag x  # trailing\n\n*aspect A\na\nb\n# note\n*edges\n\na -> b\n"
    mag = parse_mag(text)
    assert mag.name == "x"
    assert len(mag.edges) == 1


# ---------------------------------------------------------------------------
# Matrix Market


def test_export_header_and_counts(mag_t):
    sink = io.StringIO()
    export_matrix_market(adjacency_matrix(mag_t).matrix, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "18 18 22"
    assert len(lines) == 2 + 22
    # row-major, 1-based
    assert lines[2].split()[:2] == ["2", "5"]


def test_export_zero_matrix():
    from magraph import SparseMatrix

    sink = io.StringIO()
    export_matrix_market(zeros(4, 3), sink)
    assert sink.getvalue() == "%%MatrixMarket matrix coordinate real general\n4 3 0\n"


def test_export_parse_back_laplacian(mag_t):
    lap = combinatorial_laplacian(incidence_matrix(mag_t)[0].matrix)
    sink = io.StringIO()
    export_matrix_market(lap, sink)
    again = read_matrix_market(sink.getvalue())
    assert again == lap


def test_export_parse_back_random_values(tmp_path):
    rng = random.Random(89)
    from magraph import SparseMatrix

    entries = [
        (rng.randint(0, 9), rng.randint(0, 7), rng.uniform(-3, 3)) for _ in range(30)
    ]
    m = from_entries(10, 8, entries)
    path = tmp_path / "m.mtx"
    export_matrix_market(m, path)
    assert read_matrix_market(path.read_text()) == m


def test_export_refuses_non_finite_entries(tmp_path):
    """read_matrix_market refuses nan and inf, so export writes neither."""
    from magraph import SparseMatrix

    m = from_entries(2, 2, [(0, 0, 1.0), (1, 0, float("inf"))])
    path = tmp_path / "m.mtx"
    with pytest.raises(MagError, match=r"^entry \(2,1\) = inf is not finite$"):
        export_matrix_market(m, path)
    assert not path.exists()
    sink = io.StringIO()
    with pytest.raises(MagError):
        export_matrix_market(SparseMatrix.from_diagonal([float("nan")]), sink)
    assert sink.getvalue() == ""


def test_read_matrix_market_rejects_garbage():
    with pytest.raises(MagParseError):
        read_matrix_market("")
    with pytest.raises(MagParseError):
        read_matrix_market("%%MatrixMarket matrix array real general\n1 1\n1\n")
    with pytest.raises(MagParseError):
        read_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        )


# each used to escape as a bare ValueError from int(), float() or scipy
@pytest.mark.parametrize(
    "size, entry",
    [
        ("2 2 x", None),
        ("-1 2 0", None),
        ("2 2 1", "1 1 abc"),
        ("2 2 1", "3 1 1.0"),
        ("2 2 1", "0 1 1.0"),
        ("2 2 1", "1 1 nan"),
        ("2 2 1", "1 2 -inf"),
        ("2 2 2", "1 1 1.0"),
        ("2 2 0", "1 1 1.0"),
    ],
)
def test_read_matrix_market_reports_bad_numbers_by_line(size, entry):
    lines = ["%%MatrixMarket matrix coordinate real general", "% comment", size]
    lines += [entry] if entry else []
    with pytest.raises(MagParseError, match=f"^line {len(lines)}: "):
        read_matrix_market("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# builtin examples


def test_builtin_t_matrices(mag_t):
    assert np.array_equal(adjacency_matrix(mag_t).matrix.to_dense(), ref.ADJACENCY_T)
    assert np.array_equal(
        incidence_matrix(mag_t)[0].matrix.to_dense(), ref.INCIDENCE_T
    )
    assert np.array_equal(elimination_matrix(mag_t).to_dense(), ref.ELIMINATION_T)


def test_builtin_r_matrix(mag_r):
    assert np.array_equal(adjacency_matrix(mag_r).matrix.to_dense(), ref.ADJACENCY_R)


def test_builtin_unknown():
    with pytest.raises(UnknownExampleError):
        builtin_example("S")


# ---------------------------------------------------------------------------
# diagnostics in a large file

BIG_HEADER = (
    ["*mag big", "*aspect A"]
    + [f"a{i}" for i in range(50)]
    + ["*aspect B"]
    + [f"b{i}" for i in range(40)]
    + ["*edges"]
)


DUPLICATE_OF_EDGE_3 = "duplicate"


def _big_text(faults):
    """A 2000-edge, 2000-vertex file; faults maps edge positions to replacement lines.

    Returns the text and a function giving the 1-based source line of an
    edge position.
    """
    rng = random.Random(97)
    pairs = set()
    edges = []
    while len(edges) < 2000:
        o, d = rng.randrange(2000), rng.randrange(2000)
        if o != d and (o, d) not in pairs:
            pairs.add((o, d))
            edges.append(f"a{o % 50},b{o // 50} -> a{d % 50},b{d // 50}")
    for k, line in faults.items():
        edges[k] = edges[3] if line == DUPLICATE_OF_EDGE_3 else line
    return "\n".join(BIG_HEADER + edges) + "\n", lambda k: len(BIG_HEADER) + k + 1


FAULT_LINES = {
    UnknownElementError: "a1,b99 -> a2,b3",
    SelfLoopEdgeError: "a7,b7 -> a7,b7",
    DuplicateEdgeError: DUPLICATE_OF_EDGE_3,
}


def test_big_file_parses():
    text, _ = _big_text({})
    mag = parse_mag(text)
    assert len(mag.origin) == 2000
    assert write_mag(mag) == text


@pytest.mark.parametrize("error", list(FAULT_LINES))
def test_big_file_edge_fault_line(error):
    text, line_of = _big_text({1500: FAULT_LINES[error]})
    with pytest.raises(error) as err:
        parse_mag(text)
    assert err.value.line == line_of(1500)


@pytest.mark.parametrize(
    "error, line",
    [
        (MagParseError, "a1,b1 -> a2,b2 -> a3,b3"),
        (MagParseError, "a1,*b1 -> a2,b2"),
        (EdgeArityError, "a1 -> a2,b2"),
        (NonPositiveWeightError, "a1,b1 -> a2,b2 : -2"),
        (MagParseError, "a1,b1 -> a2,b2 : heavy"),
    ],
)
def test_big_file_line_fault_beats_earlier_edge_faults(error, line):
    faults = {100: FAULT_LINES[UnknownElementError], 200: "a9,b9 -> a9,b9"}
    faults[1900] = line
    text, line_of = _big_text(faults)
    with pytest.raises(error) as err:
        parse_mag(text)
    assert err.value.line == line_of(1900)


@pytest.mark.parametrize("first", list(FAULT_LINES))
@pytest.mark.parametrize("second", list(FAULT_LINES))
def test_big_file_lowest_edge_fault_wins(first, second):
    text, line_of = _big_text({700: FAULT_LINES[first], 1300: FAULT_LINES[second]})
    with pytest.raises(first) as err:
        parse_mag(text)
    assert err.value.line == line_of(700)
