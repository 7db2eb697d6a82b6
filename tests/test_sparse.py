"""CSR storage invariants and kernels, checked against dense numpy and,
byte for byte, against scipy.sparse as a test-only oracle."""

import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from helpers import allclose, entry, from_entries, row, zeros
from magraph import IndexOutOfRangeError, MagError, ShapeMismatchError, SparseMatrix, TooLargeForDenseError


def random_sparse(rng, rows, cols, density=0.3):
    entries = [
        (i, j, round(rng.uniform(-5, 5), 3))
        for i in range(rows)
        for j in range(cols)
        if rng.random() < density
    ]
    return from_entries(rows, cols, entries)


def canonical(matrix):
    indptr, indices = matrix.indptr, matrix.indices
    assert indptr[0] == 0 and indptr[-1] == matrix.nnz
    assert all(indptr[i] <= indptr[i + 1] for i in range(matrix.rows))
    for i in range(matrix.rows):
        row = indices[indptr[i] : indptr[i + 1]]
        assert all(row[k] < row[k + 1] for k in range(len(row) - 1))
    assert not np.any(matrix.values == 0.0)


def test_duplicates_summed_and_sorted():
    m = from_entries(2, 3, [(0, 2, 1.0), (0, 0, 2.0), (0, 2, 3.0)])
    canonical(m)
    assert entry(m, 0, 2) == 4.0
    assert entry(m, 0, 0) == 2.0
    assert m.nnz == 2


def test_explicit_zeros_dropped():
    m = from_entries(2, 2, [(0, 1, 0.0), (1, 0, 1.0), (0, 0, 1.0), (0, 0, -1.0)])
    canonical(m)
    assert m.nnz == 1


def test_builders():
    eye = SparseMatrix.identity(3)
    assert np.array_equal(eye.to_dense(), np.eye(3))
    z = zeros(2, 5)
    assert z.nnz == 0 and z.shape == (2, 5)
    d = SparseMatrix.from_diagonal([1.0, 0.0, 2.0])
    assert np.array_equal(d.to_dense(), np.diag([1.0, 0.0, 2.0]))
    assert d.nnz == 2
    # every builder gives the same canonical storage as from_dense
    dense = SparseMatrix.from_dense
    assert eye.equals(dense(np.eye(3)))
    assert SparseMatrix.identity(0).equals(dense(np.zeros((0, 0))))
    assert z.equals(dense(np.zeros((2, 5))))
    assert zeros(0, 4).equals(dense(np.zeros((0, 4))))
    assert d.equals(dense(np.diag([1.0, 0.0, 2.0])))
    entries = [(1, 2, 3.0), (0, 0, -1.0), (1, 2, 1.0), (0, 1, 0.0)]
    expected = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
    assert from_entries(2, 3, entries).equals(dense(expected))
    assert from_entries(2, 3, iter([])).equals(dense(np.zeros((2, 3))))


def test_kernels_match_dense():
    rng = random.Random(5)
    for _ in range(25):
        a = random_sparse(rng, rng.randint(1, 8), rng.randint(1, 8))
        b = random_sparse(rng, a.cols, rng.randint(1, 8))
        canonical(a)
        ad, bd = a.to_dense(), b.to_dense()
        assert np.allclose((a @ b).to_dense(), ad @ bd)
        assert np.array_equal(a.transpose().to_dense(), ad.T)
        x = np.array([rng.uniform(-1, 1) for _ in range(a.cols)])
        assert np.allclose(a.matvec(x), ad @ x)
        canonical(a @ b)


def test_kernels_leave_their_operands_unchanged():
    """pattern and transpose write nothing into their operand's arrays."""
    a = from_entries(3, 4, [(0, 1, 1e-13), (0, 3, 2.0), (1, 0, -1.0), (2, 2, 5.0), (2, 3, 1e-13)])

    def state():
        return [(x.tobytes(), x.flags.writeable) for x in (a.indptr, a.indices, a.values)]

    before = state()
    for result in (a.pattern(), a.transpose()):
        assert state() == before
        canonical(result)
        assert not any(x.flags.writeable for x in (result.indptr, result.indices, result.values))
    assert a.pattern().nnz == 5


def test_shape_mismatch():
    a = zeros(2, 3)
    b = zeros(2, 3)
    with pytest.raises(ShapeMismatchError):
        a @ b
    with pytest.raises(ShapeMismatchError):
        a.matvec(np.ones(2))


def test_pattern_threshold():
    m = from_entries(1, 3, [(0, 0, 1e-13), (0, 1, -2.0), (0, 2, 1e-11)])
    p = m.pattern()
    assert entry(p, 0, 0) == 1.0
    assert entry(p, 0, 1) == 1.0
    assert entry(p, 0, 2) == 1.0
    canonical(p)


def test_equality_and_allclose():
    a = from_entries(2, 2, [(0, 1, 1.0)])
    b = from_entries(2, 2, [(0, 1, 1.0)])
    c = from_entries(2, 2, [(0, 1, 1.0 + 1e-14)])
    assert a == b
    assert a != c
    assert allclose(a, c)
    assert not allclose(a, zeros(2, 2))


def test_row_access():
    m = from_entries(3, 4, [(1, 3, 5.0), (1, 0, 2.0)])
    cols, vals = row(m, 1)
    assert list(cols) == [0, 3]
    assert list(vals) == [2.0, 5.0]
    assert list(row(m, 0)[0]) == []


def test_dense_cap():
    big = zeros(600, 600)
    with pytest.raises(TooLargeForDenseError):
        big.to_dense()


def test_immutability():
    m = SparseMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    with pytest.raises(ValueError):
        m.values[0] = 5.0


@pytest.mark.parametrize("array", [[1.0, 0.0, 2.0], np.zeros((2, 2, 2)), 3.0])
def test_from_dense_refuses_other_than_two_dimensions(array):
    with pytest.raises(ShapeMismatchError):
        SparseMatrix.from_dense(array)


@pytest.mark.parametrize(
    "rows, cols, values, error",
    [
        ([-1], [0], [1.0], IndexOutOfRangeError),
        ([0], [-1], [1.0], IndexOutOfRangeError),
        ([2], [0], [1.0], IndexOutOfRangeError),
        ([0], [2], [1.0], IndexOutOfRangeError),
        ([0, 1], [0], [1.0, 1.0], ShapeMismatchError),
        ([0], [0], [1.0, 2.0], ShapeMismatchError),
        # non-integer indices used to be cast to int64: 0.5 -> 0, 1.9 -> 1
        ([0.5], [1], [1.0], IndexOutOfRangeError),
        ([0], [1.9], [1.0], IndexOutOfRangeError),
        (np.array([True]), [0], [1.0], IndexOutOfRangeError),
    ],
)
def test_from_coo_refuses_bad_indices(rows, cols, values, error):
    with pytest.raises(error):
        SparseMatrix.from_coo(2, 2, rows, cols, values)


# a size used to be cast to int (2.5 -> 2), and a negative one built a matrix
# whose to_dense raised numpy's ValueError
@pytest.mark.parametrize(
    "build",
    [
        lambda: SparseMatrix.from_coo(2.5, 2, [0], [1], [1.0]),
        lambda: SparseMatrix.from_coo(2, 2.0, [], [], []),
        lambda: SparseMatrix.from_coo(-1, 2, [], [], []),
        lambda: SparseMatrix.identity(-1),
        lambda: SparseMatrix.identity(2.5),
    ],
    ids=["rows-2.5", "cols-2.0", "rows-negative", "identity-negative", "identity-2.5"],
)
def test_from_coo_and_identity_refuse_bad_sizes(build):
    with pytest.raises(ShapeMismatchError, match="not a non-negative integer"):
        build()


def test_from_coo_takes_integer_arrays_ints_ranges_and_empty_lists():
    want = SparseMatrix.from_dense([[0.0, 1.0], [0.0, 0.0]])
    for index in ([0], np.array([0], dtype=np.int32), np.array([0], dtype=np.uint8), range(1)):
        assert SparseMatrix.from_coo(np.int64(2), 2, index, [1], [1.0]) == want
    assert SparseMatrix.from_coo(2, 3, [], [], []).to_dense().shape == (2, 3)
    assert SparseMatrix.identity(np.int32(2)) == SparseMatrix.from_diagonal([1.0, 1.0])


def test_from_coo_refuses_shapes_beyond_int64_keys():
    with pytest.raises(MagError, match="int64"):
        SparseMatrix.from_coo(3, 1 << 62, [0], [0], [1.0])


@pytest.mark.parametrize(
    "counts, columns, error, match",
    [
        ([2, 0], [2, 1], MagError, "ascend"),  # descending within a row
        ([1, 2], [0, 1, 1], MagError, "ascend"),  # repeated within a row
        ([1, 1], [0, 3], IndexOutOfRangeError, "outside"),
        ([1, 1], [-1, 0], IndexOutOfRangeError, "outside"),
        ([1, 1], [0.0, 1.0], IndexOutOfRangeError, "not an integer"),
        ([3, -1], [0, 1, 2], ShapeMismatchError, "non-negative"),  # the sum alone would pass
        ([1, 1], [0], ShapeMismatchError, "summing to 1"),
        ([1, 1], [0, 1, 2], ShapeMismatchError, "summing to 3"),
        ([1.0, 1.0], [0, 1], ShapeMismatchError, "integer"),
        ([2], [0, 1], ShapeMismatchError, "need 2"),  # one count per row
    ],
)
def test_from_sorted_rows_refuses(counts, columns, error, match):
    with pytest.raises(error, match=match):
        SparseMatrix.from_sorted_rows(2, 3, counts, columns)


@st.composite
def sorted_rows(draw):
    """A bool mask of up to 6 x 6 cells, any side 0, so empty rows and empty matrices come up."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=bool).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(sorted_rows(), st.sampled_from((np.int64, np.int32)))
def test_from_sorted_rows_gives_from_coo_bytes(mask, index):
    rows, cols = np.nonzero(mask)
    want = SparseMatrix.from_coo(*mask.shape, rows, cols, np.ones(len(rows)))
    got = SparseMatrix.from_sorted_rows(*mask.shape, mask.sum(axis=1), cols.astype(index))
    assert got.shape == want.shape
    for a, b in zip((want.indptr, want.indices, want.values), (got.indptr, got.indices, got.values)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert not got.indices.flags.writeable


# Values with exact zeros of both signs, tiny entries that are stored like
# any other, and sums that cancel. At most 16 triplets: scipy sorts a row's
# duplicates with std::sort, which keeps their input order only up to 16 entries.
VALUES = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1e-13)) | st.floats(-1e3, 1e3)


@st.composite
def coo(draw, rows=None, cols=None):
    """A SparseMatrix from random triplets, with scipy's canonical CSR of the same triplets."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    cell = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)), VALUES)
    triples = draw(st.lists(cell, max_size=16 if rows and cols else 0))
    i, j, v = (np.array(x, dtype=t) for x, t in zip(list(zip(*triples)) or [(), (), ()], (np.int64, np.int64, float)))
    return SparseMatrix.from_coo(rows, cols, i, j, v), scipy_canonical(sp.coo_array((v, (i, j)), shape=(rows, cols)))


def scipy_canonical(matrix):
    m = matrix.tocsr().astype(np.float64)
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def assert_same(ours, ref, index=np.int64):
    """Equal index values and value bytes; the index dtype is given (scipy makes an empty CSR int32)."""
    ref = scipy_canonical(ref)
    assert ours.shape == ref.shape
    assert ours.indptr.tolist() == ref.indptr.tolist()
    assert ours.indices.tolist() == ref.indices.tolist()
    assert ours.values.tobytes() == ref.data.tobytes()
    assert ours.indptr.dtype == ours.indices.dtype == index
    assert not ref.nnz or ref.indptr.dtype == ref.indices.dtype == index


@settings(max_examples=300, deadline=None)
@given(coo(), st.data())
def test_kernels_match_scipy_bytes(pair, data):
    a, sa = pair
    b, sb = data.draw(coo(rows=a.cols))
    assert_same(a, sa)
    assert_same(a.transpose(), sa.T)
    da, db = sa.toarray()[:, :, None], sb.toarray()[None]
    if np.any((da != 0) & (db != 0) & (da * db == 0)):  # a stored pair's product underflows
        with pytest.raises(MagError, match="underflows"):
            a @ b
    else:
        assert_same(a @ b, sa @ sb)
    ref = sa.copy()
    ref.data = np.ones_like(ref.data)
    assert_same(a.pattern(), ref)
    x = np.array(data.draw(st.lists(VALUES, min_size=a.cols, max_size=a.cols)), dtype=float)
    assert a.matvec(x).tobytes() == (sa @ x).tobytes()
    assert a.diagonal().tobytes() == sa.diagonal().tobytes()
    assert a.to_dense().tobytes() == sa.toarray().tobytes()
    assert_same(SparseMatrix.from_dense(sa.toarray()), sp.csr_array(sa.toarray()), np.int32)
