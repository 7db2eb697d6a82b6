"""CSR storage invariants and kernels, checked against dense numpy."""

import random

import numpy as np
import pytest

from magraph import ShapeMismatchError, SparseMatrix, TooLargeForDenseError


def random_sparse(rng, rows, cols, density=0.3):
    entries = [
        (i, j, round(rng.uniform(-5, 5), 3))
        for i in range(rows)
        for j in range(cols)
        if rng.random() < density
    ]
    return SparseMatrix.from_entries(rows, cols, entries)


def canonical(matrix):
    indptr, indices = matrix.indptr, matrix.indices
    assert indptr[0] == 0 and indptr[-1] == matrix.nnz
    assert all(indptr[i] <= indptr[i + 1] for i in range(matrix.rows))
    for i in range(matrix.rows):
        row = indices[indptr[i] : indptr[i + 1]]
        assert all(row[k] < row[k + 1] for k in range(len(row) - 1))
    assert not np.any(matrix.values == 0.0)


def test_duplicates_summed_and_sorted():
    m = SparseMatrix.from_entries(2, 3, [(0, 2, 1.0), (0, 0, 2.0), (0, 2, 3.0)])
    canonical(m)
    assert m.entry(0, 2) == 4.0
    assert m.entry(0, 0) == 2.0
    assert m.nnz == 2


def test_explicit_zeros_dropped():
    m = SparseMatrix.from_entries(2, 2, [(0, 1, 0.0), (1, 0, 1.0), (0, 0, 1.0), (0, 0, -1.0)])
    canonical(m)
    assert m.nnz == 1


def test_builders():
    eye = SparseMatrix.identity(3)
    assert np.array_equal(eye.to_dense(), np.eye(3))
    z = SparseMatrix.zeros(2, 5)
    assert z.nnz == 0 and z.shape == (2, 5)
    d = SparseMatrix.from_diagonal([1.0, 0.0, 2.0])
    assert np.array_equal(d.to_dense(), np.diag([1.0, 0.0, 2.0]))
    assert d.nnz == 2
    # every builder gives the same canonical storage as from_dense
    dense = SparseMatrix.from_dense
    assert eye.equals(dense(np.eye(3)))
    assert SparseMatrix.identity(0).equals(dense(np.zeros((0, 0))))
    assert z.equals(dense(np.zeros((2, 5))))
    assert SparseMatrix.zeros(0, 4).equals(dense(np.zeros((0, 4))))
    assert d.equals(dense(np.diag([1.0, 0.0, 2.0])))
    entries = [(1, 2, 3.0), (0, 0, -1.0), (1, 2, 1.0), (0, 1, 0.0)]
    expected = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
    assert SparseMatrix.from_entries(2, 3, entries).equals(dense(expected))
    assert SparseMatrix.from_entries(2, 3, iter([])).equals(dense(np.zeros((2, 3))))


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
        c = random_sparse(rng, a.rows, a.cols)
        assert np.allclose((a + c).to_dense(), ad + c.to_dense())
        canonical(a @ b)
        canonical(a + c)


def test_difference_matches_dense():
    """Positions of self's pattern (|x| >= 1e-12) that other does not store."""
    rng = random.Random(9)
    for _ in range(25):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        a = random_sparse(rng, rows, cols)
        b = random_sparse(rng, rows, cols, density=0.5)
        # a stored value below the pattern tolerance, and a negative one
        odd = SparseMatrix.from_entries(rows, cols, [(0, 0, 1e-13), (rows - 1, cols - 1, -3.0)])
        zero = SparseMatrix.zeros(rows, cols)
        rest = b.difference(a)
        assert a.difference(rest) == a.pattern()  # disjoint operands
        pairs = [(zero, zero), (zero, a), (a, zero), (a, a), (a, b), (b, a), (b + odd, a), (a, odd)]
        for x, y in pairs:
            got = x.difference(y)
            canonical(got)
            expected = (np.abs(x.to_dense()) >= 1e-12) & (y.to_dense() == 0)
            assert np.array_equal(got.to_dense(), expected.astype(float))
    with pytest.raises(ShapeMismatchError):
        SparseMatrix.zeros(2, 3).difference(SparseMatrix.zeros(3, 2))


def test_kernels_leave_their_operands_unchanged():
    """pattern, difference and transpose write nothing into their operands' arrays."""
    a = SparseMatrix.from_entries(3, 4, [(0, 1, 1e-13), (0, 3, 2.0), (1, 0, -1.0), (2, 2, 5.0), (2, 3, 1e-13)])
    b = random_sparse(random.Random(4), 3, 4, density=0.5)

    def state():
        return [(x.tobytes(), x.flags.writeable) for m in (a, b) for x in (m.indptr, m.indices, m.values)]

    before = state()
    for result in (a.pattern(), a.difference(b), b.difference(a), a.transpose()):
        assert state() == before
        canonical(result)
        assert not any(x.flags.writeable for x in (result.indptr, result.indices, result.values))
    assert a.pattern().nnz == 3


def test_shape_mismatch():
    a = SparseMatrix.zeros(2, 3)
    b = SparseMatrix.zeros(2, 3)
    with pytest.raises(ShapeMismatchError):
        a @ b
    with pytest.raises(ShapeMismatchError):
        a + SparseMatrix.zeros(3, 2)
    with pytest.raises(ShapeMismatchError):
        a.matvec(np.ones(2))


def test_pattern_threshold():
    m = SparseMatrix.from_entries(1, 3, [(0, 0, 1e-13), (0, 1, -2.0), (0, 2, 1e-11)])
    p = m.pattern()
    assert p.entry(0, 0) == 0.0
    assert p.entry(0, 1) == 1.0
    assert p.entry(0, 2) == 1.0
    canonical(p)


def test_equality_and_allclose():
    a = SparseMatrix.from_entries(2, 2, [(0, 1, 1.0)])
    b = SparseMatrix.from_entries(2, 2, [(0, 1, 1.0)])
    c = SparseMatrix.from_entries(2, 2, [(0, 1, 1.0 + 1e-14)])
    assert a == b
    assert a != c
    assert a.allclose(c)
    assert not a.allclose(SparseMatrix.zeros(2, 2))


def test_row_access():
    m = SparseMatrix.from_entries(3, 4, [(1, 3, 5.0), (1, 0, 2.0)])
    cols, vals = m.row(1)
    assert list(cols) == [0, 3]
    assert list(vals) == [2.0, 5.0]
    assert list(m.row(0)[0]) == []


def test_dense_cap():
    big = SparseMatrix.zeros(600, 600)
    with pytest.raises(TooLargeForDenseError):
        big.to_dense()


def test_immutability():
    m = SparseMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    with pytest.raises(ValueError):
        m.values[0] = 5.0
