"""Exact row reduction and incremental spans."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jmoduli import Span, rank_of, rref


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_identity_like():
    rows, rank, pivots = rref(F([[2, 0], [0, 3]]))
    assert rank == 2
    assert pivots == [0, 1]
    assert rows == F([[1, 0], [0, 1]])


def test_rref_dependent_rows():
    rows, rank, pivots = rref(F([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    assert rank == 2
    assert pivots == [0, 2]
    assert rows == F([[1, 2, 0], [0, 0, 1]])


def test_rref_clears_entries_brought_in_at_later_pivots():
    # eliminating the last row by the first brings in column 1, which is
    # the pivot of the second row and must be cleared in turn
    rows = F([[1, 1, 1], [0, 1, 0], [1, 0, 0]])
    assert rref(rows) == (F([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3, [0, 1, 2])
    assert rank_of(rows) == 3


def test_rref_zero_matrix():
    rows, rank, pivots = rref(F([[0, 0], [0, 0]]))
    assert rank == 0
    assert rows == []
    assert pivots == []


def test_rref_does_not_mutate_input():
    original = F([[1, 2], [3, 4]])
    snapshot = [row[:] for row in original]
    rref(original)
    assert original == snapshot


def test_rref_rational_pivots():
    rows, rank, _ = rref(F([["1/2", 1], [1, "1/3"]]))
    assert rank == 2
    assert rows == F([[1, 0], [0, 1]])


def test_span_add_and_contains():
    span = Span(3)
    assert span.add(F([[1, 0, 0]])[0])
    assert span.add(F([[1, 1, 0]])[0])
    assert not span.add(F([[2, 1, 0]])[0])  # dependent
    assert span.dim == 2
    assert span.contains(F([[5, -3, 0]])[0])
    assert not span.contains(F([[0, 0, 1]])[0])


def test_span_rejects_zero_vector():
    span = Span(2)
    assert not span.add([Fraction(0), Fraction(0)])
    assert span.dim == 0


def test_span_basis_rows_reduced():
    span = Span(3)
    span.add(F([[1, 2, 0]])[0])
    span.add(F([[1, 2, 1]])[0])
    rows = span.basis_rows()
    # reduced: each pivot column is cleared in the other rows
    assert rows == F([[1, 2, 0], [0, 0, 1]])


def test_span_expand_in_original_vectors():
    span = Span(3, track_original=True)
    v0 = F([[1, 1, 0]])[0]
    v1 = F([[0, 1, 1]])[0]
    span.add(v0)
    span.add(v1)
    target = F([[2, 5, 3]])[0]  # 2*v0 + 3*v1
    coords = span.expand(target)
    assert coords == [Fraction(2), Fraction(3)]
    assert span.expand(F([[1, 0, 0]])[0]) is None


def test_span_expand_after_rejected_vector():
    # dependent adds must not shift the coordinate marks
    span = Span(2, track_original=True)
    a = F([[1, 1]])[0]
    span.add(a)
    assert not span.add(F([[2, 2]])[0])
    b = F([[1, 0]])[0]
    span.add(b)
    assert span.expand(F([[3, 2]])[0]) == [Fraction(2), Fraction(1)]


def test_span_expand_exercises_elimination_bookkeeping():
    # vectors whose reduction mixes earlier rows; coordinates must still
    # refer to the vectors as they were added
    span = Span(4, track_original=True)
    vs = F(
        [
            [1, 2, 0, 1],
            [0, 1, 1, 0],
            [1, 0, 1, 3],
        ]
    )
    for v in vs:
        assert span.add(v)
    combo = [
        vs[0][i] * 7 - vs[1][i] * 2 + vs[2][i] * 5 for i in range(4)
    ]
    assert span.expand(combo) == [Fraction(7), Fraction(-2), Fraction(5)]


def test_span_rejects_bad_vectors():
    span = Span(3)
    with pytest.raises(ValueError, match="wrong vector length"):
        span.add([Fraction(1)])
    with pytest.raises(ValueError, match="out of range"):
        span.add({3: Fraction(1)})
    with pytest.raises(ValueError, match="out of range"):
        span.contains({-1: Fraction(1)})


def test_rref_rejects_bad_rows():
    with pytest.raises(ValueError, match="ragged"):
        rref(F([[1, 2], [3]]))
    with pytest.raises(ValueError, match="out of range"):
        rref([[Fraction(1), Fraction(0)], {2: Fraction(1)}])
    with pytest.raises(ValueError, match="ncols"):
        rank_of([{0: Fraction(1)}])
    assert rank_of([{0: Fraction(1)}], ncols=1) == 1


# -- the sparse kernel against the dense reference ---------------------------


def dense_rref(rows):
    """Dense Gauss-Jordan elimination: the reference for the sparse core."""
    if not rows:
        return [], 0, []
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(m)):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return m[:rank], rank, pivots


def entries(zeros=3):
    """Rationals that are zero with probability zeros / (zeros + 1)."""
    return st.integers(0, zeros).flatmap(
        lambda k: st.fractions(min_value=-3, max_value=3, max_denominator=4)
        if k == 0 else st.just(Fraction(0)))


@st.composite
def matrices(draw):
    # mostly zeros, like the closure and dgla matrices
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, 7))
    row = st.lists(entries(draw(st.integers(1, 3))),
                   min_size=ncols, max_size=ncols)
    return ncols, draw(st.lists(row, min_size=nrows, max_size=nrows))


def as_input(row, sparse):
    """The row as passed in: dense, or as a {col: value} dict."""
    return {c: x for c, x in enumerate(row) if x} if sparse else row


def combine(coeffs, vectors, ncols):
    return [sum((c * v[i] for c, v in zip(coeffs, vectors)), Fraction(0))
            for i in range(ncols)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_sparse_core_matches_dense_reference(matrix, data):
    ncols, rows = matrix
    sparse = data.draw(st.lists(st.booleans(), min_size=len(rows),
                                max_size=len(rows)))
    inputs = [as_input(r, s) for r, s in zip(rows, sparse)]
    want_rows, want_rank, want_pivots = dense_rref(rows)

    assert rref(inputs, ncols) == (want_rows, want_rank, want_pivots)
    assert rank_of(inputs, ncols) == want_rank

    span = Span(ncols, track_original=True)
    accepted = []
    for i, (row, vec) in enumerate(zip(rows, inputs)):
        grows = dense_rref(rows[: i + 1])[1] > dense_rref(rows[:i])[1]
        assert span.contains(vec) is not grows
        assert span.add(vec) is grows
        assert span.contains(vec)
        if grows:
            accepted.append(row)
    assert span.dim == want_rank
    # reduced rows in descending order are in ascending pivot order
    assert sorted(span.basis_rows(), reverse=True) == want_rows

    coeffs = data.draw(st.lists(entries(), min_size=len(accepted),
                                max_size=len(accepted)))
    target = combine(coeffs, accepted, ncols)
    sparse_target = data.draw(st.booleans())
    assert span.expand(as_input(target, sparse_target)) == coeffs
    assert span.coordinates(as_input(target, sparse_target)) == {
        k: c for k, c in enumerate(coeffs) if c}

    probe = data.draw(st.lists(entries(), min_size=ncols, max_size=ncols))
    outside = dense_rref(accepted + [probe])[1] > len(accepted)
    expansion = span.expand(as_input(probe, data.draw(st.booleans())))
    if outside:
        assert expansion is None
    else:
        assert combine(expansion, accepted, ncols) == probe


# -- integer rows: the fraction-free kernel on large entries -----------------


def big_entries():
    """Integers up to 10**30, small ones, and zeros, about a third each."""
    return st.one_of(st.just(0), st.integers(-3, 3),
                     st.integers(-10**30, 10**30))


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(1, 6))
    row = st.lists(big_entries(), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    # an integer combination of two rows, so ranks fall short as well
    a, b = draw(st.integers(-10**30, 10**30)), draw(st.integers(-5, 5))
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
    rows.insert(draw(st.integers(0, len(rows))),
                [a * x + b * y for x, y in zip(rows[i], rows[j])])
    return ncols, rows


@settings(derandomize=True, max_examples=200, deadline=None)
@given(integer_matrices(), st.booleans())
def test_integer_rows_match_dense_reference(matrix, sparse):
    ncols, rows = matrix
    inputs = [as_input(r, sparse) for r in rows]
    want = dense_rref([[Fraction(x) for x in r] for r in rows])
    assert rank_of(inputs, ncols) == want[1]
    assert rref(inputs, ncols) == want
    assert all(type(x) is int for r in inputs
               for x in (r.values() if sparse else r))  # input untouched
