import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert.ff import PrimeField
from polycert.matfield import (
    FieldMat,
    det_field,
    hamming_weight,
    nullvector_left,
    pluq,
    rank_profile,
    solve_right,
    sparse_representative,
)
from reference import matmul

F7 = PrimeField(7)
F101 = PrimeField(101)


def rand_mat(rng, field, m, n):
    return FieldMat(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(m)])


def reconstruct(f) -> FieldMat:
    """P.L.U.Q of a PLUQ factorization, for verification."""
    p = f.field.p
    out = [[0] * f.n for _ in range(f.m)]
    for i in range(f.m):
        for j in range(f.n):
            acc = 0
            for k in range(f.rank):
                acc += f.lower.rows[i][k] * f.upper.rows[k][j]
            out[f.perm_rows[i]][f.perm_cols[j]] = acc % p
    return FieldMat.of_rows(f.field, out, f.n)


def col_rank_profile(f) -> tuple:
    """The column rank profile of a PLUQ factorization."""
    return tuple(sorted(f.perm_cols[: f.rank]))


def rank_by_row_reduction(mat):
    """Independent oracle: plain Gauss-Jordan, no PLUQ code shared."""
    p = mat.field.p
    a = mat.copy_rows()
    r = 0
    for col in range(mat.n):
        piv = next((i for i in range(r, mat.m) if a[i][col] % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(mat.m):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def rank_by_minors(mat):
    """Independent oracle: largest k with a nonzero k x k minor (tiny sizes)."""
    p = mat.field.p

    def det(rows, cols):
        k = len(rows)
        if k == 0:
            return 1
        total = 0
        for perm in itertools.permutations(range(k)):
            sign = 1
            seen = list(perm)
            for i in range(k):
                for j in range(i + 1, k):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = sign
            for i in range(k):
                term *= mat.rows[rows[i]][cols[perm[i]]]
            total += term
        return total % p

    for k in range(min(mat.m, mat.n), 0, -1):
        for rows in itertools.combinations(range(mat.m), k):
            for cols in itertools.combinations(range(mat.n), k):
                if det(rows, cols) != 0:
                    return k
    return 0


def test_pluq_identity_and_zero():
    i4 = FieldMat.identity(F7, 4)
    f = pluq(i4)
    assert f.rank == 4
    assert f.lower == FieldMat.identity(F7, 4)
    assert f.upper == FieldMat.identity(F7, 4)
    z = FieldMat.zero(F7, 3, 5)
    assert pluq(z).rank == 0


def test_pluq_planted_rank_2():
    rng = random.Random(10)
    b = rand_mat(rng, F7, 6, 2)
    c = rand_mat(rng, F7, 2, 4)
    a = matmul(b, c)
    f = pluq(a)
    assert f.rank == rank_by_minors(a)
    assert f.rank <= 2


def test_pluq_reconstruct_random():
    rng = random.Random(11)
    for trial in range(1000):
        m = rng.randrange(1, 9) if trial < 900 else rng.randrange(9, 17)
        n = rng.randrange(1, 9) if trial < 900 else rng.randrange(9, 17)
        a = rand_mat(rng, F101, m, n)
        f = pluq(a)
        assert reconstruct(f) == a
        assert f.rank == rank_by_row_reduction(a)


def test_col_rank_profile_is_lexicographic():
    # col 0 zero, col 1 pivot, col 2 = 2*col1 (dependent), col 3 pivot
    a = FieldMat(F7, [[0, 1, 2, 0], [0, 2, 4, 1]])
    f = pluq(a)
    assert f.rank == 2
    assert col_rank_profile(f) == (1, 3)


def test_nullvector_left_examples():
    a = FieldMat(F7, [[1, 0], [0, 1], [1, 1]])
    v = nullvector_left(a)
    assert v is not None and any(v)
    assert a.vecmat(v) == [0, 0]
    # hand-check: (1, 1, -1) spans the left kernel, so v is proportional to it
    assert v[0] == v[1] and v[2] == (-v[0]) % 7
    assert nullvector_left(FieldMat.identity(F7, 3)) is None
    with_zero_row = FieldMat(F7, [[1, 2], [0, 0]])
    v2 = nullvector_left(with_zero_row)
    assert v2 is not None and with_zero_row.vecmat(v2) == [0, 0]


def test_nullvector_left_random():
    rng = random.Random(12)
    for _ in range(300):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        a = rand_mat(rng, F7, m, n)
        v = nullvector_left(a)
        if v is None:
            assert rank_by_row_reduction(a) == m
        else:
            assert any(v)
            assert a.vecmat(v) == [0] * n


def test_solve_right_cases():
    rng = random.Random(13)
    i3 = FieldMat.identity(F7, 3)
    assert solve_right(i3, [1, 2, 3]) == [1, 2, 3]
    a = rand_mat(rng, F7, 4, 3)
    assert solve_right(a, [0] * 4) == [0, 0, 0]
    for _ in range(300):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        a = rand_mat(rng, F7, m, n)
        x = [rng.randrange(7) for _ in range(n)]
        b = a.matvec(x)
        w = solve_right(a, b)
        assert w is not None and a.matvec(w) == b


def test_solve_right_inconsistent():
    # rank 1 matrix, b outside the column space
    a = FieldMat(F7, [[1, 2], [2, 4]])
    # column space is spanned by (1, 2); b = (1, 0) is outside
    assert solve_right(a, [1, 0]) is None


def test_det_examples():
    assert det_field(FieldMat.identity(F7, 3)) == 1
    assert det_field(FieldMat(F7, [[1, 2], [2, 4]])) == 0
    # 2*4 - 1*1 = 7 = 0 mod 7
    assert det_field(FieldMat(F7, [[2, 1], [1, 4]])) == 0
    with pytest.raises(ValueError):
        det_field(FieldMat(F7, [[1, 2]]))


def test_det_multiplicative():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randrange(1, 5)
        a = rand_mat(rng, F7, n, n)
        b = rand_mat(rng, F7, n, n)
        assert det_field(matmul(a, b)) == F7.mul(det_field(a), det_field(b))


def test_det_against_minor_oracle():
    rng = random.Random(16)
    for _ in range(100):
        n = rng.randrange(1, 4)
        a = rand_mat(rng, F7, n, n)
        f = pluq(a)
        assert (f.det() != 0) == (rank_by_minors(a) == n)


def test_pluq_keeps_pivot_inverses():
    rng = random.Random(19)
    for field in (F7, F101):
        for _ in range(100):
            m, n = rng.randrange(1, 7), rng.randrange(1, 7)
            k = rng.randrange(min(m, n) + 1)  # rank <= k, often below min(m, n)
            if k:
                a = matmul(rand_mat(rng, field, m, k), rand_mat(rng, field, k, n))
            else:
                a = FieldMat.zero(field, m, n)
            f = pluq(a)
            assert len(f.inv_pivots) == f.rank
            for i in range(f.rank):
                assert f.inv_pivots[i] * f.upper.rows[i][i] % field.p == 1


def test_sparse_representative():
    rng = random.Random(17)
    # rho >= n returns v itself
    a = rand_mat(rng, F7, 3, 3)
    v = [1, 2, 3]
    assert sparse_representative(a, v, 3) == v
    # rank-1 outer product with rho = 1
    col = [[rng.randrange(1, 7)] for _ in range(4)]
    row = [[rng.randrange(1, 7) for _ in range(3)]]
    a1 = matmul(FieldMat(F7, col), FieldMat(F7, row))
    g = sparse_representative(a1, [3, 1, 4], 1)
    assert g is not None and hamming_weight(g) <= 1
    assert a1.matvec(g) == a1.matvec([3, 1, 4])
    # rho below the rank: refused
    i3 = FieldMat.identity(F7, 3)
    assert sparse_representative(i3, [1, 1, 1], 2) is None


def test_sparse_representative_random():
    rng = random.Random(18)
    for _ in range(200):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        a = rand_mat(rng, F7, m, n)
        r = rank_by_row_reduction(a)
        v = [rng.randrange(7) for _ in range(n)]
        g = sparse_representative(a, v, r)
        assert g is not None
        assert hamming_weight(g) <= r
        assert a.matvec(g) == a.matvec(v)


@st.composite
def shaped_matrices(draw, field):
    """Tall, wide, zero and rank-deficient matrices: a random m x n matrix,
    a zero one, or a product of m x k and k x n factors with k < min(m, n)."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    elems = st.integers(0, field.p - 1)

    def block(rows, cols):
        return draw(st.lists(st.lists(elems, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    kind = draw(st.sampled_from(["random", "zero", "deficient"]))
    if kind == "zero":
        return FieldMat.zero(field, m, n)
    if kind == "deficient" and min(m, n) > 1:
        k = draw(st.integers(1, min(m, n) - 1))
        left = FieldMat(field, block(m, k), ncols=k)
        return matmul(left, FieldMat(field, block(k, n), ncols=n))
    return FieldMat(field, block(m, n), ncols=n)


@pytest.mark.parametrize("field", [PrimeField(p) for p in (2, 7, 2**31 - 1, 2**61 - 1)],
                         ids=["F2", "F7", "F2^31-1", "F2^61-1"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_rank_profile_has_pluqs_pivots(field, data):
    mat = data.draw(shaped_matrices(field))
    before = mat.copy_rows()
    f = pluq(mat)
    assert rank_profile(mat) == (f.rank, f.perm_rows[:f.rank], f.perm_cols[:f.rank])
    assert mat.rows == before
