from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from mackeybox.intlinalg import (
    IntMatrix,
    hermite_row_basis,
    kernel_basis,
    smith_normal_form,
    solve,
    unimodular_inverse,
)


entries = st.integers(min_value=-50, max_value=50)


@st.composite
def raw_matrices(draw, max_dim=4):
    m = draw(st.integers(min_value=0, max_value=max_dim))
    n = draw(st.integers(min_value=0, max_value=max_dim))
    return [[draw(entries) for _ in range(n)] for _ in range(m)], m, n


def sympy_invariant_factors(rows, m, n):
    """Diagonal of sympy's Smith form as absolute values, zeros last."""
    if not (m and n):
        return []
    d = sympy_smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [abs(int(d[i, i])) for i in range(min(m, n))]
    return [x for x in diag if x] + [x for x in diag if not x]


@given(raw_matrices())
@settings(max_examples=120, deadline=None)
def test_snf_matches_sympy(data):
    rows, m, n = data
    a = IntMatrix(rows, n)
    u, d, v = smith_normal_form(a)
    diag = [d.rows[i][i] for i in range(min(m, n))]
    assert diag == sympy_invariant_factors(rows, m, n)
    assert d == IntMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(m)], n)
    assert (u @ a @ v) == d
    assert (u.nrows, u.ncols, v.nrows, v.ncols) == (m, m, n, n)
    assert abs(Matrix(m, m, [x for r in u.rows for x in r]).det()) == 1
    assert abs(Matrix(n, n, [x for r in v.rows for x in r]).det()) == 1


def test_snf_arbitrary_precision():
    # entries far beyond 64 bits stay exact
    big = 2**80
    m = IntMatrix([[big, 2], [0, 3]])
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v) == d
    diag = [d.rows[0][0], d.rows[1][1]]
    assert diag[0] >= 1 and diag[1] % diag[0] == 0


def test_empty_matrices_equal_zeros():
    # n = 0 covers the 0x0 case from both sides
    for n in range(3):
        assert IntMatrix([], n) == IntMatrix.zeros(0, n)
        cols = IntMatrix.from_columns([], n)
        assert cols == IntMatrix.zeros(n, 0) and (cols.nrows, cols.ncols) == (n, 0)


@st.composite
def matrix_pairs(draw, max_dim=4):
    """(a, b, k, m): an n x k and a k x m matrix as lists of rows."""
    n, k, m = (draw(st.integers(min_value=0, max_value=max_dim)) for _ in range(3))
    a = [[draw(entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(entries) for _ in range(m)] for _ in range(k)]
    return a, b, k, m


@given(matrix_pairs())
@example(([], [[], [], []], 3, 0))  # 0x3 @ 3x0
@example(([[], []], [], 0, 4))  # 2x0 @ 0x4
@settings(max_examples=150, deadline=None)
def test_matmul_matches_triple_loop(pair):
    a, b, k, m = pair
    product = IntMatrix(a, k) @ IntMatrix(b, m)
    expected = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(len(a))]
    assert (product.nrows, product.ncols) == (len(a), m)
    assert product.to_lists() == expected


def test_solve_and_kernel():
    m = IntMatrix([[2, 0], [0, 3]])
    assert solve(m, (4, 6)) == (2, 2)
    assert solve(m, (1, 0)) is None
    k = kernel_basis(IntMatrix([[1, 1, 1]]))
    assert len(k) == 2


def test_unimodular_inverse():
    m = IntMatrix([[1, 2], [1, 3]])
    inv = unimodular_inverse(m)
    assert (m @ inv) == IntMatrix.identity(2)


def test_hermite_key_canonical():
    a = hermite_row_basis([(2, 0), (0, 2), (2, 2)], 2)
    b = hermite_row_basis([(2, 2), (2, 0)], 2)
    assert a == b
    c = hermite_row_basis([(4, 0), (0, 2)], 2)
    assert a != c


def test_kron_index_convention():
    a = IntMatrix([[1, 2]])
    b = IntMatrix([[3], [4]])
    k = a.kron(b)
    # pair (i, j) -> i * ncols_b + j on columns, rows likewise
    assert k.nrows == 2 and k.ncols == 2
    assert k.to_lists() == [[3, 6], [4, 8]]
