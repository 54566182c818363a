from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from mackeybox.errors import MackeyboxError, NotAnInteger
from mackeybox.intlinalg import (
    IntMatrix,
    hermite_row_basis,
    kernel_basis,
    smith_normal_form,
    smith_u_diagonal,
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


@given(raw_matrices())
@example(([], 0, 3))  # 0x3
@example(([[], [], []], 3, 0))  # 3x0
@settings(max_examples=120, deadline=None)
def test_smith_u_diagonal_matches_full_form(data):
    rows, m, n = data
    a = IntMatrix(rows, n)
    u, diagonal = smith_u_diagonal(a)
    full_u, d, _ = smith_normal_form(a)
    assert u == full_u
    assert list(diagonal) == sympy_invariant_factors(rows, m, n)
    assert diagonal == tuple(d.rows[i][i] for i in range(min(m, n)))


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
    assert solve(m, [(4, 6), (1, 0)]) == [(2, 2), None]
    k = kernel_basis(IntMatrix([[1, 1, 1]]))
    assert len(k) == 2


def full_sum_solve(mat, target):
    """The solution of ``solve`` rebuilt as the full product x = V y over
    all ncols entries of y, from the same Smith form."""
    u, d, v = smith_normal_form(mat)
    w = [sum(a * b for a, b in zip(row, target)) for row in u.rows]
    y = [0] * mat.ncols
    k = min(mat.nrows, mat.ncols)
    for i in range(mat.nrows):
        di = d.rows[i][i] if i < k else 0
        if di == 0:
            if w[i] != 0:
                return None
        else:
            if w[i] % di != 0:
                return None
            y[i] = w[i] // di
    return tuple(sum(v.rows[i][j] * y[j] for j in range(mat.ncols)) for i in range(mat.ncols))


def _image(rows, x):
    return tuple(sum(r * c for r, c in zip(row, x)) for row in rows)


@st.composite
def solve_cases(draw, max_dim=4):
    """A matrix, a target it reaches (the image of a small vector) and a
    random target, which it usually misses."""
    rows, m, n = draw(raw_matrices(max_dim))
    x = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)]
    return rows, m, n, _image(rows, x), tuple(draw(entries) for _ in range(m))


@given(solve_cases())
@example(([], 0, 3, (), ()))  # 0x3
@example(([[], [], []], 3, 0, (0, 0, 0), (1, 0, 0)))  # 3x0
@settings(max_examples=150, deadline=None)
def test_solve_matches_full_sum(case):
    rows, m, n, reachable, noise = case
    a = IntMatrix(rows, n)
    targets = [reachable, noise]
    solutions = solve(a, targets)
    assert solutions[0] is not None
    for target, got in zip(targets, solutions):
        assert got == full_sum_solve(a, target)
        assert got is None or _image(rows, got) == target


def test_unimodular_inverse():
    m = IntMatrix([[1, 2], [1, 3]])
    inv = unimodular_inverse(m)
    assert (m @ inv) == IntMatrix.identity(2)
    assert unimodular_inverse(IntMatrix.zeros(0, 0)) == IntMatrix.zeros(0, 0)
    with pytest.raises(ValueError, match="not square"):
        unimodular_inverse(IntMatrix([[1, 0]]))
    for rows in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse(IntMatrix(rows))


def fraction_inverse(mat):
    """The earlier rational Gauss-Jordan inverse, a reference for
    ``unimodular_inverse``: the inverse as a tuple of row tuples, or
    ValueError for a singular or non-unimodular matrix."""
    n = mat.nrows
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat.rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    if any(x.denominator != 1 for row in a for x in row[n:]):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row[n:]) for row in a)


@st.composite
def near_unimodular(draw):
    """A product of elementary row operations (row i += c * row j), swaps
    and sign flips on 0 to 8 rows, and three times in four a perturbation
    of it: one entry moved (unimodular or not), one row made a multiple of
    another (singular), or one row scaled by 2, -2 or 3 (|det| >= 2)."""
    n = draw(st.integers(0, 8))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if not n:
        return rows
    index = st.integers(0, n - 1)
    moves = st.tuples(st.sampled_from("+sn"), index, index, st.integers(-3, 3))
    for kind, i, j, c in draw(st.lists(moves, max_size=24)):
        if kind == "+" and i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == "s":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "n":
            rows[i] = [-x for x in rows[i]]
    kind, i, j = draw(st.sampled_from(("none", "entry", "multiple", "scaled"))), draw(index), draw(index)
    if kind == "entry":
        rows[i][j] += draw(st.integers(-2, 2))
    elif kind == "multiple":
        rows[i] = [draw(st.integers(-2, 2)) * x for x in rows[j]] if i != j else [0] * n
    elif kind == "scaled":
        rows[i] = [draw(st.sampled_from((2, -2, 3))) * x for x in rows[i]]
    return rows


@settings(max_examples=300, deadline=None)
@given(near_unimodular())
@example([])
@example([[0, 1], [1, 0]])
@example([[1, 1], [1, 1]])
@example([[3, 0, 0], [0, 1, 0], [0, 0, 1]])
def test_unimodular_inverse_matches_fraction_reference(rows):
    mat = IntMatrix(rows, len(rows))
    try:
        expected = fraction_inverse(mat)
    except ValueError:
        with pytest.raises(ValueError):
            unimodular_inverse(mat)
    else:
        assert unimodular_inverse(mat).rows == expected


def test_hermite_key_canonical():
    a = hermite_row_basis([(2, 0), (0, 2), (2, 2)], 2)
    b = hermite_row_basis([(2, 2), (2, 0)], 2)
    assert a == b
    c = hermite_row_basis([(4, 0), (0, 2)], 2)
    assert a != c
    # reducing the entry above the last pivot before the one above the
    # middle pivot would leave (1, 0, -1) here
    hnf = ((1, 0, 3), (0, 1, 1), (0, 0, 4))
    assert hermite_row_basis([(1, 1, 0), (0, 1, 1), (0, 0, 4)], 3) == hnf
    assert hermite_row_basis(hnf, 3) == hnf


@settings(max_examples=200, deadline=None)
@given(
    raw_matrices(),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)), max_size=6),
)
def test_hermite_key_is_the_hermite_normal_form(drawn, moves):
    rows, m, n = drawn
    key = hermite_row_basis(rows, n)
    # row echelon with positive pivots, entries above a pivot reduced mod it
    pivots = [next(j for j, x in enumerate(r) if x) for r in key]
    assert pivots == sorted(set(pivots))
    for i, (row, pc) in enumerate(zip(key, pivots)):
        assert row[pc] > 0
        assert all(0 <= key[k][pc] < row[pc] for k in range(i))
    # any other generating set of the same subgroup gives the same key:
    # unimodular row moves row_i += c * row_j, then the key's own rows added
    other = [list(r) for r in rows]
    for i, j, c in moves:
        if i < m and j < m and i != j:
            other[i] = [x + c * y for x, y in zip(other[i], other[j])]
    assert hermite_row_basis(other + [list(r) for r in key], n) == key


def reference_hermite_row_basis(rows, ncols):
    """The earlier column-by-column Hermite key: per column, Euclid between
    all rows with a nonzero entry there, then the same reduction above the
    pivots.  A reference for the insertion routine only."""
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    basis = []
    for col in range(ncols):
        while True:
            pivots = [i for i, r in enumerate(work) if r[col] != 0]
            if len(pivots) <= 1:
                break
            pivots.sort(key=lambda i: abs(work[i][col]))
            p = work[pivots[0]]
            for i in pivots[1:]:
                q = work[i][col] // p[col]
                work[i] = [x - q * y for x, y in zip(work[i], p)]
            work = [r for r in work if any(x != 0 for x in r)]
        pivots = [i for i, r in enumerate(work) if r[col] != 0]
        if pivots:
            p = work.pop(pivots[0])
            if p[col] < 0:
                p = [-x for x in p]
            basis.append(p)
    for i in range(len(basis)):
        pcol = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            q = basis[k][pcol] // basis[i][pcol]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return tuple(tuple(r) for r in basis)


@st.composite
def key_inputs(draw):
    """Rows for a Hermite key: 0 to 6 columns, 0 to 8 rows (so often more
    rows than columns), entries -6..6, with zero rows mixed in."""
    n = draw(st.integers(0, 6))
    row = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    rows = draw(st.lists(st.one_of(row, st.just([0] * n)), max_size=8))
    return rows, n


@settings(max_examples=300, deadline=None)
@given(key_inputs())
@example(([], 0))
@example(([[], []], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[-4, 6], [6, -9], [0, 0], [-2, 3]], 2))
@example(([[0, 3, -2], [0, -5, 4], [0, 7, 1], [0, 0, -6], [0, 2, 2]], 3))
def test_hermite_key_matches_reference(drawn):
    rows, n = drawn
    assert hermite_row_basis(rows, n) == reference_hermite_row_basis(rows, n)


def test_kron_index_convention():
    a = IntMatrix([[1, 2]])
    b = IntMatrix([[3], [4]])
    k = a.kron(b)
    # pair (i, j) -> i * ncols_b + j on columns, rows likewise
    assert k.nrows == 2 and k.ncols == 2
    assert k.to_lists() == [[3, 6], [4, 8]]


# ---------------------------------------------------------------------------
# results of the arithmetic are built without conversion


def rebuilt(mat):
    """``mat`` passed through the public, converting constructor."""
    return IntMatrix([list(r) for r in mat.rows], mat.ncols)


def assert_exact(mat):
    again = rebuilt(mat)
    assert mat == again and hash(mat) == hash(again)
    assert mat.nrows == len(mat.rows) == again.nrows and mat.ncols == again.ncols
    assert isinstance(mat.rows, tuple)
    assert all(isinstance(r, tuple) and len(r) == mat.ncols for r in mat.rows)
    assert all(type(x) is int for r in mat.rows for x in r)


@st.composite
def same_shape_pairs(draw, max_dim=4):
    m = draw(st.integers(min_value=0, max_value=max_dim))
    n = draw(st.integers(min_value=0, max_value=max_dim))
    a, b = ([[draw(entries) for _ in range(n)] for _ in range(m)] for _ in range(2))
    return IntMatrix(a, n), IntMatrix(b, n)


@given(same_shape_pairs(), same_shape_pairs(), st.integers(min_value=-5, max_value=5))
@example((IntMatrix.zeros(0, 2), IntMatrix.zeros(0, 2)), (IntMatrix.zeros(3, 0),) * 2, 2)
@settings(max_examples=100, deadline=None)
def test_arithmetic_results_are_exact_int_matrices(pair, other_pair, k):
    a, b = pair
    c, _ = other_pair
    results = [
        a.transpose(),
        a @ a.transpose(),
        a + b,
        a - b,
        a.scale(k),
        a.kron(c),
        a.vstack(b),
        a.hstack(b),
        IntMatrix.identity(a.ncols),
        IntMatrix.zeros(a.nrows, c.ncols),
        *smith_normal_form(a),
        smith_u_diagonal(a)[0],
    ]
    if a.nrows == a.ncols:
        results.append(a.power(2))
    for mat in results:
        assert_exact(mat)


@given(same_shape_pairs())
@example((IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0)))
@example((IntMatrix.zeros(0, 3), IntMatrix.zeros(0, 3)))
@example((IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 0)))
@settings(max_examples=100, deadline=None)
def test_difference_is_sum_with_negation(pair):
    a, b = pair
    assert a - b == a + b.scale(-1)
    assert (a - b).ncols == a.ncols and (a - b).nrows == a.nrows


def test_difference_checks_shapes():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]) - IntMatrix([[1], [2]])


# ---------------------------------------------------------------------------
# entries are exact integers or an error


@pytest.mark.parametrize(
    "rows, where",
    [
        ([[1.9, True]], (0, 0, 1.9)),
        ([[1, 2], [3, 2.0]], (1, 1, 2.0)),
        ([[0, Fraction(1, 2)]], (0, 1, Fraction(1, 2))),
        ([[1, "3"]], (0, 1, "3")),
    ],
)
def test_inexact_entries_raise(rows, where):
    with pytest.raises(NotAnInteger) as info:
        IntMatrix(rows)
    err = info.value
    assert isinstance(err, MackeyboxError) and isinstance(err, TypeError)
    assert (err.row, err.column, err.value) == where
    assert f"row {where[0]}, column {where[1]}" in str(err) and repr(where[2]) in str(err)


def test_inexact_scale_factor_raises():
    with pytest.raises(NotAnInteger, match="2.5"):
        IntMatrix([[1, 3]]).scale(2.5)


def test_integer_like_entries_become_ints():
    m = IntMatrix([[True, ZZ(4)], [3, 2**70]])
    assert m.rows == ((1, 4), (3, 2**70))
    assert all(type(x) is int for r in m.rows for x in r)
    assert IntMatrix([[1, 2]]).scale(True) == IntMatrix([[1, 2]])
