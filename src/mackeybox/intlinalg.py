"""Exact integer matrices and their Smith normal form.

Matrices are immutable, hashable, dense, and arbitrary precision.  Every
Smith normal form comes from the pure-Python kernel in ``_snf_py`` and is
cached nowhere: a caller that reads one form twice keeps it itself, and
``solve`` takes every target of one system at once.
"""

from __future__ import annotations

from operator import add, index, sub

from . import _snf_py
from .errors import NotAnInteger, ShapeMismatch

# perfbench reads these two names (its tracer and its environment line); the
# library has one Smith-form kernel, so there is nothing compiled to report.
_snf_core = None


def compiled_kernel_available():
    return False


class IntMatrix:
    """Immutable integer matrix; rows stored as a tuple of tuples."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        rows = _exact_rows(rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, *args):
        raise AttributeError("IntMatrix is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n):
        return _trusted(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows, ncols):
        return _trusted(((0,) * ncols,) * nrows, ncols)

    @classmethod
    def from_columns(cls, cols, nrows):
        cols = [tuple(c) for c in cols]
        if any(len(c) != nrows for c in cols):
            raise ValueError("column length mismatch")
        return cls(tuple(tuple(c[i] for c in cols) for i in range(nrows)), len(cols))

    # ------------------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols})"

    def to_lists(self):
        return [list(r) for r in self.rows]

    def row(self, i):
        return self.rows[i]

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def is_zero(self):
        return all(x == 0 for r in self.rows for x in r)

    # ------------------------------------------------------------------
    def transpose(self):
        cols = tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols
        return _trusted(cols, self.nrows)

    def __matmul__(self, other):
        """Row i of the product is the sum of the rows of ``other`` scaled by
        the nonzero entries of row i of ``self``."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        zero = (0,) * other.ncols
        out = []
        for row in self.rows:
            acc = zero
            for a, orow in zip(row, other.rows):
                if a:
                    acc = [x + a * y for x, y in zip(acc, orow)]
            out.append(acc)
        return _trusted(tuple(map(tuple, out)), other.ncols)

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def _entrywise(self, op, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return _trusted(
            tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.rows, other.rows)), self.ncols
        )

    def scale(self, k):
        k = _exact(k)
        return _trusted(tuple(tuple(k * x for x in r) for r in self.rows), self.ncols)

    def power(self, e):
        if e < 0:
            raise ValueError("negative power")
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        out = IntMatrix.identity(self.nrows)
        for _ in range(e):
            out = out @ self
        return out

    def kron(self, other):
        """Kronecker product; pair (i, j) of generators maps to index i*other + j."""
        rows = []
        for r1 in self.rows:
            for r2 in other.rows:
                rows.append(tuple(a * b for a in r1 for b in r2))
        return _trusted(tuple(rows), self.ncols * other.ncols)

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise ValueError("column mismatch in vstack")
        return _trusted(self.rows + other.rows, self.ncols)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row mismatch in hstack")
        return _trusted(
            tuple(r1 + r2 for r1, r2 in zip(self.rows, other.rows)),
            self.ncols + other.ncols,
        )


def _trusted(rows, ncols):
    """An ``IntMatrix`` holding ``rows`` as given, without ``__init__``'s
    conversion: only for a tuple of ``ncols``-long tuples of exact ints, such
    as the results of the arithmetic above."""
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "nrows", len(rows))
    object.__setattr__(m, "ncols", ncols)
    return m


def _exact(x, row=None, column=None):
    """``x`` as an exact int; anything else raises ``NotAnInteger``."""
    try:
        return index(x)
    except TypeError:
        raise NotAnInteger(x, row, column) from None


def _exact_rows(rows):
    """``rows`` as a tuple of tuples of exact ints, for ``IntMatrix.__init__``."""
    out = []
    for i, r in enumerate(rows):
        r = tuple(r)
        try:
            out.append(tuple(map(index, r)))
        except TypeError:
            for j, x in enumerate(r):
                _exact(x, i, j)
            raise
    return tuple(out)


def smith_normal_form(mat: IntMatrix):
    """(U, D, V) with U @ mat @ V == D in Smith normal form."""
    u, d, v = _snf_py.smith_normal_form(mat.rows, mat.nrows, mat.ncols)
    return _from_lists(u, mat.nrows), _from_lists(d, mat.ncols), _from_lists(v, mat.ncols)


def smith_u_diagonal(mat: IntMatrix):
    """(U, diagonal) of the Smith form U @ mat @ V == D, without building V.

    ``diagonal`` holds the min(nrows, ncols) diagonal entries of D.
    """
    u, d, _ = _snf_py.smith_normal_form(mat.rows, mat.nrows, mat.ncols, with_v=False)
    return _from_lists(u, mat.nrows), tuple(d[i][i] for i in range(min(mat.nrows, mat.ncols)))


def _from_lists(rows, ncols):
    """A kernel result (a list of lists of ints) as an ``IntMatrix``."""
    return _trusted(tuple(map(tuple, rows)), ncols)


def solve(mat, targets):
    """One integer solution x of mat @ x = t for each target t, or None
    where there is none, from one Smith form of ``mat``.

    Each target is a flat sequence of ``mat.nrows`` exact integers: one of
    another length raises ``ShapeMismatch``, and a non-integer entry i of
    target t raises ``NotAnInteger`` at row i, column t.
    """
    u, d, v = smith_normal_form(mat)
    k = min(mat.nrows, mat.ncols)
    diagonal = [d.rows[i][i] if i < k else 0 for i in range(mat.nrows)]
    solutions = []
    for t, target in enumerate(targets):
        if len(target) != mat.nrows:
            raise ShapeMismatch(f"target {t}", mat.nrows, len(target))
        target = [_exact(x, i, t) for i, x in enumerate(target)]
        w = [sum(a * b for a, b in zip(row, target)) for row in u.rows]
        support = []  # the nonzero entries (j, y_j) of y with D y = w, at most rank many
        for i, (wi, di) in enumerate(zip(w, diagonal)):
            yi, r = divmod(wi, di) if di else (0, wi)
            if r:
                solutions.append(None)
                break
            if yi:
                support.append((i, yi))
        else:
            solutions.append(tuple(sum(row[j] * yj for j, yj in support) for row in v.rows))
    return solutions


def kernel_basis(mat):
    """Columns spanning ker(mat) as a subgroup of Z^ncols."""
    _, d, v = smith_normal_form(mat)
    k = min(mat.nrows, mat.ncols)
    basis = []
    for j in range(mat.ncols):
        if j >= k or d.rows[j][j] == 0:
            basis.append(v.column(j))
    return basis


def unimodular_inverse(mat):
    """Inverse of a unimodular integer matrix U, read off the Hermite basis of
    [U | I].  That row lattice holds (x U, x) for every integer row x, and
    the only vector in it whose left half is e_i is (e_i, e_i U^-1), so its
    Hermite basis is [I | U^-1] exactly when U is unimodular."""
    n = mat.nrows
    if n != mat.ncols:
        raise ValueError("not square")
    basis = hermite_row_basis(mat.hstack(IntMatrix.identity(n)).rows, 2 * n)
    if any(row[i] != 1 for i, row in enumerate(basis)):
        raise ValueError("matrix is not unimodular")
    return _trusted(tuple(row[n:] for row in basis), n)


def hermite_row_basis(rows, ncols):
    """Canonical (Hermite-style) row basis of the subgroup spanned by ``rows``.

    Used as a deterministic key for subgroups of Z^n; two generating sets of
    the same subgroup produce identical output.  Each row is inserted into an
    echelon basis keyed by pivot column: a row whose leading column already
    has a basis row is merged with it by the extended gcd, a unimodular
    change of the two rows, and what is left over, zero in that column, is
    inserted further on.  The row Hermite normal form of a lattice is unique,
    so a basis that is already one, extended by a few rows, is cheap to key.
    """
    echelon = {}  # pivot column -> basis row with its leading entry there
    for row in rows:
        col = 0
        for x in row:
            if x:
                break
            col += 1
        else:
            continue  # a zero row
        row = list(row)
        while col < ncols:
            prow = echelon.get(col)
            if prow is None:
                echelon[col] = row
                break
            a, b = prow[col], row[col]
            if b % a:
                g, s, t = _snf_py._ext_gcd(a, b)
                a, b = a // g, b // g
                echelon[col] = [s * x + t * y for x, y in zip(prow, row)]
                row = [b * x - a * y for x, y in zip(prow, row)]
            else:
                q = b // a
                row = [y - q * x for x, y in zip(prow, row)]
            col += 1
            while col < ncols and not row[col]:
                col += 1
    pivots = sorted(echelon)
    basis = [echelon[c] if echelon[c][c] > 0 else [-x for x in echelon[c]] for c in pivots]
    # reduce entries above each pivot, left to right: row i changes only
    # columns from its pivot on, which later pivots reduce afterwards, so
    # every entry above a pivot ends as its canonical residue
    for i, pcol in enumerate(pivots):
        for k in range(i):
            q = basis[k][pcol] // basis[i][pcol]
            if q:
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return tuple(tuple(r) for r in basis)
