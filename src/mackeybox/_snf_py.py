"""Smith normal form over the integers: the library's one kernel.

Pure Python and arbitrary precision.  It works on plain list-of-lists and
returns ``(U, D, V)`` with ``U @ A @ V == D``, ``U`` and ``V`` unimodular,
``D`` diagonal with each diagonal entry dividing the next and zeros last.
With ``with_v=False`` it skips every operation on V and returns ``None`` in
its place; U and D are the same either way.
"""


def _ext_gcd(a, b):
    # g, x, y with x*a + y*b == g, g > 0 (a, b not both zero).
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _row_combine(m, r1, r2, a, b, c, d):
    # (row r1, row r2) <- (a*r1 + b*r2, c*r1 + d*r2); ad - bc = +-1 keeps it unimodular.
    m1, m2 = m[r1], m[r2]
    for j in range(len(m1)):
        u, v = m1[j], m2[j]
        m1[j] = a * u + b * v
        m2[j] = c * u + d * v


def _col_combine(m, c1, c2, a, b, c, d):
    for row in m:
        u, v = row[c1], row[c2]
        row[c1] = a * u + b * v
        row[c2] = c * u + d * v


def _negate(D, U, i):
    # row i of D and of U times -1, a unimodular row operation
    D[i] = [-x for x in D[i]]
    U[i] = [-x for x in U[i]]


def smith_normal_form(rows, nrows, ncols, with_v=True):
    """Return (U, D, V) as lists of lists with U*A*V = D in Smith form."""
    D = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    # An empty V makes every column operation on it a no-op.
    V = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)] if with_v else []

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # Smallest nonzero pivot in the trailing block keeps entries tame.
        piv = None
        for i in range(t, nrows):
            Di = D[i]
            for j in range(t, ncols):
                v = Di[j]
                if v and (piv is None or abs(v) < piv[0]):
                    piv = (abs(v), i, j)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != t:
            D[t], D[pi] = D[pi], D[t]
            U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for row in D:
                row[t], row[pj] = row[pj], row[t]
            for row in V:
                row[t], row[pj] = row[pj], row[t]

        while True:
            for i in range(t + 1, nrows):
                b = D[i][t]
                if b:
                    a = D[t][t]
                    if b % a == 0:
                        q = b // a
                        _row_combine(D, t, i, 1, 0, -q, 1)
                        _row_combine(U, t, i, 1, 0, -q, 1)
                    else:
                        g, x, y = _ext_gcd(a, b)
                        _row_combine(D, t, i, x, y, -(b // g), a // g)
                        _row_combine(U, t, i, x, y, -(b // g), a // g)
            for j in range(t + 1, ncols):
                b = D[t][j]
                if b:
                    a = D[t][t]
                    if b % a == 0:
                        q = b // a
                        _col_combine(D, t, j, 1, 0, -q, 1)
                        _col_combine(V, t, j, 1, 0, -q, 1)
                    else:
                        g, x, y = _ext_gcd(a, b)
                        _col_combine(D, t, j, x, y, -(b // g), a // g)
                        _col_combine(V, t, j, x, y, -(b // g), a // g)
            if all(D[i][t] == 0 for i in range(t + 1, nrows)) and all(
                D[t][j] == 0 for j in range(t + 1, ncols)
            ):
                break
        t += 1

    rank = t
    for i in range(rank):
        if D[i][i] < 0:
            _negate(D, U, i)

    # Enforce the divisibility chain d_1 | d_2 | ... (zeros already trail).
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if b % a != 0:
                changed = True
                # col i += col i+1 puts b below the pivot, then a gcd row op
                # and a clearing column op restore diagonal shape.
                _col_combine(D, i, i + 1, 1, 1, 0, 1)
                _col_combine(V, i, i + 1, 1, 1, 0, 1)
                g, x, y = _ext_gcd(a, b)
                _row_combine(D, i, i + 1, x, y, -(b // g), a // g)
                _row_combine(U, i, i + 1, x, y, -(b // g), a // g)
                q = D[i][i + 1] // D[i][i]
                _col_combine(D, i, i + 1, 1, 0, -q, 1)
                _col_combine(V, i, i + 1, 1, 0, -q, 1)
                if D[i][i] < 0:
                    _negate(D, U, i)
                if D[i + 1][i + 1] < 0:
                    _negate(D, U, i + 1)
    return U, D, V if with_v else None
