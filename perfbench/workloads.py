"""Seeded inputs, workloads and answer oracles of the mackeybox benchmark.

Input generation uses no mackeybox code: finite fields are built here from
an irreducible polynomial, and every input level with more than one
generator is presented in a seeded basis.  Seed 0 keeps the canonical power
basis; any other seed applies a small-entry unimodular change of generators.
The answers the oracles check (group shapes, field verdicts, subgroup counts)
do not depend on the basis, so every seed has the same expected answers.

A workload is a list of ``(label, check)`` pairs.  ``check`` calls the public
mackeybox API and returns ``None`` when the answer matches its oracle, or a
string describing the mismatch.
"""

from __future__ import annotations

import random

# (name, q, n, irreducible monic polynomial of degree n over F_q, low degree
# first without the leading 1, prime p of the group, Frobenius exponent k):
# the generator of C_p acts by a -> a^(q^k), which has order n / k = p, and
# the fixed subfield is F_(q^k).
GALOIS_FIELDS = {
    "F16/C2": (2, 4, (1, 1, 0, 0), 2, 2),  # x^4 + x + 1, a -> a^4
    "F8/C3": (2, 3, (1, 1, 0), 3, 1),  # x^3 + x + 1, a -> a^2
    "F27/C3": (3, 3, (1, 2, 0), 3, 1),  # x^3 + 2x + 1, a -> a^3
    "F9/C2": (3, 2, (1, 0), 2, 1),  # x^2 + 1, a -> a^3
    "F25/C2": (5, 2, (2, 0), 2, 1),  # x^2 + 2, a -> a^5
    "F4/C2": (2, 2, (1, 1), 2, 1),  # x^2 + x + 1, a -> a^2
}

# ---------------------------------------------------------------------------
# finite fields and seeded bases (no mackeybox code)


def _field_mul(a, b, q, poly):
    """Product of two coefficient vectors modulo ``poly`` and q."""
    n = len(poly)
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    # x^n = -(poly[0] + poly[1] x + ... + poly[n-1] x^(n-1))
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d] % q
        if c:
            for i in range(n):
                prod[d - n + i] -= c * poly[i]
        prod[d] = 0
    return tuple(x % q for x in prod[:n])


def _unit_vector(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def seeded_basis(n, seed):
    """(P, P^-1): a small-entry unimodular n x n matrix and its inverse.

    Seed 0, and every n < 2, gives the identity.  Otherwise P is a seeded
    permutation followed by n seeded transvections row_a += s * row_b with
    s = +-1, so its entries stay small.
    """
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    if seed == 0 or n < 2:
        return ident, [row[:] for row in ident]
    rng = random.Random(f"basis:{seed}:{n}")
    perm = list(range(n))
    rng.shuffle(perm)
    p = [ident[perm[i]][:] for i in range(n)]
    # the inverse of a row permutation is the transposed permutation matrix
    p_inv = [list(col) for col in zip(*p)]
    for _ in range(n):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        p[a] = [x + s * y for x, y in zip(p[a], p[b])]
        # (E P)^-1 = P^-1 E^-1, and E^-1 adds -s * column a to column b
        for row in p_inv:
            row[b] -= s * row[a]
    return p, p_inv


def galois_data(name, seed):
    """Raw data of a Galois ring with action, in a seeded basis.

    Returns a dict of plain integer tuples: ``relations`` (rows), ``action``
    (rows; columns are images of generators), ``mult`` (n x n^2, column
    i * n + j is the product of generators i and j), ``one`` (the unit) and
    the oracle facts ``q``, ``n``, ``p``, ``k``.
    """
    q, n, poly, p, k = GALOIS_FIELDS[name]
    basis = [_unit_vector(n, i) for i in range(n)]
    mult_cols = [_field_mul(x, y, q, poly) for x in basis for y in basis]
    action_cols = []
    for x in basis:
        y = x
        for _ in range(q**k - 1):
            y = _field_mul(y, x, q, poly)
        action_cols.append(y)
    mult = [list(r) for r in zip(*mult_cols)]
    action = [list(r) for r in zip(*action_cols)]
    one = [[c] for c in _unit_vector(n, 0)]

    # New coordinates x' = P^-1 x.  Every unimodular P maps the relation
    # lattice qZ^n onto itself, so the relations stay q * I; residues mod q
    # keep the other entries small.
    P, P_inv = seeded_basis(n, seed)
    action = _matmul(_matmul(P_inv, action), P)
    mult = _matmul(_matmul(P_inv, mult), _kron(P, P))
    one = _matmul(P_inv, one)
    relations = [[q * int(i == j) for j in range(n)] for i in range(n)]

    def residues(rows):
        return tuple(tuple(x % q for x in r) for r in rows)

    return {
        "relations": tuple(tuple(r) for r in relations),
        "action": residues(action),
        "mult": residues(mult),
        "one": tuple(r[0] % q for r in one),
        "q": q,
        "n": n,
        "p": p,
        "k": k,
    }


def gaussian_subgroup_count(q, n):
    """Number of subgroups of (Z/q)^n: the sum over d of [n choose d]_q."""
    total = 0
    for d in range(n + 1):
        num = den = 1
        for i in range(d):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def make_inputs(workload, seed, size):
    """Seeded raw inputs of one workload at size "full" or "small"; plain data only."""
    if workload == "box_construct":
        return {
            "truncations": (1, 2, 3) if size == "full" else (1,),
            "f4": galois_data("F4/C2", seed),
            "galois": galois_data("F8/C3" if size == "full" else "F9/C2", seed),
        }
    if workload == "field_lattice":
        names = ("F16/C2", "F8/C3", "F27/C3", "F9/C2", "F25/C2") if size == "full" else ("F9/C2",)
        return {
            "galois": {name: galois_data(name, seed) for name in names},
            "lattice": names[0],
        }
    if workload == "graded_window":
        bound = 5 if size == "full" else 1
        return {"prime": 2, "field": 2, "window": (2, bound, bound)}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# workloads on the public API


def _expect(name, got, want):
    return None if got == want else f"{name}: got {got!r}, expected {want!r}"


def build_galois_green(data):
    """The fixed-point Green functor of the Galois ring with action."""
    from mackeybox.exactlin import AbHom, FGAbPresentation
    from mackeybox.green import fixed_point_green
    from mackeybox.intlinalg import IntMatrix

    n = data["n"]
    v = FGAbPresentation(n, IntMatrix(data["relations"], n))
    gamma = AbHom(v, v, IntMatrix(data["action"], n))
    return fixed_point_green(data["p"], v, gamma, IntMatrix(data["mult"], n * n), data["one"])


def _galois_levels_check(g, data):
    """Bottom level (Z/q)^n and top level the fixed subfield (Z/q)^k."""
    q, n, k = data["q"], data["n"], data["k"]
    m = g.underlying
    return _expect("bottom level", m.bottom.canonical(), (0, (q,) * n)) or _expect(
        "top level", m.top.canonical(), (0, (q,) * k)
    )


def box_construct(inputs):
    from mackeybox.green import validate_green
    from mackeybox.simplicial import p_circle, tensor_green_with_circle

    def circle_tensor(t):
        def check():
            f4 = build_galois_green(inputs["f4"])
            sm = tensor_green_with_circle(f4, p_circle(2, t), t)
            for level in range(t + 1):
                # f4 boxed n = level + 1 times: top (Z/2)^(2^(n-1)), bottom (Z/2)^(2^n)
                result = sm.levels[level].result
                problem = _expect(
                    f"level {level} top", result.top.canonical(), (0, (2,) * 2**level)
                ) or _expect(
                    f"level {level} bottom", result.bottom.canonical(), (0, (2,) * 2 ** (level + 1))
                )
                if problem:
                    return problem
            return None

        return check

    def galois_green_axioms():
        g = build_galois_green(inputs["galois"])
        report = validate_green(g)
        failed = [c.name for c in report.checks if not c.passed]
        return _expect("failed Green checks", failed, []) or _galois_levels_check(g, inputs["galois"])

    items = [(f"tensor_green_with_circle t={t}", circle_tensor(t)) for t in inputs["truncations"]]
    items.append(("validate_green galois", galois_green_axioms))
    return items


def field_lattice(inputs):
    from mackeybox.exactlin import enumerate_subgroups, finite_model
    from mackeybox.green import classify_field_shape, constant_green, is_mackey_field

    def galois_field(name, data):
        def check():
            g = build_galois_green(data)
            verdict = is_mackey_field(g)
            problem = _expect(f"{name} is a field", verdict.is_field, True)
            if problem:
                return problem
            shape = classify_field_shape(g)
            return (
                _expect(f"{name} shape", shape.kind, "fixed_point")
                or _expect(f"{name} characteristic", shape.characteristic, data["q"])
                or _expect(
                    f"{name} ring", shape.ring_presentation.canonical(), (0, (data["q"],) * data["n"])
                )
                or _galois_levels_check(g, data)
            )

        return check

    def constant_not_field():
        verdict = is_mackey_field(constant_green(3, 3))
        return _expect("constant_green(3, 3) is a field", verdict.is_field, False) or _expect(
            "constant_green(3, 3) has a witness", verdict.witness is not None, True
        )

    def subgroup_count():
        data = inputs["galois"][inputs["lattice"]]
        g = build_galois_green(data)
        found = len(enumerate_subgroups(finite_model(g.underlying.bottom)))
        return _expect("subgroup count", found, gaussian_subgroup_count(data["q"], data["n"]))

    items = [(f"field {name}", galois_field(name, data)) for name, data in inputs["galois"].items()]
    items.append(("constant_green(3, 3) not a field", constant_not_field))
    items.append(("subgroup lattice size", subgroup_count))
    return items


def graded_window(inputs):
    from mackeybox.green import classify_field_shape, field_top_green
    from mackeybox.grading import BoxWindow, em_tower, graded_field_window_check

    state = {}
    p, a_bound, m_bound = inputs["window"]
    window = BoxWindow(p, a_bound, m_bound)

    def shape():
        state["shape"] = classify_field_shape(field_top_green(inputs["prime"], inputs["field"]))
        return _expect("shape", state["shape"].kind, "concentrated") or _expect(
            "characteristic", state["shape"].characteristic, inputs["field"]
        )

    def tower():
        state["tower"] = em_tower(state["shape"], window)
        # a concentrated field is nonzero exactly in fixed dimension a = 0
        return _expect("tower pieces", len(state["tower"].pieces), 2 * m_bound + 1)

    def window_check():
        cert = graded_field_window_check(state["tower"], window)
        return _expect("verdict", cert.verdict, "no_graded_ideal_in_window")

    return [("classify F_2", shape), ("em_tower", tower), ("window check", window_check)]


ITEMS = {
    "box_construct": box_construct,
    "field_lattice": field_lattice,
    "graded_window": graded_window,
}
