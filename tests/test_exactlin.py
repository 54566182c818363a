import math
from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from mackeybox import _snf_py
from mackeybox.boxtensor import box_power
from mackeybox.errors import IllFormedHom, InfiniteGroup
from mackeybox.exactlin import (
    AbHom,
    FGAbPresentation,
    _kills,
    cyclic_group,
    direct_sum,
    enumerate_subgroups,
    factor_through_injection,
    finite_model,
    free_group,
    hom_cokernel,
    hom_image,
    hom_kernel,
    identity_hom,
    present_quotient,
    quotient_by_subgroup,
    solve_membership,
    subgroup_key,
    subgroup_presentation,
    tensor,
    zero_group,
    zero_hom,
)
from mackeybox.green import f4_frobenius_green
from mackeybox.intlinalg import IntMatrix, smith_normal_form, smith_u_diagonal
from test_intlinalg import fraction_inverse


def canon(pres):
    return pres.canonical()


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_hand_example():
    # row/column reduction by hand: gcd of entries is 2, |det| = |16-24| = 8,
    # so the invariant factors are 2 and 4.
    m = IntMatrix([[2, 4], [6, 8]])
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v) == d
    assert [d.rows[0][0], d.rows[1][1]] == [2, 4]
    assert d.rows[0][1] == 0 and d.rows[1][0] == 0


def test_snf_identity():
    m = IntMatrix.identity(3)
    _, d, _ = smith_normal_form(m)
    assert d == IntMatrix.identity(3)


def test_snf_empty():
    m = IntMatrix.zeros(0, 0)
    u, d, v = smith_normal_form(m)
    assert u.nrows == 0 and v.nrows == 0 and d.nrows == 0


int_entries = st.integers(min_value=-30, max_value=30)


@st.composite
def matrices(draw, max_dim=4):
    m = draw(st.integers(min_value=0, max_value=max_dim))
    n = draw(st.integers(min_value=0, max_value=max_dim))
    rows = [[draw(int_entries) for _ in range(n)] for _ in range(m)]
    return IntMatrix(rows, n)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_snf_properties(m):
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v) == d
    diag = [d.rows[i][i] for i in range(min(d.nrows, d.ncols))]
    for i in range(d.nrows):
        for j in range(d.ncols):
            if i != j:
                assert d.rows[i][j] == 0
    nz = [x for x in diag if x != 0]
    assert all(x > 0 for x in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # zeros trail
    assert diag[len(nz):] == [0] * (len(diag) - len(nz))


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_snf_idempotent_canonical_form(m):
    _, d, _ = smith_normal_form(m)
    assert smith_u_diagonal(d)[1] == smith_u_diagonal(m)[1]


# ---------------------------------------------------------------------------
# kernels / cokernels / images


def mult_map(group, k):
    n = group.num_generators
    return AbHom(group, group, IntMatrix.identity(n).scale(k))


def test_kernel_mult2_on_Z():
    k, incl = hom_kernel(mult_map(free_group(1), 2))
    assert canon(k) == (0, ())
    assert incl.source is k


def test_kernel_mult2_on_Z4():
    # direct enumeration of Z/4: 2x = 0 for x in {0, 2}, so the kernel is Z/2
    z4 = list(range(4))
    oracle = [x for x in z4 if (2 * x) % 4 == 0]
    assert len(oracle) == 2
    k, incl = hom_kernel(mult_map(cyclic_group(4), 2))
    assert canon(k) == (0, (2,))
    # inclusion composed with doubling is zero
    f = mult_map(cyclic_group(4), 2)
    assert f.compose(incl).is_zero()


def test_kernel_zero_map_on_Z3():
    z3 = cyclic_group(3)
    k, _ = hom_kernel(zero_hom(z3, z3))
    assert canon(k) == (0, (3,))


def test_cokernel_mult2_on_Z():
    c, proj = hom_cokernel(mult_map(free_group(1), 2))
    assert canon(c) == (0, (2,))
    f = mult_map(free_group(1), 2)
    assert proj.compose(f).is_zero()


def test_cokernel_identity_on_Z2():
    c, _ = hom_cokernel(identity_hom(free_group(2)))
    assert canon(c) == (0, ())


def test_cokernel_zero_map_Z_to_Z():
    c, _ = hom_cokernel(zero_hom(free_group(1), free_group(1)))
    assert canon(c) == (1, ())


def test_image_ranks_additive():
    # free-rank additivity: rank(source) = rank(ker) + rank(im)
    cases = [
        mult_map(free_group(2), 3),
        zero_hom(free_group(2), free_group(1)),
        AbHom(free_group(2), free_group(2), IntMatrix([[1, 1], [1, 1]])),
        AbHom(free_group(3), free_group(2), IntMatrix([[1, 0, 2], [0, 3, 1]])),
    ]
    for f in cases:
        k, _ = hom_kernel(f)
        im, _, _ = hom_image(f)
        assert f.source.free_rank == k.free_rank + im.free_rank


def test_ill_formed_hom_rejected():
    with pytest.raises(IllFormedHom):
        AbHom(cyclic_group(4), free_group(1), IntMatrix([[1]]))


def test_ill_formed_hom_names_the_failing_relation():
    # Z/2 + Z/3 -> Z/4 by e_0 |-> 4, e_1 |-> 1: the first relation 2e_0 maps
    # to 8 == 0, the second relation 3e_1 maps to 3 != 0, and only it is named
    source = FGAbPresentation(2, IntMatrix([[2, 0], [0, 3]]))
    with pytest.raises(IllFormedHom) as err:
        AbHom(source, cyclic_group(4), IntMatrix([[4, 1]]))
    assert str(err.value) == "source relation [0, 3] maps to [3] outside target relations"


def test_ill_formed_hom_into_free_summand():
    # Z/2 -> Z by 1 |-> 1: the relation 2 maps to 2, nonzero in Z (d = 0)
    with pytest.raises(IllFormedHom) as err:
        AbHom(cyclic_group(2), free_group(1), IntMatrix([[1]]))
    assert "[2] maps to [2]" in str(err.value)
    # Z/2 -> Z/3 + Z by 1 |-> (3, 1): the relation 2 maps to (6, 2), which is
    # zero in the Z/3 summand but not in the free one
    target = FGAbPresentation(2, IntMatrix([[3, 0]]))
    AbHom(cyclic_group(2), target, IntMatrix([[3], [0]]))
    with pytest.raises(IllFormedHom) as err:
        AbHom(cyclic_group(2), target, IntMatrix([[3], [1]]))
    assert "[2] maps to [6, 2]" in str(err.value)


def test_hom_into_zero_group():
    zero_hom(cyclic_group(5), zero_group())
    zero_hom(free_group(2), zero_group())
    f = AbHom(FGAbPresentation(2, IntMatrix([[2, 4], [0, 0]])), zero_group(), IntMatrix.zeros(0, 2))
    assert f.is_zero()


def test_cached_reducer_leaves_equality_and_hash_alone():
    a = FGAbPresentation(2, IntMatrix([[2, 0], [0, 0]]))
    b = FGAbPresentation(2, IntMatrix([[2, 0], [0, 0]]))
    assert a.reduces_to_zero((4, 0)) and not a.reduces_to_zero((0, 1))
    assert a.canonical() == (1, (2,))
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert AbHom(a, b, IntMatrix.identity(2)) == AbHom(b, a, IntMatrix.identity(2))


def test_presentations_build_no_v(monkeypatch):
    vs = []
    kernel = _snf_py.smith_normal_form

    def recording(*args, **kwargs):
        u, d, v = kernel(*args, **kwargs)
        vs.append(v)
        return u, d, v

    monkeypatch.setattr(_snf_py, "smith_normal_form", recording)
    # each equal presentation owns its Smith form, so each one computes it
    rels = IntMatrix([[2 * 9973, 0], [0, 3 * 9973]])
    a, b, c = (FGAbPresentation(2, rels) for _ in range(3))
    assert a.canonical() == (0, (9973, 6 * 9973))
    assert b.reduces_to_zero((2 * 9973, 0)) and not b.reduces_to_zero((9973, 0))
    assert finite_model(c).order() == 6 * 9973**2
    assert vs == [None] * 3


def recorded_smith_forms(monkeypatch):
    """A list that records the (rows, cols) of every Smith kernel call."""
    calls = []
    kernel = _snf_py.smith_normal_form

    def recording(*args, **kwargs):
        calls.append(args[1:3])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(_snf_py, "smith_normal_form", recording)
    return calls


def test_groups_killed_by_two_take_no_smith_form(monkeypatch):
    f4 = f4_frobenius_green().underlying  # its fixed points are solved with V
    calls = recorded_smith_forms(monkeypatch)
    bp = box_power(f4, 3)
    top, bottom = bp.result.top, bp.result.bottom
    assert top.canonical() == (0, (2,) * 4)
    assert bottom.canonical() == (0, (2,) * 8)
    AbHom(top, top, IntMatrix.identity(top.num_generators))
    # no generators, and the trivial group on unit rows, qualify as well
    assert zero_group().canonical() == (0, ())
    assert FGAbPresentation(2, IntMatrix([[0, -1], [1, 0]])).canonical() == (0, ())
    assert calls == []
    # a Z/4 generator, a free generator, and a generator with no row +-e_1
    # or +-2 e_1 (a Z/2 all the same) each leave the GF(2) path
    for rels, shape in [
        ([[2, 0], [0, 4]], (0, (2, 4))),
        ([[2, 0]], (1, (2,))),
        ([[2, 0], [1, 1]], (0, (2,))),
    ]:
        assert FGAbPresentation(2, IntMatrix(rels, 2)).canonical() == shape
    assert len(calls) == 3


@pytest.mark.parametrize(
    "target_rels",
    [[[2, 0], [0, 2]], [[2, 2], [0, 2]]],
    ids=["gf2-path", "integer-path"],
)
def test_ill_formed_hom_into_killed_by_two_names_the_first_failure(target_rels):
    # Z/2 + Z/3 + Z/5 -> (Z/2)^2 by e_0, e_1 |-> (1, 0) and e_2 |-> (0, 1):
    # 2e_0 maps to (2, 0) == 0, while 3e_1 and 5e_2 map to (3, 0) and
    # (0, 5), both outside 2Z^2; only the first of the two is named
    source = FGAbPresentation(3, IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
    target = FGAbPresentation(2, IntMatrix(target_rels))
    assert target.canonical() == (0, (2, 2))
    with pytest.raises(IllFormedHom) as err:
        AbHom(source, target, IntMatrix([[1, 1, 0], [0, 0, 1]]))
    assert str(err.value) == "source relation [0, 3, 0] maps to [3, 0] outside target relations"


# ---------------------------------------------------------------------------
# tensor


def cyclic_tensor_oracle(a, b):
    # gcd oracle: Z/a (x) Z/b = Z/gcd(a,b); 0 means Z
    if a == 0 and b == 0:
        return (1, ())
    g = math.gcd(a, b) if a and b else (b if a == 0 else a)
    return (0, (g,)) if g > 1 else (0, ())


def test_tensor_gcd_examples():
    for a, b in [(2, 3), (4, 6), (2, 2), (0, 5), (6, 4)]:
        t = tensor(cyclic_group(a), cyclic_group(b))
        assert canon(t) == cyclic_tensor_oracle(a, b), (a, b)


def test_tensor_with_Z_is_identity():
    for b in [cyclic_group(6), free_group(2), zero_group()]:
        t = tensor(free_group(1), b)
        assert canon(t) == canon(b)


def test_tensor_symmetry():
    pairs = [
        (cyclic_group(4), cyclic_group(6)),
        (free_group(2), cyclic_group(3)),
        (FGAbPresentation(2, IntMatrix([[2, 0], [0, 4]])), cyclic_group(8)),
    ]
    for a, b in pairs:
        t1 = tensor(a, b)
        t2 = tensor(b, a)
        assert canon(t1) == canon(t2)


# ---------------------------------------------------------------------------
# quotients, membership, factoring


def test_quotient_proj_kills_subgroup():
    g = free_group(2)
    q, proj = quotient_by_subgroup(g, [(2, 0), (0, 3)])
    assert canon(q) == (0, (6,)) or canon(q) == (0, (2, 3)) or canon(q)[1] == (6,)
    # images of the killed generators vanish
    assert q.reduces_to_zero(proj((2, 0)))
    assert q.reduces_to_zero(proj((0, 3)))


def test_cokernel_proj_of_map_is_zero():
    f = AbHom(free_group(1), free_group(2), IntMatrix([[2], [4]]))
    c, proj = hom_cokernel(f)
    assert proj.compose(f).is_zero()


def test_solve_membership():
    g = cyclic_group(6)
    gens = IntMatrix([[2]])  # subgroup generated by 2
    assert solve_membership(g, gens, [(4,)])[0] is not None
    assert solve_membership(g, gens, [(3,)]) == [None]


def lattice_invariants(rows):
    """(rank, product of nonzero invariant factors) of the row lattice, by sympy."""
    if not rows:
        return 0, 1
    d = sympy_smith_normal_form(Matrix(rows), domain=ZZ)
    nonzero = [abs(int(d[i, i])) for i in range(min(d.rows, d.cols)) if d[i, i] != 0]
    return len(nonzero), math.prod(nonzero)


@st.composite
def relations_and_vector(draw):
    """Up to 4x4 relations with entries in -6..6 (zero rows and free parts
    allowed) and a vector, half the time an integer combination of the rows."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=4))
    entry = st.integers(min_value=-6, max_value=6)
    row = st.one_of(st.just([0] * n), st.lists(entry, min_size=n, max_size=n))
    rows = [draw(row) for _ in range(m)]
    if rows and draw(st.booleans()):
        coeffs = [draw(entry) for _ in rows]
        vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
    else:
        vec = draw(st.lists(entry, min_size=n, max_size=n))
    return rows, vec


@given(relations_and_vector())
@settings(max_examples=300, deadline=None)
def test_reduces_to_zero_matches_sympy_oracle(case):
    # L <= L + Z vec, so vec lies in L exactly when both lattices have the same
    # rank and the same gcd of maximal minors (the product of nonzero factors)
    rows, vec = case
    n = len(vec)
    pres = FGAbPresentation(n, IntMatrix(rows, n))
    in_lattice = lattice_invariants(rows) == lattice_invariants(rows + [vec])
    assert pres.reduces_to_zero(vec) == in_lattice


entry8 = st.integers(min_value=-8, max_value=8)


@st.composite
def killed_by_two(draw):
    """Relations on 1-6 generators with a +-e_i or +-2 e_i row for every
    generator i, and up to four rows with entries in -8..8, shuffled."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for i in range(n):
        x = draw(st.sampled_from((2, -2, 2, 1, -1)))
        rows.append([x if j == i else 0 for j in range(n)])
    rows += draw(st.lists(st.lists(entry8, min_size=n, max_size=n), max_size=4))
    return [rows[k] for k in draw(st.permutations(range(len(rows))))]


def integer_kept(pres):
    """The kept rows of the integer Smith reducer, (U row i, d_i) for
    d_i != 1, whatever path the presentation takes."""
    u, diagonal = smith_u_diagonal(pres.relations.transpose())
    diag = [abs(x) for x in diagonal] + [0] * (pres.num_generators - len(diagonal))
    return [(u.rows[i], d) for i, d in enumerate(diag) if d != 1]


@given(killed_by_two(), st.data())
@settings(max_examples=200, deadline=None)
def test_gf2_reducer_matches_integer_reducer(rows, data):
    n = len(rows[0])
    pres = FGAbPresentation(n, IntMatrix(rows, n))
    rank, order = lattice_invariants(rows)
    assert rank == n and order & (order - 1) == 0
    assert pres.canonical() == (0, (2,) * (order.bit_length() - 1))
    kept = integer_kept(pres)
    for _ in range(4):
        if data.draw(st.booleans()):
            coeffs = [data.draw(entry8) for _ in rows]
            vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
        else:
            vec = data.draw(st.lists(entry8, min_size=n, max_size=n))
        assert pres.reduces_to_zero(vec) == _kills(kept, vec)
        assert pres.reduces_to_zero(vec) == (lattice_invariants(rows + [vec]) == (rank, order))


def first_failure_reference(source, target, matrix):
    """The IllFormedHom text of the first source relation whose image the
    integer reducer of the target rejects, tested one relation at a time."""
    kept = integer_kept(target)
    for rel in source.relations.rows:
        img = [sum(a * b for a, b in zip(row, rel)) for row in matrix.rows]
        if not _kills(kept, img):
            return f"source relation {list(rel)} maps to {img} outside target relations"
    return None


@given(killed_by_two(), st.data())
@settings(max_examples=200, deadline=None)
def test_hom_check_into_killed_by_two_matches_reference(rows, data):
    n = len(rows[0])
    if data.draw(st.booleans()):
        # the same group in a drawn basis: off the GF(2) path, but the kept
        # rows of its Smith reducer still all have d = 2, with any entries
        basis = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(n):
            a, b = data.draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
            s = data.draw(st.integers(-2, 2)) if a != b else 0
            for row in basis:
                row[a] += s * row[b]
        rows = [[sum(x * row[j] for x, row in zip(r, basis)) for j in range(n)] for r in rows]
    target = FGAbPresentation(n, IntMatrix(rows, n))
    m = data.draw(st.integers(min_value=1, max_value=4))
    vector = st.lists(entry8, min_size=m, max_size=m)
    # doubled relations always map into a group killed by 2; drawn ones may not
    rels = [[2 * x for x in data.draw(vector)] for _ in range(data.draw(st.integers(0, 3)))]
    rels += [data.draw(vector) for _ in range(data.draw(st.integers(0, 3)))]
    rels = [rels[k] for k in data.draw(st.permutations(range(len(rels))))]
    source = FGAbPresentation(m, IntMatrix(rels, m))
    matrix = IntMatrix([data.draw(vector) for _ in range(n)], m)
    try:
        AbHom(source, target, matrix)
        message = None
    except IllFormedHom as err:
        message = str(err)
    assert message == first_failure_reference(source, target, matrix)


def test_factor_through_injection():
    # multiples of 2 inside Z: factor multiplication by 6 through it
    amb = free_group(1)
    sub = free_group(1)
    incl = AbHom(sub, amb, IntMatrix([[2]]))
    f = mult_map(amb, 6)
    g = factor_through_injection(f, incl)
    assert incl.compose(g).equals(f)
    assert g.matrix == IntMatrix([[3]])


def test_present_quotient_round_trip():
    gens = IntMatrix([[2, 0], [0, 1]]).transpose()  # columns (2,0),(0,1) in Z^2
    killed = IntMatrix.from_columns([(4, 0)], 2)
    q = present_quotient(IntMatrix.from_columns([(2, 0), (0, 1)], 2), killed)
    assert canon(q) == (1, (2,))


# ---------------------------------------------------------------------------
# finite models and subgroup enumeration


def test_finite_model_enumeration():
    m = finite_model(FGAbPresentation(2, IntMatrix([[2, 0], [0, 2]])))
    assert m.order() == 4
    assert len(m.elements) == 4


def test_infinite_group_rejected():
    with pytest.raises(InfiniteGroup):
        finite_model(free_group(1))


def subgroup_count_oracle_klein():
    # subgroups of (Z/2)^2 by hand: 0, three Z/2, full
    return 5


def test_enumerate_subgroups_klein():
    m = finite_model(FGAbPresentation(2, IntMatrix([[2, 0], [0, 2]])))
    subs = enumerate_subgroups(m)
    assert len(subs) == subgroup_count_oracle_klein()
    sizes = sorted(len(s) for s in subs)
    assert sizes == [1, 2, 2, 2, 4]


def test_enumerate_subgroups_z4():
    m = finite_model(cyclic_group(4))
    subs = enumerate_subgroups(m)
    assert sorted(len(s) for s in subs) == [1, 2, 4]


def test_enumeration_deterministic():
    m = finite_model(FGAbPresentation(2, IntMatrix([[2, 0], [0, 4]])))
    a = enumerate_subgroups(m)
    b = enumerate_subgroups(m)
    assert a == b


def brute_force_subgroups(model):
    """Oracle: close every set of at most r elements, r the number of
    nontrivial cyclic factors (enough generators for any subgroup), and sort
    the distinct closures by Hermite key."""
    def closure(gens):
        seen = {model.zero()}
        frontier = [model.zero()]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = model.add(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    r = max(1, sum(1 for d in model.moduli if d > 1))
    elems = model.elements
    subs = {closure(combo) for k in range(r + 1) for combo in combinations(elems, k)}
    return sorted(subs, key=lambda sub: subgroup_key(model, sub))


@st.composite
def finite_presentations(draw):
    """L @ diag(d) @ U with L, U unit triangular (off-diagonal -1..1): a
    presentation of Z/d_1 x ... x Z/d_n, n = 1..3, of order at most 32."""
    n = draw(st.integers(1, 3))
    d = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    assume(math.prod(d) <= 32)
    small = st.integers(-1, 1)
    lower = [[1 if i == j else draw(small) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else draw(small) if j > i else 0 for j in range(n)] for i in range(n)]
    return mixed_presentation(d, lower, upper)


def mixed_presentation(d, lower, upper):
    diag = IntMatrix([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))])
    return FGAbPresentation(len(d), IntMatrix(lower) @ diag @ IntMatrix(upper))


# rank 3 is rare among the drawn presentations: (Z/2)^3 and Z/2 x Z/4 x Z/4
RANK3_EXAMPLES = [
    mixed_presentation(
        (2, 2, 2), [[1, 0, 0], [1, 1, 0], [0, -1, 1]], [[1, 1, -1], [0, 1, 1], [0, 0, 1]]
    ),
    mixed_presentation(
        (2, 4, 4), [[1, 0, 0], [-1, 1, 0], [1, 1, 1]], [[1, 0, 1], [0, 1, -1], [0, 0, 1]]
    ),
]


@settings(max_examples=60, deadline=None)
@given(finite_presentations())
@example(RANK3_EXAMPLES[0])
@example(RANK3_EXAMPLES[1])
def test_enumerate_subgroups_matches_brute_force(pres):
    model = finite_model(pres)
    assert enumerate_subgroups(model) == brute_force_subgroups(model)


@settings(max_examples=60, deadline=None)
@given(finite_presentations())
@example(RANK3_EXAMPLES[0])
@example(RANK3_EXAMPLES[1])
def test_finite_model_inverse_matches_fraction_reference(pres):
    model = finite_model(pres)
    assert model.u_inv.rows == fraction_inverse(model.u)


def every_element_presentation(model, elements):
    """The earlier subgroup presentation, a reference: one generator per
    element of the subgroup, its lift in sorted order."""
    cols = [model.from_canonical(c) for c in sorted(elements)]
    mat = IntMatrix.from_columns(cols, model.pres.num_generators)
    return present_quotient(mat, model.pres.relations.transpose())


@settings(max_examples=40, deadline=None)
@given(finite_presentations())
@example(RANK3_EXAMPLES[0])
@example(RANK3_EXAMPLES[1])
def test_subgroup_presentation_on_hermite_key(pres):
    # each subgroup is presented on at most num_generators generators, with
    # the invariants of the every-element presentation, and its inclusion
    # is onto exactly the subgroup
    model = finite_model(pres)
    for sub in enumerate_subgroups(model):
        p, incl = subgroup_presentation(model, sub)
        assert p.num_generators <= pres.num_generators
        assert p.canonical() == every_element_presentation(model, sub).canonical()
        image = {model.to_canonical(incl(finite_model(p).from_canonical(c)))
                 for c in finite_model(p).elements}
        assert image == sub


def gaussian_binomial(n, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize(
    "p, n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (5, 2), (3, 4)]
)
def test_elementary_abelian_subgroup_count(p, n):
    # subgroups of (Z/p)^n are the F_p-subspaces: sum over k of [n choose k]_p,
    # 374 for (Z/2)^5, 2,825 for (Z/2)^6 and 212 for (Z/3)^4
    expected = sum(gaussian_binomial(n, k, p) for k in range(n + 1))
    m = finite_model(FGAbPresentation(n, IntMatrix.identity(n).scale(p)))
    assert len(enumerate_subgroups(m)) == expected


def reference_subgroups(model):
    """The earlier lattice walk, as a reference for the order of
    ``enumerate_subgroups``: join every cyclic subgroup onto every newly
    found set, deduplicate by set, then sort by the Hermite key of the
    generators each set was joined from."""
    elements, index, add = model.elements, model.index, model.add
    origin = index[model.zero()]
    atoms = {}
    for x in range(len(elements)):
        span, todo = {origin}, [origin]
        while todo:
            e = elements[todo.pop()]
            y = index[add(e, elements[x])]
            if y not in span:
                span.add(y)
                todo.append(y)
        atoms.setdefault(frozenset(span), x)
    zero = frozenset([origin])
    found = {zero: []}
    frontier = [zero]
    while frontier:
        grown = []
        for s in frontier:
            for x in atoms.values():
                if x in s:
                    continue
                joined = set(s)
                coset = list(s)
                while True:
                    coset = [index[add(elements[e], elements[x])] for e in coset]
                    if coset[0] in joined:
                        break
                    joined.update(coset)
                joined = frozenset(joined)
                if joined not in found:
                    found[joined] = found[s] + [x]
                    grown.append(joined)
        frontier = grown
    ordered = sorted(found, key=lambda s: subgroup_key(model, [elements[x] for x in found[s]]))
    return [frozenset(elements[x] for x in s) for s in ordered]


@pytest.mark.parametrize(
    "relations",
    [
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
        [[4, 0], [0, 2]],
        [[8, 0, 0], [0, 2, 0], [0, 0, 2]],
        [[3, 0, 0], [0, 3, 0], [0, 0, 3]],
        [[9, 0], [0, 3]],
        [[6, 2], [2, 4]],
        [[2, 1, 0], [0, 2, 1], [1, 0, 2]],
    ],
    ids=["Z2^4", "Z4+Z2", "Z8+Z2^2", "Z3^3", "Z9+Z3", "6-2-2-4", "circulant-2-1-0"],
)
def test_enumerate_subgroups_matches_reference_walk(relations):
    n = len(relations)
    model = finite_model(FGAbPresentation(n, IntMatrix(relations)))
    assert enumerate_subgroups(model) == reference_subgroups(model)


@pytest.mark.parametrize("a, b, count", [(2, 4, 8), (4, 4, 15)])
def test_subgroup_counts_by_hand(a, b, count):
    # Z/2 x Z/4: 0, three of order 2, three of order 4 (two cyclic and the
    # 2-torsion), the whole group.
    # Z/4 x Z/4: 0, three of order 2, seven of order 4 (six cyclic and the
    # 2-torsion), three of order 8, the whole group.
    m = finite_model(FGAbPresentation(2, IntMatrix([[a, 0], [0, b]])))
    assert len(enumerate_subgroups(m)) == count


def test_finite_model_shared_and_frozen():
    a = FGAbPresentation(2, IntMatrix([[2, 0], [0, 4]]))
    b = FGAbPresentation(2, IntMatrix([[2, 0], [0, 4]]))
    h = hash(a)
    model = finite_model(a)
    assert finite_model(a) is model
    assert a == b and hash(a) == h == hash(b)
    assert {a: 1}[b] == 1
    with pytest.raises(FrozenInstanceError):
        model.moduli = (2, 2)


def test_direct_sum_blocks():
    s, ia, ib, pa, pb = direct_sum(cyclic_group(2), cyclic_group(3))
    assert canon(s) == (0, (6,))
    assert pa.compose(ia).equals(identity_hom(cyclic_group(2)))
    assert pb.compose(ib).equals(identity_hom(cyclic_group(3)))
    assert pb.compose(ia).is_zero()
