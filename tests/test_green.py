import dataclasses
import json
import time
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mackeybox import boxtensor, grading, green, mackey, simplicial
from mackeybox.boxtensor import (
    box,
    box_many,
    box_map,
    box_power,
    burnside_action_pairing,
    contract_pair,
    invert_iso,
    map_from_pairing,
    nested_to_flat,
    swap_map,
    unitor,
)
from mackeybox.errors import (
    IncompatiblePairing,
    InfiniteGroup,
    NotAModule,
    UnclassifiableShape,
    ZeroFunctor,
)
from mackeybox.exactlin import (
    AbHom,
    FGAbPresentation,
    cyclic_group,
    enumerate_subgroups,
    finite_model,
    free_group,
    identity_hom,
    solve_membership,
    zero_group,
)
from mackeybox.green import (
    FieldVerdict,
    GreenModule,
    TwistedModule,
    burnside_green,
    classify_field_shape,
    constant_green,
    f4_frobenius_green,
    field_top_green,
    fixed_point_green,
    green_from_mult,
    is_ideal,
    is_mackey_field,
    relative_box,
    self_module,
    subgroup_is_full,
    top_level_is_field,
    validate_green,
)
from mackeybox.grading import BoxWindow, graded_field_window_check, single_degree_tower
from mackeybox.intlinalg import IntMatrix
from mackeybox.mackey import (
    MackeyFunctor,
    Subfunctor,
    _closure,
    burnside,
    canonical_levels,
    constant,
    enumerate_subfunctors,
    identity_map,
    j_top,
    validate_mackey,
    zero_mackey,
)


def test_burnside_green_validates():
    for p in (2, 3, 5):
        rep = validate_green(burnside_green(p))
        assert rep.passed, rep.to_json()


def test_constant_field_greens_validate():
    for p in (2, 3):
        for q in (2, 3, 4, 5):
            rep = validate_green(constant_green(p, q))
            assert rep.passed, (p, q, rep.to_json())
    rep = validate_green(constant_green(2, 0))
    assert rep.passed


def test_f4_frobenius_green_validates():
    rep = validate_green(f4_frobenius_green())
    assert rep.passed, rep.to_json()


def test_field_top_green_validates():
    for p in (2, 3):
        for q in (2, 3):
            assert validate_green(field_top_green(p, q)).passed


def test_corrupted_mult_fails_with_witness():
    m = constant(2, 3)
    # mult(x, y) = 2xy is not unital
    g = green_from_mult(m, (1,), IntMatrix([[2]]), IntMatrix([[2]]))
    rep = validate_green(g)
    assert not rep.passed
    assert any(c.name == "unitality" and not c.passed for c in rep.checks)


def test_is_ideal_trivial_cases():
    g = constant_green(2, 2)
    subs = enumerate_subfunctors(g.underlying)
    full = [s for s in subs if s.is_full()][0]
    zero = [s for s in subs if s.is_zero()][0]
    assert is_ideal(g, full)[0]
    assert is_ideal(g, zero)[0]


def test_constant_f2_ideal_matches_hand_example():
    g = constant_green(2, 2)
    subs = enumerate_subfunctors(g.underlying)
    proper = [s for s in subs if not s.is_zero() and not s.is_full()]
    assert len(proper) == 1
    w = proper[0]
    # the ideal has nothing at the fixed orbit and everything below
    assert canonical_levels(w.functor) == ((0, ()), (0, (2,)))
    assert is_ideal(g, w)[0]


def upper_triangular_f2_green():
    """Upper-triangular 2x2 matrices over F_2 on (E11, E12, E22), with the
    trivial C_2 action: a Green functor that is not commutative."""
    v = FGAbPresentation(3, IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    products = {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (1, 2): (0, 1, 0), (2, 2): (0, 0, 1)}
    cols = [products.get((i, j), (0, 0, 0)) for i in range(3) for j in range(3)]
    return fixed_point_green(2, v, identity_hom(v), IntMatrix.from_columns(cols, 3), (1, 0, 1))


def escaping_sides(g, sub):
    """Brute-force oracle: the sides ("left" for r * s, "right" for s * r)
    on which some ring element r times some element s of ``sub`` falls
    outside ``sub``, decided by solve_membership against ``sub.include``."""
    m = g.underlying
    sides = set()
    for pres, mult, elements, incl in (
        (m.top, g.mult.f_top.matrix, sub.top_elements, sub.include.f_top.matrix),
        (m.bottom, g.mult.f_bot.matrix, sub.bottom_elements, sub.include.f_bot.matrix),
    ):
        model = finite_model(pres)
        n = pres.num_generators
        ring = [model.from_canonical(c) for c in model.elements]
        inside = [model.from_canonical(c) for c in elements]

        def product(x, y):
            return tuple(
                sum(row[i * n + j] * x[i] * y[j] for i in range(n) for j in range(n))
                for row in mult.rows
            )

        for r in ring:
            for s in inside:
                if solve_membership(pres, incl, [product(r, s)]) == [None]:
                    sides.add("left")
                if solve_membership(pres, incl, [product(s, r)]) == [None]:
                    sides.add("right")
    return sides


IDEAL_RINGS = pytest.mark.parametrize(
    "g",
    [
        constant_green(2, 2),
        constant_green(2, 4),
        constant_green(3, 9),
        f4_frobenius_green(),
        field_top_green(2, 2),
        upper_triangular_f2_green(),
    ],
    ids=["constant-2-2", "constant-2-4", "constant-3-9", "f4", "field-top-2-2", "upper-triangular"],
)


@IDEAL_RINGS
def test_is_ideal_matches_brute_force(g):
    for sub in enumerate_subfunctors(g.underlying):
        assert is_ideal(g, sub)[0] == (not escaping_sides(g, sub)), sub


def first_escape(matrix, model, elements, target_model, target_elements):
    """Oracle closure test that tabulates nothing: the first image
    ``matrix @ x``, x in ``elements`` (canonical coordinates in ``model``) in
    sorted order, whose canonical coordinates in ``target_model`` are not in
    ``target_elements``; None if there is none."""
    for c in sorted(elements):
        x = model.from_canonical(c)
        img = tuple(sum(a * b for a, b in zip(row, x)) for row in matrix.rows)
        if target_model.to_canonical(img) not in target_elements:
            return img
    return None


def ideal_by_column_slices(g, sub):
    """Oracle for the flag and witness of ``is_ideal``: at each level, the
    maps y -> e_i * y and then y -> y * e_i as column slices of the pairing
    matrix (column i * n + j is e_i * e_j), each tested with ``first_escape``."""
    m = g.underlying
    for level, pres, mult, elements in (
        ("top", m.top, g.mult.f_top.matrix, sub.top_elements),
        ("bottom", m.bottom, g.mult.f_bot.matrix, sub.bottom_elements),
    ):
        model, n = finite_model(pres), pres.num_generators
        left = [[i * n + j for j in range(n)] for i in range(n)]
        right = [[j * n + i for j in range(n)] for i in range(n)]
        for columns in left + right:
            action = IntMatrix([[row[k] for k in columns] for row in mult.rows], n)
            prod = first_escape(action, model, elements, model, elements)
            if prod is not None:
                return False, f"{level} product {list(prod)} escapes the subfunctor"
    return True, ""


@IDEAL_RINGS
def test_is_ideal_witness_matches_column_slice_oracle(g):
    for sub in enumerate_subfunctors(g.underlying):
        assert is_ideal(g, sub) == ideal_by_column_slices(g, sub), sub


def test_is_ideal_checks_right_multiplication():
    g = upper_triangular_f2_green()
    assert [c.name for c in validate_green(g).failures()] == ["commutativity"]
    m = g.underlying
    bm = finite_model(m.bottom)
    e11 = frozenset({bm.zero(), bm.to_canonical((1, 0, 0))})
    [sub] = [
        s
        for s in enumerate_subfunctors(m)
        if s.bottom_elements == e11 and len(s.top_elements) == 2
    ]
    # span{E11} is a left ideal but not a right one: E11 * E12 = E12
    assert escaping_sides(g, sub) == {"right"}
    # the top is the whole ring (trivial action): E11 * E12 = E12 escapes,
    # found among the right products, after every left one passes
    assert is_ideal(g, sub) == (False, "top product [0, 1, 0] escapes the subfunctor")


Z_PLUS_Z2 = FGAbPresentation(2, IntMatrix([[0, 2]]))


@pytest.mark.parametrize(
    "pres, rows, full",
    [
        (free_group(1), [[2]], False),
        (free_group(1), [[2], [3]], True),
        (cyclic_group(4), [[3]], True),
        (cyclic_group(4), [[2]], False),
        (Z_PLUS_Z2, [[1, 1]], False),
        (Z_PLUS_Z2, [[1, 1], [0, 1]], True),
        (cyclic_group(3), [], False),
        (cyclic_group(6), [[2], [3]], True),
        (zero_group(), [], True),
    ],
)
def test_subgroup_is_full_by_hand(pres, rows, full):
    assert subgroup_is_full(pres, rows) == full


def test_constant_f2_not_field_with_witness():
    v = is_mackey_field(constant_green(2, 2))
    assert not v.is_field
    assert canonical_levels(v.witness.functor) == ((0, ()), (0, (2,)))


def test_constant_f3_is_field():
    assert is_mackey_field(constant_green(2, 3)).is_field


def test_constant_fq_field_over_coprime_primes():
    assert is_mackey_field(constant_green(3, 2)).is_field
    assert is_mackey_field(constant_green(2, 5)).is_field
    assert not is_mackey_field(constant_green(3, 3)).is_field


def test_concentrated_functors_are_fields():
    for p in (2, 3):
        for q in (2, 3):
            assert is_mackey_field(field_top_green(p, q)).is_field


def test_f4_frobenius_is_field():
    assert is_mackey_field(f4_frobenius_green()).is_field


def gf2_mul(a, b, poly, n):
    """Product in F_2[x]/(poly) of bit vectors a and b (bit i holds x^i)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n & 1:
            a ^= poly
    return out


def gf2_galois_green(n, poly, k):
    """F_(2^n) = F_2[x]/(poly) with C_2 acting by a -> a^(2^k), n = 2k, in
    the power basis, as a fixed-point Green functor."""
    def bits(a):
        return tuple(a >> i & 1 for i in range(n))

    def frobenius(a):
        for _ in range(k):
            a = gf2_mul(a, a, poly, n)
        return a

    basis = [1 << i for i in range(n)]
    v = FGAbPresentation(n, IntMatrix.identity(n).scale(2))
    gamma = AbHom(v, v, IntMatrix.from_columns([bits(frobenius(a)) for a in basis], n))
    mult = IntMatrix.from_columns([bits(gf2_mul(a, b, poly, n)) for a in basis for b in basis], n)
    return fixed_point_green(2, v, gamma, mult, bits(1))


def test_f64_galois_is_field_over_129_submodules():
    # x^6 + x + 1, a -> a^8: F_64 over its fixed subfield F_8.  Its 2,825
    # subgroups of (Z/2)^6 are filtered here by brute force; each of the 129
    # stable under the action is the bottom of the subfunctor (tr B, B).
    g = gf2_galois_green(6, 0b1000011, 3)
    m = g.underlying
    assert m.top.canonical() == (0, (2, 2, 2))
    assert is_mackey_field(g).is_field
    bm = finite_model(m.bottom)
    subgroups = enumerate_subgroups(bm)
    stable = {b for b in subgroups if first_escape(m.weyl.matrix, bm, b, bm, b) is None}
    assert (len(subgroups), len(stable)) == (2825, 129)
    assert {s.bottom_elements for s in enumerate_subfunctors(m)} == stable


def test_f16_nested_to_flat_is_inverted():
    # F_16/C_2 (x^4 + x + 1, a -> a^4) has bottom (Z/2)^4, so the arity-3
    # products have 64 bottom generators; the map is decided without a
    # kernel and inverted with one Smith form per level
    m = gf2_galois_green(4, 0b10011, 2).underlying
    inner, flat = box_power(m, 2), box_power(m, 3)
    f = nested_to_flat(box(inner.result, m), inner, "left", flat)
    assert f.is_isomorphism()
    g = invert_iso(f)
    assert g.compose(f).equals(identity_map(f.source))
    assert f.compose(g).equals(identity_map(f.target))


@pytest.mark.parametrize(
    "n, poly, k",
    [
        # x^8 + x^4 + x^3 + x^2 + 1, a -> a^16: the walk takes seconds
        (8, 0b100011101, 4),
        # x^10 + x^3 + 1, a -> a^32: the bottom (Z/2)^10 alone has
        # 229,755,605 subgroups, out of reach of the walk
        (10, 0b10000001001, 5),
    ],
    ids=["F256", "F1024"],
)
def test_large_galois_fields_are_decided_without_subfunctor_walk(monkeypatch, n, poly, k):
    def walk(model, orbits):
        raise AssertionError("a field was decided by building a subfunctor lattice")

    g = gf2_galois_green(n, poly, k)
    # every subfunctor lattice is built by ``_lattice``, through ``enumerate_subfunctors``
    monkeypatch.setattr(mackey, "_lattice", walk)
    assert g.underlying.top.canonical() == (0, (2,) * k)
    assert is_mackey_field(g).to_json() == {"verdict": "Field"}
    assert classify_field_shape(g).kind == "fixed_point"


def test_closure_of_units_in_constant_f2():
    # tr = 2 = 0 and nothing restricts onto the bottom unit, so 1_bot
    # generates the proper ideal (0, Z/2) while 1_top generates everything
    g = constant_green(2, 2)
    top, bottom, res, tr, weyl = g.underlying._tables
    one_top = top.index[top.to_canonical(g.one_top())]
    one_bot = bottom.index[bottom.to_canonical(g.one_bot())]
    zero_top, zero_bot = top.index[top.zero()], bottom.index[bottom.zero()]
    models = (top, bottom)
    left_top, left_bottom = g._left_tables
    maps = [[(1, [res]), (0, left_top)], [(0, [tr]), (1, [weyl] + left_bottom)]]

    def ideal(seed):
        return _closure(models, maps, seed)

    assert ideal((1, one_bot)) == (frozenset({zero_top}), frozenset({zero_bot, one_bot}))
    assert ideal((0, one_top)) == (frozenset({zero_top, one_top}), frozenset({zero_bot, one_bot}))
    # a closure that meets a complete position stops there
    assert _closure(models, maps, (0, one_top), (frozenset(), frozenset({one_bot}))) is None


def field_by_subfunctor_walk(g):
    """Oracle for the verdict of ``is_mackey_field`` on a commutative finite
    ``g``: every proper nonzero subfunctor, in the order of
    ``enumerate_subfunctors``, tested with ``is_ideal``; the first ideal is
    its witness."""
    for sub in enumerate_subfunctors(g.underlying):
        if not sub.is_zero() and not sub.is_full() and is_ideal(g, sub)[0]:
            return FieldVerdict(False, sub)
    return FieldVerdict(True, None)


def assert_proper_nonzero_ideal(g, sub):
    assert not sub.is_zero() and not sub.is_full()
    assert is_ideal(g, sub) == (True, "")


def assert_principal_ideal_witness(g, witness):
    """``witness`` is a proper nonzero ideal of ``g`` (``is_ideal``, and the
    membership oracle ``escaping_sides``), and the intersection of the
    ideals containing some one of its elements: the ideal that element
    generates.  The ideals are every subfunctor of ``enumerate_subfunctors``
    that ``is_ideal`` accepts."""
    assert_proper_nonzero_ideal(g, witness)
    assert not escaping_sides(g, witness)
    positions = witness._positions
    # the positions it was built with are those of its element sets
    assert Subfunctor(g.underlying, witness.top_elements, witness.bottom_elements)._positions == positions
    ideals = [s._positions for s in enumerate_subfunctors(g.underlying) if is_ideal(g, s)[0]]

    def generated(level, x):
        containing = [ideal for ideal in ideals if x in ideal[level]]
        return tuple(frozenset.intersection(*(ideal[k] for ideal in containing)) for k in (0, 1))

    assert any(generated(level, x) == positions for level in (0, 1) for x in positions[level])


def assert_field_verdict_matches_walk(g):
    """The verdict of ``is_mackey_field`` is that of the subfunctor walk, and
    a non-field's witness is a principal proper nonzero ideal."""
    verdict = is_mackey_field(g)
    assert verdict.is_field == field_by_subfunctor_walk(g).is_field
    assert verdict.to_json()["verdict"] == ("Field" if verdict.is_field else "NotField")
    if verdict.is_field:
        assert verdict.witness is None
    else:
        assert_principal_ideal_witness(g, verdict.witness)


def test_trivial_action_f256_is_not_a_field_within_a_second():
    # F_256 with the trivial action: every subgroup of the bottom (Z/2)^8 is
    # stable, 417,199 of them, so the subfunctor walk took over a minute;
    # the first proper closure is the witness
    g = gf2_galois_green(8, 0b100011101, 8)
    start = time.perf_counter()
    verdict = is_mackey_field(g)
    elapsed = time.perf_counter() - start
    assert not verdict.is_field
    assert_proper_nonzero_ideal(g, verdict.witness)
    assert elapsed < 1.0


def test_trivial_action_f1024_witness_is_presented_on_its_hermite_key():
    # x^10 + x^3 + 1 with the trivial action: the witness's bottom has 1,024
    # elements, and each level is presented on the rows of its Hermite key,
    # at most 10 generators, where one generator per element made to_json
    # take 47 s
    verdict = is_mackey_field(gf2_galois_green(10, 0b10000001001, 10))
    start = time.perf_counter()
    out = verdict.to_json()
    elapsed = time.perf_counter() - start
    assert out["verdict"] == "NotField"
    assert out["witness"]["levels"] == [[], [2] * 10]
    include = verdict.witness.include
    assert include.f_top.source.num_generators <= 10
    assert include.f_bot.source.num_generators <= 10
    assert elapsed < 1.0


def test_trivial_action_f64_window_witness_is_an_ideal():
    # a single-degree window: its graded ideals are the ideals of the ring
    g = gf2_galois_green(6, 0b1000011, 6)
    m = g.underlying
    cert = graded_field_window_check(single_degree_tower(g), BoxWindow(2, 0, 0))
    assert cert.verdict == "witness"
    (levels,) = cert.witness.values()
    witness = Subfunctor(m, frozenset(map(tuple, levels["top"])), frozenset(map(tuple, levels["bottom"])))
    assert_proper_nonzero_ideal(g, witness)


def polynomial_ring(q, low):
    """(pres, mult, frobenius) of F_q[x]/(f) in the power basis, q prime,
    for the monic f whose lower coefficients are ``low``, lowest first."""
    d = len(low)

    def times_x(a):
        top = a[-1]
        return tuple((b - top * c) % q for b, c in zip((0,) + a[:-1], low))

    def mul(a, b):
        out, shifted = (0,) * d, a
        for coef in b:
            out = tuple((o + coef * s) % q for o, s in zip(out, shifted))
            shifted = times_x(shifted)
        return out

    def power(a, k):
        out = (1,) + (0,) * (d - 1)
        for _ in range(k):
            out = mul(out, a)
        return out

    basis = IntMatrix.identity(d).rows
    pres = FGAbPresentation(d, IntMatrix.identity(d).scale(q))
    mult = IntMatrix.from_columns([mul(a, b) for a in basis for b in basis], d)
    frobenius = [power(a, q) for a in basis]  # images of the basis, a -> a^q
    return pres, mult, frobenius


def frobenius_order(q, images, bound):
    """The least k <= bound with Frobenius^k the identity, else None."""
    d = len(images)
    identity = [tuple(row) for row in IntMatrix.identity(d).rows]
    current = identity
    for k in range(1, bound + 1):
        current = [tuple(sum(c * img[i] for c, img in zip(x, images)) % q for i in range(d))
                   for x in current]
        if current == identity:
            return k
    return None


def frobenius_rings():
    """(q, low, order) for every F_q[x]/(f) with q in {2, 3} and f of degree
    2 or 3 on which the Frobenius has order 2 or 3: fields such as F_4 and
    F_27, and products such as F_2 x F_4."""
    out = []
    for q in (2, 3):
        for d in (2, 3):
            for low in product(range(q), repeat=d):
                order = frobenius_order(q, polynomial_ring(q, low)[2], 3)
                if order in (2, 3):
                    out.append((q, low, order))
    return out


@st.composite
def finite_commutative_greens(draw):
    """Constant functors on Z/n, concentrated fields, and fixed-point functors
    of F_q[x]/(f) (reducible or not) under the identity or, where it has
    order p, the Frobenius."""
    kind = draw(st.sampled_from(["constant", "field_top", "identity", "frobenius"]))
    p = draw(st.sampled_from([2, 3]))
    if kind == "constant":
        return constant_green(p, draw(st.integers(2, 12)))
    if kind == "field_top":
        return field_top_green(p, draw(st.sampled_from([2, 3, 5, 7])))
    if kind == "identity":
        q = draw(st.sampled_from([2, 3]))
        d = draw(st.integers(1, 4 if q == 2 else 3))
        low = tuple(draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d)))
        pres, mult, _ = polynomial_ring(q, low)
        action = IntMatrix.identity(d)
    else:
        q, low, p = draw(st.sampled_from(frobenius_rings()))
        d = len(low)
        pres, mult, frob = polynomial_ring(q, low)
        action = IntMatrix.from_columns(frob, d)
    one = (1,) + (0,) * (d - 1)
    return fixed_point_green(p, pres, AbHom(pres, pres, action), mult, one)


@settings(max_examples=60, deadline=None)
@given(finite_commutative_greens())
def test_field_verdict_matches_subfunctor_walk(g):
    assert_field_verdict_matches_walk(g)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", range(2, 13))
def test_constant_field_verdicts_match_subfunctor_walk(p, n):
    assert_field_verdict_matches_walk(constant_green(p, n))


def test_field_check_guards():
    with pytest.raises(ZeroFunctor):
        is_mackey_field(green_from_mult(zero_mackey(2), (), IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0)))
    with pytest.raises(InfiniteGroup):
        is_mackey_field(burnside_green(2))


def test_classify_concentrated():
    shape = classify_field_shape(field_top_green(2, 2))
    assert shape.kind == "concentrated"
    assert shape.characteristic == 2


def test_classify_constant_f3():
    shape = classify_field_shape(constant_green(2, 3))
    assert shape.kind == "fixed_point"
    assert shape.characteristic == 3
    # trivial action, transfer nonzero
    assert shape.action.equals(
        AbHom(shape.ring_presentation, shape.ring_presentation, IntMatrix([[1]]))
    )
    assert not shape.field.underlying.tr.is_zero()


def burnside_mod2_green():
    """The Burnside Green functor mod 2: top (Z/2)^2 on the fixed and free
    orbit classes, bottom Z/2, res(y, z) = y + 2z = y.  Restriction kills
    the free orbit class."""
    top, bottom = FGAbPresentation(2, IntMatrix([[2, 0], [0, 2]])), cyclic_group(2)
    m = MackeyFunctor(
        2, top, bottom,
        AbHom(bottom, top, IntMatrix([[0], [1]])),
        AbHom(top, bottom, IntMatrix([[1, 2]])),
        identity_hom(bottom),
    )
    cols = {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (0, 2)}
    top_mult = IntMatrix.from_columns([cols[(i, j)] for i in range(2) for j in range(2)], 2)
    return green_from_mult(m, (1, 0), top_mult, IntMatrix([[1]]))


def diagonal_f2_green():
    """F_2 at the top restricting diagonally into F_2 x F_2 below, with the
    trivial action and zero transfer: restriction is injective, but its
    image {0, (1, 1)} is not the fixed subgroup, which is everything."""
    top, bottom = cyclic_group(2), FGAbPresentation(2, IntMatrix([[2, 0], [0, 2]]))
    m = MackeyFunctor(
        2, top, bottom,
        AbHom(bottom, top, IntMatrix([[0, 0]])),
        AbHom(top, bottom, IntMatrix([[1], [1]])),
        identity_hom(bottom),
    )
    cols = {(0, 0): (1, 0), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (0, 1)}
    bot_mult = IntMatrix.from_columns([cols[(i, j)] for i in range(2) for j in range(2)], 2)
    return green_from_mult(m, (1,), IntMatrix([[1]]), bot_mult)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: field_top_green(2, 4), "bottom level vanishes but the top is not a field"),
        (burnside_mod2_green, "restriction is not injective"),
        (diagonal_f2_green, "restriction image differs from the fixed subgroup"),
        (lambda: constant_green(2, 2), "fixed-point shape requires a nonzero transfer"),
        (lambda: constant_green(2, 4), "fixed subring is not a field"),
    ],
    ids=["concentrated-Z4", "burnside-mod-2", "diagonal-F2", "constant-F2", "constant-Z4"],
)
def test_classify_rejects_each_shape_failure(make, message):
    g = make()
    assert validate_green(g).passed
    with pytest.raises(UnclassifiableShape, match=message):
        classify_field_shape(g)


def test_classify_requires_finite_levels():
    # restriction Z^2 -> Z is not injective either, but the levels are
    # checked first
    with pytest.raises(InfiniteGroup):
        classify_field_shape(burnside_green(2))


def test_classify_f4_frobenius():
    g = f4_frobenius_green()
    shape = classify_field_shape(g)
    assert shape.kind == "fixed_point"
    assert shape.ring_presentation.canonical() == (0, (2, 2))
    # the action is the Frobenius, not the identity
    assert not shape.action.equals(
        AbHom(shape.ring_presentation, shape.ring_presentation, IntMatrix.identity(2))
    )


def test_every_corpus_field_has_field_top_level():
    corpus = [
        constant_green(2, 3),
        constant_green(3, 2),
        field_top_green(2, 2),
        field_top_green(3, 3),
        f4_frobenius_green(),
    ]
    for g in corpus:
        assert is_mackey_field(g).is_field
        assert top_level_is_field(g)


def test_fixed_point_fields_have_nonzero_transfer():
    for g in [constant_green(2, 3), constant_green(3, 2), f4_frobenius_green()]:
        shape = classify_field_shape(g)
        if shape.kind == "fixed_point":
            assert not g.underlying.tr.is_zero()


def test_top_level_field_negatives():
    assert not top_level_is_field(constant_green(2, 4))  # 2 is a zero divisor
    z = green_from_mult(zero_mackey(2), (), IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0))
    assert not top_level_is_field(z)


def concentrated_f2_squared(products, one):
    """(Z/2)^2 at the top and zero below, with e_i * e_j = ``products[i][j]``."""
    m = j_top(2, FGAbPresentation(2, IntMatrix.identity(2).scale(2)))
    mult = IntMatrix.from_columns([products[i][j] for i in range(2) for j in range(2)], 2)
    return green_from_mult(m, one, mult, IntMatrix.zeros(0, 0))


TOP_LEVEL_CORPUS = {
    "constant-Z4": lambda: constant_green(2, 4),
    "constant-Z9": lambda: constant_green(3, 9),
    # componentwise, with the idempotents e_0, e_1 as generators
    "F2xF2": lambda: concentrated_f2_squared((((1, 0), (0, 0)), ((0, 0), (0, 1))), (1, 1)),
    # the generators 1 and x, with x^2 = 0
    "F2[x]/x^2": lambda: concentrated_f2_squared((((1, 0), (0, 1)), ((0, 1), (0, 0))), (1, 0)),
    "zero": lambda: green_from_mult(
        zero_mackey(2), (), IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0)
    ),
    "field-top-F2": lambda: field_top_green(2, 2),
    "field-top-F3": lambda: field_top_green(3, 3),
    "F4": f4_frobenius_green,
    "F16": lambda: gf2_galois_green(4, 0b10011, 2),
    "F64": lambda: gf2_galois_green(6, 0b1000011, 3),
}


def frobenius_fixed_point_green(q, low, order):
    """The fixed-point Green functor of F_q[x]/(f) under the Frobenius of
    ``order``, f with lower coefficients ``low`` (``frobenius_rings``)."""
    pres, mult, frob = polynomial_ring(q, low)
    d = len(low)
    action = AbHom(pres, pres, IntMatrix.from_columns(frob, d))
    return fixed_point_green(order, pres, action, mult, (1,) + (0,) * (d - 1))


# fixed subrings of F_q[x]/(f) under the Frobenius: fields and products
TOP_LEVEL_CORPUS.update(
    (f"F{q}[x]/f{''.join(map(str, low))}", partial(frobenius_fixed_point_green, q, low, order))
    for q, low, order in frobenius_rings()
)


def top_field_by_pairwise_products(g):
    """Oracle for ``top_level_is_field``: 1 != 0, every nonzero a has some b
    with a * b = 1, and no two nonzero elements multiply to zero, each
    product computed in generator coordinates."""
    m = g.underlying
    tm, mult, n = finite_model(m.top), g.mult.f_top.matrix, m.top.num_generators
    one, zero = tm.to_canonical(g.one_top()), tm.zero()
    if one == zero:
        return False

    def mul(a, b):
        x, y = tm.from_canonical(a), tm.from_canonical(b)
        return tm.to_canonical(tuple(
            sum(row[i * n + j] * xi * yj for i, xi in enumerate(x) for j, yj in enumerate(y))
            for row in mult.rows
        ))

    for a in tm.elements:
        if a == zero:
            continue
        if not any(mul(a, b) == one for b in tm.elements):
            return False
        if any(b != zero and mul(a, b) == zero for b in tm.elements):
            return False
    return True


@pytest.mark.parametrize("make", list(TOP_LEVEL_CORPUS.values()), ids=list(TOP_LEVEL_CORPUS))
def test_top_level_is_field_matches_pairwise_products(make):
    g = make()
    assert top_level_is_field(g) == top_field_by_pairwise_products(g)


@pytest.mark.parametrize(
    "make",
    [make for name, make in TOP_LEVEL_CORPUS.items() if name != "zero"]
    + [lambda: gf2_galois_green(8, 0b100011101, 4)],
    ids=[name for name in TOP_LEVEL_CORPUS if name != "zero"] + ["F256"],
)
def test_single_degree_window_verdict_is_the_field_verdict(make):
    # F_256/C_2 took seconds when the window check walked the subfunctor
    # lattice to find that no ideal exists
    g = make()
    cert = graded_field_window_check(single_degree_tower(g), BoxWindow(g.prime, 0, 0))
    assert (cert.verdict == "no_graded_ideal_in_window") == is_mackey_field(g).is_field


# ---------------------------------------------------------------------------
# modules


def test_self_module_validates():
    for g in [burnside_green(2), constant_green(2, 3), field_top_green(2, 2)]:
        self_module(g).validate()


def test_twisted_module_t0_is_base():
    g = f4_frobenius_green()
    mod = self_module(g)
    t0 = TwistedModule(mod, 0)
    assert t0.action_pairing().f_bot.equals(mod.action.f_bot)
    tp = TwistedModule(mod, g.prime)
    assert tp.action_pairing().f_bot.equals(mod.action.f_bot)


def test_twisted_module_nontrivial_twist_differs():
    g = f4_frobenius_green()
    mod = self_module(g)
    t1 = TwistedModule(mod, 1)
    assert not t1.action_pairing().f_bot.equals(mod.action.f_bot)
    t1.as_module().validate()


def test_relative_box_over_self():
    g = constant_green(2, 3)
    mod = self_module(g)
    bp, _ = relative_box(mod, mod)
    assert canonical_levels(bp.result) == canonical_levels(g.underlying)


def test_relative_box_mismatched_rings():
    g1 = constant_green(2, 3)
    g2 = constant_green(2, 2)
    with pytest.raises(NotAModule):
        relative_box(self_module(g1), self_module(g2))


# ---------------------------------------------------------------------------
# the Green and module laws against their box-product formulation


def box_product_failures(g):
    """Oracle for the failure names of ``validate_green``: the laws stated as
    equalities of Mackey maps out of box(M, M), box(M, M, M),
    box(Burnside, M) and box(M, Burnside), built on generator labels."""
    failures = []
    if g.mult.check():
        failures.append("pairing_compatible")
    if not validate_mackey(g.underlying).passed:
        failures.append("underlying_axioms")
    if failures:
        return failures
    m = g.underlying
    bp2 = box(m, m)
    mult_map = map_from_pairing(g.mult, bp2)
    bp3 = box_many([m, m, m])
    left = mult_map.compose(contract_pair(bp3, 0, g.mult, bp2))
    right = mult_map.compose(contract_pair(bp3, 1, g.mult, bp2))
    if not left.equals(right):
        failures.append("associativity")
    bp_am = box(burnside(g.prime), m)
    via_unit = mult_map.compose(box_map(bp_am, bp2, [g.unit, identity_map(m)]))
    if not via_unit.equals(unitor(m, bp_am)):
        failures.append("unitality")
    # x 1 = x: through box(M, Burnside), swapped onto the unitor
    bp_ma = box(m, burnside(g.prime))
    via_right_unit = mult_map.compose(box_map(bp_ma, bp2, [identity_map(m), g.unit]))
    if not via_right_unit.equals(unitor(m, bp_am).compose(swap_map(bp_ma, bp_am))):
        failures.append("right_unitality")
    if not mult_map.compose(swap_map(bp2, bp2)).equals(mult_map):
        failures.append("commutativity")
    return failures


def box_product_is_commutative(g):
    bp = box(g.underlying, g.underlying)
    mm = map_from_pairing(g.mult, bp)
    return mm.compose(swap_map(bp, bp)).equals(mm)


def box_product_module_error(module):
    """Oracle for ``GreenModule.validate``: None when the box-product
    formulation accepts the module, else the start of its NotAModule
    message."""
    if module.action.check():
        return "action pairing violates conditions"
    r, m = module.ring.underlying, module.carrier
    bp_rm = box(r, m)
    act = map_from_pairing(module.action, bp_rm)
    bp_am = box(burnside(r.prime), m)
    via_unit = act.compose(box_map(bp_am, bp_rm, [module.ring.unit, identity_map(m)]))
    if not via_unit.equals(unitor(m, bp_am)):
        return "unit does not act as the identity"
    bp_rrm = box_many([r, r, m])
    one = act.compose(contract_pair(bp_rrm, 0, module.ring.mult, bp_rm))
    two = act.compose(contract_pair(bp_rrm, 1, module.action, bp_rm))
    if not one.equals(two):
        return "action is not associative over the ring"
    return None


def nonassociative_f2_green(one=(1, 0, 0)):
    """The F_2 algebra on 1, x, y with xy = 1 and every other product of x
    and y zero, under the trivial C_2 action: unital for one = 1, neither
    associative ((xy)x = x but x(yx) = 0) nor commutative."""
    v = FGAbPresentation(3, IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    products = {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 2): (0, 0, 1),
                (1, 0): (0, 1, 0), (2, 0): (0, 0, 1), (1, 2): (1, 0, 0)}
    cols = [products.get((i, j), (0, 0, 0)) for i in range(3) for j in range(3)]
    return fixed_point_green(2, v, identity_hom(v), IntMatrix.from_columns(cols, 3), one)


def bottom_only_f2_green():
    """F_2 x F_2 under the swap action with e1 e2 = e1, e2 e1 = e2 and
    e1^2 = e2^2 = 0.  The fixed subring {0, e1 + e2} is F_2, so the top
    level obeys every law, but the bottom level is neither associative nor
    unital ((e1 + e2) e1 = e2) nor commutative."""
    v = FGAbPresentation(2, IntMatrix([[2, 0], [0, 2]]))
    swap = AbHom(v, v, IntMatrix([[0, 1], [1, 0]]))
    mult = IntMatrix.from_columns([(0, 0), (1, 0), (0, 1), (0, 0)], 2)
    return fixed_point_green(2, v, swap, mult, (1, 1))


def left_unit_only_f2_green():
    """F_2 <e, x> with e e = e, e x = x and x e = x x = 0 under the trivial
    C_2 action: associative, and e is a left unit but not a right one."""
    v = FGAbPresentation(2, IntMatrix([[2, 0], [0, 2]]))
    mult = IntMatrix.from_columns([(1, 0), (0, 1), (0, 0), (0, 0)], 2)
    return fixed_point_green(2, v, identity_hom(v), mult, (1, 0))


ORACLE_CASES = {
    "burnside-2": burnside_green(2),
    "burnside-3": burnside_green(3),
    "constant-2-0": constant_green(2, 0),
    "constant-2-4": constant_green(2, 4),
    "constant-3-9": constant_green(3, 9),
    "field-top-2-2": field_top_green(2, 2),
    "f4": f4_frobenius_green(),
    "upper-triangular": upper_triangular_f2_green(),
    "nonassociative": nonassociative_f2_green(),
    "nonassociative-bad-one": nonassociative_f2_green(one=(0, 1, 0)),
    "bottom-only": bottom_only_f2_green(),
    "left-unit-only": left_unit_only_f2_green(),
}


@pytest.mark.parametrize("g", list(ORACLE_CASES.values()), ids=list(ORACLE_CASES))
def test_green_laws_match_box_product_oracle(g):
    assert [c.name for c in validate_green(g).failures()] == box_product_failures(g)
    assert g.is_commutative() == box_product_is_commutative(g)
    expected = box_product_module_error(self_module(g))
    if expected is None:
        self_module(g).validate()
    else:
        with pytest.raises(NotAModule, match="^" + expected):
            self_module(g).validate()


def test_modules_match_box_product_oracle():
    f4 = f4_frobenius_green()
    modules = [TwistedModule(self_module(f4), 1).as_module()]
    # the Burnside ring acting on functors other than itself
    a = burnside_green(2)
    for m in (constant(2, 4), f4.underlying):
        modules.append(GreenModule(a, m, burnside_action_pairing(m)))
    for module in modules:
        assert box_product_module_error(module) is None
        module.validate()


def test_nonassociative_algebra_failures():
    names = [c.name for c in validate_green(nonassociative_f2_green()).failures()]
    assert names == ["associativity", "commutativity"]
    bad_one = validate_green(nonassociative_f2_green(one=(0, 1, 0)))
    assert [c.name for c in bad_one.failures()] == [
        "associativity", "unitality", "right_unitality", "commutativity"
    ]
    witness = bad_one.failures()[0].witness
    assert witness.startswith(("top generator", "bottom generator")) and "maps to" in witness


def test_bottom_level_failures_are_found():
    failures = validate_green(bottom_only_f2_green()).failures()
    assert [c.name for c in failures] == ["associativity", "unitality", "commutativity"]
    assert all(c.witness.startswith("bottom") for c in failures)


def test_is_commutative_rejects_incompatible_pairing():
    # res(1 * 1) = 1 at the top, but res(1) * res(1) = 2 at the bottom
    g = green_from_mult(constant(2, 3), (1,), IntMatrix([[1]]), IntMatrix([[2]]))
    with pytest.raises(IncompatiblePairing):
        g.is_commutative()


def test_green_checks_build_no_box_product(monkeypatch):
    calls = []
    original = boxtensor.box_many

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (boxtensor, green, grading, simplicial):
        if getattr(module, "box_many", None) is original:
            monkeypatch.setattr(module, "box_many", counted)
    for g in (constant_green(2, 2), f4_frobenius_green(), upper_triangular_f2_green()):
        validate_green(g)
    assert is_mackey_field(f4_frobenius_green()).is_field
    assert not is_mackey_field(constant_green(2, 2)).is_field
    assert calls == []


# ---------------------------------------------------------------------------
# verdicts kept on the checked object


def _law_one_broken_pairing():
    # res(1 * 1) = 1 at the top, but res(1) * res(1) = 2 at the bottom
    return green_from_mult(constant(2, 3), (1,), IntMatrix([[1]]), IntMatrix([[2]])).mult


def _transfer_broken_functor():
    g = free_group(1)
    return MackeyFunctor(2, g, g, AbHom(g, g, IntMatrix([[3]])), identity_hom(g), identity_hom(g))


def test_kept_verdicts_take_no_matrix_products(monkeypatch):
    good = f4_frobenius_green()
    bad, broken = _law_one_broken_pairing(), _transfer_broken_functor()
    good.mult.validate()
    laws = bad.check()
    reports = [validate_mackey(m) for m in (good.underlying, broken)]

    def refuse(self, other):
        raise AssertionError("a kept verdict was decided again")

    monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
    assert good.mult.check() == []
    good.mult.validate()
    assert bad.check() == laws
    with pytest.raises(IncompatiblePairing):
        bad.validate()
    assert [validate_mackey(m) for m in (good.underlying, broken)] == reports
    assert reports[0].passed and not reports[1].passed


def test_invalid_pairing_raises_on_every_call():
    pairing = _law_one_broken_pairing()
    raised = []
    for _ in range(2):
        with pytest.raises(IncompatiblePairing) as err:
            pairing.validate()
        raised.append((err.value.condition, str(err.value), pairing.check()))
    assert raised[0] == raised[1]
    assert raised[0][0] == 1
    laws = pairing.check()
    laws.clear()
    assert pairing.check() == raised[0][2] != []


def test_kept_verdicts_leave_equality_hash_and_json_alone():
    checked, fresh = f4_frobenius_green(), f4_frobenius_green()
    before = json.dumps(checked.to_json())
    assert validate_green(checked).passed
    assert "_violations" in vars(checked.mult) and "_axioms" in vars(checked.underlying)
    assert "_violations" not in vars(fresh.mult) and "_axioms" not in vars(fresh.underlying)
    assert checked.mult == fresh.mult and hash(checked.mult) == hash(fresh.mult)
    assert checked.underlying == fresh.underlying
    assert hash(checked.underlying) == hash(fresh.underlying)
    assert json.dumps(checked.to_json()) == before == json.dumps(fresh.to_json())


def test_replaced_pairing_is_decided_again():
    valid = constant_green(2, 3).mult
    valid.validate()
    f_bot = valid.f_bot
    broken = dataclasses.replace(valid, f_bot=AbHom(f_bot.source, f_bot.target, IntMatrix([[2]])))
    assert "_violations" not in vars(broken)
    with pytest.raises(IncompatiblePairing):
        broken.validate()
    assert valid.check() == [] != broken.check()


def test_circle_tensor_decides_the_pairing_laws_once(monkeypatch):
    calls = []
    original = boxtensor.first_nonzero_column

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(boxtensor, "first_nonzero_column", counted)
    # the t(t + 2) = 15 faces and degeneracies at t = 3 all contract through
    # the pairing that self_module(green).validate() decided first: one pass
    # over the four laws, where each contraction used to make its own
    simplicial.tensor_green_with_circle(f4_frobenius_green(), simplicial.p_circle(2, 3), 3)
    assert len(calls) == 4
