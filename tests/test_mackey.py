import functools
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mackeybox.errors import (
    IllFormedHom,
    InfiniteGroup,
    LevelMismatch,
    MackeyboxError,
    NotAMackeyMap,
    NotAnAction,
    NotPrime,
    PrimeMismatch,
)
from mackeybox.exactlin import (
    AbHom,
    FGAbPresentation,
    cyclic_group,
    enumerate_subgroups,
    finite_model,
    free_group,
    hom_cokernel,
    hom_kernel,
    identity_hom,
    subgroup_key,
    zero_group,
    zero_hom,
)
from mackeybox import mackey
from mackeybox.intlinalg import IntMatrix
from mackeybox.mackey import (
    MackeyChainComplex,
    MackeyFunctor,
    MackeyMap,
    burnside,
    canonical_levels,
    constant,
    enumerate_subfunctors,
    homology_of_complex,
    identity_map,
    j_bottom,
    j_top,
    mackey_direct_sum,
    validate_mackey,
    zero_mackey,
    zero_map,
)

F4 = FGAbPresentation(2, IntMatrix([[2, 0], [0, 2]]))
FROBENIUS = AbHom(F4, F4, IntMatrix([[1, 1], [0, 1]]))  # 1 -> 1, w -> w + 1


def test_burnside_validates():
    for p in (2, 3, 5):
        assert validate_mackey(burnside(p)).passed


def test_burnside_res_matrix():
    assert burnside(2).res.matrix == IntMatrix([[1, 2]])
    b3 = burnside(3)
    # res(y, z) = y + 3 z
    assert b3.res((1, 0)) == (1,)
    assert b3.res((0, 1)) == (3,)


def test_burnside_res_tr_by_hand():
    # res(tr(x)) = res(0, x) = 3x equals the orbit sum of three trivial actions
    b = burnside(3)
    assert b.res.compose(b.tr).matrix == IntMatrix([[3]])


def test_constant_validates():
    for p in (2, 3):
        for n in (0, 2, 3, 4, 5):
            m = constant(p, n)
            assert validate_mackey(m).passed


def test_constant_f2_transfer_vanishes():
    m = constant(2, 2)
    assert m.tr.is_zero()
    assert m.res.equals(identity_hom(m.top))


def test_constant_f3_transfer_is_two():
    m = constant(2, 3)
    assert not m.tr.is_zero()
    assert m.tr.matrix == IntMatrix([[2]])


def test_corrupted_transfer_fails_with_witness():
    p = 2
    g = free_group(1)
    bad = MackeyFunctor(
        p,
        g,
        g,
        AbHom(g, g, IntMatrix([[p + 1]])),
        identity_hom(g),
        identity_hom(g),
    )
    report = validate_mackey(bad)
    assert not report.passed
    names = [c.name for c in report.failures()]
    assert "res_tr_is_orbit_sum" in names
    assert any(c.witness for c in report.failures())


def test_incompatible_map_raises_typed_error_with_witness():
    # C_3 acting on Z^2 = Z[w] by w, with top 0: 1 + w + w^2 = 0, so res tr
    # is the orbit sum.  The transfer and restriction squares live on the
    # zero group; only the action square can fail.
    v = free_group(2)
    z = zero_group()
    omega = AbHom(v, v, IntMatrix([[0, -1], [1, -1]]))
    m = MackeyFunctor(3, z, v, zero_hom(v, z), zero_hom(z, v), omega)
    assert validate_mackey(m).passed
    MackeyMap(m, m, identity_hom(z), omega)  # the action commutes with itself
    corrupted = AbHom(v, v, IntMatrix([[1, 0], [0, 0]]))  # identity, entry (1, 1) zeroed
    with pytest.raises(NotAMackeyMap) as err:
        MackeyMap(m, m, identity_hom(z), corrupted)
    # w @ f_bot - f_bot @ w has column 0 equal to (0, 1)
    assert [c.name for c in err.value.failures] == ["action not respected"]
    assert str(err.value) == (
        "not a map of Mackey functors: action not respected (generator 0 maps to [0, 1])"
    )
    assert isinstance(err.value, MackeyboxError) and isinstance(err.value, ValueError)


def test_structure_map_between_wrong_levels_raises_typed_error():
    # typed errors, not asserts: these hold under python -O as well
    c = constant(2, 2)
    with pytest.raises(LevelMismatch, match="tr must run from the bottom to the top level"):
        MackeyFunctor(2, c.top, cyclic_group(4), c.tr, c.res, c.weyl)
    with pytest.raises(LevelMismatch, match="res must run from the top to the bottom level"):
        MackeyFunctor(2, c.top, c.bottom, c.tr, identity_hom(cyclic_group(4)), c.weyl)
    with pytest.raises(LevelMismatch, match="weyl must run from the bottom to the bottom level"):
        MackeyFunctor(2, c.top, c.bottom, c.tr, c.res, identity_hom(cyclic_group(4)))
    with pytest.raises(LevelMismatch) as err:
        MackeyMap(c, constant(2, 4), identity_hom(c.top), identity_hom(c.bottom))
    assert isinstance(err.value, MackeyboxError) and isinstance(err.value, ValueError)


def test_mixed_primes_raise_prime_mismatch():
    c2, c3 = constant(2, 2), constant(3, 2)
    with pytest.raises(PrimeMismatch, match="C_2 and C_3"):
        MackeyMap(c2, c3, identity_hom(c2.top), identity_hom(c2.bottom))
    with pytest.raises(PrimeMismatch, match="C_3 and C_2"):
        mackey_direct_sum(c3, c2)


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        burnside(4)
    with pytest.raises(NotPrime):
        constant(1, 2)


def test_j_bottom_sign_action_on_Z():
    # kernel of (gamma - id) = kernel of multiplication by -2 on Z, which is 0
    sign = AbHom(free_group(1), free_group(1), IntMatrix([[-1]]))
    m = j_bottom(2, free_group(1), sign)
    assert m.top.is_zero_group()
    assert canonical_levels(m)[1] == (1, ())
    assert validate_mackey(m).passed


def frobenius_trace_oracle():
    # enumerate F4 = {0, 1, w, w+1}: x + x^2 lands in the prime field;
    # trace(0) = trace(1) = 0, trace(w) = trace(w+1) = 1
    out = {}
    for a, b in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        fx = ((a + b) % 2, b)  # Frobenius: 1 -> 1, w -> w + 1
        out[(a, b)] = ((a + fx[0]) % 2, (b + fx[1]) % 2)
    return out


def test_j_bottom_f4_frobenius():
    trace = frobenius_trace_oracle()
    assert trace[(0, 1)] == (1, 0) and trace[(1, 1)] == (1, 0)
    m = j_bottom(2, F4, FROBENIUS)
    assert canonical_levels(m) == ((0, (2,)), (0, (2, 2)))
    assert validate_mackey(m).passed
    # transfer is the trace: nonzero exactly on the non-prime-field generator
    assert not m.tr.is_zero()
    assert m.tr.matrix.ncols == 2


def test_j_bottom_trivial_action_matches_constant_shape():
    from mackeybox.exactlin import hom_cokernel, hom_kernel

    g = cyclic_group(3)
    m = j_bottom(2, g, identity_hom(g))
    assert canonical_levels(m) == ((0, (3,)), (0, (3,)))
    # res is an isomorphism onto the whole bottom (trivial action fixes everything)
    k, _ = hom_kernel(m.res)
    c, _ = hom_cokernel(m.res)
    assert k.is_zero_group() and c.is_zero_group()


def test_j_bottom_trivial_action_res_tr_is_p():
    g = cyclic_group(5)
    for p in (2, 3):
        m = j_bottom(p, g, identity_hom(g))
        comp = m.res.compose(m.tr)
        expected = identity_hom(m.bottom).scale(p)
        assert comp.equals(expected)


def test_j_bottom_rejects_non_action():
    g = free_group(1)
    with pytest.raises(NotAnAction):
        j_bottom(2, g, AbHom(g, g, IntMatrix([[2]])))


def test_j_top_concentrated_field():
    m = j_top(2, cyclic_group(2))
    assert canonical_levels(m) == ((0, (2,)), (0, ()))
    assert validate_mackey(m).passed


def test_j_top_zero():
    m = j_top(3, FGAbPresentation(0, IntMatrix.zeros(0, 0)))
    assert m.is_zero()
    assert validate_mackey(m).passed


def test_j_top_always_validates():
    for p in (2, 3, 5):
        assert validate_mackey(j_top(p, cyclic_group(4))).passed


# ---------------------------------------------------------------------------
# subfunctors


def test_subfunctors_constant_f2():
    subs = enumerate_subfunctors(constant(2, 2))
    shapes = sorted(
        (len(s.top_elements), len(s.bottom_elements)) for s in subs
    )
    # hand enumeration: (0,0), (0, Z/2), (Z/2, Z/2); (Z/2, 0) fails res
    assert shapes == [(1, 1), (1, 2), (2, 2)]
    nontrivial = [s for s in subs if not s.is_zero() and not s.is_full()]
    assert len(nontrivial) == 1
    w = nontrivial[0]
    assert canonical_levels(w.functor) == ((0, ()), (0, (2,)))


def test_subfunctors_zero_functor():
    subs = enumerate_subfunctors(zero_mackey(2))
    assert len(subs) == 1


def test_subfunctors_concentrated_field():
    # hand enumeration over subgroup pairs: only 0 and the whole functor
    subs = enumerate_subfunctors(j_top(2, cyclic_group(2)))
    assert len(subs) == 2


def test_subfunctors_closed_under_intersection():
    m = j_bottom(2, F4, FROBENIUS)
    subs = enumerate_subfunctors(m)
    keys = {(s.top_elements, s.bottom_elements) for s in subs}
    for s1 in subs:
        for s2 in subs:
            inter = (
                s1.top_elements & s2.top_elements,
                s1.bottom_elements & s2.bottom_elements,
            )
            assert inter in keys


ORDERED_FUNCTORS = pytest.mark.parametrize(
    "m",
    [
        constant(2, 4),
        constant(3, 9),
        j_bottom(2, F4, FROBENIUS),
        # top and bottom keys of its subfunctors rise in different orders
        mackey_direct_sum(constant(2, 2), constant(2, 2))[0],
    ],
    ids=["constant-2-4", "constant-3-9", "j_bottom-F4", "constant-2-2-squared"],
)


@ORDERED_FUNCTORS
def test_subfunctors_in_strict_key_order(m):
    tm, bm = finite_model(m.top), finite_model(m.bottom)
    keys = [
        (subgroup_key(tm, s.top_elements), subgroup_key(bm, s.bottom_elements))
        for s in enumerate_subfunctors(m)
    ]
    assert len(keys) > 2
    assert all(a < b for a, b in zip(keys, keys[1:]))


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


def brute_force_subfunctors(m):
    """Oracle: every pair of subgroups in (top key, bottom key) order, kept
    when restriction, transfer and the action send it into itself."""
    tm, bm = finite_model(m.top), finite_model(m.bottom)
    stable = [
        b for b in enumerate_subgroups(bm) if first_escape(m.weyl.matrix, bm, b, bm, b) is None
    ]
    return [
        (t, b)
        for t in enumerate_subgroups(tm)
        for b in stable
        if first_escape(m.res.matrix, tm, t, bm, b) is None
        and first_escape(m.tr.matrix, bm, b, tm, t) is None
    ]


def subfunctor_pairs(m):
    return [(s.top_elements, s.bottom_elements) for s in enumerate_subfunctors(m)]


@ORDERED_FUNCTORS
def test_subfunctors_match_brute_force(m):
    assert subfunctor_pairs(m) == brute_force_subfunctors(m)


MIXED_GROUPS = {
    "Z/4 x Z/2": FGAbPresentation(2, IntMatrix([[4, 0], [0, 2]])),
    "Z/9": cyclic_group(9),
    "Z/3 x Z/3": FGAbPresentation(2, IntMatrix([[3, 0], [0, 3]])),
}


@functools.cache
def actions_of_order_dividing(name, p):
    """Every endomorphism of ``MIXED_GROUPS[name]`` whose p-th power is the
    identity, as matrices with entries below the largest invariant factor."""
    v = MIXED_GROUPS[name]
    n = v.num_generators
    bound = max(v.invariant_factors)
    found = []
    for entries in product(range(bound), repeat=n * n):
        try:
            gamma = AbHom(v, v, IntMatrix([entries[i * n : (i + 1) * n] for i in range(n)]))
        except IllFormedHom:
            continue
        if gamma.power(p).equals(identity_hom(v)):
            found.append(gamma)
    return found


@st.composite
def fixed_point_functors(draw, p):
    name = draw(st.sampled_from(sorted(MIXED_GROUPS)))
    gamma = draw(st.sampled_from(actions_of_order_dividing(name, p)))
    return j_bottom(p, MIXED_GROUPS[name], gamma)


@st.composite
def drawn_functors(draw):
    """j_bottom(p, v, gamma) on a mixed-moduli v, or the sum of two.  The
    oracle walks every pair of subgroups, so the sum of two Z/4 x Z/2
    (hundreds of subgroups a level) is the one explicit example below."""
    p = draw(st.sampled_from((2, 3)))
    m = draw(fixed_point_functors(p))
    if draw(st.booleans()):
        other = draw(fixed_point_functors(p))
        assume(m.bottom.order() * other.bottom.order() != 64)
        m = mackey_direct_sum(m, other)[0]
    return m


def shear_sum():
    """(Z/4 x Z/2) + (Z/4 x Z/2), C_2 acting on one summand by (a, b) ->
    (a + 2b, b) and trivially on the other."""
    v = MIXED_GROUPS["Z/4 x Z/2"]
    shear = AbHom(v, v, IntMatrix([[1, 2], [0, 1]]))
    return mackey_direct_sum(j_bottom(2, v, shear), j_bottom(2, v, identity_hom(v)))[0]


@settings(max_examples=30, deadline=None)
@given(drawn_functors())
@example(shear_sum())
def test_subfunctors_match_brute_force_on_drawn_actions(m):
    assert subfunctor_pairs(m) == brute_force_subfunctors(m)


def test_subfunctors_stable_under_action():
    # cyclic shift of (Z/2)^3 over C_3: the line spanned by e1 + e2 is closed
    # under res and tr (T = 0, tr(e1 + e2) = 0) but not under the action
    v = FGAbPresentation(3, IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    shift = AbHom(v, v, IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    subs = enumerate_subfunctors(j_bottom(3, v, shift))
    # hand count: (0, 0), (0, sum-zero plane), (fixed, span(e1+e2+e3)), (fixed, all)
    assert sorted((len(s.top_elements), len(s.bottom_elements)) for s in subs) == [
        (1, 1),
        (1, 4),
        (2, 2),
        (2, 8),
    ]


def test_subfunctors_built_lazily(monkeypatch):
    calls = []
    build = mackey.subgroup_presentation

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(mackey, "subgroup_presentation", counted)
    subs = enumerate_subfunctors(j_bottom(2, F4, FROBENIUS))
    assert len(subs) > 2
    assert calls == []
    sub = subs[1]
    functor = sub.functor
    assert len(calls) == 2  # one presentation per level
    assert sub.include.source is functor
    assert sub.functor is functor
    assert len(calls) == 2


def test_subfunctors_require_finite():
    with pytest.raises(InfiniteGroup):
        enumerate_subfunctors(burnside(2))


# ---------------------------------------------------------------------------
# chain complexes


def two_term_identity_complex(m):
    return MackeyChainComplex(
        lower=0,
        upper=1,
        objects={0: m, 1: m},
        differentials={1: identity_map(m)},
    )


def test_homology_of_acyclic_complex():
    m = constant(2, 4)
    h = homology_of_complex(two_term_identity_complex(m))
    for n in (0, 1):
        assert canonical_levels(h[n]) == (((0, ()), (0, ())))


def test_homology_of_single_object():
    m = j_bottom(2, F4, FROBENIUS)
    c = MackeyChainComplex(lower=0, upper=0, objects={0: m}, differentials={})
    h = homology_of_complex(c)
    assert canonical_levels(h[0]) == canonical_levels(m)


def alternating_sum_oracle(p, m, length):
    # Moore complex of the constant simplicial object: differentials alternate
    # 0, id, 0, id...; homology is m at degree 0 and zero above.
    diffs = {}
    for n in range(1, length + 1):
        terms = [identity_map(m).scale((-1) ** i) for i in range(n + 1)]
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        diffs[n] = total
    return MackeyChainComplex(
        lower=0, upper=length, objects={n: m for n in range(length + 1)}, differentials=diffs
    )


def test_homology_constant_simplicial():
    m = constant(3, 3)
    c = alternating_sum_oracle(3, m, 3)
    h = homology_of_complex(c)
    assert canonical_levels(h[0]) == canonical_levels(m)
    for n in (1, 2):
        assert canonical_levels(h[n]) == ((0, ()), (0, ()))


def test_homology_shift_invariance():
    m = constant(2, 2)
    c = two_term_identity_complex(m)
    shifted = MackeyChainComplex(
        lower=1, upper=2, objects={1: m, 2: m}, differentials={2: identity_map(m)}
    )
    h1 = homology_of_complex(c)
    h2 = homology_of_complex(shifted)
    assert canonical_levels(h1[0]) == canonical_levels(h2[1])
    assert canonical_levels(h1[1]) == canonical_levels(h2[2])


def test_zero_map_construction():
    z = zero_map(burnside(2), constant(2, 2))
    assert z.is_zero()


def kernel_and_cokernel_rule(m):
    """The isomorphism test that computes kernels: each level map has zero
    kernel and zero cokernel."""
    return all(
        hom_kernel(f)[0].is_zero_group() and hom_cokernel(f)[0].is_zero_group()
        for f in (m.f_top, m.f_bot)
    )


@st.composite
def top_level_maps(draw):
    """MackeyMap(j_top(p, A), j_top(p, B), f, 0) for presentations A and B on
    at most three generators, free rank included.  In half the draws B is
    the image of A under a unimodular u and f is a multiple of u, so A and B
    have the same invariants and f is onto exactly when the multiple is a
    unit on A.  In the rest f is any matrix and B holds the images of A's
    relations and up to two more, so f may miss B or kill part of A."""
    entries = st.integers(-6, 6)
    n_a = draw(st.integers(0, 3))
    rel_a = draw(st.lists(st.lists(entries, min_size=n_a, max_size=n_a), max_size=3))
    if draw(st.booleans()):
        n_b, extra = n_a, []
        u = [[int(i == j) for j in range(n_a)] for i in range(n_a)]
        index = st.integers(0, max(n_a - 1, 0))
        for i, j, k in draw(st.lists(st.tuples(index, index, entries), max_size=4)):
            if i != j:  # add k times row j to row i
                u[i] = [x + k * y for x, y in zip(u[i], u[j])]
        k = draw(st.sampled_from([1, -1, 2, 3]))
        f = [[k * x for x in row] for row in u]
    else:
        n_b = draw(st.integers(0, 3))
        row = st.lists(st.integers(-3, 3), min_size=n_a, max_size=n_a)
        u = f = draw(st.lists(row, min_size=n_b, max_size=n_b))
        extra = draw(st.lists(st.lists(entries, min_size=n_b, max_size=n_b), max_size=2))
    images = [[sum(x * y for x, y in zip(ui, r)) for ui in u] for r in rel_a]
    a = FGAbPresentation(n_a, IntMatrix(rel_a, n_a))
    b = FGAbPresentation(n_b, IntMatrix(images + extra, n_b))
    zero = zero_hom(zero_group(), zero_group())
    p = draw(st.sampled_from([2, 3]))
    return MackeyMap(j_top(p, a), j_top(p, b), AbHom(a, b, IntMatrix(f, n_a)), zero)


@given(top_level_maps())
@example(MackeyMap(j_top(2, cyclic_group(5)), j_top(2, cyclic_group(5)),
                   AbHom(cyclic_group(5), cyclic_group(5), IntMatrix([[2]])),
                   zero_hom(zero_group(), zero_group())))  # onto, not unimodular
@example(MackeyMap(j_top(2, free_group(1)), j_top(2, free_group(1)),
                   AbHom(free_group(1), free_group(1), IntMatrix([[2]])),
                   zero_hom(zero_group(), zero_group())))  # injective, not onto
@settings(max_examples=200, deadline=None)
def test_is_isomorphism_matches_kernel_and_cokernel_rule(m):
    assert m.is_isomorphism() == kernel_and_cokernel_rule(m)
