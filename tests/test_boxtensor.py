import re

import pytest

from mackeybox.boxtensor import (
    box,
    box_many,
    box_map,
    box_power,
    burnside_action_pairing,
    collapse_single,
    contract_by_assignment,
    contract_pair,
    invert_iso,
    map_from_pairing,
    nested_to_flat,
    pairing_from_matrices,
    permute_twist,
    relative_box_raw,
    swap_map,
    unitor,
)
from mackeybox.errors import (
    FactorMismatch,
    IllFormedHom,
    IncompatiblePairing,
    NotAMackeyFunctor,
    NotAModule,
    NotAnIsomorphism,
    PrimeMismatch,
    SizeLimit,
)
from mackeybox.exactlin import (
    AbHom,
    FGAbPresentation,
    cyclic_group,
    identity_hom,
    zero_group,
    zero_hom,
)
from mackeybox.green import TwistedModule, f4_frobenius_green, relative_box, self_module
from mackeybox.intlinalg import IntMatrix
from mackeybox.mackey import (
    MackeyFunctor,
    burnside,
    canonical_levels,
    constant,
    identity_map,
    j_bottom,
    j_top,
    validate_mackey,
    zero_mackey,
    zero_map,
)

F4 = FGAbPresentation(2, IntMatrix([[2, 0], [0, 2]]))
FROBENIUS = AbHom(F4, F4, IntMatrix([[1, 1], [0, 1]]))
SWAP2 = AbHom(F4, F4, IntMatrix([[0, 1], [1, 0]]))


def constant_field_mult(p, q):
    m = constant(p, q)
    return pairing_from_matrices(m, m, m, IntMatrix([[1]]), IntMatrix([[1]]))


def test_box_f2_f2_is_f2_lewis_oracle():
    # brute-force Lewis formula with 1x1 matrices: generators P (pure) and
    # T (transfer class); relations 2P, 2T, coinvariance 0, and Frobenius
    # 2P - T twice, since tr = 0 in Z/2 makes a (x) tr(y) = 2(a (x) y).
    # By hand the top is <P, T | 2P, T - 2P> = Z/2 and T dies.
    bp = box(constant(2, 2), constant(2, 2))
    assert canonical_levels(bp.result) == ((0, (2,)), (0, (2,)))
    # the transfer class of the bottom generator vanishes: tr = 0
    assert bp.result.tr.is_zero()
    assert validate_mackey(bp.result).passed


def test_box_concentrated_fields():
    bp = box(j_top(2, cyclic_group(2)), j_top(2, cyclic_group(2)))
    assert canonical_levels(bp.result) == ((0, (2,)), (0, ()))
    bp2 = box(j_top(3, cyclic_group(3)), j_top(3, cyclic_group(9)))
    # F_3 (x) Z/9 = Z/3 at the top, bottom stays zero
    assert canonical_levels(bp2.result) == ((0, (3,)), (0, ()))


def test_box_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        box(constant(2, 2), constant(3, 3))


def test_box_size_limit():
    with pytest.raises(SizeLimit) as err:
        box_power(constant(2, 0), 3, limit=2)
    # one generator per level in each factor: 1 pure + 1 transfer class on
    # top and 1 on the bottom, and the message must report that tested total
    needed = int(re.search(r"need (\d+) generators", str(err.value)).group(1))
    assert needed == 3 > 2


def unitor_corpus():
    return [
        burnside(2),
        burnside(3),
        constant(2, 6),
        constant(2, 4),
        j_top(2, cyclic_group(2)),
        j_bottom(2, F4, SWAP2),
        j_bottom(2, F4, FROBENIUS),
    ]


def test_unitor_is_isomorphism_on_corpus():
    for m in unitor_corpus():
        u = unitor(m)
        assert u.is_isomorphism()
        assert u.source.prime == m.prime
        assert canonical_levels(u.source) == canonical_levels(m)


@pytest.mark.parametrize("k", [2, 3])
def test_box_powers_satisfy_axioms_on_corpus(k):
    # box_many checks its factors only; the product's axioms follow
    for m in unitor_corpus():
        assert validate_mackey(box_power(m, k).result).passed


def test_factor_off_order_p_raises_not_a_mackey_functor():
    with pytest.raises(NotAMackeyFunctor, match="weyl_order_p") as err:
        box(constant(2, 2), _z7_off_order_p())
    assert err.value.failures[0].name == "weyl_order_p"


def test_label_maps_reject_mismatched_factors():
    m, n = constant(2, 2), constant(2, 4)
    mm, mn, nm = box(m, m), box(m, n), box(n, m)
    mult = constant_field_mult(2, 2)
    with pytest.raises(FactorMismatch, match="box_map target: factor 1"):
        box_map(mm, mn, [identity_map(m), identity_map(m)])
    with pytest.raises(FactorMismatch, match="box_map source: expected 1 factors, got 2"):
        box_map(mm, mm, [identity_map(m)])
    with pytest.raises(FactorMismatch, match="does not permute 2 slots"):
        permute_twist(mn, nm, (0, 0), (0, 0))
    with pytest.raises(FactorMismatch, match="permute_twist target: factor 0"):
        permute_twist(mn, nm, (0, 1), (0, 0))
    with pytest.raises(FactorMismatch, match="map_from_pairing"):
        map_from_pairing(mult, mn)
    with pytest.raises(FactorMismatch, match="contract_pair slots 0, 1: factor 1"):
        contract_pair(mn, 0, mult, box_many([m]))
    with pytest.raises(FactorMismatch, match="contract_by_assignment: factor 1"):
        contract_by_assignment(mn, box_many([m]), {0: [(0, 0), (1, 0)]}, mult, (1,), (1,))
    with pytest.raises(FactorMismatch, match="each source slot must be used once"):
        contract_by_assignment(mm, box_many([m]), {0: [(0, 0), (0, 1)]}, mult, (1,), (1,))
    nn = box(n, n)
    with pytest.raises(FactorMismatch, match="contract_by_assignment pairing: factor 0"):
        contract_by_assignment(nn, box_many([n]), {0: [(0, 0), (1, 0)]}, mult, (1,), (1,))
    with pytest.raises(FactorMismatch, match="collapse_single"):
        collapse_single(mm)
    with pytest.raises(FactorMismatch, match="nested_to_flat"):
        nested_to_flat(mm, mm, "left", box_many([m, m, m]))


def _z7_off_order_p():
    """Levels 0 and Z/7 with doubling as the action, which has order 3, not 2."""
    z7, z = cyclic_group(7), zero_group()
    return MackeyFunctor(2, z, z7, zero_hom(z7, z), zero_hom(z, z7), AbHom(z7, z7, IntMatrix([[2]])))


def test_label_maps_check_their_inputs():
    # each constructor checks only its small inputs; the squares of the map
    # it builds follow from them and are not checked
    m = constant(2, 2)
    mm, single = box(m, m), box_many([m])
    # law 1 fails, res(1 * 1) = 1 but res 1 * res 1 = 0; laws 2, 3 and
    # "weyl" hold, since tr is 0 and the action is trivial
    law1 = pairing_from_matrices(m, m, m, IntMatrix([[1]]), IntMatrix([[0]]))
    with pytest.raises(IncompatiblePairing) as err:
        contract_pair(mm, 0, law1, single)
    assert err.value.condition == 1
    with pytest.raises(IncompatiblePairing):
        contract_by_assignment(mm, single, {0: [(0, 0), (1, 0)]}, law1, (1,), (1,))
    mult = constant_field_mult(2, 2)
    with pytest.raises(NotAModule, match="one_bot is not the restriction of one_top"):
        contract_by_assignment(single, mm, {0: [(0, 0)], 1: []}, mult, (1,), (0,))
    with pytest.raises(NotAMackeyFunctor, match="weyl_order_p"):
        box_power(_z7_off_order_p(), 1)
    # a target whose res o tr is 1, not the orbit sum 2, out of zero functors
    z3 = cyclic_group(3)
    bad = MackeyFunctor(2, z3, z3, AbHom(z3, z3, IntMatrix([[1]])), identity_hom(z3),
                        identity_hom(z3))
    zero = zero_mackey(2)
    empty = IntMatrix.zeros(1, 0)
    with pytest.raises(NotAMackeyFunctor, match="res_tr_is_orbit_sum"):
        map_from_pairing(pairing_from_matrices(zero, zero, bad, empty, empty))


def test_contraction_out_of_relative_box_checks_its_relations():
    # over R = F_4/C_2, R box_R R = R: the product factors through the
    # coequalizer, but the product twisted by the Frobenius on its first
    # factor, a valid pairing, is not balanced: sigma(x a) y != sigma(x) a y
    g = f4_frobenius_green()
    module = self_module(g)
    bp, _ = relative_box(module, module)
    assert not map_from_pairing(g.mult, bp).is_zero()
    twisted = TwistedModule(module, 1).action_pairing()
    twisted.validate()
    with pytest.raises(IllFormedHom):
        map_from_pairing(twisted, bp)


def test_frobenius_relations_vanish():
    pairs = [
        (burnside(2), constant(2, 2)),
        (constant(2, 3), constant(2, 3)),
        (j_bottom(2, F4, FROBENIUS), constant(2, 2)),
        (burnside(3), constant(3, 3)),
    ]
    for m, n in pairs:
        bp = box(m, n)
        n_pure = len(bp.top_labels) - len(bp.bot_labels)
        for a in range(m.top.num_generators):
            for y in range(n.bottom.num_generators):
                vec = [0] * bp.result.top.num_generators
                tr_col = n.tr.matrix.column(y)
                for b, c in enumerate(tr_col):
                    vec[a * n.top.num_generators + b] += c
                res_col = m.res.matrix.column(a)
                for x, c in enumerate(res_col):
                    vec[n_pure + x * n.bottom.num_generators + y] -= c
                assert bp.result.top.reduces_to_zero(vec), (a, y)


def test_swap_is_isomorphism():
    pairs = [
        (constant(2, 2), j_top(2, cyclic_group(2))),
        (burnside(2), constant(2, 4)),
        (j_bottom(2, F4, FROBENIUS), constant(2, 2)),
    ]
    for m, n in pairs:
        bp1 = box(m, n)
        bp2 = box(n, m)
        s = swap_map(bp1, bp2)
        assert s.is_isomorphism()
        assert canonical_levels(bp1.result) == canonical_levels(bp2.result)


def test_concentration():
    m = j_top(2, cyclic_group(4))
    n = j_top(2, cyclic_group(2))
    bp = box(m, n)
    assert bp.result.bottom.is_zero_group()
    assert bp.result.top.canonical() == (0, (2,))


def test_associativity_via_flat():
    triples = [
        (constant(2, 2), constant(2, 2), j_top(2, cyclic_group(2))),
        (burnside(2), constant(2, 4), constant(2, 2)),
        (constant(3, 3), burnside(3), constant(3, 3)),
    ]
    for m, n, l in triples:
        flat = box_many([m, n, l])
        inner_left = box(m, n)
        outer_left = box(inner_left.result, l)
        to_flat_left = nested_to_flat(outer_left, inner_left, "left", flat)
        assert to_flat_left.is_isomorphism()
        inner_right = box(n, l)
        outer_right = box(m, inner_right.result)
        to_flat_right = nested_to_flat(outer_right, inner_right, "right", flat)
        assert to_flat_right.is_isomorphism()
        # canonical rebracketing (M box N) box L -> M box (N box L)
        rebracket = invert_iso(to_flat_right).compose(to_flat_left)
        assert rebracket.is_isomorphism()
        assert canonical_levels(outer_left.result) == canonical_levels(outer_right.result)


def bottom_only_f2():
    """Zero at the top and Z/2 with the trivial action at the bottom, where
    the orbit sum 1 + 1 vanishes."""
    z, b = zero_group(), cyclic_group(2)
    return MackeyFunctor(2, z, b, zero_hom(b, z), zero_hom(z, b), identity_hom(b))


@pytest.mark.parametrize(
    "source, target, level, reason",
    [
        # (Z/2)^2 at the top cannot be isomorphic to 0
        (f4_frobenius_green().underlying, zero_mackey(2), "top", "invariants differ"),
        # 0 -> 0 at the top is one; 0 -> Z/2 at the bottom is not
        (zero_mackey(2), bottom_only_f2(), "bottom", "invariants differ"),
        # same invariants on both levels, but the zero map hits nothing
        (f4_frobenius_green().underlying, f4_frobenius_green().underlying, "top",
         "cokernel is nonzero"),
    ],
    ids=["top-invariants", "bottom-invariants", "top-cokernel"],
)
def test_invert_iso_rejects_non_isomorphisms(source, target, level, reason):
    z = zero_map(source, target)
    assert not z.is_isomorphism()
    with pytest.raises(NotAnIsomorphism) as err:
        invert_iso(z)
    assert (err.value.level, err.value.reason) == (level, reason)
    assert f"{level} level: {reason}" in str(err.value)


def test_box_power_k1_is_self():
    m = constant(2, 3)
    bp = box_power(m, 1)
    assert bp.result is m
    assert collapse_single(bp).is_isomorphism()


def rotation_map(bp, twist=1):
    k = bp.arity
    perm = (k - 1,) + tuple(range(k - 1))
    twists = (twist,) + (0,) * (k - 1)
    return permute_twist(bp, bp, perm, twists)


def test_rotation_order_divides_p_times_arity():
    cases = [
        (constant(2, 2), 2),
        (j_bottom(2, F4, FROBENIUS), 2),
        (constant(3, 3), 3),
    ]
    for m, arity in cases:
        bp = box_power(m, arity)
        alpha = rotation_map(bp)
        power = identity_map(bp.result)
        order = m.prime * arity
        for _ in range(order):
            power = alpha.compose(power)
        assert power.equals(identity_map(bp.result))


def test_box_power_of_f4_at_arity_6():
    # the F_4/C_2 functor boxed k times is (Z/2)^(2^(k-1)) on top and
    # (Z/2)^(2^k) at the bottom; at k = 6 the top has 1,216 relations on
    # 128 generators and the bottom 384 on 64
    bp = box_power(f4_frobenius_green().underlying, 6)
    assert bp.result.top.canonical() == (0, (2,) * 32)
    assert bp.result.bottom.canonical() == (0, (2,) * 64)


def test_box_power_concentrated():
    m = j_top(2, cyclic_group(2))
    bp = box_power(m, 3)
    assert bp.result.bottom.is_zero_group()
    assert bp.result.top.canonical() == (0, (2,))


def test_map_from_pairing_constant_ring():
    mult = constant_field_mult(2, 3)
    mm = map_from_pairing(mult)
    assert mm.source.prime == 2
    # multiplication against the unit generator is the unitor composed with
    # the unit inclusion, so the map is onto
    from mackeybox.exactlin import hom_cokernel

    c, _ = hom_cokernel(mm.f_top)
    assert c.is_zero_group()


def _f4_bot_mult_matrix():
    # multiplication table of F4 on basis (1, w): 1*1=1, 1*w=w, w*1=w, w*w=1+w
    cols = {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (1, 1)}
    return IntMatrix.from_columns([cols[(i, j)] for i in range(2) for j in range(2)], 2)


def test_map_from_pairing_rejects_non_equivariant():
    # f(x, y) = w * x * y is not Frobenius-equivariant since w is not fixed:
    # by hand, w*1*1 = w = (0,1), w*w = w^2 = w+1 = (1,1), w*w*w = w^3 = 1
    m = j_bottom(2, F4, FROBENIUS)
    cols = {(0, 0): (0, 1), (0, 1): (1, 1), (1, 0): (1, 1), (1, 1): (1, 0)}
    bad_bot = IntMatrix.from_columns(
        [cols[(i, j)] for i in range(2) for j in range(2)], 2
    )
    ntop = m.top.num_generators
    pairing = pairing_from_matrices(
        m, m, m, IntMatrix.zeros(ntop, ntop * ntop), bad_bot
    )
    assert "weyl" in pairing.check()
    with pytest.raises(IncompatiblePairing):
        map_from_pairing(pairing)


def test_burnside_mult_pairing_matches_unitor():
    a = burnside(2)
    bp = box(a, a)
    # multiplication of the Burnside ring is its action on itself
    mult_map = map_from_pairing(burnside_action_pairing(a), bp)
    u = unitor(a, bp)
    assert mult_map.equals(u)


def test_box_map_functorial():
    m = constant(2, 4)
    n = constant(2, 2)
    # reduction mod 2 as a map of Mackey functors
    red = _reduction_map(m, n)
    bp_m = box(m, m)
    bp_n = box(n, n)
    f = box_map(bp_m, bp_n, [red, red])
    assert not f.is_zero()


def _reduction_map(m, n):
    from mackeybox.mackey import MackeyMap

    h = AbHom(m.top, n.top, IntMatrix([[1]]))
    return MackeyMap(m, n, h, AbHom(m.bottom, n.bottom, IntMatrix([[1]])))


# ---------------------------------------------------------------------------
# relative box products


def test_relative_box_over_burnside_is_absolute():
    m = constant(2, 2)
    a = burnside(2)
    right = _right_action_from_unitor(m)
    left = burnside_action_pairing(m)
    bp, proj = relative_box_raw(m, m, right, left)
    absolute = box(m, m)
    assert canonical_levels(bp.result) == canonical_levels(absolute.result)
    assert proj.is_isomorphism()


def _right_action_from_unitor(m):
    # right Burnside action: m box A -> m via the swap of the canonical action
    a = burnside(m.prime)
    act = burnside_action_pairing(m)
    ntop, nbot = m.top.num_generators, m.bottom.num_generators
    atop, abot = a.top.num_generators, a.bottom.num_generators
    top_cols = []
    for i in range(ntop):
        for j in range(atop):
            top_cols.append(act.f_top.matrix.column(j * ntop + i))
    bot_cols = []
    for i in range(nbot):
        for j in range(abot):
            bot_cols.append(act.f_bot.matrix.column(j * nbot + i))
    return pairing_from_matrices(
        m,
        a,
        m,
        IntMatrix.from_columns(top_cols, ntop),
        IntMatrix.from_columns(bot_cols, nbot),
    )


def test_relative_box_field_over_itself():
    # classical A (x)_A A = A, levelwise, for the constant field F_3 over C_2
    m = constant(2, 3)
    mult = constant_field_mult(2, 3)
    bp, _ = relative_box_raw(m, m, mult, mult)
    assert canonical_levels(bp.result) == canonical_levels(m)


def test_relative_box_concentrated_field_over_itself():
    k = j_top(2, cyclic_group(2))
    mult = pairing_from_matrices(k, k, k, IntMatrix([[1]]), IntMatrix.zeros(0, 0))
    bp, _ = relative_box_raw(k, k, mult, mult)
    assert canonical_levels(bp.result) == canonical_levels(k)
