"""Where maps are checked.

A map built from data is checked by its constructor; composites, sums,
differences, multiples, powers, identities and zero maps are built without
a check, because they are maps by construction.  These tests rebuild every
such result through the checked constructors, count that the derived
operations run no check, keep the endpoint checks, and compare the matrix
forms of the pairing laws and of the Mackey-map squares with their
``AbHom``-based forms.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mackeybox.boxtensor import (
    box,
    box_map,
    box_power,
    burnside_action_pairing,
    contract_by_assignment,
    contract_pair,
    map_from_pairing,
    nested_to_flat,
    pairing_from_matrices,
    permute_twist,
    swap_map,
    unitor,
)
from mackeybox.errors import IllFormedHom
from mackeybox.exactlin import (
    AbHom,
    FGAbPresentation,
    _unchecked,
    cyclic_group,
    free_group,
    identity_hom,
    tensor,
    zero_group,
    zero_hom,
)
from mackeybox.green import constant_green, f4_frobenius_green, fixed_point_green, green_from_mult
from mackeybox.intlinalg import IntMatrix, unimodular_inverse
from mackeybox.mackey import (
    MackeyFunctor,
    MackeyMap,
    burnside,
    constant,
    identity_map,
    j_bottom,
    j_top,
    mackey_direct_sum,
    zero_map,
)
from mackeybox.simplicial import p_circle, tensor_green_with_circle

F4 = FGAbPresentation(2, IntMatrix([[2, 0], [0, 2]]))
FROBENIUS = AbHom(F4, F4, IntMatrix([[1, 1], [0, 1]]))


def functors():
    return {
        "burnside2": burnside(2),
        "burnside3": burnside(3),
        "constant_z": constant(2, 0),
        "constant_4": constant(2, 4),
        "constant_3_p3": constant(3, 3),
        "f4_frobenius": j_bottom(2, F4, FROBENIUS),
        "j_top": j_top(2, cyclic_group(2)),
    }


def _block_cyclic(draw, max_points=5):
    """(p, v, perm, u): a block-cyclic permutation matrix of order p on
    Z^n or (Z/q)^n, n <= max_points, and a random unit upper-triangular
    matrix."""
    p = draw(st.sampled_from([2, 3] if max_points >= 3 else [2]))
    q = draw(st.sampled_from([0, 2, 3, 4]))
    blocks = draw(st.integers(min_value=1, max_value=max_points // p))
    fixed = draw(st.integers(min_value=0, max_value=min(1, max_points - blocks * p)))
    n = blocks * p + fixed
    perm = [[0] * n for _ in range(n)]
    for b in range(blocks):
        for i in range(p):
            perm[b * p + (i + 1) % p][b * p + i] = 1
    for i in range(blocks * p, n):
        perm[i][i] = 1
    shear = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        shear[i][j] = draw(st.integers(min_value=-1, max_value=1))
    v = free_group(n) if q == 0 else FGAbPresentation(n, IntMatrix.identity(n).scale(q))
    return p, v, IntMatrix(perm), IntMatrix(shear)


@st.composite
def order_p_actions(draw):
    """(p, v, gamma): a block-cyclic permutation of order p on Z^n or
    (Z/q)^n, conjugated by a random unit upper-triangular matrix."""
    p, v, perm, u = _block_cyclic(draw)
    return p, v, AbHom(v, v, u @ perm @ unimodular_inverse(u))


@st.composite
def order_p_rings(draw, max_points):
    """The fixed-point Green functor of the ring of functions on the n
    points that an ``order_p_actions`` action permutes, written in the same
    random basis: e_i e_j = [i = j] e_i and 1 = sum of the e_i, moved by u."""
    p, v, perm, u = _block_cyclic(draw, max_points)
    n = v.num_generators
    u_inv = unimodular_inverse(u)
    pointwise = IntMatrix.from_columns(
        [tuple(int(i == j == k) for k in range(n)) for i in range(n) for j in range(n)], n
    )
    gamma = AbHom(v, v, u @ perm @ u_inv)
    one = tuple(sum(row) for row in u.rows)
    return fixed_point_green(p, v, gamma, u @ pointwise @ u_inv.kron(u_inv), one)


def rebuilt(r):
    """``r`` rebuilt from its data through the checked constructor."""
    if isinstance(r, AbHom):
        return AbHom(r.source, r.target, r.matrix)
    return MackeyMap(r.source, r.target, rebuilt(r.f_top), rebuilt(r.f_bot))


def derived_homs(m):
    """Every unchecked AbHom operation, applied to the structure maps of ``m``."""
    tr, res, weyl = m.tr, m.res, m.weyl
    return [
        tr.compose(res),
        res.compose(tr),
        weyl.compose(weyl),
        weyl + weyl,
        weyl - identity_hom(m.bottom),
        tr.scale(-3),
        weyl.power(m.prime + 1),
        identity_hom(m.top),
        zero_hom(m.bottom, m.top),
    ]


def derived_maps(f):
    """Every unchecked MackeyMap operation, applied to the map ``f``."""
    into, out_of = identity_map(f.source), identity_map(f.target)
    return [
        f.compose(into),
        out_of.compose(f),
        f + f,
        f - f,
        f.scale(2),
        into,
        zero_map(f.source, f.target),
    ]


def test_derived_results_revalidate():
    for m in functors().values():
        for r in derived_homs(m):
            rebuilt(r)
        _, incl_a, incl_b = mackey_direct_sum(m, constant(m.prime, 2))
        for f in (incl_a, incl_b):
            for r in derived_maps(f):
                rebuilt(r)


@given(order_p_actions())
@settings(max_examples=25, deadline=None)
def test_derived_results_revalidate_on_random_actions(action):
    p, v, gamma = action
    m = j_bottom(p, v, gamma)
    for r in derived_homs(m):
        rebuilt(r)
    _, incl, _ = mackey_direct_sum(m, constant(p, 0))
    for r in derived_maps(incl):
        rebuilt(r)


def test_derived_box_product_maps_revalidate():
    m = j_bottom(2, F4, FROBENIUS)
    bp = box(m, m)
    for r in derived_homs(bp.result):
        rebuilt(r)
    swap = swap_map(bp, bp)
    for f in (swap, unitor(m)):
        for r in derived_maps(f):
            rebuilt(r)
    rebuilt(swap.compose(swap))


def test_derived_operations_run_no_checks(monkeypatch):
    m = j_bottom(2, F4, FROBENIUS)
    _, incl, _ = mackey_direct_sum(m, constant(2, 2))
    u = unitor(m)
    calls = []
    post_init = AbHom.__post_init__
    compatibility = MackeyMap.compatibility_failures

    def counted_post_init(self):
        calls.append("AbHom.__post_init__")
        post_init(self)

    def counted_compatibility(self):
        calls.append("MackeyMap.compatibility_failures")
        return compatibility(self)

    monkeypatch.setattr(AbHom, "__post_init__", counted_post_init)
    monkeypatch.setattr(MackeyMap, "compatibility_failures", counted_compatibility)
    homs = derived_homs(m)
    maps = derived_maps(incl) + derived_maps(u)
    assert all(h.equals(h) for h in homs)
    assert all(f.equals(f) for f in maps) and not u.is_zero()
    assert calls == []
    # the counters are live: a map built from data runs both checks
    rebuilt(incl)
    assert "AbHom.__post_init__" in calls and "MackeyMap.compatibility_failures" in calls


def test_label_maps_run_no_square_checks(monkeypatch):
    # the faces and degeneracies of the circle tensor, the unitor and the
    # swap are built from labels: their level maps are checked against the
    # relations, their squares are not
    g = f4_frobenius_green()
    calls = []
    compatibility = MackeyMap.compatibility_failures

    def counted(self):
        calls.append(self)
        return compatibility(self)

    monkeypatch.setattr(MackeyMap, "compatibility_failures", counted)
    sm = tensor_green_with_circle(g, p_circle(2, 3), 3)
    bp = box(g.underlying, g.underlying)
    unitor(g.underlying)
    swap_map(bp, bp)
    assert calls == []
    assert all(f.compatibility_failures() == [] for f in sm.faces.values())
    assert len(calls) == len(sm.faces)


def test_endpoint_mismatches_raise():
    m = burnside(2)
    with pytest.raises(ValueError, match="composition mismatch"):
        m.tr.compose(m.tr)
    with pytest.raises(ValueError, match="different endpoints"):
        m.tr + m.res
    with pytest.raises(ValueError, match="different endpoints"):
        m.res - m.tr
    with pytest.raises(ValueError, match="different endpoints"):
        m.tr.equals(m.res)
    with pytest.raises(ValueError, match="power of non-endomorphism"):
        m.tr.power(2)
    a, b = constant(2, 2), constant(2, 3)
    _, incl_a, incl_b = mackey_direct_sum(a, b)
    with pytest.raises(ValueError, match="composition mismatch"):
        incl_a.compose(incl_a)
    # the constant functor on Z and its dual share both levels, so only the
    # functor-level checks can tell them apart
    z = free_group(1)
    const = constant(2, 0)
    dual = MackeyFunctor(2, z, z, identity_hom(z), AbHom(z, z, IntMatrix([[2]])), identity_hom(z))
    with pytest.raises(ValueError, match="composition mismatch"):
        identity_map(const).compose(identity_map(dual))
    with pytest.raises(ValueError, match="different endpoints"):
        identity_map(const) + identity_map(dual)
    with pytest.raises(ValueError, match="different endpoints"):
        incl_a + incl_b
    with pytest.raises(ValueError, match="different endpoints"):
        incl_a - incl_b
    # level maps of the right shapes between the wrong levels
    c4 = constant(2, 4)
    with pytest.raises(ValueError, match="level maps do not run"):
        MackeyMap(a, a, identity_hom(c4.top), identity_hom(a.bottom))


# ---------------------------------------------------------------------------
# the AbHom-based forms of the two checks, kept as oracles


def pairing_check_oracle(pairing):
    """``BilinearPairing.check`` written with checked ``AbHom``s on the
    tensor presentations, compared with ``equals``."""
    m, n, L = pairing.m, pairing.n, pairing.target
    f_top, f_bot = pairing.f_top, pairing.f_bot
    eye = IntMatrix.identity
    bad = []
    rhs = AbHom(f_top.source, L.bottom, f_bot.matrix @ m.res.matrix.kron(n.res.matrix))
    if not L.res.compose(f_top).equals(rhs):
        bad.append(1)
    mixed1 = tensor(m.bottom, n.top)
    lhs1 = AbHom(mixed1, L.top, f_top.matrix @ m.tr.matrix.kron(eye(n.top.num_generators)))
    rhs1 = AbHom(
        mixed1,
        L.top,
        L.tr.matrix @ f_bot.matrix @ eye(m.bottom.num_generators).kron(n.res.matrix),
    )
    if not lhs1.equals(rhs1):
        bad.append(2)
    mixed2 = tensor(m.top, n.bottom)
    lhs2 = AbHom(mixed2, L.top, f_top.matrix @ eye(m.top.num_generators).kron(n.tr.matrix))
    rhs2 = AbHom(
        mixed2,
        L.top,
        L.tr.matrix @ f_bot.matrix @ m.res.matrix.kron(eye(n.bottom.num_generators)),
    )
    if not lhs2.equals(rhs2):
        bad.append(3)
    equiv = AbHom(f_bot.source, L.bottom, f_bot.matrix @ m.weyl.matrix.kron(n.weyl.matrix))
    if not L.weyl.compose(f_bot).equals(equiv):
        bad.append("weyl")
    return bad


def compatibility_oracle(f):
    """Names of the squares that fail, decided by composing ``AbHom``s."""
    s, t = f.source, f.target
    out = []
    if not t.tr.compose(f.f_bot).equals(f.f_top.compose(s.tr)):
        out.append("transfer not respected")
    if not t.res.compose(f.f_top).equals(f.f_bot.compose(s.res)):
        out.append("restriction not respected")
    if not t.weyl.compose(f.f_bot).equals(f.f_bot.compose(s.weyl)):
        out.append("action not respected")
    return out


def valid_pairings():
    m = j_bottom(2, F4, FROBENIUS)
    return [
        burnside_action_pairing(m),
        burnside_action_pairing(burnside(3)),
        constant_green(2, 3).mult,
        f4_frobenius_green().mult,
    ]


def test_valid_pairings_match_oracle():
    for pairing in valid_pairings():
        assert pairing.check() == pairing_check_oracle(pairing) == []


def _single_law_cases():
    c0 = constant(2, 0)
    f4 = j_bottom(2, F4, FROBENIUS)
    jtop = j_top(2, cyclic_group(2))
    return {
        1: (c0, c0, constant(2, 2), IntMatrix([[0]]), IntMatrix([[1]])),
        2: (f4, c0, jtop, IntMatrix([[1]]), IntMatrix.zeros(0, 2)),
        3: (c0, f4, jtop, IntMatrix([[1]]), IntMatrix.zeros(0, 2)),
        "weyl": (f4, f4, f4, IntMatrix([[1]]), IntMatrix([[1, 0, 0, 1], [0, 1, 1, 0]])),
    }


@pytest.mark.parametrize("law", [1, 2, 3, "weyl"])
def test_pairing_broken_in_one_law_matches_oracle(law):
    pairing = pairing_from_matrices(*_single_law_cases()[law])
    assert pairing.check() == pairing_check_oracle(pairing) == [law]


PAIRING_TRIPLES = [
    ("constant_z", "constant_z", "constant_4"),
    ("f4_frobenius", "constant_z", "j_top"),
    ("f4_frobenius", "f4_frobenius", "f4_frobenius"),
    ("burnside2", "constant_4", "constant_4"),
    ("constant_4", "f4_frobenius", "f4_frobenius"),
]


@st.composite
def random_pairings(draw):
    pool = functors()
    m, n, L = (pool[name] for name in draw(st.sampled_from(PAIRING_TRIPLES)))
    small = st.integers(min_value=-1, max_value=1)

    def matrix(nrows, ncols):
        return IntMatrix([[draw(small) for _ in range(ncols)] for _ in range(nrows)], ncols)

    top = matrix(L.top.num_generators, m.top.num_generators * n.top.num_generators)
    bot = matrix(L.bottom.num_generators, m.bottom.num_generators * n.bottom.num_generators)
    try:
        return pairing_from_matrices(m, n, L, top, bot)
    except IllFormedHom:
        return None


@given(random_pairings())
@settings(max_examples=120, deadline=None)
def test_random_pairings_match_oracle(pairing):
    if pairing is not None:
        assert pairing.check() == pairing_check_oracle(pairing)


def test_valid_maps_match_oracle():
    m = j_bottom(2, F4, FROBENIUS)
    _, incl_a, incl_b = mackey_direct_sum(m, burnside(2))
    bp = box(m, m)
    for f in (incl_a, incl_b, unitor(m), swap_map(bp, bp), identity_map(m)):
        assert f.compatibility_failures() == compatibility_oracle(f) == []


MAP_PAIRS = [
    ("constant_z", "constant_4"),
    ("f4_frobenius", "j_top"),
    ("f4_frobenius", "f4_frobenius"),
    ("burnside2", "constant_4"),
    ("constant_4", "f4_frobenius"),
]


@st.composite
def random_level_maps(draw):
    """An unchecked MackeyMap whose two level maps are well-defined."""
    pool = functors()
    s, t = (pool[name] for name in draw(st.sampled_from(MAP_PAIRS)))
    small = st.integers(min_value=-1, max_value=1)

    def level(src, tgt):
        mat = IntMatrix(
            [[draw(small) for _ in range(src.num_generators)] for _ in range(tgt.num_generators)],
            src.num_generators,
        )
        return AbHom(src, tgt, mat)

    try:
        return _unchecked(MackeyMap, s, t, level(s.top, t.top), level(s.bottom, t.bottom))
    except IllFormedHom:
        return None


@given(random_level_maps())
@settings(max_examples=120, deadline=None)
def test_random_maps_match_oracle(f):
    if f is not None:
        assert [c.name for c in f.compatibility_failures()] == compatibility_oracle(f)


def test_maps_broken_in_one_square_match_oracle():
    c0, f4, jtop = constant(2, 0), j_bottom(2, F4, FROBENIUS), j_top(2, cyclic_group(2))
    z = IntMatrix.zeros
    # C_3 acting on Z^2 = Z[w] by w, top 0: only the action square can fail
    v = free_group(2)
    omega = AbHom(v, v, IntMatrix([[0, -1], [1, -1]]))
    zw = MackeyFunctor(3, zero_group(), v, zero_hom(v, zero_group()), zero_hom(zero_group(), v), omega)
    cases = {
        "transfer not respected": (f4, jtop, IntMatrix([[1]]), z(0, 2)),
        "restriction not respected": (c0, constant(2, 2), IntMatrix([[1]]), IntMatrix([[0]])),
        "action not respected": (zw, zw, z(0, 0), IntMatrix([[1, 0], [0, 0]])),
    }
    for name, (s, t, top, bot) in cases.items():
        f = _unchecked(MackeyMap, s, t, AbHom(s.top, t.top, top), AbHom(s.bottom, t.bottom, bot))
        assert [c.name for c in f.compatibility_failures()] == compatibility_oracle(f) == [name]


# ---------------------------------------------------------------------------
# maps out of box products: the squares their constructors no longer check


def product_green(g, h):
    """The product ring of two Green functors, on ``mackey_direct_sum``."""
    s, _, _ = mackey_direct_sum(g.underlying, h.underlying)

    def blocks(a, b):
        na, nb = a.nrows, b.nrows
        cols = []
        for i in range(na + nb):
            for j in range(na + nb):
                if i < na and j < na:
                    cols.append(tuple(a.column(i * na + j)) + (0,) * nb)
                elif i >= na and j >= na:
                    cols.append((0,) * na + tuple(b.column((i - na) * nb + j - na)))
                else:
                    cols.append((0,) * (na + nb))
        return IntMatrix.from_columns(cols, na + nb)

    one = tuple(g.one_top()) + tuple(h.one_top())
    return green_from_mult(s, one, blocks(g.mult.f_top.matrix, h.mult.f_top.matrix),
                           blocks(g.mult.f_bot.matrix, h.mult.f_bot.matrix))


def label_maps(g, data):
    """The six label maps on box powers of ``g.underlying`` of arity 1 to 3,
    with permutations, twists and slot assignments drawn from ``data``: the
    unitor and the multiplication, then per arity a box of maps, a
    permutation, the pair contractions and three monomial contractions,
    then ``nested_to_flat`` on both sides."""
    m = g.underlying
    bp = {k: box_power(m, k) for k in (1, 2, 3)}
    twist, one = MackeyMap(m, m, identity_hom(m.top), m.weyl), identity_map(m)
    twists = st.integers(min_value=0, max_value=g.prime - 1)
    maps = [unitor(m), map_from_pairing(g.mult, bp[2])]
    for k in (1, 2, 3):
        maps.append(box_map(bp[k], bp[k], [twist, one, twist][:k]))
        perm = data.draw(st.permutations(range(k)))
        shifts = data.draw(st.lists(twists, min_size=k, max_size=k))
        maps.append(permute_twist(bp[k], bp[k], perm, shifts))
        maps.extend(contract_pair(bp[k], i, g.mult, bp[k - 1]) for i in range(k - 1))
        for k_dst in (1, 2, 3):
            slots = data.draw(st.lists(st.integers(0, k_dst - 1), min_size=k, max_size=k))
            assignment = {
                s: [(j, data.draw(twists)) for j in range(k) if slots[j] == s] for s in range(k_dst)
            }
            maps.append(contract_by_assignment(bp[k], bp[k_dst], assignment, g.mult,
                                               g.one_top(), g.one_bot()))
    for side in ("left", "right"):
        maps.append(nested_to_flat(nested(m, bp[2], side), bp[2], side, bp[3]))
    return maps


def nested(m, inner, side):
    """box(box(M, M), M) for side "left", box(M, box(M, M)) for "right"."""
    return box(inner.result, m) if side == "left" else box(m, inner.result)


def flat_to_nested(outer, inner, side, flat):
    """The inverse of ``nested_to_flat`` on labels, through the checked
    constructors: a flat pure tensor goes to the pure tensor of its inner
    pure label, a flat transfer class to the transfer class of its inner
    bottom label, and a flat bottom tensor to its outer bottom label."""

    def outer_tuple(flat_tuple, inner_index):
        if side == "left":
            return (inner_index(flat_tuple[:2]), flat_tuple[2])
        return (flat_tuple[0], inner_index(flat_tuple[1:]))

    def matrix(labels, images):
        return IntMatrix.from_columns([[int(x == y) for x in labels] for y in images], len(labels))

    top = matrix(outer.top_labels, [
        ("pure", outer_tuple(t, lambda it: inner.top_labels.index(("pure", it))))
        if kind == "pure" else ("tr", outer_tuple(t, inner.bot_labels.index))
        for kind, t in flat.top_labels
    ])
    bot = matrix(outer.bot_labels, [outer_tuple(t, inner.bot_labels.index) for t in flat.bot_labels])
    src, dst = flat.result, outer.result
    return MackeyMap(src, dst, AbHom(src.top, dst.top, top), AbHom(src.bottom, dst.bottom, bot))


def assert_label_maps_are_maps(g, data):
    """Every label map commutes with transfer, restriction and the action,
    though none of them checked it; the unitor is an isomorphism, both
    ``nested_to_flat`` maps are isomorphisms inverse to ``flat_to_nested``,
    and the swap squares to the identity."""
    maps = label_maps(g, data)
    for f in maps:
        assert f.compatibility_failures() == []
    assert maps[0].is_isomorphism()
    m = g.underlying
    inner, flat = box_power(m, 2), box_power(m, 3)
    for side, f in zip(("left", "right"), maps[-2:]):
        assert f.is_isomorphism()
        back = flat_to_nested(nested(m, inner, side), inner, side, flat)
        assert back.compose(f).equals(identity_map(f.source))
        assert f.compose(back).equals(identity_map(f.target))
    swap = swap_map(inner, inner)
    assert swap.compose(swap).equals(identity_map(inner.result))


# box products of arity 3 have n^3 bottom generators, so the factors stay
# at three points, and at two in a direct sum
@given(order_p_rings(max_points=3), st.data())
@settings(max_examples=6, deadline=None)
def test_label_maps_commute_with_structure_on_random_actions(g, data):
    assert_label_maps_are_maps(g, data)


@given(order_p_rings(max_points=2), st.sampled_from([0, 2, 3, 4]), st.data())
@settings(max_examples=6, deadline=None)
def test_label_maps_commute_with_structure_on_direct_sums(g, n, data):
    assert_label_maps_are_maps(product_green(g, constant_green(g.prime, n)), data)
