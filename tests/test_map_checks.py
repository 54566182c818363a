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
    burnside_action_pairing,
    pairing_from_matrices,
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
from mackeybox.green import constant_green, f4_frobenius_green
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


@st.composite
def order_p_actions(draw):
    """(p, v, gamma): a block-cyclic permutation of order p on Z^n or
    (Z/q)^n, conjugated by a random unit upper-triangular matrix."""
    p = draw(st.sampled_from([2, 3]))
    q = draw(st.sampled_from([0, 2, 3, 4]))
    blocks = draw(st.integers(min_value=1, max_value=2 if p == 2 else 1))
    fixed = draw(st.integers(min_value=0, max_value=1))
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
    u = IntMatrix(shear)
    gamma = u @ IntMatrix(perm) @ unimodular_inverse(u)
    v = free_group(n) if q == 0 else FGAbPresentation(n, IntMatrix.identity(n).scale(q))
    return p, v, AbHom(v, v, gamma)


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
        2: (f4, c0, jtop, IntMatrix([[0, 1]]), IntMatrix.zeros(0, 2)),
        3: (c0, f4, jtop, IntMatrix([[0, 1]]), IntMatrix.zeros(0, 2)),
        "weyl": (
            f4,
            f4,
            f4,
            IntMatrix([[1, 1, 1, 1], [0, 0, 0, 1]]),
            IntMatrix([[1, 0, 0, 1], [0, 1, 1, 0]]),
        ),
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
        "transfer not respected": (f4, jtop, IntMatrix([[0, 1]]), z(0, 2)),
        "restriction not respected": (c0, constant(2, 2), IntMatrix([[1]]), IntMatrix([[0]])),
        "action not respected": (zw, zw, z(0, 0), IntMatrix([[1, 0], [0, 0]])),
    }
    for name, (s, t, top, bot) in cases.items():
        f = _unchecked(MackeyMap, s, t, AbHom(s.top, t.top, top), AbHom(s.bottom, t.bottom, bot))
        assert [c.name for c in f.compatibility_failures()] == compatibility_oracle(f) == [name]
