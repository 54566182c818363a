"""The six maps written on box-product labels, against a per-label reference.

Each map gives the images of its pure and bottom labels and appends the
transfer block as ``target.tr`` after the bottom matrix.  The reference below
builds every top column label by label instead, sending a transfer class
("tr", t) to the transfer of the bottom image of t.  Both matrices must agree.
"""

from functools import reduce

import pytest

from mackeybox.boxtensor import (
    box,
    box_map,
    box_power,
    contract_by_assignment,
    contract_pair,
    map_from_pairing,
    nested_to_flat,
    permute_twist,
)
from mackeybox.exactlin import identity_hom, vector_tensor
from mackeybox.green import burnside_green, constant_green, f4_frobenius_green
from mackeybox.intlinalg import IntMatrix
from mackeybox.mackey import MackeyMap, identity_map

GREENS = {
    "f4": f4_frobenius_green,
    "constant": lambda: constant_green(2, 4),
    "burnside": lambda: burnside_green(2),
}


def _unit(n, k):
    return tuple(int(i == k) for i in range(n))


def _tensor(vecs):
    return tuple(reduce(vector_tensor, vecs))


def _padded(dst, pure_vec):
    """Pure-tensor coordinates in the top of the box product ``dst``."""
    return tuple(pure_vec) + (0,) * (len(dst.top_labels) - len(pure_vec))


def _per_label(src, target, pure_image, bot_image):
    top_cols = [
        pure_image(t) if kind == "pure" else target.tr(bot_image(t)) for kind, t in src.top_labels
    ]
    bot_cols = [bot_image(t) for t in src.bot_labels]
    return (
        IntMatrix.from_columns(top_cols, target.top.num_generators),
        IntMatrix.from_columns(bot_cols, target.bottom.num_generators),
    )


def _assert_matches(mp, reference):
    top, bot = reference
    assert mp.f_top.matrix == top
    assert mp.f_bot.matrix == bot


@pytest.fixture(params=sorted(GREENS))
def ring(request):
    g = GREENS[request.param]()
    m = g.underlying
    return g, m, {k: box_power(m, k) for k in (1, 2, 3)}


def _slot_units(m):
    return m.top.num_generators, m.bottom.num_generators


def test_map_from_pairing_matches_per_label(ring):
    g, m, bp = ring
    nt, nb = _slot_units(m)
    mult = g.mult
    ref = _per_label(
        bp[2],
        m,
        lambda t: mult.f_top(vector_tensor(_unit(nt, t[0]), _unit(nt, t[1]))),
        lambda t: mult.f_bot(vector_tensor(_unit(nb, t[0]), _unit(nb, t[1]))),
    )
    _assert_matches(map_from_pairing(mult, bp[2]), ref)


def test_box_map_matches_per_label(ring):
    _, m, bp = ring
    nt, nb = _slot_units(m)
    twist = MackeyMap(m, m, identity_hom(m.top), m.weyl)
    one = identity_map(m)
    for k, maps in ((2, [twist.scale(3), one]), (3, [twist, one, twist.scale(3)])):
        ref = _per_label(
            bp[k],
            bp[k].result,
            lambda t: _padded(bp[k], _tensor([f.f_top(_unit(nt, x)) for f, x in zip(maps, t)])),
            lambda t: _tensor([f.f_bot(_unit(nb, x)) for f, x in zip(maps, t)]),
        )
        _assert_matches(box_map(bp[k], bp[k], maps), ref)


def test_permute_twist_matches_per_label(ring):
    _, m, bp = ring
    nt, nb = _slot_units(m)

    def weyl_power(vec, e):
        for _ in range(e):
            vec = m.weyl(vec)
        return tuple(vec)

    for k, perm, twists in ((2, (1, 0), (1, 0)), (3, (2, 0, 1), (1, 0, 1))):
        ref = _per_label(
            bp[k],
            bp[k].result,
            lambda t: _padded(bp[k], _tensor([_unit(nt, t[perm[s]]) for s in range(k)])),
            lambda t: _tensor([weyl_power(_unit(nb, t[perm[s]]), twists[s]) for s in range(k)]),
        )
        _assert_matches(permute_twist(bp[k], bp[k], perm, twists), ref)


def test_contract_pair_matches_per_label(ring):
    g, m, bp = ring
    nt, nb = _slot_units(m)
    mult = g.mult

    def image(t, i, n, product):
        vecs = [_unit(n, x) for x in t]
        vecs[i : i + 2] = [product(vector_tensor(vecs[i], vecs[i + 1]))]
        return _tensor(vecs)

    for k, i in ((2, 0), (3, 0), (3, 1)):
        dst = bp[k - 1]
        ref = _per_label(
            bp[k],
            dst.result,
            lambda t: _padded(dst, image(t, i, nt, mult.f_top)),
            lambda t: image(t, i, nb, mult.f_bot),
        )
        _assert_matches(contract_pair(bp[k], i, mult, dst), ref)


def test_contract_by_assignment_matches_per_label(ring):
    g, m, bp = ring
    nt, nb = _slot_units(m)
    one_top, one_bot = g.one_top(), g.one_bot()

    def image(t, slots, n, one, product, twisted):
        vecs = []
        for entries in slots:
            cur = None
            # products run in (descending twist, ascending slot) order
            for slot, e in sorted(entries, key=lambda se: (-se[1], se[0])):
                nxt = _unit(n, t[slot])
                for _ in range(e if twisted else 0):
                    nxt = m.weyl(nxt)
                cur = nxt if cur is None else product(vector_tensor(cur, nxt))
            vecs.append(tuple(one) if cur is None else tuple(cur))
        return _tensor(vecs)

    cases = (
        (2, 1, [[(0, 0), (1, 1)]]),
        (3, 2, [[(0, 0), (2, 1)], [(1, 0)]]),
        (2, 3, [[(1, 1)], [], [(0, 0)]]),
    )
    for k, k_dst, slots in cases:
        dst = bp[k_dst]
        ref = _per_label(
            bp[k],
            dst.result,
            lambda t: _padded(dst, image(t, slots, nt, one_top, g.mult.f_top, False)),
            lambda t: image(t, slots, nb, one_bot, g.mult.f_bot, True),
        )
        mp = contract_by_assignment(bp[k], dst, dict(enumerate(slots)), g.mult, one_top, one_bot)
        _assert_matches(mp, ref)


@pytest.mark.parametrize("side", ["left", "right"])
def test_nested_to_flat_matches_per_label(ring, side):
    _, m, bp = ring
    flat = bp[3]
    inner = box(m, m)
    outer = box(inner.result, m) if side == "left" else box(m, inner.result)
    n_top = len(flat.top_labels)

    def split(t):
        return (t[0], t[1]) if side == "left" else (t[1], t[0])

    def joined(inner_tup, other):
        return inner_tup + (other,) if side == "left" else (other,) + inner_tup

    def pure_image(t):
        g, c = split(t)
        kind, inner_tup = inner.top_labels[g]
        if kind == "pure":
            return _unit(n_top, flat.top_labels.index(("pure", joined(inner_tup, c))))
        # tr(z) (x) c = tr(z (x) res c), written into the flat transfer classes
        vec = [0] * n_top
        for w, coef in enumerate(m.res.matrix.column(c)):
            vec[flat.top_labels.index(("tr", joined(inner_tup, w)))] += coef
        return tuple(vec)

    def bot_image(t):
        g, c = split(t)
        return _unit(len(flat.bot_labels), flat.bot_labels.index(joined(inner.bot_labels[g], c)))

    ref = _per_label(outer, flat.result, pure_image, bot_image)
    _assert_matches(nested_to_flat(outer, inner, side, flat), ref)
