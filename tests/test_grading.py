from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mackeybox import grading
from mackeybox.errors import (
    EmptyWindow,
    FactorMismatch,
    NotAnInteger,
    NotPrime,
    PrimeMismatch,
    UnclassifiedField,
    WindowOverflow,
)
from mackeybox.grading import (
    BoxWindow,
    GradedGreenTower,
    GradedMackey,
    RODegree,
    _window_graph,
    _window_pairs,
    em_homotopy,
    em_tower,
    graded_box,
    graded_field_window_check,
    rotating_sign,
    single_degree_tower,
)
from mackeybox.boxtensor import pairing_from_matrices
from mackeybox.green import (
    burnside_green,
    classify_field_shape,
    constant_green,
    f4_frobenius_green,
    field_top_green,
)
from mackeybox.mackey import (
    Subfunctor,
    _closure,
    _every_element_generates,
    canonical_levels,
    enumerate_subfunctors,
    j_bottom,
)
from mackeybox.exactlin import AbHom, cyclic_group, finite_model
from mackeybox.intlinalg import IntMatrix


def deg2(a, m):
    return RODegree(2, a, (m,))


def deg3(a, m):
    return RODegree(3, a, (m,))


def test_dims():
    assert deg2(3, -1).dim() == 2
    assert deg2(3, -1).fixed_dim() == 3
    assert deg3(1, 2).dim() == 5
    assert RODegree.regular(2).dim() == 2
    assert RODegree.regular(3).dim() == 3
    assert RODegree.regular(5).dim() == 5


def test_degree_arithmetic():
    a, b = deg2(1, 2), deg2(-3, 1)
    s = a + b
    assert (s.dim(), s.fixed_dim()) == (a.dim() + b.dim(), a.fixed_dim() + b.fixed_dim())
    n = -a
    assert n.dim() == -a.dim() and n.fixed_dim() == -a.fixed_dim()


def test_degree_key_round_trip():
    d = deg3(-2, 4)
    assert RODegree.from_key(3, d.key()) == d


def koszul_sign_oracle(d1, f1, d2, f2):
    return ((-1) ** (f1 * f2), (-1) ** (d1 * d2))


def test_rotating_sign_examples():
    rho = RODegree.regular(2)
    # fixed dims 1*1 odd, total dims 2*2 even
    assert rotating_sign(rho, rho) == koszul_sign_oracle(2, 1, 2, 1) == (-1, 1)
    zero = RODegree.zero(2)
    assert rotating_sign(zero, deg2(3, 5)) == (1, 1)
    two_rho = rho.scale(2)
    assert rotating_sign(two_rho, two_rho) == (1, 1)


def test_rotating_sign_symmetric():
    pairs = [(deg2(1, 0), deg2(0, 1)), (deg2(3, -2), deg2(-1, 1)), (deg3(1, 1), deg3(2, 0))]
    for a, b in pairs:
        assert rotating_sign(a, b) == rotating_sign(b, a)


# ---------------------------------------------------------------------------
# homotopy case formulas


def concentrated_oracle(alpha):
    return "F" if alpha.fixed_dim() == 0 else "0"


def fixed_point_odd_oracle(alpha):
    return "F" if alpha.dim() == 0 else "0"


def fixed_point_c2_oracle(alpha):
    if alpha.dim() != 0:
        return "0"
    return "F" if alpha.a % 2 == 0 else "J"


def test_em_concentrated_grid():
    shape = classify_field_shape(field_top_green(2, 2))
    f = shape.field.underlying
    for a in range(-4, 5):
        for m in range(-4, 5):
            alpha = deg2(a, m)
            piece = em_homotopy(shape, alpha)
            expected = concentrated_oracle(alpha)
            if expected == "F":
                assert canonical_levels(piece) == canonical_levels(f)
            else:
                assert piece.is_zero()


def test_em_constant_f3_grid():
    shape = classify_field_shape(constant_green(2, 3))
    f = shape.field.underlying
    for a in range(-4, 5):
        for m in range(-4, 5):
            alpha = deg2(a, m)
            piece = em_homotopy(shape, alpha)
            expected = fixed_point_c2_oracle(alpha)
            if expected == "F":
                assert canonical_levels(piece) == canonical_levels(f)
            elif expected == "0":
                assert piece.is_zero()
            else:
                # twisted fixed points: nothing above, three elements below
                assert canonical_levels(piece) == ((0, ()), (0, (3,)))


def test_em_odd_twist_is_sign_action_fixed_points():
    shape = classify_field_shape(constant_green(2, 3))
    alpha = deg2(1, -1)
    piece = em_homotopy(shape, alpha)
    z3 = cyclic_group(3)
    expected = j_bottom(2, z3, AbHom(z3, z3, IntMatrix([[-1]])))
    assert piece.to_json() == expected.to_json()


def test_em_fixed_point_odd_prime_grid():
    shape = classify_field_shape(constant_green(3, 2))
    f = shape.field.underlying
    for a in range(-4, 5):
        for m in range(-4, 5):
            alpha = deg3(a, m)
            piece = em_homotopy(shape, alpha)
            if fixed_point_odd_oracle(alpha) == "F":
                assert canonical_levels(piece) == canonical_levels(f)
            else:
                assert piece.is_zero()


def test_em_degree_zero_is_field():
    for g in [field_top_green(2, 2), constant_green(2, 3), constant_green(3, 2)]:
        shape = classify_field_shape(g)
        piece = em_homotopy(shape, RODegree.zero(g.prime))
        assert canonical_levels(piece) == canonical_levels(g.underlying)


def test_em_alpha_and_negative_agree_concentrated():
    shape = classify_field_shape(field_top_green(2, 2))
    for a in range(-3, 4):
        for m in range(-3, 4):
            alpha = deg2(a, m)
            one = em_homotopy(shape, alpha)
            two = em_homotopy(shape, -alpha)
            assert canonical_levels(one) == canonical_levels(two)


def test_em_tower_pieces_are_the_nonzero_homotopy_functors():
    shape = classify_field_shape(field_top_green(2, 2))
    window = BoxWindow(2, 3, 3)
    tower = em_tower(shape, window)
    nonzero = [d for d in window.degrees() if not em_homotopy(shape, d).is_zero()]
    assert list(tower.pieces) == nonzero


def test_em_requires_classified_field():
    with pytest.raises(UnclassifiedField):
        em_homotopy("not a shape", RODegree.zero(2))


def test_mixed_primes_raise_prime_mismatch():
    # typed errors, not asserts: these hold under python -O as well
    with pytest.raises(PrimeMismatch, match="C_2 and C_3"):
        deg2(1, 0) + deg3(1, 0)
    with pytest.raises(PrimeMismatch, match="C_2 and C_3"):
        rotating_sign(deg2(1, 0), deg3(0, 1))
    with pytest.raises(PrimeMismatch, match="C_3 and C_2"):
        em_homotopy(classify_field_shape(field_top_green(2, 2)), deg3(0, 0))
    f2, f3 = field_top_green(2, 2).underlying, field_top_green(3, 3).underlying
    with pytest.raises(PrimeMismatch):
        graded_box(GradedMackey(2, {deg2(0, 0): f2}), GradedMackey(3, {deg3(0, 0): f3}))


def test_window_over_another_prime_raises_prime_mismatch():
    tower = em_tower(classify_field_shape(field_top_green(2, 2)), BoxWindow(2, 1, 1))
    with pytest.raises(PrimeMismatch, match="C_2 and C_3"):
        graded_field_window_check(tower, BoxWindow(3, 1, 1))


def test_box_window_requires_a_prime():
    with pytest.raises(NotPrime, match="4 is not prime"):
        BoxWindow(4, 1, 1)


@pytest.mark.parametrize("a_bound, m_bound", [(1, -1), (-1, 0), (1.5, 1), (1, "2"), (True, 1), (1, False)])
def test_box_window_requires_nonnegative_integer_bounds(a_bound, m_bound):
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        BoxWindow(2, a_bound, m_bound)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: RODegree(4, 0, (1,)), NotPrime, "4 is not prime"),
        (lambda: RODegree(1, 0, ()), NotPrime, "1 is not prime"),
        (lambda: RODegree(2.0, 0, (1,)), NotPrime, "2.0 is not prime"),
        (lambda: BoxWindow(3.0, 1, 1), NotPrime, "3.0 is not prime"),
        (lambda: RODegree(2, 0.5, (1,)), NotAnInteger, "0.5"),
        (lambda: RODegree(3, 1, (2.0,)), NotAnInteger, "2.0"),
        (lambda: RODegree(5, 0, (1, "1")), NotAnInteger, "'1'"),
        (lambda: RODegree(2, True, (1,)), NotAnInteger, "True"),
    ],
    ids=["prime-4", "prime-1", "float-prime", "float-window-prime", "float-a", "float-m",
         "string-m", "bool-a"],
)
def test_degree_checks_its_arguments(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_window_without_pieces_raises_empty_window():
    # every piece lies at fixed dimension 3, outside |a| <= 1
    tower = laurent_f2_tower([deg2(3, 0)])
    with pytest.raises(EmptyWindow, match=r"BoxWindow\(prime=2, a_bound=1, m_bound=1\)"):
        graded_field_window_check(tower, BoxWindow(2, 1, 1))


def test_graded_box_out_window_over_another_prime_raises_prime_mismatch():
    f2 = field_top_green(2, 2).underlying
    a = GradedMackey(2, {deg2(0, 0): f2, deg2(1, 0): f2})
    with pytest.raises(PrimeMismatch, match="C_2 and C_5"):
        graded_box(a, a, out_window=BoxWindow(5, 1, 1))


# ---------------------------------------------------------------------------
# graded window certificate


def test_graded_window_no_ideal_for_concentrated_f2():
    shape = classify_field_shape(field_top_green(2, 2))
    window = BoxWindow(2, 2, 2)
    tower = em_tower(shape, window)
    cert = graded_field_window_check(tower, window)
    assert cert.window_partial
    assert cert.verdict == "no_graded_ideal_in_window"


@pytest.mark.parametrize("m", [10, 20, 40, 80])
def test_graded_window_decides_large_f2_windows(m):
    # 2^(2m+1) combinations; one closure per element decides these windows
    # with no search
    shape = classify_field_shape(field_top_green(2, 2))
    window = BoxWindow(2, m, m)
    cert = graded_field_window_check(em_tower(shape, window), window)
    assert cert.verdict == "no_graded_ideal_in_window"


def test_graded_window_burnside_witness():
    tower = single_degree_tower(burnside_green(2))
    window = BoxWindow(2, 0, 0)
    cert = graded_field_window_check(tower, window)
    assert cert.verdict == "witness"
    assert "witness_search_only" in cert.note


def test_graded_window_degree_zero_field_certificate():
    tower = single_degree_tower(constant_green(2, 3))
    window = BoxWindow(2, 0, 0)
    cert = graded_field_window_check(tower, window)
    assert cert.verdict == "no_graded_ideal_in_window"


def test_graded_window_constant_f2_witness():
    tower = single_degree_tower(constant_green(2, 2))
    window = BoxWindow(2, 0, 0)
    cert = graded_field_window_check(tower, window)
    assert cert.verdict == "witness"


def tower_with_pairing(g, degrees, odd_one=None):
    """``g`` in each degree, any two pieces multiplied by ``g.mult``, except
    the pair (0, 0), (1, 0), which gets ``odd_one``, or no pairing when it
    is None."""
    pairings = {(d1, d2): g.mult for d1 in degrees for d2 in degrees}
    del pairings[(deg2(0, 0), deg2(1, 0))]
    if odd_one is not None:
        pairings[(deg2(0, 0), deg2(1, 0))] = odd_one
    return GradedGreenTower(2, {d: g.underlying for d in degrees}, pairings)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: tower_with_pairing(constant_green(2, 2), [deg2(0, 0), deg2(1, 0)]),
         FactorMismatch, r"no pairing for degrees 0\|0 and 1\|0"),
        (lambda: tower_with_pairing(constant_green(2, 2), [deg2(0, 0), deg2(1, 0)],
                                    f4_frobenius_green().mult),
         FactorMismatch, r"pairing for degrees 0\|0 and 1\|0 does not run between"),
        (lambda: tower_with_pairing(field_top_green(2, 2), [deg2(0, 0), deg2(1, 0)],
                                    constant_green(2, 2).mult),
         FactorMismatch, r"pairing for degrees 0\|0 and 1\|0 does not run between"),
        (lambda: GradedGreenTower(
            2, {deg2(0, 0): constant_green(3, 3).underlying},
            {(deg2(0, 0), deg2(0, 0)): constant_green(3, 3).mult}),
         PrimeMismatch, "C_2 and C_3"),
        (lambda: GradedGreenTower(2, {deg2(0, 0): burnside_green(2).underlying}, {}),
         FactorMismatch, r"no pairing for degrees 0\|0 and 0\|0"),
        (lambda: GradedGreenTower(
            2, {deg2(0, 0): burnside_green(2).underlying},
            {(deg2(0, 0), deg2(0, 0)): constant_green(2, 2).mult}),
         FactorMismatch, r"pairing for degrees 0\|0 and 0\|0 does not run between"),
    ],
    ids=["missing", "f4-mult-on-constant-f2", "constant-mult-on-concentrated-f2",
         "piece-over-c3", "probe-missing", "probe-mismatched"],
)
def test_malformed_tower_raises_typed_error(make, error, message):
    with pytest.raises(error, match=message):
        graded_field_window_check(make(), BoxWindow(2, 1, 0))


def laurent_f2_tower(degrees):
    """Constant F_2 in each degree, any two pieces multiplied as in F_2."""
    g = constant_green(2, 2)
    return GradedGreenTower(
        2,
        {d: g.underlying for d in degrees},
        {(d1, d2): g.mult for d1 in degrees for d2 in degrees},
    )


def truncated_polynomial_tower():
    """The field F_2 concentrated at the top in degrees 0 and 1, with x^2 = 0
    (degree 2 is not a piece): degree 0 generates everything, and degree 1
    alone is a proper ideal."""
    g = field_top_green(2, 2)
    d0, d1 = deg2(0, 0), deg2(1, 0)
    return GradedGreenTower(
        2,
        {d0: g.underlying, d1: g.underlying},
        {(d0, d0): g.mult, (d0, d1): g.mult, (d1, d0): g.mult},
    )


def f4_over_f2_tower():
    """F_4 with the Frobenius (as a Mackey functor) at degree -1 over
    constant F_2 at degree 0; the mixed pairings are scalar multiplication."""
    c = constant_green(2, 2)
    f4 = f4_frobenius_green().underlying
    top = IntMatrix.identity(f4.top.num_generators)
    bot = IntMatrix.identity(f4.bottom.num_generators)
    d, zero = deg2(-1, 0), deg2(0, 0)
    return GradedGreenTower(
        2,
        {d: f4, zero: c.underlying},
        {
            (zero, zero): c.mult,
            (zero, d): pairing_from_matrices(c.underlying, f4, f4, top, bot),
            (d, zero): pairing_from_matrices(f4, c.underlying, f4, top, bot),
        },
    )


@pytest.mark.parametrize(
    "tower",
    [
        laurent_f2_tower([deg2(0, 0), deg2(1, 0)]),
        laurent_f2_tower([deg2(-1, 0), deg2(0, 0), deg2(1, 0)]),
        f4_over_f2_tower(),
        truncated_polynomial_tower(),
    ],
    ids=["laurent-0-1", "laurent-3", "f4-over-f2", "truncated-polynomial"],
)
def test_graded_window_witness_matches_brute_force(tower):
    window = BoxWindow(2, 1, 0)
    cert = graded_field_window_check(tower, window)
    assert cert.verdict == "witness" and len(cert.witness) >= 2
    assert_certificate_matches_brute_force(tower, window, cert)


def test_graded_window_takes_the_window_degrees_in_window_order():
    # pieces outside the window are ignored, and the degrees are searched in
    # the order of ``window.degrees()`` whatever the order of ``tower.pieces``
    window = BoxWindow(2, 1, 0)
    inside = [deg2(-1, 0), deg2(0, 0), deg2(1, 0)]
    want = graded_field_window_check(laurent_f2_tower(inside), window).to_json()
    shuffled = laurent_f2_tower([deg2(1, 0), deg2(2, 0), deg2(0, 1), deg2(0, 0), deg2(-1, 0)])
    got = graded_field_window_check(shuffled, window).to_json()
    assert got == want and list(got["witness"]) == [d.key() for d in inside]


def zero_product_tower(pieces):
    """``pieces`` (degree -> Mackey functor) with every product zero, so that
    every combination of subfunctors is a graded ideal and only the skipped
    all-zero and all-full combinations shape the answer."""
    pairings = {}
    for d1, a in pieces.items():
        for d2, b in pieces.items():
            c = pieces.get(d1 + d2)
            if c is not None:
                pairings[(d1, d2)] = pairing_from_matrices(
                    a, b, c,
                    IntMatrix.zeros(c.top.num_generators, a.top.num_generators * b.top.num_generators),
                    IntMatrix.zeros(
                        c.bottom.num_generators, a.bottom.num_generators * b.bottom.num_generators
                    ),
                )
    return GradedGreenTower(2, pieces, pairings)


def test_graded_window_skips_exactly_the_trivial_combinations():
    f3 = constant_green(2, 3).underlying  # two subfunctors: full first, zero last
    full, zero = enumerate_subfunctors(f3)
    assert full.is_full() and zero.is_zero()
    window = BoxWindow(2, 1, 0)
    # one degree: both combinations are trivial, so there is no witness
    lone = zero_product_tower({deg2(0, 0): f3})
    assert graded_field_window_check(lone, window).verdict == "no_graded_ideal_in_window"
    # two degrees: the first combination after all-full is full at 0, zero at 1
    d0, d1 = deg2(0, 0), deg2(1, 0)
    tower = zero_product_tower({d0: f3, d1: f3})
    cert = graded_field_window_check(tower, window).to_json()
    assert cert == brute_force_window_check(tower, window)
    assert cert["witness"] == {
        d.key(): {
            "top": sorted(list(c) for c in sub.top_elements),
            "bottom": sorted(list(c) for c in sub.bottom_elements),
        }
        for d, sub in ((d0, full), (d1, zero))
    }


def brute_force_window_check(tower, window):
    """Oracle for the verdict of ``graded_field_window_check`` on finite
    towers: walks every combination of subfunctors in the order of
    ``itertools.product`` and multiplies every element of each ring piece by
    every element of the chosen subfunctor; the first graded ideal, neither
    all-zero nor all-full, is its witness."""
    degrees = [d for d in window.degrees() if d in tower.pieces]
    lattices = [enumerate_subfunctors(tower.pieces[d]) for d in degrees]
    pairs = window_pairs(tower, window, degrees)
    for combo in iproduct(*lattices):
        choice = dict(zip(degrees, combo))
        if all(s.is_zero() for s in combo) or all(s.is_full() for s in combo):
            continue
        if all(products_land_in(tower, d1, d2, choice[d2], choice[d]) for d1, d2, d in pairs):
            witness = {
                d.key(): {
                    "top": sorted(list(c) for c in choice[d].top_elements),
                    "bottom": sorted(list(c) for c in choice[d].bottom_elements),
                }
                for d in degrees
            }
            return {"window_partial": True, "verdict": "witness", "witness": witness}
    return {"window_partial": True, "verdict": "no_graded_ideal_in_window"}


def window_pairs(tower, window, degrees):
    """The in-window pairs (d1, d2, d1 + d2) of ``degrees``."""
    return [
        (d1, d2, d1 + d2)
        for d1 in degrees
        for d2 in degrees
        if d1 + d2 in tower.pieces and window.contains(d1 + d2)
    ]


def brute_force_ideals(tower, window, degrees):
    """Every graded ideal of ``tower`` on ``degrees``, found by walking every
    combination of subfunctors, as the position sets of its nodes: node 2t
    the top and 2t + 1 the bottom of degree t."""
    pairs = window_pairs(tower, window, degrees)
    ideals = []
    for combo in iproduct(*(enumerate_subfunctors(tower.pieces[d]) for d in degrees)):
        choice = dict(zip(degrees, combo))
        if all(products_land_in(tower, d1, d2, choice[d2], choice[d]) for d1, d2, d in pairs):
            ideals.append([positions for sub in combo
                           for positions in (sub.top_positions, sub.bottom_positions)])
    return ideals


def assert_certificate_matches_brute_force(tower, window, cert):
    """The verdict of ``cert`` is that of ``brute_force_window_check``, and a
    witness is a proper nonzero graded ideal on the window's degrees, in
    window order: every in-window product lands in it, and it is the
    intersection of the graded ideals containing some one of its elements,
    the ideal that element generates."""
    assert cert.verdict == brute_force_window_check(tower, window)["verdict"]
    if cert.witness is None:
        return
    degrees = [d for d in window.degrees() if d in tower.pieces]
    assert list(cert.witness) == [d.key() for d in degrees]
    subs = {}
    for d in degrees:
        piece, levels = tower.pieces[d], cert.witness[d.key()]
        indices = [{c: x for x, c in enumerate(finite_model(level).elements)}
                   for level in (piece.top, piece.bottom)]
        subs[d] = Subfunctor(piece, *(frozenset(index[tuple(c)] for c in levels[level])
                                      for index, level in zip(indices, ("top", "bottom"))))
    assert not all(sub.is_zero() for sub in subs.values())
    assert not all(sub.is_full() for sub in subs.values())
    pairs = window_pairs(tower, window, degrees)
    assert all(products_land_in(tower, d1, d2, subs[d2], subs[d]) for d1, d2, d in pairs)
    witness = [positions for d in degrees
               for positions in (subs[d].top_positions, subs[d].bottom_positions)]
    ideals = brute_force_ideals(tower, window, degrees)

    def generated(node, x):
        containing = [ideal for ideal in ideals if x in ideal[node]]
        return [frozenset.intersection(*(ideal[k] for ideal in containing)) for k in range(len(witness))]

    assert any(generated(node, x) == witness for node, positions in enumerate(witness) for x in positions)


# small towers: constant F_2, constant F_3 and F_4 with the Frobenius, with
# zero pairings, or scalar ones where a constant F_p piece multiplies a piece
# of characteristic p into itself


KINDS = {  # name -> (characteristic, Green functor)
    "F2": (2, constant_green(2, 2)),
    "F3": (3, constant_green(2, 3)),
    "F4": (2, f4_frobenius_green()),
}
SMALL_DEGREES = [deg2(-1, 0), deg2(0, 0), deg2(1, 0), deg2(0, 1), deg2(1, 1)]


def _scalar_allowed(k1, k2, ks):
    """Whether ``k1`` times ``k2`` into ``ks`` has a scalar pairing: one
    factor is constant F_p and the other is ``ks`` of characteristic p."""
    char = {k: p for k, (p, _) in KINDS.items()}
    return any(
        scalar in ("F2", "F3") and other == ks and char[scalar] == char[other]
        for scalar, other in ((k1, k2), (k2, k1))
    )


@st.composite
def small_towers(draw):
    degrees = draw(st.lists(st.sampled_from(SMALL_DEGREES), min_size=1, max_size=4, unique=True))
    kinds = {d: draw(st.sampled_from(sorted(KINDS))) for d in degrees}
    pieces = {d: KINDS[k][1].underlying for d, k in kinds.items()}
    pairings = {}
    for d1 in degrees:
        for d2 in degrees:
            s = d1 + d2
            if s not in pieces:
                continue
            a, b, c = pieces[d1], pieces[d2], pieces[s]
            if _scalar_allowed(kinds[d1], kinds[d2], kinds[s]) and draw(st.booleans()):
                top = IntMatrix.identity(c.top.num_generators)
                bottom = IntMatrix.identity(c.bottom.num_generators)
            else:
                top = IntMatrix.zeros(
                    c.top.num_generators, a.top.num_generators * b.top.num_generators
                )
                bottom = IntMatrix.zeros(
                    c.bottom.num_generators, a.bottom.num_generators * b.bottom.num_generators
                )
            pairings[(d1, d2)] = pairing_from_matrices(a, b, c, top, bottom)
    return GradedGreenTower(2, pieces, pairings)


SMALL_WINDOW = BoxWindow(2, 1, 1)


@settings(max_examples=40, deadline=None)
@given(small_towers())
def test_graded_window_matches_brute_force_on_small_towers(tower):
    cert = graded_field_window_check(tower, SMALL_WINDOW)
    assert_certificate_matches_brute_force(tower, SMALL_WINDOW, cert)


def window_graph(tower, window):
    """(degrees, (models, maps)): the tower's degrees in the window and its
    closure graph, node 2t the top and 2t + 1 the bottom of degree t."""
    degrees = [d for d in window.degrees() if d in tower.pieces]
    pieces = [tower.pieces[d] for d in degrees]
    return degrees, _window_graph(pieces, _window_pairs(tower, degrees))


@settings(max_examples=25, deadline=None)
@given(small_towers())
def test_closure_of_each_element_is_the_intersection_of_the_ideals_containing_it(tower):
    degrees, (models, maps) = window_graph(tower, SMALL_WINDOW)
    ideals = brute_force_ideals(tower, SMALL_WINDOW, degrees)
    for node, model in enumerate(models):
        for x in range(len(model.elements)):
            # the all-full combination is one of them, so the list is not empty
            containing = [ideal for ideal in ideals if x in ideal[node]]
            least = tuple(
                frozenset.intersection(*(ideal[k] for ideal in containing))
                for k in range(len(models))
            )
            assert _closure(models, maps, (node, x)) == least


def assert_decision_matches_every_element_closed_in_full(tower, window):
    """``_every_element_generates``, which stops closures at elements known
    to generate everything, against closing every element in full: None
    exactly when every closure is everything, and otherwise the first
    proper closure, nodes in order and each in ascending position."""
    _, (models, maps) = window_graph(tower, window)
    orders = [len(model.elements) for model in models]
    closures = (
        _closure(models, maps, (node, x)) for node, order in enumerate(orders) for x in range(1, order)
    )
    proper = [ideal for ideal in closures if list(map(len, ideal)) != orders]
    every = not proper
    found = _every_element_generates(models, maps)
    assert (found is None) == every
    assert found == (proper[0] if proper else None)
    return every


@settings(max_examples=40, deadline=None)
@given(small_towers())
def test_early_stop_matches_full_closures_on_small_towers(tower):
    assert_decision_matches_every_element_closed_in_full(tower, SMALL_WINDOW)


@pytest.mark.parametrize("m", range(1, 11))
def test_early_stop_matches_full_closures_on_f2_towers(m):
    window = BoxWindow(2, m, m)
    tower = em_tower(classify_field_shape(field_top_green(2, 2)), window)
    assert assert_decision_matches_every_element_closed_in_full(tower, window)


@pytest.mark.parametrize(
    "tower",
    [
        laurent_f2_tower([deg2(-1, 0), deg2(0, 0), deg2(1, 0)]),
        f4_over_f2_tower(),
        truncated_polynomial_tower(),
    ],
    ids=["laurent-3", "f4-over-f2", "truncated-polynomial"],
)
def test_early_stop_matches_full_closures_where_an_ideal_exists(tower):
    assert not assert_decision_matches_every_element_closed_in_full(tower, BoxWindow(2, 1, 0))


def products_land_in(tower, d1, d2, sub, target):
    """Whether every ring element at d1 times every element of ``sub`` (at
    d2) lies in ``target``, at both levels."""
    ring, pairing = tower.pieces[d1], tower.pairings[(d1, d2)]
    for mult, ring_pres, elements, target_elements, pres, target_pres in (
        (pairing.f_top.matrix, ring.top, sub.top_elements, target.top_elements,
         sub.parent.top, target.parent.top),
        (pairing.f_bot.matrix, ring.bottom, sub.bottom_elements, target.bottom_elements,
         sub.parent.bottom, target.parent.bottom),
    ):
        ring_model, model, target_model = (
            finite_model(ring_pres), finite_model(pres), finite_model(target_pres)
        )
        for r in ring_model.elements:
            x = ring_model.from_canonical(r)
            for c in elements:
                y = model.from_canonical(c)
                terms = [
                    (i * len(y) + j, xi * yj) for i, xi in enumerate(x) for j, yj in enumerate(y)
                ]
                prod = tuple(sum(row[col] * coef for col, coef in terms) for row in mult.rows)
                if target_model.to_canonical(prod) not in target_elements:
                    return False
    return True


# ---------------------------------------------------------------------------
# graded box


def test_graded_box_unit_degreewise():
    from mackeybox.mackey import burnside

    b = burnside(2)
    m = GradedMackey(2, {deg2(0, 0): constant_green(2, 4).underlying, deg2(1, 1): b})
    unit = GradedMackey(2, {deg2(0, 0): b})
    prod = graded_box(m, unit)
    assert sorted(d.key() for d in prod.support()) == sorted(d.key() for d in m.support())
    for d in m.support():
        assert canonical_levels(prod.pieces[d]) == canonical_levels(m.pieces[d])


def test_graded_box_past_the_piece_limit_raises_window_overflow(monkeypatch):
    monkeypatch.setattr(grading, "MAX_GRADED_PIECES", 1)
    f2 = constant_green(2, 2).underlying
    a = GradedMackey(2, {deg2(0, 0): f2, deg2(1, 0): f2})
    with pytest.raises(WindowOverflow, match=r"has 3 degrees, more than MAX_GRADED_PIECES = 1"):
        graded_box(a, a)
    # the limit is checked before any box product is built
    monkeypatch.setattr(grading, "box", None)
    with pytest.raises(WindowOverflow):
        graded_box(a, a)


def test_graded_box_minkowski_support():
    f = field_top_green(2, 2).underlying
    a = GradedMackey(2, {deg2(0, 0): f, deg2(1, 1): f})
    b = GradedMackey(2, {deg2(0, 0): f, deg2(2, 2): f})
    prod = graded_box(a, b)
    got = {d.key() for d in prod.support()}
    want = {
        (x + y).key()
        for x in (deg2(0, 0), deg2(1, 1))
        for y in (deg2(0, 0), deg2(2, 2))
    }
    assert got == want


def test_graded_box_binomial_tower():
    # two one-generator towers multiply with binomial rank growth:
    # rank at w rho is the number of splittings w = u + v
    f = field_top_green(2, 2).underlying
    rho = RODegree.regular(2)
    tower = GradedMackey(2, {rho.scale(w): f for w in range(4)})
    prod = graded_box(tower, tower)
    for w in range(4):
        piece = prod.pieces[rho.scale(w)]
        rank = len(piece.top.invariant_factors)
        assert rank == w + 1, w
