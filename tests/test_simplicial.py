import pytest

from mackeybox.errors import InsufficientTruncation, NotAModule, NotFreeAction, NotSimplicial
from mackeybox.exactlin import FGAbPresentation, identity_hom
from mackeybox.green import (
    burnside_green,
    constant_green,
    f4_frobenius_green,
    field_top_green,
    fixed_point_green,
)
from mackeybox.intlinalg import IntMatrix
from mackeybox.mackey import MackeyChainComplex, burnside, canonical_levels, homology_of_complex
from mackeybox.simplicial import (
    SimplicialGSet,
    SimplicialMackey,
    SimplicialMap,
    circle_orbit_inclusion,
    circle_wedge,
    discrete_orbit,
    edgewise_subdivision,
    fold_map,
    identity_simplicial_map,
    no_equivariant_collapse,
    p_circle,
    pinch_candidate,
    relabel_map,
    standard_circle,
    tensor_green_with_circle,
    triple_wedge_rebracket,
    verify_last_face_identity,
    wedge_over_orbit,
)


def test_circle_levels_and_last_face():
    c = standard_circle(6)
    assert c.levels[0] == ["g0"]
    assert c.levels[1] == ["g0", "g1"]
    # the last face collapses the top generator to the base point
    for n in range(1, 7):
        assert c.faces[n][n][n] == 0
    assert c.identity_failures() == []


def test_circle_cyclic_operator():
    c = standard_circle(4)
    for n in range(5):
        assert c.cyclic[n][n] == 0  # top rotates to the base point
        assert c.cyclic[n][:n] == list(range(1, n + 1))
    assert verify_last_face_identity(c) == []


def test_sd2_census_matches_hand_count():
    # levels are the cyclic sets of order 2n + 2; the only nondegenerate
    # cells are both vertices and the two odd edges
    s2 = edgewise_subdivision(standard_circle(13), 2)
    assert [s2.size(n) for n in range(s2.truncation + 1)] == [2 * n + 2 for n in range(7)]
    census = s2.nondegenerate_census()
    assert census[0] == 2 and census[1] == 2
    assert all(x == 0 for x in census[2:])
    flags = s2.degenerate_flags(1)
    nondeg = [s2.label(1, v) for v in range(s2.size(1)) if not flags[v]]
    assert nondeg == ["g1", "g3"]


def test_sd2_edge_boundaries_match_hand_example():
    s2 = edgewise_subdivision(standard_circle(5), 2)
    # boundary of the first odd edge: first face hits the base vertex,
    # second face the other vertex; the second odd edge is reversed
    e1 = s2.levels[1].index("g1")
    e3 = s2.levels[1].index("g3")
    assert s2.faces[1][0][e1] == 0 and s2.faces[1][1][e1] == 1
    assert s2.faces[1][0][e3] == 1 and s2.faces[1][1][e3] == 0


def test_sd1_is_identity():
    c = standard_circle(4)
    assert edgewise_subdivision(c, 1) is c


def test_sd3_level0_free_rotation():
    s3 = edgewise_subdivision(standard_circle(8), 3)
    assert s3.levels[0] == ["g0", "g1", "g2"]
    assert s3.order == 3
    assert s3.action[0] == [1, 2, 0]
    assert s3.action_is_free()


def test_sd_r_census_up_to_four():
    for r in (2, 3, 4):
        s = edgewise_subdivision(standard_circle(3 * r - 1), r)
        census = s.nondegenerate_census()
        assert census[0] == r and census[1] == r
        assert all(x == 0 for x in census[2:])


def test_last_face_identity_r2_r3():
    for r in (2, 3):
        s = edgewise_subdivision(standard_circle(6 * r - 1), r)
        assert s.truncation >= 5
        assert verify_last_face_identity(s) == []


def test_corrupted_face_detected():
    s = edgewise_subdivision(standard_circle(5), 2)
    s.faces[1][0] = list(s.faces[1][0])
    s.faces[1][0][1] = s.faces[1][0][1] ^ 1  # flip one image
    fails = s.identity_failures() or verify_last_face_identity(s)
    assert fails


def _copy(x):
    return SimplicialGSet(
        x.order,
        x.truncation,
        x.levels,
        [None] + [[list(op) for op in lvl] for lvl in x.faces[1:]],
        [[list(op) for op in lvl] for lvl in x.degeneracies],
        [list(a) for a in x.action],
        x.cyclic,
    )


def test_corrupted_degeneracy_named_with_first_simplex():
    # level 2 of the standard circle is g0, g1, g2 and d0 sends it to g0, g0, g1;
    # sending g1 to g1 instead of g2 under s0 breaks d0 s0 = id on g1 only
    s = _copy(standard_circle(2))
    s.degeneracies[1][0][1] = 1
    fails = s.identity_failures()
    assert "d0 s0 at level 1 on g1" in fails
    assert all(f.endswith(" on g1") for f in fails)
    with pytest.raises(NotSimplicial, match="d0 s0 at level 1 on g1"):
        s.validate()


def test_non_simplicial_action_named_with_first_simplex():
    # the trivial action on the edges has order dividing 2, but the faces of
    # a fixed edge land on two vertices that the rotation swaps
    s = _copy(p_circle(2, 1))
    s.action[1] = list(range(s.size(1)))
    fails = s.identity_failures()
    assert "action vs d0 at level 1 on g0" in fails
    assert "action vs s0 at level 0 on g0" in fails
    assert not any(f.startswith("action order") for f in fails)


def test_non_natural_map_names_the_face():
    # swapping the two vertices but fixing every edge breaks d0 on the first edge
    c = p_circle(2, 1)
    mapping = identity_simplicial_map(c).mapping
    mapping[0] = [1, 0]
    with pytest.raises(NotSimplicial, match="not simplicial: d0 at level 1 on g0"):
        SimplicialMap(c, c, mapping).validate(equivariant=False)


def test_insufficient_truncation():
    with pytest.raises(InsufficientTruncation):
        edgewise_subdivision(standard_circle(2), 2)


def test_p_circle_levels_free_orbits():
    for p in (2, 3):
        c = p_circle(p, 3)
        for k in range(4):
            assert c.size(k) == p * (k + 1)
            assert len(c.orbit_representatives(k)) == k + 1
        assert c.action_is_free()


# ---------------------------------------------------------------------------
# wedges and the fold map


def test_wedge_census():
    w = circle_wedge(2, 2).space
    census = w.nondegenerate_census()
    assert census[0] == 2 and census[1] == 4
    assert w.identity_failures() == []
    assert w.action_is_free()


def test_wedge_with_orbit_is_unital():
    c = p_circle(2, 2)
    orbit_in_c = circle_orbit_inclusion(c)
    w = wedge_over_orbit(orbit_in_c, identity_simplicial_map(discrete_orbit(2, 2)))
    # gluing the orbit itself back on changes nothing
    for n in range(3):
        assert w.space.size(n) == c.size(n)
    assert w.include_left.is_bijective()


def test_fold_unitality():
    for p in (2, 3):
        w = circle_wedge(p, 2)
        fold = fold_map(w)
        # including one circle and folding is the identity on that circle
        left = fold.compose(w.include_left)
        assert left.equals(identity_simplicial_map(w.include_left.source))
        right = fold.compose(w.include_right)
        assert right.equals(identity_simplicial_map(w.include_right.source))


def test_fold_commutativity():
    for p in (2, 3):
        w = circle_wedge(p, 2)
        fold = fold_map(w)
        # the swap fixes glued points, which carry left labels; build it from
        # the two inclusions instead of labels
        mapping = []
        for n in range(w.space.truncation + 1):
            out = [None] * w.space.size(n)
            for v in range(w.include_left.source.size(n)):
                out[w.include_left.mapping[n][v]] = w.include_right.mapping[n][v]
            for v in range(w.include_right.source.size(n)):
                out[w.include_right.mapping[n][v]] = w.include_left.mapping[n][v]
            mapping.append(out)
        swap = SimplicialMap(w.space, w.space, mapping).validate()
        assert fold.compose(swap).equals(fold)


def test_fold_associativity_square_commutes():
    for p in (2, 3):
        left_first, right_first, iso = triple_wedge_rebracket(p, 2)
        assert iso.is_bijective()
        base = circle_wedge(p, 2)
        triple = left_first.space
        fold = fold_map(base)

        def fold_first_two(lbl):
            if lbl.startswith("a:a:") or lbl.startswith("a:b:"):
                return "a:" + lbl[4:]
            return "b:" + lbl[2:]

        def fold_last_two(lbl):
            if lbl.startswith("a:a:"):
                return "a:" + lbl[4:]
            if lbl.startswith("a:b:"):
                return "b:" + lbl[4:]
            return "b:" + lbl[2:]

        outer = relabel_map(triple, base.space, fold_first_two)
        inner = relabel_map(triple, base.space, fold_last_two)
        assert not outer.equals(inner)  # the two partial folds differ
        assert fold.compose(outer).equals(fold.compose(inner))


# ---------------------------------------------------------------------------
# pinch and counit


def test_pinch_p2_matches_hand_picture():
    qmap, comparison, verdict = pinch_candidate(2)
    assert not verdict.equivariant
    # the image action fixes both glued vertex classes and swaps edges
    assert verdict.fixed_vertices == ["g0", "g1"]
    assert verdict.image_vertex_cycle == [0, 1]
    assert verdict.expected_vertex_cycle == [1, 0]
    assert verdict.witness_simplex is not None


def test_pinch_p3_rotation_by_two_steps():
    qmap, comparison, verdict = pinch_candidate(3)
    assert not verdict.equivariant
    # rotation by two steps instead of one
    assert verdict.image_vertex_cycle == [2, 0, 1]
    assert verdict.expected_vertex_cycle == [1, 2, 0]
    assert verdict.fixed_vertices == []


def test_pinch_image_is_nondegenerate_wedge_shape():
    qmap, comparison, verdict = pinch_candidate(2)
    q = qmap.target
    census = q.nondegenerate_census()
    assert census[0] == 2 and census[1] == 4


def test_no_equivariant_collapse():
    for p in (2, 3):
        rep = no_equivariant_collapse(p)
        assert rep["connected"]
        assert rep["orbit_fixed_points"] == []
        assert not rep["exists"]


# ---------------------------------------------------------------------------
# tensoring a Green functor with the circle


GREENS = {
    "f4": f4_frobenius_green,
    "burnside_2": lambda: burnside_green(2),
    "constant_3_9": lambda: constant_green(3, 9),
    "field_top_2_2": lambda: field_top_green(2, 2),
}


@pytest.mark.parametrize("name", sorted(GREENS))
def test_tensor_green_levels_and_identities(name):
    # the construction checks the identities on orbit assignments and the
    # ring on its pairing only; the Mackey-level check decides the identities
    # again on the composed maps, and every face and degeneracy has the
    # squares that its constructor does not check
    g = GREENS[name]()
    sm = tensor_green_with_circle(g, p_circle(g.prime, 3), 3)
    assert [lvl.arity for lvl in sm.levels] == [1, 2, 3, 4]
    assert sm.identity_failures() == []
    for key, f in list(sm.faces.items()) + list(sm.degeneracies.items()):
        assert f.compatibility_failures() == [], key


def test_tensor_green_requires_free_action():
    g = field_top_green(2, 2)
    with pytest.raises(NotFreeAction):
        tensor_green_with_circle(g, standard_circle(4), 2)


def test_tensor_green_level0_face_pair_has_twist():
    # at the bottom level the two faces from level 1 are multiplication and
    # twisted multiplication; for a functor with trivial action they agree
    g = constant_green(2, 3)
    circle = p_circle(2, 2)
    sm = tensor_green_with_circle(g, circle, 2)
    d0 = sm.faces[(1, 0)]
    d1 = sm.faces[(1, 1)]
    assert d0.equals(d1)  # trivial action: twist invisible
    g4 = f4_frobenius_green()
    sm4 = tensor_green_with_circle(g4, circle, 2)
    assert not sm4.faces[(1, 0)].equals(sm4.faces[(1, 1)])  # twist is visible


def test_swapped_faces_fail_mackey_identities():
    # with d0 and d1 out of level 2 swapped, d0 d2 = d1 d0 compares d0 d2 with
    # d1 d2, and d0 s1 = s0 d0 compares the identity with s0 d0; d2 is split
    # by s1 and d0 != d1 for the twisted F_4 ring, so both fail
    sm = tensor_green_with_circle(f4_frobenius_green(), p_circle(2, 2), 2)
    faces = dict(sm.faces)
    faces[(2, 0)], faces[(2, 1)] = sm.faces[(2, 1)], sm.faces[(2, 0)]
    fails = SimplicialMackey(sm.truncation, sm.levels, faces, sm.degeneracies).identity_failures()
    assert "d0 d2 at level 2" in fails
    assert "d0 s1 at level 1" in fails


def _twist_moved(circle, k):
    """A copy of ``circle`` whose last face out of level k twists the orbit
    of the first vertex instead of the orbit of the last: both orbits are
    mapped on by one more step of the action, which for p = 2 moves the
    twist of the seam from one slot to the other."""
    x = _copy(circle)
    act = x.action[k - 1]
    reps = x.orbit_representatives(k)
    moved = set()
    for rep in (reps[0], reps[-1]):
        v = rep
        while v not in moved:
            moved.add(v)
            v = x.action[k][v]
    x.faces[k][k] = [act[w] if v in moved else w for v, w in enumerate(x.faces[k][k])]
    return x


def test_moved_twist_raises_not_simplicial():
    circle = _twist_moved(p_circle(2, 2), 2)
    assert circle.action_is_free()
    with pytest.raises(NotSimplicial, match="orbit assignments of the circle fail"):
        tensor_green_with_circle(f4_frobenius_green(), circle, 2)


def test_non_associative_ring_raises_not_a_module():
    # F_2 <1, x, y> with x x = y, y y = x and x y = y x = 0 is commutative
    # and unital, but (x x) y = x while x (x y) = 0; with the trivial action
    # every pairing law holds, so only associativity fails
    v = FGAbPresentation(3, IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    products = {(0, j): j for j in range(3)}
    products.update({(1, 0): 1, (2, 0): 2, (1, 1): 2, (2, 2): 1})
    cols = [
        tuple(int(products.get((i, j)) == c) for c in range(3))
        for i in range(3)
        for j in range(3)
    ]
    g = fixed_point_green(2, v, identity_hom(v), IntMatrix.from_columns(cols, 3), (1, 0, 0))
    with pytest.raises(NotAModule, match="not associative"):
        tensor_green_with_circle(g, p_circle(2, 2), 2)


def test_left_unit_only_ring_raises_not_a_module():
    # F_2 <e, x> with e e = e, e x = x and x e = x x = 0 is associative and
    # e is a left unit, but x e = 0: d_0 s_0 multiplies by 1 on the right,
    # so the tensor would not be simplicial
    v = FGAbPresentation(2, IntMatrix([[2, 0], [0, 2]]))
    mult = IntMatrix.from_columns([(1, 0), (0, 1), (0, 0), (0, 0)], 2)
    g = fixed_point_green(2, v, identity_hom(v), mult, (1, 0))
    with pytest.raises(NotAModule, match="not a right unit"):
        tensor_green_with_circle(g, p_circle(2, 2), 2)


def _moore_homology(sm):
    """Homology of the Moore complex of ``sm``: degree n is level n and the
    differential is the alternating sum of the faces out of it.  By
    Dold-Kan it is the homology of the simplicial object below the
    truncation; the top degree only sees cycles."""
    objects = {n: lvl.result for n, lvl in enumerate(sm.levels)}
    differentials = {}
    for n in range(1, sm.truncation + 1):
        d = sm.faces[(n, 0)]
        for i in range(1, n + 1):
            d = d + sm.faces[(n, i)].scale((-1) ** i)
        differentials[n] = d
    return homology_of_complex(MackeyChainComplex(0, sm.truncation, objects, differentials))


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_burnside_circle_tensor_is_the_unit_in_homology(t):
    # the Burnside functor is the unit for the box product, so every level is
    # A and the faces are identities: d_n is 0 for odd n and the identity for
    # even n, leaving H_0 = A and nothing else below the truncation
    h = _moore_homology(tensor_green_with_circle(burnside_green(2), p_circle(2, t), t))
    assert canonical_levels(h[0]) == canonical_levels(burnside(2))
    for n in range(1, t):
        assert h[n].is_zero()


@pytest.mark.parametrize("t", [1, 2, 3])
def test_f4_circle_tensor_bottom_is_twisted_hochschild(t):
    # the bottom level is the cyclic bar construction of F_4 over F_2 with the
    # Frobenius on the seam face, so its homology is the sigma-twisted
    # Hochschild homology of F_4, zero in every degree because F_4 is
    # separable and sigma is not the identity (Weibel, section 9.2); an
    # untwisted or misplaced twist leaves F_4 in degree 0
    h = _moore_homology(tensor_green_with_circle(f4_frobenius_green(), p_circle(2, t), t))
    for n in range(t):
        assert h[n].bottom.is_zero_group()
