"""Green functors, their modules and ideals, and Mackey-field detection.

A Green functor is a Mackey functor with a unit map from the Burnside
functor and a multiplication pairing.  Field detection is exact on finite
levels: a commutative Green functor is a field when every nonzero element
generates the whole functor as an ideal, which one closure per element
decides on tabulated level maps, and otherwise the first proper closure is
the witness ideal.  The classification of fields into the two normal forms
(concentrated at the fixed orbit, or the fixed points of a ring with
action) is then checked against actual data rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .boxtensor import BilinearPairing, pairing_from_matrices, relative_box_raw
from .errors import (
    InfiniteGroup,
    NotAModule,
    NotCommutative,
    UnclassifiableShape,
    ZeroFunctor,
)
from .exactlin import (
    AbHom,
    FGAbPresentation,
    _apply,
    _image_table,
    cyclic_group,
    finite_model,
    first_nonzero_column,
    identity_hom,
    quotient_by_subgroup,
    span_key,
    vector_tensor,
)
from .intlinalg import IntMatrix
from .mackey import (
    MackeyFunctor,
    MackeyMap,
    Subfunctor,
    ValidationCheck,
    ValidationReport,
    _every_element_generates,
    _fixed_points,
    _hom_eq_check,
    burnside,
    constant,
    j_top,
    validate_mackey,
)


@dataclass(frozen=True)
class GreenFunctor:
    underlying: MackeyFunctor
    unit: MackeyMap  # from burnside(p)
    mult: BilinearPairing

    @property
    def prime(self):
        return self.underlying.prime

    def one_top(self):
        """Coordinates of the multiplicative unit at the fixed orbit."""
        return self.unit.f_top.matrix.column(0)

    def one_bot(self):
        return self.unit.f_bot.matrix.column(0)

    def is_commutative(self):
        """Whether x * y = y * x at both levels, decided on generators;
        raises ``IncompatiblePairing`` for an invalid multiplication."""
        self.mult.validate()
        return _commutativity(self).passed

    def _levels(self):
        m = self.underlying
        return (m.top, self.mult.f_top.matrix), (m.bottom, self.mult.f_bot.matrix)

    @cached_property
    def _left_tables(self):
        """Per level (top, bottom), the ``_product_tables`` of x -> e_i * x.
        Built on first use and kept outside equality and hashing, like
        ``FGAbPresentation._smith``."""
        return tuple(_product_tables(mult, pres, pres, pres) for pres, mult in self._levels())

    @cached_property
    def _ideal_tables(self):
        """Per level, the ``_left_tables`` and then the ``_product_tables`` of
        x -> x * e_i, kept like ``_left_tables``."""
        return tuple(
            left + _product_tables(_swapped(mult, pres.num_generators, pres.num_generators),
                                   pres, pres, pres)
            for left, (pres, mult) in zip(self._left_tables, self._levels())
        )

    def to_json(self):
        d = self.underlying.to_json()
        d["unit"] = self.unit.to_json()
        d["mult_top"] = self.mult.f_top.matrix.to_lists()
        d["mult_bot"] = self.mult.f_bot.matrix.to_lists()
        return d


def green_from_mult(m: MackeyFunctor, one_top_vec, top_matrix, bot_matrix) -> GreenFunctor:
    """Assemble a Green functor from the unit element and pairing matrices."""
    a = burnside(m.prime)
    one_top = tuple(one_top_vec)
    one_bot = m.res(one_top)
    unit_top_cols = [one_top, m.tr(one_bot)]
    unit = MackeyMap(
        a,
        m,
        AbHom(a.top, m.top, IntMatrix.from_columns(unit_top_cols, m.top.num_generators)),
        AbHom(a.bottom, m.bottom, IntMatrix.from_columns([one_bot], m.bottom.num_generators)),
    )
    mult = pairing_from_matrices(m, m, m, top_matrix, bot_matrix)
    return GreenFunctor(m, unit, mult)


def validate_green(g: GreenFunctor) -> ValidationReport:
    """Pairing compatibility and the Mackey axioms; when both pass, then
    associativity, unitality (1 * x = x), right unitality (x * 1 = x) and
    commutativity, decided level by level on the pairing matrices (README,
    "Green axioms on generators")."""
    checks = []
    bad = g.mult.check()
    checks.append(
        ValidationCheck("pairing_compatible", not bad, f"violated: {bad}" if bad else "")
    )
    base = validate_mackey(g.underlying)
    checks.append(
        ValidationCheck(
            "underlying_axioms", base.passed, "; ".join(c.name for c in base.failures())
        )
    )
    if bad or not base.passed:
        return ValidationReport(tuple(checks))

    checks.extend(_action_laws(g, g.mult))
    checks.append(_right_unitality(g))
    checks.append(_commutativity(g))
    return ValidationReport(tuple(checks))


def _levels_agree(name, comparisons):
    """ValidationCheck ``name``: in each (level, target, f, g), f and g agree
    modulo the relations of ``target``; a failure names the first column
    that differs."""
    for level, target, f, g in comparisons:
        check = _hom_eq_check(name, target, f, g)
        if not check.passed:
            return ValidationCheck(name, False, f"{level} {check.witness}")
    return ValidationCheck(name, True)


def _action_laws(ring: GreenFunctor, action: BilinearPairing):
    """(associativity, unitality) checks of a left action of ``ring``.

    At each level, m -> x * m is action @ (x (x) I).  So (x y) m = x (y m)
    on generators is action @ (mult (x) I) = action @ (I (x) action), whose
    (i, j) blocks are sum_a (e_i e_j)_a A_a = A_i A_j with A_a = m -> e_a * m,
    and 1 m = m is action @ (one (x) I) = I.
    """
    assoc, unit = [], []
    for level, one, mult, act, carrier in (
        ("top", ring.one_top(), ring.mult.f_top.matrix, action.f_top.matrix, action.target.top),
        ("bottom", ring.one_bot(), ring.mult.f_bot.matrix, action.f_bot.matrix,
         action.target.bottom),
    ):
        n, ident = mult.nrows, IntMatrix.identity(carrier.num_generators)
        nested = act @ IntMatrix.identity(n).kron(act)
        assoc.append((level, carrier, act @ mult.kron(ident), nested))
        unit.append((level, carrier, act @ IntMatrix.from_columns([one], n).kron(ident), ident))
    return _levels_agree("associativity", assoc), _levels_agree("unitality", unit)


def _right_unitality(g: GreenFunctor):
    """x * 1 = x on generators: at each level the pairing with its factors
    swapped, applied to 1 (x) I, is the identity.  ``_action_laws`` checks
    only the left unit, which is all a module needs."""
    m = g.underlying
    comparisons = []
    for level, pres, one, mult in (
        ("top", m.top, g.one_top(), g.mult.f_top.matrix),
        ("bottom", m.bottom, g.one_bot(), g.mult.f_bot.matrix),
    ):
        n = pres.num_generators
        ident = IntMatrix.identity(n)
        times_one = _swapped(mult, n, n) @ IntMatrix.from_columns([one], n).kron(ident)
        comparisons.append((level, pres, times_one, ident))
    return _levels_agree("right_unitality", comparisons)


def _commutativity(g: GreenFunctor):
    """x * y = y * x on generators: at each level the pairing matrix equals
    its swap, that is, e_i * x = x * e_i for every generator e_i."""
    m = g.underlying
    comparisons = [
        (level, pres, mult, _swapped(mult, pres.num_generators, pres.num_generators))
        for level, pres, mult in (
            ("top", m.top, g.mult.f_top.matrix),
            ("bottom", m.bottom, g.mult.f_bot.matrix),
        )
    ]
    return _levels_agree("commutativity", comparisons)


# ---------------------------------------------------------------------------
# built-in Green functors


def burnside_green(p) -> GreenFunctor:
    """Burnside functor with the Cartesian-product ring structure."""
    a = burnside(p)
    # top basis: y = fixed orbit class (the unit), z = free orbit class
    # y*y = y, y*z = z*y = z, z*z = p z
    cols = {
        (0, 0): (1, 0),
        (0, 1): (0, 1),
        (1, 0): (0, 1),
        (1, 1): (0, p),
    }
    top = IntMatrix.from_columns([cols[(i, j)] for i in range(2) for j in range(2)], 2)
    bot = IntMatrix([[1]])
    return green_from_mult(a, (1, 0), top, bot)


def constant_green(p, n) -> GreenFunctor:
    """Constant functor on Z or Z/n with levelwise multiplication."""
    m = constant(p, n)
    return green_from_mult(m, (1,), IntMatrix([[1]]), IntMatrix([[1]]))


def field_top_green(p, q) -> GreenFunctor:
    """Concentrated functor with F_q at the fixed orbit (q prime)."""
    m = j_top(p, cyclic_group(q))
    return green_from_mult(m, (1,), IntMatrix([[1]]), IntMatrix.zeros(0, 0))


def fixed_point_green(p, v: FGAbPresentation, gamma: AbHom, bot_mult: IntMatrix,
                      one_bot_vec) -> GreenFunctor:
    """Fixed-point functor of a ring with order-p action.

    ``bot_mult`` is the multiplication on v in generator coordinates and
    ``one_bot_vec`` its unit; the fixed-level multiplication is derived by
    corestriction.  The underlying functor is ``j_bottom(p, v, gamma)``, and
    the fixed products and the unit are solved with its transfer, from one
    Smith form.
    """
    def products_and_unit(fixed):
        return [_bilinear_vec(bot_mult, x, y) for x in fixed for y in fixed] + [one_bot_vec]

    m, (*top_cols, one_top) = _fixed_points(p, v, gamma, products_and_unit)
    if None in top_cols:
        raise NotAModule("fixed level is not closed under multiplication")
    if one_top is None:
        raise NotAModule("ring unit is not fixed by the action")
    top_mult = IntMatrix.from_columns(top_cols, m.top.num_generators)
    return green_from_mult(m, one_top, top_mult, bot_mult)


def f4_frobenius_green() -> GreenFunctor:
    """The Galois field with four elements under conjugation, over C_2."""
    v = FGAbPresentation(2, IntMatrix([[2, 0], [0, 2]]))
    frob = AbHom(v, v, IntMatrix([[1, 1], [0, 1]]))
    cols = {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (1, 1)}
    mult = IntMatrix.from_columns([cols[(i, j)] for i in range(2) for j in range(2)], 2)
    return fixed_point_green(2, v, frob, mult, (1, 0))


def _bilinear_vec(matrix, x, y):
    return _apply(matrix, vector_tensor(x, y))


def _product_tables(mult, ring_level, level, target_level):
    """One ``_image_table`` from ``level`` to ``target_level`` per generator
    e_i of ``ring_level``: the position of e_i * y for each element y.

    Column i * n + j of the pairing matrix ``mult`` is e_i * f_j, with n the
    number of generators f_j of ``level``, so the map y -> e_i * y is a
    block of n consecutive columns.
    """
    n = level.num_generators
    model, target_model = finite_model(level), finite_model(target_level)
    blocks = (IntMatrix([row[i * n : (i + 1) * n] for row in mult.rows], n)
              for i in range(ring_level.num_generators))
    return [_image_table(block, model, target_model) for block in blocks]


def _swapped(matrix, n_left, n_right):
    """The matrix of (y, x) -> x * y, given that of (x, y) -> x * y."""
    return IntMatrix.from_columns(
        [matrix.column(j * n_right + i) for i in range(n_right) for j in range(n_left)],
        matrix.nrows,
    )


# ---------------------------------------------------------------------------
# modules over Green functors


@dataclass(frozen=True)
class GreenModule:
    ring: GreenFunctor
    carrier: MackeyFunctor
    action: BilinearPairing  # (ring, carrier) -> carrier, left action

    def validate(self):
        """``self``, or ``NotAModule`` for the first failing law: the
        pairing laws, the unit, then associativity as in ``validate_green``."""
        bad = self.action.check()
        if bad:
            raise NotAModule(f"action pairing violates conditions {bad}")
        assoc, unit = _action_laws(self.ring, self.action)
        if not unit.passed:
            raise NotAModule(f"unit does not act as the identity: {unit.witness}")
        if not assoc.passed:
            raise NotAModule(f"action is not associative over the ring: {assoc.witness}")
        return self


def self_module(g: GreenFunctor) -> GreenModule:
    return GreenModule(g, g.underlying, g.mult)


def right_action_of(module: GreenModule) -> BilinearPairing:
    """Right action (carrier, ring) -> carrier from a left module over a
    commutative ring, by swapping the tensor factors."""
    r, m, act = module.ring.underlying, module.carrier, module.action
    return pairing_from_matrices(
        m,
        r,
        m,
        _swapped(act.f_top.matrix, r.top.num_generators, m.top.num_generators),
        _swapped(act.f_bot.matrix, r.bottom.num_generators, m.bottom.num_generators),
    )


@dataclass(frozen=True)
class TwistedModule:
    """A module with its ring action twisted by a power of the group action."""

    base: GreenModule
    twist: int

    def action_pairing(self) -> BilinearPairing:
        t = self.twist % self.base.ring.prime
        r = self.base.ring.underlying
        act = self.base.action
        twisted_bot = act.f_bot.matrix @ r.weyl.matrix.power(t).kron(
            IntMatrix.identity(self.base.carrier.bottom.num_generators)
        )
        return pairing_from_matrices(
            r, self.base.carrier, self.base.carrier, act.f_top.matrix, twisted_bot
        )

    def as_module(self) -> GreenModule:
        return GreenModule(self.base.ring, self.base.carrier, self.action_pairing())


def relative_box(left: GreenModule, right_carrier_module: GreenModule, limit=None):
    """Coequalizer box product of a right and a left module over one ring."""
    if left.ring != right_carrier_module.ring:
        raise NotAModule("modules are over different rings")
    left.validate()
    right_carrier_module.validate()
    right_pairing = right_action_of(left)
    return relative_box_raw(
        left.carrier,
        right_carrier_module.carrier,
        right_pairing,
        right_carrier_module.action,
        limit=limit,
    )


# ---------------------------------------------------------------------------
# ideals and fields


def is_ideal(g: GreenFunctor, sub: Subfunctor):
    """(flag, witness string): whether ``sub`` is a two-sided ideal of ``g``.

    At each level, ``sub`` must be closed under x -> e_i * x and x -> x * e_i
    for every generator e_i of that level of the ring.  The pairing is
    bilinear and each level of ``sub`` is a subgroup, so this holds exactly
    when every product of a ring element and an element of ``sub``, on
    either side, lies in ``sub``.  The witness is the first escape found by
    ``_first_escape``, computed in generator coordinates for that one
    element only.  No presentation of ``sub`` is built.
    """
    escape = _first_escape(g, sub)
    if escape is None:
        return True, ""
    level, i, x = escape
    pres, mult = g._levels()[level]
    n = pres.num_generators
    e, y = IntMatrix.identity(n).rows[i % n], finite_model(pres).lift(x)
    prod = _bilinear_vec(mult, e, y) if i < n else _bilinear_vec(mult, y, e)
    return False, f"{('top', 'bottom')[level]} product {list(prod)} escapes the subfunctor"


def _first_escape(g: GreenFunctor, sub: Subfunctor):
    """The first (level, table, position) at which ``sub`` is not closed
    under ``g``'s products, or None for an ideal.

    Levels run top then bottom (0, 1), tables in the order of
    ``GreenFunctor._ideal_tables`` (left products, then right ones), and
    positions of ``sub`` in ascending order, which is the order of sorted
    canonical coordinates.  Each map is
    tabulated once per ring, so the test is one lookup per position.
    """
    levels = (sub.top_positions, sub.bottom_positions)
    for level, (tables, positions) in enumerate(zip(g._ideal_tables, levels)):
        ordered = sorted(positions)
        for i, table in enumerate(tables):
            x = next((x for x in ordered if table[x] not in positions), None)
            if x is not None:
                return level, i, x
    return None


@dataclass(frozen=True)
class FieldVerdict:
    is_field: bool
    witness: Subfunctor | None

    def to_json(self):
        out = {"verdict": "Field" if self.is_field else "NotField"}
        if self.witness is not None:
            out["witness"] = {
                "top": sorted(list(c) for c in self.witness.top_elements),
                "bottom": sorted(list(c) for c in self.witness.bottom_elements),
                "levels": [
                    list(self.witness.functor.top.canonical()[1]),
                    list(self.witness.functor.bottom.canonical()[1]),
                ],
            }
        return out


def is_mackey_field(g: GreenFunctor) -> FieldVerdict:
    """Whether ``g`` has no proper nonzero ideal, with a deterministic witness.

    A commutative Green functor has a proper nonzero ideal exactly when some
    nonzero element generates a proper ideal (Nakaoka, "Ideals of Tambara
    functors", Adv. Math. 230, 2012), so the verdict is decided by one
    closure per element (``_every_element_generates``), with no lattice, on
    the two levels joined by res, tr and the action, each with its left
    products by the ring's generators (enough, as ``g`` is commutative).
    The top unit goes first, then the top and the bottom elements in
    ascending position; the bottom unit need not generate everything: in
    ``constant_green(2, 2)`` the transfer is zero, and the ideal of 1_bot is
    (0, Z/2).  The witness is the first closure that is proper: the ideal
    generated by one element, so an ideal, nonzero, and proper.
    """
    m = g.underlying
    if m.is_zero():
        raise ZeroFunctor("the zero functor is not a Mackey field")
    if not m.levels_finite():
        raise InfiniteGroup("field detection requires finite levels")
    if not g.is_commutative():
        raise NotCommutative("field detection requires a commutative Green functor")
    top, bottom, res, tr, weyl = m._tables
    left_top, left_bottom = g._left_tables
    maps = [[(1, [res]), (0, left_top)], [(0, [tr]), (1, [weyl] + left_bottom)]]
    one = (0, top.position(g.one_top()))
    ideal = _every_element_generates([top, bottom], maps, one)
    if ideal is None:
        return FieldVerdict(True, None)
    return FieldVerdict(False, Subfunctor(m, *ideal))


@dataclass(frozen=True)
class FieldShape:
    kind: str  # "concentrated" or "fixed_point"
    field: GreenFunctor
    # concentrated: the field lives at the fixed orbit
    # fixed_point: ring with action at the free orbit, fixed subring above
    ring_presentation: FGAbPresentation
    ring_mult: IntMatrix
    action: AbHom
    characteristic: int

    def to_json(self):
        return {
            "shape": self.kind,
            "level_group": list(self.ring_presentation.canonical()[1]),
            "characteristic": self.characteristic,
        }


def top_level_is_field(g: GreenFunctor) -> bool:
    """Whether the fixed-orbit ring is a field: 1 != 0, and each nonzero x
    has a left inverse, that is, its ``_closure`` under the left products
    by the ring's generators, the left ideal Rx, is the whole ring.  A
    finite ring with left inverses is a division ring, so a field
    (Wedderburn)."""
    m = g.underlying
    if not m.top.is_finite():
        raise InfiniteGroup("top level must be finite")
    model = finite_model(m.top)
    one = model.position(g.one_top())
    if one == 0:  # the zero is position 0, and the zero ring is not a field
        return False
    products = _product_tables(g.mult.f_top.matrix, m.top, m.top, m.top)
    return _every_element_generates([model], [[(0, products)]], (0, one)) is None


def _additive_exponent(pres):
    facs = pres.invariant_factors
    return facs[-1] if facs else 1


def classify_field_shape(g: GreenFunctor) -> FieldShape:
    """Match a verified Mackey field against the two normal forms.

    The levels must be finite (``InfiniteGroup`` otherwise).  The fixed-point
    form is read from the level tables ``MackeyFunctor._tables``: restriction
    is injective when its table has as many distinct entries as the top has
    elements, and its image is the fixed subgroup when those entries are
    the positions that the Weyl table fixes.
    """
    m = g.underlying
    if m.bottom.is_zero_group():
        if not top_level_is_field(g):
            raise UnclassifiableShape("bottom level vanishes but the top is not a field")
        return FieldShape(
            "concentrated",
            g,
            m.top,
            g.mult.f_top.matrix,
            identity_hom(m.top),
            _additive_exponent(m.top),
        )
    # fixed-point shape: res injective onto the fixed subgroup, orbit-sum
    # transfer, decided on the level tables
    if not m.levels_finite():
        raise InfiniteGroup("shape classification requires finite levels")
    top, _, res, _, weyl = m._tables
    image = set(res)
    if len(image) != top.order():
        raise UnclassifiableShape("restriction is not injective")
    if image != {x for x, y in enumerate(weyl) if x == y}:
        raise UnclassifiableShape("restriction image differs from the fixed subgroup")
    if m.tr.is_zero():
        raise UnclassifiableShape("fixed-point shape requires a nonzero transfer")
    if not top_level_is_field(g):
        raise UnclassifiableShape("fixed subring is not a field")
    return FieldShape(
        "fixed_point",
        g,
        m.bottom,
        g.mult.f_bot.matrix,
        m.weyl,
        _additive_exponent(m.bottom),
    )


# ---------------------------------------------------------------------------
# generated ideals (witness probe for infinite levels)


def ideal_generated_by(m: MackeyFunctor, mult: BilinearPairing, level, element_vec):
    """Smallest subfunctor pair containing the element and closed under the
    maps and the ring action; works for infinite levels (Noetherian levels).

    Returns (top_generator_rows, bottom_generator_rows).
    """
    top_gens = [tuple(element_vec)] if level == "top" else []
    bot_gens = [tuple(element_vec)] if level == "bottom" else []
    ring_top = IntMatrix.identity(m.top.num_generators).rows
    ring_bot = IntMatrix.identity(m.bottom.num_generators).rows

    # a key spans its rows plus the relations, so it is its own key: each
    # round keys only the grown generating sets, and compares with the last
    before = (span_key(m.top, top_gens), span_key(m.bottom, bot_gens))
    while True:
        new_top = list(top_gens)
        new_bot = list(bot_gens)
        for s in bot_gens:
            new_top.append(m.tr(s))
            new_bot.append(m.weyl(s))
            for r in ring_bot:
                new_bot.append(_bilinear_vec(mult.f_bot.matrix, r, s))
        for s in top_gens:
            new_bot.append(m.res(s))
            for r in ring_top:
                new_top.append(_bilinear_vec(mult.f_top.matrix, r, s))
        after = (span_key(m.top, new_top), span_key(m.bottom, new_bot))
        top_gens, bot_gens = ([list(r) for r in key] for key in after)
        if after == before:
            return top_gens, bot_gens
        before = after


def subgroup_is_full(pres, rows):
    """True when the given element rows generate the whole group."""
    return quotient_by_subgroup(pres, rows)[0].is_zero_group()


def subgroup_is_zero(pres, rows):
    """True when every given element row is zero in ``pres``."""
    return first_nonzero_column(pres, IntMatrix.from_columns(rows, pres.num_generators)) is None
