"""C_p Mackey functors in two-level normal form.

A functor is a pair of presented abelian groups, the value at the fixed
orbit ("top") and at the free orbit ("bottom"), with transfer, restriction
and Weyl maps subject to the usual axioms: the Weyl action has order p,
restriction followed by transfer is the Weyl-orbit sum, and transfer and
restriction absorb the action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import (IllFormedHom, InfiniteGroup, LevelMismatch, NotAComplex, NotAMackeyMap,
                     NotAnAction, NotPrime, PrimeMismatch)
from .exactlin import (
    AbHom,
    FGAbPresentation,
    _image_table,
    _lattice,
    _same_ends,
    _unchecked,
    cyclic_group,
    direct_sum,
    factor_through_injection,
    finite_model,
    first_nonzero_column,
    free_group,
    hom_cokernel,
    hom_kernel,
    identity_hom,
    solve_membership,
    subgroup_presentation,
    zero_group,
    zero_hom,
)
from .intlinalg import IntMatrix


def _is_prime(p):
    if not isinstance(p, int) or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def require_prime(p):
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")


def _same_prime(p, q):
    if p != q:
        raise PrimeMismatch(f"degrees or functors over C_{p} and C_{q} do not combine")


@dataclass(frozen=True)
class MackeyFunctor:
    prime: int
    top: FGAbPresentation
    bottom: FGAbPresentation
    tr: AbHom  # bottom -> top
    res: AbHom  # top -> bottom
    weyl: AbHom  # bottom -> bottom, generator action

    def __post_init__(self):
        for name, source, target in (("tr", "bottom", "top"), ("res", "top", "bottom"),
                                     ("weyl", "bottom", "bottom")):
            hom = getattr(self, name)
            if (hom.source, hom.target) != (getattr(self, source), getattr(self, target)):
                raise LevelMismatch(f"{name} must run from the {source} to the {target} level")

    @cached_property
    def _axioms(self):
        """The ``validate_mackey`` report, decided on first use.  It is kept
        in the instance ``__dict__``, outside the dataclass fields, like
        ``FGAbPresentation._reducer``: equality, hashing and ``to_json``
        ignore it, and it is freed with the functor."""
        p, top, bottom = self.prime, self.top, self.bottom
        tr, res, weyl = self.tr.matrix, self.res.matrix, self.weyl.matrix
        return ValidationReport((
            _hom_eq_check("weyl_order_p", bottom, weyl.power(p), IntMatrix.identity(weyl.nrows)),
            _hom_eq_check("res_tr_is_orbit_sum", bottom, res @ tr, orbit_sum(weyl, p)),
            _hom_eq_check("tr_weyl_is_tr", top, tr @ weyl, tr),
            _hom_eq_check("weyl_res_is_res", bottom, weyl @ res, res),
        ))

    @cached_property
    def _tables(self):
        """(top model, bottom model, res, tr, weyl): the finite models of
        the levels and the level maps as ``_image_table``s, built on first
        use and kept like ``_axioms``."""
        tm = finite_model(self.top)
        bm = finite_model(self.bottom)
        res = _image_table(self.res.matrix, tm, bm)
        tr = _image_table(self.tr.matrix, bm, tm)
        weyl = _image_table(self.weyl.matrix, bm, bm)
        return tm, bm, res, tr, weyl

    def is_zero(self):
        return self.top.is_zero_group() and self.bottom.is_zero_group()

    def levels_finite(self):
        return self.top.is_finite() and self.bottom.is_finite()

    def to_json(self):
        return {
            "prime": self.prime,
            "top": self.top.to_json(),
            "bottom": self.bottom.to_json(),
            "tr": self.tr.matrix.to_lists(),
            "res": self.res.matrix.to_lists(),
            "weyl": self.weyl.matrix.to_lists(),
        }


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness} for c in self.checks
            ],
        }


def orbit_sum(gamma: IntMatrix, p):
    """The sum of the powers gamma^i for 0 <= i < p."""
    total = acc = IntMatrix.identity(gamma.nrows)
    for _ in range(p - 1):
        acc = gamma @ acc
        total = total + acc
    return total


def _hom_eq_check(name, target: FGAbPresentation, f: IntMatrix, g: IntMatrix):
    """Whether the matrices f and g agree modulo the relations of ``target``;
    a failure names the first generator (column) on which they differ."""
    diff = f - g
    j = first_nonzero_column(target, diff)
    if j is None:
        return ValidationCheck(name, True)
    return ValidationCheck(name, False, f"generator {j} maps to {list(diff.column(j))}")


def validate_mackey(m: MackeyFunctor) -> ValidationReport:
    """Check the four axioms; failures carry a witness generator.  Each
    functor is decided once and keeps its report (``MackeyFunctor._axioms``),
    so a later call on it costs one lookup."""
    return m._axioms


@dataclass(frozen=True)
class MackeyMap:
    source: MackeyFunctor
    target: MackeyFunctor
    f_top: AbHom
    f_bot: AbHom

    def __post_init__(self):
        _same_prime(self.source.prime, self.target.prime)
        ends = (self.f_top.source, self.f_top.target, self.f_bot.source, self.f_bot.target)
        if ends != (self.source.top, self.target.top, self.source.bottom, self.target.bottom):
            raise LevelMismatch("level maps do not run between the functors' levels")
        failures = self.compatibility_failures()
        if failures:
            raise NotAMackeyMap(failures)

    def compatibility_failures(self):
        """The squares that do not commute, as failed ``ValidationCheck``s
        whose witness is the first generator on which the two sides differ."""
        s, t = self.source, self.target
        top, bot = self.f_top.matrix, self.f_bot.matrix
        squares = (
            ("transfer not respected", t.top, t.tr.matrix @ bot, top @ s.tr.matrix),
            ("restriction not respected", t.bottom, t.res.matrix @ top, bot @ s.res.matrix),
            ("action not respected", t.bottom, t.weyl.matrix @ bot, bot @ s.weyl.matrix),
        )
        checks = [_hom_eq_check(*square) for square in squares]
        return [c for c in checks if not c.passed]

    def compose(self, other: "MackeyMap") -> "MackeyMap":
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        top, bot = self.f_top.compose(other.f_top), self.f_bot.compose(other.f_bot)
        return _unchecked(MackeyMap, other.source, self.target, top, bot)

    def __add__(self, other):
        _same_ends(self, other)
        return self._levelwise(self.f_top + other.f_top, self.f_bot + other.f_bot)

    def __sub__(self, other):
        _same_ends(self, other)
        return self._levelwise(self.f_top - other.f_top, self.f_bot - other.f_bot)

    def scale(self, k):
        return self._levelwise(self.f_top.scale(k), self.f_bot.scale(k))

    def _levelwise(self, f_top, f_bot):
        return _unchecked(MackeyMap, self.source, self.target, f_top, f_bot)

    def equals(self, other):
        return self.f_top.equals(other.f_top) and self.f_bot.equals(other.f_bot)

    def is_zero(self):
        return self.f_top.is_zero() and self.f_bot.is_zero()

    def is_isomorphism(self):
        """True when both level maps are isomorphisms, decided without a
        kernel: f: A -> B is one exactly when A and B have the same invariants
        and f is onto.  Then f followed by an isomorphism B -> A is a
        surjective endomorphism of the finitely generated abelian group A, a
        Noetherian Z-module, so it is injective (A is Hopfian, free rank
        included), and so is f."""
        return self.isomorphism_failure() is None

    def isomorphism_failure(self):
        """None for an isomorphism, else (level, reason) for the first level
        map that is not one, by the test of ``is_isomorphism``."""
        for level, f in (("top", self.f_top), ("bottom", self.f_bot)):
            if f.source.canonical() != f.target.canonical():
                return level, "invariants differ"
            if not hom_cokernel(f)[0].is_zero_group():
                return level, "cokernel is nonzero"
        return None

    def to_json(self):
        return {"f_top": self.f_top.matrix.to_lists(), "f_bot": self.f_bot.matrix.to_lists()}


def identity_map(m: MackeyFunctor) -> MackeyMap:
    return _unchecked(MackeyMap, m, m, identity_hom(m.top), identity_hom(m.bottom))


def zero_map(source: MackeyFunctor, target: MackeyFunctor) -> MackeyMap:
    top, bot = zero_hom(source.top, target.top), zero_hom(source.bottom, target.bottom)
    return _unchecked(MackeyMap, source, target, top, bot)


# ---------------------------------------------------------------------------
# constructors


def zero_mackey(p) -> MackeyFunctor:
    z = zero_group()
    zz = zero_hom(z, z)
    return MackeyFunctor(p, z, z, zz, zz, zz)


def burnside(p) -> MackeyFunctor:
    """Top Z^2 on (fixed orbit class, free orbit class), bottom Z.

    tr(x) = (0, x), res(y, z) = y + p z, trivial action.
    """
    require_prime(p)
    top = free_group(2)
    bot = free_group(1)
    tr = AbHom(bot, top, IntMatrix([[0], [1]]))
    res = AbHom(top, bot, IntMatrix([[1, p]]))
    weyl = identity_hom(bot)
    return MackeyFunctor(p, top, bot, tr, res, weyl)


def constant(p, n) -> MackeyFunctor:
    """Constant functor on Z (n = 0) or Z/n: res = id, tr = p, trivial action."""
    require_prime(p)
    g = cyclic_group(n)
    return MackeyFunctor(
        p,
        g,
        g,
        AbHom(g, g, IntMatrix([[p]])),
        identity_hom(g),
        identity_hom(g),
    )


def j_top(p, v: FGAbPresentation) -> MackeyFunctor:
    """Concentrated functor: given group at the top, zero below."""
    require_prime(p)
    z = zero_group()
    return MackeyFunctor(p, v, z, zero_hom(z, v), zero_hom(v, z), zero_hom(z, z))


def j_bottom(p, v: FGAbPresentation, gamma: AbHom) -> MackeyFunctor:
    """Fixed-point functor of an order-p action on v.

    Top level is the fixed subgroup, res the inclusion, tr the orbit sum
    corestricted to the fixed subgroup.
    """
    return _fixed_points(p, v, gamma, lambda fixed: [])[0]


def _fixed_points(p, v: FGAbPresentation, gamma: AbHom, extra):
    """(``j_bottom(p, v, gamma)``, coefficients): the functor, and each
    vector of the list ``extra(fixed)`` written in the fixed generators, or
    None where it is not fixed; ``fixed`` are the fixed generators as
    vectors of v.  One Smith form of [inclusion | relations] solves the transfer and
    these vectors together."""
    require_prime(p)
    if gamma.source != v or gamma.target != v:
        raise NotAnAction("action endomorphism must live on v")
    if not gamma.power(p).equals(identity_hom(v)):
        raise NotAnAction(f"gamma^{p} is not the identity")
    fixed, incl = hom_kernel(gamma - identity_hom(v))
    orbit_sums = orbit_sum(gamma.matrix, p).columns()
    solutions = solve_membership(v, incl.matrix, orbit_sums + extra(incl.matrix.columns()))
    tr_cols = solutions[: len(orbit_sums)]
    if None in tr_cols:
        raise IllFormedHom("map does not factor through the inclusion")
    tr = AbHom(v, fixed, IntMatrix.from_columns(tr_cols, fixed.num_generators))
    return MackeyFunctor(p, fixed, v, tr, incl, gamma), solutions[len(orbit_sums):]


def mackey_direct_sum(a: MackeyFunctor, b: MackeyFunctor):
    """(sum, incl_a, incl_b)."""
    _same_prime(a.prime, b.prime)
    top, ia_t, ib_t, _, _ = direct_sum(a.top, b.top)
    bot, ia_b, ib_b, pa_b, pb_b = direct_sum(a.bottom, b.bottom)

    def block(f_a, f_b, src, tgt, tgt_incls):
        cols = []
        for hom, incl_t in ((f_a, tgt_incls[0]), (f_b, tgt_incls[1])):
            for j in range(hom.matrix.ncols):
                cols.append(incl_t(hom.matrix.column(j)))
        mat = IntMatrix.from_columns(cols, tgt.num_generators)
        return AbHom(src, tgt, mat)

    tr = block(a.tr, b.tr, bot, top, (ia_t, ib_t))
    res = block(a.res, b.res, top, bot, (ia_b, ib_b))
    weyl = block(a.weyl, b.weyl, bot, bot, (ia_b, ib_b))
    s = MackeyFunctor(a.prime, top, bot, tr, res, weyl)
    incl_a = MackeyMap(a, s, ia_t, ia_b)
    incl_b = MackeyMap(b, s, ib_t, ib_b)
    return s, incl_a, incl_b


# ---------------------------------------------------------------------------
# subfunctors


@dataclass(frozen=True)
class Subfunctor:
    """A subfunctor of ``parent``, held as its element sets.

    ``top_positions`` and ``bottom_positions`` are the positions of its
    elements in the parent's finite models (``FiniteModel``); closure and
    ideal tests read only these sets.  ``top_elements`` and
    ``bottom_elements`` give the same elements as canonical coordinates.
    The presented subfunctor and its inclusion are built on first use of
    ``include`` or ``functor`` and kept.
    """

    parent: MackeyFunctor
    top_positions: frozenset
    bottom_positions: frozenset

    @property
    def top_elements(self):
        elements = finite_model(self.parent.top).elements
        return frozenset(elements[x] for x in self.top_positions)

    @property
    def bottom_elements(self):
        elements = finite_model(self.parent.bottom).elements
        return frozenset(elements[x] for x in self.bottom_positions)

    @cached_property
    def include(self) -> MackeyMap:
        """The inclusion of the presented subfunctor into ``parent``."""
        m = self.parent
        s_top, incl_top = subgroup_presentation(finite_model(m.top), self.top_positions)
        s_bot, incl_bot = subgroup_presentation(finite_model(m.bottom), self.bottom_positions)
        tr = factor_through_injection(m.tr.compose(incl_bot), incl_top)
        res = factor_through_injection(m.res.compose(incl_top), incl_bot)
        weyl = factor_through_injection(m.weyl.compose(incl_bot), incl_bot)
        sub = MackeyFunctor(m.prime, s_top, s_bot, tr, res, weyl)
        return MackeyMap(sub, m, incl_top, incl_bot)

    @property
    def functor(self) -> MackeyFunctor:
        return self.include.source

    def is_full(self):
        parent = self.parent
        return (len(self.top_positions) == finite_model(parent.top).order()
                and len(self.bottom_positions) == finite_model(parent.bottom).order())

    def is_zero(self):
        return len(self.top_positions) == 1 and len(self.bottom_positions) == 1


def _closure(models, maps, seed, complete=None):
    """The least family of subgroups, one per node, that contains ``seed``
    and is closed under ``maps``, as a tuple of position frozensets; None as
    soon as it meets a position in ``complete``.

    Node i is the finite model ``models[i]``, and ``maps[i]`` lists its
    edges as (target node, tables), each an ``_image_table`` into the
    target.  ``seed`` is a (node, position) pair, and ``complete[i]`` holds
    positions of node i known to generate everything.  A new element z is
    joined to its node's subgroup S by ``FiniteModel.join``, which stops on
    the first coset that meets ``complete``, and since every map is a
    homomorphism, only the joined z go on the work list.  Every node starts
    at the zero, position 0.
    """
    if complete is None:
        complete = [frozenset()] * len(models)
    sets = [{0} for _ in models]

    def join(node, z):
        """Join z into its node's subgroup; False if a complete position
        came in on the way."""
        stop = complete[node]
        sets[node] = models[node].join(sets[node], z, lambda coset: not stop.isdisjoint(coset))
        return sets[node] is not None

    if not join(*seed):
        return None
    todo = [seed]
    while todo:
        node, z = todo.pop()
        for target, tables in maps[node]:
            for table in tables:
                w = table[z]
                if w not in sets[target]:
                    if not join(target, w):
                        return None
                    todo.append((target, w))
    return tuple(map(frozenset, sets))


def _every_element_generates(models, maps, first=None):
    """None when the ``_closure`` of each nonzero element of each node of the
    graph ``models``, ``maps`` is everything: every element of every node.
    Otherwise the first closure that is not, as ``_closure`` returns it.

    That closure is the least family closed under ``maps`` that holds its
    seed, so it is nonzero and, for the graph of an ideal check, the
    principal ideal of its seed; callers report it as their witness.
    Elements found to generate everything are collected as ``complete``,
    and a later closure stops as soon as it meets one of them.  ``first``, a
    (node, position) pair such as a ring's unit, is closed before the rest,
    so that it is usually the first complete element; then the nodes are
    taken in order, each in ascending position.
    """
    complete = [set() for _ in models]
    seeds = ((node, x) for node, model in enumerate(models) for x in range(model.order()))
    for node, x in chain([first] if first else [], seeds):
        if x == 0 or x in complete[node]:
            continue
        ideal = _closure(models, maps, (node, x), complete)
        if ideal is not None and any(len(s) != m.order() for s, m in zip(ideal, models)):
            return ideal
        complete[node].add(x)
    return None


def enumerate_subfunctors(m: MackeyFunctor):
    """All subfunctors of a finite Mackey functor, in Hermite-key order.

    The pairs (top subgroup T, bottom subgroup B) with B stable under the
    action, tr(B) in T and res(T) in B.  Only the stable bottoms are
    enumerated, as sums of cyclic Z[C_p]-submodules: the spans of the
    orbits x, weyl(x), weyl(weyl(x)), ...  Each level map is tabulated once
    on element positions, so both closure tests are set inclusions.  Both
    lattices come Hermite-sorted, so walking top x bottom yields the
    subfunctors in (top key, bottom key) order.
    """
    if not m.levels_finite():
        raise InfiniteGroup("subfunctor enumeration requires finite levels")
    tm, bm, res, tr, weyl = m._tables
    orbits = []
    for x in range(bm.order()):
        orbit = [x]
        while weyl[orbit[-1]] not in orbit:
            orbit.append(weyl[orbit[-1]])
        orbits.append(orbit)
    tops = [(t, frozenset(res[x] for x in t))
            for t in _lattice(tm, [(x,) for x in range(tm.order())])]
    bottoms = [(b, frozenset(tr[x] for x in b)) for b in _lattice(bm, orbits)]
    return [Subfunctor(m, t, b)
            for t, res_t in tops for b, tr_b in bottoms if tr_b <= t and res_t <= b]


# ---------------------------------------------------------------------------
# chain complexes of Mackey functors


@dataclass
class MackeyChainComplex:
    """Objects indexed by degree; d maps degree n to degree n-1."""

    lower: int
    upper: int
    objects: dict
    differentials: dict  # degree n -> MackeyMap objects[n] -> objects[n-1]

    def validate(self):
        for n in range(self.lower + 2, self.upper + 1):
            comp = self.differentials[n - 1].compose(self.differentials[n])
            if not comp.is_zero():
                raise NotAComplex(f"d.d != 0 between degrees {n} and {n-2}")


def _level_homology_data(d_out: AbHom, d_in: AbHom):
    """Presentation of ker(d_out)/im(d_in) plus the kernel inclusion.

    The homology presentation reuses the kernel's generators, so induced
    maps can be written on the same index set.
    """
    k_pres, incl = hom_kernel(d_out)
    lifted = factor_through_injection(d_in, incl)
    rels = k_pres.relations.vstack(lifted.matrix.transpose())
    h = FGAbPresentation(k_pres.num_generators, rels)
    return h, k_pres, incl


def homology_of_complex(c: MackeyChainComplex):
    """Degreewise homology with the induced transfer/restriction/action."""
    c.validate()
    out = {}
    for n in range(c.lower, c.upper + 1):
        obj = c.objects[n]
        p = obj.prime
        d_out = c.differentials.get(n)
        if d_out is None:
            d_out = zero_map(obj, zero_mackey(p))
        d_in = c.differentials.get(n + 1)
        if d_in is None:
            d_in = zero_map(zero_mackey(p), obj)

        h_top, _, incl_top = _level_homology_data(d_out.f_top, d_in.f_top)
        h_bot, _, incl_bot = _level_homology_data(d_out.f_bot, d_in.f_bot)

        def induced(level_map, incl_src, incl_tgt, h_src, h_tgt):
            lifted = factor_through_injection(level_map.compose(incl_src), incl_tgt)
            return AbHom(h_src, h_tgt, lifted.matrix)

        tr = induced(obj.tr, incl_bot, incl_top, h_bot, h_top)
        res = induced(obj.res, incl_top, incl_bot, h_top, h_bot)
        weyl = induced(obj.weyl, incl_bot, incl_bot, h_bot, h_bot)
        out[n] = MackeyFunctor(p, h_top, h_bot, tr, res, weyl)
    return out


def canonical_levels(m: MackeyFunctor):
    """((top free rank, top factors), (bottom free rank, bottom factors))."""
    return (m.top.canonical(), m.bottom.canonical())
