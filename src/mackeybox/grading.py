"""Representation-sphere degrees, graded functors, and window-bounded checks.

A degree over C_p records the multiplicity of the trivial representation
and the multiplicities of the nontrivial irreducibles (one sign summand
for p = 2, (p-1)/2 planar rotations otherwise).  Only the total dimension
and the fixed-point dimension feed the homotopy-group case formulas, but
full multiplicity vectors are kept so degrees add exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from operator import add

from .boxtensor import box
from .errors import EmptyWindow, InfiniteGroup, UnclassifiedField, WindowOverflow
from .green import (
    FieldShape,
    GreenFunctor,
    _product_tables,
    ideal_generated_by,
    subgroup_is_full,
    subgroup_is_zero,
)
from .intlinalg import IntMatrix
from .mackey import (
    MackeyFunctor,
    _same_prime,
    enumerate_subfunctors,
    j_bottom,
    mackey_direct_sum,
    require_prime,
    zero_mackey,
)


@dataclass(frozen=True)
class RODegree:
    prime: int
    a: int
    m: tuple

    def __post_init__(self):
        want = 1 if self.prime == 2 else (self.prime - 1) // 2
        if len(self.m) != want:
            raise ValueError(f"need {want} nontrivial multiplicities for p={self.prime}")

    def dim(self):
        if self.prime == 2:
            return self.a + self.m[0]
        return self.a + 2 * sum(self.m)

    def fixed_dim(self):
        return self.a

    def __add__(self, other):
        _same_prime(self.prime, other.prime)
        return RODegree(self.prime, self.a + other.a, tuple(x + y for x, y in zip(self.m, other.m)))

    def __neg__(self):
        return RODegree(self.prime, -self.a, tuple(-x for x in self.m))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return RODegree(self.prime, k * self.a, tuple(k * x for x in self.m))

    def key(self):
        return f"{self.a}|" + ",".join(str(x) for x in self.m)

    @classmethod
    def from_key(cls, p, key):
        a_str, m_str = key.split("|")
        m = tuple(int(x) for x in m_str.split(",")) if m_str else ()
        return cls(p, int(a_str), m)

    @classmethod
    def zero(cls, p):
        return cls(p, 0, (0,) * (1 if p == 2 else (p - 1) // 2))

    @classmethod
    def regular(cls, p):
        """The regular representation: trivial summand plus all the rest."""
        return cls(p, 1, (1,) * (1 if p == 2 else (p - 1) // 2))

    def to_json(self):
        return {"a": self.a, "m": list(self.m)}


def rotating_sign(alpha: RODegree, beta: RODegree):
    """(sign at the fixed orbit, sign at the free orbit) for the factor swap.

    Koszul signs on the fixed-point and total dimensions respectively.
    """
    _same_prime(alpha.prime, beta.prime)
    sign_top = -1 if (alpha.fixed_dim() * beta.fixed_dim()) % 2 else 1
    sign_bot = -1 if (alpha.dim() * beta.dim()) % 2 else 1
    return sign_top, sign_bot


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class BoxWindow:
    """The degrees over C_prime with |a| <= a_bound and every |m_i| <= m_bound."""

    prime: int
    a_bound: int
    m_bound: int

    def __post_init__(self):
        require_prime(self.prime)
        for name in ("a_bound", "m_bound"):
            bound = getattr(self, name)
            if not isinstance(bound, int) or bound < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {bound!r}")

    def degrees(self):
        k = 1 if self.prime == 2 else (self.prime - 1) // 2
        out = []
        for a in range(-self.a_bound, self.a_bound + 1):
            for m in iproduct(*(range(-self.m_bound, self.m_bound + 1) for _ in range(k))):
                out.append(RODegree(self.prime, a, m))
        return out

    def contains(self, deg):
        return abs(deg.a) <= self.a_bound and all(abs(x) <= self.m_bound for x in deg.m)

    def to_json(self):
        return {"kind": "box", "a": self.a_bound, "m": self.m_bound}


# ---------------------------------------------------------------------------
# homotopy of Eilenberg-Mac Lane spectra of Mackey fields


def _em_nonzero(shape: FieldShape, alpha: RODegree):
    """Whether the case formulas of ``em_homotopy`` give a nonzero functor
    at ``alpha``: fixed dimension 0 for a concentrated field, total
    dimension 0 for a fixed-point one."""
    if shape.kind == "concentrated":
        return alpha.fixed_dim() == 0
    return alpha.dim() == 0


def em_homotopy(shape: FieldShape, alpha: RODegree) -> MackeyFunctor:
    """The case formulas for the graded homotopy of the associated
    Eilenberg-Mac Lane spectrum of a classified Mackey field."""
    if not isinstance(shape, FieldShape):
        raise UnclassifiedField("classify the field before looking up homotopy")
    p = shape.field.prime
    _same_prime(alpha.prime, p)
    f = shape.field.underlying
    if not _em_nonzero(shape, alpha):
        return zero_mackey(p)
    if shape.kind == "concentrated" or p != 2 or alpha.a % 2 == 0:
        return f
    # odd antidiagonal degree: fixed points of the ring tensored with the
    # sign representation of the integers
    minus_gamma = shape.action.scale(-1)
    return j_bottom(2, shape.ring_presentation, minus_gamma)


@dataclass(frozen=True)
class GradedGreenTower:
    """A window of Mackey functors with a multiplication pairing per pair of
    degrees; the carrier for graded Green structure at desk scale."""

    prime: int
    pieces: dict  # RODegree -> MackeyFunctor (missing = zero)
    pairings: dict  # (RODegree, RODegree) -> BilinearPairing


def em_tower(shape: FieldShape, window) -> GradedGreenTower:
    """Graded tower of homotopy functors with the induced multiplications.

    Only concentrated fields are supported; their multiplication is the
    same field pairing in every nonzero degree.
    """
    if shape.kind != "concentrated":
        raise UnclassifiedField("graded tower is implemented for concentrated fields")
    g = shape.field
    pieces = {deg: em_homotopy(shape, deg) for deg in window.degrees() if _em_nonzero(shape, deg)}
    pairings = {}
    for d1 in pieces:
        for d2 in pieces:
            pairings[(d1, d2)] = g.mult
    return GradedGreenTower(g.prime, pieces, pairings)


def single_degree_tower(g: GreenFunctor) -> GradedGreenTower:
    """A Green functor viewed as a graded tower concentrated in degree zero."""
    zero = RODegree.zero(g.prime)
    return GradedGreenTower(g.prime, {zero: g.underlying}, {(zero, zero): g.mult})


@dataclass(frozen=True)
class PartialCertificate:
    window_partial: bool
    verdict: str  # "no_graded_ideal_in_window" or "witness"
    witness: dict | None
    note: str = ""

    def to_json(self):
        out = {
            "window_partial": self.window_partial,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


MAX_GRADED_COMBINATIONS = 1_000_000
"""Node budget of the ordered search for the first witness in
``graded_field_window_check``: the number of single-degree assignments it
may try.  Deciding that no graded ideal exists takes no search and no
budget."""


def graded_field_window_check(tower: GradedGreenTower, window) -> PartialCertificate:
    """Search for a proper nonzero graded ideal supported in the window.

    Exact when all pieces are finite.  A graded ideal picks one subfunctor
    per degree, and for every in-window pair d1 + d2 = s the ring piece at
    d1 times the pick at d2 lies in the pick at s.  Each pair's products
    become verdict tables once, and every atom (a minimal nonzero subfunctor
    at one degree) is closed to the least graded ideal containing it,
    stopping at atoms already known to generate everything.  No proper
    nonzero ideal exists exactly when each of these is all-full.
    Otherwise the witness is the first combination, in the order of
    ``itertools.product`` over the lattices of ``enumerate_subfunctors``,
    that is a graded ideal and neither all-zero nor all-full; an ordered
    search with forward checking finds it, and raises ``WindowOverflow``
    beyond ``MAX_GRADED_COMBINATIONS`` nodes (README, "Subfunctors and
    ideals").

    A piece with infinite level falls back to a deterministic
    generated-ideal probe (transfers of generators first); the probe can
    only produce witnesses, never a certificate.  A window over another
    prime than the tower's raises ``PrimeMismatch``, and one that holds no
    nonzero piece of the tower raises ``EmptyWindow``.
    """
    _same_prime(tower.prime, window.prime)
    # the tower's pieces in the window, in the order of ``window.degrees()``
    degrees = sorted(
        (d for d in tower.pieces if d.prime == window.prime and window.contains(d)),
        key=lambda d: (d.a, d.m),
    )
    if not degrees:
        raise EmptyWindow(f"tower has no nonzero pieces in the window {window!r}")
    infinite = [d for d in degrees if not tower.pieces[d].levels_finite()]
    if infinite:
        return _witness_probe(tower, degrees)

    lattices = _WindowLattices(tower, degrees)
    combo = None if lattices.atoms_generate_everything() else lattices.first_witness()
    if combo is None:
        return PartialCertificate(True, "no_graded_ideal_in_window", None)
    choice = [subs[i] for subs, i in zip(lattices.subs, combo)]
    witness = {
        d.key(): {
            "top": sorted(list(c) for c in sub.top_elements),
            "bottom": sorted(list(c) for c in sub.bottom_elements),
        }
        for d, sub in zip(degrees, choice)
    }
    return PartialCertificate(True, "witness", witness)


class _WindowLattices:
    """The subfunctor lattices of a finite tower's pieces at ``degrees`` and
    the verdict tables of its in-window products.

    Degree t (its position in ``degrees``) has the subfunctors ``subs[t]``
    of ``enumerate_subfunctors``; a combination is a tuple of one index per
    degree.  ``by_source[t]`` holds a verdict (u, allowed) for each pair
    d1 + d2 = s with d2 at t and s at u: the ring piece at d1 times
    subfunctor i at d2 lies in subfunctor k at s exactly when k is in
    ``allowed[i]``.  A combination is a graded ideal when it passes every
    verdict.  A smaller source or a larger target can only pass, so graded
    ideals are closed under intersection and ``least_ideal`` exists.
    """

    def __init__(self, tower, degrees):
        # Towers repeat one piece and one pairing in many degrees (``em_tower``
        # does), so lattices and verdict tables are shared between uses of one
        # object, found by identity; hashing the frozen dataclasses would cost
        # more than the sharing saves.  The tower holds every object, so no
        # id is reused during the check.
        pieces = [tower.pieces[d] for d in degrees]
        lattices = {}
        for piece in pieces:
            if id(piece) not in lattices:
                lattices[id(piece)] = _subfunctor_sets(piece)
        self.subs, self.sets, self.above = map(list, zip(*(lattices[id(p)] for p in pieces)))
        self.sizes = [[len(t) + len(b) for t, b in sets] for sets in self.sets]
        self.zeros = tuple(next(i for i, s in enumerate(subs) if s.is_zero()) for subs in self.subs)
        self.fulls = tuple(next(i for i, s in enumerate(subs) if s.is_full()) for subs in self.subs)
        # degrees are added as integer tuples (a, m_1, ...), not as an
        # RODegree built and hashed for each of the n^2 pairs
        keys = [(d.a,) + d.m for d in degrees]
        position = {k: t for t, k in enumerate(keys)}
        tables = {}
        self.by_source = [[] for _ in degrees]
        for d1, k1, ring in zip(degrees, keys, pieces):
            for t, k2 in enumerate(keys):
                u = position.get(tuple(map(add, k1, k2)))
                if u is None:
                    continue
                parts = (tower.pairings[(d1, degrees[t])], ring, pieces[t], pieces[u])
                key = (id(parts[0]), id(ring), id(pieces[t]), id(pieces[u]))
                if key not in tables:
                    tables[key] = _verdict_table(*parts, self.sets[t], self.sets[u])
                self.by_source[t].append((u, tables[key]))

    def atom_seeds(self):
        """For each atom, the combination that is the atom at its degree and
        zero elsewhere."""
        for t, above in enumerate(self.above):
            # an atom contains exactly two subfunctors: zero and itself
            below = [0] * len(above)
            for over in above:
                for k in over:
                    below[k] += 1
            for k, count in enumerate(below):
                if count == 2:
                    yield self.zeros[:t] + (k,) + self.zeros[t + 1:]

    def least_ideal(self, seed, complete=None):
        """The least graded ideal containing the combination ``seed``, or
        all-full as soon as a pick rises into ``complete[u]``, subfunctors at
        u whose least ideal the caller knows to be all-full.

        A fixed point: while a verdict (u, allowed) of t fails, raise the pick
        at u to the smallest subfunctor in ``allowed`` of the pick at t that
        contains the current one.  Every subfunctor is in the lattice, so
        that one is the subfunctor generated by both, and any graded ideal
        containing the current picks contains it too.  The work list starts
        at the seed's nonzero degrees: a zero pick passes every verdict,
        since its products are zero.
        """
        combo = list(seed)
        todo = [t for t, (k, zero) in enumerate(zip(seed, self.zeros)) if k != zero]
        while todo:
            t = todo.pop()
            for u, allowed in self.by_source[t]:
                passing = allowed[combo[t]]
                if combo[u] not in passing:
                    combo[u] = min(passing & self.above[u][combo[u]], key=self.sizes[u].__getitem__)
                    if complete is not None and combo[u] in complete[u]:
                        return self.fulls
                    todo.append(u)
        return tuple(combo)

    def atoms_generate_everything(self):
        """Whether every atom's least ideal is all-full, that is, whether no
        proper nonzero graded ideal exists.  Each subfunctor containing an
        atom that generates everything does too and is marked complete:
        marked atoms are skipped, and a later closure stops when it raises a
        pick into a marked subfunctor.
        """
        complete = [frozenset() for _ in self.subs]
        for seed in self.atom_seeds():
            t = next(t for t, (k, zero) in enumerate(zip(seed, self.zeros)) if k != zero)
            if seed[t] in complete[t]:
                continue
            if self.least_ideal(seed, complete) != self.fulls:
                return False
            complete[t] |= self.above[t][seed[t]]
        return True

    def first_witness(self):
        """The first graded ideal, neither all-zero nor all-full, in the
        order of ``itertools.product``, or None: a depth-first search over
        the degrees in order, each trying its subfunctors in increasing index.

        Forward checking (Haralick and Elliott, Artif. Intell. 14, 1980):
        assigning a degree narrows the domain of every later degree it
        shares a verdict with, and a branch stops when a domain empties.
        Each assignment counts against ``MAX_GRADED_COMBINATIONS``.
        """
        n = len(self.subs)
        domains = [frozenset(range(len(subs))) for subs in self.subs]
        # forward[t]: (u, narrow) with u > t; assigning v at t leaves narrow[v] at u
        forward = [[] for _ in range(n)]
        for t, outgoing in enumerate(self.by_source):
            for u, allowed in outgoing:
                if t == u:
                    domains[t] = frozenset(i for i in domains[t] if i in allowed[i])
                elif t < u:
                    forward[t].append((u, allowed))
                else:
                    sources = range(len(self.subs[t]))
                    forward[u].append((t, [
                        frozenset(i for i in sources if v in allowed[i])
                        for v in range(len(self.subs[u]))
                    ]))
        nodes = 0
        stack = [((), domains, iter(sorted(domains[0])))]
        while stack:
            combo, domains, values = stack[-1]
            v = next(values, None)
            if v is None:
                stack.pop()
                continue
            nodes += 1
            if nodes > MAX_GRADED_COMBINATIONS:
                raise WindowOverflow(
                    f"the search for the first witness exceeded its search budget of "
                    f"{MAX_GRADED_COMBINATIONS} nodes (MAX_GRADED_COMBINATIONS)"
                )
            t, combo = len(combo), combo + (v,)
            narrowed = list(domains)
            for u, narrow in forward[t]:
                narrowed[u] &= narrow[v]
            if not all(narrowed[u] for u, _ in forward[t]):
                continue
            if t < n - 1:
                stack.append((combo, narrowed, iter(sorted(narrowed[t + 1]))))
            elif combo != self.zeros and combo != self.fulls:
                return combo
        return None


def _subfunctor_sets(piece):
    """(subs, sets, above) of a finite piece: its subfunctors from
    ``enumerate_subfunctors``; each as (top positions, bottom positions) in
    the piece's finite models; and for each, the indices of the subfunctors
    that contain it."""
    subs = enumerate_subfunctors(piece)
    sets = [sub._positions for sub in subs]
    above = [
        frozenset(j for j, (t2, b2) in enumerate(sets) if t1 <= t2 and b1 <= b2) for t1, b1 in sets
    ]
    return subs, sets, above


def _verdict_table(pairing, ring, piece, target, sources, targets):
    """``allowed`` of one pair d1 + d2 = s: for each source subfunctor of
    ``piece`` (at d2), the indices of the ``targets`` subfunctors of
    ``target`` (at s) that contain ``ring`` (at d1) times it.  Each
    generator's product map is tabulated once on element positions, so the
    image of a subfunctor is a union of lookups and each verdict is a set
    inclusion, at both levels."""
    images = []
    for side, (mult, ring_level, level, target_level) in enumerate((
        (pairing.f_top.matrix, ring.top, piece.top, target.top),
        (pairing.f_bot.matrix, ring.bottom, piece.bottom, target.bottom),
    )):
        tables = _product_tables(mult, ring_level, level, target_level)
        images.append([frozenset(table[x] for table in tables for x in sets[side]) for sets in sources])
    return [
        frozenset(k for k, (t, b) in enumerate(targets) if top <= t and bottom <= b)
        for top, bottom in zip(*images)
    ]


def _witness_probe(tower: GradedGreenTower, degrees):
    """Generated-ideal search for towers with infinite levels.

    Only meaningful for a single-degree window, where a graded ideal is an
    ordinary one; candidates are transfers of bottom generators and then
    single generators of each level.
    """
    if len(degrees) != 1:
        raise InfiniteGroup("infinite pieces admit only the degree-zero witness probe")
    deg = degrees[0]
    piece = tower.pieces[deg]
    pairing = tower.pairings[(deg, deg)]
    candidates = [("top", piece.tr(e)) for e in IntMatrix.identity(piece.bottom.num_generators).rows]
    candidates += [("top", e) for e in IntMatrix.identity(piece.top.num_generators).rows]
    for level, vec in candidates:
        top_rows, bot_rows = ideal_generated_by(piece, pairing, level, vec)
        top_zero = subgroup_is_zero(piece.top, top_rows)
        bot_zero = subgroup_is_zero(piece.bottom, bot_rows)
        if top_zero and bot_zero:
            continue
        if subgroup_is_full(piece.top, top_rows) and subgroup_is_full(piece.bottom, bot_rows):
            continue
        return PartialCertificate(
            True,
            "witness",
            {deg.key(): {"top_generators": [list(r) for r in top_rows],
                         "bottom_generators": [list(r) for r in bot_rows]}},
            note="witness_search_only; infinite levels prevent exhaustive enumeration",
        )
    raise InfiniteGroup("no witness found; cannot certify with infinite levels")


# ---------------------------------------------------------------------------
# graded Mackey functors and the graded box product


@dataclass(frozen=True)
class GradedMackey:
    """Finitely supported graded Mackey functor; keys are RODegree or int."""

    prime: int
    pieces: dict

    def support(self):
        return [d for d, m in self.pieces.items() if not m.is_zero()]


MAX_GRADED_PIECES = 4096


def graded_box(a: GradedMackey, b: GradedMackey, out_window=None, limit=None) -> GradedMackey:
    """Degreewise box product: piece at n is the sum over k + l = n."""
    _same_prime(a.prime, b.prime)
    if out_window is not None:
        _same_prime(a.prime, out_window.prime)
    sums = {}
    for d1 in a.support():
        for d2 in b.support():
            s = d1 + d2
            if out_window is not None and not out_window.contains(s):
                continue
            sums.setdefault(s, []).append((d1, d2))
    if len(sums) > MAX_GRADED_PIECES:
        raise WindowOverflow(f"graded product support has {len(sums)} degrees")
    pieces = {}
    for s, pairs in sums.items():
        parts = [box(a.pieces[d1], b.pieces[d2], limit=limit).result for d1, d2 in pairs]
        total = parts[0]
        for nxt in parts[1:]:
            total, _, _ = mackey_direct_sum(total, nxt)
        pieces[s] = total
    return GradedMackey(a.prime, pieces)
