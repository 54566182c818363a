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

from .boxtensor import box
from .errors import InfiniteGroup, UnclassifiedField, WindowOverflow
from .exactlin import finite_model
from .green import (
    FieldShape,
    GreenFunctor,
    _left_products,
    ideal_generated_by,
    subgroup_is_full,
    subgroup_is_zero,
)
from .intlinalg import IntMatrix
from .mackey import (
    MackeyFunctor,
    enumerate_subfunctors,
    first_escape,
    j_bottom,
    mackey_direct_sum,
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
        assert self.prime == other.prime
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
    assert alpha.prime == beta.prime
    sign_top = -1 if (alpha.fixed_dim() * beta.fixed_dim()) % 2 else 1
    sign_bot = -1 if (alpha.dim() * beta.dim()) % 2 else 1
    return sign_top, sign_bot


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class BoxWindow:
    prime: int
    a_bound: int
    m_bound: int

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


def em_homotopy(shape: FieldShape, alpha: RODegree) -> MackeyFunctor:
    """The case formulas for the graded homotopy of the associated
    Eilenberg-Mac Lane spectrum of a classified Mackey field."""
    if not isinstance(shape, FieldShape):
        raise UnclassifiedField("classify the field before looking up homotopy")
    p = shape.field.prime
    assert alpha.prime == p
    f = shape.field.underlying
    if shape.kind == "concentrated":
        return f if alpha.fixed_dim() == 0 else zero_mackey(p)
    if alpha.dim() != 0:
        return zero_mackey(p)
    if p != 2:
        return f
    k = alpha.a
    if k % 2 == 0:
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

    def piece(self, deg):
        return self.pieces.get(deg, zero_mackey(self.prime))


def em_tower(shape: FieldShape, window) -> GradedGreenTower:
    """Graded tower of homotopy functors with the induced multiplications.

    Only concentrated fields are supported; their multiplication is the
    same field pairing in every nonzero degree.
    """
    if shape.kind != "concentrated":
        raise UnclassifiedField("graded tower is implemented for concentrated fields")
    g = shape.field
    pieces = {}
    for deg in window.degrees():
        piece = em_homotopy(shape, deg)
        if not piece.is_zero():
            pieces[deg] = piece
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


def graded_field_window_check(tower: GradedGreenTower, window) -> PartialCertificate:
    """Search for a proper nonzero graded ideal supported in the window.

    Exhaustive over graded subfunctors when all pieces are finite.  A piece
    with infinite level falls back to a deterministic generated-ideal probe
    (transfers of generators first); the probe can only produce witnesses,
    never a certificate.
    """
    degrees = [d for d in window.degrees() if d in tower.pieces]
    if not degrees:
        raise ValueError("tower has no nonzero pieces in the window")
    infinite = [d for d in degrees if not tower.pieces[d].levels_finite()]
    if infinite:
        return _witness_probe(tower, degrees)

    lattices = [enumerate_subfunctors(tower.pieces[d]) for d in degrees]
    total = 1
    for lattice in lattices:
        total *= len(lattice)
        if total > MAX_GRADED_COMBINATIONS:
            raise WindowOverflow("graded subfunctor lattice too large for the window")

    # One (position of d2, position of d1 + d2, table) per pair of degrees in
    # the window; table[(i, k)] tells whether the ring piece at d1 times the
    # i-th subfunctor at d2 lands in the k-th subfunctor at d1 + d2.
    position = {d: n for n, d in enumerate(degrees)}
    verdicts = []
    for d1 in degrees:
        for d2 in degrees:
            s = d1 + d2
            if s in tower.pieces and window.contains(s):
                ring, pairing = tower.pieces[d1], tower.pairings[(d1, d2)]
                table = {
                    (i, k): _products_land_in(pairing, ring, sub, target)
                    for i, sub in enumerate(lattices[position[d2]])
                    for k, target in enumerate(lattices[position[s]])
                }
                verdicts.append((position[d2], position[s], table))

    # Each lattice holds one zero and one full subfunctor; the all-zero and
    # the all-full combinations are the trivial ideals, skipped by position.
    zeros = tuple(next(i for i, s in enumerate(lattice) if s.is_zero()) for lattice in lattices)
    fulls = tuple(next(i for i, s in enumerate(lattice) if s.is_full()) for lattice in lattices)
    for combo in iproduct(*(range(len(lattice)) for lattice in lattices)):
        if combo == zeros or combo == fulls:
            continue
        if all(table[(combo[i], combo[k])] for i, k, table in verdicts):
            choice = [lattice[i] for lattice, i in zip(lattices, combo)]
            witness = {
                d.key(): {
                    "top": sorted(list(c) for c in sub.top_elements),
                    "bottom": sorted(list(c) for c in sub.bottom_elements),
                }
                for d, sub in zip(degrees, choice)
            }
            return PartialCertificate(True, "witness", witness)
    return PartialCertificate(True, "no_graded_ideal_in_window", None)


def _products_land_in(pairing, ring, sub, target):
    """Whether ``pairing`` sends the ring piece ``ring`` times ``sub`` into
    ``target``, at both levels.

    As in ``green.is_ideal``, multiplying by the generators of the ring
    piece suffices, and each product map is looked up in the element sets.
    """
    for mult, ring_level, level, elements, target_level, target_elements in (
        (pairing.f_top.matrix, ring.top, sub.parent.top, sub.top_elements,
         target.parent.top, target.top_elements),
        (pairing.f_bot.matrix, ring.bottom, sub.parent.bottom, sub.bottom_elements,
         target.parent.bottom, target.bottom_elements),
    ):
        model, target_model = finite_model(level), finite_model(target_level)
        for action in _left_products(mult, ring_level.num_generators, level.num_generators):
            if first_escape(action, model, elements, target_model, target_elements) is not None:
                return False
    return True


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

    def piece(self, deg):
        return self.pieces.get(deg, zero_mackey(self.prime))

    def support(self):
        return [d for d, m in self.pieces.items() if not m.is_zero()]


MAX_GRADED_PIECES = 4096


def graded_box(a: GradedMackey, b: GradedMackey, out_window=None, limit=None) -> GradedMackey:
    """Degreewise box product: piece at n is the sum over k + l = n."""
    assert a.prime == b.prime
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
