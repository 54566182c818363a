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
from .errors import (EmptyWindow, FactorMismatch, InfiniteGroup, InvalidWindow, NotAnInteger,
                     ShapeMismatch, UnclassifiedField, WindowOverflow)
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
    _every_element_generates,
    _same_prime,
    j_bottom,
    mackey_direct_sum,
    require_prime,
    zero_mackey,
)


def _nontrivial(p):
    """The number of nontrivial irreducible real representations of C_p."""
    return 1 if p == 2 else (p - 1) // 2


@dataclass(frozen=True)
class RODegree:
    prime: int
    a: int
    m: tuple

    def __post_init__(self):
        require_prime(self.prime)
        for x in (self.a, *self.m):
            if type(x) is not int:  # a bool is not a multiplicity
                raise NotAnInteger(x)
        if len(self.m) != _nontrivial(self.prime):
            raise ShapeMismatch(f"the multiplicity vector for p={self.prime}",
                                _nontrivial(self.prime), len(self.m))

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
        return cls(p, 0, (0,) * _nontrivial(p))

    @classmethod
    def regular(cls, p):
        """The regular representation: trivial summand plus all the rest."""
        return cls(p, 1, (1,) * _nontrivial(p))

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
            if type(bound) is not int or bound < 0:
                raise InvalidWindow(f"{name} must be a nonnegative integer, got {bound!r}")

    def multiplicities(self):
        """The multiplicity vectors of the window's degrees, in order."""
        return iproduct(*[range(-self.m_bound, self.m_bound + 1)] * _nontrivial(self.prime))

    def degrees(self):
        return [RODegree(self.prime, a, m)
                for a in range(-self.a_bound, self.a_bound + 1) for m in self.multiplicities()]

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
    _same_prime(alpha.prime, p)
    f = shape.field.underlying
    # nonzero at fixed dimension 0 for a concentrated field, at total
    # dimension 0 for a fixed-point one
    if (alpha.fixed_dim() if shape.kind == "concentrated" else alpha.dim()) != 0:
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
    degrees; the carrier for graded Green structure at desk scale.  One
    pairing of every pair may be held as ``mult``, which then takes
    precedence over ``pairings``; read either through ``pairing``."""

    prime: int
    pieces: dict  # RODegree -> MackeyFunctor (missing = zero)
    pairings: dict  # (RODegree, RODegree) -> BilinearPairing
    mult: object = None  # the one BilinearPairing of every pair, or None

    def pairing(self, d1, d2):
        """The pairing of the pieces at d1 and d2, or None where there is none."""
        return self.pairings.get((d1, d2)) if self.mult is None else self.mult


def em_tower(shape: FieldShape, window) -> GradedGreenTower:
    """Graded tower of homotopy functors with the induced multiplications.

    Only concentrated fields are supported: ``em_homotopy`` is the field
    at a = 0 and zero elsewhere, so the tower holds the window's degrees
    with a = 0, in window order, all multiplied by the field's pairing.
    """
    if shape.kind != "concentrated":
        raise UnclassifiedField("graded tower is implemented for concentrated fields")
    g = shape.field
    _same_prime(window.prime, g.prime)
    pieces = {RODegree(g.prime, 0, m): g.underlying for m in window.multiplicities()}
    return GradedGreenTower(g.prime, pieces, {}, g.mult)


def single_degree_tower(g: GreenFunctor) -> GradedGreenTower:
    """A Green functor viewed as a graded tower concentrated in degree zero."""
    zero = RODegree.zero(g.prime)
    return GradedGreenTower(g.prime, {zero: g.underlying}, {}, g.mult)


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


def graded_field_window_check(tower: GradedGreenTower, window) -> PartialCertificate:
    """Search for a proper nonzero graded ideal supported in the window.

    Exact when all pieces are finite.  A graded ideal picks one subfunctor
    per degree, and for every in-window pair d1 + d2 = s the ring piece at
    d1 times the pick at d2 lies in the pick at s.  A proper nonzero one
    exists exactly when some nonzero element generates a proper one, so
    one ``mackey._closure`` per element decides it, on the graph of
    ``_window_graph`` (``_every_element_generates``).  The witness is the
    first closure that is proper, the graded ideal generated by one
    element, given per degree by the canonical coordinates of its top and
    bottom elements (README, "Subfunctors and ideals").

    A piece with infinite level falls back to a deterministic
    generated-ideal probe (transfers of generators first); the probe can
    only produce witnesses, never a certificate.  A window or a piece over
    another prime than the tower's raises ``PrimeMismatch``, a window that
    holds no nonzero piece of the tower raises ``EmptyWindow``, and a
    pairing that is missing or does not fit its pieces raises
    ``FactorMismatch``.
    """
    _same_prime(tower.prime, window.prime)
    # the tower's pieces in the window, in the order of ``window.degrees()``
    degrees = sorted(
        (d for d in tower.pieces if d.prime == window.prime and window.contains(d)),
        key=lambda d: (d.a, d.m),
    )
    if not degrees:
        raise EmptyWindow(f"tower has no nonzero pieces in the window {window!r}")
    pieces = [tower.pieces[d] for d in degrees]
    for piece in pieces:
        _same_prime(tower.prime, piece.prime)
    if not all(piece.levels_finite() for piece in pieces):
        return _witness_probe(tower, degrees)

    models, maps = _window_graph(pieces, _window_pairs(tower, degrees))
    ideal = _every_element_generates(models, maps)
    if ideal is None:
        return PartialCertificate(True, "no_graded_ideal_in_window", None)
    # node 2t is the top and node 2t + 1 the bottom of degree t
    coordinates = [[list(model.elements[x]) for x in sorted(positions)]
                   for model, positions in zip(models, ideal)]
    witness = {
        d.key(): {"top": coordinates[2 * t], "bottom": coordinates[2 * t + 1]}
        for t, d in enumerate(degrees)
    }
    return PartialCertificate(True, "witness", witness)


def _window_pairs(tower, degrees):
    """The in-window products of a finite tower by source: for position t
    of ``degrees``, a list of (u, tables), one per pair d1 + d2 = s with d2
    at t and s at u, in the order of d1.  ``tables`` are the pairing's (top,
    bottom) ``_product_tables``: per generator of the ring piece at d1, its
    left product from the piece at d2 to the piece at s.

    Towers repeat one piece and one pairing in many degrees (``em_tower``
    does), so each distinct (pairing, ring, piece, target), found by
    identity, is checked (``_check_pairing``) and tabulated once; hashing
    the frozen dataclasses would cost more than the sharing saves.  The
    tower holds every object, so no id is reused during the check.
    """
    pieces = [tower.pieces[d] for d in degrees]
    # Each degree is coded as one integer, its coordinates (a, m_1, ...) the
    # digits in base 4r + 1, r the largest |coordinate|.  Codes add like
    # degrees, and digits in [-2r, 2r] fix an integer uniquely in that base,
    # so a sum of codes is a degree's code exactly when the degrees sum to
    # it.  No RODegree sum is built and hashed for each of the n^2 pairs.
    coordinates = [(d.a,) + d.m for d in degrees]
    base = 4 * max(abs(x) for c in coordinates for x in c) + 1
    codes = [sum(x * base**i for i, x in enumerate(c)) for c in coordinates]
    position = {code: u for u, code in enumerate(codes)}
    shared = {}
    by_source = []
    for d2, code2, piece in zip(degrees, codes, pieces):
        outgoing = []
        for d1, code1, ring in zip(degrees, codes, pieces):
            u = position.get(code1 + code2)
            if u is None:
                continue
            pairing, target = tower.pairing(d1, d2), pieces[u]
            key = (id(pairing), id(ring), id(piece), id(target))
            tables = shared.get(key)
            if tables is None:
                _check_pairing(pairing, d1, d2, (ring, piece, target))
                tables = shared[key] = (
                    _product_tables(pairing.f_top.matrix, ring.top, piece.top, target.top),
                    _product_tables(pairing.f_bot.matrix, ring.bottom, piece.bottom, target.bottom),
                )
            outgoing.append((u, tables))
        by_source.append(outgoing)
    return by_source


def _check_pairing(pairing, d1, d2, factors):
    """Raise ``FactorMismatch``, naming both degrees, unless ``pairing`` (the
    tower's pairing for d1 and d2, or None where it has none) runs from
    ``factors[0]`` and ``factors[1]`` to ``factors[2]``."""
    where = f"degrees {d1.key()} and {d2.key()}"
    if pairing is None:
        raise FactorMismatch(f"the tower has no pairing for {where}")
    if (pairing.m, pairing.n, pairing.target) != factors:
        raise FactorMismatch(f"the pairing for {where} does not run between the tower's pieces")


def _window_graph(pieces, by_source):
    """(models, maps): the ``mackey._closure`` graph of a finite tower.  The
    piece at position t of the window's degrees has the top node 2t and the
    bottom node 2t + 1, joined by its res, tr and action; each product of
    ``_window_pairs`` adds an edge from the node at t to the node at u of
    the same level.  An empty table list, such as that of a zero bottom
    level, adds no edge."""
    models, maps = [], []
    for t, (piece, outgoing) in enumerate(zip(pieces, by_source)):
        top, bottom, res, tr, weyl = piece._tables
        models += (top, bottom)
        maps.append([(2 * t + 1, [res])]
                    + [(2 * u, tables) for u, (tables, _) in outgoing if tables])
        maps.append([(2 * t, [tr]), (2 * t + 1, [weyl])]
                    + [(2 * u + 1, tables) for u, (_, tables) in outgoing if tables])
    return models, maps


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
    pairing = tower.pairing(deg, deg)
    _check_pairing(pairing, deg, deg, (piece, piece, piece))
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
        raise WindowOverflow(f"graded product support has {len(sums)} degrees, more than "
                             f"MAX_GRADED_PIECES = {MAX_GRADED_PIECES}")
    pieces = {}
    for s, pairs in sums.items():
        parts = [box(a.pieces[d1], b.pieces[d2], limit=limit).result for d1, d2 in pairs]
        total = parts[0]
        for nxt in parts[1:]:
            total, _, _ = mackey_direct_sum(total, nxt)
        pieces[s] = total
    return GradedMackey(a.prime, pieces)
