"""Finitely generated abelian groups as presentations, and exact maps.

A group is Z^n modulo the row span of an integer relations matrix.  All
operations (kernels, cokernels, images, tensor products, quotients,
membership) are exact; canonical forms are (free rank, invariant factors).
A group killed by 2 is reduced over GF(2) on rows packed into ints; every
other group, and every finite model, reads the integer Smith normal form of
its relations.  Presentations are never silently minimized:
generator labels survive every construction so that permutation and
rotation maps defined on labels stay meaningful downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import mul

from .errors import IllFormedHom, InfiniteGroup
from .intlinalg import (
    IntMatrix,
    hermite_row_basis,
    kernel_basis,
    smith_u_diagonal,
    solve,
    unimodular_inverse,
)


@dataclass(frozen=True)
class FGAbPresentation:
    """Z^num_generators modulo the row span of ``relations``."""

    num_generators: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.ncols != self.num_generators:
            raise ValueError(
                f"relations have {self.relations.ncols} columns, expected {self.num_generators}"
            )

    # -- Smith form of the relations, computed once per object -----------
    @cached_property
    def _smith(self):
        """(U, diagonal) of U @ relations^T @ V == D in Smith form, built
        without V.  The presentation owns it: it is stored in the instance
        ``__dict__``, outside the dataclass fields, so equality and hashing
        ignore it, and it is freed with the object.  ``_model`` reads it, and
        so does ``_reducer`` for a group that is not killed by 2."""
        return smith_u_diagonal(self.relations.transpose())

    @cached_property
    def _reducer(self):
        """(kept, canonical): ``vec`` lies in the row span of the relations
        exactly when ``row @ vec`` is 0 for each kept (row, 0) and a multiple
        of d for each kept (row, d).

        When the relations contain +-e_i or +-2 e_i for every generator i,
        the group is killed by 2 and the kept rows are a basis of the GF(2)
        null space of the relations, each with d = 2 (``_mod2_null_space``).
        Otherwise they come from the Smith form ``_smith``: ``vec`` is in the
        span exactly when ``U @ vec`` lies in the column span of D, so the
        kept rows are the pairs (U row i, d_i) with d_i != 1, the only rows
        that constrain anything.
        """
        null = _mod2_null_space(self.relations.rows, self.num_generators)
        if null is not None:
            return tuple((row, 2) for row in null), (0, (2,) * len(null))
        u, diagonal = self._smith
        diag = [abs(x) for x in diagonal] + [0] * (self.num_generators - len(diagonal))
        kept = tuple((u.rows[i], di) for i, di in enumerate(diag) if di != 1)
        return kept, (diag.count(0), tuple(x for x in diag if x > 1))

    @cached_property
    def _columns_mod2(self):
        """The relations mod 2 by columns: generator j's column packed by
        ``_pack``, relation r at bit r.  ``AbHom`` reads it for its source,
        which is often the source of several maps."""
        return [_pack(col) for col in zip(*self.relations.rows)]

    def canonical(self):
        """(free_rank, invariant_factors) with factors > 1 in divisibility order."""
        return self._reducer[1]

    @property
    def free_rank(self):
        return self.canonical()[0]

    @property
    def invariant_factors(self):
        return self.canonical()[1]

    def is_zero_group(self):
        return self.free_rank == 0 and not self.invariant_factors

    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if not self.is_finite():
            raise InfiniteGroup("group has positive free rank")
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    # -- membership in the relation span ---------------------------------
    def reduces_to_zero(self, vec):
        """True when ``vec`` lies in the integer span of the relations."""
        if len(vec) != self.num_generators:
            raise ValueError("vector length mismatch")
        return _kills(self._reducer[0], vec)

    @cached_property
    def _model(self):
        """The ``FiniteModel`` of a finite group, built once per object and
        kept, like ``_reducer``, outside equality and hashing."""
        if not self.is_finite():
            raise InfiniteGroup("cannot enumerate an infinite group")
        u, diagonal = self._smith
        moduli = tuple(abs(x) for x in diagonal)
        return FiniteModel(self, moduli, u, unimodular_inverse(u))

    def to_json(self):
        return {"generators": self.num_generators, "relations": self.relations.to_lists()}


def _kills(kept, vec):
    """True when ``row @ vec`` is 0 for each kept (row, 0) and a multiple of d
    for each kept (row, d)."""
    support = [(j, x) for j, x in enumerate(vec) if x]
    for row, d in kept:
        w = 0
        for j, x in support:
            w += row[j] * x
        if w % d if d else w:
            return False
    return True


_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack(entries):
    """The entries mod 2 as one int, entry j at bit j."""
    return int(bytes([x & 1 for x in reversed(entries)]).translate(_BITS) or b"0", 2)


def _mod2_null_space(rows, n):
    """A basis of {y : R @ y == 0 mod 2} as 0/1 tuples when the rows R
    contain +-e_i or +-2 e_i for every generator i, else None.

    Such rows put 2 Z^n inside their span, so a vector lies in the span
    exactly when it lies in it mod 2, that is, when it is orthogonal mod 2
    to this null space.  The rows are packed by ``_pack`` and reduced by
    XOR to reduced echelon form, as in M4RI (Albrecht, Bard & Hart,
    "Efficient dense Gaussian elimination over GF(2)", ACM TOMS 37(1),
    2010); each free column f then gives e_f plus the pivots whose rows
    contain f.
    """
    covered = set()
    for row in rows:
        if n - row.count(0) == 1:
            x = max(row) or min(row)  # the row's one nonzero entry
            if -2 <= x <= 2:
                covered.add(row.index(x))
    if len(covered) < n:
        return None
    pivots = {}  # top bit -> packed row with that top bit
    for row in rows:
        v = _pack(row)
        while v:
            top = v.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = v
                break
            v ^= p
    # clear the lower pivot columns from each pivot row, lowest row first,
    # so that each pivot column is set in its own row only
    done = 0
    for top in sorted(pivots):
        v = pivots[top]
        hits = v & done
        while hits:
            low = hits & -hits
            v ^= pivots[low.bit_length() - 1]
            hits ^= low
        pivots[top] = v
        done |= 1 << top
    basis = []
    for f in range(n):
        if f not in pivots:
            y = 1 << f
            for top, v in pivots.items():
                if v >> f & 1:
                    y |= 1 << top
            basis.append(tuple(y >> j & 1 for j in range(n)))
    return basis


def free_group(n):
    return FGAbPresentation(n, IntMatrix.zeros(0, n))


def cyclic_group(n):
    """Z if n == 0, else Z/n, on one generator."""
    if n == 0:
        return free_group(1)
    return FGAbPresentation(1, IntMatrix([[n]]))


def zero_group():
    return FGAbPresentation(0, IntMatrix.zeros(0, 0))


@dataclass(frozen=True)
class AbHom:
    """Map of presented groups; matrix rows index target generators."""

    source: FGAbPresentation
    target: FGAbPresentation
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.ncols != self.source.num_generators:
            raise ValueError("matrix columns != source generators")
        if self.matrix.nrows != self.target.num_generators:
            raise ValueError("matrix rows != target generators")
        rels = self.source.relations.rows
        if not rels:
            return
        # (U_i @ matrix) @ rel == U_i @ (matrix @ rel): fold the kept rows of
        # the target's reducer into the map once; a zero row kills everything
        kept = self.target._reducer[0]
        if all(d == 2 for _, d in kept):
            bad = _rejected_mod2(kept, self.matrix.rows, self.source._columns_mod2)
            if bad:
                self._reject(rels[(bad & -bad).bit_length() - 1])
            return
        cols = list(zip(*self.matrix.rows))
        folded = []
        for row, d in kept:
            urow = [sum(map(mul, row, col)) for col in cols]
            if any(urow):
                folded.append((urow, d))
        for rel in rels:
            if not _kills(folded, rel):
                self._reject(rel)

    def _reject(self, rel):
        img = _apply(self.matrix, rel)
        raise IllFormedHom(
            f"source relation {list(rel)} maps to {list(img)} outside target relations"
        )

    def __call__(self, vec):
        return _apply(self.matrix, vec)

    def compose(self, other: "AbHom") -> "AbHom":
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return _unchecked(AbHom, other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other):
        _same_ends(self, other)
        return _unchecked(AbHom, self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other):
        _same_ends(self, other)
        return _unchecked(AbHom, self.source, self.target, self.matrix - other.matrix)

    def scale(self, k):
        return _unchecked(AbHom, self.source, self.target, self.matrix.scale(k))

    def power(self, e):
        if self.source != self.target:
            raise ValueError("power of non-endomorphism")
        return _unchecked(AbHom, self.source, self.target, self.matrix.power(e))

    def equals(self, other: "AbHom") -> bool:
        """Equality up to target relations, columnwise."""
        _same_ends(self, other)
        return first_nonzero_column(self.target, self.matrix - other.matrix) is None

    def is_zero(self):
        return first_nonzero_column(self.target, self.matrix) is None

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "matrix": self.matrix.to_lists(),
        }


def _rejected_mod2(kept, matrix_rows, columns):
    """Bitmask of the source relations (bit r for relation r) whose image
    under the matrix some kept row fails, for a target whose kept rows all
    have d = 2.  Each kept row is folded into the matrix mod 2 as one
    packed int over the source generators.  ``columns`` are the source
    relations packed by columns, so the XOR of the columns a folded row
    selects is the mask of the relations it maps to odd values."""
    images = [_pack(r) for r in matrix_rows]
    bad = 0
    for row, _ in kept:
        u = 0
        for i, x in enumerate(row):
            if x & 1:
                u ^= images[i]
        rejected = 0
        while u:
            low = u & -u
            rejected ^= columns[low.bit_length() - 1]
            u ^= low
        bad |= rejected
    return bad


def _unchecked(cls, *values):
    """The frozen dataclass ``cls`` holding ``values``, built without its
    ``__post_init__`` check: only for results that are maps by construction
    (README, "Where maps are checked")."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def first_nonzero_column(target: FGAbPresentation, matrix: IntMatrix):
    """Index of the first column of ``matrix`` that is not zero modulo the
    relations of ``target``, or None.  Maps f, g agree exactly when this is
    None for f - g: every identity between maps is decided here."""
    for j, col in enumerate(zip(*matrix.rows)):
        if not target.reduces_to_zero(col):
            return j
    return None


def _apply(matrix, vec):
    return tuple(sum(m * v for m, v in zip(row, vec)) for row in matrix.rows)


def _same_ends(f, g):
    if f.source != g.source or f.target != g.target:
        raise ValueError("homs have different endpoints")


def identity_hom(pres):
    return _unchecked(AbHom, pres, pres, IntMatrix.identity(pres.num_generators))


def zero_hom(source, target):
    return _unchecked(
        AbHom, source, target, IntMatrix.zeros(target.num_generators, source.num_generators)
    )


# ---------------------------------------------------------------------------
# kernels, cokernels, images, quotients


def present_quotient(generators: IntMatrix, killed: IntMatrix):
    """Present (span of generator columns)/(span of killed columns).

    Both arguments are matrices whose columns live in the same Z^n; the span
    of ``killed`` must be contained in the span of ``generators``.  Returns
    the presentation on one generator per column of ``generators``; its
    relations are every way a combination of those columns lands in the
    killed span.
    """
    if generators.nrows != killed.nrows:
        raise ValueError("ambient rank mismatch")
    t = generators.ncols
    stacked = generators.hstack(killed.scale(-1)) if killed.ncols else generators
    rel_rows = []
    for vec in kernel_basis(stacked):
        rel_rows.append(vec[:t])
    rels = IntMatrix(rel_rows, t)
    return FGAbPresentation(t, rels)


def hom_kernel(f: AbHom):
    """(K, incl) with incl: K -> source injective onto ker f."""
    src, tgt = f.source, f.target
    tr = tgt.relations.transpose()  # columns span the target relation subgroup
    stacked = f.matrix.hstack(tr) if tr.ncols else f.matrix
    gen_cols = []
    n = src.num_generators
    for vec in kernel_basis(stacked):
        gen_cols.append(vec[:n])
    gens = IntMatrix.from_columns(gen_cols, n)
    k_pres = present_quotient(gens, src.relations.transpose())
    incl = AbHom(k_pres, src, gens)
    return k_pres, incl


def hom_cokernel(f: AbHom):
    """(C, proj) with proj: target -> C the quotient by im f."""
    tgt = f.target
    extra = f.matrix.transpose()
    rels = tgt.relations.vstack(extra) if extra.nrows else tgt.relations
    c_pres = FGAbPresentation(tgt.num_generators, rels)
    proj = AbHom(tgt, c_pres, IntMatrix.identity(tgt.num_generators))
    return c_pres, proj


def hom_image(f: AbHom):
    """(I, incl, proj) with incl: I -> target, proj: source ->> I."""
    tgt = f.target
    i_pres = present_quotient(f.matrix, tgt.relations.transpose())
    incl = AbHom(i_pres, tgt, f.matrix)
    proj = AbHom(f.source, i_pres, IntMatrix.identity(f.source.num_generators))
    return i_pres, incl, proj


def quotient_by_subgroup(pres: FGAbPresentation, element_rows):
    """Quotient by the subgroup generated by the given element vectors."""
    extra = IntMatrix(element_rows, pres.num_generators)
    q = FGAbPresentation(pres.num_generators, pres.relations.vstack(extra))
    proj = AbHom(pres, q, IntMatrix.identity(pres.num_generators))
    return q, proj


def solve_membership(pres: FGAbPresentation, generator_cols: IntMatrix, vecs):
    """Coefficients expressing each of ``vecs`` in the given generators
    modulo relations, from one Smith form of the stacked system.

    Returns one entry per vector: a tuple of length generator_cols.ncols,
    or None when the vector is not in the span.
    """
    tr = pres.relations.transpose()
    stacked = generator_cols.hstack(tr) if tr.ncols else generator_cols
    solutions = solve(stacked, map(tuple, vecs))
    return [None if sol is None else sol[: generator_cols.ncols] for sol in solutions]


def factor_through_injection(f: AbHom, incl: AbHom) -> AbHom:
    """g with incl . g == f, for incl injective; errors if f misses the image."""
    if incl.target != f.target:
        raise ValueError("codomain mismatch")
    cols = solve_membership(f.target, incl.matrix, f.matrix.columns())
    if None in cols:
        raise IllFormedHom("map does not factor through the inclusion")
    mat = IntMatrix.from_columns(cols, incl.source.num_generators)
    return AbHom(f.source, incl.source, mat)


def direct_sum(a: FGAbPresentation, b: FGAbPresentation):
    """(S, incl_a, incl_b, proj_a, proj_b) block presentation."""
    na, nb = a.num_generators, b.num_generators
    top = a.relations.hstack(IntMatrix.zeros(a.relations.nrows, nb))
    bot = IntMatrix.zeros(b.relations.nrows, na).hstack(b.relations)
    s = FGAbPresentation(na + nb, top.vstack(bot))
    ia = AbHom(a, s, IntMatrix.identity(na).vstack(IntMatrix.zeros(nb, na)))
    ib = AbHom(b, s, IntMatrix.zeros(na, nb).vstack(IntMatrix.identity(nb)))
    pa = AbHom(s, a, IntMatrix.identity(na).hstack(IntMatrix.zeros(na, nb)))
    pb = AbHom(s, b, IntMatrix.zeros(nb, na).hstack(IntMatrix.identity(nb)))
    return s, ia, ib, pa, pb


def tensor(a: FGAbPresentation, b: FGAbPresentation) -> FGAbPresentation:
    """A (x) B presented on generator pairs: pair (i, j) is generator
    i * b.num_generators + j, and each relation of either factor is
    tensored with every generator of the other."""
    na, nb = a.num_generators, b.num_generators
    rows = []
    for rel in a.relations.rows:
        for j in range(nb):
            row = [0] * (na * nb)
            for i in range(na):
                row[i * nb + j] = rel[i]
            rows.append(row)
    for rel in b.relations.rows:
        for i in range(na):
            row = [0] * (na * nb)
            for j in range(nb):
                row[i * nb + j] = rel[j]
            rows.append(row)
    return FGAbPresentation(na * nb, IntMatrix(rows, na * nb))


def vector_tensor(x, y):
    """Coordinates of x (x) y on the generator pairs of ``tensor``."""
    return tuple(a * b for a in x for b in y)


# ---------------------------------------------------------------------------
# finite models: element enumeration and subgroup lattices


@dataclass(frozen=True)
class FiniteModel:
    """A finite presented group whose elements are positions: the mixed-radix
    numbers whose digits, the last fastest, are the residues (``elements``)
    in the cyclic decomposition Z/d_1 x ... x Z/d_n (``moduli``, 1s
    included), so the zero is position 0.  ``u`` maps generator coordinates
    to residues, and ``u_inv``, read off the Hermite basis of [u | I]
    (``unimodular_inverse``), lifts back.  Only this class knows the coding:
    ``position``, ``lift``, ``plus`` and ``join`` take and give positions.
    """

    pres: FGAbPresentation
    moduli: tuple  # invariant factors including 1s, aligned with coordinates
    u: IntMatrix  # generator coords -> decomposition coords
    u_inv: IntMatrix

    def to_canonical(self, vec):
        raw = _apply(self.u, vec)
        return tuple(x % d for x, d in zip(raw, self.moduli))

    def from_canonical(self, coords):
        return _apply(self.u_inv, coords)

    @cached_property
    def elements(self):
        """Every element's residues, by position.  Built on first use and
        kept in the instance ``__dict__``, outside equality and hashing; read
        only to print coordinates and to ``lift``."""
        return tuple(product(*(range(d) for d in self.moduli)))

    def position(self, vec):
        """The position of the element with generator coordinates ``vec``."""
        x = 0
        for c, d in zip(self.to_canonical(vec), self.moduli):
            x = x * d + c
        return x

    def lift(self, x):
        """Generator coordinates of the element at position ``x``."""
        return self.from_canonical(self.elements[x])

    def plus(self, x, y):
        """The position of the sum of the elements at positions x and y,
        added digit by digit modulo each factor."""
        total, w = 0, 1  # w: the place value of the digit of Z/d
        for d in reversed(self.moduli):
            total += (x // w + y // w) % d * w
            w *= d
        return total

    def join(self, subgroup, z, stop=None):
        """S + <z> as a new set of positions, for the subgroup S given by its
        positions, by walking the cosets S + z, S + 2z, ... until one falls
        back into the join.  None as soon as ``stop(coset)`` holds for a new
        coset, given as a list of positions."""
        plus, joined, coset = self.plus, set(subgroup), list(subgroup)
        while True:
            coset = [plus(e, z) for e in coset]
            if coset[0] in joined:
                return joined
            if stop is not None and stop(coset):
                return None
            joined.update(coset)

    def order(self):
        n = 1
        for d in self.moduli:
            n *= d
        return n


def _image_table(matrix: IntMatrix, model: FiniteModel, target_model: FiniteModel):
    """Position in ``target_model`` of ``matrix @ x`` for each element x of
    ``model``, by position.  The map is a homomorphism, so the table is
    built from the images of the cyclic generators of ``model``: the
    positions come in the order of their digits, the last fastest, and
    each costs one addition."""
    plus = target_model.plus
    images = [0]
    for k, d in enumerate(model.moduli):
        if d == 1:
            continue
        step = target_model.position(_apply(matrix, model.u_inv.column(k)))
        grown = []
        for y in images:
            for _ in range(d):
                grown.append(y)
                y = plus(y, step)
        images = grown
    return images


def finite_model(pres: FGAbPresentation) -> FiniteModel:
    """The presentation's finite model, built once and shared by every caller."""
    return pres._model


def span_key(pres: FGAbPresentation, rows):
    """Hermite key of the subgroup of ``pres`` generated by the element
    ``rows``: the canonical row basis of their span plus the relations, so
    any two generating sets of one subgroup give the same key."""
    return hermite_row_basis(list(rows) + list(pres.relations.rows), pres.num_generators)


def subgroup_key(model: FiniteModel, positions):
    """``span_key`` of the subgroup generated by the elements at the given
    positions, such as its elements or any generating set of it.  Only a
    generating set is keyed: the positions in ascending order, each kept
    when it lies outside the span of those kept before it (``join``), so at
    most log2 of the order many rows."""
    span, kept = {0}, []
    for x in sorted(positions):
        if x not in span:
            span = model.join(span, x)
            kept.append(model.lift(x))
    return span_key(model.pres, kept)


def _lattice(model: FiniteModel, orbits):
    """Every sum of the subgroups spanned by ``orbits`` (tuples of element
    positions in ``model``), as frozensets of positions in Hermite-key order.

    With one-element orbits this is the subgroup lattice, since every
    subgroup is a sum of cyclic subgroups.  With the orbits x, g(x),
    g(g(x)), ... of an endomorphism g it is the lattice of g-stable
    subgroups, since each is a sum of cyclic submodules.

    The distinct spans (``FiniteModel.join``) are numbered as atoms A_0, A_1,
    ...  Each set S has one canonical sequence: A_i1 with i1 the least atom
    in S, then A_i2 with i2 the least atom in S not in A_i1, and so on, with
    rising indices (canonical augmentation: McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998).  The walk joins S + A_i only for i
    above the last index of S's sequence, and drops the join as soon as an
    atom below i turns up in it but not in S, so each set is built exactly
    once, from the prefix of its sequence.  Every set is a sum of stable
    spans, so it contains an atom exactly when it contains the atom's first
    orbit element.  Joining S + A_i walks the cosets S + x, S + 2x, ...
    through a translation table e -> e + x (``FiniteModel.plus``) until one
    falls back into the join, so it costs one lookup per element of the
    result.  The Hermite key of a join is the Hermite row basis of S's key,
    which spans S plus the relations, and of the lifts of the generators
    that were not yet in S; it serves only to sort.
    """
    join, plus, lift, order = model.join, model.plus, model.lift, model.order()
    atoms = {}
    for orbit in orbits:
        # only the generators of distinct spans get a translation table
        span = {0}
        for x in orbit:
            if x not in span:
                span = join(span, x)
        atoms.setdefault(frozenset(span), orbit)
    atoms = list(atoms.values())
    rank = [len(atoms)] * order  # position -> index of the atom it is first of
    for i, orbit in enumerate(atoms):
        rank[orbit[0]] = i
    tables = {}
    lifts = {}

    def join_atom(s, i):
        """(S + A_i, the lifts of the generators that were not yet in S),
        or None as soon as the join meets the first element of an atom
        below i: the join is then built from its canonical parent."""
        joined = s  # copied on its first new coset
        used = []
        for x in atoms[i]:
            if x in joined:
                continue
            table = tables.get(x)
            if table is None:
                table = tables[x] = [plus(e, x) for e in range(order)]
                lifts[x] = lift(x)
            used.append(lifts[x])
            coset = joined
            while True:
                coset = [table[e] for e in coset]
                if coset[0] in joined:
                    break
                if min(map(rank.__getitem__, coset)) < i:
                    return None
                if joined is s:
                    joined = set(s)
                joined.update(coset)
        return frozenset(joined), used

    n = model.pres.num_generators
    zero = frozenset([0])
    keys = {zero: hermite_row_basis(model.pres.relations.rows, n)}
    frontier = [(zero, -1)]  # (set, last index of its canonical sequence)
    while frontier:
        grown = []
        for s, last in frontier:
            for i in range(last + 1, len(atoms)):
                if atoms[i][0] in s:
                    continue
                found = join_atom(s, i)
                if found is not None:
                    joined, used = found
                    keys[joined] = hermite_row_basis(keys[s] + tuple(used), n)
                    grown.append((joined, i))
        frontier = grown
    return sorted(keys, key=keys.get)


def enumerate_subgroups(model: FiniteModel):
    """All subgroups as frozensets of canonical coordinates, Hermite-sorted.

    The lattice of spans of single elements, that is of cyclic subgroups
    (``_lattice``), translated from element positions to coordinates.
    """
    elements = model.elements
    orbits = [(x,) for x in range(model.order())]
    return [frozenset(elements[x] for x in s) for s in _lattice(model, orbits)]


def subgroup_presentation(model: FiniteModel, positions):
    """(P, incl) presenting the subgroup spanned by the given positions on the
    rows of its Hermite key (``subgroup_key``): they span the subgroup plus
    the relations, so P has at most ``num_generators`` generators."""
    mat = IntMatrix.from_columns(subgroup_key(model, positions), model.pres.num_generators)
    pres = present_quotient(mat, model.pres.relations.transpose())
    return pres, AbHom(pres, model.pres, mat)
