"""Finite truncated simplicial sets with a cyclic group action.

Everything is stored level by level: elements, faces, degeneracies, the
group action, and (for circle models) the cyclic rotation operator.  The
standard circle has level n equal to the cyclic set of order n + 1; the
r-fold edgewise subdivision reads level n off level (n+1)r - 1 and carries
a rotation action of order r.  Wedges over a free orbit, the fold map, and
the pinch construction are all built combinatorially and re-validated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boxtensor import _normalized_assignment, box_power, contract_by_assignment
from .errors import (
    InsufficientTruncation,
    LevelMismatch,
    NotAModule,
    NotEquivariant,
    NotFreeAction,
    NotInjective,
    NotSimplicial,
    PrimeMismatch,
)
from .green import _right_unitality, self_module
from .mackey import identity_map


@dataclass
class SimplicialGSet:
    """Levels 0..truncation of a simplicial set with a group action.

    ``faces[n][i]`` maps level n to level n-1 (0 <= i <= n, n >= 1);
    ``degeneracies[n][i]`` maps level n to level n+1 (0 <= i <= n, n <
    truncation); ``action[n]`` is the permutation by the chosen generator;
    ``cyclic[n]``, when present, is the rotation operator of the circle
    models, satisfying last face = first face after rotation.
    """

    order: int
    truncation: int
    levels: list
    faces: list
    degeneracies: list
    action: list
    cyclic: list | None = None

    def size(self, n):
        return len(self.levels[n])

    def label(self, n, i):
        return self.levels[n][i]

    def validate(self):
        problems = self.identity_failures()
        if problems:
            raise NotSimplicial("simplicial identities fail: " + "; ".join(problems[:3]))
        return self

    def identity_failures(self):
        out = _identity_failures(
            self.truncation,
            lambda n, i: self.faces[n][i],
            lambda n, i: self.degeneracies[n][i],
            _compose,
            lambda lhs, rhs, n: _first_difference(lhs, rhs, lambda v: f" on {self.label(n, v)}"),
            lambda n: list(range(self.size(n))),
        )
        # action is simplicial and has the right order
        for n in range(self.truncation + 1):
            a = self.action[n]
            pow_ = list(range(self.size(n)))
            for _ in range(self.order):
                pow_ = [a[x] for x in pow_]
            if pow_ != list(range(self.size(n))):
                out.append(f"action order at level {n}")
        out.extend("action vs " + fail for fail in _naturality_failures(self, self, self.action))
        return out

    def action_is_free(self):
        if self.order == 1:
            return False
        for n in range(self.truncation + 1):
            a = self.action[n]
            for x in range(self.size(n)):
                if any(_orbit_hits(a, x, k) for k in range(1, self.order)):
                    return False
        return True

    def degenerate_flags(self, n):
        """True for simplices in the image of some degeneracy."""
        if n == 0:
            return [False] * self.size(0)
        hit = [False] * self.size(n)
        for i in range(n):
            for x in range(self.size(n - 1)):
                hit[self.degeneracies[n - 1][i][x]] = True
        return hit

    def nondegenerate_census(self):
        out = []
        for n in range(self.truncation + 1):
            flags = self.degenerate_flags(n)
            out.append(sum(1 for fl in flags if not fl))
        return out

    def orbit_representatives(self, n):
        """Smallest-index representative per action orbit, sorted."""
        a = self.action[n]
        seen = [False] * self.size(n)
        reps = []
        for x in range(self.size(n)):
            if not seen[x]:
                reps.append(x)
                y = x
                for _ in range(self.order):
                    seen[y] = True
                    y = a[y]
        return reps

    def to_json(self):
        return {
            "order": self.order,
            "truncation": self.truncation,
            "levels": [list(l) for l in self.levels],
            "faces": [[list(m) for m in lvl] for lvl in self.faces],
            "degeneracies": [[list(m) for m in lvl] for lvl in self.degeneracies],
            "action": [list(a) for a in self.action],
        }


def _orbit_hits(a, x, k):
    y = x
    for _ in range(k):
        y = a[y]
    return y == x


def _compose(g, f):
    """The index list of g after f."""
    return [g[v] for v in f]


def _first_difference(lhs, rhs, name):
    """None when the lists ``lhs`` and ``rhs`` agree, else ``name(v)`` for
    the first position v where they differ."""
    if lhs == rhs:
        return None
    return name(next(v for v, (a, b) in enumerate(zip(lhs, rhs)) if a != b))


def _identity_failures(top, face, degeneracy, compose, witness, identity):
    """The simplicial identities that fail up to level ``top``.

    ``face(n, i)`` and ``degeneracy(n, i)`` are the maps out of level n,
    ``compose(g, f)`` is g after f, ``identity(n)`` is the identity of level
    n, and ``witness(lhs, rhs, n)`` is None when two maps out of level n
    agree, else text naming where they differ.  Each failure reads
    "d{i} d{j} at level {n}", "s{i} s{j} at level {n}" or
    "d{i} s{j} at level {n}", followed by its witness.
    """
    out = []

    def check(name, n, lhs, rhs):
        w = witness(lhs, rhs, n)
        if w is not None:
            out.append(f"{name} at level {n}{w}")

    for n in range(2, top + 1):
        for j in range(n + 1):
            for i in range(j):
                # d_i d_j = d_{j-1} d_i for i < j
                lhs = compose(face(n - 1, i), face(n, j))
                check(f"d{i} d{j}", n, lhs, compose(face(n - 1, j - 1), face(n, i)))
    for n in range(top - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                # s_i s_j = s_{j+1} s_i for i <= j
                lhs = compose(degeneracy(n + 1, i), degeneracy(n, j))
                check(f"s{i} s{j}", n, lhs, compose(degeneracy(n + 1, j + 1), degeneracy(n, i)))
    for n in range(top):
        for j in range(n + 1):
            for i in range(n + 2):
                # d_i s_j is s_{j-1} d_i for i < j, the identity for i = j, j+1,
                # and s_j d_{i-1} for i > j+1
                lhs = compose(face(n + 1, i), degeneracy(n, j))
                if i < j:
                    rhs = compose(degeneracy(n - 1, j - 1), face(n, i))
                elif i <= j + 1:
                    rhs = identity(n)
                else:
                    rhs = compose(degeneracy(n - 1, j), face(n, i - 1))
                check(f"d{i} s{j}", n, lhs, rhs)
    return out


def _naturality_failures(source, target, phi):
    """Faces and degeneracies of ``source`` that the level maps ``phi`` (one
    index list per level, into ``target``) do not commute with, each read
    "d{i} at level {n}" or "s{i} at level {n}" with its first simplex."""
    out = []
    top = source.truncation
    for name, source_ops, target_ops, step, levels in (
        ("d", source.faces, target.faces, -1, range(1, top + 1)),
        ("s", source.degeneracies, target.degeneracies, 1, range(top)),
    ):
        for n in levels:
            for i in range(n + 1):
                lhs = _compose(target_ops[n][i], phi[n])
                w = _first_difference(lhs, _compose(phi[n + step], source_ops[n][i]),
                                      lambda v: f" on {source.label(n, v)}")
                if w is not None:
                    out.append(f"{name}{i} at level {n}{w}")
    return out


# ---------------------------------------------------------------------------
# the standard circle and edgewise subdivision


def standard_circle(truncation) -> SimplicialGSet:
    """Level n is the cyclic set {1, g, ..., g^n}; trivial group action.

    The displayed face and degeneracy formulas collapse the last arc; the
    rotation operator sends g^j to g^(j+1) cyclically, and the last face
    equals the first face after rotating.
    """
    if truncation < 1:
        raise ValueError("need at least one level above the vertices")
    levels = [[f"g{j}" for j in range(n + 1)] for n in range(truncation + 1)]
    faces = [None]
    for n in range(1, truncation + 1):
        level_maps = []
        for i in range(n + 1):
            if i < n:
                level_maps.append([j if j <= i else j - 1 for j in range(n + 1)])
            else:
                level_maps.append([j if j < n else 0 for j in range(n + 1)])
        faces.append(level_maps)
    degeneracies = []
    for n in range(truncation):
        level_maps = []
        for i in range(n + 1):
            level_maps.append([j if j <= i else j + 1 for j in range(n + 1)])
        degeneracies.append(level_maps)
    action = [list(range(n + 1)) for n in range(truncation + 1)]
    cyclic = [[(j + 1) % (n + 1) for j in range(n + 1)] for n in range(truncation + 1)]
    x = SimplicialGSet(1, truncation, levels, faces, degeneracies, action, cyclic)
    return x.validate()


def edgewise_subdivision(x: SimplicialGSet, r) -> SimplicialGSet:
    """r-fold edgewise subdivision; level n comes from level (n+1)r - 1.

    When the input carries a cyclic operator and a trivial action, the
    result carries the rotation action of order r (the operator to the
    power n + 1); otherwise the input action and order are carried over.
    """
    if r < 1:
        raise ValueError("subdivision arity must be positive")
    if r == 1:
        return x
    new_trunc = (x.truncation + 1) // r - 1
    if new_trunc < 1:
        raise InsufficientTruncation(
            f"need input truncation at least {2 * r - 1}, have {x.truncation}"
        )
    levels = [list(x.levels[(n + 1) * r - 1]) for n in range(new_trunc + 1)]
    faces = [None]
    for n in range(1, new_trunc + 1):
        src = (n + 1) * r - 1
        level_maps = []
        for i in range(n + 1):
            # compose d_i, d_{i+n+1}, ..., d_{i+(r-1)(n+1)}, innermost last
            mapping = list(range(x.size(src)))
            lvl = src
            for t in reversed(range(r)):
                idx = i + t * (n + 1)
                mapping = [x.faces[lvl][idx][v] for v in mapping]
                lvl -= 1
            level_maps.append(mapping)
        faces.append(level_maps)
    degeneracies = []
    for n in range(new_trunc):
        src = (n + 1) * r - 1
        level_maps = []
        for i in range(n + 1):
            mapping = list(range(x.size(src)))
            lvl = src
            for t in range(r):
                idx = i + t * (n + 2)
                mapping = [x.degeneracies[lvl][idx][v] for v in mapping]
                lvl += 1
            level_maps.append(mapping)
        degeneracies.append(level_maps)
    cyclic = None
    if x.cyclic is not None:
        cyclic = [list(x.cyclic[(n + 1) * r - 1]) for n in range(new_trunc + 1)]
    trivial_input = all(a == list(range(len(a))) for a in x.action)
    if trivial_input and cyclic is not None:
        # rotation by one r-th of the circle: the cyclic operator to the n+1
        order = r
        action = []
        for n in range(new_trunc + 1):
            a = list(range(len(levels[n])))
            for _ in range(n + 1):
                a = [cyclic[n][v] for v in a]
            action.append(a)
    else:
        order = x.order
        action = [list(x.action[(n + 1) * r - 1]) for n in range(new_trunc + 1)]
    out = SimplicialGSet(order, new_trunc, levels, faces, degeneracies, action, cyclic)
    return out.validate()


def p_circle(p, truncation) -> SimplicialGSet:
    """The p-fold subdivided circle with its free rotation action."""
    base = standard_circle((truncation + 1) * p - 1)
    return edgewise_subdivision(base, p)


def verify_last_face_identity(x: SimplicialGSet):
    """Check that the last face is the first face after one rotation."""
    if x.cyclic is None:
        raise ValueError("no cyclic operator attached")
    report = []
    for n in range(1, x.truncation + 1):
        for v in range(x.size(n)):
            lhs = x.faces[n][n][v]
            rhs = x.faces[n][0][x.cyclic[n][v]]
            if lhs != rhs:
                report.append((n, x.label(n, v)))
    return report


# ---------------------------------------------------------------------------
# simplicial maps


@dataclass
class SimplicialMap:
    source: SimplicialGSet
    target: SimplicialGSet
    mapping: list  # per level, list of target indices

    def validate(self, equivariant=True):
        if self.source.truncation > self.target.truncation:
            raise LevelMismatch("the source is truncated above the target")
        fails = _naturality_failures(self.source, self.target, self.mapping)
        if fails:
            raise NotSimplicial(f"not simplicial: {fails[0]}")
        if equivariant:
            fails = self.equivariance_failures()
            if fails:
                raise NotEquivariant(f"fails at {fails[0]}")
        return self

    def equivariance_failures(self):
        out = []
        s, t = self.source, self.target
        for n in range(s.truncation + 1):
            for v in range(s.size(n)):
                if t.action[n][self.mapping[n][v]] != self.mapping[n][s.action[n][v]]:
                    out.append((n, s.label(n, v)))
        return out

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        if other.target is not self.source and other.target != self.source:
            raise LevelMismatch("composition mismatch")
        mapping = [
            [self.mapping[n][other.mapping[n][v]] for v in range(other.source.size(n))]
            for n in range(other.source.truncation + 1)
        ]
        return SimplicialMap(other.source, self.target, mapping)

    def equals(self, other):
        return self.mapping == other.mapping

    def is_injective(self):
        return all(len(set(m)) == len(m) for m in self.mapping)

    def is_bijective(self):
        return self.is_injective() and all(
            self.source.size(n) == self.target.size(n) for n in range(self.source.truncation + 1)
        )


def identity_simplicial_map(x: SimplicialGSet) -> SimplicialMap:
    return SimplicialMap(x, x, [list(range(x.size(n))) for n in range(x.truncation + 1)])


def discrete_orbit(p, truncation) -> SimplicialGSet:
    """The free orbit as a constant simplicial set: p points at every level."""
    levels = [[f"c{j}" for j in range(p)] for _ in range(truncation + 1)]
    ident = [list(range(p)) for _ in range(truncation + 1)]
    faces = [None] + [[list(range(p)) for _ in range(n + 1)] for n in range(1, truncation + 1)]
    degeneracies = [[list(range(p)) for _ in range(n + 1)] for n in range(truncation)]
    action = [[(j + 1) % p for j in range(p)] for _ in range(truncation + 1)]
    return SimplicialGSet(p, truncation, levels, faces, degeneracies, action).validate()


def orbit_inclusion(orbit: SimplicialGSet, x: SimplicialGSet, vertex_of) -> SimplicialMap:
    """Totally degenerate extension of a vertex assignment c_j -> vertex_of(j)."""
    mapping = [[vertex_of(j) for j in range(orbit.size(0))]]
    for n in range(1, orbit.truncation + 1):
        prev = mapping[n - 1]
        mapping.append([x.degeneracies[n - 1][0][prev[j]] for j in range(orbit.size(n))])
    m = SimplicialMap(orbit, x, mapping)
    if not m.is_injective():
        raise NotInjective("orbit inclusion is not injective")
    return m.validate()


def circle_orbit_inclusion(x: SimplicialGSet) -> SimplicialMap:
    """The p vertices of the subdivided circle, included equivariantly."""
    orbit = discrete_orbit(x.order, x.truncation)
    return orbit_inclusion(orbit, x, lambda j: j)


# ---------------------------------------------------------------------------
# pushouts over the orbit (equivariant wedges)


@dataclass
class WedgeResult:
    space: SimplicialGSet
    include_left: SimplicialMap
    include_right: SimplicialMap


def wedge_over_orbit(incl_left: SimplicialMap, incl_right: SimplicialMap) -> WedgeResult:
    """Pushout of two injective equivariant inclusions of the free orbit."""
    orbit = incl_left.source
    if incl_right.source.levels != orbit.levels:
        raise ValueError("inclusions must share the orbit object")
    for m in (incl_left, incl_right):
        if not m.is_injective():
            raise NotInjective("orbit inclusion must be injective")
        if m.equivariance_failures():
            raise NotEquivariant("orbit inclusion must be equivariant")
    x, y = incl_left.target, incl_right.target
    trunc = min(x.truncation, y.truncation)
    levels = []
    left_idx = []
    right_idx = []
    for n in range(trunc + 1):
        glue = {incl_right.mapping[n][j]: incl_left.mapping[n][j] for j in range(orbit.size(n))}
        lx = [f"a:{x.label(n, v)}" for v in range(x.size(n))]
        li = list(range(x.size(n)))
        ri = []
        labels = lx
        for v in range(y.size(n)):
            if v in glue:
                ri.append(glue[v])
            else:
                ri.append(len(labels))
                labels = labels + [f"b:{y.label(n, v)}"]
        levels.append(labels)
        left_idx.append(li)
        right_idx.append(ri)

    def induce(opname, n, i, xmaps, ymaps, out_level):
        src_size = len(levels[n])
        out = [None] * src_size
        for v in range(x.size(n)):
            out[left_idx[n][v]] = left_idx[out_level][xmaps[v]]
        for v in range(y.size(n)):
            tgt = right_idx[out_level][ymaps[v]]
            cur = out[right_idx[n][v]]
            if cur is not None and cur != tgt:
                raise ValueError(f"pushout not well-defined for {opname}{i} at level {n}")
            out[right_idx[n][v]] = tgt
        return out

    faces = [None]
    for n in range(1, trunc + 1):
        faces.append(
            [induce("d", n, i, x.faces[n][i], y.faces[n][i], n - 1) for i in range(n + 1)]
        )
    degeneracies = []
    for n in range(trunc):
        degeneracies.append(
            [induce("s", n, i, x.degeneracies[n][i], y.degeneracies[n][i], n + 1) for i in range(n + 1)]
        )
    action = []
    for n in range(trunc + 1):
        out = [None] * len(levels[n])
        for v in range(x.size(n)):
            out[left_idx[n][v]] = left_idx[n][x.action[n][v]]
        for v in range(y.size(n)):
            out[right_idx[n][v]] = right_idx[n][y.action[n][v]]
        action.append(out)
    space = SimplicialGSet(x.order, trunc, levels, faces, degeneracies, action).validate()
    lmap = SimplicialMap(x, space, left_idx).validate()
    rmap = SimplicialMap(y, space, right_idx).validate()
    return WedgeResult(space, lmap, rmap)


def circle_wedge(p, truncation) -> WedgeResult:
    """Two subdivided circles glued along their vertex orbit."""
    c1 = p_circle(p, truncation)
    c2 = p_circle(p, truncation)
    return wedge_over_orbit(circle_orbit_inclusion(c1), circle_orbit_inclusion(c2))


def fold_map(wedge: WedgeResult) -> SimplicialMap:
    """Fold both circle copies onto one, the identity on each."""
    x = wedge.include_left.source
    y = wedge.include_right.source
    w = wedge.space
    mapping = []
    for n in range(w.truncation + 1):
        out = [None] * w.size(n)
        for v in range(x.size(n)):
            out[wedge.include_left.mapping[n][v]] = v
        for v in range(y.size(n)):
            out[wedge.include_right.mapping[n][v]] = v
        mapping.append(out)
    return SimplicialMap(w, x, mapping).validate()


def relabel_map(a: SimplicialGSet, b: SimplicialGSet, rename) -> SimplicialMap:
    """Map defined by a label translation; validated as simplicial and
    equivariant.  Raises KeyError when a translated label is missing."""
    index = [
        {b.label(n, v): v for v in range(b.size(n))} for n in range(b.truncation + 1)
    ]
    mapping = [
        [index[n][rename(a.label(n, v))] for v in range(a.size(n))]
        for n in range(a.truncation + 1)
    ]
    return SimplicialMap(a, b, mapping).validate()


def triple_wedge_rebracket(p, truncation):
    """Both bracketings of the three-fold wedge and the natural isomorphism."""
    base = circle_wedge(p, truncation)
    extra = p_circle(p, truncation)
    orbit_in_base_left = base.include_left.compose(
        circle_orbit_inclusion(base.include_left.source)
    )
    left_first = wedge_over_orbit(orbit_in_base_left, circle_orbit_inclusion(extra))
    right_first = wedge_over_orbit(
        circle_orbit_inclusion(p_circle(p, truncation)),
        base.include_left.compose(circle_orbit_inclusion(base.include_left.source)),
    )

    def rename(label):
        if label.startswith("a:a:"):
            return "a:" + label[4:]
        if label.startswith("a:b:"):
            return "b:a:" + label[4:]
        if label.startswith("b:"):
            return "b:b:" + label[2:]
        raise KeyError(label)

    iso = relabel_map(left_first.space, right_first.space, rename)
    return left_first, right_first, iso


# ---------------------------------------------------------------------------
# the pinch candidate and the missing counit


def _find(parent, v):
    """Root of v in the union-find forest ``parent``; each root is the least
    element of its class."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _union(parent, a, b):
    """Merge the classes of a and b; True when they were different."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[max(ra, rb)] = min(ra, rb)
    return True


def _congruence_quotient(x: SimplicialGSet, vertex_pairs):
    """Quotient by the simplicial congruence generated by vertex identifications."""
    parent = [list(range(x.size(n))) for n in range(x.truncation + 1)]
    for a, b in vertex_pairs:
        _union(parent[0], a, b)
    # propagate until every simplex has the degeneracy and face images of its
    # class root; then equal classes have equal images
    changed = True
    while changed:
        changed = False
        for ops, step, levels in (
            (x.degeneracies, 1, range(x.truncation)),
            (x.faces, -1, range(1, x.truncation + 1)),
        ):
            for n in levels:
                for v in range(x.size(n)):
                    r = _find(parent[n], v)
                    if r != v:
                        for op in ops[n]:
                            changed |= _union(parent[n + step], op[v], op[r])

    # classes are numbered in the order of their roots
    reps = []
    number = []
    for n, forest in enumerate(parent):
        roots = [_find(forest, v) for v in range(x.size(n))]
        reps.append(sorted(set(roots)))
        index_of = {r: k for k, r in enumerate(reps[n])}
        number.append([index_of[r] for r in roots])
    top = x.truncation
    levels = [[x.label(n, r) for r in reps[n]] for n in range(top + 1)]
    faces = [None] + [
        [[number[n - 1][op[r]] for r in reps[n]] for op in x.faces[n]] for n in range(1, top + 1)
    ]
    degeneracies = [
        [[number[n + 1][op[r]] for r in reps[n]] for op in x.degeneracies[n]] for n in range(top)
    ]
    action = [[number[n][x.action[n][r]] for r in reps[n]] for n in range(top + 1)]
    q = SimplicialGSet(x.order, top, levels, faces, degeneracies, action).validate()
    qmap = SimplicialMap(x, q, number).validate()
    return q, qmap


@dataclass
class PinchVerdict:
    image_vertex_cycle: list
    expected_vertex_cycle: list
    equivariant: bool
    witness_level: int | None
    witness_simplex: str | None
    fixed_vertices: list
    note: str

    def to_json(self):
        return {
            "image_vertex_cycle": self.image_vertex_cycle,
            "expected_vertex_cycle": self.expected_vertex_cycle,
            "equivariant": self.equivariant,
            "witness": None
            if self.witness_simplex is None
            else {"level": self.witness_level, "simplex": self.witness_simplex},
            "fixed_vertices": self.fixed_vertices,
            "note": self.note,
        }


def pinch_candidate(p, truncation=2):
    """The orbitwise pinch on the doubly subdivided circle.

    Identifies antipodal vertex pairs of the 2p-fold circle.  Returns the
    quotient map and a verdict comparing the induced action on the image
    with the rotation action on the wedge of two p-fold circles; the two
    always differ, and the witness simplex records where.
    """
    # the doubly subdivided circle with the carried order-p rotation
    double = edgewise_subdivision(p_circle(p, 2 * (truncation + 1) - 1), 2)
    n0 = double.size(0)  # 2p vertices
    pairs = [(v, (v + p) % n0) for v in range(p)]
    quotient, qmap = _congruence_quotient(double, pairs)

    wedge = circle_wedge(p, truncation)
    w = wedge.space

    # natural cell matching: vertex class i -> orbit vertex i; the first p
    # nondegenerate edges go to the left circle, the rest to the right
    mapping = _natural_pinch_matching(quotient, wedge, p)
    comparison = SimplicialMap(quotient, w, mapping)
    comparison.validate(equivariant=False)
    fails = comparison.equivariance_failures()
    equivariant = not fails
    witness_level, witness_simplex = (None, None)
    if fails:
        witness_level, witness_simplex = fails[0]

    act0 = quotient.action[0]
    image_cycle = [act0[v] for v in range(quotient.size(0))]
    expected_cycle = [w.action[0][v] for v in range(w.size(0))]
    fixed = [quotient.label(0, v) for v in range(quotient.size(0)) if act0[v] == v]
    if p == 2:
        note = "image action fixes the glued vertices and swaps the two circles"
    else:
        note = "image action rotates vertex classes by two steps instead of one"
    verdict = PinchVerdict(
        image_cycle, expected_cycle, equivariant, witness_level, witness_simplex, fixed, note
    )
    return qmap, comparison, verdict


def _natural_pinch_matching(quotient, wedge, p):
    w = wedge.space
    trunc = quotient.truncation
    # vertices: quotient classes inherit the order of the original vertices
    mapping = [list(range(quotient.size(0)))]
    for n in range(1, trunc + 1):
        lvl = [None] * quotient.size(n)
        if n == 1:
            flags = quotient.degenerate_flags(1)
            nondegenerate = [v for v in range(quotient.size(1)) if not flags[v]]
            for k, v in enumerate(nondegenerate):
                if k < p:
                    target_label = f"a:{p_circle_edge_label(p, k)}"
                else:
                    target_label = f"b:{p_circle_edge_label(p, k - p)}"
                lvl[v] = w.levels[1].index(target_label)
        # degenerate simplices: push a canonical degeneracy expression through
        for v in range(quotient.size(n)):
            if lvl[v] is not None:
                continue
            done = False
            for i in range(n):
                for u in range(quotient.size(n - 1)):
                    if quotient.degeneracies[n - 1][i][u] == v:
                        lvl[v] = w.degeneracies[n - 1][i][mapping[n - 1][u]]
                        done = True
                        break
                if done:
                    break
            if not done:
                raise ValueError("nondegenerate simplex above dimension 1 in the pinch image")
        mapping.append(lvl)
    return mapping


def p_circle_edge_label(p, k):
    """Label of the k-th nondegenerate edge of the p-fold circle."""
    return f"g{2 * k + 1}"


def no_equivariant_collapse(p, truncation=2):
    """Exhaustive check: no equivariant simplicial map from the p-fold
    circle to the free orbit exists.

    The circle is connected, so the vertex image is forced to be constant,
    and a constant equivariant map needs a fixed point; the orbit has none.
    """
    circle = p_circle(p, truncation)
    orbit = discrete_orbit(p, truncation)
    # connectivity of the circle through its edges
    parent = list(range(circle.size(0)))
    for e in range(circle.size(1)):
        _union(parent, circle.faces[1][0][e], circle.faces[1][1][e])
    connected = len({_find(parent, v) for v in range(circle.size(0))}) == 1
    orbit_fixed_points = [
        j for j in range(p) if orbit.action[0][j] == j
    ]
    candidates_checked = 0
    found = []
    for base in range(p):
        # equivariance forces the whole vertex orbit once one image is fixed
        assignment = {}
        for v in range(circle.size(0)):
            if v in assignment:
                continue
            img = base
            y = v
            for _ in range(p):
                assignment[y] = img
                y = circle.action[0][y]
                img = orbit.action[0][img]
        mapping0 = [assignment[v] for v in range(circle.size(0))]
        candidates_checked += 1
        # try to extend to level 1: each edge must map to a degenerate edge
        # with matching endpoints
        extension_ok = True
        mapping1 = [None] * circle.size(1)
        for e in range(circle.size(1)):
            t0 = mapping0[circle.faces[1][0][e]]
            t1 = mapping0[circle.faces[1][1][e]]
            cands = [
                w
                for w in range(orbit.size(1))
                if orbit.faces[1][0][w] == t0 and orbit.faces[1][1][w] == t1
            ]
            if not cands:
                extension_ok = False
                break
            mapping1[e] = cands[0]
        if extension_ok:
            found.append(mapping0)
    return {
        "connected": connected,
        "orbit_fixed_points": orbit_fixed_points,
        "equivariant_vertex_assignments_tried": candidates_checked,
        "extensions_found": len(found),
        "exists": bool(found),
    }


# ---------------------------------------------------------------------------
# tensoring a Green functor with a free circle model


@dataclass
class SimplicialMackey:
    """A truncated simplicial object in Mackey functors.

    Levels are box products (with provenance), faces and degeneracies are
    Mackey maps keyed by (level, index), maps by construction from inputs
    checked once (README, "Where maps are checked").
    """

    truncation: int
    levels: list
    faces: dict
    degeneracies: dict

    def level(self, k):
        return self.levels[k]

    def identity_failures(self):
        return _identity_failures(
            self.truncation,
            lambda n, i: self.faces[(n, i)],
            lambda n, i: self.degeneracies[(n, i)],
            lambda g, f: g.compose(f),
            lambda lhs, rhs, n: None if lhs.equals(rhs) else "",
            lambda n: identity_map(self.levels[n].result),
        )

    def to_json(self):
        return {
            "truncation": self.truncation,
            "levels": [lvl.result.to_json() for lvl in self.levels],
            "faces": {f"{k},{i}": m.to_json() for (k, i), m in sorted(self.faces.items())},
            "degeneracies": {
                f"{k},{i}": m.to_json() for (k, i), m in sorted(self.degeneracies.items())
            },
        }


def _decompose_at(circle, level, x):
    a = circle.action[level]
    reps = circle.orbit_representatives(level)
    rep_set = set(reps)
    twist = 0
    y = x
    while y not in rep_set:
        y = a.index(y)
        twist += 1
    return y, twist % circle.order


def tensor_green_with_circle(green, circle: SimplicialGSet, truncation) -> SimplicialMackey:
    """Levelwise tensor of a Green functor with a free circle model.

    Level k is the (k+1)-fold box power (one factor per orbit); face and
    degeneracy maps are read off the orbit structure of the circle, with
    the action twist appearing where a face crosses the rotation seam.

    The inputs are checked once, before anything is built: the ring laws
    through ``self_module(green).validate()`` and x * 1 = x, since a
    degeneracy inserts 1 on either side of a later product (``NotAModule``),
    and the simplicial identities on the orbit assignments of the circle
    (``NotSimplicial``).  A composite of contractions multiplies in the
    concatenated order of its assignments, so when these agree as ordered
    lists the Mackey-level identities hold too (README, "Where maps are
    checked"); ``SimplicialMackey.identity_failures`` decides them on the
    maps themselves.
    """
    if not circle.action_is_free():
        raise NotFreeAction("the circle model must carry a free action")
    if circle.truncation < truncation:
        raise InsufficientTruncation("circle not stored deep enough")
    p = circle.order
    m = green.underlying
    if m.prime != p:
        raise PrimeMismatch(f"a Green functor over C_{m.prime} and a circle over C_{p}")
    for k in range(truncation + 1):
        orbits = len(circle.orbit_representatives(k))
        if orbits != k + 1:
            raise NotFreeAction(f"level {k} of the circle has {orbits} orbits, not {k + 1}")
    self_module(green).validate()
    right_unit = _right_unitality(green)
    if not right_unit.passed:
        raise NotAModule(f"unit is not a right unit: {right_unit.witness}")
    faces = {
        (k, i): _orbit_assignment(circle, k, circle.faces[k][i], k - 1)
        for k in range(1, truncation + 1)
        for i in range(k + 1)
    }
    degeneracies = {
        (k, i): _orbit_assignment(circle, k, circle.degeneracies[k][i], k + 1)
        for k in range(truncation)
        for i in range(k + 1)
    }
    fails = _identity_failures(
        truncation,
        lambda n, i: faces[(n, i)],
        lambda n, i: degeneracies[(n, i)],
        lambda g, f: [[(slot, (t + u) % p) for mid, u in lst for slot, t in f[mid]] for lst in g],
        lambda lhs, rhs, n: _first_difference(
            lhs, rhs, lambda s: f", slot {s}: {lhs[s]} against {rhs[s]}"
        ),
        lambda n: [[(s, 0)] for s in range(n + 1)],
    )
    if fails:
        raise NotSimplicial("orbit assignments of the circle fail: " + "; ".join(fails[:3]))

    one_top = green.one_top()
    one_bot = green.one_bot()
    levels = [box_power(m, k + 1) for k in range(truncation + 1)]

    def contract(assignments, step):
        return {
            (k, i): contract_by_assignment(
                levels[k], levels[k + step], assign, green.mult, one_top, one_bot
            )
            for (k, i), assign in assignments.items()
        }

    return SimplicialMackey(truncation, levels, contract(faces, -1), contract(degeneracies, 1))


def _orbit_assignment(circle, k, op, level):
    """Slot assignment of the contraction induced by ``op``, a face or
    degeneracy from level k to ``level`` of the circle: orbit j of level k
    goes to the orbit of its image, twisted by the action power that takes
    that orbit's representative to the image.  The lists come in the order
    in which ``contract_by_assignment`` multiplies them."""
    src_reps = circle.orbit_representatives(k)
    tgt_reps = circle.orbit_representatives(level)
    out = [[] for _ in tgt_reps]
    for j, rep in enumerate(src_reps):
        tgt_rep, twist = _decompose_at(circle, level, op[rep])
        out[tgt_reps.index(tgt_rep)].append((j, twist))
    return _normalized_assignment(out, len(out), circle.order)

