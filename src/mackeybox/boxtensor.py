"""The box product of C_p Mackey functors, with generator provenance.

The n-fold product is presented in one flat step: its bottom level is the
tensor product of the bottom levels with the diagonal action, and its top
level is generated by pure tensors of top generators together with one
transfer class for every bottom tensor generator, modulo three families of
relations: tensor relations, coinvariance of transfer classes under the
diagonal action, and Frobenius reciprocity tying a transferred element in
any slot to the transfer class of its restriction.

Every generator of the result carries a label (a pure tuple or a transfer
class tuple).  Maps out of box products (permutations, twists, face and
degeneracy contractions, pairings) are written down on labels and then
checked to send relations to relations; nothing is trusted by fiat.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .errors import IncompatiblePairing, PrimeMismatch, SizeLimit
from .exactlin import (
    AbHom,
    FGAbPresentation,
    identity_hom,
    solve_membership,
    tensor,
    vector_tensor,
)
from .intlinalg import IntMatrix
from .mackey import MackeyFunctor, MackeyMap, burnside, orbit_sum, validate_mackey

DEFAULT_GENERATOR_LIMIT = 20000


# ---------------------------------------------------------------------------
# presentation of the flat n-fold box product


@dataclass(frozen=True)
class BoxProduct:
    """An n-fold box product together with its generator labels.

    ``top_labels`` lists ("pure", tuple-of-top-gens) entries first and then
    ("tr", tuple-of-bottom-gens) entries; ``bot_labels`` lists bottom tuples.
    A single-factor product is the factor itself: no transfer-class block.
    """

    factors: tuple
    result: MackeyFunctor
    top_labels: tuple
    bot_labels: tuple

    @property
    def arity(self):
        return len(self.factors)

    @property
    def prime(self):
        return self.result.prime

    def pure_count(self):
        return sum(1 for lbl in self.top_labels if lbl[0] == "pure")


def _tensor_many(presentations):
    t = presentations[0]
    for nxt in presentations[1:]:
        t = tensor(t, nxt)
    return t


def _tuple_vectors(vectors):
    """Tensor a list of per-factor vectors into mixed-radix coordinates."""
    out = vectors[0]
    for v in vectors[1:]:
        out = vector_tensor(out, v)
    return out


def _unit_vec(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def box_many(factors, limit=None):
    """Flat presentation of the box product of the given factors."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("need at least one factor")
    p = factors[0].prime
    if any(f.prime != p for f in factors):
        raise PrimeMismatch("factors live over different primes")
    if len(factors) == 1:
        m = factors[0]
        top_labels = tuple(("pure", (i,)) for i in range(m.top.num_generators))
        bot_labels = tuple((j,) for j in range(m.bottom.num_generators))
        return BoxProduct(factors, m, top_labels, bot_labels)

    limit = DEFAULT_GENERATOR_LIMIT if limit is None else limit
    top_dims = [f.top.num_generators for f in factors]
    bot_dims = [f.bottom.num_generators for f in factors]
    n_pure = 1
    for d in top_dims:
        n_pure *= d
    n_tr = 1
    for d in bot_dims:
        n_tr *= d
    if n_pure + 2 * n_tr > limit:
        raise SizeLimit(
            f"box product would need {n_pure + 2 * n_tr} generators, {n_pure + n_tr} top"
            f" and {n_tr} bottom (limit {limit})"
        )

    bottom = _tensor_many([f.bottom for f in factors])
    diag_weyl_mat = factors[0].weyl.matrix
    for f in factors[1:]:
        diag_weyl_mat = diag_weyl_mat.kron(f.weyl.matrix)

    pure_labels = [("pure", t) for t in iproduct(*(range(d) for d in top_dims))]
    tr_labels = [("tr", t) for t in iproduct(*(range(d) for d in bot_dims))]
    top_labels = tuple(pure_labels + tr_labels)
    bot_labels = tuple(iproduct(*(range(d) for d in bot_dims)))

    top_tensor = _tensor_many([f.top for f in factors])
    n_top = n_pure + n_tr

    rel_rows = []
    for rel in top_tensor.relations.rows:
        rel_rows.append(tuple(rel) + (0,) * n_tr)
    for rel in bottom.relations.rows:
        rel_rows.append((0,) * n_pure + tuple(rel))
    # coinvariance: each transfer class equals the class of its translate
    for k in range(n_tr):
        gamma_col = diag_weyl_mat.column(k)
        row = [0] * n_top
        row[n_pure + k] += 1
        for j, c in enumerate(gamma_col):
            row[n_pure + j] -= c
        rel_rows.append(tuple(row))
    # Frobenius reciprocity, slot by slot
    for i, fi in enumerate(factors):
        other_top_ranges = [range(d) for d in top_dims]
        for y in range(bot_dims[i]):
            tr_col = fi.tr.matrix.column(y)
            for combo in iproduct(*(other_top_ranges[j] for j in range(len(factors)) if j != i)):
                full = list(combo)
                full.insert(i, None)
                pure_vecs = []
                tr_vecs = []
                for j, fj in enumerate(factors):
                    if j == i:
                        pure_vecs.append(tr_col)
                        tr_vecs.append(_unit_vec(bot_dims[i], y))
                    else:
                        pure_vecs.append(_unit_vec(top_dims[j], full[j]))
                        tr_vecs.append(fj.res.matrix.column(full[j]))
                pure_part = _tuple_vectors(pure_vecs)
                tr_part = _tuple_vectors(tr_vecs)
                row = list(pure_part) + [-c for c in tr_part]
                rel_rows.append(tuple(row))

    top = FGAbPresentation(n_top, IntMatrix(rel_rows, n_top))

    # transfer: inclusion of the transfer-class block
    tr_mat = IntMatrix.zeros(n_pure, n_tr).vstack(IntMatrix.identity(n_tr))
    # restriction: pure part restricts slotwise, classes restrict to orbit sums
    res_pure = factors[0].res.matrix
    for f in factors[1:]:
        res_pure = res_pure.kron(f.res.matrix)
    res_mat = res_pure.hstack(orbit_sum(diag_weyl_mat, p))

    result = MackeyFunctor(
        p,
        top,
        bottom,
        AbHom(bottom, top, tr_mat),
        AbHom(top, bottom, res_mat),
        AbHom(bottom, bottom, diag_weyl_mat),
    )
    report = validate_mackey(result)
    assert report.passed, f"box product failed axioms: {report.failures()}"
    return BoxProduct(factors, result, top_labels, tuple(bot_labels))


def box(m, n, limit=None):
    """Binary box product."""
    return box_many([m, n], limit=limit)


def box_power(m, k, limit=None):
    """k-fold box power of one functor; k = 1 is the functor itself."""
    if k < 1:
        raise ValueError("box power needs k >= 1")
    return box_many([m] * k, limit=limit)


# ---------------------------------------------------------------------------
# bilinear pairings and maps out of box products


@dataclass(frozen=True)
class BilinearPairing:
    """Levelwise pairing (M, N) -> L subject to the box compatibility laws."""

    m: MackeyFunctor
    n: MackeyFunctor
    target: MackeyFunctor
    f_top: AbHom  # tensor(M.top, N.top) -> L.top
    f_bot: AbHom  # tensor(M.bottom, N.bottom) -> L.bottom

    def check(self):
        """List of violated conditions, empty when the pairing is valid."""
        m, n, L = self.m, self.n, self.target
        bad = []
        lhs = L.res.compose(self.f_top)
        rhs = AbHom(
            self.f_top.source,
            L.bottom,
            self.f_bot.matrix @ m.res.matrix.kron(n.res.matrix),
        )
        if not lhs.equals(rhs):
            bad.append(1)
        mixed1 = tensor(m.bottom, n.top)
        lhs1 = AbHom(
            mixed1, L.top, self.f_top.matrix @ m.tr.matrix.kron(IntMatrix.identity(n.top.num_generators))
        )
        rhs1 = AbHom(
            mixed1,
            L.top,
            L.tr.matrix
            @ self.f_bot.matrix
            @ IntMatrix.identity(m.bottom.num_generators).kron(n.res.matrix),
        )
        if not lhs1.equals(rhs1):
            bad.append(2)
        mixed2 = tensor(m.top, n.bottom)
        lhs2 = AbHom(
            mixed2, L.top, self.f_top.matrix @ IntMatrix.identity(m.top.num_generators).kron(n.tr.matrix)
        )
        rhs2 = AbHom(
            mixed2,
            L.top,
            L.tr.matrix
            @ self.f_bot.matrix
            @ m.res.matrix.kron(IntMatrix.identity(n.bottom.num_generators)),
        )
        if not lhs2.equals(rhs2):
            bad.append(3)
        equiv = AbHom(
            self.f_bot.source, L.bottom, self.f_bot.matrix @ m.weyl.matrix.kron(n.weyl.matrix)
        )
        if not L.weyl.compose(self.f_bot).equals(equiv):
            bad.append("weyl")
        return bad

    def validate(self):
        bad = self.check()
        if bad:
            raise IncompatiblePairing(bad[0], f"violations: {bad}")


def pairing_from_matrices(m, n, target, top_matrix, bot_matrix):
    ft = AbHom(tensor(m.top, n.top), target.top, top_matrix)
    fb = AbHom(tensor(m.bottom, n.bottom), target.bottom, bot_matrix)
    return BilinearPairing(m, n, target, ft, fb)


def map_from_pairing(pairing: BilinearPairing, bp: BoxProduct | None = None) -> MackeyMap:
    """The map box(M, N) -> L classified by a valid pairing."""
    pairing.validate()
    if bp is None:
        bp = box(pairing.m, pairing.n)
    assert bp.factors == (pairing.m, pairing.n)
    L = pairing.target
    top_cols = []
    for lbl in bp.top_labels:
        kind, tup = lbl
        if kind == "pure":
            col = pairing.f_top.matrix.column(_flat_index(tup, [pairing.m.top.num_generators, pairing.n.top.num_generators]))
        else:
            bot_col = pairing.f_bot.matrix.column(
                _flat_index(tup, [pairing.m.bottom.num_generators, pairing.n.bottom.num_generators])
            )
            col = L.tr(bot_col)
        top_cols.append(col)
    bot_cols = [
        pairing.f_bot.matrix.column(
            _flat_index(tup, [pairing.m.bottom.num_generators, pairing.n.bottom.num_generators])
        )
        for tup in bp.bot_labels
    ]
    return _map_from_columns(bp, L, top_cols, bot_cols)


def _flat_index(tup, dims):
    idx = 0
    for t, d in zip(tup, dims):
        idx = idx * d + t
    return idx


def _map_from_columns(bp, target, top_cols, bot_cols):
    f_top = AbHom(
        bp.result.top,
        target.top,
        IntMatrix.from_columns(top_cols, target.top.num_generators),
    )
    f_bot = AbHom(
        bp.result.bottom,
        target.bottom,
        IntMatrix.from_columns(bot_cols, target.bottom.num_generators),
    )
    return MackeyMap(bp.result, target, f_top, f_bot)


# ---------------------------------------------------------------------------
# structural maps on labels


def box_map(src: BoxProduct, dst: BoxProduct, maps) -> MackeyMap:
    """Functorial product of Mackey maps, slotwise."""
    assert src.arity == dst.arity == len(maps)
    for f, sf, df in zip(maps, src.factors, dst.factors):
        assert f.source == sf and f.target == df
    top_cols = []
    for lbl in src.top_labels:
        kind, tup = lbl
        if kind == "pure":
            vecs = [maps[i].f_top.matrix.column(t) for i, t in enumerate(tup)]
            top_cols.append(_embed_pure(dst, _tuple_vectors(vecs)))
        else:
            vecs = [maps[i].f_bot.matrix.column(t) for i, t in enumerate(tup)]
            top_cols.append(_embed_tr(dst, _tuple_vectors(vecs)))
    bot_cols = []
    for tup in src.bot_labels:
        vecs = [maps[i].f_bot.matrix.column(t) for i, t in enumerate(tup)]
        bot_cols.append(_tuple_vectors(vecs))
    return _map_from_columns(src, dst.result, top_cols, bot_cols)


def _embed_pure(bp: BoxProduct, pure_vec):
    """Pure-tensor coordinates into the top generator space of ``bp``."""
    if bp.arity == 1:
        return pure_vec
    n_tr = len(bp.top_labels) - bp.pure_count()
    return tuple(pure_vec) + (0,) * n_tr


def _embed_tr(bp: BoxProduct, bot_vec):
    """Transfer class of a bottom-tensor vector, in top coordinates."""
    if bp.arity == 1:
        return bp.result.tr(bot_vec)
    n_pure = bp.pure_count()
    return (0,) * n_pure + tuple(bot_vec)


def permute_twist(src: BoxProduct, dst: BoxProduct, perm, twists) -> MackeyMap:
    """Rearrangement map: destination slot s receives source slot perm[s],
    acted on by weyl^twists[s].  Checked to respect all relations."""
    p = src.prime
    assert sorted(perm) == list(range(src.arity))
    assert dst.arity == src.arity
    for s in range(dst.arity):
        assert src.factors[perm[s]] == dst.factors[s]
    twists = [t % p for t in twists]
    top_dims = [f.top.num_generators for f in dst.factors]
    bot_dims = [f.bottom.num_generators for f in dst.factors]
    weyl_pows = [dst.factors[s].weyl.matrix.power(twists[s]) for s in range(dst.arity)]

    def bot_image(tup):
        vecs = [weyl_pows[s].column(tup[perm[s]]) for s in range(dst.arity)]
        return _tuple_vectors(vecs)

    top_cols = []
    for lbl in src.top_labels:
        kind, tup = lbl
        if kind == "pure":
            vecs = [_unit_vec(top_dims[s], tup[perm[s]]) for s in range(dst.arity)]
            top_cols.append(_embed_pure(dst, _tuple_vectors(vecs)))
        else:
            top_cols.append(_embed_tr(dst, bot_image(tup)))
    bot_cols = [bot_image(tup) for tup in src.bot_labels]
    return _map_from_columns(src, dst.result, top_cols, bot_cols)


def swap_map(bp_mn: BoxProduct, bp_nm: BoxProduct) -> MackeyMap:
    return permute_twist(bp_mn, bp_nm, (1, 0), (0, 0))


def contract_pair(src: BoxProduct, i, pairing: BilinearPairing, dst: BoxProduct) -> MackeyMap:
    """Multiply adjacent slots i, i+1 through a pairing; other slots pass."""
    assert src.factors[i] == pairing.m and src.factors[i + 1] == pairing.n
    expected = src.factors[:i] + (pairing.target,) + src.factors[i + 2 :]
    assert dst.factors == expected

    def images(tup, columns_of, pair_apply):
        vecs = []
        s = 0
        while s < len(tup):
            if s == i:
                vecs.append(pair_apply(tup[s], tup[s + 1]))
                s += 2
            else:
                vecs.append(columns_of(s, tup[s]))
                s += 1
        return vecs

    def top_unit(s, t):
        return _unit_vec(src.factors[s].top.num_generators, t)

    def bot_unit(s, t):
        return _unit_vec(src.factors[s].bottom.num_generators, t)

    def pair_top(a, b):
        return pairing.f_top.matrix.column(
            _flat_index((a, b), [pairing.m.top.num_generators, pairing.n.top.num_generators])
        )

    def pair_bot(x, y):
        return pairing.f_bot.matrix.column(
            _flat_index((x, y), [pairing.m.bottom.num_generators, pairing.n.bottom.num_generators])
        )

    top_cols = []
    for lbl in src.top_labels:
        kind, tup = lbl
        if kind == "pure":
            top_cols.append(_embed_pure(dst, _tuple_vectors(images(tup, top_unit, pair_top))))
        else:
            top_cols.append(_embed_tr(dst, _tuple_vectors(images(tup, bot_unit, pair_bot))))
    bot_cols = [
        _tuple_vectors(images(tup, bot_unit, pair_bot)) for tup in src.bot_labels
    ]
    return _map_from_columns(src, dst.result, top_cols, bot_cols)


def contract_by_assignment(src: BoxProduct, dst: BoxProduct, assignment, pairing: BilinearPairing,
                           one_top, one_bot) -> MackeyMap:
    """General monomial contraction for equal factors.

    ``assignment`` maps each destination slot to a list of (source slot,
    twist exponent); empty lists insert the unit element.  Lists are
    normalized to (descending twist, ascending slot) order, which matches
    the rotate-then-multiply convention of the twisted face maps.
    """
    m = src.factors[0]
    assert all(f == m for f in src.factors) and all(f == m for f in dst.factors)
    p = src.prime
    norm = {}
    used = []
    for s in range(dst.arity):
        lst = [(slot, t % p) for slot, t in assignment[s]]
        lst.sort(key=lambda st: (-st[1], st[0]))
        norm[s] = lst
        used.extend(slot for slot, _ in lst)
    assert sorted(used) == list(range(src.arity)), "assignment must use each source slot once"
    weyl_pow = [m.weyl.matrix.power(t) for t in range(p)]

    def fold_top(tup):
        vecs = []
        for s in range(dst.arity):
            cur = None
            for slot, _ in norm[s]:
                nxt = _unit_vec(m.top.num_generators, tup[slot])
                cur = nxt if cur is None else pairing.f_top(vector_tensor(cur, nxt))
            vecs.append(tuple(one_top) if cur is None else tuple(cur))
        return vecs

    def fold_bot(tup):
        vecs = []
        for s in range(dst.arity):
            cur = None
            for slot, t in norm[s]:
                nxt = weyl_pow[t].column(tup[slot])
                cur = nxt if cur is None else pairing.f_bot(vector_tensor(cur, nxt))
            vecs.append(tuple(one_bot) if cur is None else tuple(cur))
        return vecs

    top_cols = []
    for lbl in src.top_labels:
        kind, tup = lbl
        if kind == "pure":
            top_cols.append(_embed_pure(dst, _tuple_vectors(fold_top(tup))))
        else:
            top_cols.append(_embed_tr(dst, _tuple_vectors(fold_bot(tup))))
    bot_cols = [_tuple_vectors(fold_bot(tup)) for tup in src.bot_labels]
    return _map_from_columns(src, dst.result, top_cols, bot_cols)


# ---------------------------------------------------------------------------
# unit, associativity, inversion


def burnside_action_pairing(m: MackeyFunctor) -> BilinearPairing:
    """The canonical action of the Burnside functor on any Mackey functor."""
    a = burnside(m.prime)
    trres = m.tr.compose(m.res)
    top_cols = []
    for i in range(2):
        for b in range(m.top.num_generators):
            if i == 0:
                top_cols.append(_unit_vec(m.top.num_generators, b))
            else:
                top_cols.append(trres.matrix.column(b))
    top_mat = IntMatrix.from_columns(top_cols, m.top.num_generators)
    bot_mat = IntMatrix.identity(m.bottom.num_generators)
    return pairing_from_matrices(a, m, m, top_mat, bot_mat)


def unitor(m: MackeyFunctor, bp: BoxProduct | None = None) -> MackeyMap:
    """The canonical isomorphism box(Burnside, M) -> M."""
    u = map_from_pairing(burnside_action_pairing(m), bp)
    assert u.is_isomorphism(), "unitor failed to be an isomorphism"
    return u


def nested_to_flat(outer: BoxProduct, inner: BoxProduct, side, flat: BoxProduct) -> MackeyMap:
    """Canonical map from box(box(M,N),L) or box(M,box(N,L)) to the flat triple.

    ``side`` is "left" when the nested product sits in the first slot.
    Transfer classes tensored with a top element are rewritten through
    Frobenius reciprocity before mapping.
    """
    assert outer.arity == 2 and inner.arity == 2 and flat.arity == 3
    if side == "left":
        assert outer.factors[0] == inner.result
        m3 = outer.factors[1]
        assert flat.factors == inner.factors + (m3,)
    else:
        assert outer.factors[1] == inner.result
        m1 = outer.factors[0]
        assert flat.factors == (m1,) + inner.factors

    bot_dims = [f.bottom.num_generators for f in flat.factors]
    top_dims = [f.top.num_generators for f in flat.factors]
    n_pure_inner = inner.pure_count()

    def split_inner_top(g):
        return inner.top_labels[g]

    def bot_expand(inner_tup, other_j):
        if side == "left":
            return inner_tup + (other_j,)
        return (other_j,) + inner_tup

    top_cols = []
    for lbl in outer.top_labels:
        kind, tup = lbl
        if kind == "tr":
            inner_bot, other = (
                (inner.bot_labels[tup[0]], tup[1])
                if side == "left"
                else (inner.bot_labels[tup[1]], tup[0])
            )
            flat_tup = bot_expand(inner_bot, other)
            vec = [0] * len(flat.bot_labels)
            vec[flat.bot_labels.index(flat_tup)] = 1
            top_cols.append(_embed_tr(flat, tuple(vec)))
            continue
        g, c = (tup[0], tup[1]) if side == "left" else (tup[1], tup[0])
        ikind, ituple = split_inner_top(g)
        if ikind == "pure":
            flat_tup = ituple + (c,) if side == "left" else (c,) + ituple
            vec = [0] * (top_dims[0] * top_dims[1] * top_dims[2])
            vec[_flat_index(flat_tup, top_dims)] = 1
            top_cols.append(_embed_pure(flat, tuple(vec)))
        else:
            # tr(z) (x) c = tr(z (x) res c): land in the flat transfer block
            other_factor = outer.factors[1] if side == "left" else outer.factors[0]
            res_col = other_factor.res.matrix.column(c)
            acc = [0] * len(flat.bot_labels)
            for w, coef in enumerate(res_col):
                if coef:
                    flat_tup = bot_expand(ituple, w)
                    acc[flat.bot_labels.index(flat_tup)] += coef
            top_cols.append(_embed_tr(flat, tuple(acc)))
    bot_cols = []
    for tup in outer.bot_labels:
        inner_bot, other = (
            (inner.bot_labels[tup[0]], tup[1])
            if side == "left"
            else (inner.bot_labels[tup[1]], tup[0])
        )
        flat_tup = bot_expand(inner_bot, other)
        vec = [0] * len(flat.bot_labels)
        vec[flat.bot_labels.index(flat_tup)] = 1
        bot_cols.append(tuple(vec))
    return _map_from_columns(outer, flat.result, top_cols, bot_cols)


def invert_iso(m: MackeyMap) -> MackeyMap:
    """Inverse of an isomorphism of Mackey functors, solved generator-wise."""

    def invert(h: AbHom) -> AbHom:
        cols = []
        n = h.target.num_generators
        for j in range(n):
            c = solve_membership(h.target, h.matrix, _unit_vec(n, j))
            if c is None:
                raise ValueError("map is not surjective")
            cols.append(c)
        mat = IntMatrix.from_columns(cols, h.source.num_generators)
        return AbHom(h.target, h.source, mat)

    return MackeyMap(m.target, m.source, invert(m.f_top), invert(m.f_bot))


def collapse_single(bp: BoxProduct) -> MackeyMap:
    """Identity map of a single-factor box product onto its factor."""
    assert bp.arity == 1
    return MackeyMap(
        bp.result,
        bp.factors[0],
        identity_hom(bp.result.top),
        identity_hom(bp.result.bottom),
    )


# ---------------------------------------------------------------------------
# relative box products


def relative_box_raw(m, n, right_pairing: BilinearPairing, left_pairing: BilinearPairing,
                     limit=None):
    """(result, projection from box(M, N)) coequalizing the two actions."""
    t3 = box_many([m, right_pairing.n, n], limit=limit)
    t2 = box_many([m, n], limit=limit)
    rho = contract_pair(t3, 0, right_pairing, t2)
    lam = contract_pair(t3, 1, left_pairing, t2)
    diff = rho - lam
    return _quotient_by_map_image(t2, [diff])


def _quotient_by_map_image(bp: BoxProduct, maps):
    top_rels = bp.result.top.relations
    bot_rels = bp.result.bottom.relations
    for mp in maps:
        top_rels = top_rels.vstack(mp.f_top.matrix.transpose())
        bot_rels = bot_rels.vstack(mp.f_bot.matrix.transpose())
    top = FGAbPresentation(bp.result.top.num_generators, top_rels)
    bottom = FGAbPresentation(bp.result.bottom.num_generators, bot_rels)
    quotient = MackeyFunctor(
        bp.result.prime,
        top,
        bottom,
        AbHom(bottom, top, bp.result.tr.matrix),
        AbHom(top, bottom, bp.result.res.matrix),
        AbHom(bottom, bottom, bp.result.weyl.matrix),
    )
    projection = MackeyMap(
        bp.result,
        quotient,
        AbHom(bp.result.top, top, IntMatrix.identity(top.num_generators)),
        AbHom(bp.result.bottom, bottom, IntMatrix.identity(bottom.num_generators)),
    )
    return BoxProduct(bp.factors, quotient, bp.top_labels, bp.bot_labels), projection
