"""The box product of C_p Mackey functors, with generator provenance.

The n-fold product is presented in one flat step: its bottom level is the
tensor product of the bottom levels with the diagonal action, and its top
level is generated by pure tensors of top generators together with one
transfer class for every bottom tensor generator, modulo three families of
relations: tensor relations, coinvariance of transfer classes under the
diagonal action, and Frobenius reciprocity tying a transferred element in
any slot to the transfer class of its restriction.  Each distinct factor
is checked against the Mackey axioms as it comes in, and a functor keeps
its verdict, so it is decided once however many products are built from
it; the product's axioms follow from its factors' and are not checked.

Every generator of the result carries a label (a pure tuple or a transfer
class tuple).  Maps out of box products (permutations, twists, face and
degeneracy contractions, pairings) are written down on labels: each one
gives the images of the pure labels and of the bottom labels, and since
transfer class k is tr(bottom generator k), the transfer block of the top
matrix is ``target.tr`` composed with the bottom matrix.  Its level maps
are checked against the relations; its squares follow from the small
inputs each constructor checks, and are not checked.  A pairing keeps the
verdict on its laws, so it is decided once however many maps are built
from it.  A map given products whose factors do not fit its data raises
``FactorMismatch``.  Composites, sums and multiples of these maps are maps
by construction (README, "Where maps are checked").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct

from .errors import (
    FactorMismatch,
    IncompatiblePairing,
    InvalidArgument,
    NotAMackeyFunctor,
    NotAModule,
    NotAnIsomorphism,
    PrimeMismatch,
    SizeLimit,
)
from .exactlin import (
    AbHom,
    FGAbPresentation,
    _unchecked,
    factor_through_injection,
    first_nonzero_column,
    identity_hom,
    tensor,
    vector_tensor,
)
from .intlinalg import IntMatrix
from .mackey import (
    MackeyFunctor,
    MackeyMap,
    burnside,
    identity_map,
    orbit_sum,
    validate_mackey,
)

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


def box_many(factors, limit=None):
    """Flat presentation of the box product of the given factors.

    Each distinct factor is checked by ``validate_mackey``, which decides a
    functor once and keeps its report, raising ``NotAMackeyFunctor``; the
    product's axioms then hold by construction:
    weyl^p and weyl∘res slot by slot, res∘tr by the transfer block and
    tr∘weyl by coinvariance.
    """
    factors = tuple(factors)
    if not factors:
        raise InvalidArgument("need at least one factor")
    p = factors[0].prime
    if any(f.prime != p for f in factors):
        raise PrimeMismatch("factors live over different primes")
    for i, f in enumerate(factors):
        if f not in factors[:i]:
            failures = validate_mackey(f).failures()
            if failures:
                raise NotAMackeyFunctor(failures)
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
    top_units = [IntMatrix.identity(d).rows for d in top_dims]
    bot_units = [IntMatrix.identity(d).rows for d in bot_dims]
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
                        tr_vecs.append(bot_units[i][y])
                    else:
                        pure_vecs.append(top_units[j][full[j]])
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
    return BoxProduct(factors, result, top_labels, tuple(bot_labels))


def box(m, n, limit=None):
    """Binary box product."""
    return box_many([m, n], limit=limit)


def box_power(m, k, limit=None):
    """k-fold box power of one functor; k = 1 is the functor itself."""
    if k < 1:
        raise InvalidArgument("box power needs k >= 1")
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
        """List of violated conditions, empty when the pairing is valid: 1 is
        res(x y) = res x res y, 2 is tr(x) y = tr(x res y), 3 is
        x tr(y) = tr(res x y) and "weyl" is equivariance at the bottom.  Each
        pairing is decided once (``_violations``); every call returns a
        fresh list."""
        return list(self._violations)

    @cached_property
    def _violations(self):
        """The laws ``check`` lists, each an identity between maps out of a
        tensor of levels, decided on the matrices on first use and kept like
        ``MackeyFunctor._axioms``."""
        m, n, L = self.m, self.n, self.target
        top, bot = self.f_top.matrix, self.f_bot.matrix
        i_mt, i_nt, i_mb, i_nb = (
            IntMatrix.identity(g.num_generators) for g in (m.top, n.top, m.bottom, n.bottom)
        )
        laws = (
            (1, L.bottom, L.res.matrix @ top, bot @ m.res.matrix.kron(n.res.matrix)),
            (2, L.top, top @ m.tr.matrix.kron(i_nt), L.tr.matrix @ bot @ i_mb.kron(n.res.matrix)),
            (3, L.top, top @ i_mt.kron(n.tr.matrix), L.tr.matrix @ bot @ m.res.matrix.kron(i_nb)),
            ("weyl", L.bottom, L.weyl.matrix @ bot, bot @ m.weyl.matrix.kron(n.weyl.matrix)),
        )
        return tuple(law for law, level, f, g in laws
                     if first_nonzero_column(level, f - g) is not None)

    def top_product(self, a, b):
        """Coordinates of e_a * e_b for top generators e_a of M and e_b of N."""
        return self.f_top.matrix.column(a * self.n.top.num_generators + b)

    def bot_product(self, x, y):
        """Coordinates of e_x * e_y for bottom generators e_x of M and e_y of N."""
        return self.f_bot.matrix.column(x * self.n.bottom.num_generators + y)

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
    if bp is None:
        bp = box(pairing.m, pairing.n)
    _require_factors("map_from_pairing", bp.factors, (pairing.m, pairing.n))
    return contract_pair(bp, 0, pairing, box_many([pairing.target]))


def _flat_index(tup, dims):
    idx = 0
    for t, d in zip(tup, dims):
        idx = idx * d + t
    return idx


def _require_factors(what, got, expected):
    """Raise ``FactorMismatch`` unless the factor tuples ``got`` and
    ``expected`` agree, naming the first slot that differs."""
    got, expected = tuple(got), tuple(expected)
    if len(got) != len(expected):
        raise FactorMismatch(f"{what}: expected {len(expected)} factors, got {len(got)}")
    for slot, (f, g) in enumerate(zip(got, expected)):
        if f != g:
            raise FactorMismatch(f"{what}: factor {slot} is not the one the map needs")


def _pure_tuples(bp: BoxProduct):
    """Generator tuples of the pure top labels of ``bp``, in order."""
    return [tup for kind, tup in bp.top_labels if kind == "pure"]


def _map_from_columns(src, target, pure_cols, bot_cols):
    """The map out of ``src`` with the given images of its pure and bottom
    generators.  Transfer class k of ``src`` is tr(bottom generator k), so
    its image is the transfer of bottom image k: the top matrix ends with
    the block ``target.tr.matrix @ f_bot``.  Only the level maps are
    checked, since a relative box product adds relations no input implies;
    the squares follow from the callers' checked inputs (README)."""
    f_bot = IntMatrix.from_columns(bot_cols, target.bottom.num_generators)
    f_top = IntMatrix.from_columns(pure_cols, target.top.num_generators)
    if src.arity > 1:
        f_top = f_top.hstack(target.tr.matrix @ f_bot)
    return _unchecked(
        MackeyMap,
        src.result,
        target,
        AbHom(src.result.top, target.top, f_top),
        AbHom(src.result.bottom, target.bottom, f_bot),
    )


# ---------------------------------------------------------------------------
# structural maps on labels


def box_map(src: BoxProduct, dst: BoxProduct, maps) -> MackeyMap:
    """Functorial product of Mackey maps, slotwise."""
    _require_factors("box_map source", src.factors, [f.source for f in maps])
    _require_factors("box_map target", dst.factors, [f.target for f in maps])
    pure_cols = [
        _embed_pure(dst, _tuple_vectors([f.f_top.matrix.column(t) for f, t in zip(maps, tup)]))
        for tup in _pure_tuples(src)
    ]
    bot_cols = [
        _tuple_vectors([f.f_bot.matrix.column(t) for f, t in zip(maps, tup)])
        for tup in src.bot_labels
    ]
    return _map_from_columns(src, dst.result, pure_cols, bot_cols)


def _embed_pure(bp: BoxProduct, pure_vec):
    """Pure-tensor coordinates into the top generator space of ``bp``."""
    if bp.arity == 1:
        return pure_vec
    return tuple(pure_vec) + (0,) * len(bp.bot_labels)


def permute_twist(src: BoxProduct, dst: BoxProduct, perm, twists) -> MackeyMap:
    """Rearrangement map: destination slot s receives source slot perm[s],
    acted on by weyl^twists[s].  Checked to respect all relations."""
    p = src.prime
    if sorted(perm) != list(range(src.arity)):
        raise FactorMismatch(f"permute_twist: {list(perm)} does not permute {src.arity} slots")
    _require_factors("permute_twist target", dst.factors, [src.factors[j] for j in perm])
    twists = [t % p for t in twists]
    top_units = [IntMatrix.identity(f.top.num_generators).rows for f in dst.factors]
    weyl_pows = [dst.factors[s].weyl.matrix.power(twists[s]) for s in range(dst.arity)]
    pure_cols = [
        _embed_pure(dst, _tuple_vectors([top_units[s][tup[perm[s]]] for s in range(dst.arity)]))
        for tup in _pure_tuples(src)
    ]
    bot_cols = [
        _tuple_vectors([weyl_pows[s].column(tup[perm[s]]) for s in range(dst.arity)])
        for tup in src.bot_labels
    ]
    return _map_from_columns(src, dst.result, pure_cols, bot_cols)


def swap_map(bp_mn: BoxProduct, bp_nm: BoxProduct) -> MackeyMap:
    return permute_twist(bp_mn, bp_nm, (1, 0), (0, 0))


def contract_pair(src: BoxProduct, i, pairing: BilinearPairing, dst: BoxProduct) -> MackeyMap:
    """Multiply adjacent slots i, i+1 through a valid pairing; other slots pass."""
    _require_factors(f"contract_pair slots {i}, {i + 1}", src.factors[i : i + 2],
                     (pairing.m, pairing.n))
    _require_factors("contract_pair target", dst.factors,
                     src.factors[:i] + (pairing.target,) + src.factors[i + 2 :])
    pairing.validate()

    top_units = [IntMatrix.identity(f.top.num_generators).rows for f in src.factors]
    bot_units = [IntMatrix.identity(f.bottom.num_generators).rows for f in src.factors]

    def image(tup, units, product):
        """Tensor of the slot images of the generator tuple ``tup``."""
        vecs = []
        s = 0
        while s < len(tup):
            if s == i:
                vecs.append(product(tup[s], tup[s + 1]))
                s += 2
            else:
                vecs.append(units[s][tup[s]])
                s += 1
        return _tuple_vectors(vecs)

    pure_cols = [
        _embed_pure(dst, image(tup, top_units, pairing.top_product)) for tup in _pure_tuples(src)
    ]
    bot_cols = [image(tup, bot_units, pairing.bot_product) for tup in src.bot_labels]
    return _map_from_columns(src, dst.result, pure_cols, bot_cols)


def _normalized_assignment(assignment, arity, p):
    """The (source slot, twist) lists of the ``arity`` destination slots of
    ``assignment``, twists reduced mod p, in the order in which
    ``contract_by_assignment`` multiplies them: descending twist, then
    ascending slot."""
    return [
        sorted(((slot, t % p) for slot, t in assignment[s]), key=lambda st: (-st[1], st[0]))
        for s in range(arity)
    ]


def contract_by_assignment(src: BoxProduct, dst: BoxProduct, assignment, pairing: BilinearPairing,
                           one_top, one_bot) -> MackeyMap:
    """General monomial contraction for equal factors.

    ``assignment`` maps each destination slot to a list of (source slot,
    twist exponent); empty lists insert the unit element.  Lists are
    normalized to (descending twist, ascending slot) order, which matches
    the rotate-then-multiply convention of the twisted face maps.  The
    pairing must be a valid product on the factor, with res(one_top) = one_bot.
    The pairing keeps its verdict, so the maps built from one pairing, such
    as the faces and degeneracies of a circle tensor, decide its laws once.
    """
    m = src.factors[0]
    _require_factors("contract_by_assignment", src.factors + dst.factors,
                     (m,) * (src.arity + dst.arity))
    _require_factors("contract_by_assignment pairing", (pairing.m, pairing.n, pairing.target),
                     (m,) * 3)
    pairing.validate()
    if not m.bottom.reduces_to_zero([a - b for a, b in zip(m.res(one_top), one_bot)]):
        raise NotAModule("contract_by_assignment: one_bot is not the restriction of one_top")
    p = src.prime
    norm = _normalized_assignment(assignment, dst.arity, p)
    used = [slot for lst in norm for slot, _ in lst]
    if sorted(used) != list(range(src.arity)):
        raise FactorMismatch("contract_by_assignment: each source slot must be used once")
    weyl_pow = [m.weyl.matrix.power(t) for t in range(p)]
    top_units = IntMatrix.identity(m.top.num_generators).rows

    def fold_top(tup):
        vecs = []
        for s in range(dst.arity):
            cur = None
            for slot, _ in norm[s]:
                nxt = top_units[tup[slot]]
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

    pure_cols = [_embed_pure(dst, _tuple_vectors(fold_top(tup))) for tup in _pure_tuples(src)]
    bot_cols = [_tuple_vectors(fold_bot(tup)) for tup in src.bot_labels]
    return _map_from_columns(src, dst.result, pure_cols, bot_cols)


# ---------------------------------------------------------------------------
# unit, associativity, inversion


def burnside_action_pairing(m: MackeyFunctor) -> BilinearPairing:
    """The canonical action of the Burnside functor on any Mackey functor."""
    # the fixed-orbit class acts as the identity, the free-orbit class as tr res
    top_mat = IntMatrix.identity(m.top.num_generators).hstack(m.tr.matrix @ m.res.matrix)
    bot_mat = IntMatrix.identity(m.bottom.num_generators)
    return pairing_from_matrices(burnside(m.prime), m, m, top_mat, bot_mat)


def unitor(m: MackeyFunctor, bp: BoxProduct | None = None) -> MackeyMap:
    """The canonical isomorphism box(Burnside, M) -> M."""
    return map_from_pairing(burnside_action_pairing(m), bp)


def nested_to_flat(outer: BoxProduct, inner: BoxProduct, side, flat: BoxProduct) -> MackeyMap:
    """Canonical map from box(box(M,N),L) or box(M,box(N,L)) to the flat triple.

    ``side`` is "left" when the nested product sits in the first slot.
    Transfer classes tensored with a top element are rewritten through
    Frobenius reciprocity before mapping.
    """
    if (outer.arity, inner.arity) != (2, 2):
        raise FactorMismatch(f"nested_to_flat: arities {outer.arity}, {inner.arity}, not 2, 2")
    if side == "left":
        _require_factors("nested_to_flat outer", outer.factors[:1], (inner.result,))
        _require_factors("nested_to_flat flat", flat.factors, inner.factors + outer.factors[1:])
    else:
        _require_factors("nested_to_flat outer", outer.factors[1:], (inner.result,))
        _require_factors("nested_to_flat flat", flat.factors, outer.factors[:1] + inner.factors)

    top_dims = [f.top.num_generators for f in flat.factors]
    bot_dims = [f.bottom.num_generators for f in flat.factors]
    other_factor = outer.factors[1] if side == "left" else outer.factors[0]

    def split(tup):
        """(inner generator, other generator) of an outer label tuple."""
        return (tup[0], tup[1]) if side == "left" else (tup[1], tup[0])

    def flat_tuple(inner_tup, other):
        return inner_tup + (other,) if side == "left" else (other,) + inner_tup

    pure_cols = []
    for g, c in map(split, _pure_tuples(outer)):
        ikind, ituple = inner.top_labels[g]
        if ikind == "pure":
            vec = [0] * (top_dims[0] * top_dims[1] * top_dims[2])
            vec[_flat_index(flat_tuple(ituple, c), top_dims)] = 1
            pure_cols.append(_embed_pure(flat, vec))
        else:
            # tr(z) (x) c = tr(z (x) res c): land in the flat transfer block
            acc = [0] * len(flat.bot_labels)
            for w, coef in enumerate(other_factor.res.matrix.column(c)):
                acc[_flat_index(flat_tuple(ituple, w), bot_dims)] += coef
            pure_cols.append(flat.result.tr(acc))
    bot_cols = []
    for g, c in map(split, outer.bot_labels):
        vec = [0] * len(flat.bot_labels)
        vec[_flat_index(flat_tuple(inner.bot_labels[g], c), bot_dims)] = 1
        bot_cols.append(vec)
    return _map_from_columns(outer, flat.result, pure_cols, bot_cols)


def invert_iso(m: MackeyMap) -> MackeyMap:
    """Inverse of an isomorphism of Mackey functors, each level solved in one
    batch; a map that is not an isomorphism raises ``NotAnIsomorphism``."""
    failure = m.isomorphism_failure()
    if failure is not None:
        raise NotAnIsomorphism(*failure)
    top = factor_through_injection(identity_hom(m.f_top.target), m.f_top)
    bot = factor_through_injection(identity_hom(m.f_bot.target), m.f_bot)
    return MackeyMap(m.target, m.source, top, bot)


def collapse_single(bp: BoxProduct) -> MackeyMap:
    """Identity map of a single-factor box product onto its factor."""
    _require_factors("collapse_single", bp.factors, bp.factors[:1])
    return identity_map(bp.result)


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
