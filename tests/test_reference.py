"""The compatibility kernel and the brute-force enumerators against reference code.

The reference functions below are the earlier hand-written forms: one
branch per arity for applying an operation coordinatewise, one
enumeration loop per relation class, and the double loops that built the
R and T relations of the pair object.  They stay here as oracles for the
shared kernel, the single bitmask loop and the vectorized builders in
``relshift``, checked on random algebras with 1-3 elements and operations
of arity 0-3, and on random reflexive relations.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relshift.algebras import (
    MAX_ARITY,
    Algebra,
    Signature,
    _is_compatible_between,
    as_paired_object,
    compatible_close,
)
from relshift.checks import (
    RelationClass,
    enumerate_class_relations,
    enumerate_compatible_relations,
)
from relshift.constructions import build_R, build_T
from relshift.relations import Carrier, Relation, is_positive, is_reflexive


def ref_is_compatible_between(a, b, r):
    prs = np.argwhere(r.members)
    xs, ys = prs[:, 0], prs[:, 1]
    for op, arity in a.sig.ops:
        fa, fb = a.table_array(op), b.table_array(op)
        if arity == 0:
            if not r.members[int(fa[()]), int(fb[()])]:
                return False
        elif arity == 1:
            if not r.members[fa[xs], fb[ys]].all():
                return False
        elif arity == 2:
            fx = fa[xs[:, None], xs[None, :]]
            fy = fb[ys[:, None], ys[None, :]]
            if not r.members[fx, fy].all():
                return False
        else:
            fx = fa[xs[:, None, None], xs[None, :, None], xs[None, None, :]]
            fy = fb[ys[:, None, None], ys[None, :, None], ys[None, None, :]]
            if not r.members[fx, fy].all():
                return False
    return True


def ref_compatible_close(a, seed):
    n = a.size
    m = np.zeros((n, n), dtype=bool)
    for x, y in seed:
        m[x, y] = True
    while True:
        prs = np.argwhere(m)
        xs, ys = prs[:, 0], prs[:, 1]
        before = m.copy()
        for op, arity in a.sig.ops:
            f = a.table_array(op)
            if arity == 0:
                m[int(f[()]), int(f[()])] = True
            elif arity == 1:
                m[f[xs], f[ys]] = True
            elif arity == 2:
                m[f[xs[:, None], xs[None, :]], f[ys[:, None], ys[None, :]]] = True
            else:
                fx = f[xs[:, None, None], xs[None, :, None], xs[None, None, :]]
                fy = f[ys[:, None, None], ys[None, :, None], ys[None, None, :]]
                m[fx, fy] = True
        if np.array_equal(m, before):
            return Relation(a.carrier, a.carrier, m)


def ref_enumerate_compatible(a, b):
    na, nb = a.size, b.size
    out = []
    for bits in range(2 ** (na * nb)):
        m = np.array([(bits >> k) & 1 for k in range(na * nb)], dtype=bool).reshape(na, nb)
        rel = Relation(a.carrier, b.carrier, m)
        if ref_is_compatible_between(a, b, rel):
            out.append(rel)
    return sorted(out, key=lambda r: r.pairs())


def ref_enumerate_reflexive(a, cls):
    n = a.size
    off = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for bits in range(2 ** len(off)):
        m = np.eye(n, dtype=bool)
        for k, (x, y) in enumerate(off):
            if (bits >> k) & 1:
                m[x, y] = True
        rel = Relation(a.carrier, a.carrier, m)
        if not ref_is_compatible_between(a, a, rel):
            continue
        if cls is RelationClass.REFLEXIVE_POSITIVE and not is_positive(rel):
            continue
        out.append(rel)
    return sorted(out, key=lambda r: r.pairs())


def ref_build_T(e):
    k = len(e.pairs)
    m = np.zeros((k, k), dtype=bool)
    for i, (a, _b) in enumerate(e.pairs):
        for j, (_c, d) in enumerate(e.pairs):
            m[i, j] = (a, d) in e.relation
    return Relation(Carrier(k), Carrier(k), m)


def ref_build_R(e):
    k = len(e.pairs)
    m = np.zeros((k, k), dtype=bool)
    for i, (_a, b) in enumerate(e.pairs):
        for j, (c, _d) in enumerate(e.pairs):
            m[i, j] = (c, b) in e.relation
    return Relation(Carrier(k), Carrier(k), m)


def naive_filter(a, b, keep):
    """Every relation A -> B for which keep(rel) holds, lexicographic."""
    cells = list(itertools.product(range(a.size), range(b.size)))
    out = []
    for chosen in itertools.product((False, True), repeat=len(cells)):
        rel = Relation.from_pairs(a.carrier, b.carrier, itertools.compress(cells, chosen))
        if keep(rel):
            out.append(rel)
    return sorted(out, key=lambda r: r.pairs())


@st.composite
def signatures(draw):
    arities = draw(st.lists(st.integers(0, MAX_ARITY), min_size=0, max_size=3))
    return Signature(tuple((f"f{i}", k) for i, k in enumerate(arities)))


@st.composite
def algebras(draw, sig):
    n = draw(st.integers(1, 3))
    tables = {
        op: tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
        for op, k in sig.ops
    }
    return Algebra("random", Carrier(n), sig, tables)


@st.composite
def algebra_pairs(draw):
    """Two algebras of one signature, with possibly different sizes."""
    sig = draw(signatures())
    return draw(algebras(sig)), draw(algebras(sig))


def relations(draw, a, b):
    cells = draw(st.lists(st.booleans(), min_size=a.size * b.size, max_size=a.size * b.size))
    return Relation(a.carrier, b.carrier, np.array(cells, dtype=bool).reshape(a.size, b.size))


@settings(max_examples=150, deadline=None)
@given(algebra_pairs(), st.data())
def test_compatibility_matches_reference(ab, data):
    a, b = ab
    r = relations(data.draw, a, b)
    assert _is_compatible_between(a, b, r) == ref_is_compatible_between(a, b, r)


@settings(max_examples=150, deadline=None)
@given(signatures().flatmap(algebras), st.data())
def test_compatible_close_matches_reference(a, data):
    seed = relations(data.draw, a, a).pairs()
    assert compatible_close(a, seed) == ref_compatible_close(a, seed)


@settings(max_examples=30, deadline=None)
@given(algebra_pairs())
def test_arbitrary_enumeration_matches_naive_filter(ab):
    a, b = ab
    got = enumerate_compatible_relations(a, b)
    assert got == ref_enumerate_compatible(a, b)
    assert got == naive_filter(a, b, lambda r: ref_is_compatible_between(a, b, r))


@settings(max_examples=30, deadline=None)
@given(signatures().flatmap(algebras))
def test_reflexive_enumeration_matches_naive_filter(a):
    for cls, extra in (
        (RelationClass.REFLEXIVE, lambda r: True),
        (RelationClass.REFLEXIVE_POSITIVE, is_positive),
    ):
        got = enumerate_class_relations(a, cls)
        assert got == ref_enumerate_reflexive(a, cls)
        assert got == naive_filter(
            a, a, lambda r: is_reflexive(r) and ref_is_compatible_between(a, a, r) and extra(r)
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_pair_object_builders_match_reference(n, data):
    # with no operations every reflexive relation is compatible
    a = Algebra("set", Carrier(n), Signature(()), {})
    r = relations(data.draw, a, a)
    e = as_paired_object(a, Relation(a.carrier, a.carrier, r.members | np.eye(n, dtype=bool)))
    assert build_T(e) == ref_build_T(e)
    assert build_R(e) == ref_build_R(e)
