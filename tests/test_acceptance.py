"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance and time bound is pinned here.
"""

import itertools
import json
import time

import numpy as np

from relshift.algebras import Algebra, Signature, all_congruences
from relshift.checks import (
    RelationClass,
    difunctional_all,
    enumerate_class_relations,
    goursat_identity_all,
    shifting_lemma,
    shifting_lemma_forall,
)
from relshift.constructions import goursat_sl_witness, maltsev_sl_witness
from relshift.harness import bundled_corpus, run_suite
from relshift.relations import (
    Carrier,
    Relation,
    compose,
    diagonal,
    is_equivalence,
    is_positive,
    is_symmetric,
    leq,
    meet,
    opposite,
    positive_witness,
    transitive_closure,
    union,
)
from relshift.terms import find_3perm_terms, find_maltsev_term, generate_ternary_clone


def _verdict(num: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    in_time = elapsed <= limit
    status = "PASS" if ok and in_time else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} [{elapsed:.1f}s / limit {limit:.0f}s]")
    assert ok, f"criterion {num} ({name}) failed"
    assert in_time, f"criterion {num} ({name}) exceeded {limit}s ({elapsed:.1f}s)"


def all_relations(n, m):
    c, d = Carrier(n), Carrier(m)
    for bits in range(2 ** (n * m)):
        mat = np.array([(bits >> k) & 1 for k in range(n * m)], dtype=bool)
        yield Relation(c, d, mat.reshape(n, m))


def random_relation(rng, n, m):
    return Relation(Carrier(n), Carrier(m), rng.random((n, m)) < 0.45)


def binary_algebra(n, table):
    return Algebra("b", Carrier(n), Signature((("f", 2),)), {"f": tuple(table)})


def reflexive_compatible(a):
    return enumerate_class_relations(a, RelationClass.REFLEXIVE)


def test_criterion_1_relation_calculus_laws():
    t0 = time.monotonic()
    ok = True

    # unit and involution: exhaustive over every relation on carriers <= 3
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            dn, dm = diagonal(Carrier(n)), diagonal(Carrier(m))
            for r in all_relations(n, m):
                ok &= opposite(opposite(r)) == r
                ok &= compose(dm, r) == r
                ok &= compose(r, dn) == r

    # (SR)-op = R-op S-op: exhaustive over all composable pairs with
    # carriers <= 2, plus all 512 x 512 pairs of 3x3 relations
    for a, b, c in itertools.product((1, 2), repeat=3):
        for r in all_relations(a, b):
            for s in all_relations(b, c):
                ok &= opposite(compose(s, r)) == compose(opposite(r), opposite(s))
    rels3 = list(all_relations(3, 3))
    for r in rels3:
        for s in rels3:
            if not opposite(compose(s, r)) == compose(opposite(r), opposite(s)):
                ok = False
                break

    # associativity: exhaustive over all composable triples on carriers <= 2
    for a, b, c, d in itertools.product((1, 2), repeat=4):
        for r in all_relations(a, b):
            for s in all_relations(b, c):
                for t in all_relations(c, d):
                    ok &= compose(t, compose(s, r)) == compose(compose(t, s), r)

    # 10^4 seeded random instances on carriers <= 6, all four laws
    rng = np.random.default_rng(20240901)
    for _ in range(10_000):
        a, b, c, d = (int(v) for v in rng.integers(1, 7, size=4))
        r = random_relation(rng, a, b)
        s = random_relation(rng, b, c)
        t = random_relation(rng, c, d)
        ok &= compose(t, compose(s, r)) == compose(compose(t, s), r)
        ok &= opposite(compose(s, r)) == compose(opposite(r), opposite(s))
        ok &= opposite(opposite(r)) == r
        ok &= compose(diagonal(Carrier(b)), r) == r
        ok &= compose(r, diagonal(Carrier(a))) == r

    _verdict(1, "relation calculus laws", ok, time.monotonic() - t0, 60)


def test_criterion_2_positivity_criterion_vs_brute_force():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        # the exact set of positive relations, by brute force over every
        # witness U with cod size up to 3
        achievable = set()
        for m in (1, 2, 3):
            for u in all_relations(n, m):
                achievable.add(compose(opposite(u), u))
        for p in all_relations(n, n):
            fast = is_positive(p)
            ok &= fast == (p in achievable)
            if fast:
                w = positive_witness(p)
                ok &= w is not None and compose(opposite(w), w) == p
                ok &= is_symmetric(p)
    _verdict(2, "positivity criterion = brute force", ok, time.monotonic() - t0, 120)


def test_criterion_3_maltsev_witness_soundness():
    t0 = time.monotonic()
    ok = True
    checked = 0
    for table in itertools.product(range(2), repeat=4):
        a = binary_algebra(2, table)
        for e in reflexive_compatible(a):
            if is_symmetric(e):
                continue
            w = maltsev_sl_witness(a, e)
            ok &= leq(meet(w.R, w.S), w.T)
            x, y, u, v = w.quadruple
            ok &= (x, y) in w.R and (x, y) in w.T
            ok &= (x, u) in w.S and (y, v) in w.S
            ok &= (u, v) in w.R
            ok &= (u, v) not in w.T
            ok &= shifting_lemma(w.R, w.S, w.T).verdict == "violated"
            checked += 1
    ok &= checked > 0
    _verdict(3, "Mal'tsev witness soundness", ok, time.monotonic() - t0, 120)


def test_criterion_4_goursat_witness_soundness():
    t0 = time.monotonic()
    ok = True
    checked = 0
    algebras = [binary_algebra(2, t) for t in itertools.product(range(2), repeat=4)]
    rng = np.random.default_rng(20240904)
    algebras += [
        binary_algebra(3, rng.integers(0, 3, size=9)) for _ in range(200)
    ]
    for a in algebras:
        for e in reflexive_compatible(a):
            ee = compose(e, opposite(e))
            oe = compose(opposite(e), e)
            if ee == oe:
                continue
            w = goursat_sl_witness(a, e)
            ok &= is_positive(w.R) and is_positive(w.T)
            ok &= leq(meet(w.R, w.S), w.T)
            x, y, u, v = w.quadruple
            ok &= (x, y) in w.R and (x, y) in w.T
            ok &= (x, u) in w.S and (y, v) in w.S
            ok &= (u, v) in w.R and (u, v) not in w.T
            ok &= shifting_lemma(w.R, w.S, w.T).verdict == "violated"
            checked += 1
    ok &= checked > 0
    _verdict(4, "Goursat witness soundness", ok, time.monotonic() - t0, 300)


def test_criterion_5_term_condition_forward_directions():
    t0 = time.monotonic()
    ok = True
    corpus = bundled_corpus()
    for name in ("z2", "z3", "z4"):
        a = corpus[name]
        ok &= find_maltsev_term(a).found
        ok &= difunctional_all(a).holds
        ok &= all(is_equivalence(e) for e in reflexive_compatible(a))
        ok &= shifting_lemma_forall(a, *(RelationClass.REFLEXIVE,) * 3).holds
    impl = corpus["implication2"]
    ok &= find_3perm_terms(impl).found
    ok &= goursat_identity_all(impl).holds
    ok &= all(
        is_equivalence(p)
        for p in enumerate_class_relations(impl, RelationClass.REFLEXIVE_POSITIVE)
    )
    ok &= shifting_lemma_forall(
        impl,
        RelationClass.REFLEXIVE_POSITIVE,
        RelationClass.REFLEXIVE,
        RelationClass.REFLEXIVE_POSITIVE,
    ).holds
    _verdict(5, "term-condition forward directions", ok, time.monotonic() - t0, 300)


def test_criterion_6_negative_control_semilattice():
    t0 = time.monotonic()
    semi = bundled_corpus()["semilattice2"]
    clone = generate_ternary_clone(semi)
    res = find_3perm_terms(semi)
    ok = clone.complete and len(clone.functions) == 7
    ok &= res.status == "not_found"
    ok &= (
        shifting_lemma_forall(semi, *(RelationClass.REFLEXIVE,) * 3).verdict
        == "violated"
    )
    _verdict(6, "negative control (2-element semilattice)", ok, time.monotonic() - t0, 60)


def test_criterion_7_join_formula_on_3_permutable_corpus():
    t0 = time.monotonic()
    ok = True
    for name, a in bundled_corpus().items():
        if not find_3perm_terms(a).found:
            continue
        cons = all_congruences(a)
        for r, s in itertools.product(cons, repeat=2):
            rsr = compose(r, compose(s, r))
            srs = compose(s, compose(r, s))
            true_join = transitive_closure(union(r, s))
            ok &= rsr == srs == true_join
    _verdict(7, "RSR join formula", ok, time.monotonic() - t0, 60)


def test_criterion_8_shifting_principle_reduction():
    t0 = time.monotonic()
    ok = True
    rng = np.random.default_rng(20240908)
    c4 = Carrier(4)
    for _ in range(10_000):
        r = Relation(c4, c4, rng.random((4, 4)) < 0.5)
        s = Relation(c4, c4, rng.random((4, 4)) < 0.5)
        t = union(meet(r, s), Relation(c4, c4, rng.random((4, 4)) < 0.3))
        ok &= not shifting_lemma(r, s, meet(r, t)).holds or shifting_lemma(r, s, t).holds
    _verdict(8, "shifting-principle reduction", ok, time.monotonic() - t0, 120)


def test_criterion_9_suite_determinism():
    t0 = time.monotonic()
    first = json.dumps(run_suite(bundled_corpus(), seed=7), sort_keys=True)
    second = json.dumps(run_suite(bundled_corpus(), seed=7), sort_keys=True)
    ok = first == second
    _verdict(9, "suite determinism", ok, time.monotonic() - t0, 120)
