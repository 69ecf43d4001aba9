"""The facts a relation stores: ``is_equivalence``, ``is_positive`` and
``is_compatible`` are decided once per relation (and algebra), and every
later call reads the stored answer.  The answers are checked against
plain loops on seeded random relations, the algebras a relation is
compatible with are told apart, the spies count the kernels that still
run, and copies start without stored facts."""

import copy
import itertools
import pickle
import random

import numpy as np
import pytest

from relshift import algebras, relations
from relshift.algebras import PreconditionError, all_congruences, compatible_close, is_compatible
from relshift.checks import (
    RelationClass,
    permutability,
    shifting_lemma_forall,
)
from relshift.constructions import goursat_sl_witness, join_via_RSR, maltsev_sl_witness
from relshift.harness import bundled_corpus
from relshift.relations import Carrier, Relation, diagonal, is_equivalence, is_positive

from test_algebras import cyclic_group, semilattice2
from test_reference import ref_is_compatible_between, seeded_algebra
from test_relations import partition_to_relation, partitions


def ref_equivalence(r):
    n = r.dom.size
    m = r.members
    return (
        all(m[x, x] for x in range(n))
        and all(m[y, x] for x in range(n) for y in range(n) if m[x, y])
        and all(m[x, z] for x, y, z in itertools.product(range(n), repeat=3) if m[x, y] and m[y, z])
    )


def ref_positive(p):
    # the local criterion TestPositivity checks against the existential search:
    # symmetric, and every related element related to itself
    n = p.dom.size
    m = p.members
    return all(m[y, x] and m[x, x] for x in range(n) for y in range(n) if m[x, y])


def seeded_relations(seed):
    """Random relations, partitions and closures on 2-4 elements, each a
    fresh Relation with no stored fact, with a random algebra on its carrier."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    a = seeded_algebra(n, rng.choice([(1,), (2,), (0, 1), (1, 1)]), seed)
    c = Carrier(n)
    yield a, Relation(c, c, np.array([[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]))
    part = rng.choice(list(partitions(list(range(n)))))
    yield a, partition_to_relation(part, n)
    seed_pairs = [(x, x) for x in range(n)] + [(rng.randrange(n), rng.randrange(n))]
    yield a, Relation(c, c, compatible_close(a, seed_pairs).members)


class TestStoredAnswers:
    def test_repeated_calls_match_the_reference(self):
        seen = {"equivalence": set(), "positive": set(), "compatible": set()}
        for seed in range(40):
            for a, r in seeded_relations(seed):
                want = {
                    "equivalence": ref_equivalence(r),
                    "positive": ref_positive(r),
                    "compatible": ref_is_compatible_between(a, a, r),
                }
                for _ in range(3):
                    got = {
                        "equivalence": is_equivalence(r),
                        "positive": is_positive(r),
                        "compatible": is_compatible(a, r),
                    }
                    assert got == want, (seed, r)
                for key, value in want.items():
                    seen[key].add(value)
        # every predicate was checked on relations that pass and relations that fail
        assert all(values == {True, False} for values in seen.values())

    @pytest.mark.parametrize("order", ["semilattice first", "z2 first"])
    def test_one_relation_is_told_apart_by_algebra(self, order):
        semi, z2 = semilattice2(), cyclic_group(2)
        le2 = Relation.from_pairs(Carrier(2), Carrier(2), [(0, 0), (0, 1), (1, 1)])
        want = [(semi, True), (z2, False)]
        if order == "z2 first":
            want.reverse()
        for _ in range(2):
            for a, compatible in want:
                assert is_compatible(a, le2) is compatible

    def test_carrier_mismatch_is_refused_every_call(self):
        z2, d3 = cyclic_group(2), diagonal(Carrier(3))
        for _ in range(2):
            with pytest.raises(relations.ShapeError):
                is_compatible(z2, d3)

    def test_a_non_equivalence_is_refused_every_call(self):
        d2 = diagonal(Carrier(2))
        le2 = Relation.from_pairs(Carrier(2), Carrier(2), [(0, 0), (0, 1), (1, 1)])
        for _ in range(3):
            with pytest.raises(PreconditionError, match="must be equivalence relations"):
                permutability(le2, d2)
            with pytest.raises(PreconditionError):
                permutability(d2, le2)
            with pytest.raises(ValueError, match="must be equivalence relations"):
                join_via_RSR(le2, d2)

    def test_stored_facts_leave_equality_hash_and_repr_alone(self):
        z2 = cyclic_group(2)
        checked, fresh = diagonal(Carrier(2)), diagonal(Carrier(2))
        assert is_equivalence(checked) and is_positive(checked) and is_compatible(z2, checked)
        assert checked == fresh and hash(checked) == hash(fresh) and repr(checked) == repr(fresh)

    def test_neither_matrix_nor_tables_can_be_made_writeable_again(self):
        # the stored facts rest on both staying as they were checked
        z2, d2 = cyclic_group(2), diagonal(Carrier(2))
        assert is_equivalence(d2) and is_compatible(z2, d2)
        for array in (d2.members, Relation(d2.dom, d2.cod, d2.members.T).members,
                      z2.table_array("add"), z2.table_array("zero")):
            with pytest.raises(ValueError, match="WRITEABLE"):
                array.setflags(write=True)


class TestKernelsRunOnce:
    def test_one_equivalence_test_per_congruence(self, monkeypatch):
        # permutability and join_via_RSR over every pair of N5's congruences
        cons = all_congruences(bundled_corpus()["n5_unary"])
        calls = []
        real = relations._equivalence_stack

        def counted(stack):
            calls.append(len(stack))
            return real(stack)

        monkeypatch.setattr(relations, "_equivalence_stack", counted)
        for r, s in itertools.combinations(cons, 2):
            permutability(r, s)
            join_via_RSR(r, s)
        assert len(cons) == 5 and calls == [1] * len(cons)

    def test_witnesses_on_a_closure_recheck_nothing(self, monkeypatch):
        a = bundled_corpus()["n5_unary"]
        e = compatible_close(a, [(x, x) for x in range(a.size)] + [(0, 3)])
        calls = []
        real = algebras._is_compatible_between

        def counted(a, b, stack):
            calls.append(len(stack))
            return real(a, b, stack)

        monkeypatch.setattr(algebras, "_is_compatible_between", counted)
        assert maltsev_sl_witness(a, e).kind == "maltsev"
        assert goursat_sl_witness(a, e).kind == "goursat"
        assert calls == []
        # a relation with the same pairs but nothing stored is checked once
        fresh = Relation(a.carrier, a.carrier, e.members)
        maltsev_sl_witness(a, fresh)
        goursat_sl_witness(a, fresh)
        assert calls == [1]


class TestCopies:
    @pytest.mark.parametrize("copier", [
        copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_round_trip_goes_through_the_constructor(self, copier):
        r = Relation.from_pairs(Carrier(3), Carrier(2), [(0, 1), (2, 0)])
        d3 = diagonal(Carrier(3))
        assert is_equivalence(d3) and is_compatible(cyclic_group(3), d3)
        for rel in (r, d3):
            got = copier(rel)
            assert type(got) is Relation and got is not rel
            assert got == rel and hash(got) == hash(rel) and got.pairs() == rel.pairs()
            assert got._facts == {}
            assert not got.members.flags.writeable
            with pytest.raises(AttributeError, match="immutable"):
                got.dom = Carrier(1)

    def test_a_result_with_a_triple_round_trips(self):
        a = bundled_corpus()["n5_unary"]
        refl = RelationClass.REFLEXIVE
        res = shifting_lemma_forall(a, refl, refl, refl)
        assert res.verdict == "violated" and res.triple is not None
        for got in (copy.copy(res), copy.deepcopy(res), pickle.loads(pickle.dumps(res))):
            assert got == res and got.triple == res.triple and got.to_dict() == res.to_dict()
