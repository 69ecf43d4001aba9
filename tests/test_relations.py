"""Relation calculus: forced examples plus independent oracles."""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relshift.relations import (
    Carrier,
    Relation,
    RelationParseError,
    ShapeError,
    compose,
    diagonal,
    empty,
    full,
    is_difunctional,
    is_equivalence,
    is_positive,
    is_reflexive,
    is_symmetric,
    is_transitive,
    leq,
    meet,
    opposite,
    positive_witness,
    relation_from_json,
    relation_to_json,
    transitive_closure,
    union,
)


def all_relations(n, m=None):
    m = n if m is None else m
    c, d = Carrier(n), Carrier(m)
    for bits in itertools.product([False, True], repeat=n * m):
        yield Relation(c, d, np.array(bits).reshape(n, m))


def random_relation(rng, n, m=None):
    m = n if m is None else m
    mat = rng.random((n, m)) < 0.4
    return Relation(Carrier(n), Carrier(m), mat)


def partitions(elems):
    """All set partitions of a list (recursive enumeration)."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + [[first] + block] + part[i + 1 :]
        yield [[first]] + part


def partition_to_relation(part, n):
    pairs = [(x, y) for block in part for x in block for y in block]
    return Relation.from_pairs(Carrier(n), Carrier(n), pairs)


class TestCarrier:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Carrier(0)

    def test_elements(self):
        assert list(Carrier(3).elements()) == [0, 1, 2]


class TestDiagonal:
    def test_singleton(self):
        assert diagonal(Carrier(1)).pairs() == [(0, 0)]

    def test_size_three(self):
        assert diagonal(Carrier(3)).pairs() == [(0, 0), (1, 1), (2, 2)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_is_equivalence(self, n):
        d = diagonal(Carrier(n))
        assert is_reflexive(d) and is_symmetric(d) and is_transitive(d)


class TestOpposite:
    def test_single_pair(self):
        r = Relation.from_pairs(Carrier(2), Carrier(2), [(0, 1)])
        assert opposite(r).pairs() == [(1, 0)]

    def test_involution_exhaustive(self):
        for r in all_relations(2, 3):
            assert opposite(opposite(r)) == r

    def test_symmetry_matches_direct_scan(self):
        # all 16 relations on a 2-element carrier
        for r in all_relations(2):
            direct = all(
                ((y, x) in r) == ((x, y) in r) for x in range(2) for y in range(2)
            )
            assert (opposite(r) == r) == direct == is_symmetric(r)


class TestCompose:
    def test_identity_unit(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 4):
            r = random_relation(rng, n)
            d = diagonal(Carrier(n))
            assert compose(d, r) == r
            assert compose(r, d) == r

    def test_forced_single_pairs(self):
        r = Relation.from_pairs(Carrier(2), Carrier(2), [(0, 1)])
        s = Relation.from_pairs(Carrier(2), Carrier(2), [(1, 0)])
        assert compose(s, r).pairs() == [(0, 0)]

    def test_associativity_against_nested_scan(self):
        # oracle: direct triple-nested existential scan
        rng = np.random.default_rng(2)
        for _ in range(100):
            sizes = rng.integers(1, 6, size=4)
            r = random_relation(rng, sizes[0], sizes[1])
            s = random_relation(rng, sizes[1], sizes[2])
            t = random_relation(rng, sizes[2], sizes[3])
            left = compose(t, compose(s, r))
            right = compose(compose(t, s), r)
            oracle = np.zeros((sizes[0], sizes[3]), dtype=bool)
            for x in range(sizes[0]):
                for w in range(sizes[3]):
                    oracle[x, w] = any(
                        (x, y) in r and (y, z) in s and (z, w) in t
                        for y in range(sizes[1])
                        for z in range(sizes[2])
                    )
            expect = Relation(Carrier(int(sizes[0])), Carrier(int(sizes[3])), oracle)
            assert left == right == expect

    def test_mismatched_carriers_rejected(self):
        r = empty(Carrier(2), Carrier(3))
        s = empty(Carrier(2), Carrier(2))
        with pytest.raises(ShapeError):
            compose(s, r)

    def test_opposite_of_composite(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = rng.integers(1, 6, size=3)
            r = random_relation(rng, a, b)
            s = random_relation(rng, b, c)
            assert opposite(compose(s, r)) == compose(opposite(r), opposite(s))


class TestLatticeOps:
    def test_meet_with_full(self):
        for r in all_relations(2):
            assert meet(r, full(Carrier(2))) == r

    def test_meet_below_both(self):
        for r, s in itertools.product(all_relations(2), repeat=2):
            assert leq(meet(r, s), r) and leq(meet(r, s), s)

    def test_pointwise_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            r = random_relation(rng, 4)
            s = random_relation(rng, 4)
            for x in range(4):
                for y in range(4):
                    assert ((x, y) in meet(r, s)) == ((x, y) in r and (x, y) in s)
                    assert ((x, y) in union(r, s)) == ((x, y) in r or (x, y) in s)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            meet(empty(Carrier(2)), empty(Carrier(3)))
        with pytest.raises(ShapeError):
            leq(empty(Carrier(2), Carrier(3)), empty(Carrier(2), Carrier(2)))


class TestPredicates:
    def test_single_offdiagonal_pair(self):
        r = Relation.from_pairs(Carrier(2), Carrier(2), [(0, 1)])
        assert not is_reflexive(r)
        assert not is_symmetric(r)
        assert is_transitive(r)  # RR is empty
        assert not is_equivalence(r)

    def test_predicates_require_endorelation(self):
        r = empty(Carrier(2), Carrier(3))
        for pred in (is_reflexive, is_symmetric, is_transitive):
            with pytest.raises(ShapeError):
                pred(r)

    def test_equivalences_idempotent_under_composition(self):
        # all 15 partitions of a 4-element set
        count = 0
        for part in partitions(list(range(4))):
            e = partition_to_relation(part, 4)
            assert is_equivalence(e)
            assert compose(e, e) == e
            count += 1
        assert count == 15


class TestDifunctional:
    def test_equivalences_are_difunctional(self):
        for part in partitions(list(range(3))):
            assert is_difunctional(partition_to_relation(part, 3))

    def test_empty_is_difunctional(self):
        assert is_difunctional(empty(Carrier(2), Carrier(3)))

    def test_agrees_with_quantifier_scan(self):
        def oracle(d, n, m):
            for x, v, u, y in itertools.product(range(n), range(m), range(n), range(m)):
                if (x, v) in d and (u, v) in d and (u, y) in d and (x, y) not in d:
                    return False
            return True

        for d in all_relations(2, 3):
            assert is_difunctional(d) == oracle(d, 2, 3)


class TestPositivity:
    def test_equivalences_are_positive_with_self_witness(self):
        for part in partitions(list(range(3))):
            e = partition_to_relation(part, 3)
            assert is_positive(e)
            assert positive_witness(e) == e

    def test_bare_swap_is_not_positive(self):
        # brute force over all 2^4 candidate U on 2x2 finds no U with
        # opposite(U) . U = P
        p = Relation.from_pairs(Carrier(2), Carrier(2), [(0, 1), (1, 0)])
        assert not any(compose(opposite(u), u) == p for u in all_relations(2))
        assert not is_positive(p)
        assert positive_witness(p) is None

    def test_empty_is_positive(self):
        p = empty(Carrier(2))
        assert is_positive(p)
        u = positive_witness(p)
        assert compose(opposite(u), u) == p

    def test_witness_valid_whenever_positive(self):
        for p in all_relations(3):
            if is_positive(p):
                u = positive_witness(p)
                assert compose(opposite(u), u) == p

    def test_positive_implies_symmetric(self):
        for p in all_relations(3):
            if is_positive(p):
                assert is_symmetric(p)

    def test_requires_endorelation(self):
        with pytest.raises(ShapeError):
            is_positive(empty(Carrier(2), Carrier(3)))


class TestTransitiveClosure:
    def test_fixpoint_on_transitive(self):
        for r in all_relations(3):
            if is_transitive(r):
                assert transitive_closure(r) == r

    def test_forced_chain(self):
        r = Relation.from_pairs(Carrier(3), Carrier(3), [(0, 1), (1, 2)])
        assert transitive_closure(r).pairs() == [(0, 1), (0, 2), (1, 2)]

    def test_equals_iterated_composites(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            r = random_relation(rng, 5)
            acc, power = r, r
            for _ in range(5):
                power = compose(power, r)
                acc = union(acc, power)
            assert transitive_closure(r) == acc


@st.composite
def relations(draw, max_size=4):
    n = draw(st.integers(1, max_size))
    m = draw(st.integers(1, max_size))
    bits = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    return Relation(Carrier(n), Carrier(m), np.array(bits).reshape(n, m))


class TestAlgebraicLaws:
    @given(relations())
    @settings(max_examples=100)
    def test_opposite_involution(self, r):
        assert opposite(opposite(r)) == r

    @given(relations(), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_composite_opposite_law(self, r, rnd):
        k = r.cod.size
        s = Relation(
            r.cod,
            Carrier(3),
            np.array([rnd.random() < 0.5 for _ in range(k * 3)]).reshape(k, 3),
        )
        assert opposite(compose(s, r)) == compose(opposite(r), opposite(s))


class TestJsonRoundTrip:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            r = random_relation(rng, 4, 3)
            assert relation_from_json(relation_to_json(r)) == r

    def test_duplicates_tolerated_on_read(self):
        text = json.dumps({"dom": 2, "cod": 2, "pairs": [[0, 1], [0, 1]]})
        assert relation_from_json(text).pairs() == [(0, 1)]

    def test_write_has_no_duplicates(self):
        r = Relation.from_pairs(Carrier(2), Carrier(2), [(0, 1), (0, 1)])
        doc = json.loads(relation_to_json(r))
        assert doc["pairs"] == [[0, 1]]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("{", "invalid JSON"),
            ("[]", "JSON object"),
            ('{"dom": 2, "cod": 2}', "pairs"),
            ('{"dom": 0, "cod": 2, "pairs": []}', "positive"),
            ('{"dom": 2, "cod": 2, "pairs": [[0, 5]]}', "pair #0"),
            ('{"dom": 2, "cod": 2, "pairs": [[0, 1], [1]]}', "pair #1"),
            # JSON booleans are not integers
            ('{"dom": true, "cod": 2, "pairs": []}', "positive"),
            ('{"dom": 2, "cod": true, "pairs": []}', "positive"),
            ('{"dom": 2, "cod": 2, "pairs": [[true, 1]]}', "pair #0"),
            ('{"dom": 2, "cod": 2, "pairs": [[0, 1], [1, false]]}', "pair #1"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(RelationParseError, match=fragment):
            relation_from_json(text)


class TestImmutability:
    def test_cannot_mutate_members(self):
        r = diagonal(Carrier(2))
        with pytest.raises(ValueError):
            r.members[0, 1] = True

    def test_cannot_rebind_fields(self):
        r = diagonal(Carrier(2))
        with pytest.raises(AttributeError):
            r.dom = Carrier(3)


class TestMembership:
    def test_members_and_non_members(self):
        r = Relation.from_pairs(Carrier(2), Carrier(3), [(1, 0), (0, 2)])
        assert (1, 0) in r and (0, 2) in r and (np.int64(1), np.int8(0)) in r
        assert (0, 0) not in r and (1, 2) not in r

    @pytest.mark.parametrize("pair", [
        (-1, 0), (0, -1), (2, 0), (1, 3), (True, 0), (1, False), (1.0, 0), ("1", 0),
        (1,), (1, 0, 0), [1, 0], 1, None,
    ])
    def test_anything_but_a_pair_in_range_is_not_a_member(self, pair):
        # the relation holds every in-range pair (1, y), so only the test of
        # the pair itself can refuse these
        r = Relation.from_pairs(Carrier(2), Carrier(3), [(1, 0), (1, 1), (1, 2)])
        assert pair not in r
