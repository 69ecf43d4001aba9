"""Algebras, compatibility, and congruence lattices."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relshift.algebras import (
    Algebra,
    AlgebraParseError,
    Signature,
    algebra_from_json,
    algebra_to_json,
    all_congruences,
    as_paired_object,
    compatible_close,
    congruence_join,
    congruence_lattice_is_modular,
    evaluate,
    is_compatible,
)
from relshift.relations import (
    Carrier,
    Relation,
    diagonal,
    full,
    is_equivalence,
    leq,
    meet,
    relation_from_json,
    relation_to_json,
)

from test_relations import partition_to_relation, partitions


def cyclic_group(n):
    add = tuple((i + j) % n for i in range(n) for j in range(n))
    neg = tuple((-i) % n for i in range(n))
    return Algebra(
        f"z{n}",
        Carrier(n),
        Signature((("add", 2), ("neg", 1), ("zero", 0))),
        {"add": add, "neg": neg, "zero": (0,)},
    )


def semilattice2():
    return Algebra(
        "semilattice2", Carrier(2), Signature((("meet", 2),)), {"meet": (0, 0, 0, 1)}
    )


def binary_algebra(n, table):
    return Algebra("b", Carrier(n), Signature((("f", 2),)), {"f": tuple(table)})


class TestConstruction:
    def test_signature_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Signature((("f", 1), ("f", 2)))

    def test_signature_rejects_big_arity(self):
        with pytest.raises(ValueError):
            Signature((("f", 4),))

    def test_table_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            Algebra("a", Carrier(2), Signature((("f", 2),)), {"f": (0, 1)})

    def test_table_entries_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            Algebra("a", Carrier(2), Signature((("f", 1),)), {"f": (0, 2)})


class TestEvaluate:
    def test_z2_addition(self):
        z2 = cyclic_group(2)
        assert evaluate(z2, "add", (1, 1)) == 0
        assert evaluate(z2, "add", (0, 1)) == 1

    def test_constant(self):
        a = Algebra("c", Carrier(2), Signature((("c", 0),)), {"c": (1,)})
        assert evaluate(a, "c", ()) == 1

    def test_index_formula_row_major(self):
        # table index = x * n + y for a binary operation
        a = binary_algebra(3, [i % 3 for i in range(9)])
        for x in range(3):
            for y in range(3):
                assert evaluate(a, "f", (x, y)) == (x * 3 + y) % 3

    def test_errors(self):
        z2 = cyclic_group(2)
        with pytest.raises(KeyError):
            evaluate(z2, "mul", (0, 0))
        with pytest.raises(ValueError):
            evaluate(z2, "add", (0,))
        with pytest.raises(ValueError):
            evaluate(z2, "add", (0, 2))

    @pytest.mark.parametrize("args", [(True, 1), (0, 1.0), (-1, 0), (0, 2), ("0", 1), (None, 0)])
    def test_argument_not_an_integer_in_range(self, args):
        with pytest.raises(ValueError, match="not an integer in range"):
            evaluate(cyclic_group(2), "add", args)

    def test_numpy_integer_arguments(self):
        assert evaluate(cyclic_group(3), "add", (np.int64(2), np.uint8(2))) == 1

    def test_serialization_round_trip_evaluates(self):
        rng = np.random.default_rng(11)
        table = tuple(int(v) for v in rng.integers(0, 3, size=9))
        a = binary_algebra(3, table)
        b = algebra_from_json(algebra_to_json(a))
        for x in range(3):
            for y in range(3):
                assert evaluate(b, "f", (x, y)) == evaluate(a, "f", (x, y))


class TestCompatibility:
    def test_diagonal_and_full_always_compatible(self):
        for a in (cyclic_group(3), semilattice2()):
            assert is_compatible(a, diagonal(a.carrier))
            assert is_compatible(a, full(a.carrier))

    def test_hand_expanded_counterexample_on_z2(self):
        # (0+1, 1+1) = (1, 0) leaves the relation, so it is incompatible
        z2 = cyclic_group(2)
        r = Relation.from_pairs(z2.carrier, z2.carrier, [(0, 0), (1, 1), (0, 1)])
        assert not is_compatible(z2, r)

    def test_semilattice_order_is_compatible(self):
        a = semilattice2()
        order = Relation.from_pairs(a.carrier, a.carrier, [(0, 0), (1, 1), (0, 1)])
        assert is_compatible(a, order)

    def test_agrees_with_coordinatewise_scan(self):
        rng = np.random.default_rng(12)
        a = binary_algebra(3, rng.integers(0, 3, size=9))
        for _ in range(50):
            r = Relation(a.carrier, a.carrier, rng.random((3, 3)) < 0.5)
            prs = r.pairs()
            oracle = all(
                (evaluate(a, "f", (x1, x2)), evaluate(a, "f", (y1, y2))) in r
                for (x1, y1), (x2, y2) in itertools.product(prs, repeat=2)
            )
            assert is_compatible(a, r) == oracle

    def test_all_congruences_are_compatible(self):
        for a in (cyclic_group(4), semilattice2()):
            for c in all_congruences(a):
                assert is_compatible(a, c)
                assert is_equivalence(c)


class TestCompatibleClose:
    def test_empty_seed_no_constants(self):
        a = semilattice2()
        assert compatible_close(a, set()).pairs() == []

    def test_constants_force_their_diagonal_pair(self):
        z2 = cyclic_group(2)
        assert (0, 0) in compatible_close(z2, set())

    def test_diagonal_seed_closes_to_diagonal(self):
        a = semilattice2()
        seed = {(i, i) for i in range(2)}
        assert compatible_close(a, seed) == diagonal(a.carrier)

    def test_result_compatible_and_minimal(self):
        # exhaustive subset-minimality check on size-2 single-binary-op algebras
        for table in itertools.product(range(2), repeat=4):
            a = binary_algebra(2, table)
            for seed_bits in range(16):
                seed = {
                    (k // 2, k % 2) for k in range(4) if (seed_bits >> k) & 1
                }
                closed = compatible_close(a, seed)
                assert is_compatible(a, closed)
                assert all(p in closed for p in seed)
                # minimal: no compatible relation strictly between seed and closure
                closed_pairs = set(closed.pairs())
                for drop in closed_pairs - seed:
                    smaller = Relation.from_pairs(
                        a.carrier, a.carrier, closed_pairs - {drop}
                    )
                    assert not is_compatible(a, smaller) or not all(
                        p in smaller for p in seed
                    ) or smaller == closed


class TestCongruences:
    def test_z4_has_three_congruences(self):
        z4 = cyclic_group(4)
        cons = all_congruences(z4)
        assert len(cons) == 3
        blocks = partition_to_relation([[0, 2], [1, 3]], 4)
        assert diagonal(z4.carrier) in cons
        assert full(z4.carrier) in cons
        assert blocks in cons

    def test_z4_against_partition_filter(self):
        z4 = cyclic_group(4)
        expected = {
            partition_to_relation(p, 4)
            for p in partitions(list(range(4)))
            if is_compatible(z4, partition_to_relation(p, 4))
        }
        assert set(all_congruences(z4)) == expected

    def test_size3_binary_algebras_against_partition_filter(self):
        rng = np.random.default_rng(13)
        parts = [partition_to_relation(p, 3) for p in partitions(list(range(3)))]
        for _ in range(25):
            a = binary_algebra(3, rng.integers(0, 3, size=9))
            expected = {p for p in parts if is_compatible(a, p)}
            assert set(all_congruences(a)) == expected

    def test_join_of_congruences_is_compatible(self):
        for a in (cyclic_group(4), semilattice2()):
            cons = all_congruences(a)
            for r, s in itertools.combinations(cons, 2):
                j = congruence_join(r, s)
                assert is_compatible(a, j)
                assert is_equivalence(j)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_cyclic_group_has_one_congruence_per_divisor(self, n):
        cons = all_congruences(cyclic_group(n))
        assert len(cons) == sum(1 for d in range(1, n + 1) if n % d == 0)

    def test_output_order_is_deterministic(self):
        z4 = cyclic_group(4)
        first = [c.pairs() for c in all_congruences(z4)]
        second = [c.pairs() for c in all_congruences(z4)]
        assert first == second == sorted(first)


class TestModularity:
    def test_two_element_algebra(self):
        assert congruence_lattice_is_modular(semilattice2())

    def test_groups_up_to_six(self):
        for n in (2, 3, 4):
            assert congruence_lattice_is_modular(cyclic_group(n))
        # Z6 has congruence lattice 2x2, still modular
        assert congruence_lattice_is_modular(cyclic_group(6))

    def test_n5_fixture_is_not_modular(self):
        # found by brute force over two-unary-op algebras on 4 elements
        a = Algebra(
            "n5_unary",
            Carrier(4),
            Signature((("f", 1), ("g", 1))),
            {"f": (0, 0, 2, 2), "g": (2, 3, 0, 1)},
        )
        assert len(all_congruences(a)) == 5
        assert not congruence_lattice_is_modular(a)


class TestPairedObject:
    def test_diagonal_pairs(self):
        z2 = cyclic_group(2)
        p = as_paired_object(z2, diagonal(z2.carrier))
        assert p.pairs == ((0, 0), (1, 1))
        assert all(p.e1(i) == p.e2(i) for i in range(2))

    def test_pair_count_is_popcount(self):
        a = semilattice2()
        e = Relation.from_pairs(a.carrier, a.carrier, [(0, 0), (1, 1), (0, 1)])
        p = as_paired_object(a, e)
        assert len(p.pairs) == len(e)

    def test_operations_stay_inside(self):
        a = semilattice2()
        e = Relation.from_pairs(a.carrier, a.carrier, [(0, 0), (1, 1), (0, 1)])
        p = as_paired_object(a, e)
        for (x1, y1), (x2, y2) in itertools.product(p.pairs, repeat=2):
            fx = evaluate(a, "meet", (x1, x2))
            fy = evaluate(a, "meet", (y1, y2))
            assert (fx, fy) in e

    def test_preconditions(self):
        z2 = cyclic_group(2)
        not_reflexive = Relation.from_pairs(z2.carrier, z2.carrier, [(0, 1)])
        with pytest.raises(ValueError, match="reflexive"):
            as_paired_object(z2, not_reflexive)
        incompatible = Relation.from_pairs(
            z2.carrier, z2.carrier, [(0, 0), (1, 1), (0, 1)]
        )
        with pytest.raises(ValueError, match="compatible"):
            as_paired_object(z2, incompatible)


class TestJson:
    def test_round_trip(self):
        z3 = cyclic_group(3)
        b = algebra_from_json(algebra_to_json(z3))
        assert b.name == z3.name and b.tables == z3.tables

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ("{", "invalid JSON"),
            ("3", "JSON object"),
            ('{"name": "a", "size": 2}', "operations"),
            ('{"name": "a", "size": 2, "operations": 5}', "operations"),
            ('{"name": "a", "size": 2, "operations": null}', "operations"),
            ('{"name": "a", "size": 2, "operations": "f"}', "operations"),
            (
                '{"name": "a", "size": 2, "operations": [{"name": "f", "arity": 2, "table": [0]}]}',
                "'f'",
            ),
            (
                '{"name": "a", "size": 2, "operations": [{"name": "f", "arity": 1, "table": [0, 9]}]}',
                "#1",
            ),
            # JSON booleans are not integers
            ('{"name": "a", "size": true, "operations": []}', "size"),
            (
                '{"name": "a", "size": 2, "operations": [{"name": "f", "arity": true, "table": [0, 1]}]}',
                "arity",
            ),
            (
                '{"name": "a", "size": 2, "operations": [{"name": "f", "arity": 1, "table": [0, true]}]}',
                "#1",
            ),
            (
                '{"name": "a", "size": 2, "operations": [{"name": "f", "arity": 1, "table": [false, 1]}]}',
                "#0",
            ),
            # operation names are JSON strings
            *(
                (
                    '{"name": "a", "size": 2, "operations": '
                    f'[{{"name": {name}, "arity": 1, "table": [0, 1]}}]}}',
                    "name is not a string",
                )
                for name in ("[1]", '{"a": 1}', "5", "null")
            ),
            # so is the algebra's name: it reads back unchanged or not at all
            *(
                (f'{{"name": {name}, "size": 2, "operations": []}}', "algebra name is not a string")
                for name in ("true", "null", "1", '["a"]')
            ),
        ],
    )
    def test_validation_names_offender(self, doc, fragment):
        with pytest.raises(AlgebraParseError, match=fragment):
            algebra_from_json(doc)


def unary(table):
    return Algebra("a", Carrier(2), Signature((("f", 1),)), {"f": table})


# integers around the valid ranges, and the bools that Python counts as integers
ints_or_bools = st.integers(-1, 3) | st.booleans()


@st.composite
def algebra_arguments(draw):
    """Constructor arguments, valid or not; table lengths mostly fit."""
    size = draw(ints_or_bools)
    ops = draw(st.lists(st.tuples(st.text(max_size=2), ints_or_bools), max_size=3))
    tables = {}
    for name, arity in ops:
        length = size**arity if size >= 1 and 0 <= arity <= 3 else draw(st.integers(0, 3))
        tables[name] = tuple(draw(st.lists(ints_or_bools, min_size=length, max_size=length)))
    return draw(st.text(max_size=3)), size, tuple(ops), tables


class TestValidation:
    """Each input rule lives in the constructor of the value it describes;
    the JSON readers check only the document's shape."""

    @pytest.mark.parametrize(
        "build,fragment",
        [
            (lambda: Carrier(True), "size"),
            (lambda: Carrier(2.0), "size"),
            (lambda: Signature((("f", True),)), "arity"),
            (lambda: Signature((("f", 1.0),)), "arity"),
            (lambda: Signature(((["f"], 1),)), "name is not a string"),
            (lambda: Signature(((None, 1), ("f", 1))), "name is not a string"),
            (lambda: Algebra(None, Carrier(2), Signature(()), {}), "algebra name is not a string"),
            (lambda: Algebra(2, Carrier(2), Signature(()), {}), "algebra name is not a string"),
            (lambda: unary((0, True)), "#1"),
            (lambda: unary((False, 1)), "#0"),
            (lambda: unary((0, 2)), "#1"),
            (lambda: unary((0, -1)), "#1"),
            (lambda: unary((0, 1.0)), "#1"),
            (lambda: unary((0, np.True_)), "#1"),
            (lambda: Relation.from_pairs(Carrier(2), Carrier(2), [(True, 0)]), "pair #0"),
            (lambda: Relation.from_pairs(Carrier(2), Carrier(2), [(0, 0), (0, 2)]), "pair #1"),
        ],
    )
    def test_constructors_reject(self, build, fragment):
        with pytest.raises(ValueError, match=fragment):
            build()

    def test_numpy_integers_accepted(self):
        for dtype in (np.int64, np.uint8, np.intp):
            table = tuple(np.array([1, 0], dtype=dtype))
            a = Algebra("a", Carrier(dtype(2)), Signature((("f", dtype(1)),)), {"f": table})
            assert a.size == 2 and a.sig.ops == (("f", 1),) and a.tables == {"f": (1, 0)}
            assert all(type(v) is int for v in (a.size, a.sig.ops[0][1], *a.tables["f"]))
            b = algebra_from_json(algebra_to_json(a))
            assert (b.carrier, b.sig, b.tables) == (a.carrier, a.sig, a.tables)

    @settings(max_examples=300, deadline=None)
    @given(algebra_arguments())
    def test_accepted_algebras_survive_json(self, args):
        name, size, ops, tables = args
        try:
            a = Algebra(name, Carrier(size), Signature(ops), tables)
        except ValueError:
            return
        b = algebra_from_json(algebra_to_json(a))
        assert (b.name, b.carrier, b.sig, b.tables) == (a.name, a.carrier, a.sig, a.tables)

    @settings(max_examples=300, deadline=None)
    @given(ints_or_bools, ints_or_bools, st.lists(st.tuples(ints_or_bools, ints_or_bools), max_size=5))
    def test_accepted_relations_survive_json(self, dom, cod, pairs):
        try:
            r = Relation.from_pairs(Carrier(dom), Carrier(cod), pairs)
        except ValueError:
            return
        assert relation_from_json(relation_to_json(r)) == r
