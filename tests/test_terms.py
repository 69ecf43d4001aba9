"""Clone generation and term-condition search."""

import itertools
import random

import numpy as np
import pytest

from relshift.algebras import Algebra, Signature, evaluate
from relshift.harness import bundled_corpus
from relshift.relations import Carrier
from relshift.terms import (
    TermFunction,
    _3perm_terms,
    _maltsev_term,
    find_3perm_terms,
    find_maltsev_term,
    generate_ternary_clone,
)

from test_algebras import cyclic_group, semilattice2
from test_reference import BUDGET_CUT_GROUPOIDS


def implication2():
    return Algebra(
        "implication2", Carrier(2), Signature((("imp", 2),)), {"imp": (1, 1, 0, 1)}
    )


def eval_term(a, term, x, y, z):
    if term == "x":
        return x
    if term == "y":
        return y
    if term == "z":
        return z
    op, *children = term
    args = tuple(eval_term(a, c, x, y, z) for c in children)
    return evaluate(a, op, args)


class TestCloneGeneration:
    def test_empty_signature_gives_projections(self):
        a = Algebra("set2", Carrier(2), Signature(()), {})
        clone = generate_ternary_clone(a)
        assert clone.complete
        assert [f.term for f in clone.functions] == ["x", "y", "z"]

    def test_semilattice_clone_is_the_seven_meets(self):
        clone = generate_ternary_clone(semilattice2())
        assert clone.complete
        assert len(clone.functions) == 7
        # the 7 meets of nonempty variable subsets, as tables
        def meet_of(subset):
            return tuple(
                min(v for k, v in zip("xyz", (x, y, z)) if k in subset)
                for x in range(2) for y in range(2) for z in range(2)
            )
        expected = {meet_of(sub) for r in (1, 2, 3)
                    for sub in ("".join(c) for c in itertools.combinations("xyz", r))}
        assert {f.table for f in clone.functions} == expected

    def test_z2_clone_contains_xyz_sum(self):
        clone = generate_ternary_clone(cyclic_group(2))
        assert clone.complete
        assert (0, 1, 1, 0, 1, 0, 0, 1) in {f.table for f in clone.functions}

    def test_derivations_reevaluate(self):
        for a in (cyclic_group(3), semilattice2(), implication2()):
            clone = generate_ternary_clone(a)
            n = a.size
            for fn in clone.functions:
                for x in range(n):
                    for y in range(n):
                        for z in range(n):
                            assert fn(x, y, z) == eval_term(a, fn.term, x, y, z)

    def test_budget_exhaustion_flagged(self):
        clone = generate_ternary_clone(cyclic_group(3), budget=5)
        assert not clone.complete
        assert len(clone.functions) == 5

    def test_constant_counts_against_budget(self):
        a = Algebra("const2", Carrier(2), Signature((("c", 0),)), {"c": (1,)})
        clone = generate_ternary_clone(a, budget=3)
        assert not clone.complete
        assert [f.term for f in clone.functions] == ["x", "y", "z"]
        assert generate_ternary_clone(a, budget=4).complete

    @pytest.mark.parametrize("name, budget, until_maltsev", [
        ("z3", 5, False),
        ("implication2", 37, False),
        ("z3", 20, True),  # member 21 is the Mal'tsev term
        ("const2", 3, False),  # the cut falls on the constant
    ])
    def test_steps_of_a_cut_clone_derive_no_member_past_the_budget(
        self, name, budget, until_maltsev
    ):
        const2 = Algebra("const2", Carrier(2), Signature((("c", 0),)), {"c": (1,)})
        a = {**bundled_corpus(), "const2": const2}[name]
        clone = generate_ternary_clone(a, budget, until_maltsev=until_maltsev)
        derived = sum(len(args[0]) if args else 1 for _, args in clone.steps)
        assert not clone.complete
        assert derived == len(clone.tables) == len(clone.terms) == budget

    @pytest.mark.parametrize("table", BUDGET_CUT_GROUPOIDS)
    def test_steps_and_terms_are_built_on_first_read(self, table):
        a = Algebra("groupoid", Carrier(3), Signature((("m", 2),)), {"m": table})
        clone = generate_ternary_clone(a)
        assert "steps" not in vars(clone) and "terms" not in vars(clone)
        derived = sum(len(args[0]) if args else 1 for _, args in clone.steps)
        assert "steps" in vars(clone) and "terms" not in vars(clone)
        assert derived == len(clone.tables)

    def test_nullary_term_prints_as_a_call(self):
        a = Algebra("const2", Carrier(2), Signature((("c", 0),)), {"c": (1,)})
        c = generate_ternary_clone(a).function(3)
        assert (c.term, c.sexpr(), c.table) == (("c",), "(c)", (1,) * 8)

    def test_budget_must_cover_projections(self):
        with pytest.raises(ValueError):
            generate_ternary_clone(cyclic_group(2), budget=2)

    @pytest.mark.parametrize("i", [True, -1, 3, 1.5, "0"])
    def test_function_refuses_indices_out_of_range(self, i):
        clone = generate_ternary_clone(Algebra("set2", Carrier(2), Signature(()), {}))
        with pytest.raises(ValueError, match="not an integer in 0..2"):
            clone.function(i)

    def test_function_takes_numpy_integers(self):
        clone = generate_ternary_clone(cyclic_group(2))
        assert clone.function(np.int64(1)) == clone.function(1) == clone.functions[1]


class TestTermFunction:
    def test_call_reads_the_table(self):
        x = generate_ternary_clone(cyclic_group(2)).function(0)
        assert x.term == "x"
        assert [x(*args) for args in itertools.product(range(2), repeat=3)] == list(x.table)
        assert x(np.int64(1), 0, 0) == 1

    @pytest.mark.parametrize(
        "args", [(0, 0, 2), (0, 0, -1), (2, 0, 0), (0, -1, 0), (True, 0, 0), (0, False, 0), (0.0, 0, 0), ("0", 0, 0)]
    )
    def test_call_refuses_arguments_out_of_range(self, args):
        x = generate_ternary_clone(cyclic_group(2)).function(0)
        with pytest.raises(ValueError, match="not an integer in range"):
            x(*args)


class TestMaltsevSearch:
    def test_z2_finds_xyz_sum(self):
        res = find_maltsev_term(cyclic_group(2))
        assert res.found
        p = res.terms[0]
        for x in range(2):
            for y in range(2):
                assert p(x, y, y) == x
                assert p(x, x, y) == y

    def test_semilattice_not_found_complete(self):
        res = find_maltsev_term(semilattice2())
        assert res.status == "not_found"

    def test_basic_maltsev_operation_found_immediately(self):
        # x - y + z on Z3 as a single basic ternary operation
        n = 3
        table = tuple(
            (x - y + z) % n for x in range(n) for y in range(n) for z in range(n)
        )
        a = Algebra("maltsev3", Carrier(n), Signature((("p", 3),)), {"p": table})
        res = find_maltsev_term(a)
        assert res.found
        assert res.terms[0].term == ("p", "x", "y", "z")

    def test_budget_exhaustion_inconclusive(self):
        res = find_maltsev_term(cyclic_group(3), budget=4)
        assert res.status == "inconclusive"


class TestThreePermSearch:
    def test_maltsev_implies_3perm_with_projection_pair(self):
        for n in (2, 3, 4):
            zn = cyclic_group(n)
            m = find_maltsev_term(zn)
            assert m.found
            p = m.terms[0]
            third = TermFunction(
                n,
                tuple(z for x in range(n) for y in range(n) for z in range(n)),
                "z",
            )
            # (r, s) = (p, third projection) satisfies all three identities
            for x in range(n):
                for y in range(n):
                    assert p(x, y, y) == x
                    assert p(x, x, y) == third(x, y, y)
                    assert third(x, x, y) == y
            assert find_3perm_terms(zn).found

    def test_semilattice_not_found_complete(self):
        assert find_3perm_terms(semilattice2()).status == "not_found"

    def test_implication_algebra_found(self):
        res = find_3perm_terms(implication2())
        assert res.found
        r, s = res.terms
        for x in range(2):
            for y in range(2):
                assert r(x, y, y) == x
                assert s(x, x, y) == y
                assert r(x, x, y) == s(x, y, y)

    def test_implication_algebra_maltsev_outcome_recorded(self):
        # the clone closes without a Mal'tsev term: 3-permutable only
        res = find_maltsev_term(implication2())
        assert res.status == "not_found"

    def test_status_stable_under_signature_reordering(self):
        base = cyclic_group(2)
        reordered = Algebra(
            "z2r",
            Carrier(2),
            Signature((("zero", 0), ("neg", 1), ("add", 2))),
            {"add": base.tables["add"], "neg": base.tables["neg"], "zero": (0,)},
        )
        for search in (find_maltsev_term, find_3perm_terms):
            assert search(base).status == search(reordered).status


def groupoid(name, n, table):
    return Algebra(name, Carrier(n), Signature((("m", 2),)), {"m": tuple(table)})


def random_groupoid(seed):
    """A 3-element groupoid with a seeded random table."""
    rng = random.Random(seed)
    return groupoid(f"random{seed}", 3, (rng.randrange(3) for _ in range(9)))


def quasigroup(seed):
    """A 3-element quasigroup: Z3's addition table with its rows, columns
    and values permuted by seeded permutations.  It has a Mal'tsev term."""
    rng = random.Random(seed)
    r, c, v = (rng.sample(range(3), 3) for _ in range(3))
    return groupoid(f"quasigroup{seed}", 3, (v[(r[x] + c[y]) % 3] for x in range(3) for y in range(3)))


EARLY_STOP_CASES = [
    groupoid("trivial", 1, (0,)),
    *bundled_corpus().values(),  # Z2, Z3 and Z4 among them
    cyclic_group(5),
    cyclic_group(6),
    groupoid("sub5", 5, ((x - y) % 5 for x in range(5) for y in range(5))),
    *map(random_groupoid, range(6)),
    *map(quasigroup, range(4)),
]


class TestEarlyStop:
    """The searches stop generating the clone at its first Mal'tsev member;
    the oracle is the same search over the clone generated without that stop."""

    @pytest.mark.parametrize("a", EARLY_STOP_CASES, ids=lambda a: a.name)
    def test_searches_match_the_full_clone(self, a):
        budgets = [None]
        full = generate_ternary_clone(a)
        p = _maltsev_term(full).terms
        if p:
            k = full.terms.index(p[0].term)
            # budgets that cut the clone before p, and that keep p last
            budgets += [b for b in (k - 1, k, k + 1) if b >= 3]
        for budget in budgets:
            full = generate_ternary_clone(a, budget)
            maltsev, threeperm = find_maltsev_term(a, budget), find_3perm_terms(a, budget)
            assert maltsev == _maltsev_term(full)
            assert threeperm == _3perm_terms(full)
            if maltsev.found:
                assert threeperm.terms == (full.functions[0], maltsev.terms[0])

    @pytest.mark.parametrize("n", (3, 4))
    def test_larger_budgets_keep_the_maltsev_member_last(self, n):
        # a budget of index(p)+1 to index(p)+5 leaves room past p: the
        # clone still ends at p, as without a budget
        zn = cyclic_group(n)
        cut = generate_ternary_clone(zn, until_maltsev=True)
        k = len(cut.tables)
        assert cut.functions[-1] == find_maltsev_term(zn).terms[0]
        for budget in range(k, k + 5):
            clone = generate_ternary_clone(zn, budget, until_maltsev=True)
            assert np.array_equal(clone.tables, cut.tables)
            assert not clone.complete

    def test_z6_clone_stops_at_its_maltsev_term(self):
        z6 = cyclic_group(6)
        full = generate_ternary_clone(z6)
        cut = generate_ternary_clone(z6, until_maltsev=True)
        k = len(cut.functions)
        assert full.complete and not cut.complete
        assert 3 < k < len(full.functions)
        assert cut.functions == full.functions[:k]
        assert cut.functions[-1] == _maltsev_term(full).terms[0]
        assert np.array_equal(cut.tables, full.tables[:k])
        assert cut.tables.dtype == np.uint8 and not cut.tables.flags.writeable
