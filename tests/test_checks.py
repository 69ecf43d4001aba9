"""Shifting-Lemma decision procedures and characterization scans."""

import itertools
import json
import pathlib
import re
import time

import numpy as np
import pytest

from relshift import algebras, checks
from relshift.algebras import Algebra, Signature, all_congruences
from relshift.checks import (
    BudgetError,
    PreconditionError,
    RelationClass,
    _ee_sweeps,
    difunctional_all,
    ee_properties,
    enumerate_class_relations,
    enumerate_compatible_relations,
    goursat_identity_all,
    permutability,
    reflexive_positive_all_equivalence,
    shifting_lemma,
    shifting_lemma_forall,
)
from relshift.constructions import maltsev_sl_witness
from relshift.harness import SUITE_CLASS_COMBOS, bundled_corpus
from relshift.relations import (
    Carrier,
    Relation,
    ShapeError,
    diagonal,
    full,
    is_equivalence,
    leq,
    meet,
    union,
)
from relshift.terms import find_3perm_terms, find_maltsev_term

from test_algebras import binary_algebra, cyclic_group, semilattice2
from test_constructions import order2, reflexive_compatible_relations
from test_reference import assert_searched_shifting_lemma, assert_searched_sweep, searched

GOLDEN = pathlib.Path(__file__).parent / "golden" / "bundled_seed7.json"


def random_triple_with_precondition(rng, n):
    r = Relation(Carrier(n), Carrier(n), rng.random((n, n)) < 0.5)
    s = Relation(Carrier(n), Carrier(n), rng.random((n, n)) < 0.5)
    extra = Relation(Carrier(n), Carrier(n), rng.random((n, n)) < 0.3)
    t = union(meet(r, s), extra)
    return r, s, t


class TestShiftingLemma:
    def test_full_t_always_holds(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            r = Relation(Carrier(n), Carrier(n), rng.random((n, n)) < 0.5)
            s = Relation(Carrier(n), Carrier(n), rng.random((n, n)) < 0.5)
            assert shifting_lemma(r, s, full(Carrier(n))).holds

    def test_diagonal_s_always_holds(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            r = Relation(Carrier(n), Carrier(n), rng.random((n, n)) < 0.5)
            t = union(meet(r, diagonal(Carrier(n))), r)
            assert shifting_lemma(r, diagonal(Carrier(n)), t).holds

    def test_precondition_enforced(self):
        n = Carrier(2)
        r = full(n)
        s = full(n)
        t = diagonal(n)
        with pytest.raises(PreconditionError):
            shifting_lemma(r, s, t)

    def test_witness_replay(self):
        a = semilattice2()
        w = maltsev_sl_witness(a, order2(a))
        res = shifting_lemma(w.R, w.S, w.T)
        assert res.verdict == "violated"
        assert res.quadruple == w.quadruple

    def test_violation_is_lex_least(self):
        a = semilattice2()
        w = maltsev_sl_witness(a, order2(a))
        res = shifting_lemma(w.R, w.S, w.T)
        quads = []
        n = w.R.dom.size
        for q in itertools.product(range(n), repeat=4):
            x, y, u, v = q
            if (
                (x, y) in w.R
                and (x, y) in w.T
                and (x, u) in w.S
                and (y, v) in w.S
                and (u, v) in w.R
                and (u, v) not in w.T
            ):
                quads.append(q)
        assert res.quadruple == min(quads)

    def test_monotone_in_t_with_premises_fixed(self):
        # enlarging T repairs conclusions for the original premise set; the
        # premise quadruples themselves are kept fixed because a bigger T
        # also admits new premises
        rng = np.random.default_rng(33)
        for _ in range(200):
            r, s, t = random_triple_with_precondition(rng, 4)
            bigger = union(t, Relation(Carrier(4), Carrier(4), rng.random((4, 4)) < 0.2))
            premises = [
                (x, y, u, v)
                for x, y, u, v in itertools.product(range(4), repeat=4)
                if (x, y) in r and (x, y) in t
                and (x, u) in s and (y, v) in s and (u, v) in r
            ]
            before = {q for q in premises if (q[2], q[3]) not in t}
            after = {q for q in premises if (q[2], q[3]) not in bigger}
            assert after <= before

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            r, s, t = random_triple_with_precondition(rng, 4)
            perm = rng.permutation(4)
            def relabel(rel):
                m = np.zeros((4, 4), dtype=bool)
                for x, y in rel.pairs():
                    m[perm[x], perm[y]] = True
                return Relation(Carrier(4), Carrier(4), m)
            assert (
                shifting_lemma(r, s, t).holds
                == shifting_lemma(relabel(r), relabel(s), relabel(t)).holds
            )


def meet_case_implies_full(r, s, t):
    """Whether SL(R, S, R ^ T) holding implies SL(R, S, T) holding."""
    return not shifting_lemma(r, s, meet(r, t)).holds or shifting_lemma(r, s, t).holds


class TestShiftingPrincipleReduction:
    def test_full_t(self):
        rng = np.random.default_rng(35)
        r = Relation(Carrier(3), Carrier(3), rng.random((3, 3)) < 0.5)
        s = Relation(Carrier(3), Carrier(3), rng.random((3, 3)) < 0.5)
        assert meet_case_implies_full(r, s, full(Carrier(3)))

    def test_contract_enforced_by_shifting_lemma(self):
        n = Carrier(2)
        with pytest.raises(PreconditionError):
            shifting_lemma(full(n), full(n), diagonal(n))
        with pytest.raises(ShapeError):
            shifting_lemma(full(n), full(n), full(Carrier(3)))
        with pytest.raises(ShapeError):
            shifting_lemma(full(n), full(Carrier(3)), full(n))

    def test_never_falsified_on_random_triples(self):
        rng = np.random.default_rng(36)
        for _ in range(500):
            r, s, t = random_triple_with_precondition(rng, 4)
            assert meet_case_implies_full(r, s, t)

    def test_on_violating_witness(self):
        a = semilattice2()
        w = maltsev_sl_witness(a, order2(a))
        assert meet_case_implies_full(w.R, w.S, w.T)


class TestPermutability:
    def test_equal_relations_2_permute(self):
        z4 = cyclic_group(4)
        for r in all_congruences(z4):
            assert permutability(r, r)["level"] == "2-permute"

    def test_groups_2_permute(self):
        for n in (2, 3, 4, 6):
            zn = cyclic_group(n)
            for r, s in itertools.combinations(all_congruences(zn), 2):
                assert permutability(r, s)["level"] == "2-permute"

    def test_nonpermuting_fixture(self):
        # constant unary algebra found by brute force: two congruences that
        # 3-permute but do not 2-permute
        a = Algebra(
            "nonperm", Carrier(4), Signature((("f", 1),)), {"f": (0, 0, 0, 0)}
        )
        cons = all_congruences(a)
        r = Relation.from_pairs(
            a.carrier, a.carrier,
            [(x, y) for x in (0, 1, 2) for y in (0, 1, 2)] + [(3, 3)],
        )
        s = Relation.from_pairs(
            a.carrier, a.carrier,
            [(x, y) for x in (0, 1, 3) for y in (0, 1, 3)] + [(2, 2)],
        )
        assert r in cons and s in cons
        verdict = permutability(r, s)
        assert verdict["level"] in ("3-permute", "neither")
        assert verdict["RS"] != verdict["SR"]

    def test_requires_equivalences(self):
        a = semilattice2()
        with pytest.raises(PreconditionError):
            permutability(order2(a), diagonal(a.carrier))


class TestEnumeration:
    def test_z2_reflexive(self):
        z2 = cyclic_group(2)
        rels = enumerate_class_relations(z2, RelationClass.REFLEXIVE)
        # only the two congruences survive the compatibility filter
        assert rels == sorted(all_congruences(z2), key=lambda r: r.pairs())

    def test_equivalence_class_equals_all_congruences(self):
        for a in (cyclic_group(4), semilattice2()):
            assert enumerate_class_relations(a, RelationClass.EQUIVALENCE) == sorted(
                all_congruences(a), key=lambda r: r.pairs()
            )

    def test_empty_signature_all_reflexive(self):
        free2 = Algebra("set2", Carrier(2), Signature(()), {})
        rels = enumerate_class_relations(free2, RelationClass.REFLEXIVE)
        assert len(rels) == 4

    def test_matches_brute_force_reflexive_filter(self):
        a = semilattice2()
        assert set(enumerate_class_relations(a, RelationClass.REFLEXIVE)) == set(
            reflexive_compatible_relations(a)
        )

    def test_budget_refusal(self, monkeypatch):
        big = Algebra("set5", Carrier(5), Signature(()), {})
        with pytest.raises(BudgetError):
            enumerate_class_relations(big, RelationClass.REFLEXIVE, budget=16)
        # the default budget refuses Z16 before any closure runs
        monkeypatch.delenv("RELSHIFT_BUDGET", raising=False)
        z16 = cyclic_group(16)
        for cls, k in ((RelationClass.REFLEXIVE, 240), (RelationClass.ARBITRARY, 256)):
            t0 = time.perf_counter()
            with pytest.raises(BudgetError) as err:
                enumerate_class_relations(z16, cls)
            assert time.perf_counter() - t0 < 1.0
            assert str(err.value) == f"2^{k} candidate relations exceed budget 65536"

    def test_incompatible_result_raises(self, monkeypatch):
        # the final check of every kept relation is not an assert
        monkeypatch.setattr(
            checks, "_is_compatible_between", lambda a, b, stack: np.zeros(len(stack), dtype=bool)
        )
        with pytest.raises(RuntimeError, match="incompatible relation"):
            enumerate_compatible_relations(cyclic_group(2))

    def test_each_class_enumerated_once_per_forall(self, builds):
        refl, eq = RelationClass.REFLEXIVE, RelationClass.EQUIVALENCE
        shifting_lemma_forall(semilattice2(), refl, eq, refl)
        assert builds == {"_subalgebras": 1, "all_congruences": 1}
        # the reflexive positive relations are read off the one reflexive list
        reflpos = RelationClass.REFLEXIVE_POSITIVE
        shifting_lemma_forall(semilattice2(), reflpos, refl, reflpos)
        assert builds == {"_subalgebras": 2, "all_congruences": 1}

    def test_forall_in_an_open_scope_builds_nothing_new(self, builds):
        a = semilattice2()
        refl, eq = RelationClass.REFLEXIVE, RelationClass.EQUIVALENCE
        with checks._shared_classes():
            enumerate_class_relations(a, refl)
            enumerate_class_relations(a, eq)
            assert builds == {"_subalgebras": 1, "all_congruences": 1}
            for classes in ((refl, eq, refl), (RelationClass.REFLEXIVE_POSITIVE, refl, eq)):
                shifting_lemma_forall(a, *classes)
            assert builds == {"_subalgebras": 1, "all_congruences": 1}
            # the inner scopes left the outer one open
            assert checks._SHARED.get()
        assert checks._SHARED.get() is None

    @pytest.mark.parametrize("a, b", [
        (cyclic_group(2), semilattice2()),
        (Algebra("set2", Carrier(2), Signature(()), {}), cyclic_group(2)),
    ])
    def test_different_signatures_are_refused(self, a, b):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ShapeError, match=f"{x.name} has signature .* but {y.name} has"):
                enumerate_compatible_relations(x, y)
            with pytest.raises(ShapeError):
                difunctional_all(x, y)

    @pytest.mark.parametrize("name, most, one_pair_search", [
        ("n5_unary", 89, 577),
        ("z4", 64, 166),
    ])
    def test_closures_per_arbitrary_enumeration(self, monkeypatch, name, most, one_pair_search):
        # closing each (relation, missing pair) took `one_pair_search` closures;
        # joins of distinct principal closures, each principal closed once,
        # take at most `most`: every matrix of the stacks closed, the start
        # matrix first, alone
        closed = []
        closer = checks._stack_closer

        def counting_closer(a, b):
            close = closer(a, b)

            def counting(stack):
                closed.append(len(stack))
                return close(stack)

            return counting

        monkeypatch.setattr(checks, "_stack_closer", counting_closer)
        enumerate_compatible_relations(bundled_corpus()[name])
        assert sum(closed) <= most < one_pair_search

    def test_arbitrary_includes_empty(self):
        free2 = Algebra("set2", Carrier(2), Signature(()), {})
        rels = enumerate_compatible_relations(free2)
        assert len(rels) == 16

    def test_class_parse(self):
        assert RelationClass.parse("refl") is RelationClass.REFLEXIVE
        assert RelationClass.parse("ReflPos") is RelationClass.REFLEXIVE_POSITIVE
        with pytest.raises(ValueError):
            RelationClass.parse("bogus")


class TestShiftingLemmaForall:
    def test_z2_equivalences_hold(self):
        z2 = cyclic_group(2)
        res = shifting_lemma_forall(
            z2, *(RelationClass.EQUIVALENCE,) * 3
        )
        assert res.holds

    def test_z2_reflexive_holds(self):
        z2 = cyclic_group(2)
        res = shifting_lemma_forall(z2, *(RelationClass.REFLEXIVE,) * 3)
        assert res.holds

    def test_semilattice_reflexive_violated(self):
        a = semilattice2()
        res = shifting_lemma_forall(a, *(RelationClass.REFLEXIVE,) * 3)
        assert res.verdict == "violated"
        assert res.triple is not None and res.quadruple is not None
        r, s, t = res.triple
        replay = shifting_lemma(r, s, t)
        assert replay.quadruple == res.quadruple

    @pytest.mark.parametrize("name", ["semilattice2", "n5_unary", "z4"])
    def test_never_calls_the_single_triple_check(self, monkeypatch, name):
        # the violating triple and its quadruple come straight off the kernel
        a = bundled_corpus()[name]
        want = shifting_lemma_forall(a, *(RelationClass.REFLEXIVE,) * 3)

        def spy(r, s, t):
            raise AssertionError("shifting_lemma called")

        monkeypatch.setattr(checks, "shifting_lemma", spy)
        got = shifting_lemma_forall(a, *(RelationClass.REFLEXIVE,) * 3)
        assert (got, got.triple) == (want, want.triple)

    def test_budget_gives_inconclusive(self):
        # the refused class is searched; its 25 principal closures exceed 16
        big = Algebra("set5", Carrier(5), Signature(()), {})
        res = shifting_lemma_forall(big, *(RelationClass.REFLEXIVE,) * 3, budget=16)
        assert res.verdict == "inconclusive"
        assert res.reason == "search exhausted budget 16 closures after 0 tuples"

    @pytest.mark.parametrize("classes", [
        "reflpos,refl,reflpos", "refl,reflpos,refl", "reflpos,reflpos,reflpos", "refl,refl,refl",
    ])
    def test_reflexive_positive_budget_reason(self, classes):
        # REFLEXIVE_POSITIVE is read off REFLEXIVE, refused by the same gate
        # on the diagonal base (5 * 4 free cells), so the check is searched,
        # and the 25 principal closures of its first class exceed the budget
        big = Algebra("set5", Carrier(5), Signature(()), {})
        layout = [RelationClass.parse(c) for c in classes.split(",")]
        res = shifting_lemma_forall(big, *layout, budget=16)
        assert (res.verdict, res.reason) == (
            "inconclusive", "search exhausted budget 16 closures after 0 tuples"
        )


class TestCharacterizationScans:
    def test_z2_difunctional_all(self):
        assert difunctional_all(cyclic_group(2)).holds

    def test_semilattice_not_difunctional_all(self):
        res = difunctional_all(semilattice2())
        assert res.verdict == "violated"

    def test_implication_goursat_identity(self):
        impl = Algebra(
            "implication2", Carrier(2), Signature((("imp", 2),)), {"imp": (1, 1, 0, 1)}
        )
        assert goursat_identity_all(impl).holds

    def test_budget_inconclusive(self):
        big = Algebra("set3", Carrier(3), Signature(()), {})
        # 2^9 candidates exceed 30, but the search finds the first
        # non-difunctional relation within 30 closures: the 9 principal
        # closures and the joins of the first block of tuples
        assert difunctional_all(big, budget=30) == difunctional_all(big)
        assert difunctional_all(big, budget=29).verdict == "inconclusive"
        res = difunctional_all(big, budget=9)
        assert (res.verdict, res.reason) == (
            "inconclusive", "search exhausted budget 9 closures after 0 tuples"
        )

    def test_ee_properties_diagonal(self):
        z2 = cyclic_group(2)
        rec = ee_properties(z2, diagonal(z2.carrier))
        assert rec["ee_op_is_equivalence"]
        assert rec["ee_op_equals_op_ee"]
        assert rec["reflexive_positive_all_equivalence"] is True

    def test_ee_properties_semilattice_order(self):
        a = semilattice2()
        rec = ee_properties(a, order2(a))
        # both symmetrizations are the full relation here
        assert rec["ee_op_is_equivalence"]
        assert rec["ee_op_equals_op_ee"]


class TestExplicitBudget:
    @pytest.mark.parametrize("budget", [0, -1, True, False, 2.5, 16.0, "16"])
    def test_not_a_positive_integer_is_refused(self, budget):
        match = "budget must be a positive integer"
        with pytest.raises(ValueError, match=match):
            checks.resolve_budget(budget, checks.DEFAULT_ENUM_BUDGET)
        for cls in RelationClass:  # congruences too, although they use no budget
            with pytest.raises(ValueError, match=match):
                enumerate_class_relations(cyclic_group(2), cls, budget)
            with pytest.raises(ValueError, match=match):
                shifting_lemma_forall(bundled_corpus()["n5_unary"], cls, cls, cls, budget=budget)
        with pytest.raises(ValueError, match=match):
            difunctional_all(cyclic_group(2), budget=budget)
        with pytest.raises(ValueError, match=match):
            find_maltsev_term(cyclic_group(2), budget)

    def test_positive_integer_is_used(self, monkeypatch):
        monkeypatch.setenv("RELSHIFT_BUDGET", "1")
        assert checks.resolve_budget(np.int64(16), 1) == 16
        assert type(checks.resolve_budget(np.int64(16), 1)) is int
        assert difunctional_all(cyclic_group(2), budget=16).holds
        # 2^4 candidates exceed 15; the search holds after 7 closures
        assert difunctional_all(cyclic_group(2), budget=15).holds
        assert difunctional_all(cyclic_group(2), budget=7).holds
        res = difunctional_all(cyclic_group(2), budget=6)
        assert (res.verdict, res.reason) == (
            "inconclusive", "search exhausted budget 6 closures after 8 tuples"
        )


class TestClassArguments:
    @pytest.mark.parametrize("cls", ["arbitrary", "eq", "bogus", None])
    def test_a_value_that_is_no_relation_class_is_refused(self, cls):
        # a string or None is not read as some class: "arbitrary" once gave
        # z4's 3 reflexive relations, and "eq" under budget 1 a search
        z4 = bundled_corpus()["z4"]
        message = re.escape(f"not a RelationClass: {cls!r}")
        with pytest.raises(ValueError, match=message):
            enumerate_class_relations(z4, cls)
        with pytest.raises(ValueError, match=message):
            shifting_lemma_forall(z4, cls, cls, cls, budget=1)
        # S's list is refused first, so T's class is checked before any search
        refl = RelationClass.REFLEXIVE
        with pytest.raises(ValueError, match=message):
            shifting_lemma_forall(z4, refl, refl, cls, budget=1)


def symmetric_group3():
    """S3 as (mul, inv, e): permutations of {0, 1, 2} in lexicographic
    order, (p q)(x) = p(q(x))."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(index[tuple(p[q[x]] for x in range(3))] for p in perms for q in perms)
    inv = tuple(index[tuple(p.index(x) for x in range(3))] for p in perms)
    return Algebra(
        "s3", Carrier(6), Signature((("mul", 2), ("inv", 1), ("e", 0))),
        {"mul": mul, "inv": inv, "e": (index[(0, 1, 2)],)},
    )


LAYOUTS = {label: tuple(map(RelationClass.parse, label.split(","))) for label in SUITE_CLASS_COMBOS}


class TestSearch:
    """A check whose class the 2^k gate refuses is decided over tuples from
    generated least members, within the same budget counted in closures;
    ``test_reference`` holds the oracle of its results."""

    @pytest.mark.parametrize("name", sorted(bundled_corpus()))
    def test_each_budget_gives_the_default_result_or_inconclusive(self, name, monkeypatch):
        monkeypatch.delenv("RELSHIFT_BUDGET", raising=False)
        a = bundled_corpus()[name]
        n = a.size
        quantified = {
            label: (lambda budget, c=classes: shifting_lemma_forall(a, *c, budget=budget),
                    n * n if RelationClass.ARBITRARY in classes else n * n - n)
            for label, classes in LAYOUTS.items()
        }
        quantified["difunctional_all"] = (lambda budget: difunctional_all(a, budget=budget), n * n)
        quantified["goursat_identity_all"] = (
            lambda budget: goursat_identity_all(a, budget=budget), n * n
        )
        searched_and_decided = 0
        for label, (check, k) in quantified.items():
            want = check(None)
            for budget in [2**i for i in range(k)] + [2**k - 1]:
                got = check(budget)
                if got.verdict == "inconclusive":
                    assert got.reason.startswith(f"search exhausted budget {budget} closures"), label
                elif budget < 2**k:
                    assert got.verdict == want.verdict, (label, budget)
                    if not searched_and_decided or got.verdict == "violated":
                        if label in LAYOUTS:
                            assert_searched_shifting_lemma(a, LAYOUTS[label], got)
                        else:
                            assert_searched_sweep(a, None, getattr(checks, label), got)
                    searched_and_decided += 1
                else:
                    assert (got, got.triple) == (want, want.triple), (label, budget)
        k = n * n - n
        want = reflexive_positive_all_equivalence(a)
        for budget in [2**i for i in range(k)] + [2**k - 1]:
            got = reflexive_positive_all_equivalence(a, budget)
            if got != want:
                assert got.startswith(f"inconclusive: search exhausted budget {budget} closures")
        assert searched_and_decided

    @pytest.mark.parametrize("make", [
        *(lambda n=n: cyclic_group(n) for n in (5, 6, 7, 8)), symmetric_group3,
    ], ids=["z5", "z6", "z7", "z8", "s3"])
    def test_reach_beyond_the_gate(self, make, monkeypatch):
        monkeypatch.delenv("RELSHIFT_BUDGET", raising=False)
        a = make()
        with pytest.raises(BudgetError):  # every class but the congruences is refused
            enumerate_class_relations(a, RelationClass.REFLEXIVE)
        for label, classes in LAYOUTS.items():
            assert shifting_lemma_forall(a, *classes).verdict == "holds", label
        assert difunctional_all(a).holds
        assert goursat_identity_all(a).holds
        assert reflexive_positive_all_equivalence(a) is True

    def test_searched_relations_are_checked_once_more(self, monkeypatch):
        monkeypatch.setattr(
            checks, "_is_compatible_between", lambda a, b, stack: np.zeros(len(stack), dtype=bool)
        )
        with pytest.raises(RuntimeError, match="incompatible relation"):
            difunctional_all(semilattice2(), budget=15)

    def test_search_between_sizes(self):
        # Z2 -> Z4 has 2^8 candidates: refused at budget 128 and searched
        corpus = bundled_corpus()
        z2, z4, sl2 = corpus["z2"], corpus["z4"], corpus["semilattice2"]
        for a, b in [(z2, z4), (z4, z2)]:
            for check in (difunctional_all, goursat_identity_all):
                assert_searched_sweep(a, b, check, check(a, b, budget=128))
        sl4 = Algebra("semilattice4", Carrier(4), sl2.sig, {"meet": tuple(
            min(x, y) for x in range(4) for y in range(4)
        )})
        verdicts = []
        for a, b in [(sl2, sl4), (sl4, sl2)]:
            for check in (difunctional_all, goursat_identity_all):
                got = check(a, b, budget=128)
                assert_searched_sweep(a, b, check, got)
                verdicts.append(got.verdict)
        assert verdicts == ["violated", "violated", "violated", "holds"]

    def test_read_cuts_a_list_in_stack_cell_blocks(self, monkeypatch):
        rels = enumerate_class_relations(bundled_corpus()["n5_unary"], RelationClass.REFLEXIVE)
        assert len(rels) == 36
        monkeypatch.setattr(algebras, "_STACK_CELLS", 160)
        got = list(checks._read(rels, 16))
        assert [len(block) for block, _ in got] == [10, 10, 10, 6]
        assert all(stack.tolist() == [r.members.tolist() for r in block] for block, stack in got)

    @pytest.mark.parametrize("sizes", [(2, 3, 4), (3, 2, 2, 3), (2, 3, 2, 2, 3)])
    def test_tuple_blocks_cover_every_tuple_in_order(self, sizes):
        # a block per value of all but the last three variables, at least one
        got, lead = [], max(1, len(sizes) - 3)
        for block in checks._tuple_blocks(sizes):
            assert [isinstance(v, int) for v in block] == [k < lead for k in range(len(sizes))]
            shape = np.broadcast_shapes(*(np.shape(v) for v in block))
            got += zip(*(np.broadcast_to(v, shape).ravel().tolist() for v in block))
        assert got == list(itertools.product(*map(range, sizes)))

    def test_refl_eq_refl_on_n5_unary_decides_within_43_closures(self, monkeypatch):
        # the 16 principal closures of each class and the joins of the
        # first block of quadruples; the least violating quadruple is
        # (0, 1, 0, 3), while the complete lists' first triple has (0, 2, 1, 3)
        monkeypatch.delenv("RELSHIFT_BUDGET", raising=False)
        a = bundled_corpus()["n5_unary"]
        classes = RelationClass.REFLEXIVE, RelationClass.EQUIVALENCE, RelationClass.REFLEXIVE
        got = shifting_lemma_forall(a, *classes, budget=43)
        assert got.quadruple == (0, 1, 0, 3)
        assert_searched_shifting_lemma(a, classes, got)
        assert shifting_lemma_forall(a, *classes).quadruple == (0, 2, 1, 3)
        assert shifting_lemma_forall(a, *classes, budget=42).reason == (
            "search exhausted budget 42 closures after 0 tuples"
        )

    @pytest.mark.parametrize("name", sorted(bundled_corpus()))
    def test_small_budgets_decide_as_the_default(self, name, monkeypatch):
        # every budget that decides a searched check, one below 2^k for the
        # k free cells of a class, gives one result, the default verdict
        # with generated relations the oracle accepts
        monkeypatch.delenv("RELSHIFT_BUDGET", raising=False)
        a = bundled_corpus()[name]
        n = a.size
        for label in (*SUITE_CLASS_COMBOS, "refl,any,refl"):
            classes = tuple(map(RelationClass.parse, label.split(",")))
            k = n * n if RelationClass.ARBITRARY in classes else n * n - n
            decided = set()
            for budget in range(1, min(61, 2**k)):
                got = shifting_lemma_forall(a, *classes, budget=budget)
                if got.verdict == "inconclusive":
                    assert got.reason.startswith(f"search exhausted budget {budget} closures")
                else:
                    decided.add((got, got.triple))
            assert len(decided) <= 1, label
            for got, _ in decided:
                assert_searched_shifting_lemma(a, classes, got)

    @pytest.mark.parametrize("name", sorted(bundled_corpus()))
    def test_small_budgets_decide_sweeps_as_the_default(self, name, monkeypatch):
        monkeypatch.delenv("RELSHIFT_BUDGET", raising=False)
        a = bundled_corpus()[name]
        budgets = range(1, min(81, 2 ** (a.size * a.size)))
        for check in (difunctional_all, goursat_identity_all):
            decided = {(r, r.triple) for r in (check(a, budget=b) for b in budgets)
                       if r.verdict != "inconclusive"}
            assert len(decided) <= 1
            for got, _ in decided:
                assert_searched_sweep(a, None, check, got)
        want = reflexive_positive_all_equivalence(a)
        for budget in range(1, 81):
            got = reflexive_positive_all_equivalence(a, budget)
            assert got == want or got.startswith(f"inconclusive: search exhausted budget {budget}")

    @pytest.mark.parametrize("name", sorted(bundled_corpus()))
    def test_searched_budgets_are_pinned(self, name, monkeypatch):
        # with every list but the congruences refused, each searched check
        # of a suite record is decided first at its pinned budget, with the
        # pinned result, and one closure below stops with the pinned reason
        monkeypatch.delenv("RELSHIFT_BUDGET", raising=False)
        want = json.loads(SEARCHED_BUDGETS.read_text())[name]
        got = searched_checks(bundled_corpus()[name])
        assert list(got) == list(want)
        for label, run in got.items():
            budget, result, below = (want[label][k] for k in ("budget", "result", "below"))
            assert searched(run, budget) == result, label
            if budget > 1:
                assert searched(run, budget - 1) == {"verdict": "inconclusive", "reason": below}
            else:
                assert below is None


# Recorded before the sweeps became declarations, by bisecting each
# check's budget (a search decided at some budget is decided with the
# same result at every larger one), and kept unchanged since.
SEARCHED_BUDGETS = GOLDEN.with_name("searched_budgets.json")


def as_json(res) -> dict:
    return json.loads(json.dumps(res.to_dict()))


def searched_checks(a: Algebra) -> dict:
    """The searched checks of ``a``'s suite record, by name, each a function
    of the budget giving its result as JSON; for
    ``reflexive_positive_all_equivalence``, that of the sweep under it."""

    def tolerances(budget):
        seen = []
        fact = checks._fact
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "_fact", lambda res: seen.append(res) or fact(res))
            reflexive_positive_all_equivalence(a, budget)
        return as_json(seen[0])

    runs = {
        label: lambda budget, c=classes: as_json(shifting_lemma_forall(a, *c, budget))
        for label, classes in LAYOUTS.items()
    }
    runs["difunctional_all"] = lambda budget: as_json(difunctional_all(a, budget=budget))
    runs["goursat_identity_all"] = lambda budget: as_json(goursat_identity_all(a, budget=budget))
    runs["reflexive_positive_all_equivalence"] = tolerances
    for key in ("ee_op_is_equivalence", "ee_op_equals_op_ee"):
        runs[key] = lambda budget, k=key: as_json(_ee_sweeps(a, budget)[k])
    return runs


class TestTermImplications:
    def test_maltsev_found_implies_forward_checks(self):
        for n in (2, 3):
            zn = cyclic_group(n)
            assert find_maltsev_term(zn).found
            assert difunctional_all(zn).holds
            for e in enumerate_class_relations(zn, RelationClass.REFLEXIVE):
                assert is_equivalence(e)
            assert shifting_lemma_forall(zn, *(RelationClass.REFLEXIVE,) * 3).holds

    def test_3perm_found_implies_forward_checks(self):
        impl = Algebra(
            "implication2", Carrier(2), Signature((("imp", 2),)), {"imp": (1, 1, 0, 1)}
        )
        assert find_3perm_terms(impl).found
        assert goursat_identity_all(impl).holds
        for e in enumerate_class_relations(impl, RelationClass.REFLEXIVE):
            rec = ee_properties(impl, e)
            assert rec["ee_op_is_equivalence"] and rec["ee_op_equals_op_ee"]
        for p in enumerate_class_relations(impl, RelationClass.REFLEXIVE_POSITIVE):
            assert is_equivalence(p)
        assert shifting_lemma_forall(
            impl,
            RelationClass.REFLEXIVE_POSITIVE,
            RelationClass.REFLEXIVE,
            RelationClass.REFLEXIVE_POSITIVE,
        ).holds
