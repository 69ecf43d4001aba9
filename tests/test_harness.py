"""Bundled corpus and cross-validation suite."""

import json
import pathlib
import re

import pytest

from relshift import checks, harness
from relshift.algebras import algebra_from_json, algebra_to_json, all_congruences, as_paired_object
from relshift.checks import (
    BudgetError,
    RelationClass,
    enumerate_class_relations,
    enumerate_compatible_relations,
    shifting_lemma,
)
from relshift.harness import (
    SCHEMA,
    ConsistencyError,
    _check_consistency,
    _box_join,
    bundled_corpus,
    run_suite,
)
from relshift.relations import Relation, Carrier

GOLDEN = pathlib.Path(__file__).parent / "golden" / "bundled_seed7.json"
# the same run with RELSHIFT_BUDGET=300: some enumerations are refused
GOLDEN_BUDGET_300 = GOLDEN.with_name("bundled_seed7_budget300.json")
# Z5-Z8 and S3, whose reflexive and arbitrary classes the default budget
# refuses, so that every quantified check of the suite is searched
SEARCHED = pathlib.Path(__file__).parent / "corpus" / "searched"
GOLDEN_SEARCHED = GOLDEN.with_name("searched_seed7.json")


class TestBundledCorpus:
    def test_members(self):
        corpus = bundled_corpus()
        assert set(corpus) == {
            "z2",
            "z3",
            "z4",
            "semilattice2",
            "implication2",
            "set2",
            "n5_unary",
        }

    def test_packaged_json_matches_builders(self):
        # the packaged tables against the defining formulas, entry by entry
        corpus = bundled_corpus()
        for n in (2, 3, 4):
            z = corpus[f"z{n}"]
            assert z.size == n
            assert z.sig.ops == (("add", 2), ("neg", 1), ("zero", 0))
            assert z.tables["add"] == tuple((i + j) % n for i in range(n) for j in range(n))
            assert z.tables["neg"] == tuple((-i) % n for i in range(n))
            assert z.tables["zero"] == (0,)
        pairs = [(i, j) for i in range(2) for j in range(2)]
        assert corpus["semilattice2"].tables == {"meet": tuple(min(i, j) for i, j in pairs)}
        assert corpus["implication2"].tables == {"imp": tuple(int(not i or j) for i, j in pairs)}
        assert corpus["set2"].size == 2 and corpus["set2"].tables == {}
        n5 = corpus["n5_unary"]
        assert n5.size == 4
        # f collapses the low bit, g flips the high bit
        assert n5.tables == {
            "f": tuple(x & 2 for x in range(4)),
            "g": tuple(x ^ 2 for x in range(4)),
        }
        for name, a in corpus.items():
            assert a.name == name

    def test_round_trip_via_json(self):
        for a in bundled_corpus().values():
            b = algebra_from_json(algebra_to_json(a))
            assert b.tables == a.tables


class TestEnumeration:
    def test_z2_reflexive_members(self):
        z2 = bundled_corpus()["z2"]
        rels = enumerate_class_relations(z2, RelationClass.REFLEXIVE)
        pair_lists = [r.pairs() for r in rels]
        assert sorted(pair_lists) == pair_lists
        assert pair_lists == [
            [(0, 0), (0, 1), (1, 0), (1, 1)],
            [(0, 0), (1, 1)],
        ]

    def test_equivalence_class_matches_all_congruences(self):
        z4 = bundled_corpus()["z4"]
        assert enumerate_class_relations(z4, RelationClass.EQUIVALENCE) == sorted(
            all_congruences(z4), key=lambda r: r.pairs()
        )

    def test_set2_has_four_reflexive(self):
        set2 = bundled_corpus()["set2"]
        assert len(enumerate_class_relations(set2, RelationClass.REFLEXIVE)) == 4


@pytest.fixture(scope="module")
def report():
    return run_suite(bundled_corpus(), seed=7)


class TestSuite:
    def test_budget_reaches_term_searches(self):
        z3 = bundled_corpus()["z3"]
        rec = run_suite({"z3": z3}, budget=4)["algebras"]["z3"]
        # the refused class is searched, and its 9 principal closures exceed 4
        assert rec["shifting_lemma"]["refl,refl,refl"] == {
            "verdict": "inconclusive", "reason": "search exhausted budget 4 closures after 0 tuples"
        }
        assert rec["terms"]["maltsev"]["status"] == "inconclusive"
        assert rec["terms"]["threeperm"]["status"] == "inconclusive"

    def test_schema_and_shape(self, report):
        assert report["schema"] == SCHEMA
        assert report["seed"] == 7
        assert set(report["algebras"]) == set(bundled_corpus())

    def test_z2_all_holds(self, report):
        rec = report["algebras"]["z2"]
        assert rec["terms"]["maltsev"]["status"] == "found"
        assert all(v["verdict"] == "holds" for v in rec["shifting_lemma"].values())
        assert rec["difunctional_all"]["verdict"] == "holds"
        assert rec["congruence_lattice_modular"] is True

    def test_semilattice_reflexive_violated_terms_absent(self, report):
        rec = report["algebras"]["semilattice2"]
        assert rec["terms"]["threeperm"]["status"] == "not_found"
        assert rec["shifting_lemma"]["refl,refl,refl"]["verdict"] == "violated"
        assert "maltsev" in rec["witnesses"]

    def test_implication_3perm_found_and_goursat_layout_holds(self, report):
        rec = report["algebras"]["implication2"]
        assert rec["terms"]["threeperm"]["status"] == "found"
        assert rec["shifting_lemma"]["reflpos,refl,reflpos"]["verdict"] == "holds"
        assert rec["goursat_identity_all"]["verdict"] == "holds"
        assert rec["box_join_replay"] is True

    def test_n5_violations_and_nonmodularity(self, report):
        rec = report["algebras"]["n5_unary"]
        assert rec["congruence_lattice_modular"] is False
        assert rec["shifting_lemma"]["eq,eq,eq"]["verdict"] == "violated"
        assert "goursat" in rec["witnesses"]

    def test_every_embedded_witness_replays(self, report):
        for name, rec in report["algebras"].items():
            a = bundled_corpus()[name]
            for combo, sl in rec.get("shifting_lemma", {}).items():
                if sl["verdict"] != "violated":
                    continue
                tri = sl["triple"]
                size = (
                    max(max(max(p) for p in pl) for pl in tri.values() if pl) + 1
                )
                c = Carrier(size)
                r = Relation.from_pairs(c, c, [tuple(p) for p in tri["R"]])
                s = Relation.from_pairs(c, c, [tuple(p) for p in tri["S"]])
                t = Relation.from_pairs(c, c, [tuple(p) for p in tri["T"]])
                replay = shifting_lemma(r, s, t)
                assert replay.verdict == "violated"
                assert list(replay.quadruple) == sl["quadruple"]

    def test_witness_records_replay(self, report):
        for rec in report["algebras"].values():
            for w in rec.get("witnesses", {}).values():
                if w["status"] == "violated":
                    assert w["replay_verdict"] == "violated"
                    assert w["quadruple_violates"] is True

    def test_join_formula_on_3perm_algebras(self, report):
        for name in ("z2", "z3", "z4", "implication2"):
            assert report["algebras"][name]["join_via_rsr_matches"] is True

    def test_matches_golden_report(self, report):
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert text == GOLDEN.read_text()

    def test_matches_golden_report_at_budget_300(self, monkeypatch):
        monkeypatch.setenv("RELSHIFT_BUDGET", "300")
        report = run_suite(bundled_corpus(), seed=7)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert text == GOLDEN_BUDGET_300.read_text()
        # z3 decides the reflexive classes (2^6 candidates) from their lists;
        # its arbitrary class (2^9) and every class of z4 and n5_unary (2^12
        # reflexive, 2^16 arbitrary candidates) are refused and searched
        # within 300 closures, to the verdicts of the default budget; a
        # searched violation names a generated triple, which its quadruple
        # violates
        default, got = (json.loads(t)["algebras"] for t in (GOLDEN.read_text(), text))
        corpus = bundled_corpus()
        for name in ("z3", "z4", "n5_unary"):
            for label, res in got[name]["shifting_lemma"].items():
                assert res["verdict"] == default[name]["shifting_lemma"][label]["verdict"]
                if res["verdict"] == "violated":
                    c = corpus[name].carrier
                    triple = (Relation.from_pairs(c, c, res["triple"][k]) for k in "RST")
                    assert shifting_lemma(*triple).quadruple == tuple(res["quadruple"])
            for check in ("difunctional_all", "goursat_identity_all"):
                assert got[name][check]["verdict"] == default[name][check]["verdict"]
            # the E facts are searched over the reflexive class too
            assert got[name]["ee_properties"] == default[name]["ee_properties"]

    def test_matches_golden_report_of_the_searched_corpus(self, monkeypatch):
        # as `relshift suite --corpus tests/corpus/searched --seed 7` writes it
        monkeypatch.delenv("RELSHIFT_BUDGET", raising=False)
        corpus = harness.load_corpus(SEARCHED)
        assert sorted(corpus) == ["s3", "z5", "z6", "z7", "z8"]
        for a in corpus.values():
            with pytest.raises(BudgetError):
                enumerate_class_relations(a, RelationClass.REFLEXIVE)
        report = run_suite(corpus, seed=7, corpus_id="tests/corpus/searched")
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert text == GOLDEN_SEARCHED.read_text()

    def test_determinism(self, report):
        again = run_suite(bundled_corpus(), seed=7)
        assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_record_builds_clone_once_and_no_sweep(self, monkeypatch):
        clones, bases = [], []
        real_clone, real_sub = harness.generate_ternary_clone, checks._subalgebras

        def clone(a, *args, **kwargs):
            clones.append(a.name)
            return real_clone(a, *args, **kwargs)

        def sub(a, b, base, budget):
            bases.append(base.copy())
            return real_sub(a, b, base, budget)

        monkeypatch.setattr(harness, "generate_ternary_clone", clone)
        monkeypatch.setattr(checks, "_subalgebras", sub)
        z3 = bundled_corpus()["z3"]
        record = run_suite({"z3": z3})["algebras"]["z3"]
        assert "error" not in record
        assert record["ee_properties"]["reflexive_positive_all_equivalence"] is True
        assert clones == ["z3"]
        # the reflexive positive relations are never built: the
        # reflpos,refl,reflpos check and the sweep read them off the one
        # reflexive (diagonal base) enumeration; the other is the arbitrary one
        assert [b.sum() for b in bases] == [3, 0] and bases[0].diagonal().all()

    def test_ee_properties_replays_only_counterexamples(self, monkeypatch):
        calls = []
        real = harness.ee_properties

        def counted(a, e):
            calls.append((a.name, e.pairs()))
            return real(a, e)

        monkeypatch.setattr(harness, "ee_properties", counted)
        corpus = bundled_corpus()
        recs = run_suite({n: corpus[n] for n in ("n5_unary", "z4")})["algebras"]
        # z4 has no counterexample; n5_unary one per E fact, the commuting
        # one also the Goursat seed
        goursat = recs["n5_unary"]["witnesses"]["goursat"]["E"]
        assert len(calls) == 2 and ("n5_unary", [tuple(p) for p in goursat]) in calls
        assert "error" not in recs["z4"]

    def test_a_counterexample_that_does_not_replay_is_inconsistent(self, monkeypatch):
        monkeypatch.setattr(harness, "ee_properties", lambda a, e: dict.fromkeys(
            ("ee_op_is_equivalence", "ee_op_equals_op_ee"), True
        ))
        with pytest.raises(ConsistencyError, match=r"^n5_unary: ee_op_is_equivalence holds of"):
            run_suite({"n5_unary": bundled_corpus()["n5_unary"]})

    def test_one_compatibility_recheck_per_list_and_one_box_join_per_s(self, monkeypatch):
        # the kept relations of each enumeration are re-checked in one
        # stacked call, and the box/W replay of a 3-permutable record runs
        # its kernel once per reflexive S, on every pair of congruences
        compat, boxes = [], []
        real_compat, real_box = checks._is_compatible_between, harness._box_join

        def counted_compat(a, b, stack):
            compat.append(len(stack))
            return real_compat(a, b, stack)

        def counted_box(p, rs, ts):
            boxes.append((len(rs), len(ts)))
            return real_box(p, rs, ts)

        monkeypatch.setattr(checks, "_is_compatible_between", counted_compat)
        monkeypatch.setattr(harness, "_box_join", counted_box)
        corpus = bundled_corpus()
        report = run_suite(corpus, seed=7)
        assert json.loads(GOLDEN.read_text())["algebras"] == json.loads(json.dumps(report))["algebras"]
        # the reflexive and the arbitrary list of each of the 7 algebras
        assert len(compat) == 14
        monkeypatch.undo()
        want = []
        for name, rec in report["algebras"].items():
            if rec["terms"]["threeperm"]["status"] == "found":
                k = len(all_congruences(corpus[name]))
                want += [(k, k)] * len(enumerate_class_relations(corpus[name], RelationClass.REFLEXIVE))
        assert sorted(boxes) == sorted(want) and len(want) == 9

    def test_record_builds_each_class_once(self, builds):
        z3 = bundled_corpus()["z3"]
        record = run_suite({"z3": z3})["algebras"]["z3"]
        assert "error" not in record
        # REFLEXIVE and ARBITRARY once each, the congruences once
        assert builds == {"_subalgebras": 2, "all_congruences": 1}
        # nothing outlives the record: a second suite run builds them again
        run_suite({"z3": z3})
        assert builds == {"_subalgebras": 4, "all_congruences": 2}
        assert checks._SHARED.get() is None

    def test_record_refuses_a_class_once(self, builds):
        z3 = bundled_corpus()["z3"]
        record = run_suite({"z3": z3}, budget=300)["algebras"]["z3"]
        assert builds == {"_subalgebras": 2, "all_congruences": 1}
        # the refused arbitrary class (2^9 candidates) is searched instead
        assert record["difunctional_all"] == {"verdict": "holds"}
        assert record["goursat_identity_all"] == {"verdict": "holds"}

    def test_shared_lists_are_fresh_lists_of_the_same_relations(self, builds):
        z3 = bundled_corpus()["z3"]
        with checks._shared_classes():
            first = enumerate_class_relations(z3, RelationClass.REFLEXIVE)
            second = enumerate_class_relations(z3, RelationClass.REFLEXIVE)
            errors = []
            for _ in range(2):
                with pytest.raises(BudgetError) as err:
                    enumerate_compatible_relations(z3, budget=300)
                errors.append(err.value)
            # another budget is another key
            assert enumerate_class_relations(z3, RelationClass.REFLEXIVE, 64) == first
        assert builds["_subalgebras"] == 3
        assert first == second and first is not second
        assert all(r is s for r, s in zip(first, second))
        assert errors[0] is not errors[1] and str(errors[0]) == str(errors[1])

    def test_standalone_calls_build_every_time(self, builds):
        z3 = bundled_corpus()["z3"]
        for cls in (RelationClass.REFLEXIVE, RelationClass.EQUIVALENCE):
            first = enumerate_class_relations(z3, cls)
            second = enumerate_class_relations(z3, cls)
            assert first == second and first is not second
        assert builds == {"_subalgebras": 2, "all_congruences": 2}

    def test_per_algebra_failure_recorded_not_fatal(self):
        corpus = dict(bundled_corpus())
        corpus["broken"] = "not an algebra"  # type: ignore[assignment]
        rep = run_suite({"z2": corpus["z2"], "broken": corpus["broken"]})
        assert "error" in rep["algebras"]["broken"]
        assert rep["algebras"]["z2"]["terms"]["maltsev"]["status"] == "found"


def consistent_record():
    """The golden record of z3: both term conditions found, every check holds."""
    return json.loads(GOLDEN.read_text())["algebras"]["z3"]


def set_path(rec, path, value):
    *keys, last = path
    for key in keys:
        rec = rec[key]
    rec[last] = value


VIOLATED = {"verdict": "violated"}


class TestConsistency:
    """Each term condition found, against each check it implies: one
    synthetic record per problem branch of ``_check_consistency``."""

    def test_golden_record_is_consistent(self):
        _check_consistency("z3", consistent_record())

    @pytest.mark.parametrize("path, value, problem", [
        (("shifting_lemma", "eq,eq,eq"), VIOLATED, "shifting_lemma[eq,eq,eq]"),
        (("shifting_lemma", "reflpos,refl,reflpos"), VIOLATED, "shifting_lemma[reflpos,refl,reflpos]"),
        (("goursat_identity_all",), VIOLATED, "goursat_identity_all"),
        (("ee_properties", "all_ee_op_equivalence"), False, "ee_properties"),
        (("ee_properties", "all_ee_op_equals_op_ee"), False, "ee_properties"),
        (("ee_properties", "reflexive_positive_all_equivalence"), False, "ee_properties"),
        (("shifting_lemma", "refl,refl,refl"), VIOLATED, "shifting_lemma[refl,refl,refl]"),
        (("difunctional_all",), VIOLATED, "difunctional_all"),
    ])
    def test_each_contradiction_is_named(self, path, value, problem):
        rec = consistent_record()
        set_path(rec, path, value)
        with pytest.raises(ConsistencyError, match=rf"^z3: .*\['{re.escape(problem)}'\]$"):
            _check_consistency("z3", rec)

    @pytest.mark.parametrize("path", [
        ("shifting_lemma", "refl,refl,refl"),
        ("difunctional_all",),
    ])
    def test_maltsev_checks_bind_only_a_maltsev_term(self, path):
        rec = consistent_record()
        rec["terms"]["maltsev"]["status"] = "not_found"
        set_path(rec, path, VIOLATED)
        _check_consistency("z3", rec)

    def test_inconclusive_ee_facts_and_absent_terms_bind_nothing(self):
        rec = consistent_record()
        for key in rec["ee_properties"]:
            rec["ee_properties"][key] = "inconclusive: search exhausted budget 300 closures after 0 tuples"
        _check_consistency("z3", rec)
        for key in ("maltsev", "threeperm"):
            rec["terms"][key]["status"] = "inconclusive"
        for label in rec["shifting_lemma"]:
            rec["shifting_lemma"][label] = VIOLATED
        rec["difunctional_all"] = rec["goursat_identity_all"] = VIOLATED
        _check_consistency("z3", rec)


class TestBoxJoinReplay:
    def test_on_group_congruence_triples(self):
        z4 = bundled_corpus()["z4"]
        cons = all_congruences(z4)
        for s in cons:
            p = as_paired_object(z4, s)
            for r in cons:
                for t in cons:
                    # stacks of one R and one T
                    assert _box_join(p, r.members[None], t.members[None])[0, 0]
