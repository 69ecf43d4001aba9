"""Command-line contract: JSON on stdout, stable exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import relshift
from relshift import algebras, cli, harness
from relshift.algebras import Algebra, Signature, algebra_to_json
from relshift.cli import main
from relshift.harness import bundled_corpus
from relshift.relations import Carrier, Relation, diagonal, relation_to_json


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def files(tmp_path):
    corpus = bundled_corpus()
    paths = {}
    for name in ("z2", "semilattice2", "implication2"):
        p = tmp_path / f"{name}.json"
        p.write_text(algebra_to_json(corpus[name]))
        paths[name] = str(p)
    order = Relation.from_pairs(
        corpus["semilattice2"].carrier,
        corpus["semilattice2"].carrier,
        [(0, 0), (1, 1), (0, 1)],
    )
    p = tmp_path / "order.json"
    p.write_text(relation_to_json(order))
    paths["order"] = str(p)
    diag = Relation.from_pairs(corpus["z2"].carrier, corpus["z2"].carrier, [(0, 0), (1, 1)])
    p = tmp_path / "diag.json"
    p.write_text(relation_to_json(diag))
    paths["diag"] = str(p)
    # the order of semilattice2, on z2's carrier: not compatible with z2
    p = tmp_path / "z2_order.json"
    p.write_text(relation_to_json(order))
    paths["z2_order"] = str(p)
    p = tmp_path / "diag3.json"
    p.write_text(relation_to_json(diagonal(Carrier(3))))
    paths["diag3"] = str(p)
    # a 3-element set with a reflexive E whose EE° and E°E differ
    p = tmp_path / "set3.json"
    p.write_text(algebra_to_json(Algebra("set3", Carrier(3), Signature(()), {})))
    paths["set3"] = str(p)
    fan = Relation.from_pairs(Carrier(3), Carrier(3), [(0, 0), (1, 1), (2, 2), (0, 1), (2, 1)])
    p = tmp_path / "fan.json"
    p.write_text(relation_to_json(fan))
    paths["fan"] = str(p)
    # a relation from z2's carrier to a 3-element one
    p = tmp_path / "wide.json"
    p.write_text(relation_to_json(Relation.from_pairs(Carrier(2), Carrier(3), [(0, 0), (1, 2)])))
    paths["wide"] = str(p)
    return paths


# Relation files that are no compatible relation on z2, with the error
# each gets under the flag that reads it.
NOT_ON_Z2 = [
    ("diag3", "{}: relation is not on the carrier of z2 (size 2)"),
    ("wide", "{}: relation is not on the carrier of z2 (size 2)"),
    ("z2_order", "{}: relation is not compatible with z2"),
]


CORPUS = pathlib.Path(relshift.__file__).parent / "corpus"


def run(runner, args, env=None):
    result = runner.invoke(main, args, env=env)
    # stdout always carries exactly one JSON document
    doc = json.loads(result.stdout)
    return result.exit_code, doc


class TestCheck:
    def test_z2_shifting_lemma_reflexive_holds(self, runner, files):
        code, doc = run(
            runner,
            [
                "check",
                "--algebra",
                files["z2"],
                "--property",
                "shifting-lemma",
                "--classes",
                "refl,refl,refl",
            ],
        )
        assert code == 0
        assert doc["verdict"] == "holds"

    def test_semilattice_shifting_lemma_violated_with_quadruple(self, runner, files):
        code, doc = run(
            runner,
            [
                "check",
                "--algebra",
                files["semilattice2"],
                "--property",
                "shifting-lemma",
                "--classes",
                "refl,refl,refl",
            ],
        )
        assert code == 1
        assert doc["verdict"] == "violated"
        assert len(doc["quadruple"]) == 4
        assert set(doc["triple"]) == {"R", "S", "T"}

    def test_missing_file_is_usage_error(self, runner):
        code, doc = run(
            runner,
            ["check", "--algebra", "/no/such/file.json", "--property", "difunctional"],
        )
        assert code == 2
        assert "/no/such/file.json" in doc["error"]

    def test_modular_lattice(self, runner, files):
        code, doc = run(
            runner,
            ["check", "--algebra", files["z2"], "--property", "modular-lattice"],
        )
        assert code == 0 and doc["modular"] is True

    def test_positive_with_witness(self, runner, files):
        code, doc = run(
            runner,
            [
                "check",
                "--algebra",
                files["z2"],
                "--property",
                "positive",
                "--R",
                files["diag"],
            ],
        )
        assert code == 0
        assert doc["positive"] is True
        assert doc["witness"]["pairs"] == [[0, 0], [1, 1]]

    def test_permutability(self, runner, files):
        code, doc = run(
            runner,
            [
                "check",
                "--algebra",
                files["z2"],
                "--property",
                "permutability",
                "--R",
                files["diag"],
                "--S",
                files["diag"],
            ],
        )
        assert code == 0 and doc["level"] == "2-permute"

    def test_bad_classes_spec(self, runner, files):
        code, doc = run(
            runner,
            [
                "check",
                "--algebra",
                files["z2"],
                "--property",
                "shifting-lemma",
                "--classes",
                "refl,bogus,refl",
            ],
        )
        assert code == 2

    @pytest.mark.parametrize("algebra, triple, expected, doc", [
        # R4 = {0,2}{1,3}, S4 = {0,1}{2,3}, T4 = {0,2}{1}{3}
        ("n5_unary", ("r4", "s4", "t4"), 1, {"verdict": "violated", "quadruple": [0, 2, 1, 3]}),
        ("n5_unary", ("full4", "full4", "diag4"), 2, {"error": "R ^ S <= T fails"}),
        ("z4", ("diag4", "diag4", "diag4"), 0, {"verdict": "holds"}),
    ])
    def test_explicit_triple_verdicts(self, runner, tmp_path, algebra, triple, expected, doc):
        blocks = {
            "r4": [[0, 2], [1, 3]],
            "s4": [[0, 1], [2, 3]],
            "t4": [[0, 2], [1], [3]],
            "full4": [[0, 1, 2, 3]],
            "diag4": [[0], [1], [2], [3]],
        }
        args = ["check", "--algebra", str(CORPUS / f"{algebra}.json"), "--property", "shifting-lemma"]
        for flag, name in zip(("--R", "--S", "--T"), triple):
            pairs = [(x, y) for block in blocks[name] for x in block for y in block]
            p = tmp_path / f"{name}.json"
            p.write_text(relation_to_json(Relation.from_pairs(Carrier(4), Carrier(4), pairs)))
            args += [flag, str(p)]
        assert run(runner, args) == (expected, doc)

    @pytest.mark.parametrize("args, message", [
        (["--property", "shifting-lemma", "--classes", "refl,refl"], "three comma-separated"),
        (["--property", "positive"], "missing required option --R"),
    ])
    def test_incomplete_options(self, runner, files, args, message):
        code, doc = run(runner, ["check", "--algebra", files["z2"], *args])
        assert code == 2
        assert message in doc["error"]

    @pytest.mark.parametrize("name", ["true", "null", "1"])
    def test_algebra_name_must_be_a_string(self, runner, tmp_path, name):
        p = tmp_path / "a.json"
        p.write_text(f'{{"name": {name}, "size": 2, "operations": []}}')
        code, doc = run(runner, ["check", "--algebra", str(p), "--property", "difunctional"])
        assert code == 2
        assert "algebra name is not a string" in doc["error"]

    @pytest.mark.parametrize("prop, flags", [
        ("shifting-lemma", ("--R", "--S", "--T")),
        ("permutability", ("--R", "--S")),
    ])
    @pytest.mark.parametrize("bad, message", [
        ("diag3", "not on the carrier"),
        ("z2_order", "not compatible"),
    ])
    def test_explicit_relations_checked_against_algebra(self, runner, files, prop, flags, bad, message):
        args = ["check", "--algebra", files["z2"], "--property", prop]
        for flag in flags:
            args += [flag, files[bad]]
        code, doc = run(runner, args)
        assert code == 2
        assert message in doc["error"]

    @pytest.mark.parametrize("bad, message", NOT_ON_Z2)
    def test_ee_relation_errors_name_the_flag(self, runner, files, bad, message):
        args = ["check", "--algebra", files["z2"], "--property", "ee", "--R", files[bad]]
        assert run(runner, args) == (2, {"error": message.format("--R")})

    @pytest.mark.parametrize("algebra, relation, env, expected", [
        ("z2", "diag", None, 0),
        ("semilattice2", "order", None, 0),
        ("set3", "fan", None, 1),
        # the reflexive-positive sweep exceeds the budget: inconclusive when
        # both facts on E hold, violated when one fails
        ("z2", "diag", {"RELSHIFT_BUDGET": "1"}, 3),
        ("set3", "fan", {"RELSHIFT_BUDGET": "1"}, 1),
    ])
    def test_ee_exit_codes(self, runner, files, algebra, relation, env, expected):
        code, doc = run(
            runner,
            ["check", "--algebra", files[algebra], "--property", "ee", "--R", files[relation]],
            env=env,
        )
        assert code == expected
        if expected == 3:
            assert doc["ee_op_is_equivalence"] and doc["ee_op_equals_op_ee"]
            assert doc["reflexive_positive_all_equivalence"].startswith("inconclusive")


class TestBudgetInput:
    @pytest.mark.parametrize("value", ["abc", "-1", "0"])
    def test_malformed_env_budget_is_usage_error(self, runner, files, value):
        code, doc = run(
            runner,
            ["check", "--algebra", files["z2"], "--property", "shifting-lemma", "--classes", "refl,refl,refl"],
            env={"RELSHIFT_BUDGET": value},
        )
        assert code == 2
        assert "RELSHIFT_BUDGET" in doc["error"]

    def test_malformed_env_budget_stops_terms(self, runner, files):
        code, doc = run(
            runner,
            ["terms", "maltsev", "--algebra", files["z2"]],
            env={"RELSHIFT_BUDGET": "abc"},
        )
        assert code == 2
        assert "RELSHIFT_BUDGET" in doc["error"]

    def test_budget_below_projections_is_usage_error(self, runner, files):
        code, doc = run(runner, ["terms", "maltsev", "--algebra", files["z2"], "--budget", "1"])
        assert code == 2
        assert "budget" in doc["error"]

    def test_env_budget_applies(self, runner, files):
        code, doc = run(
            runner,
            ["check", "--algebra", files["z2"], "--property", "difunctional"],
            env={"RELSHIFT_BUDGET": "6"},
        )
        assert code == 3
        assert doc["reason"] == "search exhausted budget 6 closures after 8 tuples"


class TestWitness:
    @pytest.mark.parametrize("args", [
        ["witness", "maltsev", "--algebra", "semilattice2", "--relation", "order"],
        ["witness", "goursat", "--algebra", "semilattice2", "--relation", "order"],
        ["check", "--algebra", "semilattice2", "--property", "ee", "--R", "order"],
    ])
    def test_the_relation_is_checked_for_compatibility_once(self, runner, files, monkeypatch, args):
        # the flag's check is stored on the relation, and the precondition
        # of the construction or of ee_properties reads it
        calls = []
        real = algebras._is_compatible_between

        def counted(a, b, stack):
            calls.append(len(stack))
            return real(a, b, stack)

        monkeypatch.setattr(algebras, "_is_compatible_between", counted)
        code, _ = run(runner, [files.get(x, x) for x in args])
        assert code in (0, 1) and calls == [1]

    def test_maltsev_on_semilattice_order(self, runner, files):
        code, doc = run(
            runner,
            [
                "witness",
                "maltsev",
                "--algebra",
                files["semilattice2"],
                "--relation",
                files["order"],
            ],
        )
        assert code == 0
        assert doc["kind"] == "maltsev"
        assert len(doc["quadruple"]) == 4

    def test_maltsev_on_symmetric_relation(self, runner, files):
        code, doc = run(
            runner,
            [
                "witness",
                "maltsev",
                "--algebra",
                files["z2"],
                "--relation",
                files["diag"],
            ],
        )
        assert code == 1
        assert doc["witness"] is None

    @pytest.mark.parametrize("kind", ["maltsev", "goursat"])
    @pytest.mark.parametrize("bad, message", NOT_ON_Z2)
    def test_relation_errors_name_the_flag(self, runner, files, kind, bad, message):
        args = ["witness", kind, "--algebra", files["z2"], "--relation", files[bad]]
        assert run(runner, args) == (2, {"error": message.format("--relation")})

    def test_goursat_on_equivalence(self, runner, files):
        code, doc = run(
            runner,
            [
                "witness",
                "goursat",
                "--algebra",
                files["z2"],
                "--relation",
                files["diag"],
            ],
        )
        assert code == 1


class TestTerms:
    def test_threeperm_on_implication(self, runner, files):
        code, doc = run(
            runner,
            ["terms", "threeperm", "--algebra", files["implication2"]],
        )
        assert code == 0
        assert doc["identity_set"] == "threeperm"
        assert len(doc["r"]["table"]) == 8
        assert doc["s"]["term"].startswith("(")

    def test_maltsev_not_found_on_semilattice(self, runner, files):
        code, doc = run(
            runner,
            ["terms", "maltsev", "--algebra", files["semilattice2"]],
        )
        assert code == 1
        assert doc["status"] == "not_found"

    def test_maltsev_found_document(self, runner):
        code, doc = run(runner, ["terms", "maltsev", "--algebra", str(CORPUS / "z3.json")])
        assert code == 0
        assert doc == {
            "identity_set": "maltsev",
            "p": {
                "table": [(x - y + z) % 3 for x in range(3) for y in range(3) for z in range(3)],
                "term": "(add (add x y) (add y z))",
            },
        }

    @pytest.mark.parametrize("name, budget, expected, status", [
        ("z3", 20, 3, "inconclusive"),  # member 21 is the Mal'tsev term
        ("z3", 21, 0, None),
        ("implication2", 37, 3, "inconclusive"),
        ("implication2", 38, 1, "not_found"),  # the clone closes at exactly 38
    ])
    def test_budget_at_the_clone_edges(self, runner, name, budget, expected, status):
        args = ["terms", "maltsev", "--algebra", str(CORPUS / f"{name}.json"), "--budget", str(budget)]
        code, doc = run(runner, args)
        assert code == expected
        assert doc.get("status") == status

    @pytest.mark.parametrize("kind, name, budget, expected, status", [
        ("threeperm", "semilattice2", None, 1, "not_found"),
        ("threeperm", "z3", 3, 3, "inconclusive"),
        ("maltsev", "semilattice2", None, 1, "not_found"),
        ("maltsev", "z3", 20, 3, "inconclusive"),
    ])
    def test_unfound_documents_name_the_search(self, runner, kind, name, budget, expected, status):
        # the identity set is the search's kind, found or not
        args = ["terms", kind, "--algebra", str(CORPUS / f"{name}.json")]
        code, doc = run(runner, args + (["--budget", str(budget)] if budget else []))
        assert code == expected
        assert doc == {"identity_set": kind, "status": status}

    def test_tiny_budget_inconclusive(self, runner, files):
        code, doc = run(
            runner,
            ["terms", "maltsev", "--algebra", files["z2"], "--budget", "3"],
        )
        assert code == 3
        assert doc["status"] == "inconclusive"


class TestSuiteCommand:
    def test_directory_corpus_deterministic(self, runner, files, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for name in ("z2", "semilattice2"):
            (corpus_dir / f"{name}.json").write_text(
                algebra_to_json(bundled_corpus()[name])
            )
        for out in (out1, out2):
            code, doc = run(
                runner,
                ["suite", "--corpus", str(corpus_dir), "--out", str(out), "--seed", "7"],
            )
            assert code == 0
        assert out1.read_text() == out2.read_text()
        report = json.loads(out1.read_text())
        assert report["schema"] == "relshift-report/1"
        assert set(report["algebras"]) == {"z2", "semilattice2"}

    @pytest.mark.parametrize("subdir, message", [
        ("nowhere", "no such corpus directory: {}"),
        ("empty", "no algebra files in {}"),
    ])
    def test_missing_or_empty_corpus_directory_exits_2(self, runner, tmp_path, subdir, message):
        (tmp_path / "empty").mkdir()
        corpus, out = tmp_path / subdir, tmp_path / "r.json"
        code, doc = run(runner, ["suite", "--corpus", str(corpus), "--out", str(out)])
        assert (code, doc) == (2, {"error": message.format(corpus)})
        assert not out.exists()

    def test_unwritable_report_path_exits_2_without_a_traceback(self, runner, tmp_path):
        out = tmp_path / "missing" / "r.json"
        result = runner.invoke(main, ["suite", "--out", str(out)])
        assert result.exit_code == 2
        assert json.loads(result.stdout) == {
            "error": f"cannot write report to {out}: No such file or directory"
        }
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("where, message", [
        ("missing/r.json", "No such file or directory"),
        ("file/r.json", "Not a directory"),
        ("file/missing/r.json", "Not a directory"),
        ("", "Is a directory"),
    ])
    def test_unwritable_report_path_is_refused_before_the_run(
        self, runner, tmp_path, monkeypatch, where, message
    ):
        (tmp_path / "file").write_text("kept")
        calls = []
        monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / where
        code, doc = run(runner, ["suite", "--out", str(out)])
        assert (code, doc) == (2, {"error": f"cannot write report to {out}: {message}"})
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert (tmp_path / "file").read_text() == "kept"

    def test_duplicate_algebra_name_exits_2(self, runner, tmp_path):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        bundled = bundled_corpus()
        (corpus_dir / "z2.json").write_text(algebra_to_json(bundled["z2"]))
        z3 = bundled["z3"]
        renamed = Algebra("z2", z3.carrier, z3.sig, z3.tables)
        (corpus_dir / "z3.json").write_text(algebra_to_json(renamed))
        out = tmp_path / "r.json"
        code, doc = run(runner, ["suite", "--corpus", str(corpus_dir), "--out", str(out)])
        assert code == 2
        assert "'z2'" in doc["error"]
        assert "z2.json" in doc["error"] and "z3.json" in doc["error"]
        assert not out.exists()

    def test_failed_record_exits_2(self, runner, tmp_path, monkeypatch):
        real = harness._algebra_record

        def record(a, budget):
            if a.name == "z3":
                raise RuntimeError("boom")
            return real(a, budget)

        monkeypatch.setattr(harness, "_algebra_record", record)
        out = tmp_path / "r.json"
        code, doc = run(runner, ["suite", "--out", str(out), "--seed", "7"])
        assert code == 2
        assert "z3" in doc["error"] and "z2" not in doc["error"]
        algebras = json.loads(out.read_text())["algebras"]
        assert algebras["z3"] == {"error": "RuntimeError: boom"}
        assert "error" not in algebras["z2"]


class TestValidate:
    def test_valid_algebra(self, runner, files):
        code, doc = run(runner, ["validate", "--file", files["z2"]])
        assert code == 0 and doc["kind"] == "algebra"

    def test_valid_relation(self, runner, files):
        code, doc = run(runner, ["validate", "--file", files["order"]])
        assert code == 0 and doc["kind"] == "relation"

    def test_invalid_file(self, runner, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"size": "nope"}')
        code, doc = run(runner, ["validate", "--file", str(p)])
        assert code == 2
        assert "error" in doc

    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_boolean_entries_are_usage_errors(self, runner, files, tmp_path, command):
        p = tmp_path / "bool.json"
        p.write_text('{"dom": true, "cod": 2, "pairs": [[true, 1]]}')
        args = {
            "validate": ["validate", "--file", str(p)],
            "check": ["check", "--algebra", files["z2"], "--property", "positive", "--R", str(p)],
        }[command]
        code, doc = run(runner, args)
        assert code == 2
        assert "error" in doc


class TestContract:
    """Inputs that reach no command handler still exit 2 with one error document."""

    @pytest.mark.parametrize("args", [
        ["check", "--property", "difunctional"],
        ["check", "--algebra", "{z2}", "--property", "nope"],
        ["terms", "maltsev", "--algebra", "{z2}", "--budget", "x"],
        ["suite", "--out", "r.json", "--seed", "x"],
        ["frobnicate"],
    ])
    def test_click_usage_errors(self, runner, files, args):
        code, doc = run(runner, [a.format(**files) for a in args])
        assert code == 2
        assert set(doc) == {"error"}

    def test_help_is_text(self, runner):
        result = runner.invoke(main, ["check", "--help"])
        assert result.exit_code == 0
        assert "--property" in result.stdout

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b'{"name": "a", "size": 2, "operations": 5}',
    ])
    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_unreadable_algebra_file(self, runner, tmp_path, command, content):
        p = tmp_path / "a.json"
        p.write_bytes(content)
        args = {
            "validate": ["validate", "--file", str(p)],
            "check": ["check", "--algebra", str(p), "--property", "difunctional"],
        }[command]
        code, doc = run(runner, args)
        assert code == 2
        assert set(doc) == {"error"}

    def test_closed_stdout_exits_2(self, files):
        # a reader that closes the pipe before the document is written
        src = str(pathlib.Path(relshift.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "relshift.cli", "validate", "--file", files["z2"]],
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr

    def test_unexpected_exception(self, runner, files, monkeypatch):
        def boom(a):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "congruence_lattice_is_modular", boom)
        args = ["check", "--algebra", files["z2"], "--property", "modular-lattice"]
        code, doc = run(runner, args)
        assert code == 2
        assert doc == {"error": "RuntimeError: boom"}

    def test_consistency_error_from_suite(self, runner, tmp_path, monkeypatch):
        def record(a, budget):
            raise harness.ConsistencyError(f"{a.name}: contradicted")

        monkeypatch.setattr(harness, "_algebra_record", record)
        code, doc = run(runner, ["suite", "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert doc["error"].startswith("ConsistencyError: ")


# JSON values of every kind, with the schema's keys among the dictionary
# keys so that some documents get past the first checks; integers stay
# small, so a generated size never asks for a large matrix
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(["name", "size", "operations", "arity", "table", "dom", "cod", "pairs"])
        | st.text(max_size=4),
        children,
        max_size=5,
    ),
    max_leaves=20,
)
file_contents = st.binary(max_size=64) | json_values.map(lambda v: json.dumps(v).encode())


class TestFuzz:
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(content=file_contents)
    @pytest.mark.parametrize("command", ["validate", "positive"])
    def test_any_file_keeps_the_contract(self, runner, files, tmp_path, command, content):
        p = tmp_path / "fuzz.json"
        p.write_bytes(content)
        args = {
            "validate": ["validate", "--file", str(p)],
            "positive": [
                "check", "--algebra", files["z2"], "--property", "positive", "--R", str(p)
            ],
        }[command]
        code, doc = run(runner, args)
        assert code in (0, 1, 2, 3)
        assert (code == 2) == (set(doc) == {"error"})
