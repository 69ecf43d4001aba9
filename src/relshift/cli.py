"""Command-line front door.

stdout always carries a single JSON document; human-readable notes go to
stderr.  Exit codes are a stable contract:

  0  property holds / object found / suite completed
  1  property violated / no witness / term not found
  2  usage or parse error / a suite record failed
  3  inconclusive (enumeration or clone budget exceeded)

RELSHIFT_BUDGET overrides the default clone/enumeration budgets; a value
that is not a positive integer is a usage error.
"""

from __future__ import annotations

import json
import pathlib
import sys

import click

from .algebras import (
    Algebra,
    AlgebraParseError,
    algebra_from_json,
    congruence_lattice_is_modular,
    is_compatible,
)
from .checks import (
    DEFAULT_ENUM_BUDGET,
    PreconditionError,
    RelationClass,
    SLResult,
    difunctional_all,
    ee_properties,
    goursat_identity_all,
    permutability,
    resolve_budget,
    shifting_lemma,
    shifting_lemma_forall,
)
from .constructions import NoWitnessError, goursat_sl_witness, maltsev_sl_witness, witness_to_json
from .harness import bundled_corpus, load_corpus, run_suite
from .relations import (
    Relation,
    RelationParseError,
    ShapeError,
    is_positive,
    positive_witness,
    relation_from_json,
)
from .terms import TermFunction, find_3perm_terms, find_maltsev_term

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

PROPERTIES = (
    "shifting-lemma",
    "difunctional",
    "goursat-identity",
    "permutability",
    "modular-lattice",
    "positive",
    "ee",
)


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(message, file=sys.stderr)
    print(json.dumps({"error": message}))
    sys.exit(EXIT_USAGE)


def _load_algebra(path: str) -> Algebra:
    p = pathlib.Path(path)
    if not p.is_file():
        _fail(f"no such file: {path}")
    try:
        return algebra_from_json(p.read_text())
    except AlgebraParseError as e:
        _fail(f"{path}: {e}")


def _load_relation(path: str | None, flag: str) -> Relation:
    if path is None:
        _fail(f"missing required option {flag}")
    p = pathlib.Path(path)
    if not p.is_file():
        _fail(f"no such file: {path}")
    try:
        return relation_from_json(p.read_text())
    except RelationParseError as e:
        _fail(f"{path}: {e}")


def _load_compatible(a: Algebra, path: str | None, flag: str) -> Relation:
    """A relation file that must hold a compatible relation on A's carrier."""
    r = _load_relation(path, flag)
    try:
        ok = is_compatible(a, r)
    except ShapeError:
        _fail(f"{flag}: relation is not on the carrier of {a.name} (size {a.size})")
    if not ok:
        _fail(f"{flag}: relation is not compatible with {a.name}")
    return r


def _emit_sl(result: SLResult) -> int:
    print(json.dumps(result.to_dict()))
    if result.verdict == "holds":
        return EXIT_HOLDS
    if result.verdict == "violated":
        return EXIT_VIOLATED
    return EXIT_INCONCLUSIVE


@click.group()
def main() -> None:
    """Shifting-Lemma workbench for finite algebras."""
    try:
        resolve_budget(None, DEFAULT_ENUM_BUDGET)
    except ValueError as e:
        _fail(str(e))


@main.command()
@click.option("--algebra", "algebra_path", required=True)
@click.option("--property", "prop", required=True, type=click.Choice(PROPERTIES))
@click.option("--R", "r_path", default=None)
@click.option("--S", "s_path", default=None)
@click.option("--T", "t_path", default=None)
@click.option("--classes", "classes", default=None, help="e.g. refl,refl,refl")
def check(algebra_path, prop, r_path, s_path, t_path, classes) -> None:
    """Decide a property of an algebra (or of explicit relations on it)."""
    a = _load_algebra(algebra_path)
    try:
        if prop == "shifting-lemma":
            if classes is not None:
                parts = classes.split(",")
                if len(parts) != 3:
                    _fail("--classes needs three comma-separated class names")
                try:
                    cr, cs, ct = (RelationClass.parse(p) for p in parts)
                except ValueError as e:
                    _fail(str(e))
                sys.exit(_emit_sl(shifting_lemma_forall(a, cr, cs, ct)))
            r = _load_compatible(a, r_path, "--R")
            s = _load_compatible(a, s_path, "--S")
            t = _load_compatible(a, t_path, "--T")
            sys.exit(_emit_sl(shifting_lemma(r, s, t)))
        elif prop == "difunctional":
            sys.exit(_emit_sl(difunctional_all(a)))
        elif prop == "goursat-identity":
            sys.exit(_emit_sl(goursat_identity_all(a)))
        elif prop == "permutability":
            r = _load_compatible(a, r_path, "--R")
            s = _load_compatible(a, s_path, "--S")
            verdict = permutability(r, s)
            doc = {
                "level": verdict["level"],
                "RS": verdict["RS"].pairs(),
                "SR": verdict["SR"].pairs(),
                "RSR": verdict["RSR"].pairs(),
                "SRS": verdict["SRS"].pairs(),
            }
            print(json.dumps(doc))
            sys.exit(EXIT_HOLDS if verdict["level"] != "neither" else EXIT_VIOLATED)
        elif prop == "modular-lattice":
            ok = congruence_lattice_is_modular(a)
            print(json.dumps({"modular": ok}))
            sys.exit(EXIT_HOLDS if ok else EXIT_VIOLATED)
        elif prop == "positive":
            r = _load_relation(r_path, "--R")
            ok = is_positive(r)
            w = positive_witness(r)
            doc = {"positive": ok}
            if w is not None:
                doc["witness"] = {"dom": w.dom.size, "cod": w.cod.size, "pairs": w.pairs()}
            print(json.dumps(doc))
            sys.exit(EXIT_HOLDS if ok else EXIT_VIOLATED)
        elif prop == "ee":
            r = _load_relation(r_path, "--R")
            record = ee_properties(a, r)
            print(json.dumps(record))
            # the sweep reads True, False or "inconclusive: …"
            sweep = record["reflexive_positive_all_equivalence"]
            if not (record["ee_op_is_equivalence"] and record["ee_op_equals_op_ee"]) or sweep is False:
                sys.exit(EXIT_VIOLATED)
            sys.exit(EXIT_HOLDS if sweep is True else EXIT_INCONCLUSIVE)
    except (ShapeError, PreconditionError) as e:
        _fail(str(e))


@main.command()
@click.argument("kind", type=click.Choice(["maltsev", "goursat"]))
@click.option("--algebra", "algebra_path", required=True)
@click.option("--relation", "relation_path", required=True)
def witness(kind, algebra_path, relation_path) -> None:
    """Construct a Shifting-Lemma violation from a seed relation."""
    a = _load_algebra(algebra_path)
    e = _load_relation(relation_path, "--relation")
    builder = maltsev_sl_witness if kind == "maltsev" else goursat_sl_witness
    try:
        w = builder(a, e)
    except NoWitnessError as err:
        print(str(err), file=sys.stderr)
        print(json.dumps({"witness": None, "reason": str(err)}))
        sys.exit(EXIT_VIOLATED)
    except (ValueError, ShapeError) as err:
        _fail(str(err))
    print(witness_to_json(w))
    sys.exit(EXIT_HOLDS)


def _term_doc(t: TermFunction) -> dict:
    return {"table": list(t.table), "term": t.sexpr()}


@main.command()
@click.argument("kind", type=click.Choice(["maltsev", "threeperm"]))
@click.option("--algebra", "algebra_path", required=True)
@click.option("--budget", type=int, default=None)
def terms(kind, algebra_path, budget) -> None:
    """Search the ternary clone for the requested term condition."""
    a = _load_algebra(algebra_path)
    try:
        res = (find_maltsev_term if kind == "maltsev" else find_3perm_terms)(a, budget)
    except ValueError as e:
        _fail(str(e))
    if res.found:
        if kind == "maltsev":
            doc = {"identity_set": "maltsev", "p": _term_doc(res.terms[0])}
        else:
            r, s = res.terms
            doc = {"identity_set": "3perm", "r": _term_doc(r), "s": _term_doc(s)}
        print(json.dumps(doc))
        sys.exit(EXIT_HOLDS)
    if res.status == "not_found":
        print("not found (clone complete)", file=sys.stderr)
        print(json.dumps({"identity_set": kind, "status": "not_found"}))
        sys.exit(EXIT_VIOLATED)
    print("not found within budget", file=sys.stderr)
    print(json.dumps({"identity_set": kind, "status": "inconclusive"}))
    sys.exit(EXIT_INCONCLUSIVE)


@main.command()
@click.option("--corpus", "corpus_path", default="bundled", show_default=True)
@click.option("--out", "out_path", required=True)
@click.option("--seed", type=int, default=0, show_default=True)
def suite(corpus_path, out_path, seed) -> None:
    """Run the cross-validation suite and write the report."""
    if corpus_path == "bundled":
        corpus = bundled_corpus()
        corpus_id = "bundled"
    else:
        d = pathlib.Path(corpus_path)
        if not d.is_dir():
            _fail(f"no such corpus directory: {corpus_path}")
        try:
            corpus = load_corpus(d)
        except AlgebraParseError as e:
            _fail(str(e))
        if not corpus:
            _fail(f"no algebra files in {corpus_path}")
        corpus_id = str(d)
    report = run_suite(corpus, seed=seed, corpus_id=corpus_id)
    text = json.dumps(report, indent=2, sort_keys=True)
    pathlib.Path(out_path).write_text(text + "\n")
    failed = [name for name, rec in report["algebras"].items() if "error" in rec]
    if failed:
        _fail(f"suite records failed for {', '.join(failed)} (report written to {out_path})")
    print(json.dumps({"report": out_path, "algebras": sorted(corpus)}))
    sys.exit(EXIT_HOLDS)


@main.command()
@click.option("--file", "file_path", required=True)
def validate(file_path) -> None:
    """Validate an algebra or relation file against its schema."""
    p = pathlib.Path(file_path)
    if not p.is_file():
        _fail(f"no such file: {file_path}")
    text = p.read_text()
    errors = []
    for kind, parser in (("algebra", algebra_from_json), ("relation", relation_from_json)):
        try:
            parser(text)
        except (AlgebraParseError, RelationParseError) as e:
            errors.append(f"{kind}: {e}")
        else:
            print(json.dumps({"valid": True, "kind": kind}))
            sys.exit(EXIT_HOLDS)
    _fail("; ".join(errors))


if __name__ == "__main__":
    main()
