"""Command-line front door.

stdout always carries a single JSON document; error messages also go to
stderr.  Every command returns its document and its outcome, and one
place, ``_Contract.main``, prints the document and maps the outcome to
the exit code.  The codes are a stable contract:

  0  property holds / object found / suite completed
  1  property violated / no witness / term not found
  2  error: click's usage errors, missing files, parse, shape, precondition
     and budget errors, a failed suite record, a closed stdout, or anything
     unexpected;
     the document is then {"error": message}
  3  inconclusive: the clone budget cut a term search, or a check whose
     class list was refused spent the enumeration budget in closures

``--help`` is the one exception: it prints its text, not JSON, and exits 0.

RELSHIFT_BUDGET overrides the default clone/enumeration budgets; a value
that is not a positive integer is a usage error.
"""

from __future__ import annotations

import errno
import json
import os
import pathlib
import sys
from typing import Callable, TypeVar

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
    RelationClass,
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
    is_positive,
    positive_witness,
    relation_from_json,
)
from .terms import TermFunction, find_3perm_terms, find_maltsev_term

EXIT_CODES = {
    "holds": 0,
    "found": 0,
    True: 0,
    "violated": 1,
    "not_found": 1,
    False: 1,
    "inconclusive": 3,
}
EXIT_ERROR = 2

PROPERTIES = (
    "shifting-lemma",
    "difunctional",
    "goursat-identity",
    "permutability",
    "modular-lattice",
    "positive",
    "ee",
)

T = TypeVar("T")


def _error_message(e: Exception) -> str:
    """The message of the error document; an unexpected exception also
    leaves its traceback on stderr."""
    if isinstance(e, click.ClickException):  # click's usage errors, and ours
        return e.format_message()
    if isinstance(e, ValueError):  # parse, shape, precondition and budget errors
        return str(e)
    import traceback  # imported here: loading it costs every run some memory

    traceback.print_exc()
    return f"{type(e).__name__}: {e}"


class _Contract(click.Group):
    """A command group whose commands return (document, outcome)."""

    def main(self, args=None, prog_name=None, **extra):
        try:
            result = super().main(args, prog_name, standalone_mode=False, **extra)
            if not isinstance(result, tuple):  # --help has printed its text
                return result
            document, outcome = result
            code = EXIT_CODES[outcome]
        except Exception as e:
            message = _error_message(e)
            print(message, file=sys.stderr)
            document, code = {"error": message}, EXIT_ERROR
        try:
            # a witness document arrives already serialised, indented
            print(document if isinstance(document, str) else json.dumps(document))
            sys.stdout.flush()
        except BrokenPipeError:  # stdout closed early: exit 2; devnull spares the exit flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = EXIT_ERROR
        sys.exit(code)


def _read(path: str, parse: Callable[[str], T] = str) -> T:
    """The file at ``path`` parsed by ``parse`` (by default its text); a
    missing file, bytes that are not UTF-8 and parse errors name the path."""
    p = pathlib.Path(path)
    if not p.is_file():
        raise click.ClickException(f"no such file: {path}")
    try:
        return parse(p.read_text(encoding="utf-8"))
    except ValueError as e:
        raise click.ClickException(f"{path}: {e}") from e


def _relation(path: str | None, flag: str) -> Relation:
    if path is None:
        raise click.ClickException(f"missing required option {flag}")
    return _read(path, relation_from_json)


def _compatible(a: Algebra, path: str | None, flag: str) -> Relation:
    """A relation file that must hold a compatible relation on A's carrier."""
    r = _relation(path, flag)
    if r.dom != a.carrier or r.cod != a.carrier:
        raise click.ClickException(
            f"{flag}: relation is not on the carrier of {a.name} (size {a.size})"
        )
    if not is_compatible(a, r):
        raise click.ClickException(f"{flag}: relation is not compatible with {a.name}")
    return r


@click.group(cls=_Contract)
def main() -> None:
    """Shifting-Lemma workbench for finite algebras."""
    resolve_budget(None, DEFAULT_ENUM_BUDGET)


@main.command()
@click.option("--algebra", "algebra_path", required=True)
@click.option("--property", "prop", required=True, type=click.Choice(PROPERTIES))
@click.option("--R", "r_path", default=None)
@click.option("--S", "s_path", default=None)
@click.option("--T", "t_path", default=None)
@click.option("--classes", "classes", default=None, help="e.g. refl,refl,refl")
def check(algebra_path, prop, r_path, s_path, t_path, classes):
    """Decide a property of an algebra (or of explicit relations on it)."""
    a = _read(algebra_path, algebra_from_json)
    if prop == "shifting-lemma":
        if classes is not None:
            parts = classes.split(",")
            if len(parts) != 3:
                raise click.ClickException("--classes needs three comma-separated class names")
            result = shifting_lemma_forall(a, *(RelationClass.parse(p) for p in parts))
        else:
            result = shifting_lemma(
                _compatible(a, r_path, "--R"),
                _compatible(a, s_path, "--S"),
                _compatible(a, t_path, "--T"),
            )
        return result.to_dict(), result.verdict
    if prop in ("difunctional", "goursat-identity"):
        result = (difunctional_all if prop == "difunctional" else goursat_identity_all)(a)
        return result.to_dict(), result.verdict
    if prop == "permutability":
        verdict = permutability(_compatible(a, r_path, "--R"), _compatible(a, s_path, "--S"))
        doc = {k: v if k == "level" else v.pairs() for k, v in verdict.items()}
        return doc, verdict["level"] != "neither"
    if prop == "modular-lattice":
        ok = congruence_lattice_is_modular(a)
        return {"modular": ok}, ok
    if prop == "positive":
        r = _relation(r_path, "--R")
        ok = is_positive(r)
        w = positive_witness(r)
        doc = {"positive": ok}
        if w is not None:
            doc["witness"] = {"dom": w.dom.size, "cod": w.cod.size, "pairs": w.pairs()}
        return doc, ok
    # ee: the sweep reads True, False or "inconclusive: …"
    record = ee_properties(a, _compatible(a, r_path, "--R"))
    sweep = record["reflexive_positive_all_equivalence"]
    if not (record["ee_op_is_equivalence"] and record["ee_op_equals_op_ee"]):
        return record, False
    return record, sweep if isinstance(sweep, bool) else "inconclusive"


@main.command()
@click.argument("kind", type=click.Choice(["maltsev", "goursat"]))
@click.option("--algebra", "algebra_path", required=True)
@click.option("--relation", "relation_path", required=True)
def witness(kind, algebra_path, relation_path):
    """Construct a Shifting-Lemma violation from a seed relation."""
    a = _read(algebra_path, algebra_from_json)
    e = _compatible(a, relation_path, "--relation")
    builder = maltsev_sl_witness if kind == "maltsev" else goursat_sl_witness
    try:
        w = builder(a, e)
    except NoWitnessError as err:
        return {"witness": None, "reason": str(err)}, "not_found"
    return witness_to_json(w), "found"


def _term_doc(t: TermFunction) -> dict:
    return {"table": list(t.table), "term": t.sexpr()}


@main.command()
@click.argument("kind", type=click.Choice(["maltsev", "threeperm"]))
@click.option("--algebra", "algebra_path", required=True)
@click.option("--budget", type=int, default=None)
def terms(kind, algebra_path, budget):
    """Search the ternary clone for the requested term condition."""
    a = _read(algebra_path, algebra_from_json)
    res = (find_maltsev_term if kind == "maltsev" else find_3perm_terms)(a, budget)
    doc = {"identity_set": kind}
    if not res.found:  # "not_found" (clone complete) or "inconclusive" (budget)
        return {**doc, "status": res.status}, res.status
    keys = "p" if kind == "maltsev" else "rs"
    return {**doc, **{k: _term_doc(t) for k, t in zip(keys, res.terms)}}, "found"


def _require_writable(path: str) -> None:
    """Refuse a report path that cannot be written, with the message of a
    failed write, without creating or truncating the file."""
    p = pathlib.Path(path)
    if p.is_dir():
        err = errno.EISDIR
    elif p.exists():
        err = 0 if os.access(p, os.W_OK) else errno.EACCES
    elif not p.parent.is_dir():
        err = errno.ENOTDIR if any(q.is_file() for q in p.parents) else errno.ENOENT
    else:
        err = 0 if os.access(p.parent, os.W_OK | os.X_OK) else errno.EACCES
    if err:
        raise click.ClickException(f"cannot write report to {path}: {os.strerror(err)}")


@main.command()
@click.option("--corpus", "corpus_path", default="bundled", show_default=True)
@click.option("--out", "out_path", required=True)
@click.option("--seed", type=int, default=0, show_default=True)
def suite(corpus_path, out_path, seed):
    """Run the cross-validation suite and write the report."""
    if corpus_path == "bundled":
        corpus = bundled_corpus()
        corpus_id = "bundled"
    else:
        d = pathlib.Path(corpus_path)
        if not d.is_dir():
            raise click.ClickException(f"no such corpus directory: {corpus_path}")
        corpus = load_corpus(d)
        if not corpus:
            raise click.ClickException(f"no algebra files in {corpus_path}")
        corpus_id = str(d)
    _require_writable(out_path)
    report = run_suite(corpus, seed=seed, corpus_id=corpus_id)
    text = json.dumps(report, indent=2, sort_keys=True)
    try:
        pathlib.Path(out_path).write_text(text + "\n")
    except OSError as e:
        raise click.ClickException(f"cannot write report to {out_path}: {e.strerror or e}") from e
    failed = [name for name, rec in report["algebras"].items() if "error" in rec]
    if failed:
        raise click.ClickException(
            f"suite records failed for {', '.join(failed)} (report written to {out_path})"
        )
    return {"report": out_path, "algebras": sorted(corpus)}, True


@main.command()
@click.option("--file", "file_path", required=True)
def validate(file_path):
    """Validate an algebra or relation file against its schema."""
    text = _read(file_path)
    errors = []
    for kind, parser in (("algebra", algebra_from_json), ("relation", relation_from_json)):
        try:
            parser(text)
        except (AlgebraParseError, RelationParseError) as e:
            errors.append(f"{kind}: {e}")
        else:
            return {"valid": True, "kind": kind}, True
    raise click.ClickException("; ".join(errors))


if __name__ == "__main__":
    main()
