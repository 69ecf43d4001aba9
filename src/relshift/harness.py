"""Corpus management and the cross-validation suite.

The bundled corpus spans the three regimes the characterization theorems
distinguish: Mal'tsev algebras (cyclic groups), a 3-permutable-only
algebra (the 2-element implication algebra), and algebras with neither
term condition (meet-semilattice, bare set, a unary algebra whose
congruence lattice is the pentagon N5).  ``bundled_corpus`` loads it from
the package's ``corpus/*.json`` files with ``load_corpus``, the loader the
CLI also uses for a corpus directory.

``run_suite`` runs every check on every corpus algebra and assembles a
single deterministic JSON-ready report (schema "relshift-report/1").
Each algebra's record runs inside one ``checks._shared_classes`` scope:
its checks still make their public calls, but each relation class (the
reflexive and arbitrary enumerations and the congruences) is built once
per record and shared by all of them, then dropped when the record
returns.  The box/W replay of a 3-permutable record decides every (R, T)
pair of congruences at once, one ``_box_join`` call per reflexive S.
"""

from __future__ import annotations

import itertools
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .algebras import (
    Algebra,
    AlgebraParseError,
    PairedObject,
    _blocks,
    _is_modular,
    algebra_from_json,
    as_paired_object,
    congruence_join,
)
from .checks import (
    BudgetError,
    RelationClass,
    _ee_sweeps,
    _fact,
    _shared_classes,
    difunctional_all,
    ee_properties,
    enumerate_class_relations,
    goursat_identity_all,
    permutability,
    reflexive_positive_all_equivalence,
    shifting_lemma,
    shifting_lemma_forall,
)
from .constructions import NoWitnessError, goursat_sl_witness, maltsev_sl_witness
from .relations import Relation, is_symmetric
from .terms import _3perm_terms, _maltsev_term, generate_ternary_clone

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable

__all__ = [
    "ConsistencyError",
    "SCHEMA",
    "bundled_corpus",
    "load_corpus",
    "run_suite",
]

SCHEMA = "relshift-report/1"

# Class combinations exercised per algebra, in the theorem layouts they
# correspond to; each label is parsed with RelationClass.parse.
SUITE_CLASS_COMBOS: tuple[str, ...] = (
    "eq,eq,eq",
    "refl,refl,refl",
    "refl,eq,refl",
    "reflpos,refl,reflpos",
)


class ConsistencyError(RuntimeError):
    """A found term condition is contradicted, or a counterexample does not replay."""


def load_corpus(directory: Traversable) -> dict[str, Algebra]:
    """Every ``*.json`` algebra file in ``directory``, keyed by algebra name.

    ``directory`` is a path or a package resource directory.  A malformed
    file, or a second file declaring a name already loaded, raises
    AlgebraParseError naming the file(s).
    """
    corpus, source = {}, {}
    for f in sorted(directory.iterdir(), key=lambda f: f.name):
        if not f.name.endswith(".json"):
            continue
        try:
            alg = algebra_from_json(f.read_text())
        except AlgebraParseError as e:
            raise AlgebraParseError(f"{f}: {e}") from e
        if alg.name in corpus:
            raise AlgebraParseError(
                f"algebra {alg.name!r} is declared by both {source[alg.name]} and {f}"
            )
        corpus[alg.name], source[alg.name] = alg, f
    return corpus


def bundled_corpus() -> dict[str, Algebra]:
    """The seven bundled algebras, loaded from the packaged ``corpus/*.json``."""
    return load_corpus(resources.files(__package__) / "corpus")


def _box_join(p: PairedObject, rs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Replay of the box/W supremum identity used in the Goursat argument,
    meaningful on 3-permutable algebras only: on the pair object ``p`` of
    S, for every R of the stack ``rs`` and every T of the stack ``ts`` of
    equivalences, the (T, R) mask of B W B = W B W.  B[r] = (R box R) ^
    Eq(s2) and W[t, r], T on the left leg and R on the right, are the
    relations of ``constructions.build_box``, ``build_W`` and
    ``kernel_pair``; the products are taken in float32, for a block of
    _STACK_CELLS cells of (T, R) matrices at a time."""
    first, second = p.first, p.second
    right = rs[:, second[:, None], second[None, :]]
    box = rs[:, first[:, None], first[None, :]] & right & (second[:, None] == second[None, :])
    b = box.astype(np.float32)
    out = []
    for block in _blocks(ts, right.size):
        w = (block[:, None, first[:, None], first[None, :]] & right).astype(np.float32)
        out.append(((b @ w @ b > 0) == (w @ b @ w > 0)).all((2, 3)))
    return np.concatenate(out)


def _witness_record(a: Algebra, kind: str, e: Relation) -> dict:
    builder = maltsev_sl_witness if kind == "maltsev" else goursat_sl_witness
    try:
        w = builder(a, e)
    except NoWitnessError as err:
        return {"status": "no-witness", "reason": str(err)}
    replay = shifting_lemma(w.R, w.S, w.T)
    x, y, u, v = w.quadruple
    premises_hold = (
        (x, y) in w.R
        and (x, y) in w.T
        and (x, u) in w.S
        and (y, v) in w.S
        and (u, v) in w.R
    )
    return {
        "status": "violated",
        "E": e.pairs(),
        "quadruple": list(w.quadruple),
        "replay_verdict": replay.verdict,
        "quadruple_violates": premises_hold and (u, v) not in w.T,
    }


def _algebra_record(a: Algebra, budget: int | None) -> dict:
    rec: dict = {"size": a.size}

    clone = generate_ternary_clone(a, budget, until_maltsev=True)
    maltsev = _maltsev_term(clone)
    threeperm = _3perm_terms(clone)
    rec["terms"] = {
        "maltsev": {
            "status": maltsev.status,
            "term": maltsev.terms[0].sexpr() if maltsev.found else None,
        },
        "threeperm": {
            "status": threeperm.status,
            "r": threeperm.terms[0].sexpr() if threeperm.found else None,
            "s": threeperm.terms[1].sexpr() if threeperm.found else None,
        },
    }

    rec["shifting_lemma"] = {}
    for label in SUITE_CLASS_COMBOS:
        classes = (RelationClass.parse(c) for c in label.split(","))
        res = shifting_lemma_forall(a, *classes, budget)
        rec["shifting_lemma"][label] = res.to_dict()

    rec["difunctional_all"] = difunctional_all(a, budget=budget).to_dict()
    rec["goursat_identity_all"] = goursat_identity_all(a, budget=budget).to_dict()

    cons = enumerate_class_relations(a, RelationClass.EQUIVALENCE, budget)
    rec["congruence_lattice_modular"] = _is_modular(cons)
    rec["congruence_count"] = len(cons)
    perm_table = []
    join_ok = True
    for (i, r), (j, s) in itertools.combinations(enumerate(cons), 2):
        verdict = permutability(r, s)
        perm_table.append({"i": i, "j": j, "level": verdict["level"]})
        # Remark-style join check: RSR and SRS against the closure join
        join = congruence_join(r, s)
        join_ok &= verdict["RSR"] == join and verdict["SRS"] == join
    rec["permutability"] = perm_table
    rec["join_via_rsr_matches"] = join_ok

    ee = _ee_sweeps(a, budget)
    for key, got in ee.items():  # each counterexample replays on its own E
        if got.verdict == "violated" and ee_properties(a, got.triple[0])[key]:
            raise ConsistencyError(f"{a.name}: {key} holds of its counterexample")
    rec["ee_properties"] = {
        "all_ee_op_equivalence": _fact(ee["ee_op_is_equivalence"]),
        "all_ee_op_equals_op_ee": _fact(ee["ee_op_equals_op_ee"]),
        "reflexive_positive_all_equivalence": reflexive_positive_all_equivalence(a, budget),
    }

    # witness constructions where the predicates fail
    try:
        refl = enumerate_class_relations(a, RelationClass.REFLEXIVE, budget)
    except BudgetError:
        refl = []
    rec["witnesses"] = {}
    non_sym = next((e for e in refl if not is_symmetric(e)), None)
    if non_sym is not None:
        rec["witnesses"]["maltsev"] = _witness_record(a, "maltsev", non_sym)
    commute = ee["ee_op_equals_op_ee"]
    if commute.verdict == "violated":
        rec["witnesses"]["goursat"] = _witness_record(a, "goursat", commute.triple[0])

    # box/W supremum replay, meaningful only where the 3-perm terms exist:
    # every (R, T) pair of congruences at once, for each reflexive S
    if threeperm.found and refl:
        stack = np.array([c.members for c in cons])
        rec["box_join_replay"] = all(
            _box_join(as_paired_object(a, s), stack, stack).all() for s in refl
        )

    _check_consistency(a.name, rec)
    return rec


def _check_consistency(name: str, rec: dict) -> None:
    """Terms found must imply the corresponding forward-direction checks."""
    problems = []
    if rec["terms"]["threeperm"]["status"] == "found":
        for key in ("eq,eq,eq", "reflpos,refl,reflpos"):
            if rec["shifting_lemma"][key]["verdict"] == "violated":
                problems.append(f"shifting_lemma[{key}]")
        if rec["goursat_identity_all"]["verdict"] == "violated":
            problems.append("goursat_identity_all")
        if any(v is False for v in rec["ee_properties"].values()):
            problems.append("ee_properties")
    if rec["terms"]["maltsev"]["status"] == "found":
        if rec["shifting_lemma"]["refl,refl,refl"]["verdict"] == "violated":
            problems.append("shifting_lemma[refl,refl,refl]")
        if rec["difunctional_all"]["verdict"] == "violated":
            problems.append("difunctional_all")
    if problems:
        raise ConsistencyError(f"{name}: term condition contradicted by {problems}")


def run_suite(
    corpus: dict[str, Algebra],
    seed: int = 0,
    budget: int | None = None,
    corpus_id: str = "bundled",
) -> dict:
    """Run every check on every corpus algebra and assemble the report.

    Deterministic: identical corpus, seed and budgets give a byte-identical
    report.  The seed is recorded for any sampled follow-up runs even
    though the bundled suite itself is exhaustive.
    """
    report: dict = {
        "schema": SCHEMA,
        "corpus": corpus_id,
        "seed": seed,
        "budget": budget,
        "version": __version__,
        "algebras": {},
    }
    for name in sorted(corpus):
        try:
            with _shared_classes():
                report["algebras"][name] = _algebra_record(corpus[name], budget)
        except ConsistencyError:
            raise
        except Exception as err:  # per-algebra failure: record and continue
            report["algebras"][name] = {"error": f"{type(err).__name__}: {err}"}
    return report
