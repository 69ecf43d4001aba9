"""Seeded inputs and the timed items of the three workloads.

A workload is a list of items.  One pass runs every item once, in a closed
loop: each item starts when the previous one has returned.  ``run_item`` is
the timed part of an item and calls only relshift's public functions;
``verify_item`` and ``item_checks`` run afterwards, outside the timed region.

Inputs are `Spec` values built here from the seed.  The program receives
only the `Algebra` objects made from them; the oracle reads the specs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import expected
import oracle

CLONE_BUDGET = 5000  # relshift's default clone budget; the groupoid draw is classified against it
CLONE_CYCLIC = range(2, 7)  # Z7 is left out: one Z7 item takes 13-20 s on 2 cores, two thirds of a pass
GROUPOID_CLOSE_MAX = 100  # a groupoid "closes" when its clone has at most this many members
GROUPOID_DRAW = (("undecided", 5), ("closes", 2))
# An undecided groupoid's search may evaluate at most this many argument
# tuples and scan at most this many (r, s) pairs, so its cost varies little.
VISIT_MAX = 7000
PAIR_SCAN_MAX = 10_000
# Item costs are spaced so that the median and the tail of item times fall on
# cyclic groups, whose cost does not depend on the seed: z10 is the middle of
# eleven items and z15 the second costliest.
LADDER_CYCLIC = (6, 7, 10, 12, 15, 16)
LADDER_CONGRUENCES = (4, 8)  # band for the number of congruences of a random unary algebra
# (size, unary operations, band for the size of the witness relation E)
LADDER_UNARY = (
    (5, 1, (6, 40)),
    (6, 1, (7, 40)),
    (8, 2, (38, 40)),  # the largest pair object: its witness replay sets peak memory
    (13, 2, (14, 40)),
    (16, 2, (17, 40)),
)
SWEEP_CLASSES = ("refl,refl,refl", "refl,eq,refl", "reflpos,refl,reflpos")


@dataclass(frozen=True)
class Spec:
    """A finite algebra as the benchmark defines it."""

    name: str
    n: int
    ops: tuple  # ((name, arity, flat row-major table), ...)


@dataclass
class Item:
    spec: Spec
    algebra: object = None  # the relshift Algebra made from spec
    extra: dict = field(default_factory=dict)

    @property
    def name(self):
        return self.spec.name


# ---------------------------------------------------------------------------
# algebra constructors
# ---------------------------------------------------------------------------


def cyclic(n):
    return Spec(f"z{n}", n, (
        ("add", 2, tuple((i + j) % n for i in range(n) for j in range(n))),
        ("neg", 1, tuple((-i) % n for i in range(n))),
        ("zero", 0, (0,)),
    ))


def subtraction(n):
    return Spec(f"sub{n}", n, (("sub", 2, tuple((i - j) % n for i in range(n) for j in range(n))),))


def bundled_specs():
    """The seven algebras of relshift's bundled corpus."""
    return [
        cyclic(2), cyclic(3), cyclic(4),
        Spec("semilattice2", 2, (("meet", 2, (0, 0, 0, 1)),)),
        Spec("implication2", 2, (("imp", 2, (1, 1, 0, 1)),)),
        Spec("set2", 2, ()),
        Spec("n5_unary", 4, (("f", 1, (0, 0, 2, 2)), ("g", 1, (2, 3, 0, 1)))),
    ]


def relabel(spec, perm):
    """The isomorphic copy of ``spec`` in which element a is called perm[a]."""
    n = spec.n
    inv = [0] * n
    for a, b in enumerate(perm):
        inv[b] = a
    ops = []
    for name, arity, table in spec.ops:
        new = []
        for args in itertools.product(range(n), repeat=arity):
            new.append(perm[oracle.apply(n, arity, table, [inv[a] for a in args])])
        ops.append((name, arity, tuple(new)))
    return Spec(spec.name, n, tuple(ops))


def shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def build(workload, seed):
    """The items of ``workload`` for ``seed``, without relshift objects."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bundled":
        items = [Item(s) for s in bundled_specs()]
        rng.shuffle(items)
        return items
    if workload == "clone":
        return _clone_items(rng)
    if workload == "ladder":
        return _ladder_items(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _clone_items(rng):
    named = [cyclic(n) for n in CLONE_CYCLIC] + [subtraction(5)]
    named += [s for s in bundled_specs() if s.name in expected.NO_MALTSEV]
    items = [Item(relabel(s, shuffled(rng, s.n))) for s in named]
    wanted = dict(GROUPOID_DRAW)
    k = 0
    while any(wanted.values()):
        table = tuple(rng.randrange(3) for _ in range(9))
        spec = Spec(f"groupoid{k}", 3, (("m", 2, table),))
        kind = _groupoid_kind(spec)
        if kind and wanted[kind]:
            wanted[kind] -= 1
            items.append(Item(spec))
            k += 1
    rng.shuffle(items)
    return items


def _groupoid_kind(spec):
    """"closes" when the clone closes within GROUPOID_CLOSE_MAX members,
    "undecided" when it exceeds the budget before either term search can
    succeed, None otherwise.  Skipped are groupoids whose clone reaches
    between GROUPOID_CLOSE_MAX and CLONE_BUDGET members in a round (one took
    129 s, beyond a run's time limit), those the budget-cut clone decides
    (their share varies by seed), and undecided ones beyond VISIT_MAX or
    PAIR_SCAN_MAX."""
    tables, complete, visited = oracle.clone_closure(spec, CLONE_BUDGET, skip_above=GROUPOID_CLOSE_MAX)
    if complete:
        return "closes"
    if complete is None or visited > VISIT_MAX:
        return None
    maltsev, pair, scan = oracle.clone_terms(spec.n, tables)
    return "undecided" if maltsev is None and pair is None and scan <= PAIR_SCAN_MAX else None


def _ladder_items(rng):
    items = []
    for n in LADDER_CYCLIC:
        perm = shuffled(rng, n)
        # Delta plus (0, a): its closure is {(x, y) : y - x in <a>}
        gens = [(x, x) for x in range(n)] + [(perm[0], perm[rng.randrange(1, n)])]
        items.append(Item(relabel(cyclic(n), perm), extra={"gens": gens}))
    for n, k, e_band in LADDER_UNARY:
        spec, gens = _draw_unary(rng, n, k, e_band)
        items.append(Item(spec, extra={"gens": gens}))
    rng.shuffle(items)
    return items


def _draw_unary(rng, n, k, e_band):
    """A random algebra with k unary operations whose congruence count lies
    in LADDER_CONGRUENCES, with a generator pair whose reflexive compatible
    closure E is not symmetric and has a size in ``e_band``.  The bands keep
    the cost of an item, and the k**4 memory of replaying a witness on the
    k pairs of E, alike from seed to seed."""
    diagonal = [(i, i) for i in range(n)]
    while True:
        ops = tuple((f"f{i}", 1, tuple(rng.randrange(n) for _ in range(n))) for i in range(k))
        spec = Spec(f"u{n}_{k}", n, ops)
        for _ in range(20):
            gens = diagonal + [tuple(rng.sample(range(n), 2))]
            e = oracle.compatible_closure(spec, gens, cap=e_band[1])
            if e is not None and len(e) >= e_band[0] and e != oracle.opposite(e):
                break
        else:
            continue
        cons = oracle.congruences(spec, cap=LADDER_CONGRUENCES[1])
        if cons is not None and len(cons) >= LADDER_CONGRUENCES[0]:
            return spec, gens


# ---------------------------------------------------------------------------
# timed items, their verification, and the checks they decide
# ---------------------------------------------------------------------------


def run_item(workload, rs, item):
    """The timed part of one item.  ``rs`` holds relshift's modules; calls go
    through module attributes so that a traced run sees its wrappers."""
    a = item.algebra
    if workload == "bundled":
        return rs.harness.run_suite({a.name: a}, seed=7)["algebras"][a.name]
    if workload == "clone":
        return rs.terms.find_maltsev_term(a), rs.terms.find_3perm_terms(a)
    eq = rs.checks.RelationClass.EQUIVALENCE
    cons = rs.algebras.all_congruences(a)
    pairs = list(itertools.combinations(cons, 2))
    out = {
        "congruences": cons,
        "sl_eq": rs.checks.shifting_lemma_forall(a, eq, eq, eq),
        "modular": rs.algebras.congruence_lattice_is_modular(a),
        "levels": [rs.checks.permutability(r, s)["level"] for r, s in pairs],
        "joins": [rs.constructions.join_via_RSR(r, s) == rs.algebras.congruence_join(r, s)
                  for r, s in pairs],
        "E": rs.algebras.compatible_close(a, item.extra["gens"]),
    }
    for kind in ("maltsev", "goursat"):
        construct = getattr(rs.constructions, f"{kind}_sl_witness")
        try:
            w = construct(a, out["E"])
        except rs.constructions.NoWitnessError:
            out[kind] = None
        else:
            out[kind] = (w, rs.checks.shifting_lemma(w.R, w.S, w.T))
    return out


def pairs_of(rel):
    return set(rel.pairs()) if hasattr(rel, "pairs") else {tuple(p) for p in rel}


def decided(value):
    """Whether one check's outcome is conclusive."""
    return value in ("holds", "violated", "found", "not_found") or isinstance(value, bool)


def item_checks(workload, output):
    """The outcomes of the checks an item attempted."""
    if workload == "clone":
        return [output[0].status, output[1].status]
    if workload == "bundled":
        rec = output
        ee = rec["ee_properties"]
        return [
            rec["terms"]["maltsev"]["status"],
            rec["terms"]["threeperm"]["status"],
            *(v["verdict"] for v in rec["shifting_lemma"].values()),
            rec["difunctional_all"]["verdict"],
            rec["goursat_identity_all"]["verdict"],
            ee["reflexive_positive_all_equivalence"] if isinstance(ee, dict) else "inconclusive",
            rec["congruence_lattice_modular"],
        ]
    # ladder: permutability levels, the join comparison and both witness
    # attempts (built, or shown impossible) are conclusive by construction
    return [output["sl_eq"].verdict, output["modular"], True, True, True, True]


def verify_item(workload, item, output):
    """Problems found by checking ``output`` against the oracle."""
    if workload == "bundled":
        return _verify_bundled(item, output)
    if workload == "clone":
        return _verify_clone(item, output)
    return _verify_ladder(item, output)


def _replay(label, quadruple, triple):
    """A problem unless the quadruple violates the Shifting Lemma on the triple."""
    if oracle.violates(*(pairs_of(x) for x in triple), tuple(quadruple)):
        return []
    return [f"{label}: quadruple {quadruple} does not violate its triple"]


def _verify_bundled(item, rec):
    spec, name = item.spec, item.name
    if "error" in rec:
        return [f"{name}: {rec['error']}"]
    problems = []
    for label, res in rec["shifting_lemma"].items():
        if res["verdict"] == "violated":
            t = res["triple"]
            problems += _replay(f"{name}.sl[{label}]", res["quadruple"], (t["R"], t["S"], t["T"]))
    for key, test in (("difunctional_all", oracle.is_difunctional),
                      ("goursat_identity_all", oracle.goursat_identity)):
        if rec[key]["verdict"] == "violated":
            d = pairs_of(rec[key]["triple"]["R"])
            if test(d) or not oracle.is_compatible(spec, d):
                problems.append(f"{name}.{key}: reported relation is not a compatible counterexample")
    for kind, w in rec["witnesses"].items():
        e = pairs_of(w.get("E", ()))
        if w["status"] != "violated" or w["replay_verdict"] != "violated" or not w["quadruple_violates"]:
            problems.append(f"{name}.witness.{kind}: not a replayed violation")
            continue
        triples = [oracle.maltsev_triple(e)] if kind == "maltsev" else [
            oracle.goursat_triple(e), oracle.goursat_triple(oracle.opposite(e))]
        if not any(oracle.violates(*tr, tuple(w["quadruple"])) for tr in triples):
            problems.append(f"{name}.witness.{kind}: quadruple fails the independent replay")
    terms = rec["terms"]
    if terms["maltsev"]["status"] == "found":
        tab = oracle.eval_term(spec, oracle.parse_sexpr(terms["maltsev"]["term"]))
        if not oracle.is_maltsev(spec.n, tab):
            problems.append(f"{name}: Mal'tsev term {terms['maltsev']['term']} fails its identities")
    if terms["threeperm"]["status"] == "found":
        r = oracle.eval_term(spec, oracle.parse_sexpr(terms["threeperm"]["r"]))
        s = oracle.eval_term(spec, oracle.parse_sexpr(terms["threeperm"]["s"]))
        if not oracle.is_3perm_pair(spec.n, r, s):
            problems.append(f"{name}: 3-permutability terms fail their identities")
    cons = oracle.congruences(spec)
    if rec["congruence_count"] != len(cons) or len(rec["permutability"]) != len(cons) * (len(cons) - 1) // 2:
        problems.append(f"{name}: {rec['congruence_count']} congruences, oracle has {len(cons)}")
    if rec["congruence_lattice_modular"] != oracle.is_modular(cons):
        problems.append(f"{name}: modularity disagrees with the oracle")
    problems += expected.mismatches(name, {
        "maltsev": terms["maltsev"]["status"],
        "threeperm": terms["threeperm"]["status"],
        "modular": rec["congruence_lattice_modular"],
        "congruences": rec["congruence_count"],
        "difunctional_all": rec["difunctional_all"]["verdict"],
        "goursat_identity_all": rec["goursat_identity_all"]["verdict"],
        "sl_eq": rec["shifting_lemma"]["eq,eq,eq"]["verdict"],
        "permutability": {p["level"] for p in rec["permutability"]},
        "join_rsr": rec["join_via_rsr_matches"],
    })
    return problems


def _verify_clone(item, output):
    spec, name = item.spec, item.name
    problems = []
    for res, label in zip(output, ("maltsev", "threeperm")):
        for term in res.terms:
            table = oracle.eval_term(spec, oracle.parse_sexpr(term.sexpr()))
            if table != tuple(term.table):
                problems.append(f"{name}.{label}: {term.sexpr()} evaluates to another table")
    maltsev, threeperm = output
    if maltsev.found and not oracle.is_maltsev(spec.n, maltsev.terms[0].table):
        problems.append(f"{name}: the Mal'tsev term fails its identities")
    if threeperm.found and not oracle.is_3perm_pair(spec.n, *(t.table for t in threeperm.terms)):
        problems.append(f"{name}: the 3-permutability terms fail their identities")
    # A clone within the budget decides both searches; beyond it, only a
    # found term (checked above) or "inconclusive" can be confirmed.
    tables, complete, _ = oracle.clone_closure(spec, CLONE_BUDGET)
    want_p, want_pair, _ = oracle.clone_terms(spec.n, tables)
    for res, exists, label in ((maltsev, want_p is not None, "maltsev"),
                               (threeperm, want_pair is not None, "threeperm")):
        if complete and res.status != ("found" if exists else "not_found"):
            problems.append(f"{name}.{label}: {res.status}, but its clone of {len(tables)} closes"
                            f" {'with' if exists else 'without'} such terms")
        if not complete and res.status == "not_found":
            problems.append(f"{name}.{label}: not_found, but its clone exceeds {CLONE_BUDGET}"
                            " members and the oracle cannot confirm it")
    problems += expected.mismatches(name, {"maltsev": maltsev.status, "threeperm": threeperm.status})
    return problems


def _verify_ladder(item, out):
    spec, name, n = item.spec, item.name, item.spec.n
    problems = []
    cons = [pairs_of(c) for c in out["congruences"]]
    parts = [oracle.partition_of(n, c) for c in cons]
    for c in cons:
        if not oracle.is_equivalence(n, c) or not oracle.is_compatible(spec, c):
            problems.append(f"{name}: a reported congruence is not a compatible equivalence")
            break
    lattice = oracle.congruences(spec)
    if set(parts) != lattice or len(parts) != len(lattice):
        problems.append(f"{name}: {len(parts)} congruences, oracle has {len(lattice)}")
    sl = out["sl_eq"]
    if sl.verdict == "violated":
        problems += _replay(f"{name}.sl_eq", sl.quadruple, sl.triple)
    if out["modular"] != oracle.is_modular(lattice):
        problems.append(f"{name}: modularity disagrees with the oracle")
    for (r, s), level, join_ok in zip(itertools.combinations(cons, 2), out["levels"], out["joins"]):
        if level != oracle.permutability_level(r, s):
            problems.append(f"{name}: permutability level {level} disagrees with the oracle")
        rsr = oracle.compose(r, oracle.compose(s, r))
        join = oracle.partition_pairs(oracle.partition_join(oracle.partition_of(n, r), oracle.partition_of(n, s)))
        if join_ok != (rsr == join):
            problems.append(f"{name}: RSR-join comparison disagrees with the oracle")
    e = pairs_of(out["E"])
    if e != oracle.compatible_closure(spec, item.extra["gens"]):
        problems.append(f"{name}: compatible_close disagrees with the oracle")
    opp = oracle.opposite(e)
    # a Mal'tsev witness needs E non-symmetric, a Goursat one E E-op != E-op E
    exists = {"maltsev": e != opp, "goursat": oracle.compose(e, opp) != oracle.compose(opp, e)}
    for kind in ("maltsev", "goursat"):
        if out[kind] is None:
            if exists[kind]:
                problems.append(f"{name}.{kind}: no witness although one exists")
            continue
        w, replay = out[kind]
        triple = tuple(pairs_of(x) for x in w.relations)
        if replay.verdict != "violated" or not oracle.violates(*triple, w.quadruple):
            problems.append(f"{name}.{kind}: witness does not replay as a violation")
        if kind == "maltsev" and triple != oracle.maltsev_triple(e):
            problems.append(f"{name}.maltsev: witness relations differ from the pair-object construction")
    if name.startswith("z"):
        problems += expected.mismatches(name, {
            "congruences": len(parts),
            "modular": out["modular"],
            "sl_eq": sl.verdict,
            "permutability": set(out["levels"]),
            "join_rsr": all(out["joins"]),
        }, expected.cyclic(n))
    return problems


def sweep(rs, items):
    """The budgeted quantified checks on every ladder algebra, run once.

    Returns (outcomes, problems)."""
    c = rs.checks
    outcomes, problems = [], []
    for item in items:
        a = item.algebra
        results = [c.shifting_lemma_forall(a, *(c.RelationClass.parse(x) for x in combo.split(",")))
                   for combo in SWEEP_CLASSES]
        results += [c.difunctional_all(a), c.goursat_identity_all(a)]
        outcomes += [r.verdict for r in results]
        for r in results:
            if r.verdict == "violated" and r.quadruple is not None:
                problems += _replay(f"{item.name}.sweep", r.quadruple, r.triple)
        ee = c.ee_properties(a, rs.algebras.compatible_close(a, item.extra["gens"]))
        outcomes.append(ee["reflexive_positive_all_equivalence"]
                        if isinstance(ee["reflexive_positive_all_equivalence"], bool) else "inconclusive")
    return outcomes, problems


def fingerprint(workload, output):
    """A comparable summary of an item's output: later passes must repeat
    the first pass exactly."""
    if workload == "bundled":
        return repr(output)
    if workload == "clone":
        return tuple((r.status, tuple(t.sexpr() for t in r.terms)) for r in output)
    return (
        tuple(tuple(c.pairs()) for c in output["congruences"]),
        output["sl_eq"].verdict, output["sl_eq"].quadruple,
        output["modular"], tuple(output["levels"]), tuple(output["joins"]),
        tuple(output["E"].pairs()),
        *(None if output[k] is None else (output[k][0].quadruple, output[k][1].verdict)
          for k in ("maltsev", "goursat")),
    )
