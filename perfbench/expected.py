"""Hand-made expected verdicts for the named algebras, each with its reason.

Verdicts are invariant under relabelling the carrier, so they hold for the
seeded isomorphic copies the workloads use.  Keys:

* ``maltsev`` / ``threeperm``: status of the term search;
* ``modular``: Con(A) is modular;
* ``congruences``: number of congruences;
* ``difunctional_all`` / ``goursat_identity_all``: verdict of the sweep;
* ``sl_eq``: Shifting Lemma over congruence triples;
* ``permutability``: the level of every congruence pair;
* ``join_rsr``: RSR equals the join R v S for every congruence pair.
"""

from __future__ import annotations

import oracle

MALTSEV = "a Mal'tsev term exists: p(x,y,z) = x - y + z"
PERMUTES = "a Mal'tsev term makes congruences 2-permute"
THREEPERM_FROM_MALTSEV = "r = x, s = p is a 3-permutability pair when p is Mal'tsev"
MODULAR_FROM_MALTSEV = "permuting congruences form a modular lattice"
DIFUNCTIONAL_FROM_MALTSEV = "with a Mal'tsev term every compatible relation is difunctional"
GOURSAT_FROM_3PERM = "3-permutability terms make D D-op transitive for every compatible D"
SL_FROM_MODULAR = "the Shifting Lemma holds for congruences in a modular (here permutable) lattice"
JOIN_FROM_MALTSEV = "RSR = R v S because RS = SR"
GOURSAT_ON_2 = "on two elements D D-op is a partial diagonal or full, hence transitive"
TWO_CONGRUENCES = "a 2-element algebra has exactly the two trivial congruences"

NO_MALTSEV = ("semilattice2", "implication2", "set2", "n5_unary")


def cyclic(n):
    """Z_n with +, -, 0, or x - y on Z_n: a group reduct with a Mal'tsev term."""
    return {
        "maltsev": ("found", MALTSEV),
        "threeperm": ("found", THREEPERM_FROM_MALTSEV),
        "modular": (True, MODULAR_FROM_MALTSEV),
        "congruences": (oracle.divisor_count(n), "congruences of Z_n are the cosets of its subgroups, one per divisor of n"),
        "difunctional_all": ("holds", DIFUNCTIONAL_FROM_MALTSEV),
        "goursat_identity_all": ("holds", GOURSAT_FROM_3PERM),
        "sl_eq": ("holds", SL_FROM_MODULAR),
        "permutability": ("2-permute", PERMUTES),
        "join_rsr": (True, JOIN_FROM_MALTSEV),
    }


NAMED = {
    **{f"z{n}": cyclic(n) for n in range(2, 7)},
    "sub5": {
        "maltsev": ("found", "x - (y - z) = x - y + z is a term of x - y"),
        "threeperm": ("found", THREEPERM_FROM_MALTSEV),
    },
    "semilattice2": {
        "maltsev": ("not_found", "every term is a meet of variables, and no meet satisfies p(x,x,y) = y and p(x,y,y) = x"),
        "threeperm": ("not_found", "s(x,x,y) = y forces s = z, then r(x,x,y) = y contradicts r = x; semilattices are not n-permutable"),
        "modular": (True, TWO_CONGRUENCES),
        "congruences": (2, TWO_CONGRUENCES),
        "difunctional_all": ("violated", "the order <= is compatible with meet and (1,0) lies in D D-op D"),
        "goursat_identity_all": ("holds", GOURSAT_ON_2),
    },
    "implication2": {
        "maltsev": ("not_found", "every term of -> lies above one of its variables; x+y+z, the only Mal'tsev operation on {0,1}, does not"),
        "threeperm": ("found", "Mitschke: r = (z->y)->x and s = (x->y)->z make implication algebras 3-permutable"),
        "modular": (True, TWO_CONGRUENCES),
        "congruences": (2, TWO_CONGRUENCES),
        "difunctional_all": ("violated", "{(a,b) : a or b is 1} is compatible with -> and not difunctional"),
        "goursat_identity_all": ("holds", GOURSAT_ON_2),
    },
    "set2": {
        "maltsev": ("not_found", "with no operations the clone holds only the projections"),
        "threeperm": ("not_found", "with no operations the clone holds only the projections"),
        "modular": (True, TWO_CONGRUENCES),
        "congruences": (2, TWO_CONGRUENCES),
        "difunctional_all": ("violated", "every relation is compatible, including <=, which is not difunctional"),
        "goursat_identity_all": ("holds", GOURSAT_ON_2),
    },
    "n5_unary": {
        "maltsev": ("not_found", "Con(A) is the pentagon N5; a Mal'tsev term would make it modular"),
        "threeperm": ("not_found", "Con(A) is N5; 3-permuting congruences form a modular lattice (Jonsson)"),
        "modular": (False, "its five congruences form the pentagon N5 by construction"),
        "congruences": (5, "its five congruences form the pentagon N5 by construction"),
    },
}


def mismatches(name, found, table=None):
    """Entries of ``table`` (by default the one for ``name``) that ``found``
    contradicts.

    ``found`` maps keys to observed values; keys the caller did not observe
    are skipped.  For ``permutability`` the observed value is the set of
    levels seen.
    """
    table = NAMED.get(name, {}) if table is None else table
    out = []
    for key, (want, reason) in table.items():
        if key not in found:
            continue
        got = found[key]
        ok = got <= {want} if key == "permutability" else got == want
        if not ok:
            out.append(f"{name}.{key}: expected {want!r} ({reason}), got {got!r}")
    return out
