"""Executable proof gadgets: the relations built in the witness arguments.

Given a reflexive compatible relation E that fails symmetry, a genuine
Shifting-Lemma violation with three reflexive relations is constructed on
the object of E-pairs.  Given a reflexive compatible E whose composites
E E-op and E-op E differ, a violation with reflexive positive R and T is
constructed on the base carrier.  Both constructions are replayable
through :func:`relshift.checks.shifting_lemma`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebras import Algebra, PairedObject, _require_reflexive_compatible, as_paired_object
from .relations import Relation, compose, is_equivalence, opposite

__all__ = [
    "SLInstance",
    "NoWitnessError",
    "build_T",
    "build_R",
    "kernel_pair",
    "maltsev_sl_witness",
    "build_box",
    "build_W",
    "join_via_RSR",
    "goursat_sl_witness",
    "witness_to_json",
]


class NoWitnessError(ValueError):
    """The hypotheses needed to build a violating instance do not hold."""


@dataclass(frozen=True)
class SLInstance:
    """A Shifting-Lemma instance (R, S, T) with an optional quadruple.

    The quadruple (x, y, u, v) is in diagram order: premises are
    (x, y) in R ^ T, (x, u) in S, (y, v) in S, (u, v) in R and the tested
    conclusion is (u, v) in T.
    """

    kind: str
    relations: tuple[Relation, Relation, Relation]  # (R, S, T)
    quadruple: tuple[int, int, int, int] | None
    base_algebra: str
    seed_relation: Relation
    pair_index: tuple[tuple[int, int], ...] | None = None

    @property
    def R(self) -> Relation:
        return self.relations[0]

    @property
    def S(self) -> Relation:
        return self.relations[1]

    @property
    def T(self) -> Relation:
        return self.relations[2]


def build_T(e: PairedObject) -> Relation:
    """((a,b), (c,d)) related iff (a, d) is in E; reflexive when E is."""
    m = e.relation.members[e.first[:, None], e.second[None, :]]
    return Relation(e.carrier, e.carrier, m)


def build_R(e: PairedObject) -> Relation:
    """((a,b), (c,d)) related iff (c, b) is in E, that is iff ((c,d), (a,b))
    is in T: R is the opposite of T.  Reflexive when E is."""
    return opposite(build_T(e))


def kernel_pair(p: PairedObject, leg: int) -> Relation:
    """Eq(e1) or Eq(e2): pairs with the same first (leg 1) or second (leg 2)
    coordinate.  Always an equivalence relation."""
    if leg not in (1, 2):
        raise ValueError("leg must be 1 or 2")
    vals = p.first if leg == 1 else p.second
    return Relation(p.carrier, p.carrier, vals[:, None] == vals[None, :])


def maltsev_sl_witness(a: Algebra, e: Relation) -> SLInstance:
    """A Shifting-Lemma violation with three reflexive relations, built on
    the pair-object of a non-symmetric reflexive compatible E.

    R and T compare pairs through E, S is the kernel pair of the second
    projection; the quadruple is (xEy, xEx, yEy, xEx) for the
    lexicographically least (x, y) in E with (y, x) not in E.
    """
    p = as_paired_object(a, e)
    asym = np.argwhere(e.members & ~e.members.T)
    if len(asym) == 0:
        raise NoWitnessError("E is symmetric: no witness exists")
    x, y = (int(v) for v in asym[0])
    i_xy, i_xx, i_yy = (p.pairs.index(q) for q in ((x, y), (x, x), (y, y)))
    return SLInstance(
        kind="maltsev",
        relations=(build_R(p), kernel_pair(p, 2), build_T(p)),
        quadruple=(i_xy, i_xx, i_yy, i_xx),
        base_algebra=a.name,
        seed_relation=e,
        pair_index=p.pairs,
    )


def build_box(r: Relation, s: PairedObject) -> Relation:
    """The square relation on S-pairs: ((a,b),(c,d)) related iff
    (a,c) in R and (b,d) in R.  An equivalence relation when R is."""
    if not is_equivalence(r):
        raise ValueError("R must be an equivalence relation")
    return _side_by_side(r, r, s)


def build_W(t: Relation, r: Relation, s: PairedObject) -> Relation:
    """As build_box but with T on the left leg: (a,c) in T and (b,d) in R."""
    if not is_equivalence(t):
        raise ValueError("T must be an equivalence relation")
    if not is_equivalence(r):
        raise ValueError("R must be an equivalence relation")
    return _side_by_side(t, r, s)


def _side_by_side(left: Relation, right: Relation, s: PairedObject) -> Relation:
    a_, b_ = s.first, s.second
    m = left.members[a_[:, None], a_[None, :]] & right.members[b_[:, None], b_[None, :]]
    return Relation(s.carrier, s.carrier, m)


def join_via_RSR(r: Relation, s: Relation) -> Relation:
    """The composite RSR.  Equals the join R v S only in a 3-permutable
    setting; callers must check against the transitive-closure join."""
    if not is_equivalence(r) or not is_equivalence(s):
        raise ValueError("R and S must be equivalence relations")
    return compose(r, compose(s, r))


def goursat_sl_witness(a: Algebra, e: Relation) -> SLInstance:
    """A Shifting-Lemma violation with reflexive positive R and T, on the
    base carrier, from a reflexive compatible E whose two symmetrizations
    E E-op and E-op E differ.

    The witness uses R = E E-op, S = E, T = E-op E and quadruple
    (z, z, x, y) where z witnesses (x, y) in E E-op but (x, y) not in
    E-op E.  When only the other inclusion fails, E-op (also reflexive and
    compatible) is used in place of E.
    """
    _require_reflexive_compatible(a, e)
    for cand in (e, opposite(e)):
        ee_op = compose(cand, opposite(cand))
        op_ee = compose(opposite(cand), cand)
        gap = np.argwhere(ee_op.members & ~op_ee.members)
        if len(gap) == 0:
            continue
        x, y = (int(v) for v in gap[0])
        z = int(np.argwhere(cand.members[:, x] & cand.members[:, y])[0][0])
        return SLInstance(
            kind="goursat",
            relations=(ee_op, cand, op_ee),
            quadruple=(z, z, x, y),
            base_algebra=a.name,
            seed_relation=cand,
            pair_index=None,
        )
    raise NoWitnessError("E E-op equals E-op E (both ways): no witness exists")


def witness_to_json(w: SLInstance) -> str:
    doc = {
        "kind": w.kind,
        "base_algebra": w.base_algebra,
        "E": w.seed_relation.pairs(),
        "R": w.R.pairs(),
        "S": w.S.pairs(),
        "T": w.T.pairs(),
        "quadruple": list(w.quadruple) if w.quadruple else None,
        "pair_index": [list(p) for p in w.pair_index] if w.pair_index else None,
    }
    return json.dumps(doc, indent=2)
