"""Decision procedures for the Shifting-Lemma family.

All quantifier scans are exhaustive over the finite carriers; every
"violated" verdict carries the lexicographically least witness so outputs
are stable, and every budget-limited scan reports "inconclusive" rather
than silently passing.

A complete class list is decided on stacks, a block of _STACK_CELLS
cells at a time: ``_shift_stack`` takes a stack of S and a stack of T,
the sweeps take the stacked predicates of ``relations``, and each
enumeration re-checks its relations' compatibility in one call.  A
single relation or triple is a stack of one.  A check whose list the
2^k gate refuses is decided instead by a ``_TupleSearch`` over tuples of
3 to 5 elements: every violation shrinks to the least class members
that hold its tuple's pairs, generated by ``algebras._least`` with their
closures counted against the same budget.

Each sweep is one ``_Sweep`` declaration, searched by the one loop
``_swept``; it and ``_shifting_tuples`` take their blocks of tuples from
``_tuple_blocks``.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

import numpy as np

from .algebras import (
    Algebra,
    PreconditionError,
    RelationClass,
    _blocks,
    _is_compatible_between,
    _joins,
    _least,
    _require_reflexive_compatible,
    _stack_closer,
    all_congruences,
)
from .relations import (
    Relation,
    ShapeError,
    _commuting_stack,
    _difunctional_stack,
    _equivalence_stack,
    _goursat_stack,
    _is_int,
    compose,
    is_equivalence,
    is_positive,
    opposite,
)

__all__ = [
    "RelationClass",
    "SLResult",
    "BudgetError",
    "DEFAULT_ENUM_BUDGET",
    "resolve_budget",
    "shifting_lemma",
    "shifting_lemma_forall",
    "permutability",
    "enumerate_class_relations",
    "enumerate_compatible_relations",
    "difunctional_all",
    "goursat_identity_all",
    "reflexive_positive_all_equivalence",
    "ee_properties",
]

DEFAULT_ENUM_BUDGET = 1 << 16


class BudgetError(RuntimeError):
    """An enumeration would exceed its candidate budget, or a search its
    closure budget."""


@dataclass(frozen=True)
class SLResult:
    """Outcome of a Shifting-Lemma check.

    verdict is "holds", "violated" or "inconclusive".  On violation the
    quadruple (x, y, u, v) satisfies all premises of the diagram while the
    conclusion (u, v) in T fails; for quantified checks the violating
    triple of relations is attached as well.
    """

    verdict: str
    quadruple: tuple[int, int, int, int] | None = None
    triple: tuple[Relation, Relation, Relation] | None = field(
        default=None, compare=False
    )
    reason: str | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_dict(self) -> dict:
        """JSON-ready record: verdict, then quadruple, triple (as pair lists)
        and reason when present."""
        rec: dict = {"verdict": self.verdict}
        if self.quadruple is not None:
            rec["quadruple"] = list(self.quadruple)
        if self.triple is not None:
            rec["triple"] = dict(zip("RST", (r.pairs() for r in self.triple)))
        if self.reason:
            rec["reason"] = self.reason
        return rec


def _common_carrier(r: Relation, s: Relation, t: Relation) -> None:
    if len({r.dom, r.cod, s.dom, s.cod, t.dom, t.cod}) != 1:
        raise ShapeError("R, S, T must be relations on one common carrier")


def _shift_stack(r: np.ndarray, ss: np.ndarray, ts: np.ndarray) -> tuple:
    """Decide the Shifting Lemma for the matrix R, each S of the stack
    ``ss`` and each T of the stack ``ts``: (x, y) in R ^ T, (x, u) and
    (y, v) in S and (u, v) in R imply (u, v) in T.  With gap = R ^ not-T
    it holds iff R ^ T ^ S-op gap S is empty; its float32 products are
    nonzero exactly where a path exists.  Returns the (S, T) mask of
    R ^ S <= T and, for the first (S, T) in row-major order that meets it
    and violates the lemma, (the index of S, the index of T, the least
    quadruple), or None."""
    gap = r > ts  # R ^ not-T, in one pass
    meets = ~(gap & ss[:, None]).any((2, 3))
    sf = ss.astype(np.float32)[:, None]
    hits = r & ts & (sf @ gap.astype(np.float32) @ sf.swapaxes(2, 3) > 0)
    bad = meets & hits.any((2, 3))
    if not bad.any():
        return meets, None
    j, i = divmod(int(bad.argmax()), bad.shape[1])
    s = ss[j]
    x, y = (int(k) for k in np.argwhere(hits[j, i])[0])
    u = int(np.argmax(s[x] & (gap[i] @ s[y])))
    v = int(np.argmax(s[y] & gap[i, u]))
    return meets, (j, i, (x, y, u, v))


def shifting_lemma(r: Relation, s: Relation, t: Relation) -> SLResult:
    """Exhaustive check of the shifting implication for one triple, by
    ``_shift_stack`` on stacks of one S and one T.  Requires R ^ S <= T; a
    violation reports the lexicographically least quadruple."""
    _common_carrier(r, s, t)
    meets, bad = _shift_stack(r.members, s.members[None], t.members[None])
    if not meets[0, 0]:
        raise PreconditionError("R ^ S <= T fails")
    if bad is None:
        return SLResult("holds")
    return SLResult("violated", quadruple=bad[2])


def resolve_budget(budget: int | None, default: int) -> int:
    """``budget`` if given, else RELSHIFT_BUDGET if set, else ``default``.

    Raises ValueError unless the budget used is a positive integer.
    """
    if budget is not None:
        if not (_is_int(budget) and budget >= 1):
            raise ValueError(f"budget must be a positive integer, got {budget!r}")
        return int(budget)
    env = os.environ.get("RELSHIFT_BUDGET")
    if not env:
        return default
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"RELSHIFT_BUDGET must be a positive integer, got {env!r}")
    return value


def _subalgebras(a: Algebra, b: Algebra, base: np.ndarray, budget: int) -> list[Relation]:
    """Compatible relations A -> B containing ``base``, lexicographic.

    Found by ``algebras._joins`` from the closure S of ``base`` and the
    principal closures Sg(S + pair), one for each pair missing from S:
    every compatible relation above S is the join of the principal ones
    below it.  S, the principals and the unions that ``_joins`` closes are
    all closed, a stack at a time, by one ``algebras._stack_closer``.  The
    budget, resolved already, counts the 2^k candidates, k the positions
    outside ``base``, and refuses before any closure runs, so the default
    budget leaves at most 16 free cells to the stacked kernel.  The
    relations kept are checked once more, in one stacked call of
    ``_is_compatible_between``.

    Only ``_class_list`` calls it, once per class and budget of the open
    ``_shared_classes`` scope.
    """
    k = int(np.count_nonzero(~base))
    if 2**k > budget:
        raise BudgetError(f"2^{k} candidate relations exceed budget {budget}")

    close = _stack_closer(a, b)
    start = close(base.copy()[None])[0]
    xs, ys = np.nonzero(~start)
    principals = np.repeat(start[None], len(xs), axis=0)
    principals[np.arange(len(xs)), xs, ys] = True
    found = np.array(_joins(start, close(principals), close))
    ok = _is_compatible_between(a, b, found)
    if not ok.all():
        bad = Relation(a.carrier, b.carrier, found[ok.argmin()])
        raise RuntimeError(f"closure enumeration kept an incompatible relation {bad.pairs()}")
    return [Relation(a.carrier, b.carrier, m) for m in found]


# The class lists of the open ``_shared_classes`` scope, keyed by (A, B,
# class, budget); None outside any scope.
_SHARED: ContextVar[dict | None] = ContextVar("relshift_shared_classes", default=None)


@contextmanager
def _shared_classes() -> Iterator[dict]:
    """A scope in which each class list is built once per (A, B, class,
    resolved budget), and every request for it gets a fresh list of the
    same relations; a refused enumeration raises a new BudgetError with
    the same message on every later request.  Re-entrant: inside an open
    scope it yields that scope's lists, which are dropped when the
    outermost scope exits."""
    shared = _SHARED.get()
    if shared is not None:
        yield shared
        return
    shared = {}
    token = _SHARED.set(shared)
    try:
        yield shared
    finally:
        _SHARED.reset(token)


def _class_list(a: Algebra, b: Algebra, cls: RelationClass, budget: int | None) -> list[Relation]:
    """The compatible relations A -> B of class ARBITRARY, REFLEXIVE or
    EQUIVALENCE (the last two with B = A), lexicographic: built once per
    key of the open ``_shared_classes`` scope, or of a scope opened for
    this call alone.  The budget is resolved, and so checked, for every
    class; congruences are keyed without it."""
    budget = resolve_budget(budget, DEFAULT_ENUM_BUDGET)
    eq = cls is RelationClass.EQUIVALENCE
    with _shared_classes() as shared:
        key = (a, b, cls, None if eq else budget)
        if key not in shared:
            try:
                # choice is free off the class's least matrix: empty, or the diagonal
                base = np.eye(a.size, b.size, dtype=bool) & (cls is not RelationClass.ARBITRARY)
                shared[key] = all_congruences(a) if eq else _subalgebras(a, b, base, budget)
            except BudgetError as err:
                shared[key] = err
        got = shared[key]
    if isinstance(got, BudgetError):
        raise BudgetError(str(got))
    return list(got)


def enumerate_compatible_relations(
    a: Algebra, b: Algebra | None = None, budget: int | None = None
) -> list[Relation]:
    """All compatible relations A -> B (subalgebras of A x B), lexicographic,
    found as joins of principal closures.

    Raises ShapeError when A and B have different signatures, and
    BudgetError, before any closure runs, when the 2**(|A| * |B|)
    candidate relations exceed the budget; the budget still counts every
    candidate, not the relations found.
    """
    if b is not None and dict(a.sig.ops) != dict(b.sig.ops):
        raise ShapeError(
            f"{a.name} has signature {list(a.sig.ops)} but {b.name} has {list(b.sig.ops)}"
        )
    return _class_list(a, a if b is None else b, RelationClass.ARBITRARY, budget)


def _class(cls: RelationClass) -> RelationClass:
    """``cls``, refused with its name unless it is a RelationClass."""
    if not isinstance(cls, RelationClass):
        raise ValueError(f"not a RelationClass: {cls!r}")
    return cls


def enumerate_class_relations(
    a: Algebra, cls: RelationClass, budget: int | None = None
) -> list[Relation]:
    """All compatible relations on A in the given class, lexicographic.
    REFLEXIVE_POSITIVE is not enumerated: it is the positive members of
    the REFLEXIVE list, in the same order."""
    if _class(cls) is RelationClass.REFLEXIVE_POSITIVE:
        return [r for r in _class_list(a, a, RelationClass.REFLEXIVE, budget) if is_positive(r)]
    return _class_list(a, a, cls, budget)


def _listed(a: Algebra, b: Algebra | None, cls: RelationClass, budget: int | None) -> list[Relation]:
    """The complete list of ``cls`` on A (A -> B for ARBITRARY, B = A when
    None), through the public ``enumerate_*``, whose BudgetError sends a
    check to its ``_TupleSearch``."""
    if cls is RelationClass.ARBITRARY:
        return enumerate_compatible_relations(a, b, budget)
    return enumerate_class_relations(a, cls, budget)


def _read(rels: list[Relation], row_cells: int) -> Iterator[tuple[list[Relation], np.ndarray]]:
    """``rels`` as (relations, stack) blocks of _STACK_CELLS cells, one
    relation making ``row_cells``."""
    for block in _blocks(rels, row_cells):
        yield block, np.array([x.members for x in block])


def _pairwise(f: Callable[[int, int], int], i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """f(i[k], j[k]) for every k of the broadcast index arrays i and j, as
    an array of their shape, with f called once per distinct pair."""
    i, j = np.broadcast_arrays(i, j)
    keys, inverse = np.unique(i.astype(np.int64) << 32 | j, return_inverse=True)
    got = np.array([f(*divmod(key, 1 << 32)) for key in keys.tolist()], dtype=np.intp)
    return got[inverse].reshape(i.shape)


class _Generated:
    """The members of one class that a ``_TupleSearch`` generates, numbered
    in order of first appearance, each the least member above some matrix
    (see ``algebras._least``).  ``cell[x, y]`` is the number of the least
    member above the cell (x, y) of A x B, its principal member; the other
    members are joins of principal ones, memoised per pair of numbers.  A
    matrix met once, as a seed or as a member, is keyed by its packed bits
    and not closed again."""

    def __init__(self, search: _TupleSearch, cls: RelationClass):
        self.search, self.cls = search, cls
        self.mats: list[np.ndarray] = []
        self.ids: dict[bytes, int] = {}
        self.joins: dict[tuple[int, int], int] = {}
        shape = (search.a.size, search.b.size)
        self.stack = np.zeros((0, *shape), dtype=bool)
        cells = np.eye(shape[0] * shape[1], dtype=bool).reshape(-1, *shape)
        self.cell = np.array([self.least(m) for m in cells]).reshape(shape)

    def least(self, m: np.ndarray) -> int:
        """The number of the least member containing the matrix ``m``."""
        key = np.packbits(m).tobytes()
        if key not in self.ids:
            self.search.spend()
            g = _least(self.search.a, self.search.b, self.cls, m)
            self.ids[key] = self.ids.setdefault(np.packbits(g).tobytes(), len(self.mats))
            if self.ids[key] == len(self.mats):
                self.mats.append(g)
        return self.ids[key]

    def join(self, i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        if key not in self.joins:
            self.joins[key] = self.least(self.mats[i] | self.mats[j])
        return self.joins[key]

    def joined(self, *ids: np.ndarray) -> np.ndarray:
        """The joins of the members numbered by the broadcast arrays
        ``ids``, in a balanced tree: ((i0 v i1) v (i2 v i3))."""
        while len(ids) > 1:
            ids = [_pairwise(self.join, *ids[k:k + 2]) if k + 1 < len(ids) else ids[k]
                   for k in range(0, len(ids), 2)]
        return ids[0]

    def stacked(self) -> np.ndarray:
        """Every member so far as one stack, indexed by number."""
        if len(self.stack) < len(self.mats):
            self.stack = np.array(self.mats)
        return self.stack

    def relation(self, i: int) -> Relation:
        """Member ``i`` as a Relation, checked once more for compatibility."""
        a, b = self.search.a, self.search.b
        rel = Relation(a.carrier, b.carrier, self.mats[i])
        if not _is_compatible_between(a, b, rel.members[None])[0]:
            raise RuntimeError(f"search generated an incompatible relation {rel.pairs()}")
        return rel


class _TupleSearch:
    """One check decided over tuples of elements, in lexicographic order, a
    block of tuples at a time, where the 2^k gate refuses a list: each
    tuple's violation holds of some relation of the class iff it holds of
    the least members generated from the tuple's pairs (see _Generated,
    one per class of the check).  The closures of every class share one
    budget, the resolved enumeration budget; the closure past it raises
    BudgetError, naming the budget and the tuples decided, and the check
    is "inconclusive"."""

    def __init__(self, a: Algebra, b: Algebra | None, budget: int | None):
        self.a, self.b = a, a if b is None else b
        self.budget = resolve_budget(budget, DEFAULT_ENUM_BUDGET)
        self.closures = self.tried = 0

    def spend(self) -> None:
        if self.closures == self.budget:
            raise BudgetError(
                f"search exhausted budget {self.budget} closures after {self.tried} tuples"
            )
        self.closures += 1

    def first(self, bad: np.ndarray) -> tuple[int, ...] | None:
        """The index of the first violating tuple of a block, in order; None
        when there is none, and the block's tuples are decided."""
        if bad.any():
            return tuple(int(k) for k in np.unravel_index(bad.argmax(), bad.shape))
        self.tried += bad.size
        return None

    def decide(self, check: Callable[..., SLResult], *args) -> SLResult:
        try:
            return check(self, *args)
        except BudgetError as e:
            return SLResult("inconclusive", reason=str(e))


def _tuple_blocks(sizes: tuple[int, ...]) -> Iterator[tuple]:
    """The tuples with ``sizes[i]`` values of variable i, in lexicographic
    order, a block per value of all but the last three variables (at least
    one): the leading variables as ints, the rest as ``np.ogrid`` arrays."""
    lead = max(1, len(sizes) - 3)
    grid = np.ogrid[tuple(slice(n) for n in sizes[lead:])]
    for head in itertools.product(*map(range, sizes[:lead])):
        yield (*head, *grid)


def _shifting_tuples(
    search: _TupleSearch, class_r: RelationClass, class_s: RelationClass, class_t: RelationClass
) -> SLResult:
    """The quantified Shifting Lemma by quadruples (x, y, u, v), a block per
    x.  With R' = <(x,y), (u,v)> in R's class, S' = <(x,u), (y,v)> in S's
    and T' = <R' ^ S' + (x,y)> in T's, some triple of the classes violates
    the lemma at (x, y, u, v) iff (u, v) is not in T': a violating T holds
    R ^ S >= R' ^ S' and (x, y), so T >= T'.  The first such quadruple is
    also the least one of its own triple (R', S', T')."""
    classes = {c: _Generated(search, c) for c in dict.fromkeys((class_r, class_s, class_t))}
    gr, gs, gt = classes[class_r], classes[class_s], classes[class_t]
    for x, y, u, v in _tuple_blocks((search.a.size,) * 4):
        r = gr.joined(gr.cell[x, y], gr.cell[u, v])
        s = gs.joined(gs.cell[x, u], gs.cell[y, v])
        meets = _pairwise(lambda i, j: gt.least(gr.mats[i] & gs.mats[j]), r, s)
        t = gt.joined(meets, gt.cell[x, y])
        k = search.first(~gt.stacked()[t, u, v])
        if k is not None:
            triple = (gr.relation(r[k]), gs.relation(s[k]), gt.relation(t[k]))
            return SLResult("violated", quadruple=(x, *k), triple=triple)
    return SLResult("holds")


_LOCAL = {
    "holds": lambda stack, ids, i, j: stack[ids, i, j],
    "preimage": lambda stack, ids, i, j: (stack[ids, :, i] & stack[ids, :, j]).any(-1),
}


@dataclass(frozen=True)
class _Sweep:
    """A fact of every compatible D: A -> B (B = A but for ARBITRARY) of
    ``cls``.  The stacked ``predicate`` (see
    ``relations._equivalence_stack``) decides a complete list, and a
    failing D is reported as (D, D, D) with ``reason``.  Where the gate
    refuses the list, the fact is searched over the tuples of the
    variables ``names``, each ranging over the side of A x B that
    ``sides`` gives: the fact fails iff some tuple's D', the least member
    above the ``cells`` (pairs of variables, A's first), fails the local
    ``test`` at a pair (i, j) of variables: "holds ij", D' holds (i, j),
    or "preimage ij", i and j share a preimage in D' (see ``_LOCAL``)."""

    cls: RelationClass
    predicate: Callable[[np.ndarray], np.ndarray]
    reason: str
    names: str
    sides: str
    cells: str
    test: str


# D D-op D = D needs D' = <(x,u), (y,u), (y,v)> to hold (x, v).  The
# Goursat identity says D D-op, which ``relations._goursat_stack``
# squares, is transitive, so x and z share a preimage in D' = <(p,x),
# (p,y), (q,y), (q,z)>.  A tolerance <(x,y), (y,z)> must hold (x, z).
_DIFUNCTIONAL = _Sweep(RelationClass.ARBITRARY, _difunctional_stack, "not difunctional",
                       "xyuv", "AABB", "xu yu yv", "holds xv")
_GOURSAT = _Sweep(RelationClass.ARBITRARY, _goursat_stack, "identity fails",
                  "xyzpq", "BBBAA", "px py qy qz", "preimage xz")
_TOLERANCES = _Sweep(RelationClass.REFLEXIVE_POSITIVE, _equivalence_stack, "not an equivalence",
                     "xyz", "AAA", "xy yz", "holds xz")
# The E facts, for every reflexive compatible E.  E E-op is reflexive and
# symmetric, so an equivalence iff transitive: E's Goursat identity.  x and
# y share an image in E' = <(x,m), (y,m)>, so a preimage if E-op E <= E E-op;
# REFLEXIVE is closed under opposite, so this decides the other inclusion.
_EE_SWEEPS = {
    "ee_op_is_equivalence": replace(_GOURSAT, cls=RelationClass.REFLEXIVE,
                                    reason="E E-op not transitive"),
    "ee_op_equals_op_ee": _Sweep(RelationClass.REFLEXIVE, _commuting_stack, "E E-op is not E-op E",
                                 "xym", "AAA", "xm ym", "preimage xy"),
}


def _swept(search: _TupleSearch, sweep: _Sweep) -> SLResult:
    """``sweep`` over the members of its class that ``search`` generates, a
    ``_tuple_blocks`` block at a time: a tuple's D' joins its cells'
    principal members, and the first D' to fail the local test is (D', D', D')."""
    d = _Generated(search, sweep.cls)
    cells = [tuple(map(sweep.names.index, cell)) for cell in sweep.cells.split()]
    kind, pair = sweep.test.split()
    i, j = map(sweep.names.index, pair)
    for t in _tuple_blocks(tuple(d.cell.shape["AB".index(side)] for side in sweep.sides)):
        ids = d.joined(*(d.cell[t[p], t[q]] for p, q in cells))
        k = search.first(~_LOCAL[kind](d.stacked(), ids, t[i], t[j]))
        if k is not None:
            rel = d.relation(ids[k])
            return SLResult("violated", triple=(rel, rel, rel), reason=sweep.reason)
    return SLResult("holds")


def _sweep(a: Algebra, b: Algebra | None, sweep: _Sweep, budget: int | None) -> SLResult:
    """Whether ``sweep`` holds of every compatible D: A -> B (B = A when
    None) of its class, in its list's ``_read`` blocks, or by ``_swept``
    when the gate refuses the list: a search past the budget is
    "inconclusive"."""
    try:
        rels = _listed(a, b, sweep.cls, budget)
    except BudgetError:
        return _TupleSearch(a, b, budget).decide(_swept, sweep)
    for block, stack in _read(rels, rels[0].members.size):
        ok = sweep.predicate(stack)
        if not ok.all():
            d = block[int(ok.argmin())]
            return SLResult("violated", triple=(d, d, d), reason=sweep.reason)
    return SLResult("holds")


def shifting_lemma_forall(
    a: Algebra,
    class_r: RelationClass,
    class_s: RelationClass,
    class_t: RelationClass,
    budget: int | None = None,
) -> SLResult:
    """Shifting Lemma quantified over all compatible relations of the given
    classes on A.  Each distinct class is listed once, S's first, within
    one ``_shared_classes`` scope (the caller's, if one is open), so each
    enumeration is built once: REFLEXIVE_POSITIVE reads the REFLEXIVE list.

    For each R in order, ``_shift_stack`` decides a block of S, in
    ``_read`` blocks of _STACK_CELLS cells of (S, T) matrices, against one
    stack of every T: it skips the (S, T) that fail R ^ S <= T and gives
    the first violating (S, T) in row-major order, with its least
    quadruple, so the triple is the first in lexicographic order.  When
    the gate refuses any class, the check is decided by quadruples
    instead (see _shifting_tuples): a violation then reports the least
    violating quadruple and the triple generated from it, and the check
    is "inconclusive" only when the search exhausts the budget, counted
    in closures."""
    try:
        with _shared_classes():
            got = {
                cls: _listed(a, None, cls, budget)
                for cls in dict.fromkeys(map(_class, (class_s, class_r, class_t)))
            }
    except BudgetError:
        return _TupleSearch(a, None, budget).decide(_shifting_tuples, class_r, class_s, class_t)
    rs, ss, ts = got[class_r], got[class_s], got[class_t]
    stack_t = np.array([t.members for t in ts])
    s_blocks = list(_read(ss, stack_t.size))
    for r in rs:
        for s_block, stack_s in s_blocks:
            _, bad = _shift_stack(r.members, stack_s, stack_t)
            if bad is not None:
                j, i, quadruple = bad
                return SLResult("violated", quadruple=quadruple, triple=(r, s_block[j], ts[i]))
    return SLResult("holds")


def permutability(r: Relation, s: Relation) -> dict:
    """Classify a congruence pair as 2-permuting (RS = SR), 3-permuting
    (RSR = SRS) or neither, returning all four composites."""
    if not is_equivalence(r) or not is_equivalence(s):
        raise PreconditionError("R and S must be equivalence relations")
    rs, sr = compose(r, s), compose(s, r)
    rsr, srs = compose(r, sr), compose(s, rs)
    level = "2-permute" if rs == sr else "3-permute" if rsr == srs else "neither"
    return {"level": level, "RS": rs, "SR": sr, "RSR": rsr, "SRS": srs}


def difunctional_all(
    a: Algebra, b: Algebra | None = None, budget: int | None = None
) -> SLResult:
    """Whether every compatible relation D: A -> B satisfies D D-op D = D."""
    return _sweep(a, b, _DIFUNCTIONAL, budget)


def goursat_identity_all(
    a: Algebra, b: Algebra | None = None, budget: int | None = None
) -> SLResult:
    """Whether every compatible D: A -> B satisfies (D D-op)(D D-op) = D D-op."""
    return _sweep(a, b, _GOURSAT, budget)


def _fact(got: SLResult) -> bool | str:
    """A sweep's outcome as True, False or "inconclusive: …"."""
    return f"inconclusive: {got.reason}" if got.verdict == "inconclusive" else got.holds


def reflexive_positive_all_equivalence(a: Algebra, budget: int | None = None) -> bool | str:
    """Whether every reflexive positive compatible relation on A is an
    equivalence, or "inconclusive: …" when the search of a list the budget
    refuses exhausts that budget in closures."""
    return _fact(_sweep(a, None, _TOLERANCES, budget))


def _ee_sweeps(a: Algebra, budget: int | None = None) -> dict[str, SLResult]:
    """The facts of ``ee_properties`` that depend on E, by _sweep for every
    reflexive compatible E on A."""
    return {key: _sweep(a, None, sweep, budget) for key, sweep in _EE_SWEEPS.items()}


def ee_properties(a: Algebra, e: Relation) -> dict:
    """Symmetrization facts for one reflexive compatible E, plus whether
    every reflexive positive compatible relation on A is an equivalence,
    ``reflexive_positive_all_equivalence(a)`` under the default budget."""
    _require_reflexive_compatible(a, e)
    ee_op = compose(e, opposite(e))
    op_ee = compose(opposite(e), e)
    return {
        "ee_op_is_equivalence": is_equivalence(ee_op),
        "ee_op_equals_op_ee": ee_op == op_ee,
        "reflexive_positive_all_equivalence": reflexive_positive_all_equivalence(a),
    }
