"""Decision procedures for the Shifting-Lemma family.

All quantifier scans are exhaustive over the finite carriers; every
"violated" verdict carries the lexicographically least witness so outputs
are stable, and every budget-limited scan reports "inconclusive" rather
than silently passing.

A complete class list is decided on stacks, a block of _STACK_CELLS
cells at a time: ``_shift_stack`` takes a stack of S and a stack of T,
the sweeps take the stacked predicates of ``relations``, and each
enumeration re-checks its relations' compatibility in one call.  A
single relation or triple is a stack of one.  A searched stream is read
in blocks of 1, 2, 4, ... relations, so that a search reads little past
its first counterexample, and a block the budget cuts short is decided
on the relations it holds.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .algebras import (
    Algebra,
    PreconditionError,
    _blocks,
    _closed_above,
    _is_compatible_between,
    _joins,
    _principal_closures,
    _require_reflexive_compatible,
    _stack_closer,
    all_congruences,
)
from .relations import (
    Relation,
    ShapeError,
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


class RelationClass(Enum):
    ARBITRARY = "arbitrary"
    REFLEXIVE = "reflexive"
    REFLEXIVE_POSITIVE = "reflexive-positive"
    EQUIVALENCE = "equivalence"

    @classmethod
    def parse(cls, text: str) -> "RelationClass":
        aliases = {
            "arbitrary": cls.ARBITRARY,
            "any": cls.ARBITRARY,
            "refl": cls.REFLEXIVE,
            "reflexive": cls.REFLEXIVE,
            "reflpos": cls.REFLEXIVE_POSITIVE,
            "refl-pos": cls.REFLEXIVE_POSITIVE,
            "reflexive-positive": cls.REFLEXIVE_POSITIVE,
            "eq": cls.EQUIVALENCE,
            "equiv": cls.EQUIVALENCE,
            "equivalence": cls.EQUIVALENCE,
        }
        try:
            return aliases[text.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown relation class {text!r}") from None


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


def _class_base(a: Algebra, b: Algebra, cls: RelationClass) -> np.ndarray:
    """The least matrix A -> B of class ARBITRARY (empty) or, for the
    other classes, REFLEXIVE (the diagonal): choice is free off it."""
    base = np.zeros((a.size, b.size), dtype=bool)
    if cls is not RelationClass.ARBITRARY:
        np.fill_diagonal(base, True)
    return base


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
                base = _class_base(a, b, cls)
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


def enumerate_class_relations(
    a: Algebra, cls: RelationClass, budget: int | None = None
) -> list[Relation]:
    """All compatible relations on A in the given class, lexicographic.
    REFLEXIVE_POSITIVE is not enumerated: it is the positive members of
    the REFLEXIVE list, in the same order."""
    if cls is RelationClass.REFLEXIVE_POSITIVE:
        return list(_of_class(cls, _class_list(a, a, RelationClass.REFLEXIVE, budget)))
    return _class_list(a, a, cls, budget)


class _Search:
    """The relations of one check, class by class (see ``members``): a
    complete list, or a search stream of the compatible relations A -> B
    (B = A when None) of the class containing a base, in class order, by
    ``algebras._closed_above``.  The streams share one budget of
    closures, the resolved enumeration budget, and compute the principal
    closures of each class base once; a stream that would run one closure
    more raises BudgetError, naming the budget and the relations
    produced."""

    def __init__(self, a: Algebra, b: Algebra | None, budget: int | None):
        self.a, self.b, self.given = a, a if b is None else b, budget
        self.budget = resolve_budget(budget, DEFAULT_ENUM_BUDGET)
        self.closures = self.produced = 0
        self.principals: dict[bool, dict] = {}
        self.kept: dict[bool, _Kept] = {}

    def spend(self) -> None:
        if self.closures == self.budget:
            raise BudgetError(
                f"search exhausted budget {self.budget} closures after {self.produced} relations"
            )
        self.closures += 1

    def members(self, cls: RelationClass, keep: bool = False) -> Iterable[Relation]:
        """The relations of ``cls`` in class order: their list, through the
        public ``enumerate_*``, when the 2^k gate admits it; else the
        stream of the class they are drawn from, ARBITRARY or else
        REFLEXIVE, only its positive members for REFLEXIVE_POSITIVE.  A
        stream asked for with ``keep`` is kept (see _Kept), and every later
        request drawn from the same class reads it, so that its closures
        run once."""
        try:
            if cls is RelationClass.ARBITRARY:
                return enumerate_compatible_relations(self.a, self.b, self.given)
            return enumerate_class_relations(self.a, cls, self.given)
        except BudgetError:
            reflexive = cls is not RelationClass.ARBITRARY
            drawn = self.kept.get(reflexive)
            if drawn is None:
                drawn = self.stream(cls)
                if keep:
                    drawn = self.kept[reflexive] = _Kept(drawn)
            rels = _of_class(cls, drawn)
            return _Kept(rels) if keep and cls is RelationClass.REFLEXIVE_POSITIVE else rels

    def stream(self, cls: RelationClass, above: np.ndarray | None = None) -> Iterator[Relation]:
        """The relations of class ARBITRARY, or else REFLEXIVE, containing
        ``above``, in class order; REFLEXIVE_POSITIVE reads the REFLEXIVE
        stream (see _of_class)."""
        reflexive = cls is not RelationClass.ARBITRARY
        base = _class_base(self.a, self.b, cls)
        if reflexive not in self.principals:
            self.principals[reflexive] = _principal_closures(self.a, self.b, base, self.spend)
        bottom = base if above is None else base | above
        for rel in _closed_above(self.a, self.b, bottom, self.principals[reflexive], self.spend):
            self.produced += 1
            yield rel


def _of_class(cls: RelationClass, rels: Iterable[Relation]) -> Iterable[Relation]:
    """``rels``, only its positive members when ``cls`` is REFLEXIVE_POSITIVE."""
    if cls is RelationClass.REFLEXIVE_POSITIVE:
        return (r for r in rels if is_positive(r))
    return rels


class _Kept:
    """The items of an iterator, read only when first needed and kept:
    every pass replays the prefix read so far, then reads on."""

    def __init__(self, items: Iterator):
        self.items, self.kept = items, []

    def __iter__(self) -> Iterator:
        for i in itertools.count():
            if i == len(self.kept):
                self.kept.extend(itertools.islice(self.items, 1))
                if i == len(self.kept):
                    return
            yield self.kept[i]


# The largest block a searched stream is read in.
_STREAM_BLOCK = 256


def _read(rels: Iterable[Relation], row_cells: int) -> Iterator[tuple[list[Relation], np.ndarray]]:
    """``rels`` as (relations, stack) blocks.  A complete list comes in
    blocks of _STACK_CELLS cells, one relation making ``row_cells``; a
    searched stream in blocks of 1, 2, 4, ... and at most _STREAM_BLOCK
    relations, since a search often stops at one of the first.  When a
    BudgetError cuts a block short, the relations read before it are
    yielded, and then the error is raised."""

    def doubling() -> Iterator[list[Relation]]:
        items, size = iter(rels), 1
        while True:
            block: list[Relation] = []
            try:
                for rel in itertools.islice(items, size):
                    block.append(rel)
            except BudgetError:
                if block:
                    yield block
                raise
            if not block:
                return
            yield block
            size = min(2 * size, _STREAM_BLOCK)

    for block in _blocks(rels, row_cells) if isinstance(rels, list) else doubling():
        yield block, np.array([x.members for x in block])


def shifting_lemma_forall(
    a: Algebra,
    class_r: RelationClass,
    class_s: RelationClass,
    class_t: RelationClass,
    budget: int | None = None,
) -> SLResult:
    """Shifting Lemma quantified over all compatible relations of the given
    classes on A.  Returns the first violation in lexicographic triple
    order.  Each distinct class is asked of ``_Search.members`` once, S's
    first and kept, within one ``_shared_classes`` scope (the caller's, if
    one is open), so each enumeration is built once and each stream read
    once: REFLEXIVE_POSITIVE and REFLEXIVE share the REFLEXIVE list, or
    S's kept stream.

    For each R in order, ``_shift_stack`` decides a stack of S against a
    stack of T at once: it skips the (S, T) that fail R ^ S <= T and gives
    the first violating (S, T) in row-major order, with its least
    quadruple, so the triple is the first in lexicographic order.  When
    the S and the T lists are both complete, S comes in ``_read`` blocks
    of _STACK_CELLS cells of (S, T) matrices against one stack of every T.
    Otherwise S comes one at a time, so that no closure is spent on S
    ahead of the T of the first S, and the T of a class the gate refuses
    are a fresh stream of its members containing R ^ S, in the doubling
    blocks of ``_read``, decided also when the budget cuts one short.
    Every stream is a subsequence of its class list, so the first
    violation is the one the lists give; the check is "inconclusive" only
    when the streams exhaust the budget, counted in closures."""
    search = _Search(a, None, budget)
    with _shared_classes():
        got = {
            cls: search.members(cls, keep=cls is class_s)
            for cls in dict.fromkeys((class_s, class_r, class_t))
        }
    rs, ss, ts = got[class_r], got[class_s], got[class_t]
    every_t = s_blocks = None
    if isinstance(ts, list):
        stack_t = np.array([t.members for t in ts])
        every_t = [(ts, stack_t)]
        if isinstance(ss, list):
            s_blocks = list(_read(ss, stack_t.size))

    def t_above(r: Relation, s: Relation) -> Iterator[tuple[list[Relation], np.ndarray]]:
        """The T containing R ^ S, in order, as (relations, stack) blocks."""
        rels = _of_class(class_t, search.stream(class_t, r.members & s.members))
        return _read(rels, r.members.size)

    try:
        for r in rs:
            for s_block, stack_s in s_blocks or (([s], s.members[None]) for s in ss):
                for t_block, stack in every_t or t_above(r, s_block[0]):
                    _, bad = _shift_stack(r.members, stack_s, stack)
                    if bad is not None:
                        j, i, quadruple = bad
                        triple = (r, s_block[j], t_block[i])
                        return SLResult("violated", quadruple=quadruple, triple=triple)
    except BudgetError as e:
        return SLResult("inconclusive", reason=str(e))
    return SLResult("holds")


def permutability(r: Relation, s: Relation) -> dict:
    """Classify a congruence pair as 2-permuting (RS = SR), 3-permuting
    (RSR = SRS) or neither, returning all four composites."""
    if not is_equivalence(r) or not is_equivalence(s):
        raise PreconditionError("R and S must be equivalence relations")
    rs = compose(r, s)
    sr = compose(s, r)
    rsr = compose(r, sr)
    srs = compose(s, rs)
    if rs == sr:
        level = "2-permute"
    elif rsr == srs:
        level = "3-permute"
    else:
        level = "neither"
    return {"level": level, "RS": rs, "SR": sr, "RSR": rsr, "SRS": srs}


def _sweep(
    a: Algebra,
    b: Algebra | None,
    cls: RelationClass,
    budget: int | None,
    holds: Callable[[np.ndarray], np.ndarray],
    reason: str,
) -> SLResult:
    """Whether the stacked predicate ``holds`` (see
    ``relations._equivalence_stack``) is true of every compatible D: A -> B
    (B = A when None) of ``cls``, read by ``_read`` in class order; the
    first D that fails is reported as the triple (D, D, D) with ``reason``,
    and a search that exhausts the budget before it as "inconclusive"."""
    search = _Search(a, b, budget)
    try:
        for block, stack in _read(search.members(cls), a.size * search.b.size):
            ok = holds(stack)
            if not ok.all():
                d = block[int(ok.argmin())]
                return SLResult("violated", triple=(d, d, d), reason=reason)
    except BudgetError as e:
        return SLResult("inconclusive", reason=str(e))
    return SLResult("holds")


def difunctional_all(
    a: Algebra, b: Algebra | None = None, budget: int | None = None
) -> SLResult:
    """Whether every compatible relation D: A -> B satisfies D D-op D = D."""
    return _sweep(a, b, RelationClass.ARBITRARY, budget, _difunctional_stack, "not difunctional")


def goursat_identity_all(
    a: Algebra, b: Algebra | None = None, budget: int | None = None
) -> SLResult:
    """Whether every compatible D: A -> B satisfies (D D-op)(D D-op) = D D-op."""
    return _sweep(a, b, RelationClass.ARBITRARY, budget, _goursat_stack, "identity fails")


def reflexive_positive_all_equivalence(a: Algebra, budget: int | None = None) -> bool | str:
    """Whether every reflexive positive compatible relation on A is an
    equivalence, or "inconclusive: …" when the search of a list the budget
    refuses exhausts that budget in closures."""
    cls = RelationClass.REFLEXIVE_POSITIVE
    got = _sweep(a, None, cls, budget, _equivalence_stack, "not an equivalence")
    return f"inconclusive: {got.reason}" if got.verdict == "inconclusive" else got.holds


def ee_properties(a: Algebra, e: Relation, *, sweep: bool | str | None = None) -> dict:
    """Symmetrization facts for one reflexive compatible E, plus whether
    every reflexive positive compatible relation on A is an equivalence.

    The last fact does not depend on E; ``sweep``, when given, is its value
    and is not computed again; otherwise it is
    ``reflexive_positive_all_equivalence(a)`` under the default budget.
    """
    _require_reflexive_compatible(a, e)
    ee_op = compose(e, opposite(e))
    op_ee = compose(opposite(e), e)
    return {
        "ee_op_is_equivalence": is_equivalence(ee_op),
        "ee_op_equals_op_ee": ee_op == op_ee,
        "reflexive_positive_all_equivalence": (
            reflexive_positive_all_equivalence(a) if sweep is None else sweep
        ),
    }
