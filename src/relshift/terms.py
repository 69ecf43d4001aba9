"""Bounded generation of ternary term operations and term-condition search.

The ternary clone of a finite algebra is generated from the three
projections by pointwise application of the basic operations.  The clone
budget counts every function kept, projections and constants included.
Searches for the Mal'tsev and the 3-permutability term conditions run over
the generated functions:

* Mal'tsev (2-permutable): p with p(x,y,y) = x and p(x,x,y) = y;
* 3-permutable: a pair (r, s) with r(x,y,y) = x, r(x,x,y) = s(x,y,y)
  and s(x,x,y) = y.

A generated clone is one read-only (members, n**3) matrix of flat tables in
the smallest unsigned dtype for n.  Each round evaluates an operation by
flat ``take`` calls over chunks of argument tuples, keeps the new rows of
each chunk in one membership pass and, when it looks for a Mal'tsev
member, tests the whole chunk for one at once.  Generation records a kept
chunk only as its operation, the callable that gives the arguments of its
rows and the indices of the rows kept; ``CloneResult.steps`` builds the
argument member indices from them on first read, and the derivation
trees, which let a reported term be checked by hand against the
signature, are replayed from the steps on the first read of
``CloneResult.terms``.  The searches read t(x,y,y) and t(x,x,y) of all
members at once.  Both searches generate the clone only up to its first
Mal'tsev member p: member 0 is the projection x, which satisfies
r(x,y,y) = x and pairs only with Mal'tsev terms s, so when p exists
(x, p) is the least 3-permutability pair; without p the clone is the full
or the budget-cut one.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebras import Algebra
from .checks import resolve_budget
from .relations import _is_int

__all__ = [
    "TermFunction",
    "CloneResult",
    "TermSearchResult",
    "DEFAULT_CLONE_BUDGET",
    "generate_ternary_clone",
    "find_maltsev_term",
    "find_3perm_terms",
]

DEFAULT_CLONE_BUDGET = 5000

Term = str | tuple  # "x" | "y" | "z" | (opname, child, ...)


def term_to_sexpr(term: Term) -> str:
    if isinstance(term, str):
        return term
    op, *children = term
    if not children:
        return f"({op})"
    return "(" + op + " " + " ".join(term_to_sexpr(c) for c in children) + ")"


@dataclass(frozen=True)
class TermFunction:
    """A ternary term operation: flat table of length size**3 + derivation."""

    size: int
    table: tuple[int, ...]
    term: Term

    def sexpr(self) -> str:
        return term_to_sexpr(self.term)

    def __call__(self, x: int, y: int, z: int) -> int:
        n = self.size
        for v in (x, y, z):
            if not (_is_int(v) and 0 <= v < n):
                raise ValueError(f"argument {v!r} is not an integer in range for size {n}")
        return self.table[(x * n + y) * n + z]


@dataclass(frozen=True, eq=False)
class CloneResult:
    """A generated ternary clone on ``size`` elements.

    ``tables`` is the read-only (members, size**3) matrix of the members'
    flat tables, in clone order and in the smallest unsigned dtype that
    holds the elements.  ``steps`` derives the members in the same order,
    one step per kept chunk: (None, [js]) keeps the projections "xyz"[j],
    and (op, args) applies ``op`` to the members whose indices ``args``
    lists per argument position, one new member per index, or once for a
    nullary ``op``; no step derives a member past the budget.  Generation
    tests each chunk once for a Mal'tsev member and records a kept chunk
    only as ``chunks``: its operation, the callable that gives the
    arguments of its rows, and the indices of the rows kept.  ``steps``
    is built from them on first access, and ``terms`` and ``functions``
    from ``steps``.
    """

    size: int
    tables: np.ndarray
    chunks: tuple[tuple[str | None, Callable, list[int]], ...] = field(repr=False)
    complete: bool
    budget: int

    @cached_property
    def steps(self) -> tuple[tuple[str | None, list[list[int]]], ...]:
        """The members' derivations, one step per kept chunk."""
        return tuple((op, args_of(np.array(js))) for op, args_of, js in self.chunks)

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        """The members' derivation trees, in clone order."""
        terms: list[Term] = []
        for op, args in self.steps:
            if op is None:
                terms.extend(map("xyz".__getitem__, args[0]))
            elif not args:
                terms.append((op,))
            else:
                children = [list(map(terms.__getitem__, col)) for col in args]
                terms.extend(zip(itertools.repeat(op), *children))
        return tuple(terms)

    def function(self, i: int) -> TermFunction:
        """Member ``i`` as a TermFunction."""
        if not (_is_int(i) and 0 <= i < len(self.tables)):
            raise ValueError(f"member {i!r} is not an integer in 0..{len(self.tables) - 1}")
        return TermFunction(self.size, tuple(self.tables[i].tolist()), self.terms[i])

    @cached_property
    def functions(self) -> tuple[TermFunction, ...]:
        return tuple(map(self.function, range(len(self.tables))))


@dataclass(frozen=True)
class TermSearchResult:
    """Outcome of a term search.

    status is "found", "not_found" (clone complete, no term exists) or
    "inconclusive" (budget exhausted before the clone closed).
    """

    status: str
    terms: tuple[TermFunction, ...] = ()

    @property
    def found(self) -> bool:
        return self.status == "found"


def _table_dtype(n: int) -> np.dtype:
    """The smallest unsigned dtype that holds the elements 0..n-1."""
    return np.min_scalar_type(n - 1)


def _identity_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat table columns of t(x,y,y), then of t(x,x,y), over the pairs
    (x, y); and the values x, then y, that a Mal'tsev term takes there."""
    x, y = np.divmod(np.arange(n * n), n)
    columns = np.concatenate([(x * n + y) * n + y, (x * n + x) * n + y])
    return columns, np.concatenate([x, y])


# cells evaluated per flat ``take`` when the argument tuples allow it
CHUNK_CELLS = 1 << 16


def _blocks(f: np.ndarray, arity: int, tables: np.ndarray, start: int):
    """Evaluate the operation table ``f`` on the argument tuples over the
    ``tables`` of the clone members with at least one index at or past
    ``start``, so every tuple is visited in exactly one round.

    Yields (block, args_of) in lexicographic order of the tuples: the rows
    of ``block`` are the results, and ``args_of(js)`` gives the arguments of
    the rows ``js`` as one list of member indices per argument position.
    Consecutive tuples whose last index runs over the same range are
    evaluated by one flat ``take`` of at most about ``CHUNK_CELLS`` cells.
    """
    end, m = tables.shape
    if arity == 0:
        yield np.full((1, m), f, f.dtype), lambda js: []
        return
    if arity == 1:
        yield f.take(tables[start:end]), lambda js: [(js + start).tolist()]
        return
    n = len(f)
    f = f.ravel()
    # flat indices into f, in the smallest unsigned dtype that holds them
    wide = tables.astype(_table_dtype(n**arity)) * n
    for lead in itertools.product(range(end), repeat=arity - 2):
        base = sum((wide[i] * n ** (arity - 2 - k) for k, i in enumerate(lead)), 0)
        fresh = any(i >= start for i in lead)
        # (first, stop, lo): the second-last index runs over first..stop-1,
        # the last one over lo..end-1
        runs = [(0, end, 0)] if fresh else [(0, start, start), (start, end, 0)]
        for first, stop, lo in runs:
            rows = end - lo
            step = max(1, CHUNK_CELLS // (rows * m))
            for c in range(first, stop, step):
                idx = (base + wide[c : min(c + step, stop)])[:, None, :] + tables[lo:end]

                def args_of(js, c=c, lo=lo, rows=rows, lead=lead):
                    mids, lasts = np.divmod(js, rows)
                    leads = ([i] * len(js) for i in lead)
                    return [*leads, (mids + c).tolist(), (lasts + lo).tolist()]

                yield f.take(idx.reshape(-1, m)), args_of


def generate_ternary_clone(
    a: Algebra, budget: int | None = None, *, until_maltsev: bool = False
) -> CloneResult:
    """Close the three projections under A's basic operations, pointwise.

    Deterministic: functions appear in breadth-first rounds, within a round
    ordered by operation and argument indices.  ``complete`` is set iff the
    fixpoint was reached within the budget; otherwise the first ``budget``
    functions are returned.

    With ``until_maltsev``, generation stops right after it keeps the first
    member p with p(x,y,y) = x and p(x,x,y) = y, as the last member of a
    clone with ``complete`` False; without such a member within the budget
    the clone is the same as without the flag.  Member 0 is always the
    projection x, so when p exists (x, p) is also the least 3-permutability
    pair and this clone answers both term searches.
    """
    budget = resolve_budget(budget, DEFAULT_CLONE_BUDGET)
    if budget < 3:
        raise ValueError("budget must allow at least the three projections")
    n, m = a.size, a.size**3
    dtype = _table_dtype(n)
    row_type = np.dtype((np.void, m * dtype.itemsize))
    columns, values = _identity_columns(n)
    values = values.astype(dtype)  # the table dtype: rows compare without a cast
    members: dict[bytes, None] = {}  # table bytes, in clone order

    def keep(block: np.ndarray) -> tuple[list[int], bool]:
        """Keep the new rows of ``block`` in order.  Returns their indices
        and whether generation stops: at the first new row past the budget,
        which is not kept, or, with ``until_maltsev``, once a Mal'tsev
        member is kept."""
        new, stop = [], False
        room = budget - len(members)
        for j, row in enumerate(block.view(row_type).ravel().tolist()):
            if row not in members:
                if len(new) == room:  # a new member past the budget: the cut
                    stop = True
                    break
                members[row] = None
                new.append(j)
        if until_maltsev and new:
            # one test of the whole chunk; its first Mal'tsev row was kept
            # unless it lies past the cut: a row or member equal to it and
            # met earlier would have been a Mal'tsev member before it
            hits = np.flatnonzero((block[:, columns] == values).all(1))
            if len(hits) and hits[0] <= new[-1]:
                p = new.index(hits[0])
                for _ in new[p + 1 :]:  # the members kept after p
                    members.popitem()
                del new[p + 1 :]
                stop = True
        return new, stop

    def result(complete: bool) -> CloneResult:
        tables = np.frombuffer(b"".join(members), dtype).reshape(-1, m)
        return CloneResult(n, tables, tuple(chunks), complete, budget)

    new, stop = keep(np.indices((n, n, n), dtype).reshape(3, m))
    chunks = [(None, lambda js: [js.tolist()], new)]
    start = 0
    while not stop and start < len(members):
        end = len(members)
        tables = np.frombuffer(b"".join(members), dtype).reshape(end, m)
        for op, arity in a.sig.ops:
            f = a.table_array(op).astype(dtype)
            for block, args_of in _blocks(f, arity, tables, start):
                new, stop = keep(block)
                if new:
                    chunks.append((op, args_of, new))
                if stop:
                    return result(False)
        start = end
    return result(not stop)


def _identities(clone: CloneResult) -> tuple[np.ndarray, ...]:
    """For every clone member t, in clone order: t(x,y,y) and t(x,x,y) as
    rows over the pairs (x, y), whether t(x,y,y) = x and whether t(x,x,y) = y."""
    columns, identity = _identity_columns(clone.size)
    values = clone.tables[:, columns]
    ok = values == identity
    k = clone.size**2  # the pairs (x, y): t(x,y,y) is values[:, :k]
    return values[:, :k], values[:, k:], ok[:, :k].all(axis=1), ok[:, k:].all(axis=1)


def find_maltsev_term(a: Algebra, budget: int | None = None) -> TermSearchResult:
    """Least clone element p with p(x,y,y) = x and p(x,x,y) = y."""
    return _maltsev_term(generate_ternary_clone(a, budget, until_maltsev=True))


def find_3perm_terms(a: Algebra, budget: int | None = None) -> TermSearchResult:
    """Least clone pair (r, s) with r(x,y,y)=x, r(x,x,y)=s(x,y,y), s(x,x,y)=y."""
    return _3perm_terms(generate_ternary_clone(a, budget, until_maltsev=True))


def _maltsev_term(clone: CloneResult) -> TermSearchResult:
    """``find_maltsev_term`` over a clone already generated."""
    _, _, left_ok, right_ok = _identities(clone)
    hits = np.flatnonzero(left_ok & right_ok)
    if len(hits):
        return TermSearchResult("found", (clone.function(hits[0]),))
    return TermSearchResult("not_found" if clone.complete else "inconclusive")


def _3perm_terms(clone: CloneResult) -> TermSearchResult:
    """``find_3perm_terms`` over a clone already generated."""
    xyy, xxy, left_ok, right_ok = _identities(clone)
    least_s: dict[bytes, int] = {}  # s(x,y,y) -> least s with s(x,x,y) = y
    for i in np.flatnonzero(right_ok):
        least_s.setdefault(xyy[i].tobytes(), i)
    for i in np.flatnonzero(left_ok):
        s = least_s.get(xxy[i].tobytes())
        if s is not None:
            return TermSearchResult("found", (clone.function(i), clone.function(s)))
    return TermSearchResult("not_found" if clone.complete else "inconclusive")
