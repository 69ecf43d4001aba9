"""Bounded generation of ternary term operations and term-condition search.

The ternary clone of a finite algebra is generated from the three
projections by pointwise application of the basic operations.  The clone
budget counts every function kept, projections and constants included.
Searches for the Mal'tsev and the 3-permutability term conditions run over
the generated functions:

* Mal'tsev (2-permutable): p with p(x,y,y) = x and p(x,x,y) = y;
* 3-permutable: a pair (r, s) with r(x,y,y) = x, r(x,x,y) = s(x,y,y)
  and s(x,x,y) = y.

Every generated function keeps its derivation tree so a reported term can
be checked by hand against the signature.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebras import Algebra
from .checks import resolve_budget

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
        return self.table[x * n * n + y * n + z]


@dataclass(frozen=True)
class CloneResult:
    functions: tuple[TermFunction, ...]
    complete: bool
    budget: int


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


def generate_ternary_clone(a: Algebra, budget: int | None = None) -> CloneResult:
    """Close the three projections under A's basic operations, pointwise.

    Deterministic: functions appear in breadth-first rounds, within a round
    ordered by operation and argument indices.  ``complete`` is set iff the
    fixpoint was reached within the budget; otherwise the first ``budget``
    functions are returned.
    """
    budget = resolve_budget(budget, DEFAULT_CLONE_BUDGET)
    if budget < 3:
        raise ValueError("budget must allow at least the three projections")
    n, m = a.size, a.size**3
    dtype = _table_dtype(n)
    width = m * dtype.itemsize
    known: dict[bytes, Term] = {}  # table bytes -> derivation term
    keys: list[bytes] = []  # table bytes, in clone order

    def keep(block: np.ndarray, term_of) -> bool:
        """Keep the new rows of ``block`` in order; True once past the budget."""
        data = block.tobytes()
        for j in range(len(block)):
            key = data[j * width : (j + 1) * width]
            if key not in known:
                known[key] = term_of(j)
                keys.append(key)
                if len(keys) > budget:
                    return True
        return False

    def result(complete: bool) -> CloneResult:
        fns = tuple(
            TermFunction(n, tuple(np.frombuffer(key, dtype).tolist()), known[key])
            for key in keys[:budget]
        )
        return CloneResult(fns, complete, budget)

    keep(np.indices((n, n, n), dtype).reshape(3, m), ("x", "y", "z").__getitem__)
    start = 0
    while start < len(keys):
        end = len(keys)
        tables = np.frombuffer(b"".join(keys), dtype).reshape(end, m)
        for op, arity in a.sig.ops:
            f = a.table_array(op).astype(dtype)
            if arity == 0:
                if keep(np.full((1, m), f, dtype), lambda j: (op,)):
                    return result(False)
                continue
            # argument tuples over tables[:end] with at least one index from
            # the latest round, so every combination is visited exactly once
            # across rounds; lexicographic, the last index in whole blocks
            for prefix in itertools.product(range(end), repeat=arity - 1):
                lo = 0 if any(i >= start for i in prefix) else start
                pre = tuple(known[keys[i]] for i in prefix)
                block = f[tuple(tables[i] for i in prefix) + (tables[lo:end],)]
                if keep(block, lambda j: (op, *pre, known[keys[lo + j]])):
                    return result(False)
        start = end
    return result(True)


def _identities(clone: CloneResult, n: int) -> tuple[np.ndarray, ...]:
    """For every clone member t, in clone order: t(x,y,y) and t(x,x,y) as
    rows over the pairs (x, y), whether t(x,y,y) = x and whether t(x,x,y) = y."""
    x, y = np.indices((n, n)).reshape(2, -1)
    tables = np.array([fn.table for fn in clone.functions], dtype=_table_dtype(n))
    xyy, xxy = tables[:, (x * n + y) * n + y], tables[:, (x * n + x) * n + y]
    return xyy, xxy, (xyy == x).all(axis=1), (xxy == y).all(axis=1)


def find_maltsev_term(a: Algebra, budget: int | None = None) -> TermSearchResult:
    """Least clone element p with p(x,y,y) = x and p(x,x,y) = y."""
    return _maltsev_term(generate_ternary_clone(a, budget), a.size)


def find_3perm_terms(a: Algebra, budget: int | None = None) -> TermSearchResult:
    """Least clone pair (r, s) with r(x,y,y)=x, r(x,x,y)=s(x,y,y), s(x,x,y)=y."""
    return _3perm_terms(generate_ternary_clone(a, budget), a.size)


def _maltsev_term(clone: CloneResult, n: int) -> TermSearchResult:
    """``find_maltsev_term`` over a clone already generated on n elements."""
    _, _, left_ok, right_ok = _identities(clone, n)
    hits = np.flatnonzero(left_ok & right_ok)
    if len(hits):
        return TermSearchResult("found", (clone.functions[hits[0]],))
    return TermSearchResult("not_found" if clone.complete else "inconclusive")


def _3perm_terms(clone: CloneResult, n: int) -> TermSearchResult:
    """``find_3perm_terms`` over a clone already generated on n elements."""
    xyy, xxy, left_ok, right_ok = _identities(clone, n)
    least_s: dict[bytes, int] = {}  # s(x,y,y) -> least s with s(x,x,y) = y
    for i in np.flatnonzero(right_ok):
        least_s.setdefault(xyy[i].tobytes(), i)
    for i in np.flatnonzero(left_ok):
        s = least_s.get(xxy[i].tobytes())
        if s is not None:
            return TermSearchResult("found", (clone.functions[i], clone.functions[s]))
    return TermSearchResult("not_found" if clone.complete else "inconclusive")
