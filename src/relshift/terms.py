"""Bounded generation of ternary term operations and term-condition search.

The ternary clone of a finite algebra is generated from the three
projections by pointwise application of the basic operations.  Searches
for the difference-term conditions run over the generated functions:

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

    def array(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.intp).reshape(
            (self.size, self.size, self.size)
        )

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


def _projection_tables(n: int) -> list[tuple[tuple[int, ...], Term]]:
    grid = np.indices((n, n, n))
    names: list[Term] = ["x", "y", "z"]
    return [
        (tuple(int(v) for v in grid[i].ravel()), names[i]) for i in range(3)
    ]


def generate_ternary_clone(a: Algebra, budget: int | None = None) -> CloneResult:
    """Close the three projections under A's basic operations, pointwise.

    Deterministic: functions appear in breadth-first rounds, within a round
    ordered by operation and argument indices.  ``complete`` is set iff the
    fixpoint was reached within the budget.
    """
    budget = resolve_budget(budget, DEFAULT_CLONE_BUDGET)
    if budget < 3:
        raise ValueError("budget must allow at least the three projections")
    n = a.size
    known: dict[tuple[int, ...], Term] = {}
    order: list[tuple[int, ...]] = []
    for table, term in _projection_tables(n):
        if table not in known:
            known[table] = term
            order.append(table)
    complete = True
    frontier_start = 0
    while frontier_start < len(order):
        prev_len = len(order)
        tables_np = [np.asarray(t, dtype=np.intp) for t in order]
        for op, arity in a.sig.ops:
            f = a.table_array(op)
            if arity == 0:
                cand = np.full(n * n * n, int(f[()]), dtype=np.intp)
                _add(known, order, cand, (op,))
            else:
                # at least one argument drawn from the latest round, so every
                # combination is visited exactly once across rounds
                for args in itertools.product(range(len(order)), repeat=arity):
                    if max(args) < frontier_start:
                        continue
                    if any(i >= prev_len for i in args):
                        continue
                    cand = f[tuple(tables_np[i] for i in args)]
                    term = (op, *(known[order[i]] for i in args))
                    _add(known, order, cand, term)
                    if len(order) > budget:
                        fns = _freeze(a, known, order[:budget])
                        return CloneResult(fns, complete=False, budget=budget)
        frontier_start = prev_len
    return CloneResult(_freeze(a, known, order), complete=True, budget=budget)


def _add(
    known: dict[tuple[int, ...], Term],
    order: list[tuple[int, ...]],
    cand: np.ndarray,
    term: Term,
) -> None:
    key = tuple(int(v) for v in cand.ravel())
    if key not in known:
        known[key] = term
        order.append(key)


def _freeze(
    a: Algebra, known: dict[tuple[int, ...], Term], order: list[tuple[int, ...]]
) -> tuple[TermFunction, ...]:
    return tuple(TermFunction(a.size, t, known[t]) for t in order)


def _idem_left(t: np.ndarray) -> np.ndarray:
    """t(x, y, y) as an (n, n) array indexed by (x, y)."""
    n = t.shape[0]
    i = np.arange(n)
    return t[i[:, None], i[None, :], i[None, :]]


def _idem_right(t: np.ndarray) -> np.ndarray:
    """t(x, x, y) as an (n, n) array indexed by (x, y)."""
    n = t.shape[0]
    i = np.arange(n)
    return t[i[:, None], i[:, None], i[None, :]]


def find_maltsev_term(a: Algebra, budget: int | None = None) -> TermSearchResult:
    """Least clone element p with p(x,y,y) = x and p(x,x,y) = y."""
    clone = generate_ternary_clone(a, budget)
    col_x, row_y = np.indices((a.size, a.size))  # x and y, indexed by (x, y)
    for fn in clone.functions:
        t = fn.array()
        if np.array_equal(_idem_left(t), col_x) and np.array_equal(
            _idem_right(t), row_y
        ):
            return TermSearchResult("found", (fn,))
    return TermSearchResult("not_found" if clone.complete else "inconclusive")


def find_3perm_terms(a: Algebra, budget: int | None = None) -> TermSearchResult:
    """Least clone pair (r, s) with r(x,y,y)=x, r(x,x,y)=s(x,y,y), s(x,x,y)=y."""
    clone = generate_ternary_clone(a, budget)
    col_x, row_y = np.indices((a.size, a.size))  # x and y, indexed by (x, y)
    r_cands = [
        fn for fn in clone.functions if np.array_equal(_idem_left(fn.array()), col_x)
    ]
    s_cands = [
        fn for fn in clone.functions if np.array_equal(_idem_right(fn.array()), row_y)
    ]
    for r in r_cands:
        r_mid = _idem_right(r.array())
        for s in s_cands:
            if np.array_equal(r_mid, _idem_left(s.array())):
                return TermSearchResult("found", (r, s))
    return TermSearchResult("not_found" if clone.complete else "inconclusive")
