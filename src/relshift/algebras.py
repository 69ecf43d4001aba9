"""Finite algebras given by operation tables.

An algebra is a carrier {0..n-1} with finitary operations (arity <= 3)
stored as flat row-major tables.  Compatible relations are the binary
relations closed under all operations applied coordinatewise; congruences
are the compatible equivalence relations.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .relations import (
    Carrier,
    Relation,
    ShapeError,
    _frozen,
    _is_int,
    _known,
    _transitive_stack,
    is_reflexive,
    transitive_closure,
    union,
)

__all__ = [
    "Signature",
    "Algebra",
    "AlgebraParseError",
    "PreconditionError",
    "PairedObject",
    "MAX_ARITY",
    "evaluate",
    "is_compatible",
    "compatible_close",
    "all_congruences",
    "congruence_join",
    "congruence_lattice_is_modular",
    "as_paired_object",
    "algebra_from_json",
    "algebra_to_json",
]

MAX_ARITY = 3


class AlgebraParseError(ValueError):
    """An algebra file is malformed."""


class PreconditionError(ValueError):
    """A check was called outside its contract (e.g. R ^ S not below T)."""


class RelationClass(Enum):
    """The classes of relations the quantified checks range over."""

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
class Signature:
    """Operation names with their arities (constants through ternary)."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        for name, arity in self.ops:
            if not isinstance(name, str):
                raise ValueError(f"operation name is not a string: {name!r}")
            if not (_is_int(arity) and 0 <= arity <= MAX_ARITY):
                raise ValueError(
                    f"operation {name!r}: arity {arity!r} is not an integer in 0..{MAX_ARITY}"
                )
        names = [name for name, _ in self.ops]
        if len(names) != len(set(names)):
            raise ValueError("duplicate operation names")
        object.__setattr__(self, "ops", tuple((name, int(arity)) for name, arity in self.ops))

    def arity(self, name: str) -> int:
        for n, a in self.ops:
            if n == name:
                return a
        raise KeyError(f"unknown operation {name!r}")


class Algebra:
    """A finite algebra: carrier, signature and one flat table per operation.

    Table index for arguments (a_0, ..., a_{k-1}) is
    sum(a_i * size**(k-1-i)), i.e. row-major by argument tuple.
    """

    __slots__ = ("name", "carrier", "sig", "tables", "_arrays")

    def __init__(
        self,
        name: str,
        carrier: Carrier,
        sig: Signature,
        tables: dict[str, tuple[int, ...]],
    ):
        if not isinstance(name, str):
            raise ValueError(f"algebra name is not a string: {name!r}")
        n = carrier.size
        if set(tables) != {op for op, _ in sig.ops}:
            raise ValueError("tables do not match signature")
        arrays: dict[str, np.ndarray] = {}
        for op, arity in sig.ops:
            table = tuple(tables[op])
            if len(table) != n**arity:
                raise ValueError(
                    f"operation {op!r}: table length {len(table)}, expected {n**arity}"
                )
            # loops in C: a table of exact ints skips the per-entry isinstance test
            ints = set(map(type, table)) <= {int} or all(map(_is_int, table))
            if not (ints and 0 <= min(table) and max(table) < n):
                i = next(i for i, v in enumerate(table) if not (_is_int(v) and 0 <= v < n))
                raise ValueError(
                    f"operation {op!r}: table entry #{i} = {table[i]!r} out of range "
                    f"(not an integer in 0..{n - 1})"
                )
            arrays[op] = _frozen(np.asarray(table, dtype=np.intp).reshape((n,) * arity))
        self.name = name
        self.carrier = carrier
        self.sig = sig
        self.tables = {op: tuple(arrays[op].ravel().tolist()) for op, _ in sig.ops}
        self._arrays = arrays

    @property
    def size(self) -> int:
        return self.carrier.size

    def table_array(self, op: str) -> np.ndarray:
        """The operation table as an ndarray of shape (size,) * arity."""
        return self._arrays[op]

    def __repr__(self) -> str:
        return f"Algebra({self.name!r}, size={self.size}, ops={list(self.tables)})"


def evaluate(a: Algebra, op: str, args: tuple[int, ...]) -> int:
    arity = a.sig.arity(op)
    if len(args) != arity:
        raise ValueError(f"{op!r} expects {arity} arguments, got {len(args)}")
    for v in args:
        if not (_is_int(v) and 0 <= v < a.size):
            raise ValueError(f"argument {v!r} is not an integer in range for size {a.size}")
    return int(a.table_array(op)[tuple(args)])


def is_compatible(a: Algebra, r: Relation) -> bool:
    """Whether R is closed under every operation applied coordinatewise.

    An operation of arity k is applied to the |R|^k tuples of members
    only, as in _close_between, not to all (n^2)^k tuples of cells as in
    _stack_closer: the checks call it on carriers of up to 16 elements.
    Decided once per relation and algebra: the answer is stored on R, keyed
    by A, whose tables are read-only.
    """
    if r.members.shape != (a.size, a.size):  # carriers are equal iff their sizes are
        raise ShapeError("relation carrier does not match algebra carrier")
    return _known(r, a, lambda: _is_compatible_between(a, a, r.members[None])[0])


def _is_compatible_between(a: Algebra, b: Algebra, stack: np.ndarray) -> np.ndarray:
    """Compatibility of every matrix of the boolean stack (K, |A|, |B|) of
    relations A -> B, for same-signature algebras A and B: one bool per
    matrix.

    Each operation is applied once, to the tuples of members of the
    stack's union, and a matrix fails when a tuple of its own members
    lands outside it; the matrices still passing are tested a block of
    _STACK_CELLS tuples at a time.  A stack of one is its own union, so
    each of those tuples is its own: only their images are tested, up to
    the first operation that fails, as ``is_compatible`` always has.
    """
    union = stack[0] if len(stack) == 1 else stack.any(0)
    xs, ys = np.nonzero(union)
    applied = (
        (arity, _apply_all(a.table_array(op), xs), _apply_all(b.table_array(op), ys))
        for op, arity in a.sig.ops
    )
    if len(stack) == 1:
        for _, fx, fy in applied:
            images = union[fx, fy]
            if np.count_nonzero(images) < images.size:
                return np.array([False])
        return np.array([True])
    members = stack[:, xs, ys]
    ok = np.ones(len(stack), dtype=bool)
    for arity, fx, fy in applied:
        for rows in _blocks(np.flatnonzero(ok), len(xs) ** arity):
            lost = ~stack[rows.reshape(-1, *(1,) * arity), fx, fy]
            for shape in _GRID_SHAPES[arity]:
                lost &= members[rows].reshape(len(rows), *shape)
            ok[rows] = ~lost.reshape(len(rows), -1).any(1)
    return ok


# _GRID_SHAPES[k][i]: the shape that lays a vector along axis i of k axes
_GRID_SHAPES = tuple(
    tuple((1,) * i + (-1,) + (1,) * (k - 1 - i) for i in range(k)) for k in range(MAX_ARITY + 1)
)


def _apply_all(f: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """f applied to every k-tuple of entries of xs, k = f.ndim; shape (len(xs),) * k.

    Argument i of the tuples is xs laid along axis i, so the k index vectors
    broadcast to the full grid (a 0-d result for a constant).
    """
    return f[tuple(xs.reshape(shape) for shape in _GRID_SHAPES[f.ndim])]


def _close_between(a: Algebra, b: Algebra, m: np.ndarray) -> np.ndarray:
    """Close the boolean matrix ``m`` of a relation A -> B, in place, under
    every operation applied coordinatewise; returns ``m``.

    Each round applies an operation of arity k to the |m|^k tuples of
    members only, so its cost follows the relation, not the carrier:
    ``_least`` uses it on carriers of up to 16 elements, where
    _stack_closer's tuples of all |A||B| cells would be far costlier.
    """
    count = np.count_nonzero(m)
    while True:
        xs, ys = np.nonzero(m)
        for op, _ in a.sig.ops:
            m[_apply_all(a.table_array(op), xs), _apply_all(b.table_array(op), ys)] = True
        count, before = np.count_nonzero(m), count
        if count == before:
            return m


def compatible_close(a: Algebra, seed: set[tuple[int, int]] | list[tuple[int, int]]) -> Relation:
    """Least compatible relation containing ``seed`` (subalgebra of A^2),
    known to be compatible with A: the closure's last round applied every
    operation and added nothing."""
    m = Relation.from_pairs(a.carrier, a.carrier, seed).members
    closed = Relation(a.carrier, a.carrier, _least(a, a, RelationClass.ARBITRARY, m))
    closed._facts[a] = True
    return closed


def _least(a: Algebra, b: Algebra, cls: RelationClass, m: np.ndarray) -> np.ndarray:
    """The least compatible relation A -> B of class ``cls`` (B = A unless
    ARBITRARY) containing the boolean matrix ``m``, as a new matrix.

    Each class is closed under meets and holds the full relation, so the
    least member exists.  ARBITRARY closes ``m``; REFLEXIVE adds the
    diagonal first; REFLEXIVE_POSITIVE, the compatible tolerances, also
    symmetrises it, and the closure of a symmetric set is symmetric;
    EQUIVALENCE then closes the tolerance transitively, by _squared, and
    the transitive closure of a compatible tolerance is compatible.
    """
    m = m.copy()
    if cls is not RelationClass.ARBITRARY:
        np.fill_diagonal(m, True)
    if cls in (RelationClass.REFLEXIVE_POSITIVE, RelationClass.EQUIVALENCE):
        m |= m.T
    _close_between(a, b, m)
    if cls is RelationClass.EQUIVALENCE:
        _squared(m[None])
    return m


def _translations(a: Algebra) -> list[tuple[int, ...]]:
    """The distinct basic translations of A: the maps u -> f(..., u, ...) for
    every operation f of arity >= 1, argument position and choice of the
    other arguments, each as the tuple of its values, in order of first
    appearance."""
    n = a.size
    return list(dict.fromkeys(
        tuple(t)
        for f in (a.table_array(op) for op, _ in a.sig.ops)
        for i in range(f.ndim)
        for t in np.moveaxis(f, i, -1).reshape(-1, n).tolist()
    ))


# The most matrix cells one stack closed by squaring holds: a few MB, so
# that a lattice of thousands of congruences is closed block by block.
_STACK_CELLS = 1 << 20


def _blocks(xs: np.ndarray, row_cells: int) -> Iterator[np.ndarray]:
    """``xs`` as slices of consecutive rows, each block making at most
    _STACK_CELLS cells when one row makes ``row_cells`` (one row at least)."""
    step = max(1, _STACK_CELLS // max(row_cells, 1))
    return (xs[i:i + step] for i in range(0, len(xs), step))


def _stack_closer(a: Algebra, b: Algebra) -> Callable[[np.ndarray], np.ndarray]:
    """The closure of relations A -> B under every operation applied
    coordinatewise, as a callable that closes every matrix of a C-contiguous
    boolean stack (K, |A|, |B|) in place and returns the stack.

    The target cell of every k-tuple of cells is computed here, once, for
    each operation of arity k.  Each call sets every constant's cell, then
    each round, for each arity k, lays the cell vectors of the matrices
    still growing along k axes, ANDs them, and sets the targets of the
    tuples that hit for every operation of arity k, a block of at most
    _STACK_CELLS tuples at a time; a matrix that did not grow in the round
    is closed.  The cost is (|A||B|)^k per matrix whatever its members, so
    this kernel serves the enumeration, whose budget gate keeps |A||B|
    small, and not ``_least`` (see _close_between).
    """
    nb = b.size
    cells = a.size * nb
    xs, ys = np.divmod(np.arange(cells), nb)
    by_arity: dict[int, list[np.ndarray]] = {}
    for op, arity in a.sig.ops:
        cell = _apply_all(a.table_array(op), xs) * nb + _apply_all(b.table_array(op), ys)
        by_arity.setdefault(arity, []).append(cell.ravel())
    constants = np.concatenate(by_arity.pop(0, [np.empty(0, dtype=np.intp)]))
    # targets[k]: one row per operation of arity k, one column per k-tuple
    targets = {arity: np.array(cells_of) for arity, cells_of in by_arity.items()}

    def close(stack: np.ndarray) -> np.ndarray:
        if not stack.flags.c_contiguous:
            raise ValueError("the stack must be C-contiguous to be closed in place")
        flat = stack.reshape(len(stack), cells)
        flat[:, constants] = True
        live = np.arange(len(flat))
        count = flat.sum(1)
        while len(live):
            for arity, cell in targets.items():
                first, *rest = _GRID_SHAPES[arity]
                for block in _blocks(live, cells**arity):
                    m = flat[block]
                    hits = m.reshape(len(block), *first)
                    for shape in rest:
                        hits = hits & m.reshape(len(block), *shape)
                    rows, tuples = np.nonzero(hits.reshape(len(block), -1))
                    flat[block[rows], cell[:, tuples]] = True
            grown = flat[live].sum(1)
            grew = grown > count
            live, count = live[grew], grown[grew]
        return stack

    return close


def _principal_stack(a: Algebra) -> np.ndarray:
    """Every principal congruence Cg(u, v), u < v, of A as one boolean stack
    of shape (pairs, n, n), the pairs in lexicographic order.

    By Mal'cev's lemma Cg(u, v) is the equivalence generated by the pairs
    {f(u), f(v)} over the compositions f of basic translations.  The pair
    graph has one node per pair u < v and a sink for the diagonal, reached
    from every node; each distinct translation f sends {u, v} to
    {f(u), f(v)}.  Each node gathers the rows of its images under the
    translations, a block of them at a time, until no row grows.  Read at
    the node of every (u, v), the rows form a stack of reflexive symmetric
    relations, closed into equivalences by squaring.
    """
    n = a.size
    us, vs = np.nonzero(np.less.outer(range(n), range(n)))
    sink = len(us)
    node = np.full((n, n), sink)
    node[us, vs] = node[vs, us] = np.arange(sink)
    maps = np.array(_translations(a), dtype=np.intp).reshape(-1, n)
    succ = node[maps[:, us], maps[:, vs]]
    reach = np.eye(sink + 1, dtype=bool)
    reach[:, sink] = True
    count = np.count_nonzero(reach)
    while True:
        for block in _blocks(succ, (sink + 1) ** 2):
            reach[:sink] |= reach[block].any(0)
        count, before = np.count_nonzero(reach), count
        if count == before:
            break
    return _squared(reach[:sink, node])


def _squared(stack: np.ndarray) -> np.ndarray:
    """Close every matrix of the boolean stack (..., n, n) transitively, in
    place, by squaring a block of _STACK_CELLS cells at a time; returns it."""
    for block in _blocks(stack, stack.shape[-1] ** 2):
        block[...] = _transitive_stack(block)
    return stack


def congruence_join(r: Relation, s: Relation) -> Relation:
    """Join of two congruences: transitive closure of the union."""
    return transitive_closure(union(r, s))


def _joins(bottom: np.ndarray, principals: np.ndarray, close: Callable) -> list[np.ndarray]:
    """Every member of a closure system of boolean matrices: its least
    member ``bottom`` and the joins of its principal members, which give
    all the others.  ``close`` closes a stack in place and returns it; the
    join of m and p is the closure of m | p.

    The distinct principals make the first frontier.  Each frontier is
    joined with every principal, as stacks of unions in _STACK_CELLS
    blocks, closing only the distinct unions not found yet, until no
    join is new.  Returned sorted by flat member positions.
    """
    found = {bottom.tobytes(): bottom}
    void = np.dtype((np.void, bottom.size))

    def keys(stack: np.ndarray) -> list[bytes]:
        """The bytes of every matrix of ``stack``, as the items of one void array."""
        return np.ascontiguousarray(stack).reshape(-1, bottom.size).view(void).ravel().tolist()

    def new(stack: np.ndarray) -> list[np.ndarray]:
        """The matrices of ``stack`` not found yet, each once; now found."""
        fresh = {key: m for key, m in zip(keys(stack), stack) if key not in found}
        found.update(fresh)
        return list(fresh.values())

    frontier = new(principals)
    principals = np.array(frontier)
    # a single principal joins only with itself
    while len(principals) > 1 and frontier:
        grown = []
        for block in _blocks(np.array(frontier), len(principals) * bottom.size):
            unions = (block[:, None] | principals[None]).reshape(-1, *bottom.shape)
            todo = {key: i for i, key in enumerate(keys(unions)) if key not in found}
            if todo:
                grown += new(close(unions[list(todo.values())]))
        frontier = grown
    return sorted(found.values(), key=lambda m: np.flatnonzero(m).tolist())


def all_congruences(a: Algebra) -> list[Relation]:
    """Every congruence of A, sorted by pair list: the joins of the principal
    congruences, which come as one stack from the pair graph of A, each
    join the transitive closure of a union, by squaring."""
    joins = _joins(np.eye(a.size, dtype=bool), _principal_stack(a), _squared)
    return [Relation(a.carrier, a.carrier, m) for m in joins]


def congruence_lattice_is_modular(a: Algebra) -> bool:
    """Modularity of Con(A): x <= z implies x v (y ^ z) = (x v y) ^ z."""
    return _is_modular(all_congruences(a))


def _is_modular(cons: list[Relation]) -> bool:
    """Modularity of the congruence lattice whose members are ``cons``.

    The lattice is indexed once: M[i, j] and J[i, j] are the indices of the
    meet and of the join of members i and j, and x <= z iff M[x, z] = x.
    The lattice is modular iff J[x, M[y, z]] = M[J[x, y], z] for every y
    and every x <= z.  This needs only row x of J, so the rows of J are
    made block by block, each block's joins closed by squaring as one
    stack of unions, and the test stops at the first block that fails.
    """
    m = np.array([c.members for c in cons])
    k = len(m)
    index = {c.tobytes(): i for i, c in enumerate(m)}

    def table(stack: np.ndarray) -> np.ndarray:
        """The index of every matrix of ``stack`` (rows, k, n, n), as (rows, k)."""
        keys = (c.tobytes() for c in stack.reshape(-1, *m.shape[1:]))
        return np.array([index[key] for key in keys]).reshape(-1, k)

    meets = np.concatenate([table(b[:, None] & m[None]) for b in _blocks(m, m.size)])
    for xs in _blocks(np.arange(k), max(m.size, k * k)):
        joins = table(_transitive_stack(m[xs, None] | m[None]))
        below = meets[xs] == xs[:, None]
        if not ((joins[:, meets] == meets[joins]) | ~below[:, None]).all():
            return False
    return True


@dataclass(frozen=True)
class PairedObject:
    """A reflexive compatible relation E packaged as an object of pairs.

    ``pairs`` lists the members of E in lexicographic order; ``first`` and
    ``second`` hold their coordinates in the same order, as index arrays.
    e1 and e2 are the coordinate projections pair-index -> base element.
    """

    relation: Relation
    pairs: tuple[tuple[int, int], ...]
    first: np.ndarray = field(compare=False, repr=False)
    second: np.ndarray = field(compare=False, repr=False)

    @property
    def carrier(self) -> Carrier:
        return Carrier(len(self.pairs))

    def e1(self, i: int) -> int:
        return self.pairs[i][0]

    def e2(self, i: int) -> int:
        return self.pairs[i][1]


def _require_reflexive_compatible(a: Algebra, e: Relation) -> None:
    """Raise PreconditionError unless E is a reflexive compatible relation on A."""
    if not is_reflexive(e):
        raise PreconditionError("E must be reflexive")
    if not is_compatible(a, e):
        raise PreconditionError("E must be compatible")


def as_paired_object(a: Algebra, e: Relation) -> PairedObject:
    _require_reflexive_compatible(a, e)
    first, second = np.nonzero(e.members)
    return PairedObject(e, tuple(zip(first.tolist(), second.tolist())), first, second)


# ---------------------------------------------------------------------------
# JSON serialization:
# {"name": str, "size": n,
#  "operations": [{"name": str, "arity": k, "table": [...]}, ...]}
# ---------------------------------------------------------------------------


def algebra_to_json(a: Algebra) -> str:
    return json.dumps(
        {
            "name": a.name,
            "size": a.size,
            "operations": [
                {"name": op, "arity": arity, "table": list(a.tables[op])}
                for op, arity in a.sig.ops
            ],
        },
        indent=2,
    )


def algebra_from_json(text: str) -> Algebra:
    """Parse an algebra document, checking only its shape; the constructors
    check sizes, names, arities and table entries."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise AlgebraParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise AlgebraParseError("expected a JSON object")
    for key in ("name", "size", "operations"):
        if key not in doc:
            raise AlgebraParseError(f"missing key {key!r}")
    if not isinstance(doc["operations"], list):
        raise AlgebraParseError("operations must be a list")
    for spec in doc["operations"]:
        if not isinstance(spec, dict) or not {"name", "arity", "table"} <= set(spec):
            raise AlgebraParseError(f"malformed operation entry: {spec!r}")
        if not isinstance(spec["table"], list):
            raise AlgebraParseError(f"operation {spec['name']!r}: table is not a list")
    try:
        carrier = Carrier(doc["size"])
        sig = Signature(tuple((spec["name"], spec["arity"]) for spec in doc["operations"]))
        tables = {spec["name"]: spec["table"] for spec in doc["operations"]}
        return Algebra(doc["name"], carrier, sig, tables)
    except ValueError as e:
        raise AlgebraParseError(str(e)) from e
