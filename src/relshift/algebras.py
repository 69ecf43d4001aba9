"""Finite algebras given by operation tables.

An algebra is a carrier {0..n-1} with finitary operations (arity <= 3)
stored as flat row-major tables.  Compatible relations are the binary
relations closed under all operations applied coordinatewise; congruences
are the compatible equivalence relations.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .relations import (
    Carrier,
    Relation,
    ShapeError,
    _is_int,
    is_reflexive,
    leq,
    meet,
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
    "principal_congruence",
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
            arrays[op] = np.asarray(table, dtype=np.intp).reshape((n,) * arity)
            arrays[op].setflags(write=False)
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
        if not 0 <= v < a.size:
            raise ValueError(f"argument {v} out of range for size {a.size}")
    return int(a.table_array(op)[args]) if args else int(a.table_array(op)[()])


def is_compatible(a: Algebra, r: Relation) -> bool:
    """Whether R is closed under every operation applied coordinatewise."""
    if r.dom != a.carrier or r.cod != a.carrier:
        raise ShapeError("relation carrier does not match algebra carrier")
    return _is_compatible_between(a, a, r)


def _is_compatible_between(a: Algebra, b: Algebra, r: Relation) -> bool:
    """Compatibility of R: A -> B for same-signature algebras A and B."""
    xs, ys = np.nonzero(r.members)
    for op, _ in a.sig.ops:
        if not r.members[_apply_all(a.table_array(op), xs), _apply_all(b.table_array(op), ys)].all():
            return False
    return True


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
    every operation applied coordinatewise; returns ``m``."""
    count = np.count_nonzero(m)
    while True:
        xs, ys = np.nonzero(m)
        for op, _ in a.sig.ops:
            m[_apply_all(a.table_array(op), xs), _apply_all(b.table_array(op), ys)] = True
        count, before = np.count_nonzero(m), count
        if count == before:
            return m


def compatible_close(a: Algebra, seed: set[tuple[int, int]] | list[tuple[int, int]]) -> Relation:
    """Least compatible relation containing ``seed`` (subalgebra of A^2)."""
    m = Relation.from_pairs(a.carrier, a.carrier, seed).members.copy()
    return Relation(a.carrier, a.carrier, _close_between(a, a, m))


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


def _union_find(
    labels: list[int], pairs: Iterable[tuple[int, int]], maps: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """Union-find: the least equivalence that contains the partition
    ``labels`` and ``pairs`` and is closed under the translations ``maps``,
    given a partition ``labels`` that is closed under them already.

    ``labels`` maps each element to the least element of its block and is
    updated in place; ``maps`` holds each translation once, as the tuple of
    its values.  Every pair (u, v) whose union merges two blocks is pushed,
    and its image (f[u], f[v]) under every map f is merged in turn; a
    translation maps a chain of pushed pairs to a chain, so these pushed
    pairs suffice.
    The result is canonical: each element labelled by its block's least
    element.
    """

    def find(u: int) -> int:
        while labels[u] != u:
            labels[u] = u = labels[labels[u]]
        return u

    def merge(u: int, v: int) -> bool:
        u, v = find(u), find(v)
        if u == v:
            return False
        labels[max(u, v)] = min(u, v)
        return True

    todo = [(u, v) for u, v in pairs if merge(u, v)]
    while todo:
        u, v = todo.pop()
        for f in maps:
            if merge(f[u], f[v]):
                todo.append((f[u], f[v]))
    return tuple(map(find, range(len(labels))))


def _congruence(a: Algebra, labels: tuple[int, ...]) -> Relation:
    """The equivalence whose blocks share a label."""
    v = np.array(labels)
    return Relation(a.carrier, a.carrier, v[:, None] == v[None, :])


def principal_congruence(a: Algebra, x: int, y: int) -> Relation:
    """Least congruence identifying x and y: the blocks of x and y are merged
    by union-find, then the images of every merged pair under every basic
    translation, until no union merges two blocks."""
    n = a.size
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"elements ({x}, {y}) out of range for size {n}")
    return _congruence(a, _union_find(list(range(n)), [(x, y)], _translations(a)))


def congruence_join(r: Relation, s: Relation) -> Relation:
    """Join of two congruences: transitive closure of the union."""
    return transitive_closure(union(r, s))


def all_congruences(a: Algebra) -> list[Relation]:
    """Every congruence of A, as the join closure of the principal ones.

    The principal congruences come from one union-find each over the basic
    translations, which are built once per call.  Each congruence found is
    joined with every principal congruence (the join of two congruences is
    the join of their partitions) until no new one appears; every congruence
    is a finite join of principal ones, so this reaches all of them.

    Returned in a deterministic order: sorted by pair list.
    """
    n = a.size
    maps = _translations(a)
    principals = list(dict.fromkeys(
        _union_find(list(range(n)), [(x, y)], maps) for x in range(n) for y in range(x + 1, n)
    ))
    found = {tuple(range(n)), *principals}
    frontier = principals
    while frontier:
        new = []
        for c in frontier:
            for p in principals:
                j = _union_find(list(c), enumerate(p), [])
                if j not in found:
                    found.add(j)
                    new.append(j)
        frontier = new
    return sorted((_congruence(a, c) for c in found), key=lambda r: r.pairs())


def congruence_lattice_is_modular(a: Algebra) -> bool:
    """Modularity of Con(A): x <= z implies x v (y ^ z) = (x v y) ^ z."""
    return _is_modular(all_congruences(a))


def _is_modular(cons: list[Relation]) -> bool:
    """Modularity of the congruence lattice whose members are ``cons``."""
    for x in cons:
        for z in cons:
            if not leq(x, z):
                continue
            for y in cons:
                left = congruence_join(x, meet(y, z))
                right = meet(congruence_join(x, y), z)
                if left != right:
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
        return Algebra(str(doc["name"]), carrier, sig, tables)
    except ValueError as e:
        raise AlgebraParseError(str(e)) from e
