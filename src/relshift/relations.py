"""Exact calculus of finite binary relations.

Relations between finite carriers are stored as dense boolean matrices.
Carriers are tiny (a handful of elements), so exact dense arithmetic is
both the simplest and the fastest representation: relational composition
is a boolean matrix product, and every predicate is a vectorized scan.

Composition convention: ``compose(S, R)`` is the relation written ``SR``,
meaning R is applied first.  For R: X -> Y and S: Y -> Z,
``(x, z) in SR  iff  exists y with (x, y) in R and (y, z) in S``.
All call sites in this package respect this right-to-left convention.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Carrier",
    "Relation",
    "RelationParseError",
    "ShapeError",
    "compose",
    "diagonal",
    "empty",
    "full",
    "meet",
    "union",
    "leq",
    "opposite",
    "transitive_closure",
    "is_reflexive",
    "is_symmetric",
    "is_transitive",
    "is_equivalence",
    "is_difunctional",
    "is_positive",
    "positive_witness",
    "relation_from_json",
    "relation_to_json",
]


def _is_int(v: object) -> bool:
    """Whether ``v`` is an integer, a numpy one too, but not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _frozen(m: np.ndarray) -> np.ndarray:
    """A read-only copy of ``m``, over bytes, so that its writeable flag
    cannot be set again and no fact stored about it goes stale."""
    return np.ndarray(m.shape, m.dtype, m.tobytes())


class ShapeError(ValueError):
    """Carriers of the operands do not line up."""


class RelationParseError(ValueError):
    """A relation file is malformed."""


@dataclass(frozen=True, order=True)
class Carrier:
    """A finite set {0, 1, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if not (_is_int(self.size) and self.size >= 1):
            raise ValueError(f"carrier size must be a positive integer, got {self.size!r}")
        object.__setattr__(self, "size", int(self.size))  # a numpy integer, as a JSON-ready int

    def elements(self) -> range:
        return range(self.size)


class Relation:
    """A binary relation from ``dom`` to ``cod`` as a dense boolean matrix.

    Immutable after construction; the backing array is frozen (see
    ``_frozen``) so values can be shared and hashed freely, and a fact
    checked about a relation stays true.  ``_facts`` stores the answers of
    ``is_equivalence``, ``is_positive`` and ``algebras.is_compatible``
    (keyed by the Algebra) once they are known; equality, hashing and repr
    ignore it, and a copy starts without it.
    """

    __slots__ = ("dom", "cod", "members", "_facts")

    def __init__(self, dom: Carrier, cod: Carrier, members: np.ndarray):
        members = np.asarray(members, dtype=bool)
        if members.shape != (dom.size, cod.size):
            raise ShapeError(
                f"matrix shape {members.shape} does not match carriers "
                f"({dom.size}, {cod.size})"
            )
        members = _frozen(members)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_facts", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Relation is immutable")

    def __reduce__(self) -> tuple:
        """Copies and pickles go through the constructor, without stored facts."""
        return type(self), (self.dom, self.cod, self.members)

    @classmethod
    def from_pairs(
        cls, dom: Carrier, cod: Carrier, pairs: Iterable[tuple[int, int]]
    ) -> "Relation":
        m = np.zeros((dom.size, cod.size), dtype=bool)
        for i, (x, y) in enumerate(pairs):
            if not (_is_int(x) and _is_int(y) and 0 <= x < dom.size and 0 <= y < cod.size):
                raise ValueError(
                    f"pair #{i} = ({x!r}, {y!r}) is not a pair of integers in range "
                    f"for {dom.size}x{cod.size}"
                )
            m[x, y] = True
        return cls(dom, cod, m)

    def pairs(self) -> list[tuple[int, int]]:
        """Member pairs in lexicographic order."""
        return [(int(x), int(y)) for x, y in np.argwhere(self.members)]

    def __contains__(self, pair: object) -> bool:
        """Whether ``pair`` is a member; False for anything that is not a
        pair of integers in range."""
        if not (isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_int, pair))):
            return False
        x, y = pair
        return 0 <= x < self.dom.size and 0 <= y < self.cod.size and bool(self.members[x, y])

    def __len__(self) -> int:
        return int(self.members.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and bool(np.array_equal(self.members, other.members))
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.members.tobytes()))

    def __repr__(self) -> str:
        return f"Relation({self.dom.size}x{self.cod.size}, {self.pairs()})"

    def _require_endo(self) -> None:
        if self.dom != self.cod:
            raise ShapeError(
                f"operation requires dom = cod, got {self.dom.size} != {self.cod.size}"
            )


def diagonal(c: Carrier) -> Relation:
    """The identity relation 1_X on carrier ``c``."""
    return Relation(c, c, np.eye(c.size, dtype=bool))


def full(dom: Carrier, cod: Carrier | None = None) -> Relation:
    """The all-pairs relation (written as nabla when dom = cod)."""
    cod = dom if cod is None else cod
    return Relation(dom, cod, np.ones((dom.size, cod.size), dtype=bool))


def empty(dom: Carrier, cod: Carrier | None = None) -> Relation:
    cod = dom if cod is None else cod
    return Relation(dom, cod, np.zeros((dom.size, cod.size), dtype=bool))


def opposite(r: Relation) -> Relation:
    """R-opposite: (y, x) in result iff (x, y) in R."""
    return Relation(r.cod, r.dom, r.members.T)


def compose(s: Relation, r: Relation) -> Relation:
    """The composite SR: R first, then S.  Requires R.cod = S.dom."""
    if r.cod != s.dom:
        raise ShapeError(
            f"cannot compose: inner carriers differ ({r.cod.size} vs {s.dom.size})"
        )
    return Relation(r.dom, s.cod, r.members @ s.members)


def _require_parallel(r: Relation, s: Relation) -> None:
    if r.dom != s.dom or r.cod != s.cod:
        raise ShapeError(
            f"relations not parallel: {r.dom.size}x{r.cod.size} vs "
            f"{s.dom.size}x{s.cod.size}"
        )


def meet(r: Relation, s: Relation) -> Relation:
    _require_parallel(r, s)
    return Relation(r.dom, r.cod, r.members & s.members)


def union(r: Relation, s: Relation) -> Relation:
    _require_parallel(r, s)
    return Relation(r.dom, r.cod, r.members | s.members)


def leq(r: Relation, s: Relation) -> bool:
    """Pointwise inclusion R <= S."""
    _require_parallel(r, s)
    return bool((~r.members | s.members).all())


def is_reflexive(r: Relation) -> bool:
    r._require_endo()
    return bool(r.members.diagonal().all())


def is_symmetric(r: Relation) -> bool:
    r._require_endo()
    return bool(np.array_equal(r.members, r.members.T))


def is_transitive(r: Relation) -> bool:
    r._require_endo()
    return leq(compose(r, r), r)


def _known(r: Relation, key: Hashable, decide: Callable[[], bool]) -> bool:
    """The fact ``key`` about R: ``decide()`` on the first call, stored in
    ``R._facts`` and read from there afterwards."""
    facts = r._facts
    if key not in facts:
        facts[key] = bool(decide())
    return facts[key]


def is_equivalence(r: Relation) -> bool:
    """Reflexive, symmetric and transitive: ``_equivalence_stack`` on a
    stack of one, decided once per relation."""
    r._require_endo()
    return _known(r, "equivalence", lambda: _equivalence_stack(r.members[None])[0])


def is_difunctional(d: Relation) -> bool:
    """True iff the composite identity D D-op D = D holds:
    ``_difunctional_stack`` on a stack of one."""
    return bool(_difunctional_stack(d.members[None])[0])


# The stacked predicates below decide every matrix of a boolean stack
# (K, n, m) at once, one bool per matrix.  Their products are taken in
# float32 (see _transitive_stack): nonzero exactly where a path exists.


def _equivalence_stack(m: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack (K, n, n) is an equivalence."""
    f = m.astype(np.float32)
    return (
        m.diagonal(0, 1, 2).all(1)
        & (m == m.swapaxes(1, 2)).all((1, 2))
        & ((f @ f > 0) <= m).all((1, 2))
    )


def _difunctional_stack(d: np.ndarray) -> np.ndarray:
    """Whether D D-op D = D for each matrix D of the stack (K, n, m)."""
    f = d.astype(np.float32)
    return ((f @ f.swapaxes(1, 2) @ f > 0) == d).all((1, 2))


def _goursat_stack(d: np.ndarray) -> np.ndarray:
    """Whether (D D-op)(D D-op) = D D-op, the Goursat identity, for each
    matrix D of the stack (K, n, m)."""
    f = d.astype(np.float32)
    g = f.swapaxes(1, 2) @ f > 0
    gf = g.astype(np.float32)
    return ((gf @ gf > 0) == g).all((1, 2))


def _commuting_stack(e: np.ndarray) -> np.ndarray:
    """Whether E E-op = E-op E for each matrix E of the stack (K, n, n)."""
    f = e.astype(np.float32)
    return ((f.swapaxes(1, 2) @ f > 0) == (f @ f.swapaxes(1, 2) > 0)).all((1, 2))


def is_positive(p: Relation) -> bool:
    """True iff P = U-op U for some relation U.

    Uses the local criterion validated exhaustively against the brute-force
    existential search (see the test suite): P is of the required form iff
    P is symmetric and every related element is self-related, because such
    a P is exactly the union of the squares {x, x'} x {x, x'} over its
    member pairs.
    """
    p._require_endo()
    m = p.members
    # symmetric, and (x, x') in P must imply (x, x) in P; decided once per relation
    return _known(p, "positive", lambda: is_symmetric(p) and (~m.any(1) | m.diagonal()).all())


def positive_witness(p: Relation) -> Relation | None:
    """A relation U with ``compose(opposite(U), U) == P``, or None.

    When P itself works as its own witness (e.g. any equivalence relation)
    it is returned directly; otherwise U is built column-per-pair, each
    column holding one member pair of P.
    """
    if not is_positive(p):
        return None
    if compose(opposite(p), p) == p:
        return p
    undirected = sorted({(min(x, y), max(x, y)) for x, y in p.pairs()})
    m = np.zeros((p.dom.size, len(undirected)), dtype=bool)
    for j, (x, y) in enumerate(undirected):
        m[x, j] = True
        m[y, j] = True
    return Relation(p.dom, Carrier(len(undirected)), m)


def transitive_closure(r: Relation) -> Relation:
    """Least transitive relation containing R (squaring iteration)."""
    r._require_endo()
    return Relation(r.dom, r.cod, _transitive_stack(r.members))


def _transitive_stack(m: np.ndarray) -> np.ndarray:
    """The transitive closure of every matrix of the boolean stack ``m`` of
    shape (..., n, n), by squaring until no matrix changes; ``m`` is not
    modified.

    The products are taken in float32, which numpy hands to BLAS: on a
    stack of 120 matrices 16 x 16 the boolean product is about 30 times
    slower.  The sums are at most n, exact in float32.
    """
    while True:
        f = m.astype(np.float32)
        nxt = m | (f @ f > 0)
        if np.array_equal(nxt, m):
            return nxt
        m = nxt


# ---------------------------------------------------------------------------
# JSON serialization: {"dom": n, "cod": m, "pairs": [[x, y], ...]}
# ---------------------------------------------------------------------------


def relation_to_json(r: Relation) -> str:
    return json.dumps({"dom": r.dom.size, "cod": r.cod.size, "pairs": r.pairs()})


def relation_from_json(text: str) -> Relation:
    """Parse a relation document.  Duplicate pairs are tolerated; the
    carriers and pairs are checked by ``Carrier`` and ``Relation.from_pairs``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise RelationParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise RelationParseError("expected a JSON object")
    for key in ("dom", "cod", "pairs"):
        if key not in doc:
            raise RelationParseError(f"missing key {key!r}")
    if not isinstance(doc["pairs"], list):
        raise RelationParseError("pairs must be a list")
    for i, pair in enumerate(doc["pairs"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise RelationParseError(f"pair #{i} is not a 2-element list: {pair!r}")
    try:
        dom, cod = Carrier(doc["dom"]), Carrier(doc["cod"])
    except ValueError as e:
        raise RelationParseError(f"dom and cod: {e}") from e
    try:
        return Relation.from_pairs(dom, cod, doc["pairs"])
    except ValueError as e:
        raise RelationParseError(str(e)) from e
