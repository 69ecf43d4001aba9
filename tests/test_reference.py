"""The compatibility kernel, the brute-force enumerators, the clone
generation and the congruence layer against reference code.

The reference functions below are the earlier hand-written forms: one
branch per arity for applying an operation coordinatewise, one
enumeration loop per relation class, the double loops that built the
R and T relations of the pair object, the clone generation that kept
each table as a tuple of ints and visited every argument tuple one at a
time, with the term searches that scanned the clone function by function,
and the congruence lattice that re-closed each principal congruence under
the operations, symmetry and transitivity until it stopped changing, then
joined every two congruences found in each round, the modularity test
that formed both sides of the modular law as relations for every triple,
the quantified Shifting Lemma that ran the single-triple check on every
triple of relations in turn, and the Shifting Lemma kernel that built
the (n, n, n, n) tensor of premises, and the loop that closed the
enumeration's stacks one matrix at a time, and the difunctional,
Goursat-identity and equivalence tests and the box/W replay that took
one relation, or one (R, T) pair, per call.  The single bitmask loop
that replaced the enumeration loops is kept as well, and checks the
enumeration on the bundled 4-element carriers, where the random algebras
do not reach; so is the closure search that closed every relation found
with each missing pair added, which checks the search by joins of
distinct principal closures, order included, on seeded 4-element
algebras, where the 2^16 bitmask loop is too slow.  They stay here as
oracles for the shared kernel, the stacked closure, the enumeration,
the vectorized builders, the block-wise clone, the pair-graph
congruences, the join and meet tables of the modularity test, and the
stacked Shifting Lemma kernel behind the quantified and the single-triple
check, the stacked compatibility test, the stacked predicates of the
sweeps and the batched box/W replay in ``relshift``; the complete class
lists are in turn the oracle of the least members ``algebras._least``
generates and of the checks searched over tuples from them.  All are
checked on random algebras with 1-3 elements and
operations of arity 0-3, on random unary algebras with 4-6 elements
(every congruence lattice on at most 3 elements is modular), on pinned
bundled, cyclic and seeded algebras up to the 16 elements of the
benchmark's ladder, on random reflexive relations and random relation
triples, and on the witnesses built from a seeded unary algebra.
"""

import itertools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relshift import algebras as algebras_module
from relshift import checks as checks_module
from relshift import terms as terms_module
from relshift.algebras import (
    MAX_ARITY,
    Algebra,
    Signature,
    _close_between,
    _is_compatible_between,
    _is_modular,
    _least,
    _principal_stack,
    _stack_closer,
    all_congruences,
    as_paired_object,
    compatible_close,
    congruence_join,
    congruence_lattice_is_modular,
)
from relshift.checks import (
    DEFAULT_ENUM_BUDGET,
    BudgetError,
    PreconditionError,
    RelationClass,
    SLResult,
    _common_carrier,
    _ee_sweeps,
    _shift_stack,
    difunctional_all,
    enumerate_class_relations,
    enumerate_compatible_relations,
    goursat_identity_all,
    reflexive_positive_all_equivalence,
    resolve_budget,
    shifting_lemma,
    shifting_lemma_forall,
)
from relshift.constructions import (
    NoWitnessError,
    build_box,
    build_R,
    build_T,
    build_W,
    goursat_sl_witness,
    kernel_pair,
    maltsev_sl_witness,
)
from relshift.harness import SUITE_CLASS_COMBOS, _box_join, bundled_corpus
from relshift.relations import (
    Carrier,
    Relation,
    _commuting_stack,
    _difunctional_stack,
    _equivalence_stack,
    _goursat_stack,
    compose,
    diagonal,
    is_difunctional,
    is_equivalence,
    is_positive,
    is_reflexive,
    is_symmetric,
    is_transitive,
    leq,
    meet,
    opposite,
    transitive_closure,
    union,
)
from relshift.terms import (
    DEFAULT_CLONE_BUDGET,
    Term,
    TermFunction,
    TermSearchResult,
    find_3perm_terms,
    find_maltsev_term,
    generate_ternary_clone,
)

from test_algebras import cyclic_group


def ref_is_compatible_between(a, b, r):
    prs = np.argwhere(r.members)
    xs, ys = prs[:, 0], prs[:, 1]
    for op, arity in a.sig.ops:
        fa, fb = a.table_array(op), b.table_array(op)
        if arity == 0:
            if not r.members[int(fa[()]), int(fb[()])]:
                return False
        elif arity == 1:
            if not r.members[fa[xs], fb[ys]].all():
                return False
        elif arity == 2:
            fx = fa[xs[:, None], xs[None, :]]
            fy = fb[ys[:, None], ys[None, :]]
            if not r.members[fx, fy].all():
                return False
        else:
            fx = fa[xs[:, None, None], xs[None, :, None], xs[None, None, :]]
            fy = fb[ys[:, None, None], ys[None, :, None], ys[None, None, :]]
            if not r.members[fx, fy].all():
                return False
    return True


def ref_compatible_close(a, seed):
    n = a.size
    m = np.zeros((n, n), dtype=bool)
    for x, y in seed:
        m[x, y] = True
    while True:
        prs = np.argwhere(m)
        xs, ys = prs[:, 0], prs[:, 1]
        before = m.copy()
        for op, arity in a.sig.ops:
            f = a.table_array(op)
            if arity == 0:
                m[int(f[()]), int(f[()])] = True
            elif arity == 1:
                m[f[xs], f[ys]] = True
            elif arity == 2:
                m[f[xs[:, None], xs[None, :]], f[ys[:, None], ys[None, :]]] = True
            else:
                fx = f[xs[:, None, None], xs[None, :, None], xs[None, None, :]]
                fy = f[ys[:, None, None], ys[None, :, None], ys[None, None, :]]
                m[fx, fy] = True
        if np.array_equal(m, before):
            return Relation(a.carrier, a.carrier, m)


def ref_enumerate_compatible(a, b):
    na, nb = a.size, b.size
    out = []
    for bits in range(2 ** (na * nb)):
        m = np.array([(bits >> k) & 1 for k in range(na * nb)], dtype=bool).reshape(na, nb)
        rel = Relation(a.carrier, b.carrier, m)
        if ref_is_compatible_between(a, b, rel):
            out.append(rel)
    return sorted(out, key=lambda r: r.pairs())


def ref_enumerate_reflexive(a, cls):
    n = a.size
    off = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for bits in range(2 ** len(off)):
        m = np.eye(n, dtype=bool)
        for k, (x, y) in enumerate(off):
            if (bits >> k) & 1:
                m[x, y] = True
        rel = Relation(a.carrier, a.carrier, m)
        if not ref_is_compatible_between(a, a, rel):
            continue
        if cls is RelationClass.REFLEXIVE_POSITIVE and not is_positive(rel):
            continue
        out.append(rel)
    return sorted(out, key=lambda r: r.pairs())


def ref_brute_force(a: Algebra, b: Algebra, base: np.ndarray, budget: int | None) -> list[Relation]:
    """Compatible relations A -> B containing ``base``, lexicographic: one
    candidate per subset of the positions outside ``base``."""
    budget = resolve_budget(budget, DEFAULT_ENUM_BUDGET)
    rows, cols = np.nonzero(~base)
    k = len(rows)
    if 2**k > budget:
        raise BudgetError(f"2^{k} candidate relations exceed budget {budget}")
    shifts = np.arange(k)
    out = []
    for bits in range(2**k):
        m = base.copy()
        m[rows, cols] = (bits >> shifts) & 1
        rel = Relation(a.carrier, b.carrier, m)
        if ref_is_compatible_between(a, b, rel):
            out.append(rel)
    return sorted(out, key=lambda r: r.pairs())


def ref_closure_search(a: Algebra, b: Algebra, base: np.ndarray, budget: int | None) -> list[Relation]:
    """Compatible relations A -> B containing ``base``, lexicographic: the
    closure of ``base``, then the closure of each relation found with one
    missing pair added, until no new relation appears."""
    budget = resolve_budget(budget, DEFAULT_ENUM_BUDGET)
    k = int(np.count_nonzero(~base))
    if 2**k > budget:
        raise BudgetError(f"2^{k} candidate relations exceed budget {budget}")
    start = _close_between(a, b, base.copy())
    found = {start.tobytes(): start}
    todo = [start]
    while todo:
        m = todo.pop()
        for x, y in zip(*np.nonzero(~m)):
            grown = m.copy()
            grown[x, y] = True
            _close_between(a, b, grown)
            key = grown.tobytes()
            if key not in found:
                found[key] = grown
                todo.append(grown)
    out = [Relation(a.carrier, b.carrier, m) for m in found.values()]
    return sorted(out, key=lambda r: r.pairs())


def ref_build_T(e):
    k = len(e.pairs)
    m = np.zeros((k, k), dtype=bool)
    for i, (a, _b) in enumerate(e.pairs):
        for j, (_c, d) in enumerate(e.pairs):
            m[i, j] = (a, d) in e.relation
    return Relation(Carrier(k), Carrier(k), m)


def ref_build_R(e):
    k = len(e.pairs)
    m = np.zeros((k, k), dtype=bool)
    for i, (_a, b) in enumerate(e.pairs):
        for j, (c, _d) in enumerate(e.pairs):
            m[i, j] = (c, b) in e.relation
    return Relation(Carrier(k), Carrier(k), m)



def _projection_tables(n: int) -> list[tuple[tuple[int, ...], Term]]:
    grid = np.indices((n, n, n))
    names: list[Term] = ["x", "y", "z"]
    return [
        (tuple(int(v) for v in grid[i].ravel()), names[i]) for i in range(3)
    ]


class RefClone(NamedTuple):
    """The reference clone: its functions, whether it closed, its budget."""

    functions: tuple[TermFunction, ...]
    complete: bool
    budget: int


def ref_generate_ternary_clone(a: Algebra, budget: int | None = None) -> RefClone:
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
                        return RefClone(fns, complete=False, budget=budget)
        frontier_start = prev_len
    return RefClone(_freeze(a, known, order), complete=True, budget=budget)


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


def _array(fn: TermFunction) -> np.ndarray:
    return np.asarray(fn.table, dtype=np.intp).reshape(
        (fn.size, fn.size, fn.size)
    )


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


def ref_find_maltsev_term(a: Algebra, budget: int | None = None) -> TermSearchResult:
    """Least clone element p with p(x,y,y) = x and p(x,x,y) = y."""
    clone = ref_generate_ternary_clone(a, budget)
    col_x, row_y = np.indices((a.size, a.size))  # x and y, indexed by (x, y)
    for fn in clone.functions:
        t = _array(fn)
        if np.array_equal(_idem_left(t), col_x) and np.array_equal(
            _idem_right(t), row_y
        ):
            return TermSearchResult("found", (fn,))
    return TermSearchResult("not_found" if clone.complete else "inconclusive")


def ref_find_3perm_terms(a: Algebra, budget: int | None = None) -> TermSearchResult:
    """Least clone pair (r, s) with r(x,y,y)=x, r(x,x,y)=s(x,y,y), s(x,x,y)=y."""
    clone = ref_generate_ternary_clone(a, budget)
    col_x, row_y = np.indices((a.size, a.size))  # x and y, indexed by (x, y)
    r_cands = [
        fn for fn in clone.functions if np.array_equal(_idem_left(_array(fn)), col_x)
    ]
    s_cands = [
        fn for fn in clone.functions if np.array_equal(_idem_right(_array(fn)), row_y)
    ]
    for r in r_cands:
        r_mid = _idem_right(_array(r))
        for s in s_cands:
            if np.array_equal(r_mid, _idem_left(_array(s))):
                return TermSearchResult("found", (r, s))
    return TermSearchResult("not_found" if clone.complete else "inconclusive")


def ref_principal_congruence(a: Algebra, x: int, y: int) -> Relation:
    """Least congruence identifying x and y."""
    n = a.size
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"elements ({x}, {y}) out of range for size {n}")
    rel = Relation.from_pairs(a.carrier, a.carrier, [(x, y)])
    rel = union(rel, diagonal(a.carrier))
    while True:
        closed = compatible_close(a, rel.pairs())
        closed = Relation(a.carrier, a.carrier, closed.members | closed.members.T)
        closed = transitive_closure(closed)
        if closed == rel:
            return rel
        rel = closed


def ref_all_congruences(a: Algebra) -> list[Relation]:
    """Every congruence of A, as the join closure of the principal ones.

    Returned in a deterministic order: sorted by pair list.
    """
    found = {diagonal(a.carrier)}
    for x in range(a.size):
        for y in range(x + 1, a.size):
            found.add(ref_principal_congruence(a, x, y))
    while True:
        new = set()
        items = list(found)
        for r, s in itertools.combinations(items, 2):
            j = congruence_join(r, s)
            if j not in found:
                new.add(j)
        if not new:
            break
        found |= new
    return sorted(found, key=lambda r: r.pairs())


def ref_is_modular(cons: list[Relation]) -> bool:
    """Modularity of the congruence lattice whose members are ``cons``:
    x v (y ^ z) = (x v y) ^ z for every x <= z and every y."""
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


def ref_shifting_lemma_forall(
    a: Algebra,
    class_r: RelationClass,
    class_s: RelationClass,
    class_t: RelationClass,
    budget: int | None = None,
) -> SLResult:
    """The Shifting Lemma over all compatible relations of the given classes:
    the first triple in lexicographic order with R ^ S <= T that violates it."""
    try:
        rels = {
            cls: enumerate_class_relations(a, cls, budget)
            for cls in dict.fromkeys((class_r, class_s, class_t))
        }
    except BudgetError as e:
        return SLResult("inconclusive", reason=str(e))
    for r, s, t in itertools.product(rels[class_r], rels[class_s], rels[class_t]):
        if not leq(meet(r, s), t):
            continue
        res = shifting_lemma(r, s, t)
        if not res.holds:
            return SLResult("violated", quadruple=res.quadruple, triple=(r, s, t))
    return SLResult("holds")


def naive_filter(a, b, keep):
    """Every relation A -> B for which keep(rel) holds, lexicographic."""
    cells = list(itertools.product(range(a.size), range(b.size)))
    out = []
    for chosen in itertools.product((False, True), repeat=len(cells)):
        rel = Relation.from_pairs(a.carrier, b.carrier, itertools.compress(cells, chosen))
        if keep(rel):
            out.append(rel)
    return sorted(out, key=lambda r: r.pairs())


def ref_shifting_lemma(r: Relation, s: Relation, t: Relation) -> SLResult:
    """Exhaustive check of the shifting implication for one triple.

    Premises over (x, y, u, v): (x, y) in R ^ T, (x, u) in S, (y, v) in S,
    (u, v) in R; conclusion (u, v) in T.  Requires R ^ S <= T.
    """
    _common_carrier(r, s, t)
    if not leq(meet(r, s), t):
        raise PreconditionError("R ^ S <= T fails")
    rt = r.members & t.members
    premises = (
        rt[:, :, None, None]
        & s.members[:, None, :, None]
        & s.members[None, :, None, :]
        & r.members[None, None, :, :]
    )
    bad = premises & ~t.members[None, None, :, :]
    if not bad.any():
        return SLResult("holds")
    x, y, u, v = (int(i) for i in np.argwhere(bad)[0])
    return SLResult("violated", quadruple=(x, y, u, v))


@st.composite
def signatures(draw):
    arities = draw(st.lists(st.integers(0, MAX_ARITY), min_size=0, max_size=3))
    return Signature(tuple((f"f{i}", k) for i, k in enumerate(arities)))


@st.composite
def algebras(draw, sig):
    n = draw(st.integers(1, 3))
    tables = {
        op: tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
        for op, k in sig.ops
    }
    return Algebra("random", Carrier(n), sig, tables)


@st.composite
def algebra_pairs(draw):
    """Two algebras of one signature, with possibly different sizes."""
    sig = draw(signatures())
    return draw(algebras(sig)), draw(algebras(sig))


def relations(draw, a, b):
    cells = draw(st.lists(st.booleans(), min_size=a.size * b.size, max_size=a.size * b.size))
    return Relation(a.carrier, b.carrier, np.array(cells, dtype=bool).reshape(a.size, b.size))


@settings(max_examples=150, deadline=None)
@given(algebra_pairs(), st.integers(1, 5), st.data(), st.sampled_from([None, 1, 7]))
def test_compatibility_matches_reference(ab, k, data, stack_cells):
    # a stack of random relations, mostly incompatible, and the closures of
    # some of them, which are compatible: one bool per matrix; a stack of
    # one is its own union; a small _STACK_CELLS tests the stack in blocks
    # of one matrix or of a few
    a, b = ab
    drawn = [relations(data.draw, a, b) for _ in range(k)]
    picks = data.draw(st.lists(st.integers(0, k - 1), max_size=3))
    closed = [Relation(a.carrier, b.carrier, _close_between(a, b, drawn[i].members.copy())) for i in picks]
    rels = drawn + closed
    with pytest.MonkeyPatch.context() as mp:
        if stack_cells:
            mp.setattr(algebras_module, "_STACK_CELLS", stack_cells)
        got = _is_compatible_between(a, b, np.array([r.members for r in rels]))
    assert got.dtype == bool and got.shape == (len(rels),)
    assert got.tolist() == [ref_is_compatible_between(a, b, r) for r in rels]
    assert got[k:].all()


@settings(max_examples=150, deadline=None)
@given(signatures().flatmap(algebras), st.data())
def test_compatible_close_matches_reference(a, data):
    seed = relations(data.draw, a, a).pairs()
    assert compatible_close(a, seed) == ref_compatible_close(a, seed)


def ref_close_stack(a: Algebra, b: Algebra, stack: np.ndarray) -> np.ndarray:
    """Close every matrix of the stack in place, one matrix at a time."""
    for m in stack:
        _close_between(a, b, m)
    return stack


@settings(max_examples=200, deadline=None)
@given(algebra_pairs(), st.integers(0, 4), st.data(), st.sampled_from([None, 1, 50]))
def test_stack_closer_matches_per_matrix_loop(ab, k, data, stack_cells):
    # the two sizes are drawn apart; the stack holds k random matrices (none
    # when k = 0), then repeats of some of them and their closures, which are
    # closed already; a small _STACK_CELLS closes it in blocks of one matrix
    # or of a few
    a, b = ab
    drawn = [relations(data.draw, a, b).members for _ in range(k)]
    picks = data.draw(st.lists(st.integers(0, k - 1), max_size=3)) if k else []
    closed = [ref_close_stack(a, b, drawn[i][None].copy())[0] for i in picks]
    stack = np.array(drawn + [drawn[i] for i in picks] + closed, dtype=bool)
    stack = stack.reshape(-1, a.size, b.size)
    want = ref_close_stack(a, b, stack.copy())
    with pytest.MonkeyPatch.context() as mp:
        if stack_cells:
            mp.setattr(algebras_module, "_STACK_CELLS", stack_cells)
        got = _stack_closer(a, b)(stack)
    assert got is stack
    np.testing.assert_array_equal(got, want)


def test_stack_closer_refuses_a_strided_stack():
    # the stack is closed in place through one flat view of it
    a = cyclic_group(2)
    with pytest.raises(ValueError, match="C-contiguous"):
        _stack_closer(a, a)(np.zeros((2, 2, 4), dtype=bool)[..., :2])


@settings(max_examples=30, deadline=None)
@given(algebra_pairs())
def test_arbitrary_enumeration_matches_naive_filter(ab):
    a, b = ab
    got = enumerate_compatible_relations(a, b)
    assert got == ref_enumerate_compatible(a, b)
    assert got == naive_filter(a, b, lambda r: ref_is_compatible_between(a, b, r))


@settings(max_examples=30, deadline=None)
@given(signatures().flatmap(algebras))
def test_reflexive_enumeration_matches_naive_filter(a):
    for cls, extra in (
        (RelationClass.REFLEXIVE, lambda r: True),
        (RelationClass.REFLEXIVE_POSITIVE, is_positive),
    ):
        got = enumerate_class_relations(a, cls)
        assert got == ref_enumerate_reflexive(a, cls)
        assert got == naive_filter(
            a, a, lambda r: is_reflexive(r) and ref_is_compatible_between(a, a, r) and extra(r)
        )


@pytest.fixture(scope="module")
def corpus():
    return bundled_corpus()


@pytest.mark.parametrize("name", ["z4", "n5_unary"])
@pytest.mark.parametrize("cls", [
    RelationClass.ARBITRARY, RelationClass.REFLEXIVE, RelationClass.REFLEXIVE_POSITIVE
])
def test_class_enumeration_matches_brute_force_on_four_elements(corpus, name, cls):
    a = corpus[name]
    n = a.size
    base = np.zeros((n, n), dtype=bool) if cls is RelationClass.ARBITRARY else np.eye(n, dtype=bool)
    want = ref_brute_force(a, a, base, None)
    if cls is RelationClass.REFLEXIVE_POSITIVE:
        want = [r for r in want if is_positive(r)]
    assert enumerate_class_relations(a, cls) == want


@pytest.mark.parametrize("names", [("z2", "z4"), ("z4", "z2")])
def test_enumeration_between_sizes_matches_brute_force(corpus, names):
    a, b = (corpus[n] for n in names)
    want = ref_brute_force(a, b, np.zeros((a.size, b.size), dtype=bool), None)
    assert enumerate_compatible_relations(a, b) == want


def assert_congruences_match_reference(a):
    assert all_congruences(a) == ref_all_congruences(a)
    pairs = itertools.combinations(range(a.size), 2)
    got = [Relation(a.carrier, a.carrier, m) for m in _principal_stack(a)]
    assert got == [ref_principal_congruence(a, x, y) for x, y in pairs]


@settings(max_examples=150, deadline=None)
@given(signatures().flatmap(algebras))
def test_congruences_match_reference(a):
    assert_congruences_match_reference(a)


def seeded_algebra(n, arities, seed):
    rng = np.random.default_rng(seed)
    sig = Signature(tuple((f"f{i}", k) for i, k in enumerate(arities)))
    tables = {op: tuple(rng.integers(0, n, n**k).tolist()) for op, k in sig.ops}
    return Algebra(f"a{n}_{seed}", Carrier(n), sig, tables)


def unary_algebra(n, k, seed):
    return seeded_algebra(n, (1,) * k, seed)


@pytest.mark.parametrize("seed", range(8))
def test_arbitrary_enumeration_matches_closure_search_on_four_elements(seed):
    a = seeded_algebra(4, (1, 1), seed)
    want = ref_closure_search(a, a, np.zeros((4, 4), dtype=bool), None)
    assert enumerate_compatible_relations(a) == want
    assert enumerate_class_relations(a, RelationClass.ARBITRARY) == want


# most seeds, 0 among them, give a binary operation whose only reflexive
# compatible relations are the diagonal and the full relation; the other
# seeds here give 3 to 65
@pytest.mark.parametrize("seed", [0, 33, 35, 45, 80, 124, 208])
def test_reflexive_enumeration_matches_closure_search_on_four_elements(seed):
    a = seeded_algebra(4, (2, 1), seed)
    refl = ref_closure_search(a, a, np.eye(4, dtype=bool), None)
    assert enumerate_class_relations(a, RelationClass.REFLEXIVE) == refl
    assert enumerate_class_relations(a, RelationClass.REFLEXIVE_POSITIVE) == [
        r for r in refl if is_positive(r)
    ]


# the sizes of the benchmark's ladder, 5-16 elements, cyclic and unary
@pytest.mark.parametrize("make", [
    lambda corpus: corpus["n5_unary"],
    lambda corpus: cyclic_group(6),
    lambda corpus: cyclic_group(8),
    lambda corpus: cyclic_group(12),
    lambda corpus: cyclic_group(15),
    lambda corpus: cyclic_group(16),
    lambda corpus: unary_algebra(8, 2, seed=3),
    lambda corpus: unary_algebra(10, 1, seed=7),
    lambda corpus: unary_algebra(13, 2, seed=13),
    lambda corpus: unary_algebra(16, 2, seed=7),
    lambda corpus: unary_algebra(16, 2, seed=4),
], ids=["n5_unary", "z6", "z8", "z12", "z15", "z16", "unary8", "unary10", "unary13",
        "unary16_seed7", "unary16_seed4"])
def test_congruences_match_reference_on_larger_algebras(corpus, make):
    assert_congruences_match_reference(make(corpus))


@pytest.mark.parametrize("a, count", [
    (seeded_algebra(1, (0, 1, 2, 3), seed=0), 1),
    (seeded_algebra(4, (), seed=0), 15),
    (seeded_algebra(4, (0, 0), seed=1), 15),
], ids=["one_element", "no_operations", "constants_only"])
def test_congruence_kernel_edges_match_reference(a, count):
    # one element: the pair graph has no node; no operation, or constants
    # only: no translation, so every equivalence, Bell(4) = 15 of them
    assert len(all_congruences(a)) == count
    assert_congruences_match_reference(a)


def klein_group():
    """Z2 x Z2, whose congruence lattice is M3: modular, not distributive."""
    add = tuple(i ^ j for i in range(4) for j in range(4))
    return Algebra("klein", Carrier(4), Signature((("add", 2), ("neg", 1), ("zero", 0))),
                   {"add": add, "neg": (0, 1, 2, 3), "zero": (0,)})


def assert_modularity_matches_reference(a):
    cons = all_congruences(a)
    got = _is_modular(cons)
    assert got == congruence_lattice_is_modular(a) == ref_is_modular(ref_all_congruences(a))
    return got


@settings(max_examples=150, deadline=None)
@given(signatures().flatmap(algebras))
def test_modularity_matches_reference(a):
    assert_modularity_matches_reference(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 6), st.integers(1, 2), st.integers(0, 2**16))
def test_modularity_matches_reference_on_unary_algebras(n, k, seed):
    # every lattice of equivalences on at most 3 elements is modular
    assert_modularity_matches_reference(unary_algebra(n, k, seed))


@pytest.mark.parametrize("name", sorted(bundled_corpus()))
def test_modularity_matches_reference_on_bundled(corpus, name):
    assert assert_modularity_matches_reference(corpus[name]) == (name != "n5_unary")


def test_congruence_layer_matches_reference_one_row_per_block(monkeypatch):
    # every stack is then built and closed one row of blocks at a time
    monkeypatch.setattr(algebras_module, "_STACK_CELLS", 1)
    for a in (unary_algebra(8, 2, seed=3), cyclic_group(12), bundled_corpus()["n5_unary"]):
        assert_congruences_match_reference(a)
        assert_modularity_matches_reference(a)


def test_modularity_of_m3():
    klein = klein_group()
    assert len(all_congruences(klein)) == 5
    assert assert_modularity_matches_reference(klein)


LAYOUTS = {label: tuple(map(RelationClass.parse, label.split(","))) for label in SUITE_CLASS_COMBOS}


@settings(max_examples=80, deadline=None)
@given(algebra_pairs(), st.data())
def test_least_member_matches_brute_force(pair, data):
    # every class on A, and ARBITRARY also from A to B
    a, b = pair
    for cls, target in [*((c, a) for c in RelationClass), (RelationClass.ARBITRARY, b)]:
        m = relations(data.draw, a, target).members
        members = naive_filter(a, target, lambda rel, c=cls, t=target: (
            ref_is_compatible_between(a, t, rel) and in_class(c, rel)
        ))
        want = np.logical_and.reduce([r.members for r in members if (r.members >= m).all()])
        assert (_least(a, target, cls, m) == want).all(), cls


def in_class(cls: RelationClass, rel: Relation) -> bool:
    if cls is RelationClass.ARBITRARY:
        return True
    if cls is RelationClass.EQUIVALENCE:
        return is_equivalence(rel)
    return is_reflexive(rel) and (cls is RelationClass.REFLEXIVE or is_positive(rel))


def class_list(a: Algebra, b: Algebra, cls: RelationClass) -> list[Relation]:
    """The complete list of ``cls``, the oracle of the searched checks."""
    if cls is RelationClass.ARBITRARY:
        return enumerate_compatible_relations(a, b, 1 << 40)
    return enumerate_class_relations(a, cls, 1 << 40)


def assert_least_member(a: Algebra, b: Algebra, cls: RelationClass, rel: Relation, pairs) -> None:
    """``rel`` is a compatible relation of ``cls`` and the meet of the list
    members that contain ``pairs``."""
    gens = Relation.from_pairs(a.carrier, b.carrier, pairs).members
    members = class_list(a, b, cls)
    assert ref_is_compatible_between(a, b, rel) and in_class(cls, rel) and rel in members
    above = [m.members for m in members if (m.members >= gens).all()]
    assert (np.logical_and.reduce(above) == rel.members).all()


def assert_searched_shifting_lemma(a: Algebra, classes, got: SLResult) -> None:
    """A searched quantified Shifting Lemma against the complete lists: the
    same verdict, and a violation's R', S' and T' generated from its
    quadruple, with R' ^ S' <= T', and the quadruple replaying."""
    want = ref_shifting_lemma_forall(a, *classes, 1 << 40)
    assert got.verdict == want.verdict
    if got.verdict == "violated":
        (x, y, u, v), (r, s, t) = got.quadruple, got.triple
        assert_least_member(a, a, classes[0], r, [(x, y), (u, v)])
        assert_least_member(a, a, classes[1], s, [(x, u), (y, v)])
        assert_least_member(a, a, classes[2], t, [*meet(r, s).pairs(), (x, y)])
        assert leq(meet(r, s), t)
        assert ref_shifting_lemma(r, s, t) == SLResult("violated", quadruple=got.quadruple)


def first_failing_generators(check, d: np.ndarray) -> list[tuple[int, int]]:
    """The pairs of the least tuple at which the matrix ``d`` fails the
    sweep ``check``, in the search's tuple order."""
    na, nb = d.shape
    if check is difunctional_all:
        for x, y, u, v in itertools.product(range(na), range(na), range(nb), range(nb)):
            if d[x, u] and d[y, u] and d[y, v] and not d[x, v]:
                return [(x, u), (y, u), (y, v)]
    if check in (goursat_identity_all, "ee_op_is_equivalence"):
        for x, y, z, p, q in itertools.product(*(range(nb),) * 3, *(range(na),) * 2):
            if d[p, x] and d[p, y] and d[q, y] and d[q, z] and not (d[:, x] & d[:, z]).any():
                return [(p, x), (p, y), (q, y), (q, z)]
    if check == "ee_op_equals_op_ee":
        for x, y, m in itertools.product(range(na), repeat=3):
            if d[x, m] and d[y, m] and not (d[:, x] & d[:, y]).any():
                return [(x, m), (y, m)]
    for x, y, z in itertools.product(range(na), repeat=3):
        if d[x, y] and d[y, z] and not d[x, z]:
            return [(x, y), (y, z)]
    raise AssertionError("the relation does not fail the sweep")


def assert_searched_sweep(a: Algebra, b: Algebra | None, check, got: SLResult) -> None:
    """A searched sweep against its complete list: the same verdict, and a
    violation's D generated from the least tuple at which it fails."""
    want = check(a, b, 1 << 40)
    assert got.verdict == want.verdict
    if got.verdict == "violated":
        d = got.triple[0]
        assert got.triple == (d, d, d) and got.reason == want.reason
        b = a if b is None else b
        assert_least_member(a, b, RelationClass.ARBITRARY, d, first_failing_generators(check, d.members))


def assert_searched_tolerances(a: Algebra, got: bool | str) -> None:
    """A searched ``reflexive_positive_all_equivalence`` against its list."""
    assert got == reflexive_positive_all_equivalence(a, 1 << 40)


def refuse_every_list(a, b, base, budget):
    raise BudgetError("refused")


def searched(f, *args):
    """``f(*args)`` with every list but the congruences refused, so searched."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks_module, "_subalgebras", refuse_every_list)
        return f(*args)


@settings(max_examples=40, deadline=None)
@given(signatures().flatmap(algebras))
def test_searched_shifting_lemma_matches_complete_lists(a):
    # arbitrary R and S only on 2 elements: 3 elements allow 2^9 of each
    arbitrary = [(RelationClass.ARBITRARY,) * 3] if a.size < 3 else []
    for classes in [*LAYOUTS.values(), *arbitrary, LAYOUTS["refl,refl,refl"][:1] + (
        RelationClass.REFLEXIVE_POSITIVE, RelationClass.EQUIVALENCE
    )]:
        assert_searched_shifting_lemma(a, classes, searched(shifting_lemma_forall, a, *classes, 1 << 40))


@settings(max_examples=40, deadline=None)
@given(algebra_pairs())
def test_searched_sweeps_match_complete_lists(pair):
    a, b = pair
    for check in (difunctional_all, goursat_identity_all):
        assert_searched_sweep(a, None, check, searched(check, a, None, 1 << 40))
        assert_searched_sweep(a, b, check, searched(check, a, b, 1 << 40))
    assert_searched_tolerances(a, searched(reflexive_positive_all_equivalence, a, 1 << 40))


@pytest.mark.parametrize("name", ["z4", "n5_unary"])
@pytest.mark.parametrize("label", ["any,any,any", "refl,any,refl", "any,refl,eq"])
def test_searched_shifting_lemma_matches_complete_lists_on_bundled(corpus, name, label):
    a, classes = corpus[name], tuple(map(RelationClass.parse, label.split(",")))
    assert_searched_shifting_lemma(a, classes, searched(shifting_lemma_forall, a, *classes, 1 << 40))


@pytest.mark.parametrize("name", sorted(bundled_corpus()))
def test_searched_sweeps_match_complete_lists_on_bundled(corpus, name):
    a = corpus[name]
    for check in (difunctional_all, goursat_identity_all):
        assert_searched_sweep(a, None, check, searched(check, a, None, 1 << 40))
    assert_searched_tolerances(a, searched(reflexive_positive_all_equivalence, a, 1 << 40))


# Each E fact of ``_ee_sweeps`` of one reflexive E, as the suite wrote it
# before: the two symmetrizations formed with ``compose``.
REF_EE = {
    "ee_op_is_equivalence": lambda e: ref_is_equivalence(compose(e, opposite(e))),
    "ee_op_equals_op_ee": lambda e: ref_commutes(e),
}


def assert_ee_sweeps_match_reference(a: Algebra) -> None:
    """Both E facts, decided from the complete reflexive list and searched,
    against ``REF_EE`` on every member of the list: the list reports the
    first E that fails, and the search an E generated from the least tuple
    at which it fails.  The search runs under a budget one short of the
    list's 2^k candidates; on 2 elements that leaves 3 closures, so the
    list is refused instead."""
    refl = class_list(a, a, RelationClass.REFLEXIVE)
    refused = 2 ** (a.size * a.size - a.size) - 1
    listed = _ee_sweeps(a)
    if a.size > 2:
        with pytest.raises(BudgetError):
            enumerate_class_relations(a, RelationClass.REFLEXIVE, refused)
        got = _ee_sweeps(a, refused)
    else:
        got = searched(_ee_sweeps, a, 1 << 40)
    for key, holds in REF_EE.items():
        e = ref_first_failing(refl, holds)
        assert (listed[key].verdict, listed[key].triple) == (
            ("holds", None) if e is None else ("violated", (e, e, e))
        )
        assert got[key].verdict == listed[key].verdict
        if got[key].verdict == "violated":
            e = got[key].triple[0]
            assert got[key].triple == (e, e, e) and got[key].reason == listed[key].reason
            assert_least_member(a, a, RelationClass.REFLEXIVE, e, first_failing_generators(key, e.members))
            assert not holds(e)


@pytest.mark.parametrize("name", sorted(bundled_corpus()))
def test_ee_sweeps_match_reference_on_bundled(corpus, name):
    assert_ee_sweeps_match_reference(corpus[name])


@pytest.mark.parametrize("arities", [(1,), (1, 1), (2,)])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", range(10))
def test_ee_sweeps_match_reference(n, arities, seed):
    assert_ee_sweeps_match_reference(seeded_algebra(n, arities, seed))


def test_ee_facts_differ_on_the_unary_four_cycle():
    # E E-op fails to be transitive for some E, yet commutes with E-op E
    # for every E: neither fact stands in for the other
    u4 = Algebra("u4", Carrier(4), Signature((("f", 1),)), {"f": (1, 2, 3, 0)})
    assert_ee_sweeps_match_reference(u4)
    got = _ee_sweeps(u4, 4095)
    assert [got[k].verdict for k in REF_EE] == ["violated", "holds"]


MIXED_CASES = [
    *((name, label, budget)
      for name in ("semilattice2", "set2", "z2")
      for label in ("any,refl,refl", "refl,any,refl")
      for budget in (12, 13, 14, 15)),
    *((name, label, 4096)
      for name in ("z4", "n5_unary")
      for label in ("any,refl,refl", "refl,any,refl", "refl,refl,any", "any,eq,refl")),
]


@pytest.mark.parametrize("name, label, budget", MIXED_CASES)
def test_mixed_classes_are_searched_whole(corpus, name, label, budget):
    # the budget admits the reflexive list and refuses the arbitrary one,
    # so the whole check is searched, within the budget: semilattice2 and
    # set2 need 16 closures, z2 13 and the 4-element algebras 45 to 89
    a, classes = corpus[name], tuple(map(RelationClass.parse, label.split(",")))
    with pytest.raises(BudgetError):
        enumerate_compatible_relations(a, budget=budget)
    enumerate_class_relations(a, RelationClass.REFLEXIVE, budget)
    got = shifting_lemma_forall(a, *classes, budget)
    if name in ("semilattice2", "set2") or budget == 12:
        assert got.reason.startswith(f"search exhausted budget {budget} closures after ")
    else:
        assert_searched_shifting_lemma(a, classes, got)


def test_unary_cycle_violates_the_reflexive_shifting_lemma():
    # 2^20 candidates are refused; the search stops at the first violation
    u5 = Algebra("u5", Carrier(5), Signature((("f", 1),)), {"f": (1, 2, 3, 4, 0)})
    refl = (RelationClass.REFLEXIVE,) * 3
    assert_searched_shifting_lemma(u5, refl, shifting_lemma_forall(u5, *refl))


def assert_forall_matches_reference(a, classes):
    got = shifting_lemma_forall(a, *classes)
    want = ref_shifting_lemma_forall(a, *classes)
    assert (got.verdict, got.quadruple, got.reason) == (want.verdict, want.quadruple, want.reason)
    assert got.triple == want.triple
    return got


@settings(max_examples=60, deadline=None)
@given(signatures().flatmap(algebras), st.sampled_from([None, 1, 64]))
def test_quantified_shifting_lemma_matches_reference(a, stack_cells):
    # a small _STACK_CELLS puts one S, or a few, in each block
    with pytest.MonkeyPatch.context() as mp:
        if stack_cells:
            mp.setattr(algebras_module, "_STACK_CELLS", stack_cells)
        for classes in LAYOUTS.values():
            assert_forall_matches_reference(a, classes)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 6), st.integers(1, 2), st.integers(0, 2**16))
def test_quantified_shifting_lemma_on_congruences_matches_reference(n, k, seed):
    assert_forall_matches_reference(unary_algebra(n, k, seed), LAYOUTS["eq,eq,eq"])


@pytest.mark.parametrize("name", sorted(bundled_corpus()))
@pytest.mark.parametrize("label", SUITE_CLASS_COMBOS)
def test_quantified_shifting_lemma_matches_reference_on_bundled(corpus, name, label):
    assert_forall_matches_reference(corpus[name], LAYOUTS[label])


@pytest.mark.parametrize("make, verdict", [
    (lambda: bundled_corpus()["n5_unary"], "violated"),
    (klein_group, "holds"),
    (lambda: cyclic_group(12), "holds"),
    (lambda: unary_algebra(8, 2, seed=3), "violated"),
    (lambda: unary_algebra(16, 2, seed=4), "holds"),
], ids=["n5_unary", "klein", "z12", "unary8", "unary16"])
def test_quantified_shifting_lemma_on_congruences_of_larger_algebras(make, verdict):
    assert assert_forall_matches_reference(make(), LAYOUTS["eq,eq,eq"]).verdict == verdict


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_pair_object_builders_match_reference(n, data):
    # with no operations every reflexive relation is compatible
    a = Algebra("set", Carrier(n), Signature(()), {})
    r = relations(data.draw, a, a)
    e = as_paired_object(a, Relation(a.carrier, a.carrier, r.members | np.eye(n, dtype=bool)))
    assert build_T(e) == ref_build_T(e)
    assert build_R(e) == ref_build_R(e)


@st.composite
def clone_cases(draw):
    """A random algebra and a clone budget.  A ternary operation comes only
    with a budget of at most 40: the reference visits len(order)**arity
    argument tuples per round."""
    arities = draw(st.lists(st.integers(0, MAX_ARITY), min_size=1, max_size=3))
    budget = draw(st.integers(3, 40 if MAX_ARITY in arities else 100))
    sig = Signature(tuple((f"f{i}", k) for i, k in enumerate(arities)))
    return draw(algebras(sig)), budget


def cut_search(want, clone):
    """The reference's search result on a clone it overran: its terms, if
    all of them are among the first ``budget`` functions, else inconclusive."""
    if want.found and all(t in clone.functions for t in want.terms):
        return want
    return TermSearchResult("inconclusive")


@settings(max_examples=150, deadline=None)
@given(clone_cases())
def test_clone_and_term_searches_match_reference(case):
    a, budget = case
    got = generate_ternary_clone(a, budget)
    want = ref_generate_ternary_clone(a, budget)
    want_p = ref_find_maltsev_term(a, budget)
    want_rs = ref_find_3perm_terms(a, budget)
    if len(want.functions) > budget:
        # the reference skipped the budget test after a constant
        want = RefClone(want.functions[:budget], complete=False, budget=budget)
        want_p, want_rs = cut_search(want_p, want), cut_search(want_rs, want)
    assert RefClone(got.functions, got.complete, got.budget) == want
    assert find_maltsev_term(a, budget) == want_p
    assert find_3perm_terms(a, budget) == want_rs


def is_ref_maltsev(fn: TermFunction) -> bool:
    t = _array(fn)
    col_x, row_y = np.indices((fn.size, fn.size))
    return np.array_equal(_idem_left(t), col_x) and np.array_equal(_idem_right(t), row_y)


def ref_until_maltsev(a: Algebra, budget: int) -> RefClone:
    """The reference clone cut right after its first Mal'tsev member, or
    the whole or budget-cut reference clone when it has none."""
    want = ref_generate_ternary_clone(a, budget)
    if len(want.functions) > budget:
        # the reference skipped the budget test after a constant
        want = RefClone(want.functions[:budget], complete=False, budget=budget)
    for i, fn in enumerate(want.functions):
        if is_ref_maltsev(fn):
            return RefClone(want.functions[: i + 1], complete=False, budget=budget)
    return want


def replay_steps(clone) -> list[Term]:
    """The derivation trees that ``clone.steps`` spells out, step by step."""
    terms: list[Term] = []
    for op, args in clone.steps:
        if op is None:
            terms += ["xyz"[j] for j in args[0]]
        elif not args:
            terms.append((op,))
        else:
            terms += [(op, *(terms[col[k]] for col in args)) for k in range(len(args[0]))]
    return terms


def assert_until_maltsev_matches_reference(a: Algebra, budget: int, chunk_cells=None):
    with pytest.MonkeyPatch.context() as mp:
        if chunk_cells is not None:
            mp.setattr(terms_module, "CHUNK_CELLS", chunk_cells)
        got = generate_ternary_clone(a, budget, until_maltsev=True)
    want = ref_until_maltsev(a, budget)
    assert RefClone(got.functions, got.complete, got.budget) == want
    assert replay_steps(got) == [fn.term for fn in want.functions]
    return got


@settings(max_examples=150, deadline=None)
@given(clone_cases(), st.sampled_from([None, "one", "cube"]))
def test_clone_until_maltsev_matches_reference(case, cells):
    # one Mal'tsev test per chunk, with chunks of one cell (one row of
    # argument tuples each), of n**3 cells, or of the default size: the
    # clone ends right after the first Mal'tsev member that was kept
    a, budget = case
    assert_until_maltsev_matches_reference(a, budget, {"one": 1, "cube": a.size**3}.get(cells))


@pytest.mark.parametrize("budget", [17, 18, 19, 20])
def test_budget_cut_before_the_maltsev_row_of_its_chunk(budget):
    # one chunk of Z3's second round gives members 17..20, the last of
    # which is its first Mal'tsev member; with these budgets the cut falls
    # in that chunk before the Mal'tsev row, so no Mal'tsev member is kept
    a = bundled_corpus()["z3"]
    got = assert_until_maltsev_matches_reference(a, budget)
    assert not got.complete and len(got.tables) == budget
    assert not any(map(is_ref_maltsev, got.functions))
    assert is_ref_maltsev(generate_ternary_clone(a, 21, until_maltsev=True).function(20))


# the 3-element groupoids (one binary operation "m") of the clone benchmark
# workload at seed 1 whose clone the default budget cuts
BUDGET_CUT_GROUPOIDS = [
    (2, 0, 1, 0, 2, 2, 1, 0, 2),
    (0, 2, 2, 1, 0, 2, 2, 0, 0),
    (2, 1, 0, 0, 2, 2, 0, 0, 2),
    (0, 2, 2, 0, 0, 0, 1, 0, 0),
    (0, 0, 2, 1, 0, 2, 1, 2, 0),
]


@pytest.mark.parametrize("table", BUDGET_CUT_GROUPOIDS)
def test_budget_cut_clone_matches_reference(table):
    # a multi-round clone cut at the default budget: every derivation is
    # replayed from the recorded argument indices
    a = Algebra("groupoid", Carrier(3), Signature((("m", 2),)), {"m": table})
    got = generate_ternary_clone(a)
    want = ref_generate_ternary_clone(a)
    assert not want.complete and len(want.functions) == DEFAULT_CLONE_BUDGET
    assert RefClone(got.functions, got.complete, got.budget) == want


@pytest.mark.parametrize("n, arity", [(7, 3), (17, 2)])
def test_clone_with_wide_flat_indices_matches_reference(n, arity):
    # the smallest carriers whose flat indices n**arity - 1 need two bytes
    a = seeded_algebra(n, (arity,), seed=n)
    got = generate_ternary_clone(a, budget=40)
    want = ref_generate_ternary_clone(a, budget=40)
    assert not want.complete
    assert RefClone(got.functions, got.complete, got.budget) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.data())
def test_shifting_lemma_matches_tensor_kernel(n, data):
    a = Algebra("set", Carrier(n), Signature(()), {})
    r, s, t = (relations(data.draw, a, a) for _ in range(3))
    t = union(t, meet(r, s))  # widened so that R ^ S <= T
    assert shifting_lemma(r, s, t) == ref_shifting_lemma(r, s, t)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 6), st.data())
def test_shift_stack_matches_tensor_kernel_t_by_t(n, j, k, data):
    # a stack of j S and one of k T; some T are widened so that R ^ S <= T
    # for one of the S, the others mostly are not; the first violation is
    # the first (S, T) in row-major order
    a = Algebra("set", Carrier(n), Signature(()), {})
    r = relations(data.draw, a, a)
    ss = [relations(data.draw, a, a) for _ in range(j)]
    ts = [relations(data.draw, a, a) for _ in range(k)]
    ts = [union(t, meet(r, data.draw(st.sampled_from(ss)))) if data.draw(st.booleans()) else t
          for t in ts]
    meets, bad = _shift_stack(r.members, np.array([s.members for s in ss]), np.array([t.members for t in ts]))
    assert meets.shape == (j, k)
    first = None
    for (js, s), (i, t) in itertools.product(enumerate(ss), enumerate(ts)):
        try:
            want = ref_shifting_lemma(r, s, t)
        except PreconditionError:
            assert not meets[js, i]
            continue
        assert meets[js, i]
        if first is None and not want.holds:
            first = (js, i, want.quadruple)
    assert bad == first


def test_shifting_lemma_matches_tensor_kernel_on_witnesses():
    a = unary_algebra(8, 2, seed=3)
    n = a.size
    closures = {
        compatible_close(a, [(i, i) for i in range(n)] + [(x, y)])
        for x in range(n)
        for y in range(n)
    }
    non_symmetric = [e for e in closures if not is_symmetric(e)]
    assert len(non_symmetric) == 50
    assert max(len(e) for e in non_symmetric) == 21
    replayed = 0
    for e in non_symmetric:
        for build in (maltsev_sl_witness, goursat_sl_witness):
            try:
                w = build(a, e)
            except NoWitnessError:
                continue
            got = shifting_lemma(w.R, w.S, w.T)
            assert got == ref_shifting_lemma(w.R, w.S, w.T)
            assert got.verdict == "violated"
            replayed += 1
    assert replayed >= len(non_symmetric)


# The per-relation predicates and the box/W replay that the stacked
# kernels replaced: one relation, or one (R, T) pair, per call.


def ref_is_equivalence(r: Relation) -> bool:
    return is_reflexive(r) and is_symmetric(r) and is_transitive(r)


def ref_is_difunctional(d: Relation) -> bool:
    return compose(d, compose(opposite(d), d)) == d


def ref_goursat_identity(d: Relation) -> bool:
    dd = compose(d, opposite(d))
    return compose(dd, dd) == dd


def ref_commutes(e: Relation) -> bool:
    return compose(e, opposite(e)) == compose(opposite(e), e)


def ref_box_join(p, r: Relation, t: Relation) -> bool:
    box = build_box(r, p)
    w = build_W(t, r, p)
    b = meet(box, kernel_pair(p, 2))
    bwb = compose(b, compose(w, b))
    wbw = compose(w, compose(b, w))
    return bwb == wbw


def stack_of(rels):
    return np.array([r.members for r in rels])


@pytest.mark.parametrize("name", ["n5_unary", "semilattice2", "z4"])
@pytest.mark.parametrize("stack_cells", [1, 64])
def test_quantified_shifting_lemma_in_blocks_of_s_matches_reference_on_bundled(
    corpus, name, stack_cells, monkeypatch
):
    # every block of S holds one row, or a few
    monkeypatch.setattr(algebras_module, "_STACK_CELLS", stack_cells)
    for classes in LAYOUTS.values():
        assert_forall_matches_reference(corpus[name], classes)


@st.composite
def predicate_stacks(draw):
    """A stack of random relations A -> B, sizes 1-3 drawn apart, with
    difunctional ones (unions of disjoint rectangles) among them, and a
    stack of random relations on A with equivalences among them."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a, b = (Algebra("set", Carrier(k), Signature(()), {}) for k in (n, m))
    k = draw(st.integers(1, 5))
    rels = [relations(draw, a, b) for _ in range(k)]
    rows, cols = (draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)) for size in (n, m))
    rels.append(Relation(a.carrier, b.carrier, np.equal.outer(rows, cols)))
    square = [relations(draw, a, a) for _ in range(k)]
    square += [transitive_closure(Relation(a.carrier, a.carrier, r.members | r.members.T | np.eye(n, dtype=bool)))
               for r in square]
    return rels, square


@settings(max_examples=200, deadline=None)
@given(predicate_stacks())
def test_stacked_predicates_match_reference(stacks):
    rels, square = stacks
    for stacked, single, ref in (
        (_difunctional_stack, is_difunctional, ref_is_difunctional),
        (_goursat_stack, None, ref_goursat_identity),
    ):
        want = [ref(d) for d in rels]
        assert stacked(stack_of(rels)).tolist() == want
        if single:
            assert [single(d) for d in rels] == want
    want = [ref_is_equivalence(r) for r in square]
    assert _equivalence_stack(stack_of(square)).tolist() == want
    assert [is_equivalence(r) for r in square] == want
    assert all(want[len(want) // 2:])
    assert _commuting_stack(stack_of(square)).tolist() == [ref_commutes(e) for e in square]


def ref_first_failing(rels, holds):
    return next((d for d in rels if not holds(d)), None)


def assert_sweeps_match_reference(a, b):
    rels = enumerate_compatible_relations(a, b)
    for sweep, holds, reason in (
        (difunctional_all, ref_is_difunctional, "not difunctional"),
        (goursat_identity_all, ref_goursat_identity, "identity fails"),
    ):
        d = ref_first_failing(rels, holds)
        want = SLResult("holds") if d is None else SLResult("violated", triple=(d, d, d), reason=reason)
        got = sweep(a, b)
        assert (got, got.triple) == (want, want.triple)
    pos = enumerate_class_relations(a, RelationClass.REFLEXIVE_POSITIVE)
    assert reflexive_positive_all_equivalence(a) is (ref_first_failing(pos, ref_is_equivalence) is None)


@settings(max_examples=60, deadline=None)
@given(algebra_pairs(), st.sampled_from([None, 1, 20]))
def test_sweeps_in_blocks_match_reference(ab, stack_cells):
    a, b = ab
    with pytest.MonkeyPatch.context() as mp:
        if stack_cells:
            mp.setattr(algebras_module, "_STACK_CELLS", stack_cells)
        assert_sweeps_match_reference(a, b)


@pytest.mark.parametrize("names", [("n5_unary", None), ("semilattice2", None), ("z2", "z4"), ("z4", "z2")])
@pytest.mark.parametrize("stack_cells", [None, 1])
def test_sweeps_in_blocks_match_reference_on_bundled(corpus, names, stack_cells, monkeypatch):
    if stack_cells:
        monkeypatch.setattr(algebras_module, "_STACK_CELLS", stack_cells)
    a, b = (corpus[n] if n else None for n in names)
    assert_sweeps_match_reference(a, b)


def assert_box_join_matches_reference(a, stack_cells=None):
    """The box/W kernel on every reflexive compatible S of A, with every
    (R, T) pair of congruences, against the per-pair replay; returns the
    number of pairs that fail the identity."""
    cons = all_congruences(a)
    failed = 0
    for s in enumerate_class_relations(a, RelationClass.REFLEXIVE):
        p = as_paired_object(a, s)
        with pytest.MonkeyPatch.context() as mp:
            if stack_cells:
                mp.setattr(algebras_module, "_STACK_CELLS", stack_cells)
            got = _box_join(p, stack_of(cons), stack_of(cons))
        want = [[ref_box_join(p, r, t) for r in cons] for t in cons]
        assert got.tolist() == want
        failed += int((~got).sum())
    return failed


@settings(max_examples=40, deadline=None)
@given(signatures().flatmap(algebras), st.sampled_from([None, 1]))
def test_box_join_stack_matches_reference(a, stack_cells):
    assert_box_join_matches_reference(a, stack_cells)


@pytest.mark.parametrize("name, failed", [("n5_unary", 116), ("semilattice2", 0), ("z4", 0)])
@pytest.mark.parametrize("stack_cells", [None, 1])
def test_box_join_stack_matches_reference_on_bundled(corpus, name, failed, stack_cells):
    # on n5_unary, which is not 3-permutable, the identity fails for some
    # (S, R, T); the suite records it only where 3-permutability terms exist
    assert assert_box_join_matches_reference(corpus[name], stack_cells) == failed
