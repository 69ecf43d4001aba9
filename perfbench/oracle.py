"""Independent re-implementations used to verify relshift's outputs.

Nothing here imports relshift.  Algebras are `Spec` values (see
workloads.py): a carrier size and flat row-major operation tables.
Relations are Python sets of pairs and congruences are partitions given
as canonical label tuples, so every check is a second, simpler route to
the answer the program computed.
"""

from __future__ import annotations

import itertools

import numpy as np

# ---------------------------------------------------------------------------
# operations and relations
# ---------------------------------------------------------------------------


def apply(n, arity, table, args):
    index = 0
    for a in args:
        index = index * n + a
    return table[index]


def is_compatible(spec, pairs):
    """R is closed under every operation applied coordinatewise."""
    pairs = set(pairs)
    plist = sorted(pairs)
    for _name, arity, table in spec.ops:
        for combo in itertools.product(plist, repeat=arity):
            left = apply(spec.n, arity, table, [p[0] for p in combo])
            right = apply(spec.n, arity, table, [p[1] for p in combo])
            if (left, right) not in pairs:
                return False
    return True


def compatible_closure(spec, seed, cap=None):
    """Least compatible relation containing ``seed``, or None once it has
    more than ``cap`` pairs."""
    rel = set(seed)
    while cap is None or len(rel) <= cap:
        plist = sorted(rel)
        new = set()
        for _name, arity, table in spec.ops:
            for combo in itertools.product(plist, repeat=arity):
                new.add((apply(spec.n, arity, table, [p[0] for p in combo]),
                         apply(spec.n, arity, table, [p[1] for p in combo])))
        if new <= rel:
            return rel
        rel |= new
    return None


def compose(s, r):
    """SR: R first, then S (the program's convention)."""
    by_first = {}
    for y, z in s:
        by_first.setdefault(y, set()).add(z)
    return {(x, z) for x, y in r for z in by_first.get(y, ())}


def opposite(r):
    return {(y, x) for x, y in r}


def is_equivalence(n, rel):
    return (all((x, x) in rel for x in range(n))
            and all((y, x) in rel for x, y in rel)
            and compose(rel, rel) <= rel)


def is_difunctional(d):
    return compose(d, compose(opposite(d), d)) == set(d)


def goursat_identity(d):
    dd = compose(d, opposite(d))
    return compose(dd, dd) == dd


def violates(r, s, t, quad):
    """Premises (x,y) in R^T, (x,u) in S, (y,v) in S, (u,v) in R all hold
    and the conclusion (u,v) in T fails."""
    x, y, u, v = quad
    return ((x, y) in r and (x, y) in t and (x, u) in s and (y, v) in s
            and (u, v) in r and (u, v) not in t)


def maltsev_triple(e):
    """(R, S, T) on the object of E-pairs, indexed in lexicographic order:
    R relates (a,b),(c,d) iff (c,b) in E; S iff b = d; T iff (a,d) in E."""
    pairs = sorted(e)
    idx = range(len(pairs))
    r = {(i, j) for i in idx for j in idx if (pairs[j][0], pairs[i][1]) in e}
    s = {(i, j) for i in idx for j in idx if pairs[i][1] == pairs[j][1]}
    t = {(i, j) for i in idx for j in idx if (pairs[i][0], pairs[j][1]) in e}
    return r, s, t


def goursat_triple(e):
    """(E E-op, E, E-op E) on the base carrier."""
    return compose(e, opposite(e)), set(e), compose(opposite(e), e)


# ---------------------------------------------------------------------------
# congruences as partitions
# ---------------------------------------------------------------------------


def _find(parent, a):
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _canonical(parent):
    first = {}
    return tuple(first.setdefault(_find(parent, i), i) for i in range(len(parent)))


def _close(spec, parent, pending):
    """Least congruence above the partition ``parent`` that also identifies
    every pair in ``pending`` (union-find with propagation)."""
    parent = list(parent)
    n = spec.n
    while pending:
        a, b = pending.pop()
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            continue
        parent[ra] = rb
        for _name, arity, table in spec.ops:
            for pos in range(arity):
                for ctx in itertools.product(range(n), repeat=arity - 1):
                    args = list(ctx)
                    args.insert(pos, a)
                    left = apply(n, arity, table, args)
                    args[pos] = b
                    pending.append((left, apply(n, arity, table, args)))
    return _canonical(parent)


def congruences(spec, cap=None):
    """Every congruence as a canonical partition, or None once more than
    ``cap`` have been found."""
    bottom = tuple(range(spec.n))
    principal = set()
    for x, y in itertools.combinations(range(spec.n), 2):
        principal.add(_close(spec, bottom, [(x, y)]))
        if cap is not None and len(principal) >= cap:
            return None
    found = {bottom} | principal
    frontier = list(principal)
    while frontier and (cap is None or len(found) <= cap):
        new = []
        for c in frontier:
            for p in principal:
                j = _close(spec, c, [(i, p[i]) for i in range(spec.n) if p[i] != i])
                if j not in found:
                    found.add(j)
                    new.append(j)
        frontier = new
    return None if cap is not None and len(found) > cap else found


def partition_pairs(p):
    return {(x, y) for x in range(len(p)) for y in range(len(p)) if p[x] == p[y]}


def partition_of(n, rel):
    parent = list(range(n))
    for x, y in rel:
        parent[_find(parent, x)] = _find(parent, y)
    return _canonical(parent)


def partition_join(p, q):
    parent = list(p)
    for i, j in enumerate(q):
        parent[_find(parent, i)] = _find(parent, j)
    return _canonical(parent)


def partition_meet(p, q):
    first = {}
    return tuple(first.setdefault((p[i], q[i]), i) for i in range(len(p)))


def is_modular(parts):
    parts = list(parts)
    leq = lambda p, q: partition_meet(p, q) == p  # noqa: E731
    for x, z in itertools.product(parts, repeat=2):
        if not leq(x, z):
            continue
        for y in parts:
            if partition_join(x, partition_meet(y, z)) != partition_meet(partition_join(x, y), z):
                return False
    return True


def permutability_level(r, s):
    rs, sr = compose(r, s), compose(s, r)
    if rs == sr:
        return "2-permute"
    if compose(r, sr) == compose(s, rs):
        return "3-permute"
    return "neither"


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


def parse_sexpr(text):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        op = tokens[pos]
        pos += 1
        children = []
        while tokens[pos] != ")":
            children.append(parse())
        pos += 1
        return (op, *children)

    term = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return term


def eval_term(spec, term):
    """Table of the ternary term operation, flat over (x, y, z)."""
    n = spec.n
    ops = {name: (arity, table) for name, arity, table in spec.ops}
    variables = {"x": 0, "y": 1, "z": 2}

    def at(t, point):
        if isinstance(t, str):
            return point[variables[t]]
        arity, table = ops[t[0]]
        if len(t) - 1 != arity:
            raise ValueError(f"{t[0]} applied to {len(t) - 1} arguments")
        return apply(n, arity, table, [at(c, point) for c in t[1:]])

    return tuple(at(term, p) for p in itertools.product(range(n), repeat=3))


def _idem(n, table):
    """(t(x,y,y), t(x,x,y)) as dicts over (x, y)."""
    t = lambda x, y, z: table[(x * n + y) * n + z]  # noqa: E731
    pts = list(itertools.product(range(n), repeat=2))
    return ({(x, y): t(x, y, y) for x, y in pts}, {(x, y): t(x, x, y) for x, y in pts})


def is_maltsev(n, table):
    left, right = _idem(n, table)
    return all(left[x, y] == x and right[x, y] == y for x, y in left)


def is_3perm_pair(n, r, s):
    r_left, r_right = _idem(n, r)
    s_left, s_right = _idem(n, s)
    return all(r_left[x, y] == x and r_right[x, y] == s_left[x, y] and s_right[x, y] == y
               for x, y in r_left)


def clone_closure(spec, cap, skip_above=None):
    """The ternary clone of ``spec``: the projections x, y, z closed under
    the operations, in the order of relshift's breadth-first generation.

    Each round applies every operation, in signature order, to argument
    tuples of earlier functions in lexicographic order, at least one of
    them from the latest round; a function is kept at its first
    appearance.  Returns ``(tables, complete, visited)``: a (k, n**3) array,
    whether the clone closed, and the number of argument tuples evaluated.  When more than ``cap`` functions appear,
    ``tables`` holds the first ``cap`` of them, as a budget of ``cap``
    leaves the program.  With ``skip_above`` set, returns ``(None, None, visited)``
    when a round ends with between ``skip_above`` and ``cap`` functions,
    because the next round would be slow for the program and here alike.
    """
    n, m = spec.n, spec.n ** 3
    order, known = [], set()
    visited = [0]

    def add(cand):
        """Append new rows of ``cand`` in order; True once past ``cap``."""
        view = np.ascontiguousarray(cand).view(np.dtype((np.void, m))).ravel()
        _, first = np.unique(view, return_index=True)
        for i in np.sort(first):
            key = view[i].tobytes()
            if key not in known:
                known.add(key)
                order.append(cand[i])
                if len(order) > cap:
                    visited[0] += int(i) + 1
                    return True
        visited[0] += len(cand)
        return False

    add(np.indices((n, n, n)).reshape(3, m).astype(np.uint8))
    start = 0
    while start < len(order):
        tables = np.array(order).astype(np.intp)
        for _name, arity, table in spec.ops:
            f = np.asarray(table, dtype=np.uint8)
            for cand in _images(f, arity, tables, start, n, m):
                if add(cand):
                    return np.array(order[:cap]), False, visited[0]
        start = len(tables)
        if skip_above is not None and skip_above < len(order) <= cap and start < len(order):
            return None, None, visited[0]
    return np.array(order), True, visited[0]


def _images(f, arity, tables, start, n, m):
    """f applied to argument tuples over ``tables`` with at least one index
    from ``start`` on, as blocks in lexicographic order of the tuples."""
    end = len(tables)
    if arity == 0:
        yield np.full((1, m), f[0], dtype=np.uint8)
        return
    for prefix in itertools.product(range(end), repeat=arity - 1):
        lo = 0 if prefix and max(prefix) >= start else start
        index = tables[lo:end]
        for k, i in enumerate(reversed(prefix), start=1):
            index = index + tables[i] * n ** k
        yield f[index]


def clone_terms(n, tables):
    """What relshift's term searches find on these tables, in their order:
    (first Mal'tsev operation or None, first 3-permutability pair (r, s) or
    None, number of (r, s) candidate pairs the pair search scans when none
    matches)."""
    pts = np.array(list(itertools.product(range(n), repeat=2)))
    x, y = pts[:, 0], pts[:, 1]
    xyy = tables[:, (x * n + y) * n + y]
    xxy = tables[:, (x * n + x) * n + y]
    r_ok = (xyy == x).all(axis=1)
    s_ok = (xxy == y).all(axis=1)
    maltsev = np.flatnonzero(r_ok & s_ok)
    first_s = {}
    for i in np.flatnonzero(s_ok):
        first_s.setdefault(xyy[i].tobytes(), i)
    pair = next(((i, first_s[xxy[i].tobytes()]) for i in np.flatnonzero(r_ok)
                 if xxy[i].tobytes() in first_s), None)
    return (tables[maltsev[0]] if len(maltsev) else None,
            None if pair is None else (tables[pair[0]], tables[pair[1]]),
            int(r_ok.sum()) * int(s_ok.sum()))
