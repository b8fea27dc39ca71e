"""Cayley distance in GL(n,2) under row additions: exact BFS for small n,
meet-in-the-middle at n=5, a sub-quadratic blockwise greedy reduction, and
diameter reporting.

Matrices are tuples of row bitmasks.  The generator set is all n(n-1)
transvections "add row j to row i"; each is an involution, so the Cayley
graph is undirected and distances are symmetric.
"""

from __future__ import annotations

import random
from functools import lru_cache

from . import CombenchError
from .graphs import xor_basis_add


def identity(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def pack(rows, n: int) -> int:
    key = 0
    for i, r in enumerate(rows):
        key |= r << (i * n)
    return key


def unpack(key: int, n: int) -> tuple[int, ...]:
    mask = (1 << n) - 1
    return tuple((key >> (i * n)) & mask for i in range(n))


def is_invertible(rows, n: int) -> bool:
    return len(rows) == n and _dependent_row(list(rows)) is None


def apply_word(rows, word) -> tuple[int, ...]:
    out = list(rows)
    for i, j in word:
        out[i] ^= out[j]
    return tuple(out)


def random_invertible(n: int, rng: random.Random) -> tuple[int, ...]:
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        if is_invertible(rows, n):
            return rows


@lru_cache(maxsize=None)
def _full_bfs(n: int):
    """dist and parent-op maps over all of GL(n,2) (n <= 4)."""
    if n > 4:
        raise CombenchError("full BFS only up to n=4 (|GL(4,2)| = 20160)")
    gens = [(i, j) for i in range(n) for j in range(n) if i != j]
    start = pack(identity(n), n)
    dist = {start: 0}
    parent: dict[int, tuple] = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for key in frontier:
            rows = list(unpack(key, n))
            d = dist[key]
            for i, j in gens:
                rows[i] ^= rows[j]
                k2 = pack(rows, n)
                if k2 not in dist:
                    dist[k2] = d + 1
                    parent[k2] = (key, (i, j))
                    nxt.append(k2)
                rows[i] ^= rows[j]
        frontier = nxt
    return dist, parent


def distance(rows, n: int):
    """(exact distance to the identity, witness word of row additions)."""
    if not is_invertible(rows, n):
        raise CombenchError("matrix not invertible over GF(2)")
    if n <= 4:
        dist, parent = _full_bfs(n)
        key = pack(rows, n)
        word = []
        k = key
        while parent[k] is not None:
            prev, op = parent[k]
            word.append(op)
            k = prev
        # the stored ops walk identity -> m; the same ops in reverse reduce m
        if apply_word(rows, word) != identity(n):
            raise RuntimeError("BFS word does not replay to the identity")
        return dist[key], word
    if n == 5:
        return _mitm_distance(rows, n)
    raise CombenchError("exact distance for n <= 5 only")


def _neighbors(key: int, n: int, gens):
    rows = list(unpack(key, n))
    for i, j in gens:
        rows[i] ^= rows[j]
        yield pack(rows, n), (i, j)
        rows[i] ^= rows[j]


def _mitm_distance(rows, n: int):
    """Meet-in-the-middle BFS from both the identity and the target."""
    gens = [(i, j) for i in range(n) for j in range(n) if i != j]
    start = pack(identity(n), n)
    goal = pack(rows, n)
    if start == goal:
        return 0, []
    sides = [{start: (None, None)}, {goal: (None, None)}]
    frontiers = [[start], [goal]]
    depth = [0, 0]
    while True:
        s = 0 if len(sides[0]) <= len(sides[1]) else 1
        nxt = []
        for key in frontiers[s]:
            for k2, op in _neighbors(key, n, gens):
                if k2 not in sides[s]:
                    sides[s][k2] = (key, op)
                    nxt.append(k2)
                    if k2 in sides[1 - s]:
                        return _stitch(k2, sides, depth[s] + 1 + depth[1 - s])
        frontiers[s] = nxt
        depth[s] += 1
        if not nxt:
            raise AssertionError("group is connected; unreachable")


def _stitch(meet: int, sides, total: int):
    word_from_identity = []
    k = meet
    while sides[0][k][0] is not None:
        prev, op = sides[0][k]
        word_from_identity.append(op)
        k = prev
    word_from_goal = []
    k = meet
    while sides[1][k][0] is not None:
        prev, op = sides[1][k]
        word_from_goal.append(op)
        k = prev
    # goal-side ops walk m -> meet; identity-side ops (reversed) walk meet -> I
    word = list(reversed(word_from_goal)) + word_from_identity
    return total, word


def diameter(n: int):
    """Exact diameter with the extremal matrices (full BFS, n <= 4)."""
    dist, _ = _full_bfs(n)
    diam = max(dist.values())
    extremal = [unpack(k, n) for k, d in dist.items() if d == diam]
    return {"diameter": diam, "extremal_count": len(extremal),
            "group_order": len(dist), "extremal": extremal}


# ---------------------------------------------------------------------------
# blockwise greedy reduction (n^2/log n style row-operation count)


def _row_span(pats: list[int]) -> set[int]:
    span = {0}
    for p in pats:
        if p not in span:
            span |= {p ^ q for q in span}
    return span


def _dependent_row(pats: list[int]) -> int | None:
    """Index of a row lying in the span of the earlier ones, or None if the
    rows are independent (``graphs.xor_basis_add``)."""
    basis: dict[int, int] = {}
    for i, p in enumerate(pats):
        if not xor_basis_add(basis, p):
            return i
    return None


def greedy_reduce(rows, n: int):
    """Reduce an invertible matrix to the identity, returning the operation
    word.  LU-shaped blockwise elimination: a forward pass clears everything
    below the diagonal block by block (Gray-code accumulator, one addition
    per cleared row), then a backward pass right to left clears everything
    above, serving rows from accumulators built out of the block's pivot
    rows, which are exact unit vectors by that point.

    The count is >= the Cayley distance and tracks n^2/log2(n).  A
    singular matrix raises CombenchError: some pivot block then cannot be
    patched to full rank from the rows below it.
    """
    work = list(rows)
    ops: list[tuple[int, int]] = []

    def add(i: int, j: int):
        work[i] ^= work[j]
        ops.append((i, j))

    width = max(1, n.bit_length() - 3)
    blocks = [(b0, min(b0 + width, n)) for b0 in range(0, n, width)]

    def jordan(b0: int, b1: int):
        """Unit block patterns on rows [b0,b1) by in-block Gauss-Jordan."""
        for c in range(b0, b1):
            if not work[c] >> c & 1:
                src = next(r for r in range(c + 1, b1) if work[r] >> c & 1)
                add(c, src)
            for r in range(b0, b1):
                if r != c and work[r] >> c & 1:
                    add(r, c)

    # forward pass: below-diagonal clearing
    for b0, b1 in blocks:
        w = b1 - b0
        bmask = ((1 << w) - 1) << b0

        def pats():
            return [(work[r] & bmask) >> b0 for r in range(b0, b1)]

        # patch the pivot block to full rank from rows below; when no row
        # can, the trailing square submatrix is singular, and so is the
        # matrix (LU steps keep the rank)
        while True:
            dep = _dependent_row(pats())
            if dep is None:
                break
            span = _row_span(pats())
            src = next((r for r in range(b1, n)
                        if ((work[r] & bmask) >> b0) not in span), None)
            if src is None:
                raise CombenchError("matrix not invertible over GF(2)")
            add(b0 + dep, src)
        jordan(b0, b1)
        targets = [r for r in range(b1, n) if work[r] & bmask]
        if not targets:
            continue
        if w == 1 or len(targets) <= w:
            for r in targets:
                pat = (work[r] & bmask) >> b0
                while pat:
                    bit = pat & -pat
                    add(r, b0 + bit.bit_length() - 1)
                    pat ^= bit
            continue
        gray = [t ^ (t >> 1) for t in range(1, 1 << w)]
        rank = {v: i for i, v in enumerate(gray)}
        targets.sort(key=lambda r: rank[(work[r] & bmask) >> b0])
        acc = targets[0]
        diff = ((work[acc] & bmask) >> b0) ^ gray[0]
        while diff:
            bit = diff & -diff
            add(acc, b0 + bit.bit_length() - 1)
            diff ^= bit
        pos = 0
        for r in targets[1:]:
            pat = (work[r] & bmask) >> b0
            while gray[pos] != pat:
                pos += 1
                add(acc, b0 + (gray[pos] ^ gray[pos - 1]).bit_length() - 1)
            add(r, acc)
        cur = (work[acc] & bmask) >> b0
        while cur:
            bit = cur & -cur
            add(acc, b0 + bit.bit_length() - 1)
            cur ^= bit

    # backward pass: above-diagonal clearing with unit-row accumulators, so
    # served rows are touched only inside the block's columns
    for b0, b1 in reversed(blocks):
        w = b1 - b0
        bmask = ((1 << w) - 1) << b0
        by_low: dict[int, list[int]] = {}
        for r in range(b0):
            pat = (work[r] & bmask) >> b0
            if pat:
                by_low.setdefault((pat & -pat).bit_length() - 1, []).append(r)
        for k in sorted(by_low):
            group = by_low[k]
            acc = b0 + k  # pivot row e_{b0+k}; higher bits walked via grays
            m = w - 1 - k
            gray = [t ^ (t >> 1) for t in range(1 << m)]
            rank = {v: i for i, v in enumerate(gray)}
            group.sort(key=lambda r: rank[(work[r] & bmask) >> (b0 + k + 1)])
            pos = 0
            for r in group:
                high = (work[r] & bmask) >> (b0 + k + 1)
                while gray[pos] != high:
                    pos += 1
                    flip = gray[pos] ^ gray[pos - 1]
                    add(acc, b0 + k + 1 + flip.bit_length() - 1)
                add(r, acc)
            cur = (work[acc] & bmask) >> (b0 + k + 1)
            while cur:
                bit = cur & -cur
                add(acc, b0 + k + 1 + bit.bit_length() - 1)
                cur ^= bit
    if work != list(identity(n)):
        raise RuntimeError("reduction must end at the identity")
    return len(ops), ops
