"""Design-flavoured exact searches: Latin-square avoidance, cyclic orderings
of disjoint bases, rooted-triple tournaments, magic-matrix counting with
Ehrhart reciprocity, path-system realizability, and a tiny symmetric-group
Ramsey checker.

The avoidance scan answers most arrays without a search: witness squares
found earlier are kept as bitmasks, and one AND per witness shows whether it
avoids the next array.  Random mode draws its arrays from one seeded stream
in a fixed order of ``shuffle`` and ``randrange`` calls, so a seed's arrays,
``checked`` count and verdict do not depend on the pool.

Those calls are inlined as the ``getrandbits`` draws that CPython's
``random`` makes for them: ``_randbelow(m)`` draws ``m.bit_length()`` bits
until the value is below m, and ``shuffle`` swaps position i with
``_randbelow(i + 1)`` for i from the last position down to 1.  That draw
sequence is an implementation detail of CPython (its
``_randbelow_with_getrandbits``), not part of the documented API, so a
seed's arrays hold for CPython only; a test compares the inlined draws with
the stdlib's."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

from . import CombenchError
from .graphs import Graph, bits


# ---------------------------------------------------------------------------
# Latin square avoidance


class AvoidArray:
    """n x n array over {0..n}; 0 marks an unconstrained cell."""

    def __init__(self, entries):
        self.n = len(entries)
        self.entries = [list(row) for row in entries]
        for row in self.entries:
            if len(row) != self.n or any(not 0 <= x <= self.n for x in row):
                raise CombenchError("entries must be n x n over {0..n}")


def avoid_latin(a: AvoidArray):
    """A Latin square L on symbols 1..n with L[i][j] != A[i][j] everywhere,
    or None (exact backtracking over cells with column masks)."""
    n = a.n
    full = (1 << n) - 1
    rows_used = [0] * n
    cols_used = [0] * n
    square = [[0] * n for _ in range(n)]

    def rec(pos: int) -> bool:
        if pos == n * n:
            return True
        i, j = divmod(pos, n)
        avail = full & ~rows_used[i] & ~cols_used[j]
        banned = a.entries[i][j]
        if banned:
            avail &= ~(1 << (banned - 1))
        while avail:
            b = avail & -avail
            avail ^= b
            s = b.bit_length()  # symbol in 1..n
            square[i][j] = s
            rows_used[i] |= b
            cols_used[j] |= b
            if rec(pos + 1):
                return True
            rows_used[i] ^= b
            cols_used[j] ^= b
        square[i][j] = 0
        return False

    return [row[:] for row in square] if rec(0) else None


def verify_avoidance(a: AvoidArray, square) -> bool:
    n = a.n
    for i in range(n):
        if sorted(square[i]) != list(range(1, n + 1)):
            return False
        if sorted(square[r][i] for r in range(n)) != list(range(1, n + 1)):
            return False
    return all(square[i][j] != a.entries[i][j]
               for i in range(n) for j in range(n) if a.entries[i][j])


def _cell_orbit_reps(n: int, max_cells: int):
    """Orbit-minimum representatives of cell subsets under row x column
    permutations, with their stabilizers.  A mask is a representative iff no
    group image is smaller, so non-reps exit early."""
    perms = list(itertools.permutations(range(n)))
    group = [(pr, pc) for pr in perms for pc in perms]

    def apply(mask: int, pr, pc) -> int:
        out = 0
        for cell in bits(mask):
            i, j = divmod(cell, n)
            out |= 1 << (pr[i] * n + pc[j])
        return out

    reps = []
    for mask in range(1 << (n * n)):
        if mask.bit_count() > max_cells:
            continue
        stab = []
        is_rep = True
        for pr, pc in group:
            img = apply(mask, pr, pc)
            if img < mask:
                is_rep = False
                break
            if img == mask:
                stab.append((pr, pc))
        if is_rep:
            reps.append((mask, stab))
    return reps


def _block_partitions(cells: list[int], max_block: int, max_blocks: int):
    """Partitions of cells into at most max_blocks blocks of size <= max_block;
    the first unplaced cell always opens the next block (canonical order)."""
    if not cells:
        yield []
        return
    if max_blocks <= 0:
        return
    head, rest = cells[0], cells[1:]
    for size in range(1, max_block + 1):
        for partners in itertools.combinations(rest, size - 1):
            remaining = [c for c in rest if c not in partners]
            for tail in _block_partitions(remaining, max_block, max_blocks - 1):
                yield [[head, *partners]] + tail


def _class_masks(n: int):
    """Masks of the capped arrays up to row/column/symbol symmetry (n <= 4)."""
    cap = n - 2
    for mask, stab in _cell_orbit_reps(n, cap * n):
        cells = list(bits(mask))
        seen_parts = set()
        for part in _block_partitions(cells, cap, n):
            key = _canon_partition(part, stab, n)
            if key in seen_parts:
                continue
            seen_parts.add(key)
            yield sum(1 << (cell * n + s - 1)
                      for s, block in enumerate(part, start=1) for cell in block)


def _random_masks(n: int, budget: int, seed: int):
    """Masks of ``budget`` capped arrays from one seeded stream: shuffle the
    cells, then give each symbol in turn the next randrange(cap + 1) cells.
    Both calls are inlined as CPython's own draws (module docstring)."""
    getrandbits = random.Random(seed).getrandbits
    cap = max(n - 2, 0)
    cells = n * n
    # shuffle's swaps: position i with j = _randbelow(i + 1), i descending
    swaps = [(i, (i + 1).bit_length()) for i in range(cells - 1, 0, -1)]
    count_bits = (cap + 1).bit_length()
    # each cell as its bit offset cell * n; a symbol adds s - 1
    offsets = [cell * n for cell in range(cells)]
    for _ in range(budget):
        free = offsets[:]
        for i, k in swaps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            free[i], free[j] = free[j], free[i]
        pos = 0
        mask = 0
        for s in range(n):
            cnt = getrandbits(count_bits)
            while cnt > cap:
                cnt = getrandbits(count_bits)
            for off in free[pos:pos + cnt]:
                mask |= 1 << off + s
            pos = min(pos + cnt, cells)
        yield mask


def _mask_array(mask: int, n: int) -> AvoidArray:
    entries = [[0] * n for _ in range(n)]
    for b in bits(mask):
        cell, s = divmod(b, n)
        entries[cell // n][cell % n] = s + 1
    return AvoidArray(entries)


def _square_mask(square) -> int:
    n = len(square)
    return sum(1 << ((i * n + j) * n + s - 1)
               for i, row in enumerate(square) for j, s in enumerate(row))


WITNESS_POOL_CAP = 256


def avoidance_scan(n: int, mode: str = "exhaustive", budget: int = 10 ** 5,
                   seed: int = 0):
    """Hunt for unavoidable arrays under the <= n-2 multiplicity cap.

    exhaustive mode enumerates arrays up to row/column/symbol symmetry
    (n <= 4); random mode samples ``budget`` capped arrays.  Returns the
    first counterexample found, or None with scan statistics.

    Arrays and squares are n^3-bit masks with bit (cell*n + symbol - 1), so
    a square avoids an array exactly when their masks are disjoint.  Each
    array is first tried against a pool of earlier witness squares; only
    when none avoids it does ``avoid_latin`` backtrack, and its witness is
    replayed by ``verify_avoidance`` before it joins the pool.
    """
    if mode == "exhaustive":
        if n > 4:
            raise CombenchError("exhaustive symmetry scan; n <= 4")
        masks = _class_masks(n)
    elif mode == "random":
        if budget < 1:
            raise CombenchError(f"random mode needs budget >= 1, not {budget}")
        masks = _random_masks(n, budget, seed)
    else:
        raise CombenchError("mode must be exhaustive or random")
    pool = []
    checked = 0
    for mask in masks:
        checked += 1
        for witness in pool:
            if not witness & mask:
                break
        else:
            arr = _mask_array(mask, n)
            square = avoid_latin(arr)
            if square is None:
                return {"counterexample": arr, "checked": checked}
            if not verify_avoidance(arr, square):
                raise RuntimeError("avoid_latin returned a square that does "
                                   "not avoid the array")
            if len(pool) < WITNESS_POOL_CAP:
                pool.append(_square_mask(square))
    return {"counterexample": None, "checked": checked}


def _canon_partition(part, stab, n: int) -> tuple:
    """Canonical key of a cell partition under the subset stabilizer."""
    best = None
    for pr, pc in stab:
        blocks = []
        for block in part:
            img = tuple(sorted(pr[c // n] * n + pc[c % n] for c in block))
            blocks.append(img)
        key = tuple(sorted(blocks))
        if best is None or key < best:
            best = key
    return best


# ---------------------------------------------------------------------------
# cyclic base orderings


def graphic_independence(n_vertices: int):
    """Independence oracle for the graphic matroid: edge sets are independent
    iff they are acyclic (union-find)."""

    def indep(edges) -> bool:
        parent = list(range(n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    return indep


def cyclic_base_ordering(bases: list[list], independent, block_mode: bool = False):
    """A cyclic order of the union of disjoint bases in which every window of
    r consecutive elements is independent (hence a base), or None.

    ``independent`` takes an iterable of elements.  block_mode additionally
    forces each base to occupy a consecutive arc (the stronger two-base
    conjecture form).
    """
    r = len(bases[0])
    k = len(bases)
    if any(len(b) != r for b in bases):
        raise CombenchError("bases must share a size")
    if any(not independent(b) for b in bases):
        raise CombenchError("every input must be independent")
    seen = set()
    for b in bases:
        for e in b:
            if e in seen:
                raise CombenchError("bases must be disjoint")
            seen.add(e)
    m = k * r
    elements = [e for b in bases for e in b]
    owner = {e: i for i, b in enumerate(bases) for e in b}
    slots: list = [None] * m

    def window_ok(end: int) -> bool:
        window = [slots[(end - i) % m] for i in range(r)]
        if any(w is None for w in window):
            return True
        return independent(window)

    def rec(pos: int) -> bool:
        if pos == m:
            return all(window_ok(end) for end in range(m))
        for e in elements:
            if e in placed:
                continue
            if block_mode and pos // r != owner[e]:
                continue
            slots[pos] = e
            placed.add(e)
            ok = window_ok(pos) if pos >= r - 1 else True
            if ok and rec(pos + 1):
                return True
            placed.discard(e)
            slots[pos] = None
        return False

    placed: set = set()
    if block_mode:
        # rotation symmetry is already broken by the fixed block layout
        if rec(0):
            return list(slots)
        return None
    # otherwise pin one element to kill rotations
    first = bases[0][0]
    slots[0] = first
    placed.add(first)
    if rec(1):
        return list(slots)
    return None


def verify_cyclic_ordering(order: list, r: int, independent) -> bool:
    m = len(order)
    return all(independent([order[(s + i) % m] for i in range(r)])
               for s in range(m))


# ---------------------------------------------------------------------------
# 3-tournaments


class ThreeTournament:
    """Root assignment for every 3-subset of [n]."""

    def __init__(self, n: int, roots: dict):
        self.n = n
        self.roots = {}
        for triple in itertools.combinations(range(n), 3):
            if triple not in roots or roots[triple] not in triple:
                raise CombenchError(f"missing or invalid root for {triple}")
            self.roots[triple] = roots[triple]

    @classmethod
    def random(cls, n: int, rng: random.Random):
        return cls(n, {t: t[rng.randrange(3)] for t in
                       itertools.combinations(range(n), 3)})


def _dominates(t3: ThreeTournament, x_mask: int) -> bool:
    n = t3.n
    xs = list(bits(x_mask))
    for z in range(n):
        if x_mask >> z & 1:
            continue
        ok = False
        for x in xs:
            for y in range(n):
                if y == z or y == x:
                    continue
                triple = tuple(sorted((x, y, z)))
                if t3.roots[triple] == x:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    return True


def dom_3tournament(t3: ThreeTournament):
    """(dom number, witness mask) by exhaustive subset search."""
    if t3.n > 12:
        raise CombenchError("exhaustive domination; n <= 12")
    for size in range(1, t3.n + 1):
        for combo in itertools.combinations(range(t3.n), size):
            mask = sum(1 << v for v in combo)
            if _dominates(t3, mask):
                return size, mask
    raise AssertionError("the full vertex set always dominates")


def dom_scan(n: int, budget: int, seed: int):
    """Sample random 3-tournaments; report the largest domination number."""
    rng = random.Random(seed)
    best, witness = 0, None
    for _ in range(budget):
        t3 = ThreeTournament.random(n, rng)
        d, _mask = dom_3tournament(t3)
        if d > best:
            best, witness = d, t3
    return best, witness


def pair_condition_check(t3: ThreeTournament) -> bool:
    """Do all 4 vertex subsets contain two triples sharing their root?"""
    for quad in itertools.combinations(range(t3.n), 4):
        roots = [t3.roots[t] for t in itertools.combinations(quad, 3)]
        if len(set(roots)) == len(roots):
            return False
    return True


# ---------------------------------------------------------------------------
# magic matrices (equal row and column sums) and Ehrhart reciprocity


@lru_cache(maxsize=None)
def count_magic(n: int, k: int) -> int:
    """|M(n,k)|: n x n nonnegative integer matrices, all line sums k.
    Cached by (n, k): ``positive_fraction`` and ``ehrhart_check`` ask for
    the same counts many times."""
    if n > 4:
        raise CombenchError("column-state DP sized for n <= 4")
    if k < 0:
        return 0

    @lru_cache(maxsize=None)
    def rows(state: tuple) -> int:
        total = sum(state)
        if total == 0:
            return 1
        # add one row: composition of k bounded by the state, columns sorted
        def comps(i: int, left: int, acc: list):
            if i == n:
                if left == 0:
                    yield tuple(acc)
                return
            hi = min(left, state[i])
            lo = max(0, left - sum(state[i + 1:]))
            for c in range(lo, hi + 1):
                acc.append(c)
                yield from comps(i + 1, left - c, acc)
                acc.pop()

        out = 0
        for comp in comps(0, k, []):
            nxt = tuple(sorted(state[i] - comp[i] for i in range(n)))
            out += rows(nxt)
        return out

    # sorted-state DP undercounts: identical columns are interchangeable in
    # the key but compositions enumerate ordered columns, so counts match.
    return rows(tuple([k] * n))


def positive_fraction(n: int, k: int) -> Fraction:
    """P(n,k): fraction of M(n,k) with no zero entry; M+(n,k) = M(n,k-n)."""
    denom = count_magic(n, k)
    if denom == 0:
        return Fraction(0)
    if k < n:
        return Fraction(0)
    return Fraction(count_magic(n, k - n), denom)


def _lagrange_fit(points: list[tuple[int, int]]):
    """Exact Lagrange interpolation; returns a callable on Fractions/ints."""

    def poly(x):
        x = Fraction(x)
        total = Fraction(0)
        for i, (xi, yi) in enumerate(points):
            term = Fraction(yi)
            for j, (xj, _) in enumerate(points):
                if i != j:
                    term *= Fraction(x - xj, xi - xj)
            total += term
        return total

    return poly


def ehrhart_polynomial(n: int):
    """H_n fitted exactly on (n-1)^2 + 1 integer points."""
    deg = (n - 1) ** 2
    pts = [(k, count_magic(n, k)) for k in range(deg + 1)]
    return _lagrange_fit(pts)


def ehrhart_check(n: int, k_max: int) -> bool:
    """Exact reciprocity: M(n,k) = H_n(k) and
    (-1)^(n+1) H_n(-k) = M+(n,k) = M(n, k-n) for 1 <= k <= k_max."""
    h = ehrhart_polynomial(n)
    sign = (-1) ** (n + 1)
    for k in range(0, k_max + 1):
        if h(k) != count_magic(n, k):
            return False
    for k in range(1, k_max + 1):
        interior = count_magic(n, k - n) if k >= n else 0
        if sign * h(-k) != interior:
            return False
    return True


# ---------------------------------------------------------------------------
# path-system realizability


def realize_path_system(labels: list, seqs: list[list]):
    """A simple graph whose edge set is ``labels`` such that every sequence
    is a simple path traversing its labels in order, or None.

    Search over traversal directions with union-find over the 2|E| endpoint
    slots; at most 2|E| vertices are ever needed.
    """
    if len(labels) > 12:
        raise CombenchError("endpoint identification search; |E| <= 12")
    for seq in seqs:
        if len(set(seq)) != len(seq):
            return None  # a simple path cannot repeat an edge
        if any(lab not in labels for lab in seq):
            raise CombenchError("sequence uses an unknown label")
    lab_idx = {lab: i for i, lab in enumerate(labels)}
    positions = [(si, pi) for si, seq in enumerate(seqs)
                 for pi in range(len(seq))]

    def solve(dirs: dict) -> tuple | None:
        parent = list(range(2 * len(labels)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            parent[find(x)] = find(y)

        def slot(lab, end):  # end 0/1 = the two endpoints of the edge
            return 2 * lab_idx[lab] + end

        for si, seq in enumerate(seqs):
            for pi in range(len(seq) - 1):
                d1 = dirs[(si, pi)]
                d2 = dirs[(si, pi + 1)]
                union(slot(seq[pi], 1 - d1), slot(seq[pi + 1], d2))
        # validations
        for lab in labels:
            if find(slot(lab, 0)) == find(slot(lab, 1)):
                return None
        pairs = set()
        for lab in labels:
            p = frozenset((find(slot(lab, 0)), find(slot(lab, 1))))
            if p in pairs:
                return None  # parallel edges
            pairs.add(p)
        for si, seq in enumerate(seqs):
            verts = [find(slot(seq[0], dirs[(si, 0)]))]
            for pi, lab in enumerate(seq):
                verts.append(find(slot(lab, 1 - dirs[(si, pi)])))
            if len(set(verts)) != len(verts):
                return None  # path revisits a vertex
        classes = sorted({find(x) for x in range(2 * len(labels))})
        remap = {c: i for i, c in enumerate(classes)}
        g = Graph(len(classes))
        mapping = {}
        for lab in labels:
            u = remap[find(slot(lab, 0))]
            v = remap[find(slot(lab, 1))]
            g.add_edge(u, v)
            mapping[lab] = (u, v)
        return g, mapping

    for bitsel in range(1 << len(positions)):
        dirs = {pos: bitsel >> i & 1 for i, pos in enumerate(positions)}
        got = solve(dirs)
        if got is not None:
            return got
    return None


# ---------------------------------------------------------------------------
# symmetric-group Ramsey at tiny scale


def _sr_copies(n: int, r: int):
    """All copies of S_r inside S_n: unordered families of r nonempty words
    with disjoint symbols covering [n]; a copy is the set of all r!
    concatenations."""
    symbols = list(range(1, n + 1))
    copies = []

    def split(rest: list, blocks: list):
        if len(blocks) == r:
            if not rest:
                word_sets = []
                for orderings in itertools.product(
                        *(itertools.permutations(b) for b in blocks)):
                    words = set()
                    for arrangement in itertools.permutations(orderings):
                        words.add(tuple(x for w in arrangement for x in w))
                    word_sets.append(frozenset(words))
                copies.extend(word_sets)
            return
        if not rest:
            return
        head, tail = rest[0], rest[1:]
        # head starts a new block; enumerate its companions
        for size in range(1, len(rest) - (r - len(blocks) - 1) + 1):
            for extra in itertools.combinations(tail, size - 1):
                block = (head,) + extra
                remaining = [x for x in tail if x not in extra]
                split(remaining, blocks + [block])

    split(symbols, [])
    return sorted(set(copies), key=sorted)


def sym_ramsey_check(n: int, k: int, r: int) -> bool:
    """Does every k-colouring of S_n contain a monochromatic copy of S_r?

    Exhaustive via backtracking over word colours with mono-copy pruning.
    """
    import math

    if math.factorial(n) > 24:
        raise CombenchError("word set too large; n <= 4")
    if k == 1:
        return r <= n
    words = sorted(itertools.permutations(range(1, n + 1)))
    word_id = {w: i for i, w in enumerate(words)}
    copies = []
    for copy in _sr_copies(n, r):
        ids = tuple(sorted(word_id[w] for w in copy))
        copies.append(ids)
    copies = sorted(set(copies))
    if not copies:
        return False
    color = [-1] * len(words)

    def mono_complete(cid) -> bool:
        cs = {color[i] for i in copies[cid]}
        return len(cs) == 1 and -1 not in cs

    watch = [[] for _ in words]
    for ci, ids in enumerate(copies):
        for i in ids:
            watch[i].append(ci)

    def rec(i: int) -> bool:
        """True if a colouring avoiding monochromatic copies exists."""
        if i == len(words):
            return True
        cmax = min(k, i + 1)  # colour symmetry: first-use order
        for c in range(cmax):
            color[i] = c
            if not any(mono_complete(ci) for ci in watch[i]):
                if rec(i + 1):
                    return True
            color[i] = -1
        return False

    return not rec(0)
