import itertools
import math
import random

import pytest

from combench import registry
from combench.graphs import complete_graph, path_graph
from combench.perc import (DEFAULT_GRIDS, GridFamily,
                           estimate_grid_full_infection, parse_sizes,
                           threshold_sweep, trial_rng, wilson_interval)
from conftest import grid_graph
from oracles import (MAJORITY, closure_equals_graph_engine, percolate,
                     percolate_rounds_oracle, seed_mask_scalar, threshold_rule)


def test_percolate_examples():
    g = path_graph(3)
    closure, rounds = percolate(g, MAJORITY, 0b101)
    assert closure == 0b111 and rounds == 1
    lonely = path_graph(1)
    closure, _ = percolate(lonely, MAJORITY, 0)
    assert closure == 0  # strictly more than half of zero neighbours fails


def test_percolate_matches_naive_oracle(rng):
    g = grid_graph(5, 5)
    for _ in range(15):
        seed_mask = rng.getrandbits(25)
        for rule in (MAJORITY, threshold_rule(2)):
            assert percolate(g, rule, seed_mask) == \
                percolate_rounds_oracle(g, rule, seed_mask)


def test_percolate_monotone_and_idempotent(rng):
    g = grid_graph(4, 6)
    for _ in range(20):
        a = rng.getrandbits(24)
        b = a | rng.getrandbits(24)
        ca, _ = percolate(g, threshold_rule(2), a)
        cb, _ = percolate(g, threshold_rule(2), b)
        assert ca & ~cb == 0  # monotone
        again, rounds = percolate(g, threshold_rule(2), ca)
        assert again == ca and rounds == 0  # idempotent


def test_bitboard_matches_generic(rng):
    fam = GridFamily(7)
    for _ in range(25):
        cells = {(rng.randrange(7), rng.randrange(7))
                 for _ in range(rng.randrange(18))}
        assert closure_equals_graph_engine(fam, sorted(cells))


def test_grid_mask_is_the_interior_cells():
    """The closed-form mask sets exactly bit (r+1)w + (c+1) of every cell."""
    for n in list(range(1, 10)) + [64, 128]:
        fam = GridFamily(n)
        cells = 0
        for r in range(n):
            for c in range(n):
                cells |= 1 << ((r + 1) * fam.w + (c + 1))
        assert fam.mask == cells, n


def test_closure_stays_inside_guard_ring():
    """_closure2 masks no round: a full interior stays exactly the mask and
    no seed spreads into the guard ring or beyond."""
    for n in (1, 2, 3, 7):
        fam = GridFamily(n)
        assert fam._closure2(fam.mask) == fam.mask
        for i, p in enumerate((0.1, 0.3, 0.5, 0.7, 0.9) * 8):
            seed = fam.seed_mask(trial_rng(n, i), p)
            assert fam._closure2(seed) & ~fam.mask == 0, (n, p)


def test_seed_mask_matches_scalar_oracle():
    ps = [0.0, 2.0 ** -53, 0.035, 0.07, 0.5, 1 - 2.0 ** -53, 1.0]
    ps += sorted({p for grid in DEFAULT_GRIDS.values() for p in grid})
    for n in (1, 2, 7, 64, 128):
        fam = GridFamily(n)
        for i, p in enumerate(ps):
            fast, slow = trial_rng(n, i), trial_rng(n, i)
            assert fam.seed_mask(fast, p) == seed_mask_scalar(fam, slow, p), (n, p)
            assert fast.random() == slow.random(), (n, p)
    with pytest.raises(ValueError):
        GridFamily(4).seed_mask(random.Random(0), 1.5)


class _ScriptedWords(random.Random):
    """random() and getrandbits() over a fixed list of 32-bit words, with
    CPython's word order, to put draws exactly at the threshold."""

    def __init__(self, words):
        super().__init__(0)
        self.words = list(words)

    def random(self):
        a, b = self.words.pop(0) >> 5, self.words.pop(0) >> 6
        return (a * 2 ** 26 + b) / 2 ** 53

    def getrandbits(self, k):
        used, self.words = self.words[:k // 32], self.words[k // 32:]
        return sum(w << 32 * i for i, w in enumerate(used))


def test_seed_mask_exact_at_threshold():
    fam = GridFamily(2)
    for p in (2.0 ** -53, 0.035, 0.5, 1 - 2.0 ** -53):
        t = math.ceil(p * 2 ** 53)
        draws = []
        for x in (t - 1, t, 0, 2 ** 53 - 1):  # one 53-bit draw per cell
            draws += [(x >> 26) << 5 | 31, (x & (2 ** 26 - 1)) << 6 | 63]
        expect = seed_mask_scalar(fam, _ScriptedWords(draws), p)
        assert fam.seed_mask(_ScriptedWords(draws), p) == expect
        assert expect == 1 << fam.w + 1 | 1 << 2 * fam.w + 1  # cells 0 and 2


def test_seed_mask_tie_byte():
    """Every cell's word a has the top byte of T, so each cell takes the
    exact comparison; the 53-bit values sit just below, at and just above
    T, at the ends of the tied block and at random inside it."""
    fam = GridFamily(64)
    rng = random.Random(53)
    for p in (0.035, 0.5, 1 - 2.0 ** -53):
        t = math.ceil(p * 2 ** 53)
        lo = t >> 45 << 45
        hi = min(lo + 2 ** 45, 2 ** 53) - 1  # the tied block [lo, hi]
        near = [x for x in (lo, hi, t - 2, t - 1, t, t + 1, t + 2)
                if lo <= x <= hi]
        # the first row cycles through the near values
        xs = [near[i % len(near)] if i < 64 else rng.randint(lo, hi)
              for i in range(64 * 64)]
        draws = []
        for x in xs:  # junk in the bits random() drops
            draws += [(x >> 26) << 5 | rng.getrandbits(5),
                      (x & (2 ** 26 - 1)) << 6 | rng.getrandbits(6)]
        assert {w >> 24 for w in draws[::2]} == {t >> 45}
        draws += [rng.getrandbits(32), rng.getrandbits(32)]
        fast, slow = _ScriptedWords(draws), _ScriptedWords(draws)
        got = fam.seed_mask(fast, p)
        assert got == seed_mask_scalar(fam, slow, p), p
        assert got.bit_count() == sum(x < t for x in xs), p
        assert fast.random() == slow.random(), p


def test_estimates_trivial():
    assert estimate_grid_full_infection(8, 0.9999999, 10, 1)["estimate"] == 1.0
    assert estimate_grid_full_infection(8, 0.0, 10, 1)["estimate"] == 0.0


def test_estimates_reproducible():
    a = estimate_grid_full_infection(16, 0.08, 50, seed=42)
    b = estimate_grid_full_infection(16, 0.08, 50, seed=42)
    assert a == b
    for p, trials in ((0.08, 0), (-0.1, 10), (1.5, 10)):
        with pytest.raises(ValueError):
            estimate_grid_full_infection(16, p, trials, seed=42)
    # full-infection counts of the scalar seeding, which the seeds replay
    sweeps = threshold_sweep([32, 64], DEFAULT_GRIDS, trials=50, seed=20140305)
    assert [[round(e * s.trials) for e in s.estimates] for s in sweeps] == [
        [0, 7, 19, 32, 41, 49], [0, 4, 23, 39, 49, 50]]
    r1 = trial_rng(5, 3).random()
    r2 = trial_rng(5, 3).random()
    assert r1 == r2


def test_wilson_interval():
    est, lo, hi = wilson_interval(50, 100)
    assert lo < est == 0.5 < hi
    est, lo, hi = wilson_interval(0, 100)
    assert est == 0.0 and lo == 0.0 and hi < 0.1


def test_complete_graph_majority_jump():
    # a vertex of K12 converts once 6 of its 11 neighbours are infected:
    # every 6-vertex seed infects everything, and no 5-vertex seed spreads
    g = complete_graph(12)
    for size, full in ((5, False), (6, True)):
        for seed in itertools.combinations(range(12), size):
            mask = sum(1 << v for v in seed)
            closure, _ = percolate(g, MAJORITY, mask)
            assert closure == ((1 << 12) - 1 if full else mask)


def test_threshold_sweep_shape():
    sweeps = threshold_sweep([16], {16: [0.05, 0.1, 0.15, 0.2, 0.3]},
                             trials=80, seed=9)
    s = sweeps[0]
    assert len(s.estimates) == 5
    assert s.reference > 0
    # monotone within CI slack
    for i in range(len(s.grid) - 1):
        assert s.estimates[i] <= s.estimates[i + 1] + (
            s.half_widths[i] + s.half_widths[i + 1])


def test_default_grids_bracket():
    for n, grid in DEFAULT_GRIDS.items():
        assert all(0 < p < 1 for p in grid)
        assert grid == sorted(grid)
    assert parse_sizes("64,128") == parse_sizes(" 64, 128") == [64, 128]
    for bad in ("32,", "", "32,,64", "x"):
        with pytest.raises(ValueError):
            parse_sizes(bad)
    with pytest.raises(ValueError):
        registry.run("sec7.verstraete.percolation", {"sizes": "32,"})
