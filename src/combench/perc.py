"""Bootstrap percolation on square grids under the 2-neighbour rule:
seeded Monte Carlo estimates of full infection and threshold sweeps.

The closure runs on a packed bitboard (the whole padded grid lives in one
Python int and a round is a handful of shifted masks), which is what makes
the n=128 sweeps affordable.

Grid seeds replay ``rng.random() < p`` cell by cell without calling it.
CPython's ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` for two
consecutive 32-bit Mersenne Twister words a, b, and ``getrandbits(64 * k)``
returns the same 2k words with the first one least significant.  So one
``getrandbits`` call yields a 64-bit lane ``b << 32 | a`` per cell, and
``random() < p`` holds exactly when the 53-bit integer from that lane is
below ``ceil(p * 2**53)``; the comparison is exact because ``p * 2**53``
is.  The rng is left in the state the scalar loop leaves it in.

The comparison itself is mostly one byte lookup.  Big-endian, the lane's
bytes are b's four then a's four, so byte 4 of each lane is a's top byte,
which is also the top byte of the 53-bit integer x = (a >> 5) << 26 | b >> 6.
A 256-byte table built once per p maps that byte to ``1`` (infected) when
it is below ``T >> 45``, the top byte of T = ceil(p * 2**53), and to ``0``
(clear) when it is above, since then x < T or x >= T whatever the other 45
bits are.  A byte equal to ``T >> 45`` (about one cell in 256) ties, and
that cell alone is decided exactly, as ``x < T`` on its whole lane.  At
p = 1, T >> 45 is 256, which no byte equals, so every cell is infected.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import CombenchError


class GridFamily:
    """n x n square grid with the padded-bitboard fast path."""

    def __init__(self, n: int):
        self.n = n
        w = self.w = n + 2  # one empty guard column/row on each side
        # interior row r is the first one shifted by r*w, so the mask is
        # the first row times the sum of 2^(r*w) over r < n (no carries)
        first = ((1 << n) - 1) << (w + 1)
        self.mask = first * (((1 << w * n) - 1) // ((1 << w) - 1))
        self._table_p = None
        self._table = b""
        self._t = 0

    def seed_mask(self, rng: random.Random, p: float) -> int:
        """Padded bitboard of the cells with ``rng.random() < p``, drawn in
        row-major order from one ``getrandbits`` call (module docstring)."""
        if not 0 <= p <= 1:
            raise CombenchError(f"need p in [0,1], not {p}")
        cells = self.n * self.n
        if p != self._table_p:
            t = math.ceil(p * 2.0 ** 53)
            top = t >> 45
            # "2" marks the tie byte, decided per cell below
            self._table = bytes(49 if v < top else 48 if v > top else 50
                                for v in range(256))
            self._t = t
            self._table_p = p
        # big-endian the last cell comes first: the order in which
        # int(..., 2) reads the bitboard's digits
        raw = rng.getrandbits(64 * cells).to_bytes(8 * cells, "big")
        digits = raw[4::8].translate(self._table)
        tie = digits.find(b"2")
        if tie >= 0:
            digits = bytearray(digits)
            t = self._t
            while tie >= 0:
                lane = int.from_bytes(raw[8 * tie:8 * tie + 8], "big")
                x = (lane & 0xFFFFFFFF) >> 5 << 26 | lane >> 38
                digits[tie] = 49 if x < t else 48
                tie = digits.find(b"2", tie + 1)
        n = self.n
        # rows meet over two guard columns; the last guard column and the
        # guard row fill the w + 1 least significant bits
        return int(b"00".join([digits[i:i + n] for i in range(0, cells, n)])
                   + b"0" * (self.w + 1), 2)

    def _closure2(self, cur: int) -> int:
        """Packed closure under the 2-neighbour rule of a seed inside
        ``self.mask``.  No round masks its result: a cell outside the
        interior (guard ring or beyond) has at most one interior neighbour,
        so it never gets the two infected neighbours it would need."""
        w = self.w
        while True:
            up = cur >> w
            down = cur << w
            left = cur >> 1
            right = cur << 1
            # at least 2 of 4 neighbours: both vertical, both horizontal,
            # or one of each
            new = (cur | (up & down) | (left & right)
                   | ((up | down) & (left | right)))
            if new == cur:
                return cur
            cur = new

    def closure_fills(self, infected: int) -> bool:
        """Does the closure under the 2-neighbour rule infect everything?"""
        return self._closure2(infected) == self.mask


# ---------------------------------------------------------------------------
# Monte Carlo


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(_splitmix64(seed ^ _splitmix64(trial)))


def wilson_interval(successes: int, trials: int):
    """Wilson 95% score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 0.0, 1.0
    z = 1.96
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return phat, max(0.0, center - half), min(1.0, center + half)


def estimate_grid_full_infection(n: int, p: float, trials: int,
                                 seed: int) -> dict:
    """Monte Carlo estimate of P_p(the n x n grid fills) under the
    2-neighbour rule, one ``trial_rng`` stream per trial."""
    if not 0 <= p <= 1 or trials < 1:
        raise CombenchError("need p in [0,1] and trials >= 1")
    fam = GridFamily(n)
    hits = 0
    for t in range(trials):
        rng = trial_rng(seed, t)
        if fam.closure_fills(fam.seed_mask(rng, p)):
            hits += 1
    est, lo, hi = wilson_interval(hits, trials)
    return {"estimate": est, "ci": (lo, hi), "hits": hits,
            "trials": trials, "seed": seed}


# default p grids bracketing the observed half-infection crossings
DEFAULT_GRIDS = {
    32: [0.05, 0.065, 0.08, 0.095, 0.11, 0.13],
    64: [0.04, 0.05, 0.06, 0.07, 0.08, 0.09],
    128: [0.035, 0.042, 0.049, 0.056, 0.063, 0.07],
}


def parse_sizes(text: str) -> list[int]:
    """Grid sizes from a comma-separated list such as "64,128"; CombenchError
    for an empty item, ValueError from int() for one that is not an integer."""
    items = text.split(",")
    if not all(s.strip() for s in items):
        raise CombenchError(f"grid sizes {text!r} have an empty item")
    return [int(s) for s in items]


def default_grids(sizes: list[int]) -> dict[int, list[float]]:
    """The default p grid of each size; CombenchError for a size without one."""
    missing = [n for n in sizes if n not in DEFAULT_GRIDS]
    if missing:
        raise CombenchError(f"no default p grid for sizes {missing}; "
                            f"available: {sorted(DEFAULT_GRIDS)}")
    return {n: DEFAULT_GRIDS[n] for n in sizes}


@dataclass
class SweepResult:
    n: int
    grid: list[float]
    estimates: list[float] = field(default_factory=list)
    half_widths: list[float] = field(default_factory=list)
    trials: int = 0
    seed: int = 0
    p_half: float | None = None
    reference: float | None = None


def threshold_sweep(sizes: list[int], p_grid: dict, trials: int,
                    seed: int) -> list[SweepResult]:
    """Sweep P(full infection) under the 2-neighbour rule over a p grid per
    grid size; p_half by linear interpolation at the 1/2 crossing.  The
    pi^2/(18 ln n) curve is attached for reference only; nothing asymptotic
    is asserted at these sizes."""
    out = []
    for n in sizes:
        grid = sorted(p_grid[n])
        if not grid or grid[0] <= 0 or grid[-1] >= 1:
            raise CombenchError("p grid must lie inside (0,1)")
        res = SweepResult(n=n, grid=grid, trials=trials, seed=seed)
        for i, p in enumerate(grid):
            stats = estimate_grid_full_infection(
                n, p, trials, _splitmix64(seed ^ (n << 20) ^ i))
            res.estimates.append(stats["estimate"])
            lo, hi = stats["ci"]
            res.half_widths.append((hi - lo) / 2)
        res.p_half = _crossing(grid, res.estimates, 0.5)
        res.reference = math.pi ** 2 / (18 * math.log(n))
        out.append(res)
    return out


def _crossing(xs: list[float], ys: list[float], level: float):
    for i in range(len(xs) - 1):
        if ys[i] <= level <= ys[i + 1] or ys[i] >= level >= ys[i + 1]:
            if ys[i + 1] == ys[i]:
                return xs[i]
            t = (level - ys[i]) / (ys[i + 1] - ys[i])
            return xs[i] + t * (xs[i + 1] - xs[i])
    return None


def sweep_to_csv(sweeps: list[SweepResult]) -> str:
    lines = ["n,p,estimate,ci_lo,ci_hi,reference"]
    for s in sweeps:
        for p, est, hw in zip(s.grid, s.estimates, s.half_widths):
            lines.append(f"{s.n},{p},{est},{max(0.0, est - hw)},"
                         f"{min(1.0, est + hw)},{s.reference}")
    return "\n".join(lines) + "\n"
