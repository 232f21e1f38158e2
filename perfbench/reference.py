"""Reference computations the benchmark checks cossu's outputs against.

Written from the definitions of the rule table code and of rule activity,
without calling cossu's scorer, distribution or model-length code:

- model bits: the table size as a universal integer, then per rule the
  antecedent length plus one and the consequent length as universal
  integers, every rule symbol at its background code length
  -log2(count / n) (1 / (2n) for a symbol absent from training), and the
  weight's significant decimals, reversed, as a universal integer;
- data bits: a rule (antecedent a, consequent c) is active at stage j at a
  position whose history ends with a + c[:j], and then backs c[j] with its
  weight; singletons back their own symbol everywhere. Each position pays
  -log2(backing of the true symbol / total active weight).

Inputs are plain values (symbol-id arrays, rules as id tuples, weights), so
nothing here depends on cossu's types.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Normaliser of the log-star code, so that it satisfies the Kraft inequality.
UNIVERSAL_CONSTANT = 2.865064

#: Positions per block when the (positions, symbols) mass is materialised.
_BLOCK = 1 << 16


def universal_bits(z: int) -> float:
    """log2(c0) plus the positive iterated base-2 logarithms of z >= 1."""
    if z < 1:
        raise ValueError(f"universal code needs z >= 1, got {z}")
    bits = math.log2(UNIVERSAL_CONSTANT)
    t = math.log2(z)
    while t > 0.0:
        bits += t
        t = math.log2(t)
    return bits


def symbol_bits(counts: list[int], n: int) -> list[float]:
    """Background code length of every alphabet symbol."""
    return [-math.log2(c / n) if c else -math.log2(0.5 / n) for c in counts]


def weight_bits(w: float, precision: int) -> float:
    """Universal code of the weight's significant decimals, reversed."""
    text = f"{w:.{precision}f}"
    if not 0.0 < w < 1.0 or float(text) != w:
        raise ValueError(f"weight {w!r} is not a {precision}-decimal in (0, 1)")
    digits = text.split(".")[1].rstrip("0")
    return universal_bits(int(digits[::-1]))


def model_bits(
    rules: list[tuple[tuple[int, ...], tuple[int, ...]]],
    weights: list[float],
    counts: list[int],
    n: int,
    precision: int,
) -> float:
    """Bits of the rule table (rules include the singletons)."""
    cl = symbol_bits(counts, n)
    bits = universal_bits(len(rules))
    for (a, c), w in zip(rules, weights):
        bits += universal_bits(len(a) + 1) + sum(cl[x] for x in a)
        bits += universal_bits(len(c)) + sum(cl[x] for x in c)
        bits += weight_bits(w, precision)
    return bits


def _stage_activity(ids: np.ndarray, context: tuple[int, ...]) -> np.ndarray:
    """Positions t whose history ids[:t] ends with the context."""
    g = len(context)
    n = ids.size
    if g == 0:
        return np.arange(n)
    if g >= n:
        return np.empty(0, dtype=np.int64)
    windows = sliding_window_view(ids, g)[: n - g]
    return np.flatnonzero((windows == np.asarray(context)).all(axis=1)) + g


class Activity:
    """Every active (rule, stage) of a model on one symbol-id array."""

    def __init__(self, ids, rules, weights, k: int):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.k = k
        self.base = np.zeros(k)
        self.stages: list[tuple[np.ndarray, int, float]] = []
        for (a, c), w in zip(rules, weights):
            if not a and len(c) == 1:
                self.base[c[0]] += w
                continue
            for j in range(len(c)):
                positions = _stage_activity(self.ids, a + c[:j])
                self.stages.append((positions, c[j], float(w)))

    def data_bits_per_position(self) -> np.ndarray:
        """-log2 P(true symbol) at every position."""
        ids = self.ids
        den = np.full(ids.size, self.base.sum())
        num = self.base[ids]
        for positions, predicted, w in self.stages:
            den[positions] += w
            num[positions] += w * (ids[positions] == predicted)
        return np.log2(den) - np.log2(num)

    def argmax_hits(self) -> tuple[int, int]:
        """(positions whose most-backed symbol is the true one, near ties).

        A near tie is a position whose two largest masses agree to 1e-9
        relative, where summation order may decide the argmax.
        """
        hits = ties = 0
        n = self.ids.size
        for lo in range(0, n, _BLOCK):
            hi = min(n, lo + _BLOCK)
            mass = np.tile(self.base, (hi - lo, 1))
            for positions, predicted, w in self.stages:
                a = np.searchsorted(positions, lo)
                b = np.searchsorted(positions, hi)
                mass[positions[a:b] - lo, predicted] += w
            hits += int((mass.argmax(axis=1) == self.ids[lo:hi]).sum())
            top2 = np.sort(mass, axis=1)[:, -2:]
            ties += int((top2[:, 1] - top2[:, 0] <= 1e-9 * top2[:, 1]).sum())
        return hits, ties


def data_bits(ids, rules, weights, k: int) -> float:
    """Bits of the sequence given the rule table."""
    return float(Activity(ids, rules, weights, k).data_bits_per_position().sum())
