"""Closed frequent contiguous pattern mining over a single sequence.

A pattern is frequent when it has at least `minsup` distinct contiguous
matches, and closed when no single-symbol extension inside the length cap
keeps its support (support is antitone along extension chains, so checking
one-step extensions decides closedness against all longer supersequences).
Patterns at the length cap have no in-cap extension and count as closed.

Mining walks a suffix array over its LCP intervals: branching interval
labels are exactly the right-maximal repeats, and a left-context diversity
check (precomputed from the preceding-symbol array) filters the
left-extensible ones in O(1) per node. A brute-force window counter,
quadratic-ish but simple, is kept only as the oracle that tests compare the
suffix walk against (`method="brute"`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .sequence import Sequence


@dataclass(frozen=True)
class ClosedPattern:
    pattern: Sequence
    support: int


def mine_closed(
    s: Sequence,
    minsup: int = 2,
    max_pattern_len: int = 20,
    method: str = "suffix",
) -> list[ClosedPattern]:
    """All closed frequent patterns of s, in deterministic order.

    Output is sorted by descending support, then pattern length, then
    canonical (id-tuple) order. `method="brute"` selects the test oracle,
    which must return the same list.
    """
    if len(s) == 0:
        raise ValueError("empty input")
    if minsup < 2:
        raise ValueError("minsup must be at least 2")
    if max_pattern_len < 1:
        raise ValueError("max_pattern_len must be at least 1")
    if method == "brute":
        found = _mine_brute(s.ids, minsup, max_pattern_len)
    elif method == "suffix":
        found = _mine_suffix(s.ids, minsup, max_pattern_len)
    else:
        raise ValueError(f"unknown method: {method!r}")
    ordered = sorted(found.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))
    return [
        ClosedPattern(Sequence(s.alphabet, pat), supp) for pat, supp in ordered
    ]


def window_counts(
    ids: tuple[int, ...], lengths: Iterable[int]
) -> dict[tuple[int, ...], int]:
    """Support of every distinct window of the given lengths."""
    counts: dict[tuple[int, ...], int] = {}
    n = len(ids)
    for length in lengths:
        if not 1 <= length <= n:
            continue
        for i in range(n - length + 1):
            w = ids[i : i + length]
            counts[w] = counts.get(w, 0) + 1
    return counts


def _mine_brute(
    ids: tuple[int, ...], minsup: int, max_len: int
) -> dict[tuple[int, ...], int]:
    top = min(max_len, len(ids))
    counts = window_counts(ids, range(1, top + 1))
    absorbed: set[tuple[int, ...]] = set()
    for w, c in counts.items():
        if c < minsup or len(w) < 2:
            continue
        for sub in (w[1:], w[:-1]):
            if counts[sub] == c:
                absorbed.add(sub)
    return {
        w: c for w, c in counts.items() if c >= minsup and w not in absorbed
    }


def _suffix_array(arr: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling on numpy ranks."""
    n = arr.size
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    rank = np.unique(arr, return_inverse=True)[1].astype(np.int64)
    k = 1
    while True:
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:]
        order = np.lexsort((second, rank))
        r1, r2 = rank[order], second[order]
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        changed[1:] = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
        new = np.cumsum(changed)
        rank = np.empty_like(new)
        rank[order] = new
        if new[-1] == n - 1 or k >= n:
            return order.astype(np.int64)
        k *= 2


def _lcp_array(ids: tuple[int, ...], sa: np.ndarray) -> np.ndarray:
    """Kasai's algorithm; lcp[r] is the lcp of suffixes sa[r-1] and sa[r]."""
    n = len(ids)
    rank = np.empty(n, dtype=np.int64)
    rank[sa] = np.arange(n)
    lcp = np.zeros(n, dtype=np.int64)
    h = 0
    for i in range(n):
        r = rank[i]
        if r == 0:
            h = 0
            continue
        j = int(sa[r - 1])
        while i + h < n and j + h < n and ids[i + h] == ids[j + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


def _mine_suffix(
    ids: tuple[int, ...], minsup: int, max_len: int
) -> dict[tuple[int, ...], int]:
    n = len(ids)
    arr = np.asarray(ids, dtype=np.int64)
    sa = _suffix_array(arr)
    lcp = _lcp_array(ids, sa)

    # Preceding symbol per suffix-array slot; -1 marks the sequence start,
    # which always counts as a distinct left context.
    bwt = np.where(sa > 0, arr[np.maximum(sa - 1, 0)], -1)
    diff = np.zeros(n, dtype=np.int64)
    diff[1:] = bwt[1:] != bwt[:-1]
    pref = np.cumsum(diff)

    found: dict[tuple[int, ...], int] = {}
    stack: list[tuple[int, int]] = [(0, 0)]  # (lcp depth, left boundary)
    for i in range(1, n + 1):
        h = int(lcp[i]) if i < n else 0
        lb = i - 1
        while stack and stack[-1][0] > h:
            depth, lb = stack.pop()
            rb = i - 1
            supp = rb - lb + 1
            if (
                supp >= minsup
                and depth < max_len
                and pref[rb] > pref[lb]  # at least two left contexts
            ):
                start = int(sa[lb])
                found[ids[start : start + depth]] = supp
        if not stack or stack[-1][0] < h:
            stack.append((h, lb))

    # Frequent windows at the cap have no in-cap extension: all closed.
    if max_len <= n:
        for w, c in window_counts(ids, (max_len,)).items():
            if c >= minsup:
                found[w] = c
    return found
