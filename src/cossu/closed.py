"""Closed frequent contiguous pattern mining over a single sequence.

A pattern is frequent when it has at least `minsup` distinct contiguous
matches, and closed when no single-symbol extension inside the length cap
keeps its support (support is antitone along extension chains, so checking
one-step extensions decides closedness against all longer supersequences).
Patterns at the length cap have no in-cap extension and count as closed.

Mining walks a suffix array over its LCP intervals: branching interval
labels are exactly the right-maximal repeats, and a left-context diversity
check (precomputed from the preceding-symbol array) filters the
left-extensible ones in O(1) per node. The suffix sort and the LCP array
stop at depth `max_pattern_len`, so the intervals at the cap are the
frequent cap-length windows, all closed. A pattern's prefix supports (the
trigger counts of its candidate rules) are the widths of the runs of
LCP >= k around its slot.

`suffix_walk` returns the patterns as arrays (start, length and the
prefix-support matrix), which mining prices directly; `mine_closed` is the
list view of the same walk, one `ClosedPattern` per pattern. A brute-force
window counter, quadratic-ish but simple, is kept only as the oracle that
tests compare the suffix walk against (`method="brute"`), prefix supports
included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequence import Sequence


@dataclass(frozen=True)
class ClosedPattern:
    """`prefix_supports[k-1]` counts the matches of the first k symbols."""

    pattern: Sequence
    support: int
    prefix_supports: tuple[int, ...]


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
        starts, lengths, counts = suffix_walk(s.array, minsup, max_pattern_len)
        ids = s.ids
        found = {
            ids[a : a + d]: tuple(counts[:d, j].tolist())
            for j, (a, d) in enumerate(zip(starts.tolist(), lengths.tolist()))
        }
    else:
        raise ValueError(f"unknown method: {method!r}")
    ordered = sorted(
        found.items(), key=lambda kv: (-kv[1][-1], len(kv[0]), kv[0])
    )
    return [
        ClosedPattern(Sequence._trusted(s.alphabet, pat), prefix[-1], prefix)
        for pat, prefix in ordered
    ]


def _mine_brute(
    ids: tuple[int, ...], minsup: int, max_len: int
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Closed patterns mapped to their prefix supports, by counting every
    window of every in-cap length (the oracle for `suffix_walk`)."""
    counts: dict[tuple[int, ...], int] = {}
    for length in range(1, min(max_len, len(ids)) + 1):
        for i in range(len(ids) - length + 1):
            w = ids[i : i + length]
            counts[w] = counts.get(w, 0) + 1
    absorbed: set[tuple[int, ...]] = set()
    for w, c in counts.items():
        if c < minsup or len(w) < 2:
            continue
        for sub in (w[1:], w[:-1]):
            if counts[sub] == c:
                absorbed.add(sub)
    return {
        w: tuple(counts[w[:k]] for k in range(1, len(w) + 1))
        for w, c in counts.items()
        if c >= minsup and w not in absorbed
    }


def _suffix_array(arr: np.ndarray, depth: int) -> np.ndarray:
    """Suffix array by prefix doubling, ordered only by the first `depth`
    symbols: suffixes that share them keep an arbitrary but fixed order."""
    n = arr.size
    rank = np.unique(arr, return_inverse=True)[1].astype(np.int64)
    order = np.argsort(rank, kind="stable")
    k = 1
    while k < depth and rank.max() < n - 1:
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:]
        order = np.lexsort((second, rank))
        r1, r2 = rank[order], second[order]
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        changed[1:] = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.cumsum(changed)
        k *= 2
    return order


def _lcp_array(arr: np.ndarray, sa: np.ndarray, depth: int) -> np.ndarray:
    """lcp[r] is the lcp of suffixes sa[r-1] and sa[r], capped at depth;
    each pass extends the pairs that still match by one symbol."""
    n = arr.size
    lcp = np.zeros(n, dtype=np.int64)
    live = np.arange(1, n)
    h = 0
    while live.size and h < depth:
        i, j = sa[live - 1] + h, sa[live] + h
        inside = np.maximum(i, j) < n
        live, i, j = live[inside], i[inside], j[inside]
        live = live[arr[i] == arr[j]]
        h += 1
        lcp[live] = h
    return lcp


def suffix_walk(
    arr: np.ndarray, minsup: int, max_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed patterns of arr as arrays, in the walk's order.

    Returns each pattern's start in arr, its length, and the prefix
    supports: `counts[k-1, j]` is the support of the first k symbols of
    pattern j's window, for every k up to the longest length; those up
    to the pattern's own length are its prefix supports.
    """
    n = arr.size
    depth = min(max_len, n)
    sa = _suffix_array(arr, depth)
    lcp = _lcp_array(arr, sa, depth)

    # Preceding symbol per suffix-array slot; -1 marks the sequence start,
    # which always counts as a distinct left context (in int64: -1 would
    # wrap onto the largest id in the unsigned id dtype).
    bwt = arr[np.maximum(sa - 1, 0)].astype(np.int64)
    bwt[sa == 0] = -1
    diff = np.zeros(n, dtype=np.int64)
    diff[1:] = bwt[1:] != bwt[:-1]
    pref = np.cumsum(diff).tolist()

    # Left boundary and depth of each closed interval. An interval at the
    # cap has no in-cap extension, so it is closed whatever its contexts.
    slots: list[int] = []
    depths: list[int] = []
    heights = lcp.tolist() + [0]
    stack: list[tuple[int, int]] = [(0, 0)]  # (lcp depth, left boundary)
    for i in range(1, n + 1):
        h = heights[i]
        lb = i - 1
        while stack[-1][0] > h:
            d, lb = stack.pop()
            if i - lb >= minsup and (d == max_len or pref[i - 1] > pref[lb]):
                slots.append(lb)
                depths.append(d)
        if stack[-1][0] < h:
            stack.append((h, lb))

    # The matches of a pattern's first k symbols are the run of lcp >= k
    # around its slot.
    at = np.array(slots, dtype=np.int64)
    lengths = np.array(depths, dtype=np.int64)
    longest = max(depths, default=0)
    counts = np.empty((longest, at.size), dtype=np.int64)
    for k in range(1, longest + 1):
        run = np.cumsum(lcp < k)
        counts[k - 1] = np.bincount(run)[run[at]]
    return sa[at], lengths, counts
