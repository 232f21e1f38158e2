"""Symbols, alphabets, sequences and contiguous-match primitives.

Positions in the public API are 1-based; a sequence stores its interned ids
once, as a read-only array of the alphabet's `id_dtype` (do arithmetic on ids
in int64). `match_ends` is the one contiguous-match scan: every match,
trigger and rule-activity computation goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class Symbol:
    """An interned alphabet symbol: a small stable id plus its text token."""

    id: int
    token: str


class Alphabet:
    """Immutable token table.

    Ids follow the canonical order (lexicographic on tokens), so two
    alphabets built from the same token set intern identically.
    """

    __slots__ = ("_tokens", "_index", "_token_array", "id_dtype")

    def __init__(self, tokens: Iterable[str]):
        toks = sorted(tokens)
        if not toks:
            raise ValueError("alphabet must not be empty")
        for a, b in zip(toks, toks[1:]):
            if a == b:
                raise ValueError(f"duplicate token: {a!r}")
        self._tokens: tuple[str, ...] = tuple(toks)
        self._index: dict[str, int] = {t: i for i, t in enumerate(self._tokens)}
        #: The tokens as an object array, so ids gather their tokens at once.
        self._token_array = np.array(self._tokens, dtype=object)
        #: Smallest unsigned dtype that holds every id (uint8 up to 256 tokens).
        self.id_dtype = np.min_scalar_type(len(toks) - 1)

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(Symbol(i, t) for i, t in enumerate(self._tokens))

    def id_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ValueError(f"unknown symbol: {token!r}") from None

    def token_of(self, sid: int) -> str:
        return self._tokens[sid]

    def union(self, other: "Alphabet") -> "Alphabet":
        return Alphabet(set(self._tokens) | set(other._tokens))

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __len__(self) -> int:
        return len(self._tokens)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self._tokens == other._tokens

    def __hash__(self) -> int:
        return hash(self._tokens)

    def __repr__(self) -> str:
        return f"Alphabet({list(self._tokens)!r})"


class Sequence:
    """An immutable run of symbol ids over one alphabet, stored only in
    the read-only `array`; `ids` is a tuple view for tests and oracles."""

    __slots__ = ("alphabet", "array")

    def __new__(cls, alphabet: Alphabet, ids: Iterable[int] | np.ndarray):
        arr = np.array(ids)  # a private copy, as it is made read-only
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError("symbol ids must be integers, in one flat run")
        bad = arr[(arr < 0) | (arr >= len(alphabet))]
        if bad.size:
            raise ValueError(f"symbol id out of range: {bad[0]}")
        return cls._trusted(alphabet, arr)

    @classmethod
    def _trusted(cls, alphabet: Alphabet, run: np.ndarray | tuple) -> "Sequence":
        """A sequence over ids known to be in range: they are not checked."""
        s = object.__new__(cls)
        s.alphabet = alphabet
        s.array = np.asarray(run, alphabet.id_dtype)
        s.array.flags.writeable = False
        return s

    @classmethod
    def from_tokens(cls, alphabet: Alphabet, tokens: Iterable[str]) -> "Sequence":
        ids = map(alphabet._index.__getitem__, tokens)
        try:
            return cls._trusted(alphabet, np.fromiter(ids, alphabet.id_dtype))
        except KeyError as exc:
            raise ValueError(f"unknown symbol: {exc.args[0]!r}") from None

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.alphabet._token_array[self.array].tolist())

    def __len__(self) -> int:
        return self.array.size

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, Sequence) and self.alphabet == other.alphabet
        return same and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.array.tobytes()))

    def __reduce__(self):  # copies and pickles rebuild the read-only array
        return Sequence, (self.alphabet, self.array)

    def __repr__(self) -> str:
        return f"Sequence({self.alphabet!r}, {self.array.tolist()!r})"

    def symbol_at(self, i: int) -> int:
        """Id of the i-th element, 1-based."""
        if not 1 <= i <= len(self):
            raise IndexError(f"position out of range: {i}")
        return int(self.array[i - 1])

    def segment(self, i: int, j: int) -> "Sequence":
        """The contiguous run from position i to j inclusive (1-based).

        Empty when i > j, mirroring the convention that an out-of-order
        index pair denotes the empty sequence.
        """
        if i > j:
            return Sequence._trusted(self.alphabet, self.array[:0])
        if i < 1 or j > len(self):
            raise IndexError(f"segment out of range: [{i}, {j}]")
        return Sequence._trusted(self.alphabet, self.array[i - 1 : j])

    def reindexed(self, alphabet: Alphabet) -> "Sequence":
        """The same token run interned against another alphabet.

        Raises `unknown symbol` for the first token, in sequence order, that
        the other alphabet lacks.
        """
        if alphabet == self.alphabet:
            return self
        index = alphabet._index
        lookup = np.array([index.get(t, -1) for t in self.alphabet.tokens])
        absent = lookup < 0  # tokens the other alphabet lacks
        if absent.any():
            unknown = np.flatnonzero(absent[self.array])
            if unknown.size:
                token = self.alphabet.token_of(int(self.array[unknown[0]]))
                raise ValueError(f"unknown symbol: {token!r}")
        # An absent token's -1 is never gathered: it does not occur.
        ids = lookup.astype(alphabet.id_dtype)[self.array]
        return Sequence._trusted(alphabet, ids)


def match_ends(
    arr: np.ndarray, pattern: tuple[int, ...] | np.ndarray
) -> np.ndarray:
    """0-based end indices of all contiguous matches of the pattern in arr.

    Matches may overlap. An empty pattern, or one longer than arr, has none.
    """
    m = len(pattern)
    n = arr.size
    if m == 0 or m > n:
        return np.empty(0, dtype=np.int64)
    hits = arr[: n - m + 1] == pattern[0]
    for off in range(1, m):
        hits &= arr[off : n - m + 1 + off] == pattern[off]
    return np.flatnonzero(hits) + (m - 1)


def matches_ending_at(pattern: Sequence, s: Sequence) -> list[int]:
    """All 1-based positions j such that s[j-|p|+1, j] equals the pattern."""
    if len(pattern) == 0:
        raise ValueError("empty pattern")
    try:
        pat = pattern.reindexed(s.alphabet).array
    except ValueError:  # a token s's alphabet lacks cannot occur in s
        return []
    return (match_ends(s.array, pat) + 1).tolist()


def matches_starting_at(pattern: Sequence, s: Sequence) -> list[int]:
    """All 1-based positions i such that s[i, i+|p|-1] equals the pattern."""
    m = len(pattern)
    return [j - m + 1 for j in matches_ending_at(pattern, s)]


def support(pattern: Sequence, s: Sequence) -> int:
    """Number of distinct contiguous matches of the pattern in s."""
    return len(matches_ending_at(pattern, s))


class FrequencyTable:
    """Per-symbol empirical frequencies of a training sequence.

    Counts are kept exact; symbols of the alphabet that never occur keep a
    zero count and fall back to the smoothing weight 1/(2n) wherever a
    strictly positive probability is required for encoding.
    """

    __slots__ = ("alphabet", "counts", "n", "_code_lengths")

    def __init__(self, alphabet: Alphabet, counts: Iterable[int], n: int):
        counts = tuple(int(c) for c in counts)
        if len(counts) != len(alphabet):
            raise ValueError("one count per alphabet symbol required")
        if n < 1:
            raise ValueError("empty input")
        if sum(counts) != n:
            raise ValueError("counts do not sum to the sequence length")
        if any(c < 0 for c in counts):
            raise ValueError("negative count")
        self.alphabet = alphabet
        self.counts = counts
        self.n = n
        eps = 0.5 / n
        self._code_lengths = tuple(
            -math.log2(c / n if c else eps) for c in counts
        )

    @property
    def smoothing(self) -> float:
        """Stand-in probability for alphabet symbols unseen in training."""
        return 0.5 / self.n

    def prob(self, sid: int) -> float:
        c = self.counts[sid]
        return c / self.n if c else self.smoothing

    def code_length(self, sid: int) -> float:
        """Bits for one symbol under the background distribution."""
        return self._code_lengths[sid]

    def mapping(self) -> dict[str, Fraction]:
        """Exact frequencies of the occurring symbols, keyed by token."""
        return {
            self.alphabet.token_of(i): Fraction(c, self.n)
            for i, c in enumerate(self.counts)
            if c
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FrequencyTable)
            and self.alphabet == other.alphabet
            and self.counts == other.counts
            and self.n == other.n
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.counts, self.n))

    def __repr__(self) -> str:
        return f"FrequencyTable(n={self.n}, {dict(self.mapping())})"


def frequencies(s: Sequence) -> FrequencyTable:
    """Empirical symbol frequencies of s; rejects the empty sequence."""
    if len(s) == 0:
        raise ValueError("empty input")
    counts = np.bincount(s.array, minlength=len(s.alphabet))
    return FrequencyTable(s.alphabet, counts, len(s))
