import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cossu import (
    Alphabet,
    Sequence,
    frequencies,
    matches_ending_at,
    matches_starting_at,
    support,
)
from cossu.sequence import match_ends

from conftest import char_seq


def pat(s: Sequence, text: str) -> Sequence:
    return Sequence.from_tokens(s.alphabet, list(text))


class TestAlphabet:
    def test_canonical_order(self):
        a = Alphabet(["c", "a", "b"])
        assert a.tokens == ("a", "b", "c")
        assert a.id_of("a") == 0 and a.token_of(2) == "c"

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Alphabet(["a", "a"])

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="unknown symbol"):
            Alphabet(["a"]).id_of("z")

    def test_union(self):
        u = Alphabet(["b", "a"]).union(Alphabet(["c", "b"]))
        assert u.tokens == ("a", "b", "c")

    def test_interning_bijection(self):
        a = Alphabet(["x", "y", "z"])
        for sym in a:
            assert a.id_of(sym.token) == sym.id
            assert a.token_of(sym.id) == sym.token


class TestSequence:
    def test_one_based_indexing(self, worked):
        assert worked.symbol_at(1) == worked.alphabet.id_of("a")
        assert worked.symbol_at(12) == worked.alphabet.id_of("b")
        with pytest.raises(IndexError):
            worked.symbol_at(0)

    def test_segment_empty_when_reversed(self, worked):
        assert len(worked.segment(5, 4)) == 0
        assert worked.segment(5, 7).tokens == ("a", "b", "c")

    def test_bad_id_rejected(self):
        with pytest.raises(ValueError):
            Sequence(Alphabet(["a"]), (1,))
        with pytest.raises(ValueError, match="out of range: -1"):
            Sequence(Alphabet(["a", "b"]), (0, -1, 1))
        with pytest.raises(ValueError, match="out of range: 2"):
            Sequence(Alphabet(["a", "b"]), (0, 1, 2))

    @pytest.mark.parametrize("ids", [(0.5,), (True,), (0, 1.0), ("a",)])
    def test_non_integer_ids_rejected(self, ids):
        with pytest.raises(ValueError, match="must be integers"):
            Sequence(Alphabet(["a", "b"]), ids)


def many_tokens(k: int) -> list[str]:
    """k tokens whose canonical order is their numbering."""
    return [f"t{i:03d}" for i in range(k)]


class TestArrayForm:
    @pytest.mark.parametrize(
        "k, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)]
    )
    def test_smallest_dtype(self, k, dtype):
        tokens = many_tokens(k)
        alphabet = Alphabet(tokens)
        assert alphabet.id_dtype == dtype
        assert Sequence(alphabet, (k - 1, 0)).array.dtype == dtype
        assert Sequence.from_tokens(alphabet, tokens).array.dtype == dtype
        assert Sequence(alphabet, ()).array.dtype == dtype

    def test_array_is_read_only_and_private(self):
        given = np.array([0, 2, 1, 2], dtype=np.uint8)
        s = Sequence(Alphabet(["a", "b", "c"]), given)
        given[0] = 1
        assert s.ids == (0, 2, 1, 2)
        for arr in (s.array, s.segment(2, 3).array, char_seq("abc").array):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("k", [5, 257])
    def test_ids_are_the_tokens_interned_one_by_one(self, k):
        rng = random.Random(k)
        alphabet = Alphabet(many_tokens(k))
        tokens = [rng.choice(alphabet.tokens) for _ in range(500)]
        s = Sequence.from_tokens(alphabet, tokens)
        assert s.ids == tuple(alphabet.id_of(t) for t in tokens)
        assert all(type(i) is int for i in s.ids)
        assert s.tokens == tuple(tokens)
        assert Sequence(alphabet, s.ids) == s

    def test_pickle_and_copy_keep_a_read_only_array(self, worked):
        for twin in (pickle.loads(pickle.dumps(worked)), copy.deepcopy(worked)):
            assert twin == worked and not twin.array.flags.writeable

    def test_equal_content_equal_hash(self, worked):
        again = Sequence(worked.alphabet, list(worked.ids))
        assert again == worked and hash(again) == hash(worked)
        assert worked.segment(1, 3) == worked.segment(5, 7)  # "abc" twice
        assert hash(worked.segment(1, 3)) == hash(worked.segment(5, 7))
        assert len({worked, again, worked.segment(1, 3)}) == 2
        assert worked.segment(1, 3) != worked.segment(2, 4)
        other = Sequence(Alphabet(["a", "b", "c", "x", "y"]), worked.ids[:3])
        assert other != worked.segment(1, 3)  # same ids, other alphabet
        assert worked != worked.ids


class TestMatches:
    def test_worked_example_ends(self, worked):
        assert matches_ending_at(pat(worked, "abc"), worked) == [3, 7]

    def test_whole_sequence_self_match(self, worked):
        assert matches_ending_at(worked, worked) == [12]

    def test_ab_ends(self, worked):
        # brute-force oracle: scan all windows by hand
        ids = worked.ids
        two = pat(worked, "ab").ids
        expect = [j for j in range(2, 13) if ids[j - 2 : j] == two]
        assert expect == [2, 6, 12]
        assert matches_ending_at(pat(worked, "ab"), worked) == expect

    def test_longer_than_sequence(self, worked):
        assert matches_ending_at(pat(worked, "abceabcadeabe"), worked) == []

    def test_empty_pattern_rejected(self, worked):
        with pytest.raises(ValueError):
            matches_ending_at(Sequence(worked.alphabet, ()), worked)


class TestSupport:
    def test_worked_example(self, worked):
        assert support(pat(worked, "abc"), worked) == 2

    def test_absent_symbol(self, worked):
        other = char_seq("z")
        assert support(other, worked) == 0

    def test_single_symbol(self, worked):
        assert support(pat(worked, "a"), worked) == 4


class TestFrequencies:
    def test_worked_example(self, worked):
        f = frequencies(worked)
        assert f.mapping() == {
            "a": Fraction(4, 12),
            "b": Fraction(3, 12),
            "c": Fraction(2, 12),
            "e": Fraction(2, 12),
            "d": Fraction(1, 12),
        }

    def test_degenerate(self):
        assert frequencies(char_seq("aaaa")).mapping() == {"a": Fraction(1)}
        assert frequencies(char_seq("ab")).mapping() == {
            "a": Fraction(1, 2),
            "b": Fraction(1, 2),
        }

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            frequencies(Sequence(Alphabet(["a"]), ()))

    def test_absent_symbol_smoothed(self):
        a = Alphabet(["x", "y"])
        f = frequencies(Sequence(a, (0, 0)))
        assert f.prob(a.id_of("x")) == 1.0
        assert f.prob(a.id_of("y")) == 0.25  # 1/(2n)
        assert f.code_length(a.id_of("y")) == -math.log2(0.25)


@st.composite
def seq_and_pattern(draw):
    k = draw(st.integers(2, 5))
    alphabet = Alphabet(chr(ord("a") + i) for i in range(k))
    ids = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=60))
    plen = draw(st.integers(1, 4))
    pids = draw(st.lists(st.integers(0, k - 1), min_size=plen, max_size=plen))
    return Sequence(alphabet, tuple(ids)), Sequence(alphabet, tuple(pids))


@settings(max_examples=150, deadline=None)
@given(seq_and_pattern())
def test_start_and_end_counts_agree(sp):
    s, p = sp
    assert len(matches_ending_at(p, s)) == len(matches_starting_at(p, s))


@settings(max_examples=150, deadline=None)
@given(seq_and_pattern(), st.integers(0, 4))
def test_support_antitone_under_extension(sp, sym):
    s, p = sp
    k = len(s.alphabet)
    x = (sym % k,)
    right = Sequence(s.alphabet, p.ids + x)
    left = Sequence(s.alphabet, x + p.ids)
    assert support(right, s) <= support(p, s)
    assert support(left, s) <= support(p, s)


@settings(max_examples=100, deadline=None)
@given(seq_and_pattern())
def test_frequencies_sum_to_one(sp):
    s, _ = sp
    total = sum(frequencies(s).mapping().values())
    assert total == 1
    float_total = sum(float(v) for v in frequencies(s).mapping().values())
    assert abs(float_total - 1.0) <= 1e-12


def naive_match_ends(ids, pattern):
    """Reference scan: every window of the pattern's length, compared."""
    m = len(pattern)
    return [
        j
        for j in range(m - 1, len(ids))
        if tuple(ids[j - m + 1 : j + 1]) == pattern
    ]


@st.composite
def ids_and_pattern(draw):
    k = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, k - 1), max_size=40))
    pattern = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=6))
    return ids, tuple(pattern)


@settings(max_examples=200, deadline=None)
@given(ids_and_pattern())
@example(([], (0,)))  # empty sequence
@example(([0, 1], (0, 1, 0)))  # pattern longer than the sequence
@example(([0] * 7, (0, 0, 0)))  # one-symbol alphabet, overlapping matches
def test_match_ends_against_naive_scan(case):
    ids, pattern = case
    got = match_ends(np.asarray(ids, dtype=np.int64), pattern)
    assert got.tolist() == naive_match_ends(ids, pattern)
