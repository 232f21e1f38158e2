import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cossu import Alphabet, Sequence, mine_closed, support

from conftest import char_seq, random_seq


def as_texts(patterns):
    return {("".join(cp.pattern.tokens), cp.support) for cp in patterns}


def oracle_closed(s: Sequence, minsup: int = 2, max_len: int = 20):
    """Independent enumerator: count every window, absorb one-step
    extensions of equal support (support is antitone along extension
    chains, so this decides closedness against supersequences of any
    in-cap length)."""
    ids = s.ids
    n = len(ids)
    counts = {}
    for length in range(1, min(max_len, n) + 1):
        for i in range(n - length + 1):
            w = ids[i : i + length]
            counts[w] = counts.get(w, 0) + 1
    closed = {}
    for w, c in counts.items():
        if c < minsup:
            continue
        extensions = [
            e
            for e in counts
            if len(e) == len(w) + 1
            and len(e) <= max_len
            and (e[1:] == w or e[:-1] == w)
        ]
        if not any(counts[e] == c for e in extensions):
            closed[w] = c
    return closed


class TestWorkedExamples:
    def test_main_sequence(self, worked):
        assert as_texts(mine_closed(worked)) == {
            ("a", 4),
            ("ab", 3),
            ("abc", 2),
            ("eab", 2),
        }

    def test_runs(self):
        assert as_texts(mine_closed(char_seq("aaaa"))) == {
            ("a", 4),
            ("aa", 3),
            ("aaa", 2),
        }

    def test_all_distinct(self):
        assert mine_closed(char_seq("abcdef")) == []

    def test_deterministic_order(self, worked):
        out = mine_closed(worked)
        assert [("".join(cp.pattern.tokens), cp.support) for cp in out] == [
            ("a", 4),
            ("ab", 3),
            ("abc", 2),
            ("eab", 2),
        ]
        assert out == mine_closed(worked)


class TestValidation:
    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            mine_closed(Sequence(Alphabet(["a"]), ()))

    def test_minsup_floor(self, worked):
        with pytest.raises(ValueError):
            mine_closed(worked, minsup=1)

    def test_unknown_method(self, worked):
        with pytest.raises(ValueError):
            mine_closed(worked, method="magic")


class TestEnginesAgree:
    def test_small_random(self):
        rng = random.Random(1234)
        for _ in range(60):
            s = random_seq(rng, rng.randint(2, 120), rng.randint(2, 6))
            brute = mine_closed(s, method="brute")
            suffix = mine_closed(s, method="suffix")
            assert brute == suffix

    def test_against_independent_oracle(self):
        rng = random.Random(99)
        for _ in range(25):
            s = random_seq(rng, rng.randint(2, 60), rng.randint(2, 4))
            expect = oracle_closed(s)
            for method in ("brute", "suffix"):
                got = {
                    cp.pattern.ids: cp.support
                    for cp in mine_closed(s, method=method)
                }
                assert got == expect

    def test_length_cap(self):
        rng = random.Random(5)
        for _ in range(20):
            s = random_seq(rng, 60, 2)
            for cap in (1, 2, 3, 5):
                brute = mine_closed(s, max_pattern_len=cap, method="brute")
                suffix = mine_closed(s, max_pattern_len=cap, method="suffix")
                assert brute == suffix
                assert all(len(cp.pattern) <= cap for cp in brute)
                got = {cp.pattern.ids: cp.support for cp in brute}
                assert got == oracle_closed(s, max_len=cap)

    def test_run_heavy_input(self):
        s = char_seq("a" * 50 + "b" + "a" * 30)
        assert mine_closed(s, method="brute") == mine_closed(s, method="suffix")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=2, max_size=80),
    st.integers(2, 3),
)
def test_coverage_property(ids, minsup):
    """Every frequent window is inside some closed pattern with at least
    its support."""
    alphabet = Alphabet(["a", "b", "c"])
    s = Sequence(alphabet, tuple(ids))
    closed = mine_closed(s, minsup=minsup)
    by_ids = [(cp.pattern.ids, cp.support) for cp in closed]
    n = len(ids)
    for length in range(1, min(20, n) + 1):
        for i in range(n - length + 1):
            w = tuple(ids[i : i + length])
            c = support(Sequence(alphabet, w), s)
            if c < minsup:
                continue
            absorbers = [
                supp
                for pat, supp in by_ids
                if len(pat) >= len(w)
                and any(
                    pat[o : o + len(w)] == w
                    for o in range(len(pat) - len(w) + 1)
                )
            ]
            assert absorbers and max(absorbers) >= c


def naive_count(ids, w):
    """Matches of w in ids, one window at a time."""
    return sum(
        tuple(ids[i : i + len(w)]) == w for i in range(len(ids) - len(w) + 1)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=80),
    st.sampled_from([1, 2, 3, 5, 20]),
    st.integers(2, 3),
)
def test_prefix_supports_count_prefix_matches(ids, cap, minsup):
    """prefix_supports[k-1] is the support of the pattern's first k
    symbols, and its last entry is the pattern's own support."""
    alphabet = Alphabet(["a", "b", "c"])
    s = Sequence(alphabet, tuple(ids))
    for cp in mine_closed(s, minsup=minsup, max_pattern_len=cap):
        pat = cp.pattern.ids
        prefixes = [pat[:k] for k in range(1, len(pat) + 1)]
        assert cp.prefix_supports == tuple(naive_count(ids, w) for w in prefixes)
        assert cp.prefix_supports == tuple(
            support(Sequence(alphabet, w), s) for w in prefixes
        )
        assert cp.prefix_supports[-1] == cp.support


def test_cap_beyond_length():
    """A cap far past the sequence length mines what a cap at the length
    mines: no work is sized by the cap itself."""
    rng = random.Random(8)
    block = [rng.randrange(3) for _ in range(100)]
    s = Sequence(Alphabet(["a", "b", "c"]), tuple(block * 3))
    at_length = mine_closed(s, max_pattern_len=len(s))
    assert mine_closed(s, max_pattern_len=10**9) == at_length
    assert max(len(cp.pattern) for cp in at_length) == 200
    assert at_length == mine_closed(s, max_pattern_len=len(s), method="brute")
