import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cossu import (
    Alphabet,
    Rule,
    Sequence,
    active_matches,
    compression_gain,
    format_rule,
    frequencies,
    generate_candidates,
    mine_closed,
    parse_rule,
    rule_support_confidence,
    singleton_rules,
    triggers_at,
)
from cossu.rules import candidate_gains
from cossu.sequence import match_ends

from conftest import char_seq, random_seq


def rule(s: Sequence, ant: str, cons: str) -> Rule:
    return Rule.from_tokens(s.alphabet, list(ant), list(cons))


class TestRuleBasics:
    def test_empty_consequent_rejected(self):
        with pytest.raises(ValueError):
            Rule((), ())

    def test_singleton_set_covers_alphabet(self):
        a = Alphabet(["x", "y", "z"])
        singles = singleton_rules(a)
        assert len(singles) == 3
        assert all(r.is_singleton for r in singles)
        assert {r.consequent[0] for r in singles} == {0, 1, 2}

    def test_format_and_parse(self, worked):
        r = rule(worked, "ab", "c")
        assert format_rule(r, worked.alphabet) == "a b -> c"
        assert parse_rule("a b -> c", worked.alphabet) == r
        empty = rule(worked, "", "ab")
        assert format_rule(empty, worked.alphabet) == "∅ -> a b"
        assert parse_rule("∅ -> a b", worked.alphabet) == empty
        assert parse_rule("-> a b", worked.alphabet) == empty
        with pytest.raises(ValueError):
            parse_rule("a b c", worked.alphabet)
        with pytest.raises(ValueError):
            parse_rule("a ->", worked.alphabet)


class TestTriggers:
    def test_match_end(self, worked):
        r = rule(worked, "ab", "c")
        assert triggers_at(r, worked, 6)
        assert not triggers_at(r, worked, 3)
        assert triggers_at(r, worked, 12)

    def test_empty_antecedent_everywhere(self, worked):
        r = rule(worked, "", "a")
        assert all(triggers_at(r, worked, i) for i in range(0, 13))

    def test_out_of_range(self, worked):
        with pytest.raises(IndexError):
            triggers_at(rule(worked, "a", "b"), worked, 13)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 2), max_size=30),
    st.lists(st.integers(0, 2), max_size=3),
)
def test_triggers_at_matches_scan(ids, ant):
    """triggers_at agrees with the match_ends scan at every boundary, and
    an empty antecedent triggers at all of them."""
    s = Sequence(Alphabet(["a", "b", "c"]), tuple(ids))
    r = Rule(tuple(ant), (0,))
    ends = set((match_ends(s.array, r.antecedent) + 1).tolist())
    for i in range(len(s) + 1):
        assert triggers_at(r, s, i) == (not ant or i in ends)


class TestSupportConfidence:
    def test_worked_example(self, worked):
        assert rule_support_confidence(rule(worked, "ab", "c"), worked) == (
            2,
            2 / 3,
        )

    def test_empty_antecedent(self, worked):
        supp, conf = rule_support_confidence(rule(worked, "", "a"), worked)
        assert (supp, conf) == (4, 4 / 12)

    def test_absent_consequent(self, worked):
        z = Alphabet(list("abcdez"))
        s = worked.reindexed(z)
        supp, conf = rule_support_confidence(
            Rule.from_tokens(z, ["a"], ["z", "z", "z"]), s
        )
        assert (supp, conf) == (0, 0.0)

    def test_applies_implies_triggers(self):
        rng = random.Random(3)
        for _ in range(40):
            s = random_seq(rng, 30, 3)
            a = tuple(rng.randrange(3) for _ in range(rng.randint(0, 2)))
            c = tuple(rng.randrange(3) for _ in range(rng.randint(1, 2)))
            r = Rule(a, c)
            supp, conf = rule_support_confidence(r, s)
            assert 0.0 <= conf <= 1.0
            if a:
                triggers = sum(
                    1 for i in range(1, 31) if triggers_at(r, s, i)
                )
                assert supp <= triggers


class TestActiveMatches:
    def test_multi_stage(self, worked):
        r = rule(worked, "", "abc")
        hist = char_seq("ab").reindexed(worked.alphabet)
        got = {(m.stage, worked.alphabet.token_of(m.predicted))
               for m in active_matches([r], hist)}
        assert got == {(0, "a"), (2, "c")}

    def test_singletons_always_active(self, worked):
        singles = singleton_rules(worked.alphabet)
        empty = Sequence(worked.alphabet, ())
        got = active_matches(singles, empty)
        assert len(got) == len(worked.alphabet)
        assert all(m.stage == 0 for m in got)

    def test_suffix_match(self, worked):
        r = rule(worked, "ab", "c")
        hist = char_seq("cab").reindexed(worked.alphabet)
        got = active_matches([r], hist)
        assert [(m.stage, m.predicted) for m in got] == [
            (0, worked.alphabet.id_of("c"))
        ]


class TestCandidates:
    def test_single_pattern_splits(self, worked):
        closed = [
            cp
            for cp in mine_closed(worked)
            if "".join(cp.pattern.tokens) == "abc"
        ]
        got = generate_candidates(closed, worked)
        assert got == [
            rule(worked, "", "abc"),
            rule(worked, "a", "bc"),
            rule(worked, "ab", "c"),
        ]

    def test_singleton_excluded(self, worked):
        closed = [
            cp for cp in mine_closed(worked) if len(cp.pattern) == 1
        ]
        assert generate_candidates(closed, worked) == []

    def test_dedupe_two_patterns(self, worked):
        closed = [
            cp
            for cp in mine_closed(worked)
            if "".join(cp.pattern.tokens) in ("ab", "abc")
        ]
        got = generate_candidates(closed, worked)
        assert got == [
            rule(worked, "", "ab"),
            rule(worked, "a", "b"),
            rule(worked, "", "abc"),
            rule(worked, "a", "bc"),
            rule(worked, "ab", "c"),
        ]

    def test_split_count(self, worked):
        closed = mine_closed(worked)
        got = generate_candidates(closed, worked)
        expected = sum(
            len(cp.pattern) - (1 if len(cp.pattern) == 1 else 0)
            for cp in closed
        )
        assert len(got) == expected
        assert len(set(got)) == len(got)


class TestGain:
    def test_worked_example(self, worked):
        f = frequencies(worked)
        g = compression_gain(rule(worked, "ab", "c"), worked, f)
        expect = (2 / 3) * 2 * math.log2(6) - (
            math.log2(3) + 2 + math.log2(6)
        )
        assert g == pytest.approx(expect, abs=1e-12)
        assert g == pytest.approx(-2.7233, abs=1e-3)

    def test_zero_support_is_cost_only(self, worked):
        f = frequencies(worked)
        g = compression_gain(rule(worked, "a", "dd"), worked, f)
        assert g == pytest.approx(-(math.log2(3) + 2 * math.log2(12)))
        assert g < 0

    def test_unknown_symbol_rejected(self, worked):
        z = Alphabet(list("abcdez"))
        s = worked.reindexed(z)
        with pytest.raises(ValueError, match="unknown symbol"):
            compression_gain(Rule.from_tokens(z, [], ["z"]), s, frequencies(s))

    def test_batch_matches_single(self, worked):
        f = frequencies(worked)
        for r, g in candidate_gains(mine_closed(worked), worked, f):
            assert g == compression_gain(r, worked, f)

    def test_batch_matches_single_random(self):
        rng = random.Random(17)
        for _ in range(10):
            s = random_seq(rng, 80, 3)
            f = frequencies(s)
            for cap in (1, 2, 3, 4, 5, 20):
                closed = mine_closed(s, max_pattern_len=cap)
                for r, g in candidate_gains(closed, s, f):
                    assert g == compression_gain(r, s, f)

    def test_batch_order_is_candidate_order(self):
        rng = random.Random(23)
        for _ in range(10):
            s = random_seq(rng, 80, 3)
            f = frequencies(s)
            for cap in (1, 2, 3, 20):
                closed = mine_closed(s, max_pattern_len=cap)
                assert [r for r, _ in candidate_gains(closed, s, f)] == (
                    generate_candidates(closed, s)
                )

    def test_batch_matches_single_on_runs(self):
        s = char_seq("a" * 50 + "b" + "a" * 30)
        f = frequencies(s)
        for cap in (1, 2, 3, 4, 5, 20):
            gains = candidate_gains(mine_closed(s, max_pattern_len=cap), s, f)
            assert len(gains) >= cap - 1
            for r, g in gains:
                assert g == compression_gain(r, s, f)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=0, max_size=40))
def test_active_singletons_count(ids):
    alphabet = Alphabet(["a", "b", "c"])
    hist = Sequence(alphabet, tuple(ids))
    rules = list(singleton_rules(alphabet))
    assert len(active_matches(rules, hist)) == 3


def naive_support_confidence(ids, rule):
    """Reference count over the boundaries i before each element and after
    the last: the rule triggers at i when its antecedent ends there (an
    empty one triggers before every element) and applies when the
    consequent also starts there."""
    a, c = rule.antecedent, rule.consequent
    triggers = applies = 0
    for i in range(len(ids) + 1):
        if a:
            triggered = i >= len(a) and tuple(ids[i - len(a) : i]) == a
        else:
            triggered = i < len(ids)
        if triggered:
            triggers += 1
            applies += tuple(ids[i : i + len(c)]) == c
    return applies, (applies / triggers if triggers else 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=40),
    st.lists(st.integers(0, 2), max_size=3),
    st.lists(st.integers(0, 2), min_size=1, max_size=3),
)
def test_support_confidence_against_naive_count(ids, ant, cons):
    s = Sequence(Alphabet(["a", "b", "c"]), tuple(ids))
    rule = Rule(tuple(ant), tuple(cons))
    assert rule_support_confidence(rule, s) == naive_support_confidence(
        s.ids, rule
    )
