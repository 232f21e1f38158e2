import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cossu import (
    Alphabet,
    Model,
    Rule,
    Sequence,
    data_code_length,
    frequencies,
    model_code_length,
    position_distributions,
    predictive_distribution,
    rule_code_length,
    singleton_rules,
    total_dl,
    universal_int_code_length,
    weight_code_length,
)
from cossu.encoding import (
    SequenceScorer,
    log2_star,
    quantize_weight,
)
from cossu.rules import active_matches

from conftest import char_seq, random_seq

C0 = 2.865064


def iterated_log_oracle(z: int) -> float:
    """Plain re-derivation of the log-star sum for cross-checking."""
    total, t = 0.0, math.log2(z)
    while t > 0:
        total, t = total + t, math.log2(t)
    return total + math.log2(C0)


class TestUniversalCode:
    def test_one(self):
        assert universal_int_code_length(1) == pytest.approx(
            math.log2(C0), abs=1e-12
        )
        assert universal_int_code_length(1) == pytest.approx(1.5186, abs=1e-4)

    def test_two(self):
        assert universal_int_code_length(2) == pytest.approx(
            1 + math.log2(C0), abs=1e-12
        )

    def test_fifty_two(self):
        assert universal_int_code_length(52) == pytest.approx(
            iterated_log_oracle(52), abs=1e-12
        )
        assert universal_int_code_length(52) == pytest.approx(11.47, abs=1e-2)

    def test_rejects_nonpositive(self):
        for z in (0, -3):
            with pytest.raises(ValueError):
                universal_int_code_length(z)

    def test_kraft_partial_sum(self):
        total = sum(
            2.0 ** -universal_int_code_length(z) for z in range(1, 100_001)
        )
        assert total <= 1.0

    def test_monotone_sampled(self):
        last = 0.0
        for z in (1, 2, 3, 7, 10, 99, 1000, 12345, 10**6):
            cur = universal_int_code_length(z)
            assert cur > last - 1e-12
            last = cur


class TestWeightCode:
    def test_reversed_digits(self):
        assert weight_code_length(0.25, 4) == pytest.approx(
            universal_int_code_length(52), abs=1e-12
        )

    def test_single_digit(self):
        assert weight_code_length(0.5, 4) == pytest.approx(
            universal_int_code_length(5), abs=1e-12
        )

    def test_trailing_zeros_stripped(self):
        assert weight_code_length(0.5000, 4) == weight_code_length(0.5, 4)
        assert weight_code_length(0.25, 2) == weight_code_length(0.25, 4)

    def test_leading_fraction_zeros_kept(self):
        # 0.0100 -> digits "01" -> reversed 10
        assert weight_code_length(0.01, 4) == pytest.approx(
            universal_int_code_length(10), abs=1e-12
        )

    def test_domain(self):
        for w in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                weight_code_length(w, 4)

    def test_tiny_weight_clamped(self):
        # rounds to 0.0000, clamped to one ulp of the grid
        assert weight_code_length(1e-9, 4) == pytest.approx(
            universal_int_code_length(1000), abs=1e-12
        )

    def test_quantize(self):
        assert quantize_weight(0.25, 4) == 0.25
        assert quantize_weight(1e-9, 4) == 1e-4
        assert quantize_weight(0.99999, 4) == 0.9999


class TestRuleCode:
    def test_formula(self, worked):
        f = frequencies(worked)
        a = worked.alphabet
        r = Rule.from_tokens(a, ["a", "b"], ["c"])
        got = rule_code_length(r, f, 0.5, 4)
        expect = (
            universal_int_code_length(3)
            + (math.log2(3) + 2)
            + universal_int_code_length(1)
            + math.log2(6)
            + universal_int_code_length(5)
        )
        assert got == pytest.approx(expect, abs=1e-12)

    def test_empty_antecedent(self, worked):
        f = frequencies(worked)
        r = Rule.from_tokens(worked.alphabet, [], ["a"])
        got = rule_code_length(r, f, 0.333, 4)
        expect = (
            2 * universal_int_code_length(1)
            + math.log2(3)
            + weight_code_length(0.333, 4)
        )
        assert got == pytest.approx(expect, abs=1e-12)

    def test_longer_consequent_costs_more(self, worked):
        f = frequencies(worked)
        a = worked.alphabet
        short = Rule.from_tokens(a, ["a"], ["b"])
        long = Rule.from_tokens(a, ["a"], ["b", "c"])
        assert rule_code_length(long, f, 0.5, 4) > rule_code_length(
            short, f, 0.5, 4
        )


class TestModel:
    def test_empty_model_layout(self, worked):
        m = Model.empty(frequencies(worked))
        assert m.rules == singleton_rules(worked.alphabet)
        assert m.weights == tuple(
            frequencies(worked).prob(i) for i in range(5)
        )

    def test_missing_singleton_rejected(self, worked):
        f = frequencies(worked)
        with pytest.raises(ValueError, match="singleton"):
            Model(worked.alphabet, f, (), ())

    def test_duplicate_rule_rejected(self, worked):
        f = frequencies(worked)
        m = Model.empty(f)
        r = Rule.from_tokens(worked.alphabet, ["a"], ["b"])
        with pytest.raises(ValueError, match="duplicate"):
            m.with_rule(r, 1.0).with_rule(r, 2.0)

    def test_nonpositive_weight_rejected(self, worked):
        f = frequencies(worked)
        with pytest.raises(ValueError, match="positive"):
            Model.empty(f).with_weights([0.0, 0.1, 0.1, 0.1, 0.1])

    def test_model_code_length_composition(self, worked):
        f = frequencies(worked)
        m = Model.empty(f)
        expect = universal_int_code_length(5) + sum(
            rule_code_length(r, f, w, 4)
            for r, w in zip(m.rules, m.weights)
        )
        assert model_code_length(m) == pytest.approx(expect, abs=1e-12)

    def test_adding_rule_increases_model_bits(self, worked):
        f = frequencies(worked)
        m = Model.empty(f)
        bigger = m.with_rule(
            Rule.from_tokens(worked.alphabet, ["a"], ["b"]), 0.7
        )
        assert model_code_length(bigger) > model_code_length(m)

    def test_weight_digits_only_difference(self, worked):
        f = frequencies(worked)
        m1 = Model.empty(f).with_weights([0.25, 0.25, 0.1, 0.1, 0.1])
        m2 = Model.empty(f).with_weights([0.2512, 0.25, 0.1, 0.1, 0.1])
        delta = model_code_length(m2) - model_code_length(m1)
        expect = weight_code_length(0.2512, 4) - weight_code_length(0.25, 4)
        assert delta == pytest.approx(expect, abs=1e-12)


class TestPredictiveDistribution:
    def test_singletons_reproduce_frequencies(self, worked):
        f = frequencies(worked)
        m = Model.empty(f)
        for hist in ((), char_seq("ab").reindexed(worked.alphabet)):
            dist = predictive_distribution(m, hist)
            for sid in range(5):
                assert dist[sid] == pytest.approx(f.prob(sid), abs=1e-12)

    def test_active_rule_shifts_mass(self, worked):
        f = frequencies(worked)
        m = Model.empty(f).with_rule(
            Rule.from_tokens(worked.alphabet, ["a", "b"], ["c"]), 1.0
        )
        hist = char_seq("eab").reindexed(worked.alphabet)
        dist = predictive_distribution(m, hist)
        assert dist[worked.alphabet.id_of("c")] == pytest.approx(
            7 / 12, abs=1e-9
        )

    def test_inactive_rule_leaves_frequencies(self, worked):
        f = frequencies(worked)
        m = Model.empty(f).with_rule(
            Rule.from_tokens(worked.alphabet, ["a", "b"], ["c"]), 1.0
        )
        hist = char_seq("ba").reindexed(worked.alphabet)
        dist = predictive_distribution(m, hist)
        for sid in range(5):
            assert dist[sid] == pytest.approx(f.prob(sid), abs=1e-12)


class TestDataCodeLength:
    def test_empty_model_closed_form(self, worked):
        f = frequencies(worked)
        m = Model.empty(f)
        closed_form = sum(f.code_length(sid) for sid in worked.ids)
        assert closed_form == pytest.approx(26.2646625, abs=1e-6)
        assert data_code_length(m, worked) == pytest.approx(
            closed_form, abs=1e-9
        )

    def test_single_symbol_alphabet(self):
        s = char_seq("aaaa")
        m = Model.empty(frequencies(s))
        assert data_code_length(m, s) == pytest.approx(0.0, abs=1e-12)

    def test_good_rule_reduces_data_bits(self, worked):
        f = frequencies(worked)
        base = Model.empty(f)
        r = Rule.from_tokens(worked.alphabet, ["a", "b"], ["c"])
        boosted = base.with_rule(r, 5.0)
        assert data_code_length(boosted, worked) < data_code_length(
            base, worked
        )

    def test_unknown_symbol_rejected(self, worked):
        m = Model.empty(frequencies(worked))
        with pytest.raises(ValueError, match="unknown symbol"):
            data_code_length(m, char_seq("zz"))

    def test_total_is_sum(self, worked):
        m = Model.empty(frequencies(worked))
        report = total_dl(m, worked)
        assert report.total == report.model_bits + report.data_bits
        assert report.model_bits == pytest.approx(model_code_length(m))
        assert report.data_bits == pytest.approx(data_code_length(m, worked))

    def test_matches_per_position_replay(self):
        self.check_replay((0, 1, 2))

    def test_replay_over_two_byte_ids(self):
        """Ids 255 and 256 of a 257-symbol alphabet need 2-byte ids."""
        self.check_replay((0, 255, 256))

    @staticmethod
    def check_replay(symbols):
        """Random sequences and rules over three symbols: data bits and
        distributions against per-history `predictive_distribution`. Each
        sequence is also scored with the `_NESTED` rules added, which are
        active at two or more stages at once where their prefixes nest."""
        rng = random.Random(11)
        alphabet = Alphabet(f"t{i:03d}" for i in range(symbols[-1] + 1))
        nested = [
            Rule(
                tuple(symbols[i] for i in rule.antecedent),
                tuple(symbols[i] for i in rule.consequent),
            )
            for rule in _NESTED
        ]
        for _ in range(8):
            drawn = random_seq(rng, 40, 3).ids
            s = Sequence(alphabet, [symbols[i] for i in drawn])
            f = frequencies(s)
            m = Model.empty(f)
            for _ in range(rng.randint(0, 2)):
                a = tuple(
                    symbols[rng.randrange(3)] for _ in range(rng.randint(0, 2))
                )
                c = tuple(
                    symbols[rng.randrange(3)] for _ in range(rng.randint(1, 2))
                )
                rule = Rule(a, c)
                if rule.is_singleton or rule in m.rules:
                    continue
                m = m.with_rule(rule, rng.uniform(0.1, 3.0))
            overlapping = m
            for rule, w in zip(nested, (0.9, 1.7, 2.6, 0.4, 1.3)):
                if rule not in overlapping.rules:
                    overlapping = overlapping.with_rule(rule, w)
            for m in (m, overlapping):
                replay = 0.0
                for t in range(len(s)):
                    p = predictive_distribution(m, s.ids[:t])[s.ids[t]]
                    assert p > 0  # lossless: the realized symbol is decodable
                    replay += -math.log2(p)
                assert data_code_length(m, s) == pytest.approx(
                    replay, abs=1e-9
                )
                rows = position_distributions(m, s)
                assert rows.shape == (len(s), len(alphabet))
                for t in range(len(s)):
                    expect = predictive_distribution(m, s.ids[:t])
                    assert np.allclose(rows[t], expect, atol=1e-12)


class TestScorer:
    def test_incremental_matches_rebuild(self):
        rng = random.Random(23)
        s = random_seq(rng, 120, 4)
        f = frequencies(s)
        m = Model.empty(f)
        scorer = SequenceScorer(m, s)
        r1 = Rule((0,), (1,))
        r2 = Rule((), (2, 3))
        scorer.add_rule(r1, 1.0)
        scorer.add_rule(r2, 0.4)
        scorer.set_weight(1, 0.9)
        scorer.set_weight(5, 2.5)
        scorer.remove_rule(4)
        rebuilt = SequenceScorer(
            Model(
                s.alphabet,
                f,
                tuple(scorer.rules),
                tuple(float(w) for w in scorer.weights),
            ),
            s,
        )
        assert scorer.data_bits == pytest.approx(
            rebuilt.data_bits, abs=1e-9
        )

    def test_clone_isolated(self, worked):
        m = Model.empty(frequencies(worked))
        scorer = SequenceScorer(m, worked)
        before = scorer.data_bits
        twin = scorer.clone()
        twin.set_weight(0, 3.0)
        assert scorer.data_bits == before
        assert twin.data_bits != before


_STEPS = st.sampled_from(["add", "set", "remove", "clone", "back"])
_WEIGHTS = st.floats(0.05, 20.0)


def _reference_activity(
    ids: tuple[int, ...], rule: Rule
) -> tuple[np.ndarray, np.ndarray]:
    """A rule's (p, q) at every position of ids, one history at a time from
    `active_matches`: how many of its stages are active there (q) and how
    many of those predict the symbol that occurs (p)."""
    p, q = np.zeros(len(ids), np.int64), np.zeros(len(ids), np.int64)
    for t in range(len(ids)):
        for match in active_matches([rule], ids[:t]):
            q[t] += 1
            p[t] += match.predicted == ids[t]
    return p, q


def _assert_rows_match_activity(scorer: SequenceScorer) -> None:
    """The invariant the scorer's derived rows rest on: every class holds a
    position, and each rule's row, read at a position's class, is the
    rule's (p, q) there from `_reference_activity` (0 where it is not
    active)."""
    ids, g = tuple(scorer.s_arr.tolist()), scorer._sym.size
    assert scorer._cls.max() < g
    assert np.bincount(scorer._cls, minlength=g).min() > 0
    for i, rule in enumerate(scorer.rules):
        want_p, want_q = _reference_activity(ids, rule)
        row_p, row_q = scorer._row(i)
        assert row_p.size == row_q.size == g
        assert np.array_equal(row_p[scorer._cls], want_p)
        assert np.array_equal(row_q[scorer._cls], want_q)


def _assert_lanes_match_positions(
    scorer: SequenceScorer, rules: list[Rule], w: np.ndarray
) -> None:
    """`lane_objective` at w, read from the scorer's stage-prefix
    histograms, equals the position-based oracle bit for bit."""
    got = scorer.lane_objective(rules, 0.5)(w)
    assert np.array_equal(got, _position_lanes(scorer, rules, 0.5)(w))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=40), st.data())
def test_scorer_steps_match_rebuild(ids, data):
    """Every incremental step agrees with a from-scratch evaluation, a
    clone's steps never show in the scorer it was cloned from, and every
    rule's derived row and one value of `lane_objective` match the
    positions in every scorer."""
    s = Sequence(Alphabet(["a", "b", "c"]), tuple(ids))
    scorer = SequenceScorer(Model.empty(frequencies(s)), s)
    k = scorer.k
    sources = []  # (scorer, its model, its data bits) when it was cloned
    for _ in range(data.draw(st.integers(1, 12))):
        step = data.draw(_STEPS)
        if step == "add":
            a = data.draw(st.lists(st.integers(0, 2), max_size=2))
            c = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
            rule = Rule(tuple(a), tuple(c))
            if rule.is_singleton or rule in scorer.rules:
                continue
            scorer.add_rule(rule, data.draw(_WEIGHTS))
        elif step == "set":
            index = data.draw(st.integers(0, len(scorer.rules) - 1))
            scorer.set_weight(index, data.draw(_WEIGHTS))
        elif step == "remove":
            if len(scorer.rules) == k:
                continue
            scorer.remove_rule(
                data.draw(st.integers(k, len(scorer.rules) - 1))
            )
        elif step == "clone":
            sources.append((scorer, scorer.model(), scorer.data_bits))
            scorer = scorer.clone()
        elif sources:  # back: drop the clone, as a rejected candidate is
            scorer = sources.pop()[0]
        lanes = _NESTED + [data.draw(_RULES)]
        w = np.full(len(lanes), data.draw(_WEIGHTS))
        for source, model, bits in sources:
            assert source.model() == model
            assert source.data_bits == bits
            _assert_rows_match_activity(source)
            _assert_lanes_match_positions(source, lanes, w)
        _assert_rows_match_activity(scorer)
        _assert_lanes_match_positions(scorer, lanes, w)
        assert scorer.data_bits == pytest.approx(
            data_code_length(scorer.model(), s), abs=1e-9
        )
        index = data.draw(st.integers(0, len(scorer.rules) - 1))
        w = data.draw(_WEIGHTS)
        objective, w0 = scorer.weight_objective(index)
        assert w0 == scorer.weights[index]
        weights = list(scorer.weights)
        weights[index] = w
        moved = scorer.model().with_weights(weights)
        assert objective(w) == pytest.approx(
            data_code_length(moved, s), abs=1e-9
        )


def _position_lanes(scorer: SequenceScorer, rules: list[Rule], initial: float):
    """The oracle for `SequenceScorer.lane_objective`: each rule's active
    positions from `_reference_activity`, keyed by (lane, class, q, p) and
    grouped with np.unique, under the same objective formula."""
    ids = tuple(scorer.s_arr.tolist())
    activities = [_reference_activity(ids, rule) for rule in rules]
    base = 1 + int(max(q.max(initial=0) for _, q in activities))
    span = scorer._sym.size * base * base
    key = np.concatenate(
        [
            i * span + (scorer._cls[q > 0] * base + q[q > 0]) * base + p[q > 0]
            for i, (p, q) in enumerate(activities)
        ]
    )
    groups, size = np.unique(key, return_counts=True)
    lane, cls = groups // span, groups % span // (base * base)
    p = (groups % base).astype(np.float64)
    q = (groups // base % base).astype(np.float64)
    count = size.astype(np.float64)
    num, den = scorer.num[cls], scorer.den[cls]
    rest = scorer.data_bits - np.bincount(
        lane, weights=count * (np.log2(den) - np.log2(num)), minlength=len(rules)
    )
    num, den = num + initial * p, den + initial * q

    def objective(w: np.ndarray) -> np.ndarray:
        d = (w - initial)[lane]
        return rest + np.bincount(
            lane,
            weights=count * (np.log2(den + d * q) - np.log2(num + d * p)),
            minlength=len(rules),
        )

    return objective


#: Rules whose stages nest: a stage prefix that is a suffix of a later
#: one (A -> A A, B B -> B), an empty antecedent (∅ -> C C), a chain three
#: deep (A -> A A A), and a stage whose parent is not the stage before it
#: (in A B A -> B A B, stage A B A B A nests in A B A, not in A B A B).
_NESTED = [
    Rule((0,), (0, 0)),
    Rule((), (2, 2)),
    Rule((1, 1), (1,)),
    Rule((0,), (0, 0, 0)),
    Rule((0, 1, 0), (1, 0, 1)),
]
_RULES = st.builds(
    Rule,
    st.lists(st.integers(0, 2), max_size=3).map(tuple),
    st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=60), st.data())
def test_lane_groups_match_positions(ids, data):
    """Lanes priced from stage-prefix histograms equal, bit for bit, lanes
    priced from each rule's active positions, also after rules are added
    to the scorer or to a clone of it (which splits the classes)."""
    s = Sequence(Alphabet(["a", "b", "c"]), tuple(ids))
    scorers = [SequenceScorer(Model.empty(frequencies(s)), s)]
    for _ in range(data.draw(st.integers(1, 3))):
        rules = _NESTED + data.draw(st.lists(_RULES, max_size=4))
        initial = data.draw(_WEIGHTS)
        per_lane = data.draw(
            st.lists(
                st.floats(1e-6, 1e3), min_size=len(rules), max_size=len(rules)
            )
        )
        for scorer in scorers:
            got = scorer.lane_objective(rules, initial)
            want = _position_lanes(scorer, rules, initial)
            for w in (initial, 1e-6, 0.37, 1e3, per_lane):
                w = np.broadcast_to(np.asarray(w, dtype=np.float64), len(rules))
                assert np.array_equal(got(w), want(w))
        rule = data.draw(_RULES)
        if rule.is_singleton or rule in scorers[-1].rules:
            continue
        if data.draw(st.booleans()):
            scorers.append(scorers[-1].clone())
        scorers[-1].add_rule(rule, data.draw(_WEIGHTS))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=50),
    st.lists(
        st.floats(0.01, 50.0, allow_nan=False), min_size=4, max_size=4
    ),
    st.floats(0.001, 900.0),
)
def test_distribution_properties_and_scale_invariance(ids, weights, lam):
    alphabet = Alphabet(["a", "b", "c", "d"])
    s = Sequence(alphabet, tuple(ids))
    f = frequencies(s)
    m = Model(alphabet, f, singleton_rules(alphabet), tuple(weights))
    dist = predictive_distribution(m, s)
    assert (dist > 0).all()
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)
    scaled = m.with_weights([w * lam for w in weights])
    assert data_code_length(scaled, s) == pytest.approx(
        data_code_length(m, s), abs=1e-9
    )


def test_log2_star_examples():
    assert log2_star(1) == 0.0
    assert log2_star(2) == 1.0
    assert log2_star(16) == pytest.approx(4 + 2 + 1, abs=1e-12)
