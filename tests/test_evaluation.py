import random
import statistics
import tracemalloc

import numpy as np
import pytest

from cossu import (
    Alphabet,
    Model,
    Rule,
    Sequence,
    SyntheticSpec,
    bigram_baseline,
    classify,
    evaluate_prediction,
    frequencies,
    hit_rate,
    position_distributions,
    predict_next,
    rule_support_confidence,
    synth_generate,
    train_classifier,
)
from cossu import evaluation
from cossu.evaluation import UniformPredictor

from conftest import char_seq, random_seq


class TestSynthGenerate:
    def test_reproducible_and_exact_length(self):
        spec = SyntheticSpec(seed=42, length=777)
        s1, t1 = synth_generate(spec)
        s2, _ = synth_generate(spec)
        assert s1.ids == s2.ids
        assert len(s1) == 777
        assert [r.tokens(s1.alphabet) for r in t1] == [
            (("A",), ("B",))
        ]

    def test_zero_insertion_is_base_draw(self):
        on = SyntheticSpec(seed=9, insertion_probability=0.0)
        off = SyntheticSpec(seed=9, rules=())
        s1, _ = synth_generate(on)
        s2, _ = synth_generate(off)
        assert s1.ids == s2.ids

    def test_forced_insertion(self):
        spec = SyntheticSpec(seed=4, length=300, insertion_probability=1.0)
        s, targets = synth_generate(spec)
        a = s.alphabet.id_of("A")
        b = s.alphabet.id_of("B")
        # every A is followed by B (the last element may be a truncated A)
        for t, sid in enumerate(s.ids[:-1]):
            if sid == a:
                assert s.ids[t + 1] == b

    def test_confidence_matches_insertion_relation(self):
        # realized confidence ~= ip + (1 - ip) * P(B) for the uniform base
        confs = []
        for seed in range(20):
            s, targets = synth_generate(SyntheticSpec(seed=seed))
            _, conf = rule_support_confidence(targets[0], s)
            confs.append(conf)
        mean = statistics.mean(confs)
        assert abs(mean - 0.6) <= 0.03

    def test_distribution_validated(self):
        with pytest.raises(ValueError):
            SyntheticSpec(distribution={"A": 1.0})
        with pytest.raises(ValueError):
            SyntheticSpec(insertion_probability=1.5)

    def test_matches_one_insertion_at_a_time(self):
        """Rules that insert at the same point keep their listed order."""
        spec = SyntheticSpec(
            length=400,
            rules=((("A",), ("B",)), (("C", "A"), ("D", "E")), ((), ("C",))),
            insertion_probability=0.5,
            seed=8,
        )
        s, targets = synth_generate(spec)
        # The generator as a loop over the base draw, in its RNG order.
        rng = np.random.default_rng(spec.seed)
        base = rng.choice(5, size=spec.length, p=np.full(5, 0.2)).tolist()
        insertions = {}
        for rule in targets:
            ant = rule.antecedent
            for e in range(max(len(ant), 1) - 1, spec.length):
                if tuple(base[e - len(ant) + 1 : e + 1]) == ant:
                    if rng.random() < spec.insertion_probability:
                        insertions.setdefault(e, []).append(rule.consequent)
        out = []
        for e, sid in enumerate(base):
            out.append(sid)
            for cons in insertions.get(e, ()):
                out.extend(cons)
        assert any(len(v) > 1 for v in insertions.values())
        assert s.ids == tuple(out[: spec.length])

    def test_custom_distribution_respected(self):
        dist = {"A": 0.7, "B": 0.1, "C": 0.1, "D": 0.05, "E": 0.05}
        spec = SyntheticSpec(seed=2, distribution=dist, rules=())
        s, _ = synth_generate(spec)
        f = frequencies(s)
        assert f.prob(s.alphabet.id_of("A")) == pytest.approx(0.7, abs=0.03)


class TestHitRate:
    def _model_with(self, worked, pairs):
        m = Model.empty(frequencies(worked))
        for ant, cons in pairs:
            m = m.with_rule(
                Rule.from_tokens(worked.alphabet, ant, cons), 0.5
            )
        return m

    def test_all_hits(self, worked):
        target = [Rule.from_tokens(worked.alphabet, ["a"], ["b"])]
        models = [self._model_with(worked, [(["a"], ["b"])])] * 3
        assert hit_rate(models, target, worked.alphabet) == 100.0

    def test_superset_is_miss(self, worked):
        target = [Rule.from_tokens(worked.alphabet, ["a"], ["b"])]
        extra = self._model_with(
            worked, [(["a"], ["b"]), ([], ["b", "c"])]
        )
        exact = self._model_with(worked, [(["a"], ["b"])])
        assert hit_rate([extra, exact], target, worked.alphabet) == 50.0

    def test_empty_target_empty_output(self, worked):
        models = [Model.empty(frequencies(worked))] * 2
        assert hit_rate(models, [], worked.alphabet) == 100.0


class TestPredictNext:
    def test_never_abstains_at_zero(self, worked):
        m = Model.empty(frequencies(worked))
        assert predict_next(m, (), 0.0) is not None

    def test_singleton_only_predicts_mode(self, worked):
        m = Model.empty(frequencies(worked))
        a = worked.alphabet.id_of("a")
        assert predict_next(m, (), 0.2) == a  # f_a = 1/3 is the maximum
        assert predict_next(m, (), 0.5) is None

    def test_strong_rule_prediction(self, worked):
        f = frequencies(worked)
        m = Model.empty(f).with_rule(
            Rule.from_tokens(worked.alphabet, ["a", "b"], ["c"]), 1.0
        )
        hist = char_seq("ab").reindexed(worked.alphabet)
        # P(c | ..ab) = 7/12 > 0.5
        assert predict_next(m, hist, 0.5) == worked.alphabet.id_of("c")


class TestEvaluatePrediction:
    def test_deterministic_alternation(self):
        alphabet = Alphabet(["a", "b"])
        train = Sequence.from_tokens(alphabet, list("ab" * 40))
        test = Sequence.from_tokens(alphabet, list("ab" * 10))
        f = frequencies(train)
        m = (
            Model.empty(f)
            .with_rule(Rule.from_tokens(alphabet, ["a"], ["b"]), 50.0)
            .with_rule(Rule.from_tokens(alphabet, ["b"], ["a"]), 50.0)
        )
        outcome = evaluate_prediction(m, test, taus=(0.5,))
        tm = outcome.at(0.5)
        assert tm.precision == pytest.approx(1.0, abs=0.06)
        assert tm.recall >= 0.9

    def test_recall_is_answer_rate_and_full_at_zero(self, worked):
        m = Model.empty(frequencies(worked))
        outcome = evaluate_prediction(m, worked, taus=(0.0, 0.9))
        assert outcome.at(0.0).recall == 1.0
        assert outcome.at(0.9).recall == 0.0
        assert outcome.at(0.9).predicted == 0
        assert outcome.at(0.9).f1 == 0.0

    def test_uniform_baseline_chance_precision(self):
        s, _ = synth_generate(SyntheticSpec(seed=15, rules=()))
        outcome = evaluate_prediction(
            UniformPredictor(s.alphabet), s, taus=(0.0,)
        )
        assert outcome.at(0.0).precision == pytest.approx(0.2, abs=0.02)
        assert outcome.at(0.0).recall == 1.0

    def test_uniform_baseline_abstains_above_chance(self):
        s, _ = synth_generate(SyntheticSpec(seed=15, rules=()))
        outcome = evaluate_prediction(
            UniformPredictor(s.alphabet), s, taus=(0.3,)
        )
        assert outcome.at(0.3).predicted == 0

    def test_auc_trapezoid(self, worked):
        m = Model.empty(frequencies(worked))
        outcome = evaluate_prediction(m, worked, taus=(0.0, 0.3, 0.9))
        xs = [p[0] for p in outcome.roc_points]
        ys = [p[1] for p in outcome.roc_points]
        expect = sum(
            (x2 - x1) * (y1 + y2) / 2
            for (x1, y1), (x2, y2) in zip(
                outcome.roc_points, outcome.roc_points[1:]
            )
        )
        assert outcome.auc == pytest.approx(expect, abs=1e-12)
        assert xs == sorted(xs)


    def test_blocked_rows_match_full_distributions(self, monkeypatch):
        s = random_seq(random.Random(5), 500, 4)
        m = Model.empty(frequencies(s))
        m = m.with_rule(Rule((0,), (1,)), 0.7)
        m = m.with_rule(Rule((1, 2), (3, 0)), 0.4)
        m = m.with_rule(Rule((), (2, 3)), 0.2)
        dists = position_distributions(m, s)
        truth = np.asarray(s.ids)
        # Blocks of 7 rows: many edges, and stage histories cross them.
        monkeypatch.setattr(evaluation, "PREDICTION_BLOCK", 7)
        top, pick = evaluation._model_choices(m, truth)
        assert np.array_equal(top, dists.max(axis=1))
        assert np.array_equal(pick, dists.argmax(axis=1))
        taus = (0.0, 0.2, 0.3, 0.4, 0.5)
        outcome = evaluate_prediction(m, s, taus)
        good = dists.argmax(axis=1) == truth
        for tm in outcome.metrics:
            answer = dists.max(axis=1) > tm.tau
            assert tm.predicted == int(answer.sum())
            assert tm.correct == int((answer & good).sum())
        assert any(0 < tm.predicted < len(s) for tm in outcome.metrics)


class TestBaselineChoices:
    @staticmethod
    def dense(predictor, s):
        """The (n, k) distributions the baselines predict from, built in
        full: the previous symbol's bigram row (zeros at the first
        position), or 1/k everywhere."""
        k = len(s.alphabet)
        if isinstance(predictor, UniformPredictor):
            return np.full((len(s), k), 1.0 / k)
        rows = np.zeros((len(s), k))
        ids = s.ids
        for t in range(1, len(s)):
            rows[t] = predictor.table[ids[t - 1]]
        return rows

    def test_outcomes_match_dense_computation(self):
        rng = random.Random(21)
        alphabet = Alphabet(["a", "b", "c", "d"])
        # "d" never occurs in training: its row is all zeros.
        train = Sequence(alphabet, [rng.randrange(3) for _ in range(40)])
        test = Sequence(alphabet, [rng.randrange(4) for _ in range(300)])
        table = np.zeros((4, 4))
        for a, b in zip(train.ids, train.ids[1:]):
            table[a, b] += 1.0
        table /= np.maximum(table.sum(axis=1, keepdims=True), 1.0)
        assert np.array_equal(bigram_baseline(train).table, table)
        taus = (0.0, 0.2, 0.3, 0.5, 0.9)
        for predictor in (bigram_baseline(train), UniformPredictor(alphabet)):
            dists = self.dense(predictor, test)
            top, pick = predictor.choices(test)
            assert np.array_equal(top, dists.max(axis=1))
            assert np.array_equal(pick, dists.argmax(axis=1))
            good = dists.argmax(axis=1) == np.asarray(test.ids)
            outcome = evaluate_prediction(predictor, test, taus)
            for tm in outcome.metrics:
                answer = dists.max(axis=1) > tm.tau
                assert tm.predicted == int(answer.sum())
                assert tm.correct == int((answer & good).sum())

    def test_bigram_memory_bounded(self):
        n = 1_000_000
        ids = np.random.default_rng(3).integers(0, 20, size=n)
        s = Sequence(Alphabet(f"s{i:02d}" for i in range(20)), ids)
        tracemalloc.start()
        try:
            evaluate_prediction(bigram_baseline(s), s, (0.0, 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestBigram:
    def test_alternation_perfect(self):
        alphabet = Alphabet(["a", "b"])
        train = Sequence.from_tokens(alphabet, list("ab" * 30))
        test = Sequence.from_tokens(alphabet, list("ab" * 8))
        predictor = bigram_baseline(train)
        outcome = evaluate_prediction(predictor, test, taus=(0.5,))
        tm = outcome.at(0.5)
        # abstains only at the history-free first position
        assert tm.predicted == len(test) - 1
        assert tm.correct == tm.predicted

    def test_first_position_abstains(self):
        alphabet = Alphabet(["a", "b"])
        train = Sequence.from_tokens(alphabet, list("abab"))
        predictor = bigram_baseline(train)
        top, pick = predictor.choices(
            Sequence.from_tokens(alphabet, list("ab"))
        )
        assert top[0] == 0.0 and pick[0] == 0

    def test_uniform_noise_near_chance(self):
        s, _ = synth_generate(SyntheticSpec(seed=77, rules=()))
        train = Sequence(s.alphabet, s.ids[:4000])
        test = Sequence(s.alphabet, s.ids[4000:])
        outcome = evaluate_prediction(bigram_baseline(train), test, (0.0,))
        assert outcome.at(0.0).precision == pytest.approx(0.2, abs=0.05)


class TestClassifier:
    def test_frequency_only_classification(self):
        heavy_a = Alphabet(["x", "y"])
        s_a = Sequence.from_tokens(heavy_a, list("x" * 30 + "y" * 10))
        s_b = Sequence.from_tokens(heavy_a, list("y" * 30 + "x" * 10))
        clf = train_classifier({"a": s_a, "b": s_b})
        probe_a = Sequence.from_tokens(heavy_a, list("xxxxxxxx"))
        probe_b = Sequence.from_tokens(heavy_a, list("yyyyyyyy"))
        assert classify(clf, probe_a) == "a"
        assert classify(clf, probe_b) == "b"

    def test_identical_models_tie_break_canonical(self):
        alphabet = Alphabet(["x", "y"])
        s = Sequence.from_tokens(alphabet, list("xyxy" * 10))
        clf = train_classifier({"b": s, "a": s})
        assert classify(clf, s) == "a"

    def test_shared_alphabet_union(self):
        s_a = char_seq("aaab")
        s_b = char_seq("cccd")
        clf = train_classifier({"first": s_a, "second": s_b})
        assert clf.alphabet.tokens == ("a", "b", "c", "d")
        # either model can score symbols it never saw
        assert classify(clf, char_seq("aa").reindexed(clf.alphabet)) == "first"
