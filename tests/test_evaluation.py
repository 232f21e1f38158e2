import hashlib
import math
import random
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cossu import (
    Alphabet,
    Model,
    Rule,
    Sequence,
    SyntheticSpec,
    bigram_baseline,
    classify,
    cossu_mine,
    evaluate_prediction,
    frequencies,
    hit_rate,
    position_distributions,
    predict_next,
    rule_support_confidence,
    singleton_rules,
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

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"distribution": {"A": -0.5, "B": 1.5}}, ">= 0 and sum to 1"),
            ({"distribution": {"A": math.nan, "B": 1.0}}, ">= 0 and sum to 1"),
            ({"distribution": {"A": 1.0, "B": math.nan}}, ">= 0 and sum to 1"),
            ({"distribution": {"A": math.inf, "B": 0.0}}, "sum to 1"),
            ({"seed": -1}, "seed must be non-negative"),
        ],
        ids=["negative", "nan", "nan-last", "inf", "seed"],
    )
    def test_spec_rejects_bad_numbers(self, fields, reason):
        with pytest.raises(ValueError, match=reason):
            SyntheticSpec(alphabet=("A", "B"), **fields)

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


K5 = ("A", "B", "C", "D", "E")
K20 = tuple(chr(ord("A") + i) for i in range(20))
K20_RULES = (
    (("A",), ("B",)),
    (("C", "D"), ("E",)),
    (("F",), ("G", "H")),
    (("I", "J"), ("K", "L")),
    (("M",), ("N",)),
    (("O", "P", "Q"), ("R",)),
)
A_B = ((("A",), ("B",)),)

#: sha256 of the generated ids. The first four specs are the benchmark's
#: inputs (perfbench/workloads.py: K5 and K20 rounds, a classifier training
#: sequence, the apply-k20 held-out sequence), so a generator change that
#: would change them fails here.
PINNED_SYNTH = [
    pytest.param(
        SyntheticSpec(5_000, K5, None, A_B, 0.5, 301_000),
        "9e71a337c6c0166c8c1934b221aec9b3795eff024696ddef88376a7fd120cc7b",
        id="planted-k5",
    ),
    pytest.param(
        SyntheticSpec(12_500, K20, None, K20_RULES, 0.6, 301_000),
        "ea4839174a3f93f2d287d8a174d7739d76bb37de5f58c8f572420e89af0add0b",
        id="planted-k20",
    ),
    pytest.param(
        SyntheticSpec(2_000, K20, None, K20_RULES, 0.6, 2**31),
        "e0bbc4c40cdcb3c8d2b3c26955d30fee7f38c105462774ed1dc62c8853b8666c",
        id="classifier-k20",
    ),
    pytest.param(
        SyntheticSpec(1_000_000, K20, None, K20_RULES, 0.6, 301_000),
        "b3e3a6cc5908d36c4130dc6a4afe3f542d32847bd6f925c2fb07f6af4d5a9927",
        id="apply-k20",
    ),
    pytest.param(
        SyntheticSpec(300, ("A", "B", "C"), None, (((), ("C",)),), 0.3, 7),
        "e298e05aa536428b9c373b150c3bb24c5581d313e3490a07757ef8cb4403930e",
        id="empty-antecedent",
    ),
    pytest.param(
        SyntheticSpec(400, K5, None, ((("A",), ("B", "C", "D")),), 0.5, 8),
        "55b648cf59134531d23aeb92f201e490437fb413332efb90100a83979fe525a3",
        id="multi-symbol-consequent",
    ),
    pytest.param(  # A -> B, C A -> D E and ∅ -> C all insert after an A
        SyntheticSpec(
            400,
            K5,
            None,
            ((("A",), ("B",)), (("C", "A"), ("D", "E")), ((), ("C",))),
            0.5,
            9,
        ),
        "fdd55deb4f83bdc99bdc2acf8676d1b2d09eebebf72d15365daf58874def1a43",
        id="same-point",
    ),
    pytest.param(
        SyntheticSpec(1_000, K5, None, A_B, 0.0, 10),
        "a7bc884fa68c5e6099ceaedd321408ff1adeebcf791e41b9ba0f98e3341afcc1",
        id="ip-0",
    ),
    pytest.param(
        SyntheticSpec(1_000, K5, None, A_B, 1.0, 11),
        "fa85b823620a344e13336535c600551b802de1396351c05b4f2e6333d5bf601c",
        id="ip-1",
    ),
    pytest.param(
        SyntheticSpec(
            1_000,
            K5,
            {"A": 0.5, "B": 0.1, "C": 0.2, "D": 0.15, "E": 0.05},
            ((("A",), ("B",)), (("D", "E"), ("A", "C"))),
            0.5,
            12,
        ),
        "91d29eceeb48660f521f185bdc41bb775fbeb8cd38244ea79a56ff974e704f48",
        id="non-uniform",
    ),
    pytest.param(
        SyntheticSpec(1, K5, None, A_B, 1.0, 13),
        "e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71",
        id="length-1",
    ),
    pytest.param(  # E never occurs, so E -> A takes no draw
        SyntheticSpec(
            500,
            K5,
            {"A": 0.25, "B": 0.25, "C": 0.25, "D": 0.25, "E": 0.0},
            ((("E",), ("A",)), (("A",), ("B",))),
            0.5,
            14,
        ),
        "d2c5744790d2b9969996f56389feeb9e20503eb1ed0beac2610758693ed53f82",
        id="never-matches",
    ),
]


@pytest.mark.parametrize("spec, digest", PINNED_SYNTH)
def test_synth_generate_pinned(spec, digest):
    s, targets = synth_generate(spec)
    assert len(s) == spec.length and s.array.dtype == np.uint8
    assert hashlib.sha256(s.array.tobytes()).hexdigest() == digest
    assert tuple(r.tokens(s.alphabet) for r in targets) == spec.rules


def _mined_split(spec: SyntheticSpec):
    """A model mined on the first 80% of the spec's sequence, and the rest."""
    seq, _ = synth_generate(spec)
    cut = int(len(seq) * 0.8)
    return cossu_mine(seq.segment(1, cut)), seq.segment(cut + 1, len(seq))


def _applied_class_x():
    """The class-x model of a k20 classifier (planted rules against their
    mirror images over the alphabet read backwards), and a held-out
    sequence of class x."""
    flip = dict(zip(K20, reversed(K20)))
    mirrored = tuple(
        (tuple(flip[t] for t in a), tuple(flip[t] for t in c))
        for a, c in K20_RULES
    )
    x, _ = synth_generate(
        SyntheticSpec(2_000, K20, None, K20_RULES, 0.6, 2**31)
    )
    y, _ = synth_generate(
        SyntheticSpec(2_000, K20, None, mirrored, 0.6, 2**31 + 1)
    )
    model = train_classifier({"x": x, "y": y}).models["x"]
    held, _ = synth_generate(
        SyntheticSpec(20_000, K20, None, K20_RULES, 0.6, 301_000)
    )
    return model, held


PIN_TAUS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: `evaluate_prediction` outcomes on the benchmark's prediction inputs at
#: seed 301: (predicted, correct) at each of PIN_TAUS, and the auc. The
#: planted inputs are its first planted-k5 and planted-k20 sequences,
#: mined on their first 80% and predicted on the rest; apply-k20 is its
#: class-x model on 20 000 held-out symbols. A change to prediction that
#: should leave its outcomes alone is caught here.
PINNED_PREDICTION = {
    "planted-k5": (
        lambda: _mined_split(
            SyntheticSpec(5_000, K5, None, A_B, 0.5, 301_000)
        ),
        [(1000, 257)] * 3 + [(175, 103)] * 4 + [(0, 0)] * 3,
        0.4002982142857142,
    ),
    "planted-k20": (
        lambda: _mined_split(
            SyntheticSpec(12_500, K20, None, K20_RULES, 0.6, 301_000)
        ),
        [(2500, 366)] + [(387, 268)] * 4 + [(81, 78)] + [(79, 76)] * 3
        + [(70, 68)],
        0.4600868109662899,
    ),
    "apply-k20": (
        _applied_class_x,
        [(20000, 3016)] + [(3199, 2171)] * 3 + [(2345, 1634)]
        + [(537, 516)] * 5,
        0.4526832832394751,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PREDICTION))
def test_pinned_prediction(name):
    make, counts, auc = PINNED_PREDICTION[name]
    model, test = make()
    outcome = evaluate_prediction(model, test, PIN_TAUS)
    assert [(tm.predicted, tm.correct) for tm in outcome.metrics] == counts
    assert outcome.auc == pytest.approx(auc, rel=1e-12)


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

    def test_no_thresholds_rejected(self, worked):
        m = Model.empty(frequencies(worked))
        with pytest.raises(ValueError, match="no thresholds"):
            evaluate_prediction(m, worked, taus=())

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


def _assert_choices_match_dense(m: Model, s: Sequence) -> np.ndarray:
    """`_model_choices` equals the max and argmax of the dense
    `position_distributions` rows bit for bit, and `evaluate_prediction`
    counts as those rows do, with blocks of 1, 7 and more than n rows.
    Returns the picks."""
    dists = position_distributions(m, s)
    want_top, want_pick = dists.max(axis=1), dists.argmax(axis=1)
    good = want_pick == s.array
    # Thresholds equal to some top probabilities test the strict `>`.
    some = np.quantile(want_top, (0, 0.5, 1), method="lower")
    taus = (0.0, 0.3, 0.5, 0.9, *some)
    for block in (1, 7, len(s) + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluation, "PREDICTION_BLOCK", block)
            top, pick = evaluation._model_choices(m, s.array)
            outcome = evaluate_prediction(m, s, taus)
        assert np.array_equal(top, want_top)
        assert np.array_equal(pick, want_pick)
        for tm in outcome.metrics:
            answer = want_top > tm.tau
            assert tm.predicted == int(answer.sum())
            assert tm.correct == int((answer & good).sum())
    return pick


#: Six symbols, of which a drawn sequence uses at most three.
SIX = Alphabet("abcdef")
#: Weights with exact ties (0.25 + 0.25 = 0.5) and near ones (0.1 + 0.2 is
#: one ulp above 0.3).
_TIE_WEIGHTS = st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.5, 1.0, 3.0])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
    st.data(),
)
def test_model_choices_match_dense_rows(used, data):
    """Sequences over at most three of six symbols, so some symbols never
    occur; singleton weights drawn with ties or all equal; proper rules
    that overlap with themselves (A -> A A, A B A -> B A B), have an empty
    antecedent or are random, or none at all."""
    ids = data.draw(st.lists(st.sampled_from(used), min_size=1, max_size=60))
    s = Sequence(SIX, ids)
    singles = data.draw(
        st.one_of(
            st.lists(_TIE_WEIGHTS, min_size=6, max_size=6),
            _TIE_WEIGHTS.map(lambda w: [w] * 6),
        )
    )
    a, b, c = (used * 3)[:3]
    shapes = [
        Rule((a,), (a, a)),
        Rule((a, b, a), (b, a, b)),
        Rule((), (c, c)),
        Rule((), (b, a)),
    ]
    drawn = st.builds(
        Rule,
        st.lists(st.integers(0, 5), max_size=2).map(tuple),
        st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple),
    )
    m = Model(SIX, frequencies(s), singleton_rules(SIX), tuple(singles))
    rules = data.draw(st.lists(st.sampled_from(shapes) | drawn, max_size=4))
    for rule in rules:
        if not rule.is_singleton and rule not in m.rules:
            m = m.with_rule(rule, data.draw(_TIE_WEIGHTS))
    _assert_choices_match_dense(m, s)


def test_model_choices_ties_and_unpredicted_winner():
    """Hand-made cases for the rules the hypothesis test may rarely hit:
    ties in probability go to the first symbol, whether it is predicted or
    not, and a symbol that no stage predicts can win everywhere."""
    s = Sequence(SIX, [2, 0, 2, 1, 2])  # c a c b c
    freq = frequencies(s)

    def model(singles, *rules):
        m = Model(SIX, freq, singleton_rules(SIX), singles)
        for rule, w in rules:
            m = m.with_rule(rule, w)
        return m

    # No proper rules and equal weights: the first symbol everywhere.
    pick = _assert_choices_match_dense(model((1.0,) * 6), s)
    assert (pick == 0).all()
    # After each c, b (predicted) ties a (not predicted): a wins.
    pick = _assert_choices_match_dense(
        model((0.5, 0.25, 0.25, 0.1, 0.1, 0.1), (Rule((2,), (1,)), 0.25)), s
    )
    assert (pick == 0).all()
    # After each c, a (predicted) ties b (not predicted): a wins.
    pick = _assert_choices_match_dense(
        model((0.25, 0.5, 0.25, 0.1, 0.1, 0.1), (Rule((2,), (0,)), 0.25)), s
    )
    assert pick.tolist() == [1, 0, 1, 0, 1]
    # After each c, b's mass 0.1 + 0.2 is one ulp above a's 0.3, but both
    # divide by the total 1.17 to the same probability: a wins.
    pick = _assert_choices_match_dense(
        model((0.3, 0.1, 0.27, 0.1, 0.1, 0.1), (Rule((2,), (1,)), 0.2)), s
    )
    assert (pick == 0).all()
    # The same between two symbols that no stage predicts.
    pick = _assert_choices_match_dense(
        model((0.3, 0.1 + 0.2, 0.22, 0.1, 0.1, 0.1)), s
    )
    assert (pick == 0).all()
    # f never occurs and no stage predicts it, yet it wins everywhere.
    pick = _assert_choices_match_dense(
        model((0.1, 0.1, 0.1, 0.1, 0.1, 3.0), (Rule((2,), (0, 1)), 0.5)), s
    )
    assert (pick == 5).all()


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
