import math
import random

import pytest

from cossu import (
    Model,
    OptimizerConfig,
    Rule,
    adjust_weights,
    data_code_length,
    frequencies,
    golden_section_minimize,
    normalize_weights,
    predictive_distribution,
    quantize_weights,
    synth_generate,
    SyntheticSpec,
)
from cossu.encoding import SequenceScorer
from cossu.optimize import coordinate_step

from conftest import random_seq


class TestGoldenSection:
    def test_quadratic(self):
        x = golden_section_minimize(lambda v: (v - 2.0) ** 2, 0, 10, 1e-4)
        assert abs(x - 2.0) <= 1e-4

    def test_vee(self):
        x = golden_section_minimize(lambda v: abs(v - 0.3), 0, 1, 1e-4)
        assert abs(x - 0.3) <= 1e-4

    def test_eval_budget(self):
        lo, hi, tol = 0.0, 10.0, 1e-4
        calls = 0

        def f(v):
            nonlocal calls
            calls += 1
            return (v - 7.0) ** 2

        golden_section_minimize(f, lo, hi, tol)
        bound = math.ceil(math.log((hi - lo) / tol) / math.log(1.618)) + 2
        assert calls <= bound

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            golden_section_minimize(
                lambda v: float("nan"), 0.0, 1.0, 1e-3
            )

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            golden_section_minimize(lambda v: v, 1.0, 0.0, 1e-3)


class TestConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.lower == 1e-6
        assert cfg.upper == 1e3
        assert cfg.tolerance == 1e-3
        assert cfg.passes == 1
        assert cfg.initial_weight == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(lower=2.0, upper=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(passes=0)
        for field in ("lower", "upper", "tolerance", "initial_weight"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match="finite"):
                    OptimizerConfig(**{field: value})


class TestAdjustWeights:
    def test_singletons_stay_near_closed_form(self):
        rng = random.Random(2)
        s = random_seq(rng, 400, 4)
        f = frequencies(s)
        m = Model.empty(f)
        closed_form = sum(f.code_length(sid) for sid in s.ids)
        adjusted = adjust_weights(m, s)
        got = data_code_length(adjusted, s)
        assert got <= closed_form + 1e-9
        assert got >= closed_form * 0.999

    def test_never_increases_data_bits(self):
        rng = random.Random(7)
        for _ in range(5):
            s = random_seq(rng, 150, 3)
            m = Model.empty(frequencies(s))
            r = Rule((0,), (1,))
            m = m.with_rule(r, 1.0)
            before = data_code_length(m, s)
            after = data_code_length(adjust_weights(m, s), s)
            assert after <= before + 1e-9

    def test_idempotent_within_tolerance(self):
        rng = random.Random(9)
        s = random_seq(rng, 300, 3)
        m = Model.empty(frequencies(s))
        once = adjust_weights(m, s)
        twice = adjust_weights(once, s)
        gain = data_code_length(once, s) - data_code_length(twice, s)
        assert 0 <= gain < 1e-3

    def test_per_step_monotone(self):
        rng = random.Random(13)
        s = random_seq(rng, 200, 4)
        m = Model.empty(frequencies(s)).with_rule(Rule((0,), (1, 2)), 1.0)
        scorer = SequenceScorer(m, s)
        cfg = OptimizerConfig()
        bits = scorer.data_bits
        for index in range(len(scorer.rules)):
            coordinate_step(scorer, index, cfg)
            assert scorer.data_bits <= bits + 1e-9
            bits = scorer.data_bits

    def test_planted_rule_outweighs_singletons(self):
        seq, targets = synth_generate(SyntheticSpec(seed=5))
        m = Model.empty(frequencies(seq)).with_rule(targets[0], 1.0)
        adjusted = adjust_weights(m, seq)
        rule_w = adjusted.weights[-1]
        assert all(rule_w > w for w in adjusted.weights[:5])

    def test_rule_weight_search_beats_initial(self):
        seq, targets = synth_generate(SyntheticSpec(seed=6))
        m = Model.empty(frequencies(seq)).with_rule(targets[0], 1.0)
        scorer = SequenceScorer(m, seq)
        before = scorer.data_bits
        coordinate_step(scorer, len(scorer.rules) - 1, OptimizerConfig())
        assert scorer.data_bits < before


class TestNormalize:
    def test_uniform_scaling(self):
        rng = random.Random(3)
        s = random_seq(rng, 60, 3)
        m = Model.empty(frequencies(s)).with_weights([2.0, 1.0, 1.0])
        normalized = normalize_weights(m)
        assert max(normalized.weights) < 1.0
        assert min(normalized.weights) > 0.0
        ratio = normalized.weights[0] / normalized.weights[1]
        assert ratio == pytest.approx(2.0, rel=1e-9)

    def test_data_bits_unchanged(self):
        rng = random.Random(4)
        for _ in range(5):
            s = random_seq(rng, 80, 4)
            weights = [rng.uniform(0.05, 20.0) for _ in range(4)]
            m = Model.empty(frequencies(s)).with_weights(weights)
            normalized = normalize_weights(m)
            assert data_code_length(normalized, s) == pytest.approx(
                data_code_length(m, s), abs=1e-9
            )

    def test_argmax_preserved(self):
        rng = random.Random(8)
        s = random_seq(rng, 50, 4)
        m = Model.empty(frequencies(s)).with_rule(Rule((0,), (1,)), 4.0)
        normalized = normalize_weights(m)
        for t in range(len(s)):
            a = predictive_distribution(m, s.ids[:t]).argmax()
            b = predictive_distribution(normalized, s.ids[:t]).argmax()
            assert a == b

    def test_idempotent_up_to_rounding(self):
        rng = random.Random(12)
        s = random_seq(rng, 40, 3)
        m = Model.empty(frequencies(s)).with_weights([0.5, 0.25, 0.25])
        once = normalize_weights(m)
        twice = normalize_weights(once)
        for w1, w2 in zip(once.weights, twice.weights):
            assert w2 == pytest.approx(w1, rel=1e-6)
        assert once.weights[0] == pytest.approx(1.0, abs=1e-6)
        assert once.weights[1] == pytest.approx(0.5, abs=1e-6)

    def test_quantize_rounds_to_precision(self):
        rng = random.Random(14)
        s = random_seq(rng, 40, 3)
        m = Model.empty(frequencies(s)).with_weights(
            [0.123456, 0.5, 0.0000001]
        )
        q = quantize_weights(m)
        assert q.weights == (0.1235, 0.5, 0.0001)
