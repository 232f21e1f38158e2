import math
import random

import numpy as np
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
from cossu.optimize import coordinate_step, golden_section_lanes, lane_steps

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


#: Lanes as (a, m, b, v, c): f(x) = a (x - m)^2 + b |x - v| + c. Products
#: and sums only, so numpy and Python floats give the same bits.
LANES = [
    (1.0, 2.0, 0.0, 0.0, 0.0),
    (3.0, 0.5, 1.0, 0.7, -4.0),
    (0.0, 0.0, 1.0, 999.0, 0.0),
    (1e-3, 5e3, 0.0, 0.0, 7.0),  # minimum beyond the default bracket
    (2.0, -3.0, 0.0, 0.0, 1.0),  # minimum below it
    (0.0, 0.0, 0.0, 0.0, 5.0),  # flat
    (1.0, 1.0, 0.0, 0.0, 0.0),  # minimum at the initial weight 1.0
]


def _scalar(lane):
    a, m, b, v, c = lane
    return lambda x: a * (x - m) * (x - m) + b * abs(x - v) + c


def _lanes(lanes):
    a, m, b, v, c = (np.array(col) for col in zip(*lanes))
    return lambda x: a * (x - m) * (x - m) + b * np.abs(x - v) + c


class TestGoldenSectionLanes:
    """The lockstep search against the scalar one, lane by lane."""

    @pytest.mark.parametrize(
        "lo, hi, tol",
        [
            ([1e-6] * 7, [1e3] * 7, 1e-3),
            (
                [0.0, 0.0, 900.0, 0.0, -5.0, 0.0, 0.5],
                [10.0, 1.0, 1e3, 1e4, 5.0, 3.0, 2.0],
                1e-4,
            ),
            ([-1.0] * 7, [100.0] * 7, 0.5),
        ],
    )
    def test_matches_scalar_search(self, lo, hi, tol):
        got = golden_section_lanes(
            _lanes(LANES), np.array(lo), np.array(hi), tol
        )
        evals = []
        for i, lane in enumerate(LANES):
            f, calls = _scalar(lane), [0]

            def counted(x):
                calls[0] += 1
                return f(x)

            want = golden_section_minimize(counted, lo[i], hi[i], tol)
            assert abs(got[i] - want) <= tol
            assert got[i] == want  # the same steps, float for float
            evals.append(calls[0])
        if len(set(lo)) > 1:
            # per-lane brackets: lanes stop at different iterations
            assert len(set(evals)) > 1

    @pytest.mark.parametrize(
        "config",
        [
            OptimizerConfig(),
            OptimizerConfig(lower=0.25, upper=40.0, tolerance=1e-6),
            OptimizerConfig(lower=1e-3, upper=3.0, tolerance=0.1),
        ],
    )
    def test_commit_or_keep_matches_coordinate_step(self, config):
        initial = np.array([1.0, 0.3, 5.0, 1.0, 2.5, 1.0, 1.0])
        weights, values = lane_steps(_lanes(LANES), initial, config)
        kept = 0
        for i, lane in enumerate(LANES):
            f = _scalar(lane)
            best = golden_section_minimize(
                f, config.lower, config.upper, config.tolerance
            )
            commit = f(best) < f(initial[i])
            want = best if commit else initial[i]
            assert weights[i] == want
            assert values[i] == f(want)
            kept += not commit
        assert 0 < kept < len(LANES)

    def test_non_finite_rejected(self):
        def f(x):
            y = (x - 1.0) ** 2
            y[1] = math.nan
            return y

        with pytest.raises(ValueError, match="non-finite"):
            golden_section_lanes(f, np.zeros(3), np.full(3, 2.0), 1e-3)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            golden_section_lanes(
                lambda x: x, np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1e-3
            )


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
