import random

import pytest

from cossu import (
    MiningConfig,
    Model,
    OptimizerConfig,
    Sequence,
    SyntheticSpec,
    cossu_mine,
    format_rule,
    frequencies,
    model_to_json,
    singleton_rules,
    synth_generate,
    total_dl,
)
from cossu import optimize

from conftest import char_seq, random_seq


class TestWorkedExample:
    def test_returns_empty_rule_set(self, worked):
        model = cossu_mine(worked)
        assert model.non_singletons() == ()
        assert model.rules == singleton_rules(worked.alphabet)

    def test_rejects_empty_input(self, worked):
        with pytest.raises(ValueError, match="empty input"):
            cossu_mine(Sequence(worked.alphabet, ()))

    def test_final_weights_normalized(self, worked):
        model = cossu_mine(worked)
        assert all(0.0 < w < 1.0 for w in model.weights)

    def test_final_total_beats_empty_model(self, worked):
        model = cossu_mine(worked)
        base = Model.empty(frequencies(worked))
        # same singleton layout, but tuned and quantized weights
        assert total_dl(model, worked).data_bits <= (
            total_dl(base, worked).data_bits + 1.0
        )


class TestTrace:
    def test_incumbent_monotone(self):
        rng = random.Random(21)
        s = random_seq(rng, 300, 3)
        events = []
        cossu_mine(s, trace=events.append)
        incumbent = None
        for e in events:
            if e["event"] == "init":
                incumbent = e["total"]
            elif e["event"] == "candidate" and e["decision"] == "accept":
                assert e["tentative"] < incumbent
                incumbent = e["tentative"]
            elif e["event"] == "prune":
                assert e["total"] <= incumbent
                incumbent = e["total"]
        assert incumbent is not None

    def test_rejected_candidates_leave_model_unchanged(self):
        rng = random.Random(31)
        s = random_seq(rng, 200, 3)
        events = []
        model = cossu_mine(s, trace=events.append)
        accepted = [
            e["rule"]
            for e in events
            if e["event"] == "candidate" and e["decision"] == "accept"
        ]
        pruned = [e["rule"] for e in events if e["event"] == "prune"]
        mined = [format_rule(r, model.alphabet) for r in model.non_singletons()]
        assert sorted(mined) == sorted(
            r for r in accepted if r not in pruned
        )


    def test_stage_and_counter_events(self):
        seq, _ = synth_generate(SyntheticSpec(seed=3, length=2000))
        events = []
        model = cossu_mine(seq, trace=events.append)
        stages = [e for e in events if e["event"] == "stage"]
        assert sorted(e["stage"] for e in stages) == sorted(
            ["closed", "gains", "init", "screen", "prune", "finalize"]
        )
        assert all(e["seconds"] >= 0.0 for e in stages)
        start, done = events[0], events[-1]
        assert start["event"] == "start" and done["event"] == "done"
        candidates = [e for e in events if e["event"] == "candidate"]
        assert done["screened"] == start["positive_gain"] == len(candidates)
        assert done["accepted"] == sum(
            e["decision"] == "accept" for e in candidates
        )
        assert done["pruned"] == sum(e["event"] == "prune" for e in events)
        assert done["accepted"] - done["pruned"] == len(model.non_singletons())
        assert done["accepted"] >= 1


class TestDeterminism:
    def test_byte_identical_reruns(self):
        rng = random.Random(41)
        s = random_seq(rng, 400, 4)
        m1 = cossu_mine(s)
        m2 = cossu_mine(s)
        assert model_to_json(m1) == model_to_json(m2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MiningConfig(minsup=1)
        with pytest.raises(ValueError):
            MiningConfig(max_pattern_len=0)


class TestScreening:
    def test_planted_rule_mined(self):
        seq, targets = synth_generate(SyntheticSpec(seed=3, length=2000))
        model = cossu_mine(seq)
        assert {r.tokens(model.alphabet) for r in model.non_singletons()} == {
            r.tokens(seq.alphabet) for r in targets
        }

    @pytest.mark.parametrize("passes", [1, 2])
    def test_line_searches_per_candidate(self, monkeypatch, passes):
        steps = 0
        step = optimize.coordinate_step

        def counted(*args):
            nonlocal steps
            steps += 1
            return step(*args)

        monkeypatch.setattr(optimize, "coordinate_step", counted)
        seq, _ = synth_generate(SyntheticSpec(seed=3, length=2000))
        config = MiningConfig(optimizer=OptimizerConfig(passes=passes))
        events = []
        cossu_mine(seq, config, lambda e: events.append((e, steps)))
        rules = len(seq.alphabet)
        checked = {"accept": 0, "reject": 0}
        for (e, at), (prev, before) in zip(events[1:], events):
            if e["event"] == "candidate":
                # A prune event is followed by its settling passes, so
                # only a candidate right after init or another candidate
                # has its own cost between two events.
                if prev["event"] in ("init", "candidate"):
                    settle = passes * (rules + 1)
                    expect = 1 + settle if e["decision"] == "accept" else 1
                    assert at - before == expect
                    checked[e["decision"]] += 1
                rules += e["decision"] == "accept"
            elif e["event"] == "prune":
                rules -= 1
        assert checked["accept"] >= 1 and checked["reject"] >= 1
        assert events[-1][0]["line_searches"] == steps

    def test_opt_passes_respected(self):
        rng = random.Random(77)
        s = random_seq(rng, 150, 3)
        two_pass = MiningConfig(optimizer=OptimizerConfig(passes=2))
        m1 = cossu_mine(s)
        m2 = cossu_mine(s, two_pass)
        assert {r for r in m1.non_singletons()} == {
            r for r in m2.non_singletons()
        }
