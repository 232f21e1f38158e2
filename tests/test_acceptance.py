"""Acceptance suite: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete. The synthetic-recovery checks mine dozens of sequences and
take a few minutes in total.
"""

import math
import random

import numpy as np
import pytest

from cossu import (
    Alphabet,
    MiningConfig,
    Model,
    Rule,
    Sequence,
    SyntheticSpec,
    bigram_baseline,
    classify,
    cossu_mine,
    data_code_length,
    evaluate_prediction,
    frequencies,
    generate_candidates,
    hit_rate,
    matches_ending_at,
    mine_closed,
    model_code_length,
    model_to_json,
    normalize_weights,
    parse_rule,
    predictive_distribution,
    quantize_weights,
    rule_support_confidence,
    singleton_rules,
    synth_generate,
    train_classifier,
    universal_int_code_length,
)
from cossu import selector
from cossu.encoding import SequenceScorer
from cossu.evaluation import UniformPredictor
from cossu.optimize import OptimizerConfig, coordinate_step

from conftest import char_seq, random_seq


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


class TestWorkedExampleSuite:
    """Exact checks on the two hand-worked sequences; runs in well under
    a second."""

    def test_match_and_support(self):
        s = char_seq("abceabcadeab")
        pattern = Sequence.from_tokens(s.alphabet, list("abc"))
        assert matches_ending_at(pattern, s) == [3, 7]
        assert len(matches_ending_at(pattern, s)) == 2
        _report("worked-example match ends {3,7}, support 2")

    def test_rule_support_confidence(self):
        s = char_seq("abceabcadeab")
        rule = Rule.from_tokens(s.alphabet, ["a", "b"], ["c"])
        supp, conf = rule_support_confidence(rule, s)
        assert supp == 2
        assert conf == 2 / 3
        _report("worked-example rule a b -> c: support 2, confidence 2/3")

    def test_candidate_generation(self):
        s = char_seq("abceabcadeab")
        closed = [
            cp
            for cp in mine_closed(s)
            if "".join(cp.pattern.tokens) == "abc"
        ]
        got = generate_candidates(closed, s)
        expect = [
            Rule.from_tokens(s.alphabet, [], ["a", "b", "c"]),
            Rule.from_tokens(s.alphabet, ["a"], ["b", "c"]),
            Rule.from_tokens(s.alphabet, ["a", "b"], ["c"]),
        ]
        assert got == expect
        _report("worked-example candidates of abc are its three splits")


class TestOracleEquivalenceSuite:
    """Dual-route checks: fast paths against brute-force re-derivations."""

    def test_closed_mining_matches_bruteforce(self):
        rng = random.Random(20240901)
        for i in range(200):
            n = rng.randint(2, 200)
            k = rng.randint(2, 10)
            s = random_seq(rng, n, k)
            assert mine_closed(s, method="suffix") == mine_closed(
                s, method="brute"
            )
        _report("closed mining equals brute force on 200 random sequences")

    def test_empty_model_closed_form(self):
        rng = random.Random(77100)
        worst = 0.0
        for _ in range(50):
            draw = random_seq(rng, rng.randint(1, 400), rng.randint(2, 8))
            # the empty model of a training sequence: alphabet = its symbols
            tokens = draw.tokens
            s = Sequence.from_tokens(Alphabet(set(tokens)), tokens)
            f = frequencies(s)
            closed_form = sum(f.code_length(sid) for sid in s.ids)
            got = data_code_length(Model.empty(f), s)
            worst = max(worst, abs(got - closed_form))
        assert worst <= 1e-9
        _report(
            "empty-model data bits equal the closed form on 50 sequences",
            f"max drift {worst:.2e}",
        )

    def test_kraft_inequality_to_one_million(self):
        z = np.arange(1, 1_000_001, dtype=np.float64)
        bits = np.full(z.size, math.log2(2.865064))
        t = np.log2(z)
        while True:
            live = t > 0
            if not live.any():
                break
            bits[live] += t[live]
            t[live] = np.log2(t[live])
        total = float(np.sum(2.0**-bits))
        assert total <= 1.0
        _report("Kraft sum over z <= 1e6", f"sum {total:.6f}")


class TestPropertySuite:
    def test_predictive_distributions_proper(self):
        rng = random.Random(555)
        for _ in range(40):
            s = random_seq(rng, rng.randint(1, 80), rng.randint(2, 6))
            k = len(s.alphabet)
            m = Model.empty(frequencies(s))
            for _ in range(rng.randint(0, 3)):
                a = tuple(rng.randrange(k) for _ in range(rng.randint(0, 2)))
                c = tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
                rule = Rule(a, c)
                if not rule.is_singleton and rule not in m.rules:
                    m = m.with_rule(rule, rng.uniform(0.01, 30.0))
            cut = rng.randint(0, len(s))
            dist = predictive_distribution(m, s.ids[:cut])
            assert (dist > 0).all()
            assert abs(dist.sum() - 1.0) <= 1e-9
        _report("predictive distributions strictly positive, sum to 1")

    def test_weight_scale_invariance(self):
        rng = random.Random(556)
        worst = 0.0
        for _ in range(20):
            s = random_seq(rng, rng.randint(5, 120), rng.randint(2, 5))
            k = len(s.alphabet)
            m = Model.empty(frequencies(s))
            lam = rng.uniform(1e-3, 1e3)
            scaled = m.with_weights([w * lam for w in m.weights])
            worst = max(
                worst,
                abs(data_code_length(m, s) - data_code_length(scaled, s)),
            )
        assert worst <= 1e-9
        _report("weight scale-invariance of data bits", f"max {worst:.2e}")

    def test_optimizer_monotone_per_step(self):
        rng = random.Random(557)
        s = random_seq(rng, 300, 4)
        m = Model.empty(frequencies(s))
        m = m.with_rule(Rule((0,), (1,)), 1.0)
        m = m.with_rule(Rule((), (2, 3)), 1.0)
        scorer = SequenceScorer(m, s)
        cfg = OptimizerConfig()
        bits = scorer.data_bits
        for _ in range(2):
            for index in range(len(scorer.rules)):
                coordinate_step(scorer, index, cfg)
                assert scorer.data_bits <= bits + 1e-9
                bits = scorer.data_bits
        _report("optimizer coordinate steps never increase data bits")

    def test_selector_incumbent_monotone(self, monkeypatch):
        seq, _ = synth_generate(SyntheticSpec(seed=31, length=3000))
        # A settled candidate's or a prune's total is the table price of
        # the last scorer priced plus its data bits; rebuild both from its
        # model. A candidate decided on its screened total alone is the
        # incumbent of its block plus the rule at its screened weight.
        priced = []
        table_bits = selector._TableBits.__call__
        lanes = selector._TableBits.lanes

        def remember(self, scorer):
            priced[:] = [scorer, None]
            return table_bits(self, scorer)

        def remember_block(self, scorer, rules, weights):
            priced[:] = [scorer, "block"]
            return lanes(self, scorer, rules, weights)

        monkeypatch.setattr(selector._TableBits, "__call__", remember)
        monkeypatch.setattr(selector._TableBits, "lanes", remember_block)
        events = []
        rebuilt = from_block = 0

        def observe(e):
            nonlocal rebuilt, from_block
            events.append(e)
            if e["event"] not in ("candidate", "prune"):
                return
            m = priced[0].model()
            if priced[1] == "block":
                assert e["event"] == "candidate"
                rule = parse_rule(e["rule"], seq.alphabet)
                m = m.with_rule(rule, e["weight"])
                from_block += 1
            scratch = model_code_length(
                quantize_weights(normalize_weights(m))
            ) + data_code_length(m, seq)
            total = e["tentative"] if e["event"] == "candidate" else e["total"]
            assert total == pytest.approx(scratch, rel=1e-9)
            rebuilt += 1

        cossu_mine(seq, trace=observe)
        assert 0 < from_block < rebuilt
        incumbent = None
        steps = 0
        for e in events:
            if e["event"] == "init":
                incumbent = e["total"]
            elif e["event"] == "candidate" and e["decision"] == "accept":
                assert e["tentative"] < incumbent
                incumbent = e["tentative"]
                steps += 1
            elif e["event"] == "prune":
                assert e["total"] <= incumbent
                incumbent = e["total"]
                steps += 1
        assert incumbent is not None
        _report(
            "selector incumbent is monotone",
            f"{steps} accepted steps, {rebuilt} totals rebuilt from scratch",
        )

    def test_determinism_byte_identical(self):
        seq, _ = synth_generate(SyntheticSpec(seed=32, length=3000))
        m1 = cossu_mine(seq)
        m2 = cossu_mine(seq)
        assert model_to_json(m1) == model_to_json(m2)
        _report("repeated runs serialize byte-identically")


@pytest.mark.slow
class TestHitRateReproduction:
    SEEDS = range(20)

    def _mine_hits(self, ip: float) -> float:
        models, targets, alphabet = [], None, None
        for seed in self.SEEDS:
            seq, tgt = synth_generate(
                SyntheticSpec(insertion_probability=ip, seed=seed)
            )
            models.append(cossu_mine(seq))
            targets, alphabet = tgt, seq.alphabet
        return hit_rate(models, targets, alphabet)

    def test_hit_rate_and_sensitivity(self):
        strong = self._mine_hits(0.5)
        assert strong >= 90.0
        weak = self._mine_hits(0.05)
        assert weak < strong
        _report(
            "hit rate at desk scale",
            f"ip=0.5 -> {strong:.0f}%, ip=0.05 -> {weak:.0f}%",
        )


@pytest.mark.slow
class TestNoRuleControl:
    def test_no_spurious_rules(self):
        clean = 0
        runs = 0
        per_size = {}
        for k in (3, 5, 10):
            alphabet = tuple(chr(ord("A") + i) for i in range(k))
            ok = 0
            for seed in range(20):
                seq, _ = synth_generate(
                    SyntheticSpec(alphabet=alphabet, rules=(), seed=seed)
                )
                model = cossu_mine(seq)
                ok += not model.non_singletons()
                runs += 1
            per_size[k] = ok
            clean += ok
        assert clean / runs >= 0.9
        _report(
            "no-rule control",
            f"clean runs {clean}/{runs}, per |alphabet| {per_size}",
        )


@pytest.mark.slow
class TestMultiRuleRecovery:
    def test_two_planted_rules(self):
        spec_rules = ((("A",), ("B",)), (("C",), ("D",)))
        models, targets, alphabet = [], None, None
        for seed in range(10):
            seq, tgt = synth_generate(
                SyntheticSpec(
                    alphabet=("A", "B", "C", "D"),
                    rules=spec_rules,
                    seed=seed,
                )
            )
            models.append(cossu_mine(seq))
            targets, alphabet = tgt, seq.alphabet
        rate = hit_rate(models, targets, alphabet)
        assert rate >= 80.0
        _report("multi-rule recovery over |alphabet|=4", f"{rate:.0f}%")


@pytest.mark.slow
class TestCandidateCountSanity:
    def test_candidate_volume_at_default_spec(self):
        counts = []
        for seed in range(5):
            seq, _ = synth_generate(SyntheticSpec(seed=seed))
            closed = mine_closed(seq)
            counts.append(len(generate_candidates(closed, seq)))
        mean = sum(counts) / len(counts)
        assert 8_000 <= mean <= 25_000
        _report("candidate count at default spec", f"mean {mean:.0f}")


@pytest.mark.slow
class TestClassifierAcceptance:
    def test_two_class_synthetic(self):
        ip = 0.7
        train1, _ = synth_generate(
            SyntheticSpec(rules=((("A",), ("B",)),), insertion_probability=ip, seed=101)
        )
        train2, _ = synth_generate(
            SyntheticSpec(rules=((("C",), ("D",)),), insertion_probability=ip, seed=202)
        )
        clf = train_classifier({"c1": train1, "c2": train2})
        correct = 0
        total = 0
        for label, rules, base in (
            ("c1", ((("A",), ("B",)),), 1_000),
            ("c2", ((("C",), ("D",)),), 2_000),
        ):
            for i in range(100):
                probe, _ = synth_generate(
                    SyntheticSpec(
                        length=200,
                        rules=rules,
                        insertion_probability=ip,
                        seed=base + i,
                    )
                )
                correct += classify(clf, probe.reindexed(clf.alphabet)) == label
                total += 1
        accuracy = correct / total
        assert accuracy >= 0.9
        _report("two-class synthetic classifier", f"accuracy {accuracy:.3f}")


@pytest.mark.slow
class TestPredictionAcceptance:
    def test_planted_rule_split(self):
        seq, _ = synth_generate(SyntheticSpec(seed=0))
        cut = int(len(seq) * 0.8)
        train = Sequence(seq.alphabet, seq.ids[:cut])
        test = Sequence(seq.alphabet, seq.ids[cut:])
        model = cossu_mine(train)

        taus = (0.0, 0.3)
        ours = evaluate_prediction(model, test, taus)
        bigram = evaluate_prediction(bigram_baseline(train), test, taus)
        uniform = evaluate_prediction(
            UniformPredictor(seq.alphabet), test, taus
        )

        assert ours.at(0.0).recall == 1.0
        f1 = ours.at(0.3).f1
        assert f1 > bigram.at(0.3).f1 - 0.02
        assert f1 - uniform.at(0.3).f1 >= 0.1
        _report(
            "prediction on the 80/20 split",
            f"f1@0.3 ours {f1:.3f}, bigram {bigram.at(0.3).f1:.3f}, "
            f"uniform {uniform.at(0.3).f1:.3f}, recall@0 100%",
        )
