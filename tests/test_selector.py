import random
import tracemalloc

import numpy as np
import pytest

from cossu import (
    Alphabet,
    MiningConfig,
    Model,
    OptimizerConfig,
    Sequence,
    SyntheticSpec,
    cossu_mine,
    format_rule,
    frequencies,
    mine_closed,
    model_to_json,
    singleton_rules,
    synth_generate,
    total_dl,
)
from cossu import optimize, parse_rule, selector
from cossu.encoding import (
    MAX_PRECISION,
    SequenceScorer,
    quantize_weight,
    weight_code_length,
)
from cossu.rules import candidate_gains

from conftest import char_seq, random_seq

K20 = tuple(chr(ord("A") + i) for i in range(20))
K20_RULES = tuple(
    (tuple(a.split()), tuple(c.split()))
    for a, c in (
        ("A", "B"),
        ("C D", "E"),
        ("F", "G H"),
        ("I J", "K L"),
        ("M", "N"),
        ("O P Q", "R"),
    )
)


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

    def test_untraced_run_formats_no_rule(self, monkeypatch):
        """Rules are formatted for trace events only: a run without a hook,
        on an input whose traced run screens, accepts and prunes, calls no
        `format_rule` and mines the same model."""
        spec = SyntheticSpec(
            seed=2,
            length=3000,
            alphabet=K20,
            rules=K20_RULES,
            insertion_probability=0.6,
        )
        seq, _ = synth_generate(spec)
        events = []
        traced = cossu_mine(seq, trace=events.append)
        assert events[-1]["accepted"] >= 1 and events[-1]["pruned"] >= 1

        def refuse(*args):
            raise AssertionError("format_rule called without a trace hook")

        monkeypatch.setattr(selector, "format_rule", refuse)
        assert cossu_mine(seq) == traced


@pytest.mark.parametrize("minsup", [2, 3])
@pytest.mark.parametrize("cap", [1, 2, 3, 20])
def test_array_pricing_matches_public_views(cap, minsup):
    """The candidates cossu_mine screens are the positive-gain entries of
    candidate_gains(mine_closed(...)), with the same gains, in mining
    order, and its start event counts what the public views return."""
    rng = random.Random(cap * 10 + minsup)
    seqs = [
        random_seq(rng, rng.randint(20, 300), rng.randint(2, 5))
        for _ in range(4)
    ]
    seqs.append(char_seq("a" * 50 + "b" + "a" * 30))
    config = MiningConfig(minsup=minsup, max_pattern_len=cap)
    screened = 0
    for s in seqs:
        events = []
        cossu_mine(s, config, events.append)
        closed = mine_closed(s, minsup, cap)
        scored = candidate_gains(closed, s, frequencies(s))
        expect = sorted(
            ((r, g) for r, g in scored if g > 0.0),
            key=lambda rg: (
                -rg[1],
                len(rg[0].antecedent) + len(rg[0].consequent),
                rg[0].antecedent,
                rg[0].consequent,
            ),
        )
        got = [
            (parse_rule(e["rule"], s.alphabet), e["gain"])
            for e in events
            if e["event"] == "candidate"
        ]
        assert got == expect
        start = events[0]
        assert start["patterns"] == len(closed)
        assert start["candidates"] == len(scored)
        assert start["positive_gain"] == len(expect)
        screened += len(got)
    assert screened > 0 or cap == 1


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

        evals = 0
        weight_objective = SequenceScorer.weight_objective
        lane_objective = SequenceScorer.lane_objective

        def counted_weight(self, index):
            objective, w0 = weight_objective(self, index)

            def f(w):
                nonlocal evals
                evals += 1
                return objective(w)

            return f, w0

        def counted_lanes(self, rules, initial):
            objective = lane_objective(self, rules, initial)

            def f(w):
                nonlocal evals
                evals += w.size
                return objective(w)

            return f

        monkeypatch.setattr(optimize, "coordinate_step", counted)
        monkeypatch.setattr(SequenceScorer, "weight_objective", counted_weight)
        monkeypatch.setattr(SequenceScorer, "lane_objective", counted_lanes)
        seq, _ = synth_generate(SyntheticSpec(seed=3, length=2000))
        config = MiningConfig(optimizer=OptimizerConfig(passes=passes))
        events = []
        cossu_mine(seq, config, lambda e: events.append((e, steps)))
        rules = len(seq.alphabet)
        checked = {"accept": 0, "reject": 0}
        for (e, at), (prev, before) in zip(events[1:], events):
            if e["event"] == "candidate":
                # A screened candidate runs no scalar search; only one that
                # beats the incumbent is settled, before its decision. A
                # prune event is followed by its settling passes, so only
                # a candidate right after init or another candidate has
                # its own cost between two events.
                if prev["event"] in ("init", "candidate"):
                    settle = passes * (rules + 1)
                    expect = settle if e["decision"] == "accept" else 0
                    assert at - before == expect
                    checked[e["decision"]] += 1
                rules += e["decision"] == "accept"
            elif e["event"] == "prune":
                rules -= 1
        assert checked["accept"] >= 1 and checked["reject"] >= 1
        done = events[-1][0]
        candidates = sum(e["event"] == "candidate" for e, _ in events)
        assert done["line_searches"] == candidates + steps
        assert done["objective_evals"] == evals

    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(seed=3, length=1500),
            SyntheticSpec(
                seed=4,
                length=2500,
                alphabet=K20,
                rules=K20_RULES,
                insertion_probability=0.6,
            ),
        ],
        ids=["k5", "k20"],
    )
    def test_block_matches_one_scorer_per_candidate(self, monkeypatch, spec):
        # The oracle is the per-candidate path that block screening
        # replaced: clone the incumbent, add the rule at the initial
        # weight, and run one coordinate step on it.
        seq, _ = synth_generate(spec)
        config = MiningConfig()
        table_bits = selector._TableBits(frequencies(seq), config.precision)
        incumbents = []
        screen = selector._Run.screen

        def remember(self, scorer, block):
            incumbents[:] = [scorer]
            return screen(self, scorer, block)

        added = []
        add_rule = SequenceScorer.add_rule

        def counted(self, rule, weight):
            added.append(rule)
            return add_rule(self, rule, weight)

        monkeypatch.setattr(selector._Run, "screen", remember)
        monkeypatch.setattr(SequenceScorer, "add_rule", counted)
        winners = []
        checked = 0

        def observe(e):
            nonlocal checked
            if e["event"] != "candidate":
                return
            rule = parse_rule(e["rule"], seq.alphabet)
            tentative = incumbents[0].clone()
            add_rule(tentative, rule, optimize.INITIAL_WEIGHT)
            index = len(tentative.rules) - 1
            optimize.coordinate_step(tentative, index, config.optimizer)
            weight = float(tentative.weights[index])
            total = table_bits(tentative) + tentative.data_bits
            assert e["weight"] == pytest.approx(weight, rel=1e-9)
            if total < e["incumbent"]:
                winners.append(rule)
            else:
                assert e["tentative"] == pytest.approx(total, rel=1e-9)
            checked += 1

        cossu_mine(seq, config, observe)
        assert added == winners
        assert 1 <= len(winners) < checked

    @pytest.mark.slow
    def test_memory_bounded(self):
        # Screening lists no candidate's positions, only one array per
        # distinct stage prefix, and a block holds at most MAX_BLOCK
        # candidates, so memory must not grow with candidates times length.
        seq, _ = synth_generate(SyntheticSpec(seed=301, length=50_000))
        tracemalloc.start()
        try:
            cossu_mine(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 70 * 2**20

    def test_opt_passes_respected(self):
        rng = random.Random(77)
        s = random_seq(rng, 150, 3)
        two_pass = MiningConfig(optimizer=OptimizerConfig(passes=2))
        m1 = cossu_mine(s)
        m2 = cossu_mine(s, two_pass)
        assert {r for r in m1.non_singletons()} == {
            r for r in m2.non_singletons()
        }


def _planted(length: int, train: int, **spec) -> Sequence:
    """The first `train` symbols of a planted sequence of `length`."""
    seq, _ = synth_generate(SyntheticSpec(length=length, **spec))
    return seq.segment(1, train)


def _noisy_period_7() -> Sequence:
    """i % 7 for i < 3 000, with about 5% of the positions redrawn."""
    rng = np.random.default_rng(7)
    ids = np.arange(3000) % 7
    noise = rng.random(3000) < 0.05
    ids[noise] = rng.integers(0, 7, noise.sum())
    return Sequence(Alphabet(str(i) for i in range(7)), ids)


def _markov_order_2(n: int) -> Sequence:
    """An order-2 Markov chain over s0..s7 with sparse Dirichlet rows."""
    rng = np.random.default_rng(7)
    T = rng.dirichlet(np.full(8, 0.2), size=(8, 8))
    x, u = [0, 1], rng.random(n)
    for t in range(2, n):
        c = np.cumsum(T[x[-2], x[-1]])
        x.append(int(np.searchsorted(c, u[t] * c[-1])))
    return Sequence(Alphabet(f"s{i}" for i in range(8)), x)


#: Mined rule sets, total bits and `done` counts (in the order of
#: selector.COUNTS) of fixed inputs, so that a change to mining that should
#: leave models and the work that finds them alone is caught. The planted
#: inputs are the training parts of the benchmark's first planted-k5 and
#: planted-k20 sequences at seed 301, and its k5 class-y training sequence.
#: The order-2 Markov input is the only one that prunes.
#: A change that alters models on purpose updates these values and
#: accounts for every change.
PINNED = {
    "planted-k5": (
        lambda: _planted(5000, 4000, seed=301_000),
        {"A -> B"},
        9039.680302640088,
        (273, 1, 0, 284, 9592),
    ),
    "planted-k20": (
        lambda: _planted(
            12_500,
            10_000,
            alphabet=K20,
            rules=K20_RULES,
            insertion_probability=0.6,
            seed=301_000,
        ),
        {
            "A -> B",
            "C D -> E",
            "F -> G H",
            "F G -> H",
            "I F G -> H",
            "I J -> K L",
            "M -> N",
        },
        40495.443650406276,
        (155, 7, 0, 343, 13144),
    ),
    "overlapping-stages": (
        lambda: _planted(
            3000,
            3000,
            alphabet=("A", "B", "C"),
            rules=((("A",), ("A", "A")), (("B", "B"), ("B",))),
            insertion_probability=0.6,
            seed=11,
        ),
        {"A -> A", "B A A -> A", "B B -> B", "C A -> A A", "∅ -> A A"},
        4145.873221096535,
        (774, 5, 0, 807, 27951),
    ),
    "period-7": (
        _noisy_period_7,
        {
            "1 -> 2 3 4 5 6 0 1 2 3 4 5 6",
            "3 -> 4 5 6 0 1 2 3 4 5 6 0 1 2",
            "4 -> 5 6 0 1 2 3 4 5 6 0 1 2",
            "6 -> 0 1 2 3 4 5 6 0 1 2",
        },
        2090.3228405843065,
        (1993, 4, 0, 2038, 68199),
    ),
    "k5-class-y": (
        lambda: _planted(2000, 2000, rules=((("C",), ("D",)),), seed=2**31 + 1),
        {"C -> D"},
        4634.042191011744,
        (134, 1, 0, 145, 5005),
    ),
    "markov-order-2": (
        lambda: _markov_order_2(3000),
        {
            "s1 s3 -> s7",
            "s2 -> s5",
            "s2 s4 -> s2",
            "s2 s5 -> s2",
            "s2 s6 -> s7",
            "s3 s3 -> s6",
            "s3 s7 -> s3 s5",
            "s4 s3 -> s3",
            "s4 s5 -> s6",
            "s4 s6 -> s4 s7",
            "s4 s7 -> s5",
            "s5 s3 -> s7 s3",
            "s6 s0 -> s7",
            "s6 s2 -> s7 s1 s3",
            "s6 s6 -> s0",
            "s7 -> s1 s3 s7",
            "s7 s1 -> s3 s7 s3",
            "s7 s2 -> s6",
            "s7 s4 -> s3",
            "s7 s6 -> s5 s3 s7",
        },
        6957.664557166325,
        (951, 26, 6, 1866, 75117),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_models(name):
    make, rules, bits, counts = PINNED[name]
    seq = make()
    events = []
    model = cossu_mine(seq, trace=events.append)
    mined = {format_rule(r, model.alphabet) for r in model.non_singletons()}
    assert mined == rules
    assert total_dl(model, seq).total == pytest.approx(bits, rel=1e-9)
    (done,) = [e for e in events if e["event"] == "done"]
    assert tuple(done[c] for c in selector.COUNTS) == counts


@pytest.mark.parametrize("precision", range(1, MAX_PRECISION + 1))
def test_weight_price_is_the_rounded_weights(precision):
    """The table prices a scaled weight as `weight_code_length` of the
    weight rounded to the precision, since rounding is idempotent: at
    random weights, at half-step ties and at both clamps."""
    rng = np.random.default_rng(precision)
    step = 10.0**-precision
    ties = (np.arange(1, 10) + 0.5) * step
    weights = np.concatenate(
        [rng.random(200), ties, [0.00005, 1e-12, 1 - 1e-12]]
    )
    table_bits = selector._TableBits(frequencies(char_seq("ab")), precision)
    for x in weights.tolist():
        q = quantize_weight(x, precision)
        assert quantize_weight(q, precision) == q
        assert table_bits._weight_bits(x) == weight_code_length(q, precision)
