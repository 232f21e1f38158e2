"""Greedy MDL selection of sequential rules from one long sequence.

The candidates are the splits of the closed patterns with a positive
compression gain, priced as arrays. The loop bootstraps with the
singleton-only model and walks them in order of decreasing gain. Each
candidate is screened on its own weight: it is added at the initial weight
and one line search tunes that weight alone. Candidates are screened in
blocks against the same incumbent, from class counts of their stage
prefixes, which they share; their line searches run in lockstep, and no
tentative model is built for them. Only the first candidate of a block
whose screened total beats the incumbent has every weight settled, and it
is kept when the settled total still strictly drops; the next block starts
after it. After every acceptance the proper rules are swept to remove any
whose absence now encodes at least as well.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from .closed import suffix_walk
from .encoding import (
    Model,
    SequenceScorer,
    _check_precision,
    quantize_weight,
    rule_content_code_length,
    universal_int_code_length,
    weight_code_length,
)
from .optimize import (
    INITIAL_WEIGHT,
    NORMALIZE_MARGIN,
    OptimizerConfig,
    lane_steps,
    normalize_weights,
    quantize_weights,
    run_passes,
)
from .rules import Rule, format_rule, split_gains
from .sequence import FrequencyTable, Sequence, frequencies

TraceFn = Callable[[dict], None]

#: Stages of a mining run, each reported once by a `stage` trace event.
STAGES = ("closed", "gains", "init", "screen", "prune", "finalize")

#: Counters of a mining run, reported by the `done` trace event.
COUNTS = (
    "screened", "accepted", "pruned", "line_searches", "objective_evals"
)

#: Candidates in the first block and in the first after a winner. A block
#: with no winner doubles the next, up to MAX_BLOCK, so late in a run one
#: objective call serves many lanes; the cap bounds a block's groups (up
#: to one per active position of each lane).
FIRST_BLOCK = 8
MAX_BLOCK = 1 << 10


@dataclass(frozen=True)
class MiningConfig:
    minsup: int = 2
    max_pattern_len: int = 20
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    precision: int = 4

    def __post_init__(self) -> None:
        if self.minsup < 2:
            raise ValueError("minsup must be at least 2")
        if self.max_pattern_len < 1:
            raise ValueError("max_pattern_len must be at least 1")
        _check_precision(self.precision)


class _TableBits:
    """Rule-table bits for a scorer state, with per-rule content caching.

    Weights are scaled into (0, 1) and rounded to the working precision
    before pricing, so the comparison metric matches what serialization
    will pay. The symbol part of each entry never changes and is cached;
    so is the price of each rounded weight, as few distinct rounded values
    occur in a run.
    """

    def __init__(self, freq: FrequencyTable, precision: int):
        self.freq = freq
        self.precision = precision
        self._content: dict[Rule, float] = {}
        self._weight: dict[float, float] = {}

    def _content_bits(self, rule: Rule) -> float:
        bits = self._content.get(rule)
        if bits is None:
            bits = rule_content_code_length(rule, self.freq)
            self._content[rule] = bits
        return bits

    def _weight_bits(self, scaled: float) -> float:
        wq = quantize_weight(scaled, self.precision)
        bits = self._weight.get(wq)
        if bits is None:
            bits = weight_code_length(wq, self.precision)
            self._weight[wq] = bits
        return bits

    def _entries(
        self, bits: float, scorer: SequenceScorer, scale: float
    ) -> float:
        """bits plus the price of every entry of the scorer's table."""
        for rule, w in zip(scorer.rules, scorer.weights):
            bits += self._content_bits(rule)
            bits += self._weight_bits(float(w) / scale)
        return bits

    def __call__(self, scorer: SequenceScorer) -> float:
        scale = float(scorer.weights.max()) * (1.0 + NORMALIZE_MARGIN)
        return self._entries(
            universal_int_code_length(len(scorer.rules)), scorer, scale
        )

    def lanes(
        self, scorer: SequenceScorer, rules: list[Rule], weights: np.ndarray
    ) -> np.ndarray:
        """Table bits of the scorer's table plus each rule at its weight.

        The scorer's entries are priced once, and again for a lane only
        when its weight is the largest of the table and so sets the scale.
        """
        top = float(scorer.weights.max())
        size = universal_int_code_length(len(scorer.rules) + 1)
        incumbent = self._entries(size, scorer, top * (1.0 + NORMALIZE_MARGIN))
        out = np.empty(len(rules))
        for i, (rule, w) in enumerate(zip(rules, weights.tolist())):
            scale = max(top, w) * (1.0 + NORMALIZE_MARGIN)
            bits = incumbent if w <= top else self._entries(size, scorer, scale)
            bits += self._content_bits(rule)
            out[i] = bits + self._weight_bits(w / scale)
        return out


class _Run:
    """What the stages of one mining run share: the table pricing, the
    trace hook, and the stage clocks and counters that the trace reports."""

    def __init__(
        self,
        s: Sequence,
        freq: FrequencyTable,
        cfg: MiningConfig,
        trace: TraceFn | None,
    ):
        self.alphabet = s.alphabet
        self.optimizer = cfg.optimizer
        self.trace = trace
        self.table_bits = _TableBits(freq, cfg.precision)
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)

    def emit(self, **fields) -> None:
        """Send one event to the trace hook, if any. A `rule` field is
        formatted only then: a run without a hook formats no rule."""
        if self.trace is not None:
            if "rule" in fields:
                fields["rule"] = format_rule(fields["rule"], self.alphabet)
            self.trace(fields)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - start

    def total(self, scorer: SequenceScorer) -> float:
        return self.table_bits(scorer) + scorer.data_bits

    def screen(
        self, scorer: SequenceScorer, block: list[tuple[Rule, float]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Screen a block of (rule, gain) against the scorer: each rule's
        weight after one line search on it alone, starting from the
        initial weight, and the total of the scorer plus the rule at that
        weight. The scorer is left as it is."""
        evals = scorer.objective_evals
        rules = [rule for rule, _ in block]
        objective = scorer.lane_objective(rules, INITIAL_WEIGHT)
        weights, data = lane_steps(
            objective, np.full(len(block), INITIAL_WEIGHT), self.optimizer
        )
        self.counts["objective_evals"] += scorer.objective_evals - evals
        return weights, self.table_bits.lanes(scorer, rules, weights) + data

    def settle(self, scorer: SequenceScorer) -> float:
        """Coordinate passes over every weight; the scorer's new total."""
        evals = scorer.objective_evals
        run_passes(scorer, self.optimizer)
        self.counts["objective_evals"] += scorer.objective_evals - evals
        self.counts["line_searches"] += self.optimizer.passes * len(
            scorer.rules
        )
        return self.total(scorer)


def cossu_mine(
    s: Sequence, config: MiningConfig | None = None, trace: TraceFn | None = None
) -> Model:
    """Mine a compact weighted rule set that compresses s well.

    Returns a normalized model whose weights are rounded to the working
    precision; the run is deterministic for fixed input and configuration.
    The trace hook, when given, receives one dict per event: `start`,
    `init`, one `candidate` per screened candidate (with its screened
    `weight`), one `prune` per removed rule, one `stage` (with its
    `seconds`) per entry of STAGES, and `done` with the run's counters.
    `line_searches` counts one search per screened candidate plus the
    settling searches; `objective_evals` counts every objective evaluation,
    one per lane of a lockstep search, including the lanes of a block that
    follow its winner and are screened again in the next block.
    """
    cfg = config or MiningConfig()
    if len(s) == 0:
        raise ValueError("empty input")
    freq = frequencies(s)
    run = _Run(s, freq, cfg, trace)

    with run.stage("closed"):
        starts, lengths, counts = suffix_walk(
            s.array, cfg.minsup, cfg.max_pattern_len
        )
    with run.stage("gains"):
        # Each pattern's symbols, padded past its end up to the longest.
        width = int(lengths.max(initial=0))
        at = np.minimum(starts[:, None] + np.arange(width), len(s) - 1)
        windows = s.array[at]
        rows, ks, gains = split_gains(windows, lengths, counts, len(s), freq)
        # Only a split with a positive gain is screened, so only it
        # becomes a Rule.
        positive = np.flatnonzero(gains > 0.0)
        candidates = [
            (Rule(tuple(ids[:k]), tuple(ids[k:d])), g)
            for ids, k, d, g in zip(
                windows[rows[positive]].tolist(),
                ks[positive].tolist(),
                lengths[rows[positive]].tolist(),
                gains[positive].tolist(),
            )
        ]
        candidates.sort(
            key=lambda rg: (
                -rg[1],
                len(rg[0].antecedent) + len(rg[0].consequent),
                rg[0].antecedent,
                rg[0].consequent,
            )
        )
    run.emit(
        event="start",
        patterns=lengths.size,
        candidates=rows.size,
        positive_gain=len(candidates),
    )

    with run.stage("init"):
        scorer = SequenceScorer(Model.empty(freq, cfg.precision), s)
        incumbent = run.settle(scorer)
    run.emit(event="init", total=incumbent)

    def decided(rule: Rule, gain: float, weight: float, total: float) -> bool:
        accepted = total < incumbent
        run.counts["screened"] += 1
        run.counts["line_searches"] += 1
        run.emit(
            event="candidate",
            rule=rule,
            gain=gain,
            weight=weight,
            tentative=total,
            incumbent=incumbent,
            decision="accept" if accepted else "reject",
        )
        return accepted

    i, limit = 0, FIRST_BLOCK
    while i < len(candidates):
        block = candidates[i : i + limit]
        with run.stage("screen"):
            weights, totals = run.screen(scorer, block)
            wins = np.flatnonzero(totals < incumbent)
        end = wins[0] if wins.size else len(block)
        for (rule, gain), w, total in zip(block, weights, totals[:end]):
            decided(rule, gain, float(w), float(total))
        if not wins.size:
            i, limit = i + end, min(2 * limit, MAX_BLOCK)
            continue
        # The candidates after the winner are screened again, against
        # whatever incumbent the winner leaves, in a block that starts small.
        i, limit = i + end + 1, FIRST_BLOCK
        rule, gain = block[end]
        weight = float(weights[end])
        with run.stage("screen"):
            # Screening tuned only the new weight; settle the rest before
            # the comparison that decides acceptance.
            tentative = scorer.clone()
            tentative.add_rule(rule, weight)
            total = run.settle(tentative)
        if not decided(rule, gain, weight, total):
            continue
        run.counts["accepted"] += 1
        with run.stage("prune"):
            scorer, incumbent = _prune(tentative, total, run)

    with run.stage("finalize"):
        final = quantize_weights(normalize_weights(scorer.model()))
    for name, seconds in run.seconds.items():
        run.emit(event="stage", stage=name, seconds=seconds)
    run.emit(
        event="done",
        total=incumbent,
        rules=len(final.non_singletons()),
        **run.counts,
    )
    return final


def _prune(
    scorer: SequenceScorer, incumbent: float, run: _Run
) -> tuple[SequenceScorer, float]:
    """Drop proper rules whose removal encodes at least as well.

    Each committed removal is followed by a weight re-adjustment, kept
    only when it does not worsen the total, so the incumbent never
    increases.
    """
    for rule in list(scorer.rules[scorer.k :]):
        index = scorer.rules.index(rule, scorer.k)
        test = scorer.clone()
        test.remove_rule(index)
        total = run.total(test)
        if total > incumbent:
            continue
        scorer, incumbent = test, total
        run.counts["pruned"] += 1
        run.emit(
            event="prune",
            rule=rule,
            total=total,
        )
        settled = scorer.clone()
        settled_total = run.settle(settled)
        if settled_total <= incumbent:
            scorer, incumbent = settled, settled_total
    return scorer, incumbent
