"""Greedy MDL selection of sequential rules from one long sequence.

The loop bootstraps with the singleton-only model and walks the candidates
in order of decreasing compression gain. Each candidate is screened on its
own weight: it is added at the initial weight and one line search tunes
that weight alone. Only a candidate whose screened total beats the
incumbent has every weight settled, and it is kept when the settled total
still strictly drops. After every acceptance the proper rules are swept to
remove any whose absence now encodes at least as well.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

from .closed import mine_closed
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
    OptimizerConfig,
    coordinate_pass,
    normalize_weights,
    quantize_weights,
    run_passes,
)
from .rules import Rule, candidate_gains, format_rule
from .sequence import FrequencyTable, Sequence, frequencies

TraceFn = Callable[[dict], None]

#: Stages of a mining run, each reported once by a `stage` trace event.
STAGES = ("closed", "gains", "init", "screen", "prune", "finalize")


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
    so is the price of each scaled weight, as most weights keep their value
    and their scale from one tentative model to the next.
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
        bits = self._weight.get(scaled)
        if bits is None:
            wq = quantize_weight(scaled, self.precision)
            bits = weight_code_length(wq, self.precision)
            self._weight[scaled] = bits
        return bits

    def __call__(self, scorer: SequenceScorer) -> float:
        weights = scorer.weights
        scale = float(weights.max()) * (1.0 + 1e-9)
        bits = universal_int_code_length(len(scorer.rules))
        for rule, w in zip(scorer.rules, weights):
            bits += self._content_bits(rule)
            bits += self._weight_bits(float(w) / scale)
        return bits


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
        self.counts = dict.fromkeys(
            ("screened", "accepted", "pruned", "line_searches"), 0
        )

    def emit(self, **fields) -> None:
        if self.trace is not None:
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

    def tune(self, scorer: SequenceScorer, index: int) -> float:
        """One line search on weight `index`; the scorer's new total."""
        coordinate_pass(scorer, self.optimizer, [index])
        self.counts["line_searches"] += 1
        return self.total(scorer)

    def settle(self, scorer: SequenceScorer) -> float:
        """Coordinate passes over every weight; the scorer's new total."""
        run_passes(scorer, self.optimizer)
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
    `init`, one `candidate` per screened candidate, one `prune` per removed
    rule, one `stage` (with its `seconds`) per entry of STAGES, and `done`
    with the run's counters.
    """
    cfg = config or MiningConfig()
    if len(s) == 0:
        raise ValueError("empty input")
    freq = frequencies(s)
    run = _Run(s, freq, cfg, trace)

    with run.stage("closed"):
        closed = mine_closed(s, cfg.minsup, cfg.max_pattern_len)
    with run.stage("gains"):
        scored = candidate_gains(closed, s, freq)
        candidates = [(r, g) for r, g in scored if g > 0.0]
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
        patterns=len(closed),
        candidates=len(scored),
        positive_gain=len(candidates),
    )

    with run.stage("init"):
        scorer = SequenceScorer(Model.empty(freq, cfg.precision), s)
        incumbent = run.settle(scorer)
    run.emit(event="init", total=incumbent)

    for rule, gain in candidates:
        with run.stage("screen"):
            tentative = scorer.clone()
            tentative.add_rule(rule, cfg.optimizer.initial_weight)
            total = run.tune(tentative, len(tentative.rules) - 1)
            if total < incumbent:
                # Screening tuned only the new weight; settle the rest
                # before the comparison that decides acceptance.
                total = run.settle(tentative)
        accepted = total < incumbent
        run.counts["screened"] += 1
        run.emit(
            event="candidate",
            rule=format_rule(rule, s.alphabet),
            gain=gain,
            tentative=total,
            incumbent=incumbent,
            decision="accept" if accepted else "reject",
        )
        if not accepted:
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
        try:
            index = scorer.rules.index(rule, scorer.k)
        except ValueError:
            continue  # already removed this sweep
        test = scorer.clone()
        test.remove_rule(index)
        total = run.total(test)
        if total > incumbent:
            continue
        scorer, incumbent = test, total
        run.counts["pruned"] += 1
        run.emit(
            event="prune",
            rule=format_rule(rule, run.alphabet),
            total=total,
        )
        settled = scorer.clone()
        settled_total = run.settle(settled)
        if settled_total <= incumbent:
            scorer, incumbent = settled, settled_total
    return scorer, incumbent
