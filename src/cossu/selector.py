"""Greedy MDL selection of sequential rules from one long sequence.

The loop bootstraps with the singleton-only model, walks the candidates in
order of decreasing compression gain, tentatively adds each one with
re-adjusted weights, keeps it only when the total description length
strictly drops, and after every acceptance sweeps the proper rules to
remove any whose absence now encodes at least as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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


@dataclass(frozen=True)
class MiningConfig:
    minsup: int = 2
    max_pattern_len: int = 20
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    precision: int = 4
    fast_screen: bool = False

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
    will pay. The symbol part of each entry never changes and is cached.
    """

    def __init__(self, freq: FrequencyTable, precision: int):
        self.freq = freq
        self.precision = precision
        self._content: dict[Rule, float] = {}

    def _content_bits(self, rule: Rule) -> float:
        bits = self._content.get(rule)
        if bits is None:
            bits = rule_content_code_length(rule, self.freq)
            self._content[rule] = bits
        return bits

    def __call__(self, scorer: SequenceScorer) -> float:
        weights = scorer.weights
        scale = float(weights.max()) * (1.0 + 1e-9)
        bits = universal_int_code_length(len(scorer.rules))
        for rule, w in zip(scorer.rules, weights):
            wq = quantize_weight(float(w) / scale, self.precision)
            bits += self._content_bits(rule)
            bits += weight_code_length(wq, self.precision)
        return bits


def _emit(trace: TraceFn | None, **fields) -> None:
    if trace is not None:
        trace(fields)


def cossu_mine(
    s: Sequence, config: MiningConfig | None = None, trace: TraceFn | None = None
) -> Model:
    """Mine a compact weighted rule set that compresses s well.

    Returns a normalized model whose weights are rounded to the working
    precision; the run is deterministic for fixed input and configuration.
    """
    cfg = config or MiningConfig()
    if len(s) == 0:
        raise ValueError("empty input")
    freq = frequencies(s)

    closed = mine_closed(s, cfg.minsup, cfg.max_pattern_len)
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
    _emit(
        trace,
        event="start",
        patterns=len(closed),
        candidates=len(scored),
        positive_gain=len(candidates),
    )

    table_bits = _TableBits(freq, cfg.precision)
    scorer = SequenceScorer(Model.empty(freq, cfg.precision), s)
    run_passes(scorer, cfg.optimizer)
    incumbent = table_bits(scorer) + scorer.data_bits
    _emit(trace, event="init", total=incumbent)

    for rule, gain in candidates:
        tentative = scorer.clone()
        tentative.add_rule(rule, cfg.optimizer.initial_weight)
        if cfg.fast_screen:
            coordinate_pass(
                tentative, cfg.optimizer, [len(tentative.rules) - 1]
            )
        else:
            run_passes(tentative, cfg.optimizer)
        total = table_bits(tentative) + tentative.data_bits
        if cfg.fast_screen and total < incumbent:
            # Screening only tuned the new weight; settle the rest before
            # the comparison that decides acceptance.
            run_passes(tentative, cfg.optimizer)
            total = table_bits(tentative) + tentative.data_bits
        accepted = total < incumbent
        _emit(
            trace,
            event="candidate",
            rule=format_rule(rule, s.alphabet),
            gain=gain,
            tentative=total,
            incumbent=incumbent,
            decision="accept" if accepted else "reject",
        )
        if not accepted:
            continue
        scorer, incumbent = tentative, total
        scorer, incumbent = _prune(
            scorer, incumbent, cfg, table_bits, trace, s
        )

    final = quantize_weights(normalize_weights(scorer.model()))
    _emit(
        trace,
        event="done",
        total=incumbent,
        rules=len(final.non_singletons()),
    )
    return final


def _prune(
    scorer: SequenceScorer,
    incumbent: float,
    cfg: MiningConfig,
    table_bits: _TableBits,
    trace: TraceFn | None,
    s: Sequence,
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
        total = table_bits(test) + test.data_bits
        if total > incumbent:
            continue
        scorer, incumbent = test, total
        _emit(
            trace,
            event="prune",
            rule=format_rule(rule, s.alphabet),
            total=total,
        )
        settled = scorer.clone()
        run_passes(settled, cfg.optimizer)
        settled_total = table_bits(settled) + settled.data_bits
        if settled_total <= incumbent:
            scorer, incumbent = settled, settled_total
    return scorer, incumbent
