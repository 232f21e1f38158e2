"""Sequential rules: trigger/apply semantics, candidates and compression gain.

A rule pairs an antecedent run (possibly empty) with a non-empty consequent
run. It triggers wherever the antecedent ends, applies where the consequent
follows immediately, and while a prediction unfolds it is "active at stage
j" whenever antecedent plus the first j consequent symbols form the current
history suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .closed import ClosedPattern
from .sequence import Alphabet, FrequencyTable, Sequence, match_ends

EMPTY_ANTECEDENT_MARK = "∅"


@dataclass(frozen=True)
class Rule:
    antecedent: tuple[int, ...]
    consequent: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.consequent:
            raise ValueError("rule consequent must not be empty")

    @classmethod
    def from_tokens(
        cls,
        alphabet: Alphabet,
        antecedent: Iterable[str],
        consequent: Iterable[str],
    ) -> "Rule":
        return cls(
            tuple(alphabet.id_of(t) for t in antecedent),
            tuple(alphabet.id_of(t) for t in consequent),
        )

    @property
    def is_singleton(self) -> bool:
        return not self.antecedent and len(self.consequent) == 1

    def tokens(
        self, alphabet: Alphabet
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return (
            tuple(alphabet.token_of(i) for i in self.antecedent),
            tuple(alphabet.token_of(i) for i in self.consequent),
        )


@dataclass(frozen=True)
class ActiveMatch:
    """One (rule, stage) pair matching the current history suffix."""

    rule: Rule
    stage: int
    predicted: int


def singleton_rules(alphabet: Alphabet) -> tuple[Rule, ...]:
    """One empty-antecedent, single-symbol rule per alphabet symbol."""
    return tuple(Rule((), (sid,)) for sid in range(len(alphabet)))


def format_rule(rule: Rule, alphabet: Alphabet) -> str:
    ant, cons = rule.tokens(alphabet)
    left = " ".join(ant) if ant else EMPTY_ANTECEDENT_MARK
    return f"{left} -> {' '.join(cons)}"


def parse_rule(text: str, alphabet: Alphabet) -> Rule:
    """Parse `a b -> c` (antecedent may be empty or the empty-set mark)."""
    head, sep, tail = text.partition("->")
    if not sep:
        raise ValueError(f"rule must contain '->': {text!r}")
    ant = head.split()
    if ant == [EMPTY_ANTECEDENT_MARK]:
        ant = []
    cons = tail.split()
    if not cons:
        raise ValueError(f"rule consequent must not be empty: {text!r}")
    return Rule.from_tokens(alphabet, ant, cons)


def triggers_at(rule: Rule, s: Sequence, i: int) -> bool:
    """Whether the antecedent has a match in s ending at position i.

    An empty antecedent triggers everywhere, including the boundary i = 0
    just before the first element.
    """
    n = len(s)
    if not 0 <= i <= n:
        raise IndexError(f"position out of range: {i}")
    a = rule.antecedent
    if not a:
        return True
    if i < len(a):
        return False
    return s.ids[i - len(a) : i] == a


def rule_support_confidence(rule: Rule, s: Sequence) -> tuple[int, float]:
    """Rule support and confidence on s.

    Support counts positions where the rule applies, i.e. the matches of
    antecedent plus consequent; confidence divides by the trigger count.
    Empty antecedents trigger at each of the n boundaries that precede a
    potential consequent start.
    """
    if len(s) == 0:
        raise ValueError("empty input")
    n = len(s)
    arr = np.asarray(s.ids, dtype=np.int64)
    applies = match_ends(arr, rule.antecedent + rule.consequent).size
    triggers = match_ends(arr, rule.antecedent).size if rule.antecedent else n
    confidence = applies / triggers if triggers else 0.0
    return applies, confidence


def active_matches(
    rules: Iterable[Rule], history: Sequence | tuple[int, ...]
) -> list[ActiveMatch]:
    """All (rule, stage) pairs active against the given history.

    A rule with consequent length c can be active at up to c stages at
    once; stage j predicts consequent symbol j+1. Singleton rules are
    active at stage 0 for every history, including the empty one.

    This per-history check is the reference that tests compare the
    vectorised stage scan (`encoding._stage_activity`) against.
    """
    hist = history.ids if isinstance(history, Sequence) else tuple(history)
    m = len(hist)
    out: list[ActiveMatch] = []
    for rule in rules:
        a, c = rule.antecedent, rule.consequent
        for j in range(len(c)):
            g = len(a) + j
            if g == 0 or (g <= m and hist[m - g :] == a + c[:j]):
                out.append(ActiveMatch(rule, j, c[j]))
    return out


def generate_candidates(
    closed: Iterable[ClosedPattern], s: Sequence
) -> list[Rule]:
    """Every antecedent/consequent partition of each closed pattern.

    Pattern P of length L yields the L splits P[1,k] -> P[k+1,L] for
    k = 0..L-1; singleton rules are dropped and duplicates merged.
    """
    seen: dict[Rule, None] = {}
    for cp in closed:
        ids = cp.pattern.ids
        for k in range(len(ids)):
            rule = Rule(ids[:k], ids[k:])
            if not rule.is_singleton:
                seen.setdefault(rule, None)
    return list(seen)


def compression_gain(rule: Rule, s: Sequence, f: FrequencyTable) -> float:
    """Estimated net benefit, in bits, of adding the rule to a model.

    conf * supp * cl(consequent) - (cl(antecedent) + cl(consequent)),
    with cl summing the background code lengths of the symbols. May be
    negative. Symbols that never occur in s are rejected. This per-rule
    count is the reference that tests compare `candidate_gains` against.
    """
    for sid in rule.antecedent + rule.consequent:
        if f.counts[sid] == 0:
            raise ValueError(
                f"unknown symbol: {f.alphabet.token_of(sid)!r} does not occur"
            )
    return _gain(rule, *rule_support_confidence(rule, s), f)


def _gain(rule: Rule, supp: int, conf: float, f: FrequencyTable) -> float:
    cl_a = sum(f.code_length(sid) for sid in rule.antecedent)
    cl_c = sum(f.code_length(sid) for sid in rule.consequent)
    return conf * supp * cl_c - (cl_a + cl_c)


def candidate_gains(
    closed: Iterable[ClosedPattern], s: Sequence, f: FrequencyTable
) -> list[tuple[Rule, float]]:
    """Gains for every candidate from the closed patterns, batch version.

    Equal to compression_gain per rule, but counts nothing: a split's
    support is its pattern's support, and its antecedent's trigger count
    is the pattern's prefix support (n for an empty antecedent).
    """
    by_ids = {cp.pattern.ids: cp for cp in closed}
    out: list[tuple[Rule, float]] = []
    for rule in generate_candidates(by_ids.values(), s):
        cp = by_ids[rule.antecedent + rule.consequent]
        k = len(rule.antecedent)
        triggers = cp.prefix_supports[k - 1] if k else len(s)
        out.append((rule, _gain(rule, cp.support, cp.support / triggers, f)))
    return out
