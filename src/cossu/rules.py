"""Sequential rules: trigger/apply semantics, candidates and compression gain.

A rule pairs an antecedent run (possibly empty) with a non-empty consequent
run. It triggers wherever the antecedent ends, applies where the consequent
follows immediately, and while a prediction unfolds it is "active at stage
j" whenever antecedent plus the first j consequent symbols form the current
history suffix.

The candidates of a mining run are the antecedent/consequent splits of the
closed patterns. `split_gains` prices all of them at once from the
patterns' arrays, and `candidate_gains` is its list view; the per-rule
`compression_gain`, which counts the rule's matches, is kept as the
reference that tests compare the two against.
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
    return tuple(s.array[i - len(a) : i].tolist()) == a


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
    applies = match_ends(s.array, rule.antecedent + rule.consequent).size
    triggers = match_ends(s.array, rule.antecedent).size if rule.antecedent else n
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
    k = 0..L-1, singleton rules dropped. Closed patterns are distinct, so
    their splits are too.
    """
    out: list[Rule] = []
    for cp in closed:
        ids = cp.pattern.array.tolist()
        for k in range(len(ids)):
            rule = Rule(tuple(ids[:k]), tuple(ids[k:]))
            if not rule.is_singleton:
                out.append(rule)
    return out


def compression_gain(rule: Rule, s: Sequence, f: FrequencyTable) -> float:
    """Estimated net benefit, in bits, of adding the rule to a model.

    conf * supp * cl(consequent) - (cl(antecedent) + cl(consequent)),
    with cl summing the background code lengths of the symbols. May be
    negative. Symbols that never occur in s are rejected. This per-rule
    count is the reference that tests compare `split_gains` against.
    """
    for sid in rule.antecedent + rule.consequent:
        if f.counts[sid] == 0:
            raise ValueError(
                f"unknown symbol: {f.alphabet.token_of(sid)!r} does not occur"
            )
    return _gain(rule, *rule_support_confidence(rule, s), f)


def _gain(rule: Rule, supp: int, conf: float, f: FrequencyTable) -> float:
    cl_a = _bits(rule.antecedent, f)
    cl_c = _bits(rule.consequent, f)
    return conf * supp * cl_c - (cl_a + cl_c)


def _bits(ids: tuple[int, ...], f: FrequencyTable) -> float:
    """Code lengths added left to right, the order `split_gains` adds
    them in (`sum` compensates its rounding from Python 3.12 on)."""
    bits = 0.0
    for sid in ids:
        bits += f.code_length(sid)
    return bits


def split_gains(
    windows: np.ndarray,
    lengths: np.ndarray,
    counts: np.ndarray,
    n: int,
    f: FrequencyTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gain of every candidate split of patterns given as arrays.

    Pattern j is `windows[j, :lengths[j]]` (the rest of the row is
    ignored), and `counts[k-1, j]` is the support of its first k symbols.
    Returns (rows, ks, gains): split k of pattern `rows[i]` is the rule
    P[:k] -> P[k:], with gain `gains[i]`, for every split but the
    singletons, in pattern order and then by k. A split counts nothing:
    its support is its pattern's, and its antecedent's trigger count is
    a prefix support (n for the empty antecedent). Every float operation
    is `_gain`'s, in `_gain`'s order, so each gain equals
    `compression_gain` exactly.
    """
    width = windows.shape[1]
    col = np.arange(width)
    inside = col < lengths[:, None]
    table = np.array([f.code_length(i) for i in range(len(f.counts))])
    cl = np.where(inside, table[windows], 0.0)
    cl_a = np.zeros(cl.shape)
    np.cumsum(cl[:, :-1], axis=1, out=cl_a[:, 1:])
    # Each consequent is summed from its own first symbol: cl(P) - cl_a
    # rounds differently. The zero padding adds nothing.
    cl_c = np.zeros(cl.shape)
    for k in range(width):
        live = lengths > k
        cl_c[live, k] = np.cumsum(cl[live, k:], axis=1)[:, -1]
    rows, ks = np.nonzero(inside & ((col > 0) | (lengths[:, None] > 1)))
    supp = counts[lengths - 1, np.arange(lengths.size)][rows]
    triggers = np.where(ks > 0, counts[ks - 1, rows], n)
    a, c = cl_a[rows, ks], cl_c[rows, ks]
    return rows, ks, (supp / triggers) * supp * c - (a + c)


def candidate_gains(
    closed: Iterable[ClosedPattern], s: Sequence, f: FrequencyTable
) -> list[tuple[Rule, float]]:
    """Gains for every candidate from the closed patterns, batch version.

    The list view of `split_gains`: the candidates of
    `generate_candidates`, in its order, each with the gain that
    `compression_gain` gives it.
    """
    closed = list(closed)
    lengths = np.array([len(cp.pattern) for cp in closed], dtype=np.int64)
    width = int(lengths.max(initial=0))
    windows = np.zeros((len(closed), width), dtype=np.int64)
    counts = np.zeros((width, len(closed)), dtype=np.int64)
    for j, cp in enumerate(closed):
        windows[j, : lengths[j]] = cp.pattern.array
        counts[: lengths[j], j] = cp.prefix_supports
    gains = split_gains(windows, lengths, counts, len(s), f)[2]
    return list(
        zip(generate_candidates(closed, s), gains.tolist(), strict=True)
    )
