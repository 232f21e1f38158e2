"""Code-length accounting for weighted rule tables.

Nothing here emits an actual bitstream: all lengths are idealized
real-valued bits. A model transmits its rule table first (universal integer
codes for counts and lengths, background symbol codes for rule content,
reversed-digit universal codes for weights), then each sequence element
under the predictive distribution induced by the active rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .rules import Rule, active_matches, singleton_rules
from .sequence import Alphabet, FrequencyTable, Sequence, match_ends

#: Normalizer making the log-star code satisfy the Kraft inequality.
UNIVERSAL_CODE_CONSTANT = 2.865064

_LOG2_C0 = math.log2(UNIVERSAL_CODE_CONSTANT)

#: Most weight decimals: a float64 holds no more significant digits, and
#: every weight is formatted to this many places, so a larger value in a
#: model file would cost memory without describing any weight better.
MAX_PRECISION = 17


def _check_precision(precision: int) -> None:
    if not 1 <= precision <= MAX_PRECISION:
        raise ValueError(
            f"precision must lie in [1, {MAX_PRECISION}], got {precision}"
        )


def log2_star(z: float) -> float:
    """Sum of the strictly positive iterated base-2 logarithms of z."""
    total = 0.0
    t = math.log2(z)
    while t > 0.0:
        total += t
        t = math.log2(t)
    return total


def universal_int_code_length(z: int) -> float:
    """Prefix-free code length for a positive integer."""
    if z < 1:
        raise ValueError(f"universal code needs a positive integer, got {z}")
    return log2_star(z) + _LOG2_C0


def quantize_weight(w: float, precision: int) -> float:
    """Round w to the given number of decimals, clamped into (0, 1)."""
    _check_precision(precision)
    q = float(f"{w:.{precision}f}")
    step = 10.0**-precision
    if q <= 0.0:
        q = step
    elif q >= 1.0:
        q = 1.0 - step
    return q


def _weight_digits(w: float, precision: int) -> str:
    """Significant decimal digits of a weight in (0, 1), trailing zeros cut."""
    if not 0.0 < w < 1.0:
        raise ValueError(f"weight must lie strictly inside (0, 1), got {w}")
    text = f"{quantize_weight(w, precision):.{precision}f}"
    digits = text.split(".")[1].rstrip("0")
    return digits


def weight_code_length(w: float, precision: int) -> float:
    """Bits to transmit a weight at fixed decimal precision.

    The significant decimals are listed in reverse to form an integer that
    is coded universally, so the price grows with the number of significant
    digits rather than with the value.
    """
    digits = _weight_digits(w, precision)
    return universal_int_code_length(int(digits[::-1]))


def rule_content_code_length(rule: Rule, f: FrequencyTable) -> float:
    """Bits for a table entry's symbols: antecedent, then consequent."""
    bits = universal_int_code_length(len(rule.antecedent) + 1)
    bits += sum(f.code_length(sid) for sid in rule.antecedent)
    bits += universal_int_code_length(len(rule.consequent))
    bits += sum(f.code_length(sid) for sid in rule.consequent)
    return bits


def rule_code_length(
    rule: Rule, f: FrequencyTable, weight: float, precision: int
) -> float:
    """Bits for one table entry: antecedent, consequent, then weight."""
    return rule_content_code_length(rule, f) + weight_code_length(
        weight, precision
    )


@dataclass(frozen=True)
class DLReport:
    """Two-part description length of a (model, sequence) pair."""

    model_bits: float
    data_bits: float

    @property
    def total(self) -> float:
        return self.model_bits + self.data_bits


@dataclass(frozen=True)
class Model:
    """A weighted rule table plus the background statistics it was fit on.

    Rules are laid out with the singleton of every alphabet symbol first,
    in canonical order, followed by the proper rules in insertion order.
    Weights are unconstrained positives while a model is being optimized
    and live in (0, 1) once normalized for serialization.
    """

    alphabet: Alphabet
    freq: FrequencyTable
    rules: tuple[Rule, ...]
    weights: tuple[float, ...]
    precision: int = 4

    def __post_init__(self) -> None:
        if self.freq.alphabet != self.alphabet:
            raise ValueError("frequency table alphabet mismatch")
        if len(self.rules) != len(self.weights):
            raise ValueError("one weight per rule required")
        _check_precision(self.precision)
        k = len(self.alphabet)
        expected = singleton_rules(self.alphabet)
        if self.rules[:k] != expected:
            raise ValueError(
                "model must start with the singleton rule of every alphabet "
                "symbol in canonical order"
            )
        tail = self.rules[k:]
        if any(r.is_singleton for r in tail):
            raise ValueError("duplicate singleton rule")
        if len(set(tail)) != len(tail):
            raise ValueError("duplicate rule")
        if any(not (w > 0.0 and math.isfinite(w)) for w in self.weights):
            raise ValueError("weights must be finite and strictly positive")

    @classmethod
    def empty(cls, freq: FrequencyTable, precision: int = 4) -> "Model":
        """The singleton-only model, weighted by background probabilities."""
        rules = singleton_rules(freq.alphabet)
        weights = tuple(freq.prob(sid) for sid in range(len(freq.alphabet)))
        return cls(freq.alphabet, freq, rules, weights, precision)

    def non_singletons(self) -> tuple[Rule, ...]:
        return self.rules[len(self.alphabet) :]

    def with_weights(self, weights: Iterable[float]) -> "Model":
        return replace(self, weights=tuple(float(w) for w in weights))

    def with_rule(self, rule: Rule, weight: float) -> "Model":
        return replace(
            self,
            rules=self.rules + (rule,),
            weights=self.weights + (float(weight),),
        )


def model_code_length(m: Model) -> float:
    """Bits to transmit the rule table: its size, then every entry."""
    bits = universal_int_code_length(len(m.rules))
    for rule, w in zip(m.rules, m.weights):
        bits += rule_code_length(rule, m.freq, w, m.precision)
    return bits


def predictive_distribution(
    m: Model, history: Sequence | tuple[int, ...]
) -> np.ndarray:
    """Next-element distribution over the alphabet given the history.

    Sums the weights of the active (rule, stage) pairs per predicted
    symbol and divides by the total active weight. Singletons keep every
    entry strictly positive. One history at a time: tests use it as the
    reference for `position_distributions` and `data_code_length`.
    """
    if isinstance(history, Sequence):
        history = history.reindexed(m.alphabet)
    k = len(m.alphabet)
    mass = np.array(m.weights[:k], dtype=np.float64)
    weight = dict(zip(m.rules[k:], m.weights[k:]))
    for match in active_matches(m.rules[k:], history):
        mass[match.predicted] += weight[match.rule]
    return mass / mass.sum()


class SequenceScorer:
    """Incremental code-length state for one model on one sequence.

    Positions are partitioned into classes: two positions share a class
    when they hold the same symbol and every proper rule is active at them
    with the same number of stages (q) and of correctly predicting stages
    (p). All positions of a class then have the same total active weight
    (den) and the same weight behind the symbol that occurs (num), so the
    data bits are sum(count * (log2(den) - log2(num))) over the classes,
    and weight changes and objective calls cost O(classes), not O(n).
    `objective_evals` counts the objective evaluations made on this state
    and carries over to clones.

    Adding a rule splits the classes its active positions fall in. Removing
    one leaves the partition as it is, which stays exact, only finer than
    needed. The class-id array and the per-class rule tables are replaced,
    never changed in place, so clones share them.
    """

    def __init__(self, model: Model, s: Sequence):
        self.alphabet = model.alphabet
        self.freq = model.freq
        self.precision = model.precision
        self.s_arr = s.reindexed(model.alphabet).array
        self.k = len(model.alphabet)
        self.rules: list[Rule] = list(model.rules[: self.k])
        self.weights = np.array(model.weights[: self.k], dtype=np.float64)
        sym, cls = np.unique(self.s_arr, return_inverse=True)
        self._cls = cls.reshape(-1)
        self._sym = sym
        self._count = np.bincount(self._cls, minlength=sym.size).astype(
            np.float64
        )
        self.num = self.weights[sym]
        self.den = np.full(sym.size, float(self.weights.sum()))
        # Row i holds rule i's stage counts per class, in the smallest
        # unsigned dtype that holds them. A singleton is active everywhere
        # and predicts correctly where its symbol occurs.
        self._p = (sym == np.arange(self.k)[:, None]).astype(np.uint8)
        self._q = np.ones((self.k, sym.size), np.uint8)
        self.objective_evals = 0
        for rule, w in zip(model.rules[self.k :], model.weights[self.k :]):
            self._append(rule, float(w))
        self._recompute()

    # -- construction helpers -------------------------------------------

    def _append(self, rule: Rule, weight: float) -> None:
        """Add a rule at `weight`, first splitting the classes it touches
        so that it has one (p, q) throughout each class."""
        pos, p, q = _rule_activity(self.s_arr, rule)
        base = len(rule.consequent) + 1  # p <= q < base
        groups, inverse = np.unique(
            self._split_key(pos, p, q, base), return_inverse=True
        )
        inverse = inverse.reshape(-1)
        size = np.bincount(inverse, minlength=groups.size).astype(np.float64)
        parent = groups // (base * base)
        g = self._sym.size
        covered = np.bincount(parent, weights=size, minlength=g)
        # The first group of a class that the rule covers entirely keeps
        # the class id; every other group becomes a new class.
        first = np.ones(groups.size, dtype=bool)
        first[1:] = parent[1:] != parent[:-1]
        keep = first & (covered[parent] == self._count[parent])
        origin = parent[~keep]
        ids = parent.copy()
        ids[~keep] = g + np.arange(origin.size)
        count = self._count - covered
        count[parent[keep]] = size[keep]
        self._count = np.concatenate([count, size[~keep]])
        self._sym = np.concatenate([self._sym, self._sym[origin]])
        self.num = np.concatenate([self.num, self.num[origin]])
        self.den = np.concatenate([self.den, self.den[origin]])
        self._p = np.concatenate([self._p, self._p[:, origin]], axis=1)
        self._q = np.concatenate([self._q, self._q[:, origin]], axis=1)
        cls = self._cls.copy()
        cls[pos] = ids[inverse]
        self._cls = cls

        p_new = np.zeros(self._sym.size, p.dtype)
        q_new = np.zeros(self._sym.size, q.dtype)
        p_new[ids] = groups % base
        q_new[ids] = groups // base % base
        self._p = np.vstack([self._p, p_new])
        self._q = np.vstack([self._q, q_new])
        self.rules.append(rule)
        self.weights = np.append(self.weights, weight)
        self.num += weight * p_new
        self.den += weight * q_new

    def _split_key(
        self, pos: np.ndarray, p: np.ndarray, q: np.ndarray, base: int
    ) -> np.ndarray:
        """One integer per active position: its class, q and p, with
        p <= q < base. Equal keys land in one class once the rule is in."""
        key = (self._cls[pos] * base + q.astype(np.int64)) * base
        key += p.astype(np.int64)
        return key

    def _recompute(self) -> None:
        self._total = float(
            self._count @ (np.log2(self.den) - np.log2(self.num))
        )

    # -- queries ---------------------------------------------------------

    @property
    def data_bits(self) -> float:
        return self._total

    def model(self) -> Model:
        return Model(
            self.alphabet,
            self.freq,
            tuple(self.rules),
            tuple(float(w) for w in self.weights),
            self.precision,
        )

    def weight_objective(self, index: int):
        """Data bits as a function of rule `index`'s weight, others fixed.

        Returns (objective, current_weight); each objective call costs one
        pass over the classes where the rule is active.
        """
        w0 = float(self.weights[index])
        on = np.flatnonzero(self._q[index])
        # float64 once here, not a mixed-dtype product on every call.
        p = self._p[index, on].astype(np.float64)
        q = self._q[index, on].astype(np.float64)
        count, base_num, base_den = self._count[on], self.num[on], self.den[on]
        rest = self._total - float(
            count @ (np.log2(base_den) - np.log2(base_num))
        )

        def objective(w: float) -> float:
            self.objective_evals += 1
            d = w - w0
            return rest + float(
                count @ (np.log2(base_den + d * q) - np.log2(base_num + d * p))
            )

        return objective, w0

    def lane_objective(
        self,
        activities: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        initial: float,
    ):
        """Data bits of one tentative state per lane, as a function of an
        array of one weight per lane.

        Lane i's state is this one plus the rule whose `_rule_activity` is
        activities[i], added at weight `initial`. Each lane's positions are
        grouped by (class, q, p), which are the classes adding its rule
        would make, so an objective call costs one pass over the groups of
        all lanes and copies nothing of size n.
        """
        m = len(activities)
        base = 1 + int(max(q.max(initial=0) for _, _, q in activities))
        span = self._sym.size * base * base
        key = np.empty(sum(pos.size for pos, _, _ in activities), np.int64)
        at = 0
        for i, (pos, p, q) in enumerate(activities):
            key[at : at + pos.size] = self._split_key(pos, p, q, base)
            key[at : at + pos.size] += i * span
            at += pos.size
        groups, size = np.unique(key, return_counts=True)
        del key
        lane, cls = groups // span, groups % span // (base * base)
        p = (groups % base).astype(np.float64)
        q = (groups // base % base).astype(np.float64)
        count = size.astype(np.float64)
        base_num, base_den = self.num[cls], self.den[cls]
        rest = self._total - np.bincount(
            lane,
            weights=count * (np.log2(base_den) - np.log2(base_num)),
            minlength=m,
        )
        base_num = base_num + initial * p
        base_den = base_den + initial * q

        def objective(w: np.ndarray) -> np.ndarray:
            self.objective_evals += m
            d = (w - initial)[lane]
            return rest + np.bincount(
                lane,
                weights=count
                * (np.log2(base_den + d * q) - np.log2(base_num + d * p)),
                minlength=m,
            )

        return objective

    # -- mutations --------------------------------------------------------

    def _shift(self, index: int, delta: float) -> None:
        self.num += delta * self._p[index]
        self.den += delta * self._q[index]

    def set_weight(self, index: int, w: float) -> None:
        delta = float(w) - float(self.weights[index])
        if delta == 0.0:
            return
        self._shift(index, delta)
        self.weights[index] = float(w)
        self._recompute()

    def add_rule(self, rule: Rule, weight: float) -> None:
        self._append(rule, float(weight))
        self._recompute()

    def remove_rule(self, index: int) -> None:
        if index < self.k:
            raise ValueError("singleton rules cannot be removed")
        self._shift(index, -float(self.weights[index]))
        del self.rules[index]
        self.weights = np.delete(self.weights, index)
        self._p = np.delete(self._p, index, axis=0)
        self._q = np.delete(self._q, index, axis=0)
        self._recompute()

    def clone(self) -> "SequenceScorer":
        twin = object.__new__(SequenceScorer)
        twin.__dict__.update(self.__dict__)
        # Arrays replaced on every split are shared; these change in place.
        twin.rules = list(self.rules)
        twin.weights = self.weights.copy()
        twin.num = self.num.copy()
        twin.den = self.den.copy()
        return twin


def _stage_activity(
    ids: np.ndarray, rule: Rule
) -> Iterator[tuple[np.ndarray, int]]:
    """Per consequent stage of the rule: the sorted positions of ids where
    the stage is active, and the symbol it predicts there.

    Stage j is active at position t when antecedent plus the first j
    consequent symbols end at t - 1; an empty prefix is active everywhere.
    """
    n = ids.size
    a, c = rule.antecedent, rule.consequent
    for j in range(len(c)):
        if len(a) + j == 0:
            t = np.arange(n)
        else:
            t = match_ends(ids, a + c[:j]) + 1
            t = t[t < n]
        yield t, c[j]


def _rule_activity(
    ids: np.ndarray, rule: Rule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a rule is active in ids: sorted positions, with the number of
    stages active there (q) and of those predicting the symbol that occurs
    (p), both in the smallest unsigned dtype that holds the stage count, so
    that a block of screened activities stays small.
    """
    counts = np.min_scalar_type(len(rule.consequent))
    hits = [(t, ids[t] == sym) for t, sym in _stage_activity(ids, rule)]
    if len(hits) == 1:
        t, good = hits[0]
        return t, good.astype(counts), np.ones(t.size, counts)
    t = np.concatenate([h[0] for h in hits])
    good = np.concatenate([h[1] for h in hits])
    pos, inverse = np.unique(t, return_inverse=True)
    inverse = inverse.reshape(-1)
    q = np.bincount(inverse, minlength=pos.size).astype(counts)
    p = np.bincount(inverse, weights=good, minlength=pos.size).astype(counts)
    return pos, p, q


def data_code_length(m: Model, s: Sequence) -> float:
    """Bits to transmit s element by element under the model.

    Position t is charged -log2 of the probability the model assigns to
    s[t] given s[1, t-1]; the first element sees the empty history. One
    pass per rule over its active positions: building SequenceScorer's
    classes would cost more than a single evaluation saves.
    """
    if len(s) == 0:
        return 0.0
    ids = s.reindexed(m.alphabet).array
    k = len(m.alphabet)
    singleton_w = np.array(m.weights[:k], dtype=np.float64)
    den = np.full(ids.size, float(singleton_w.sum()))
    num = singleton_w[ids]
    for rule, w in zip(m.rules[k:], m.weights[k:]):
        pos, p, q = _rule_activity(ids, rule)
        num[pos] += w * p
        den[pos] += w * q
    return float(np.sum(np.log2(den)) - np.sum(np.log2(num)))


def total_dl(m: Model, s: Sequence) -> DLReport:
    """Two-part description length: rule table plus data given the table."""
    return DLReport(model_code_length(m), data_code_length(m, s))


def _rule_stages(
    m: Model, ids: np.ndarray
) -> list[tuple[np.ndarray, int, float]]:
    """Every (rule, stage) pair of m's proper rules on ids, in model order:
    the stage's sorted active positions, its predicted symbol and the rule
    weight."""
    k = len(m.alphabet)
    return [
        (t, sym, w)
        for rule, w in zip(m.rules[k:], m.weights[k:])
        for t, sym in _stage_activity(ids, rule)
    ]


def _distribution_rows(
    m: Model, stages: list[tuple[np.ndarray, int, float]], lo: int, hi: int
) -> np.ndarray:
    """Rows lo..hi-1 of `position_distributions`, from `_rule_stages`.

    Every entry takes the same additions in the same order whatever the
    row range, so a range is bit-identical to the same rows of the whole.
    """
    k = len(m.alphabet)
    mass = np.tile(np.array(m.weights[:k], dtype=np.float64), (hi - lo, 1))
    for t, sym, w in stages:
        a, b = np.searchsorted(t, (lo, hi))
        mass[t[a:b] - lo, sym] += w
    mass /= mass.sum(axis=1, keepdims=True)
    return mass


def position_distributions(m: Model, s: Sequence) -> np.ndarray:
    """Predictive distribution at every position of s, as an (n, k) array.

    Row t is the model's next-element distribution given s[1, t]...s[t-1],
    i.e. what the model would predict just before seeing s[t].
    """
    ids = s.reindexed(m.alphabet).array
    return _distribution_rows(m, _rule_stages(m, ids), 0, ids.size)
