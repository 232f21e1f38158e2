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

    Each rule keeps its (p, q) per class, its row, in a list aligned with
    `rules`. Adding a rule splits the classes by (class, q, p), which gives
    its row; a new class lies inside its parent, so every earlier row
    carries over. Removing a rule drops its row and leaves the partition
    exact, only finer than needed. Clones share the class ids, rows and
    histograms: a split replaces them rather than changing them.
    """

    def __init__(self, model: Model, s: Sequence):
        self.alphabet = model.alphabet
        self.freq = model.freq
        self.precision = model.precision
        self.s_arr = s.reindexed(model.alphabet).array
        self.k = len(model.alphabet)
        self.rules: list[Rule] = list(model.rules[: self.k])
        self.weights = np.array(model.weights[: self.k], dtype=np.float64)
        self._sym, self._cls, count = np.unique(
            self.s_arr, return_inverse=True, return_counts=True
        )
        self._count = count.astype(np.float64)
        self.num = self.weights[self._sym]
        self.den = np.full(self._sym.size, float(self.weights.sum()))
        self.objective_evals = 0
        # Per nonempty stage prefix: active positions, class counts.
        self._after, self._hist = {}, {}
        ones = np.ones(self._sym.size, np.uint8)  # singletons act everywhere
        self._rows = [((self._sym == i).astype(np.uint8), ones) for i in range(self.k)]
        for rule, w in zip(model.rules[self.k :], model.weights[self.k :]):
            self._append(rule, float(w))
        self._recompute()

    # -- construction helpers -------------------------------------------

    def _append(self, rule: Rule, weight: float) -> None:
        """Add a rule at `weight`, first relabelling the classes by
        (class, q, p) so that the rule has one (p, q) throughout each:
        each active stage adds base to a position's q * base + p, and 1
        more where it predicts the symbol there."""
        base = len(rule.consequent) + 1  # p <= q < base
        key = self._cls * (base * base)
        for t, sym in _stage_activity(self.s_arr, rule):
            key[t] += base + (self.s_arr[t] == sym)
        groups, self._cls, count = np.unique(
            key, return_inverse=True, return_counts=True
        )
        self._count = count.astype(np.float64)
        parent, qp = np.divmod(groups, base * base)
        self._sym, self.num, self.den = (
            self._sym[parent], self.num[parent], self.den[parent]
        )
        self._rows = [(p[parent], q[parent]) for p, q in self._rows]
        # Cast after the divmod: qp itself may not fit the counts' type.
        q, p = np.divmod(qp, base)
        counts = np.min_scalar_type(len(rule.consequent))
        self._rows.append((p.astype(counts), q.astype(counts)))
        # Rebound, not cleared: clones share it with the old partition.
        self._hist = {}
        self.rules.append(rule)
        self.weights = np.append(self.weights, weight)
        self._shift(len(self.rules) - 1, weight)

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
        p, q = self._rows[index]
        on = np.flatnonzero(q)
        # float64 once here, not a mixed-dtype product on every call.
        p, q = p[on].astype(np.float64), q[on].astype(np.float64)
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

    def _histogram(self, prefix: tuple[int, ...]) -> np.ndarray:
        """Class counts where a stage with this prefix is active."""
        if not prefix:
            return self._count  # active everywhere; not to be written to
        if prefix not in self._hist:
            at = self._after.get(prefix)
            if at is None:
                at = self._after[prefix] = _active(self.s_arr, prefix)
            self._hist[prefix] = np.bincount(
                self._cls[at], minlength=self._sym.size
            )
        return self._hist[prefix]

    def _nesting(self, rule: Rule, base: int) -> tuple[np.ndarray, np.ndarray]:
        """Per stage of the rule and class: how many positions have the
        stage innermost, and q * base + p there.

        Two stages are active together only where one prefix is a suffix of
        the other, so each nests in the longest such shorter one. Where a
        stage is innermost (its histogram less its children's) q is its
        depth and p counts its chain's stages that predict there. Only the
        screening lanes read this: a rule in the scorer keeps its row."""
        a, c = rule.antecedent, rule.consequent
        prefixes = [a + c[:j] for j in range(len(c))]
        # The last row stands for no stage.
        inner = np.zeros((len(c) + 1, self._sym.size))
        inner[:-1] = [self._histogram(prefix) for prefix in prefixes]
        qp = np.zeros(inner.shape, np.int64)
        for j, prefix in enumerate(prefixes):
            up = j - 1
            while up >= 0 and prefix[j - up :] != prefixes[up]:
                up -= 1
            qp[j] = qp[up] + base + (self._sym == c[j])
            inner[up] -= inner[j]  # row j is whole: its children follow
        return inner[:-1], qp[:-1]

    def lane_objective(self, rules: list[Rule], initial: float):
        """Data bits of one tentative state per lane, as a function of an
        array of one weight per lane.

        Lane i's state is this one plus rules[i] at weight `initial`. Its
        positions are grouped by (class, q, p), the classes adding the rule
        would make, from the rule's `_nesting`.
        """
        m, g = len(rules), self._sym.size
        base = 1 + max(len(rule.consequent) for rule in rules)
        span = g * base * base
        keys, sizes = [], []
        for i, rule in enumerate(rules):
            inner, qp = self._nesting(rule, base)
            stage, on = np.nonzero(inner)
            keys.append(i * span + on * base * base + qp[stage, on])
            sizes.append(inner[stage, on])
        groups, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        count = np.bincount(inverse, weights=np.concatenate(sizes))
        lane, cls = groups // span, groups % span // (base * base)
        p = (groups % base).astype(np.float64)
        q = (groups // base % base).astype(np.float64)
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
        p, q = self._rows[index]
        self.num += delta * p
        self.den += delta * q

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
        del self.rules[index], self._rows[index]
        self.weights = np.delete(self.weights, index)
        self._recompute()

    def clone(self) -> "SequenceScorer":
        twin = object.__new__(SequenceScorer)
        twin.__dict__.update(self.__dict__)
        # Partition, row arrays, histograms shared; these change in place.
        twin.rules, twin._rows = list(self.rules), list(self._rows)
        twin.weights = self.weights.copy()
        twin.num = self.num.copy()
        twin.den = self.den.copy()
        return twin


def _active(ids: np.ndarray, prefix: tuple[int, ...]) -> np.ndarray:
    """Sorted positions of ids where a stage with this prefix is active:
    just after each match of the prefix, and everywhere for the empty one."""
    if not prefix:
        return np.arange(ids.size)
    t = match_ends(ids, prefix) + 1
    return t[t < ids.size]


def _stage_activity(
    ids: np.ndarray, rule: Rule
) -> Iterator[tuple[np.ndarray, int]]:
    """Per consequent stage of the rule: its sorted, distinct active
    positions in ids, and the symbol it predicts there. Scoring,
    prediction and the scorer's relabelling all read this one scan."""
    a, c = rule.antecedent, rule.consequent
    for j in range(len(c)):
        yield _active(ids, a + c[:j]), c[j]


def data_code_length(m: Model, s: Sequence) -> float:
    """Bits to transmit s element by element under the model.

    Position t is charged -log2 of the probability the model assigns to
    s[t] given s[1, t-1]; the first element sees the empty history. One
    pass per (rule, stage) pair of `_rule_stages` over its active
    positions: building SequenceScorer's classes would cost more than a
    single evaluation saves.
    """
    if len(s) == 0:
        return 0.0
    ids = s.reindexed(m.alphabet).array
    k = len(m.alphabet)
    singleton_w = np.array(m.weights[:k], dtype=np.float64)
    den = np.full(ids.size, float(singleton_w.sum()))
    num = singleton_w[ids]
    for t, sym, w in _rule_stages(m, ids):
        den[t] += w
        num[t[ids[t] == sym]] += w
    np.log2(den, out=den)
    np.log2(num, out=num)
    return float(np.sum(den) - np.sum(num))


def total_dl(m: Model, s: Sequence) -> DLReport:
    """Two-part description length: rule table plus data given the table."""
    return DLReport(model_code_length(m), data_code_length(m, s))


def _rule_stages(
    m: Model, ids: np.ndarray
) -> list[tuple[np.ndarray, int, float]]:
    """Every (rule, stage) pair of m's proper rules on ids, in model order:
    the stage's sorted active positions, its predicted symbol and the rule
    weight. Scoring and prediction both add the weights in this order."""
    k = len(m.alphabet)
    return [
        (t, sym, w)
        for rule, w in zip(m.rules[k:], m.weights[k:])
        for t, sym in _stage_activity(ids, rule)
    ]


def _mass_columns(
    m: Model,
    stages: list[tuple[np.ndarray, int, float]],
    symbols: np.ndarray,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows lo..hi-1 of the predictive distributions before normalising:
    one mass column per symbol of `symbols` (ascending ids), as a
    (symbols, hi - lo) array, and each row's total active weight.

    A symbol's mass is its singleton weight plus the weight of each active
    stage that predicts it; the total is the singleton weights' sum plus
    the weight of every active stage. Both add the stages in `_rule_stages`
    order, so an entry is bit-identical whatever the row range and the
    symbols asked for.
    """
    k = len(m.alphabet)
    singles = np.array(m.weights[:k], dtype=np.float64)
    mass = np.repeat(singles[symbols, None], hi - lo, axis=1)
    total = np.full(hi - lo, singles.sum())
    column = {sym: j for j, sym in enumerate(symbols.tolist())}
    for t, sym, w in stages:
        a, b = np.searchsorted(t, (lo, hi))
        at = t[a:b] - lo
        total[at] += w
        if sym in column:
            mass[column[sym], at] += w
    return mass, total


def position_distributions(m: Model, s: Sequence) -> np.ndarray:
    """Predictive distribution at every position of s, as an (n, k) array.

    Row t is the model's next-element distribution given s[1, t]...s[t-1],
    i.e. what the model would predict just before seeing s[t]: every
    symbol's mass column from `_mass_columns`, divided by the row's total
    active weight. The array is the transpose of a (k, n) one, so each
    symbol's column is contiguous.
    """
    ids = s.reindexed(m.alphabet).array
    k = len(m.alphabet)
    mass, total = _mass_columns(
        m, _rule_stages(m, ids), np.arange(k), 0, ids.size
    )
    mass /= total
    return mass.T
