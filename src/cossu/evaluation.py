"""Experiment machinery: planted-rule synthesis, hit rate, next-element
prediction with abstention, baselines, and the compression classifier."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .encoding import (
    Model,
    _distribution_rows,
    _rule_stages,
    data_code_length,
    predictive_distribution,
)
from .rules import Rule
from .selector import MiningConfig, cossu_mine
from .sequence import Alphabet, Sequence, match_ends

DEFAULT_TAUS = tuple(round(0.05 * i, 2) for i in range(20))

#: Rows of a model's predictive distributions held at once while
#: `evaluate_prediction` reduces them: 10 MB of float64 at k = 20.
PREDICTION_BLOCK = 65_536


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a random sequence with planted sequential rules.

    The base draw is i.i.d. from the symbol distribution; after every
    antecedent match in the base draw the rule's consequent is inserted
    with probability `insertion_probability`, then the result is truncated
    back to `length` elements.
    """

    length: int = 5000
    alphabet: tuple[str, ...] = ("A", "B", "C", "D", "E")
    distribution: Mapping[str, float] | None = None
    rules: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (
        (("A",), ("B",)),
    )
    insertion_probability: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be positive")
        if not 0.0 <= self.insertion_probability <= 1.0:
            raise ValueError("insertion probability must lie in [0, 1]")
        if self.distribution is not None:
            missing = set(self.distribution) - set(self.alphabet)
            if missing or set(self.alphabet) - set(self.distribution):
                raise ValueError("distribution must cover the alphabet")
            total = sum(self.distribution.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError("distribution must sum to 1")


def synth_generate(spec: SyntheticSpec) -> tuple[Sequence, tuple[Rule, ...]]:
    """Generate a sequence per the spec; deterministic for a fixed seed.

    Rules are applied in listed order against the base draw only, so an
    inserted consequent never spawns further antecedent matches. Returns
    the sequence together with the planted rules interned over its
    alphabet.
    """
    alphabet = Alphabet(spec.alphabet)
    k = len(alphabet)
    if spec.distribution is None:
        probs = np.full(k, 1.0 / k)
    else:
        probs = np.array(
            [spec.distribution[alphabet.token_of(i)] for i in range(k)]
        )
        probs = probs / probs.sum()
    targets = tuple(
        Rule.from_tokens(alphabet, ant, cons) for ant, cons in spec.rules
    )

    rng = np.random.default_rng(spec.seed)
    base = rng.choice(k, size=spec.length, p=probs).astype(np.int64)

    ip = spec.insertion_probability
    # Insertion points after base positions, in rule order: a stable
    # insert keeps that order where several rules insert at one point.
    at: list[int] = []
    inserted: list[int] = []
    for rule in targets:
        ant = rule.antecedent
        if ant:
            ends = match_ends(base, ant)
        else:
            ends = np.arange(spec.length)
        for e in ends:
            if rng.random() < ip:
                at += [int(e) + 1] * len(rule.consequent)
                inserted += rule.consequent
    out = np.insert(base, at, inserted)[: spec.length]
    return Sequence(alphabet, out), targets


def hit_rate(
    models: Iterable[Model],
    targets: Iterable[Rule],
    alphabet: Alphabet,
) -> float:
    """Percentage of models whose proper rule set equals the target set.

    Exact set equality on (antecedent, consequent) token pairs; weights
    are ignored.
    """
    models = list(models)
    if not models:
        raise ValueError("no models to evaluate")
    wanted = {r.tokens(alphabet) for r in targets}
    hits = sum(
        1
        for m in models
        if {r.tokens(m.alphabet) for r in m.non_singletons()} == wanted
    )
    return 100.0 * hits / len(models)


def predict_next(
    m: Model, history: Sequence | tuple[int, ...], tau: float
) -> int | None:
    """Most probable next symbol id, or None when below the threshold.

    Ties break toward the canonically first symbol.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    dist = predictive_distribution(m, history)
    best = int(np.argmax(dist))
    return best if dist[best] > tau else None


@dataclass(frozen=True)
class ThresholdMetrics:
    tau: float
    predicted: int
    correct: int
    total: int

    @property
    def precision(self) -> float:
        return self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        """Share of events for which a prediction was ventured."""
        return self.predicted / self.total if self.total else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class PredictionOutcome:
    metrics: tuple[ThresholdMetrics, ...]
    roc_points: tuple[tuple[float, float], ...]  # (recall, precision)
    auc: float

    def at(self, tau: float) -> ThresholdMetrics:
        for tm in self.metrics:
            if abs(tm.tau - tau) < 1e-12:
                return tm
        raise KeyError(f"no metrics for threshold {tau}")


class BigramPredictor:
    """Successor-frequency table of a training sequence.

    Predicts the most frequent follower of the current symbol when its
    conditional frequency clears the threshold; the first position, having
    no current symbol, always abstains.
    """

    def __init__(self, train: Sequence):
        if len(train) < 2:
            raise ValueError("bigram baseline needs at least two elements")
        self.alphabet = train.alphabet
        k = len(train.alphabet)
        table = np.zeros((k, k), dtype=np.float64)
        np.add.at(table, (train.array[:-1], train.array[1:]), 1.0)
        row = table.sum(axis=1, keepdims=True)
        np.divide(table, row, out=table, where=row > 0)
        self.table = table

    def choices(self, s: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Per position of s, the top frequency and the symbol it picks."""
        prev = s.reindexed(self.alphabet).array[:-1]
        top = np.zeros(len(s))
        pick = np.zeros(len(s), dtype=np.int64)
        top[1:] = self.table.max(axis=1)[prev]
        pick[1:] = self.table.argmax(axis=1)[prev]
        return top, pick


class UniformPredictor:
    """Chance-level baseline: constant 1/k confidence in every symbol."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def choices(self, s: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Per position of s, confidence 1/k in the first symbol."""
        n = len(s)
        return np.full(n, 1.0 / len(self.alphabet)), np.zeros(n, dtype=np.int64)


def bigram_baseline(train: Sequence) -> BigramPredictor:
    return BigramPredictor(train)


def _model_choices(m: Model, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per position of ids, the model's top probability and the symbol it
    picks, reduced from `position_distributions` one block of rows at a
    time so that memory stays bounded in n."""
    stages = _rule_stages(m, ids)
    top = np.empty(ids.size)
    pick = np.empty(ids.size, dtype=np.int64)
    for lo in range(0, ids.size, PREDICTION_BLOCK):
        hi = min(lo + PREDICTION_BLOCK, ids.size)
        rows = _distribution_rows(m, stages, lo, hi)
        top[lo:hi] = rows.max(axis=1)
        pick[lo:hi] = rows.argmax(axis=1)
    return top, pick


def evaluate_prediction(
    predictor: Model | BigramPredictor | UniformPredictor,
    test: Sequence,
    taus: Iterable[float] = DEFAULT_TAUS,
) -> PredictionOutcome:
    """Predict every element of `test` from its full preceding history.

    At each threshold the predictor answers only when its confidence
    clears the threshold; abstentions lower recall but never precision.
    The recall/precision points over the sweep are summarized by a
    trapezoidal area.
    """
    truth = test.reindexed(predictor.alphabet).array
    n = truth.size
    if n == 0:
        raise ValueError("empty input")
    if isinstance(predictor, Model):
        top, pick = _model_choices(predictor, truth)
    else:
        top, pick = predictor.choices(test)
    good = pick == truth
    metrics = []
    for tau in taus:
        answer = top > tau
        metrics.append(
            ThresholdMetrics(
                tau=float(tau),
                predicted=int(answer.sum()),
                correct=int((answer & good).sum()),
                total=n,
            )
        )
    points = sorted((tm.recall, tm.precision) for tm in metrics)
    auc = 0.0
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        auc += (x2 - x1) * (y1 + y2) / 2.0
    return PredictionOutcome(tuple(metrics), tuple(points), auc)


@dataclass(frozen=True)
class ClassifierModel:
    """One mined model per class label, all over a shared alphabet."""

    models: Mapping[str, Model]

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("at least one class required")
        alphabets = {m.alphabet for m in self.models.values()}
        if len(alphabets) != 1:
            raise ValueError("class models must share one alphabet")

    @property
    def alphabet(self) -> Alphabet:
        return next(iter(self.models.values())).alphabet

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.models))


def train_classifier(
    training: Mapping[str, Sequence | Iterable[Sequence]],
    config: MiningConfig | None = None,
) -> ClassifierModel:
    """Mine one model per class from its concatenated training material.

    All classes are interned over the union alphabet so any class model
    can score any instance.
    """
    if not training:
        raise ValueError("at least one class required")
    per_class: dict[str, list[Sequence]] = {}
    for label in sorted(training):
        value = training[label]
        seqs = [value] if isinstance(value, Sequence) else list(value)
        if not seqs:
            raise ValueError(f"class {label!r} has no training data")
        per_class[label] = seqs

    shared: Alphabet | None = None
    for seqs in per_class.values():
        for q in seqs:
            shared = q.alphabet if shared is None else shared.union(q.alphabet)
    assert shared is not None

    models: dict[str, Model] = {}
    for label, seqs in per_class.items():
        ids = np.concatenate([q.reindexed(shared).array for q in seqs])
        models[label] = cossu_mine(Sequence(shared, ids), config)
    return ClassifierModel(models)


def classify(clf: ClassifierModel, s: Sequence) -> str:
    """Label whose model spends the fewest data bits on s.

    Ties break toward the canonically first class name.
    """
    best_label: str | None = None
    best_bits = float("inf")
    for label in clf.labels:
        bits = data_code_length(clf.models[label], s)
        if bits < best_bits:
            best_label, best_bits = label, bits
    assert best_label is not None
    return best_label
