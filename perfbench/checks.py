"""Output checks: cossu's results against properties and the reference code.

Every check records its outcome; a failed check is printed to standard
error with the figures that failed it and makes the run report
"correct": false.
"""

from __future__ import annotations

import sys

import reference

#: Largest relative difference allowed between cossu's bits and the reference.
BITS_RTOL = 1e-6


class Checks:
    def __init__(self) -> None:
        self.passed = 0
        self.failures: list[str] = []

    def require(self, ok: bool, what: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
            print(f"perfbench: CHECK FAILED: {what}", file=sys.stderr)
        return ok

    @property
    def ok(self) -> bool:
        return not self.failures


def _table(model):
    rules = [(r.antecedent, r.consequent) for r in model.rules]
    return rules, list(model.weights)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= BITS_RTOL * max(abs(want), 1.0)


def dl_matches_reference(checks: Checks, label: str, model, seq, report) -> None:
    """cossu's model and data bits agree with the reference code."""
    if not checks.require(seq.alphabet == model.alphabet, f"{label}: alphabet"):
        return
    rules, weights = _table(model)
    want_model = reference.model_bits(
        rules, weights, list(model.freq.counts), model.freq.n, model.precision
    )
    want_data = reference.data_bits(seq.ids, rules, weights, len(model.alphabet))
    checks.require(
        _close(report.model_bits, want_model),
        f"{label}: model bits {report.model_bits!r}, reference {want_model!r}",
    )
    checks.require(
        _close(report.data_bits, want_data),
        f"{label}: data bits {report.data_bits!r}, reference {want_data!r}",
    )


def below_empty_model(checks: Checks, label: str, report, empty_report) -> None:
    """A mined model encodes its training data in fewer bits than no rules."""
    checks.require(
        report.total < empty_report.total,
        f"{label}: mined total {report.total!r} bits is not below the "
        f"singleton-only model's {empty_report.total!r}",
    )


def planted_rules_found(checks: Checks, label: str, model, planted) -> None:
    """Every planted rule with one antecedent and one consequent symbol is
    among the mined rules."""
    mined = set(model.non_singletons())
    for rule in planted:
        if len(rule.antecedent) == len(rule.consequent) == 1:
            ant, cons = rule.tokens(model.alphabet)
            checks.require(
                rule in mined,
                f"{label}: planted rule {' '.join(ant)} -> {' '.join(cons)} "
                "was not mined",
            )


def round_trip_kept(checks: Checks, label: str, model, loaded, dl, loaded_dl) -> None:
    """A saved and reloaded model keeps its rules, weights and bits."""
    checks.require(
        loaded.rules == model.rules and loaded.weights == model.weights,
        f"{label}: rules or weights changed in a save/load round trip",
    )
    checks.require(
        loaded_dl == dl,
        f"{label}: total_dl changed in a save/load round trip: {dl} -> {loaded_dl}",
    )


def prediction_matches_reference(
    checks: Checks, label: str, model, seq, outcome
) -> None:
    """At tau = 0 every position is predicted, and the correct predictions
    are the positions whose most-backed reference symbol is the true one."""
    at0 = outcome.at(0.0)
    checks.require(
        at0.recall == 1.0, f"{label}: recall at tau=0 is {at0.recall!r}, not 1"
    )
    rules, weights = _table(model)
    hits, ties = reference.Activity(
        seq.ids, rules, weights, len(model.alphabet)
    ).argmax_hits()
    checks.require(
        abs(at0.correct - hits) <= ties,
        f"{label}: {at0.correct} correct predictions at tau=0, reference "
        f"argmax gives {hits} (near ties {ties})",
    )


def classifier_accurate(checks: Checks, label: str, got, truth) -> None:
    """At least 90% of the labelled probes get their own label."""
    accuracy = sum(g == t for g, t in zip(got, truth)) / len(truth)
    checks.require(
        len(got) == len(truth) and accuracy >= 0.9,
        f"{label}: classifier accuracy {accuracy:.3f} below 0.9",
    )
