"""Spans and counts around the calls into each cossu layer.

The tracer wraps module attributes of the imported `cossu` package while it
is entered, and puts the originals back when it exits. A span has a name, a
start, an end and the index of its parent span; spans stay in memory and
are written out once the run ends. Objective evaluations (up to 1e5 a run)
get no span of their own: they are counted and timed in aggregate, split
into singleton and proper-rule weights.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

#: Span name per wrapped function, as (module, attribute) -> span name.
FUNCTIONS = {
    ("cossu.closed", "mine_closed"): "closed.mine_closed",
    ("cossu.rules", "candidate_gains"): "rules.candidate_gains",
    ("cossu.optimize", "golden_section_minimize"): "optimize.line_search",
    ("cossu.optimize", "coordinate_step"): "optimize.step",
    ("cossu.encoding", "total_dl"): "encoding.total_dl",
    ("cossu.encoding", "position_distributions"): "encoding.position_distributions",
    ("cossu.evaluation", "evaluate_prediction"): "evaluation.evaluate_prediction",
    ("cossu.evaluation", "classify"): "evaluation.classify",
    ("cossu.evaluation", "train_classifier"): "evaluation.train_classifier",
    ("cossu.evaluation", "synth_generate"): "evaluation.synth_generate",
    ("cossu.model_io", "read_sequence"): "model_io.read_sequence",
    ("cossu.model_io", "save_model"): "model_io.save_model",
    ("cossu.model_io", "load_model"): "model_io.load_model",
}
#: SequenceScorer methods given a span each.
SCORER_METHODS = {
    "__init__": "encoding.scorer_build",
    "add_rule": "encoding.add_rule",
    "clone": "encoding.clone",
    "set_weight": "encoding.set_weight",
}
MINE = "selector.cossu_mine"
FROM_TOKENS = "sequence.from_tokens"

#: Per-layer metrics that are summed span durations, by span name.
TIMED = [
    "closed.mine_closed",
    "rules.candidate_gains",
    "optimize.line_search",
    "encoding.add_rule",
    "encoding.clone",
    "encoding.set_weight",
    "encoding.scorer_build",
    "encoding.total_dl",
    "encoding.position_distributions",
    "evaluation.evaluate_prediction",
    "evaluation.classify",
    "evaluation.train_classifier",
    "evaluation.synth_generate",
    "model_io.read_sequence",
    "model_io.save_model",
    "model_io.load_model",
    FROM_TOKENS,
]


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    if metric == "optimize.evals_per_search":
        return "evals/search"
    if metric.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self, modules: dict):
        self.modules = {
            name: m
            for name, m in modules.items()
            if name == "cossu" or name.startswith("cossu.")
        }
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._setup_end: tuple[int, Counter, Counter] | None = None

    # -- recording ---------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _in(self, name: str) -> bool:
        return bool(self._open) and self.spans[self._open[-1]][0] == name

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every cossu module attribute that is `original`."""
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        m = self.modules
        after = {
            "closed.mine_closed": self._count_patterns,
            "rules.candidate_gains": self._count_candidates,
            "optimize.step": self._count_step,
        }
        for (module, attr), name in FUNCTIONS.items():
            original = getattr(m[module], attr)
            self._replace_everywhere(original, self._wrap(name, original, after.get(name)))

        mine = m["cossu.selector"].cossu_mine
        self._replace_everywhere(mine, self._mine_wrapper(mine))

        scorer = m["cossu.encoding"].SequenceScorer
        for attr, name in SCORER_METHODS.items():
            self._set(scorer, attr, self._wrap(name, scorer.__dict__[attr]))
        self._set(scorer, "weight_objective", self._objective_wrapper(scorer.weight_objective))

        sequence = m["cossu.sequence"].Sequence
        from_tokens = sequence.__dict__["from_tokens"].__func__
        self._set(sequence, "from_tokens", classmethod(self._wrap(FROM_TOKENS, from_tokens)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def end_setup(self) -> None:
        """Mark the end of the traced set-up; what follows are rounds."""
        self._setup_end = (len(self.spans), self.counts.copy(), self.seconds.copy())

    # -- counters ----------------------------------------------------------

    def _count_patterns(self, patterns) -> None:
        self.counts["closed.patterns"] += len(patterns)

    def _count_candidates(self, scored) -> None:
        self.counts["rules.candidates"] += len(scored)
        self.counts["rules.positive_gain"] += sum(1 for _, g in scored if g > 0.0)

    def _count_step(self, committed: bool) -> None:
        self.counts["optimize.steps"] += 1
        self.counts["optimize.steps_committed"] += bool(committed)

    def _mine_wrapper(self, mine):
        tracer = self

        @functools.wraps(mine)
        def cossu_mine(s, config=None, trace=None):
            def observe(event: dict) -> None:
                if event["event"] == "candidate":
                    tracer.counts["selector.screened"] += 1
                    tracer.counts["selector.accepted"] += event["decision"] == "accept"
                elif event["event"] == "prune":
                    tracer.counts["selector.pruned"] += 1
                if trace is not None:
                    trace(event)

            return tracer._call(MINE, mine, (s, config, observe), {})

        return cossu_mine

    def _objective_wrapper(self, weight_objective):
        tracer = self

        @functools.wraps(weight_objective)
        def wrapper(scorer, index):
            objective, w0 = weight_objective(scorer, index)
            kind = "singleton" if index < scorer.k else "rule"

            def timed(w):
                start = perf_counter()
                try:
                    return objective(w)
                finally:
                    tracer.seconds[kind] += perf_counter() - start
                    tracer.counts[f"encoding.objective_evals.{kind}"] += 1
                    if tracer._in("optimize.line_search"):
                        tracer.counts["evals_in_search"] += 1

            return timed, w0

        return wrapper

    # -- results -----------------------------------------------------------

    def _phase(self, lo: int, hi: int, counts: Counter, seconds: Counter) -> dict[str, float]:
        """Per-layer totals of spans[lo:hi] and the given counters."""
        spans = self.spans
        busy: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()
        for i in range(lo, hi):
            name, start, end, parent = spans[i]
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0 and spans[parent][0] == MINE:
                child[parent] += end - start
        mine_self = sum(
            spans[i][2] - spans[i][1] - child[i]
            for i in range(lo, hi)
            if spans[i][0] == MINE
        )
        out = {f"{name}_s": busy[name] for name in TIMED}
        out["selector.self_s"] = mine_self
        out["optimize.line_searches"] = calls["optimize.line_search"]
        for name in (
            "closed.patterns",
            "rules.candidates",
            "rules.positive_gain",
            "selector.screened",
            "selector.accepted",
            "selector.pruned",
            "optimize.steps",
            "optimize.steps_committed",
            "encoding.objective_evals.singleton",
            "encoding.objective_evals.rule",
            "evals_in_search",
        ):
            out[name] = counts[name]
        for kind in ("singleton", "rule"):
            out[f"encoding.objective_s.{kind}"] = seconds[kind]
        return out

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures of one set-up plus one round: the traced
        set-up, plus the traced rounds' totals divided by their number."""
        mark, setup_counts, setup_seconds = self._setup_end
        setup = self._phase(0, mark, setup_counts, setup_seconds)
        rest = self._phase(
            mark, len(self.spans), self.counts - setup_counts, self.seconds - setup_seconds
        )
        total = {k: setup[k] + rest[k] / rounds for k in setup}
        searches = total["optimize.line_searches"]
        screened = total["selector.screened"]
        total["optimize.evals_per_search"] = (
            total.pop("evals_in_search") / searches if searches else 0.0
        )
        total["selector.accept_ratio"] = (
            total["selector.accepted"] / screened if screened else 0.0
        )
        return {k: (v, unit_of(k)) for k, v in sorted(total.items())}

    def write(self, path: Path) -> None:
        """All spans and counters, as JSON."""
        path.write_text(
            json.dumps(
                {
                    "spans": self.spans,
                    "setup_spans": self._setup_end[0] if self._setup_end else None,
                    "counts": dict(self.counts),
                    "objective_s": dict(self.seconds),
                }
            )
        )
