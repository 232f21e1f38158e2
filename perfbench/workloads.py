"""The benchmark's workloads: inputs from a seed, set-up, timed rounds,
metrics and output checks.

A run sets up its inputs several times (the median is `setup_s`), then
repeats whole rounds of the same operations on the same inputs for about
the requested number of seconds: it stops once less than half a round's
time is left. Rates are medians over every pass of a step in the run;
`mine_s` is a median over rounds. Outputs of every pass and round must
equal those of the first, and the last round's outputs are checked against
the reference code.

cossu is called through attributes of the `cossu` package at call time,
so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import cossu as api

import checks as chk
import tracing

K5 = ("A", "B", "C", "D", "E")
K20 = tuple(chr(ord("A") + i) for i in range(20))


def _rules(*texts: str):
    out = []
    for text in texts:
        ant, cons = text.split("->")
        out.append((tuple(ant.split()), tuple(cons.split())))
    return tuple(out)


def _mirrored(rules):
    """The same rule shapes over the alphabet read backwards (A <-> T)."""
    flip = {t: K20[len(K20) - 1 - i] for i, t in enumerate(K20)}
    return tuple(
        (tuple(flip[t] for t in ant), tuple(flip[t] for t in cons))
        for ant, cons in rules
    )


K5_RULES = _rules("A -> B")
K20_RULES = _rules(
    "A -> B", "C D -> E", "F -> G H", "I J -> K L", "M -> N", "O P Q -> R"
)

#: Share of each planted sequence that is mined; prediction runs on the rest.
TRAIN_SHARE = 0.8
TAUS = (0.0, 0.3)
#: Set-ups per run; `setup_s` is their median.
SETUP_REPS = 3


@dataclasses.dataclass(frozen=True)
class Classifier:
    """Two classes of planted rules over one alphabet: one training
    sequence per class, and labelled probes cut from a fresh sequence of
    each class."""

    rules_x: tuple
    rules_y: tuple
    train_length: int
    probes_per_class: int
    probe_length: int


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    alphabet: tuple[str, ...]
    rules: tuple
    insertion_probability: float
    #: planted: symbols per mined sequence; apply: held-out symbols.
    length: int
    #: planted: sequences mined per round; apply: 0 (nothing mined in rounds).
    sequences: int
    classifier: Classifier
    #: Passes of the short steps (read, classify, score, predict) after each
    #: mining call. Rates are medians over passes; steps of a few
    #: milliseconds need many, interleaved, to even out the host's speed.
    repeats: int = 1
    #: The paper's prediction claim against the baselines (holds on k5 only).
    check_f1: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-k5", K5, K5_RULES, 0.5, 5_000, 4,
            Classifier(K5_RULES, _rules("C -> D"), 2_000, 50, 200),
            repeats=30,
            check_f1=True,
        ),
        Workload(
            "planted-k20", K20, K20_RULES, 0.6, 12_500, 3,
            Classifier(K20_RULES, _mirrored(K20_RULES), 2_000, 50, 300),
            repeats=30,
        ),
        Workload(
            "apply-k20", K20, K20_RULES, 0.6, 1_000_000, 0,
            Classifier(K20_RULES, _mirrored(K20_RULES), 2_000, 500, 300),
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in a few seconds."""
    c = dataclasses.replace(
        w.classifier, train_length=1_500, probes_per_class=10, probe_length=200
    )
    length = 20_000 if w.sequences == 0 else 2_500
    return dataclasses.replace(
        w, length=length, sequences=min(w.sequences, 1), classifier=c,
        repeats=min(w.repeats, 2),
    )


def _synth(alphabet, rules, ip, length, seed):
    spec = api.SyntheticSpec(
        length=length,
        alphabet=alphabet,
        rules=rules,
        insertion_probability=ip,
        seed=seed,
    )
    return api.synth_generate(spec)


#: Seeds of the two classifier training sequences. They do not depend on
#: the run seed, so every run applies the same class models (and apply-k20
#: the same model) to fresh probes and held-out data: rates then vary with
#: the data, not with which rules a short training sequence happened to give.
CLASSIFIER_SEEDS = (2**31, 2**31 + 1)


class Inputs:
    """Everything a round needs, made from the workload seed."""

    def __init__(self, w: Workload, seed: int, workdir: Path):
        base = seed * 1_000
        ip = w.insertion_probability
        c = w.classifier
        classes = (("x", c.rules_x), ("y", c.rules_y))
        self.class_train = {}
        self.class_targets = {}
        for (label, rules), class_seed in zip(classes, CLASSIFIER_SEEDS):
            seq, targets = _synth(w.alphabet, rules, ip, c.train_length, class_seed)
            self.class_train[label] = seq
            self.class_targets[label] = targets
        start = time.perf_counter()
        self.clf = api.train_classifier(self.class_train)
        self.setup_mine_s = time.perf_counter() - start

        self.probes, self.labels = [], []
        size = c.probe_length
        for j, (label, rules) in enumerate(classes):
            long, _ = _synth(
                w.alphabet, rules, ip, c.probes_per_class * size, base + 200 + j
            )
            for p in range(c.probes_per_class):
                self.probes.append(long.segment(p * size + 1, (p + 1) * size))
                self.labels.append(label)

        self.files = []  # (path, generated ids)
        for i in range(w.sequences or 1):
            seq, self.targets = _synth(w.alphabet, w.rules, ip, w.length, base + i)
            path = workdir / f"sequence{i}.txt"
            api.write_sequence(seq, path)
            self.files.append((path, seq.ids))
        self.alphabet = seq.alphabet
        self.model_path = workdir / "model.json"
        if not w.sequences:
            # The applied model was mined in set-up and goes through a file,
            # as a user's saved model would.
            api.save_model(self.clf.models["x"], self.model_path)
            self.model = api.load_model(self.model_path)


class OpFailed(Exception):
    """An operation of a round raised; the run stops its rounds."""


class Ops:
    """Counts attempted and failed operations and times each one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc()
            raise OpFailed(str(exc)) from exc
        return result, time.perf_counter() - start


class Round:
    """The timed passes of one round, and its outputs."""

    def __init__(self) -> None:
        #: kind -> [(work, seconds)], one entry per pass.
        self.passes: dict[str, list[tuple[float, float]]] = {}
        self.mine_s = 0.0
        self.mined = []  # (model, loaded model, train, test, report, outcome)
        self.heldout = None
        self.report = None
        self.outcome = None
        self.labels: list[str] | None = None
        self.read_ok = True
        self.passes_agree = True
        self.wall = 0.0

    def timed(self, kind: str, work: float, step):
        """One pass of `step`, which returns a result and its seconds."""
        result, seconds = step()
        self.passes.setdefault(kind, []).append((work, seconds))
        return result

    def short_steps(self, ops: Ops, inputs: Inputs, path, ids, model, reps: int, score_on=None, predict_on=None):
        """`reps` passes of: read the file, classify every probe, score
        `score_on` and predict `predict_on` (both default to the sequence
        read). Returns the outputs of the first pass; every pass must give
        the same outputs."""
        first = None
        for _ in range(reps):
            seq = self.timed(
                "read", len(ids),
                lambda: ops.call(api.read_sequence, path, False, inputs.alphabet),
            )
            labels = self.timed(
                "classify", len(inputs.probes), lambda: _classify(ops, inputs)
            )
            scored = seq if score_on is None else score_on
            report = self.timed(
                "score", len(scored), lambda: ops.call(api.total_dl, model, scored)
            )
            predicted = seq if predict_on is None else predict_on
            outcome = self.timed(
                "predict", len(predicted),
                lambda: ops.call(api.evaluate_prediction, model, predicted, TAUS),
            )
            outputs = (seq, labels, report, outcome)
            first = first or outputs
            self.passes_agree = self.passes_agree and outputs == first
        self.read_ok = self.read_ok and first[0].ids == ids
        self.passes_agree = self.passes_agree and self.labels in (None, first[1])
        self.labels = first[1]
        return first

    def fingerprint(self):
        return (
            [api.model_to_json(m) for m, *_ in self.mined],
            [(r, o) for *_, r, o in self.mined],
            self.report,
            self.outcome,
            self.labels,
        )


def _classify(ops: Ops, inputs: Inputs):
    labels, seconds = [], 0.0
    for probe in inputs.probes:
        label, dt = ops.call(api.classify, inputs.clf, probe)
        labels.append(label)
        seconds += dt
    return labels, seconds


def planted_round(w: Workload, inputs: Inputs, ops: Ops) -> Round:
    """Per sequence file: read it, mine its first 80%, save and reload the
    model; then passes of the short steps, which score the mined part with
    the model and predict the rest.

    The short steps run after each mining call, so their passes are spread
    over the whole round."""
    out = Round()
    for path, ids in inputs.files:
        seq = out.timed(
            "read", len(ids),
            lambda: ops.call(api.read_sequence, path, False, inputs.alphabet),
        )
        cut = int(len(seq) * TRAIN_SHARE)
        train, test = seq.segment(1, cut), seq.segment(cut + 1, len(seq))
        model, dt = ops.call(api.cossu_mine, train)
        out.mine_s += dt
        ops.call(api.save_model, model, inputs.model_path)
        loaded, _ = ops.call(api.load_model, inputs.model_path)
        _, _, report, outcome = out.short_steps(
            ops, inputs, path, ids, model, w.repeats, train, test
        )
        out.mined.append((model, loaded, train, test, report, outcome))
    return out


def apply_round(w: Workload, inputs: Inputs, ops: Ops) -> Round:
    """Passes of the short steps with the applied model on the held-out
    file: read it, classify the probes, score and predict it."""
    out = Round()
    path, ids = inputs.files[0]
    out.heldout, _, out.report, out.outcome = out.short_steps(
        ops, inputs, path, ids, inputs.model, w.repeats
    )
    return out


def run_rounds(w: Workload, inputs: Inputs, ops: Ops, seconds: float) -> list[Round]:
    """Whole rounds until less than half a round of the budget is left."""
    round_fn = planted_round if w.sequences else apply_round
    rounds: list[Round] = []
    spent = 0.0
    while True:
        start = time.perf_counter()
        try:
            r = round_fn(w, inputs, ops)
        except OpFailed:
            break
        r.wall = time.perf_counter() - start
        rounds.append(r)
        spent += r.wall
        if spent + 0.5 * spent / len(rounds) >= seconds:
            break
    return rounds


def _rate(rounds: list[Round], kind: str) -> float:
    """Median over every pass of the run of work done per second."""
    return statistics.median(
        work / seconds for r in rounds for work, seconds in r.passes[kind]
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    w: Workload, setups: list[tuple[float, float]], rounds: list[Round], total_bits: float, rss: float
) -> dict[str, tuple[float, str]]:
    if w.sequences:
        mine_s = statistics.median(r.mine_s for r in rounds)
    else:
        mine_s = statistics.median(m for _, m in setups)
    return {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "mine_s": (mine_s, "s"),
        "total_bits": (total_bits, "bits"),
        "read_symbols_per_s": (_rate(rounds, "read"), "symbols/s"),
        "score_symbols_per_s": (_rate(rounds, "score"), "symbols/s"),
        "predict_symbols_per_s": (_rate(rounds, "predict"), "symbols/s"),
        "classify_probes_per_s": (_rate(rounds, "classify"), "probes/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def check_outputs(w: Workload, inputs: Inputs, rounds: list[Round]) -> tuple[chk.Checks, float]:
    """Check the last round against the reference code and properties,
    and every round against the first. Returns the checks and the total
    bits: of the mined models on their training parts (planted), or of the
    applied model on the held-out sequence (apply)."""
    checks = chk.Checks()
    first = rounds[0].fingerprint()
    for i, r in enumerate(rounds):
        checks.require(r.read_ok, f"round {i}: read_sequence did not return the generated ids")
        checks.require(r.passes_agree, f"round {i}: a repeated pass returned another output")
        checks.require(r.fingerprint() == first, f"round {i}: outputs differ from round 0")
    last = rounds[-1]

    for label, model in inputs.clf.models.items():
        train = inputs.class_train[label]
        report = api.total_dl(model, train)
        _check_mined(checks, f"class {label} model", model, train, report, inputs.class_targets[label])
    checks.require(
        [m.alphabet for m in inputs.clf.models.values()] == [inputs.alphabet] * 2,
        "class models are not over the workload alphabet",
    )
    chk.classifier_accurate(checks, "probes", last.labels, inputs.labels)

    if not w.sequences:
        chk.round_trip_kept(
            checks, "applied model", inputs.clf.models["x"], inputs.model,
            api.total_dl(inputs.clf.models["x"], inputs.class_train["x"]),
            api.total_dl(inputs.model, inputs.class_train["x"]),
        )
        chk.dl_matches_reference(checks, "held-out", inputs.model, last.heldout, last.report)
        chk.prediction_matches_reference(checks, "held-out", inputs.model, last.heldout, last.outcome)
        return checks, last.report.total

    for i, (model, loaded, train, test, report, outcome) in enumerate(last.mined):
        label = f"sequence {i}"
        _check_mined(checks, label, model, train, report, inputs.targets)
        chk.round_trip_kept(checks, label, model, loaded, report, api.total_dl(loaded, train))
        chk.prediction_matches_reference(checks, label, model, test, outcome)
    if w.check_f1:
        _check_f1_claim(checks, last.mined)
    return checks, sum(report.total for *_, report, _ in last.mined)


def _check_f1_claim(checks, mined) -> None:
    """F1 at tau 0.3, pooled over the mined sequences' test parts, is within
    0.02 of the bigram baseline's or above it, and 0.1 above uniform's."""
    pooled = {"model": [0, 0, 0], "bigram": [0, 0, 0], "uniform": [0, 0, 0]}
    for _, _, train, test, _, outcome in mined:
        for name, outcome_of in (
            ("model", outcome),
            ("bigram", api.evaluate_prediction(api.bigram_baseline(train), test, TAUS)),
            ("uniform", api.evaluate_prediction(api.evaluation.UniformPredictor(train.alphabet), test, TAUS)),
        ):
            tm = outcome_of.at(0.3)
            for j, v in enumerate((tm.predicted, tm.correct, tm.total)):
                pooled[name][j] += v
    f1 = {name: api.ThresholdMetrics(0.3, *counts).f1 for name, counts in pooled.items()}
    checks.require(
        f1["model"] >= f1["bigram"] - 0.02 and f1["model"] >= f1["uniform"] + 0.1,
        f"F1@0.3 {f1['model']:.3f}: not within 0.02 of bigram {f1['bigram']:.3f} "
        f"or not 0.1 above uniform {f1['uniform']:.3f}",
    )


def _check_mined(checks, label, model, train, report, targets) -> None:
    chk.dl_matches_reference(checks, label, model, train, report)
    empty = api.Model.empty(model.freq, model.precision)
    chk.below_empty_model(checks, label, report, api.total_dl(empty, train))
    chk.planted_rules_found(checks, label, model, targets)


def run(w: Workload, seed: int, seconds: float, trace_file: Path | None, workdir: Path):
    """One benchmark run, traced when `trace_file` is given (the spans are
    written there). Returns the result object and the run's details."""
    trace = trace_file is not None
    ops = Ops()
    setups = []
    for _ in range(1 if trace else SETUP_REPS):
        start = time.perf_counter()
        inputs = Inputs(w, seed, workdir)
        setups.append((time.perf_counter() - start, inputs.setup_mine_s))
    details: dict = {"setup_s": [s for s, _ in setups]}
    if not trace:
        rounds = run_rounds(w, inputs, ops, seconds)
        rss = peak_rss_mb()
    else:
        plain = run_rounds(w, inputs, ops, seconds / 2)
        tracer = tracing.Tracer(sys.modules)
        with tracer:
            inputs = Inputs(w, seed, workdir)
            tracer.end_setup()
            rounds = run_rounds(w, inputs, ops, seconds / 2)
        details["untraced_round_s"] = [r.wall for r in plain]
    details["round_s"] = [r.wall for r in rounds]
    if not rounds or (trace and not plain):
        raise SystemExit("perfbench: no round completed")

    checks, total_bits = check_outputs(w, inputs, (plain if trace else []) + rounds)
    if trace:
        metrics = tracer.layer_metrics(len(rounds))
        overhead = statistics.median(details["round_s"]) / statistics.median(details["untraced_round_s"]) - 1.0
        metrics["trace.overhead"] = (overhead, "ratio")
        details["spans"] = len(tracer.spans)
        tracer.write(trace_file)
    else:
        metrics = end_to_end(w, setups, rounds, total_bits, rss)
    details["checks_passed"] = checks.passed
    details["check_failures"] = checks.failures
    result = {
        "correct": checks.ok,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details
