"""Command-line interface wiring the library together.

Exit codes: 0 success, 1 usage error, 2 data error. All commands are
deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import AbstractContextManager, nullcontext
from dataclasses import replace
from pathlib import Path
from typing import TextIO

from . import model_io
from .evaluation import (
    SyntheticSpec,
    bigram_baseline,
    classify,
    evaluate_prediction,
    hit_rate,
    synth_generate,
    train_classifier,
)
from .encoding import total_dl
from .optimize import OptimizerConfig
from .rules import format_rule, parse_rule
from .selector import COUNTS, MiningConfig, cossu_mine
from .sequence import Alphabet


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors, and that builds
    the mining commands' `MiningConfig` (as `config`) while it parses, so
    that values the config rejects are usage errors too."""

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        parsed = super().parse_args(args, namespace)
        if "opt_bounds" in parsed:
            try:
                parsed.config = _mining_config(parsed)
            except ValueError as exc:
                self.error(str(exc))
        return parsed

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise SystemExit(self._usage_exit(message))

    def _usage_exit(self, message: str) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def _add_mining_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--minsup", type=int, default=2)
    sp.add_argument("--max-pattern-len", type=int, default=20)
    sp.add_argument("--opt-passes", type=int, default=1)
    sp.add_argument("--opt-tol", type=float, default=1e-3)
    sp.add_argument(
        "--opt-bounds",
        default="1e-6,1e3",
        metavar="LO,HI",
        help="golden-section search bracket",
    )
    sp.add_argument("--precision", type=int, default=4)
    sp.add_argument(
        "--trace",
        action="store_true",
        help="log one key=value line per selection step to stderr",
    )


def _mining_config(args: argparse.Namespace) -> MiningConfig:
    try:
        lo_text, hi_text = args.opt_bounds.split(",")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise ValueError(f"bad --opt-bounds value: {args.opt_bounds!r}")
    return MiningConfig(
        minsup=args.minsup,
        max_pattern_len=args.max_pattern_len,
        optimizer=OptimizerConfig(
            lower=lo, upper=hi, tolerance=args.opt_tol, passes=args.opt_passes
        ),
        precision=args.precision,
    )


def _trace_writer(args: argparse.Namespace):
    if not getattr(args, "trace", False):
        return None

    def emit(fields: dict) -> None:
        line = " ".join(
            f"{k}={_trace_value(v)}" for k, v in fields.items()
        )
        print(line, file=sys.stderr)

    return emit


def _trace_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    if isinstance(v, str) and (" " in v or "=" in v):
        return json.dumps(v, ensure_ascii=False)
    return str(v)


def _output(path: str | None) -> AbstractContextManager[TextIO]:
    """The file at `path`, closed on exit, or stdout, left open."""
    if path:
        return open(path, "w", encoding="utf-8", newline="")
    return nullcontext(sys.stdout)


def cmd_mine(args: argparse.Namespace) -> int:
    s = model_io.read_sequence(args.sequence, args.char_mode)
    write = _trace_writer(args)
    stages: dict[str, float] = {}
    counts: dict[str, int] = {}

    def trace(fields: dict) -> None:
        if fields["event"] == "stage":
            stages[fields["stage"]] = fields["seconds"]
        elif fields["event"] == "done":
            counts.update((name, fields[name]) for name in COUNTS)
        if write is not None:
            write(fields)

    model = cossu_mine(s, args.config, trace)
    model_io.save_model(model, args.out)
    report = total_dl(model, s)
    found = [format_rule(r, model.alphabet) for r in model.non_singletons()]
    if args.json:
        print(
            json.dumps(
                {
                    "rules": found,
                    "model_bits": report.model_bits,
                    "data_bits": report.data_bits,
                    "total_bits": report.total,
                    "out": str(args.out),
                    "stages": stages,
                    "counts": counts,
                },
                ensure_ascii=False,
            )
        )
    else:
        print(f"rules found: {len(found)}")
        for text in found:
            print(f"  {text}")
        print(
            f"model_bits={report.model_bits:.3f} "
            f"data_bits={report.data_bits:.3f} total={report.total:.3f}"
        )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    model = model_io.load_model(args.model)
    s = model_io.read_sequence(args.seq, args.char_mode, model.alphabet)
    report = total_dl(model, s)
    if args.json:
        print(
            json.dumps(
                {
                    "model_bits": report.model_bits,
                    "data_bits": report.data_bits,
                    "total_bits": report.total,
                }
            )
        )
    else:
        print(f"model_bits={report.model_bits:.6f}")
        print(f"data_bits={report.data_bits:.6f}")
        print(f"total={report.total:.6f}")
    return 0


def _add_spec_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, default=5000)
    sp.add_argument("--alphabet", default="A,B,C,D,E")
    sp.add_argument("--dist", default="uniform")
    sp.add_argument("--rules", default="A->B")
    sp.add_argument("--ip", type=float, default=0.5)


def _parse_spec(args: argparse.Namespace) -> SyntheticSpec:
    alphabet = tuple(t for t in args.alphabet.split(",") if t)
    if not alphabet:
        raise ValueError("empty alphabet")
    if args.dist == "uniform":
        dist = None
    else:
        probs = [float(x) for x in args.dist.split(",")]
        if len(probs) != len(alphabet):
            raise ValueError("one probability per alphabet symbol required")
        dist = dict(zip(alphabet, probs))
    parsed = Alphabet(alphabet)
    rules = []
    if args.rules:
        for chunk in args.rules.split(";"):
            chunk = chunk.strip()
            if chunk:
                rule = parse_rule(chunk, parsed)
                rules.append(rule.tokens(parsed))
    return SyntheticSpec(
        length=args.n,
        alphabet=alphabet,
        distribution=dist,
        rules=tuple(rules),
        insertion_probability=args.ip,
        seed=args.seed,
    )


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _parse_spec(args)
    s, targets = synth_generate(spec)
    if args.out:
        model_io.write_sequence(s, args.out)
    else:
        print(" ".join(s.tokens))
    if args.targets:
        model_io.save_targets(targets, s.alphabet, args.targets)
    return 0


def _hitrate_run(
    job: tuple[SyntheticSpec, MiningConfig]
) -> tuple[int, list[str], bool]:
    spec, config = job
    s, targets = synth_generate(spec)
    model = cossu_mine(s, config)
    mined = sorted(
        format_rule(r, model.alphabet) for r in model.non_singletons()
    )
    hit = hit_rate([model], targets, s.alphabet) == 100.0
    return spec.seed, mined, hit


def _worker_count(threads: int | None, runs: int) -> int:
    """Worker processes for `runs` jobs: one per CPU unless `threads` is
    given, and never more than there are runs."""
    return min(threads or os.cpu_count() or 1, runs)


def cmd_eval_hitrate(args: argparse.Namespace) -> int:
    spec = _parse_spec(args)
    jobs = [
        (replace(spec, seed=seed), args.config)
        for seed in range(args.seed, args.seed + args.runs)
    ]
    workers = _worker_count(args.threads, args.runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_hitrate_run, jobs))
    else:
        results = [_hitrate_run(job) for job in jobs]
    results.sort()
    with _output(args.out) as stream:
        writer = csv.writer(stream)
        writer.writerow(["seed", "mined_rules", "hit"])
        for seed, mined, hit in results:
            writer.writerow([seed, ";".join(mined), int(hit)])
        rate = 100.0 * sum(hit for _, _, hit in results) / len(results)
        stream.write(f"# hit_rate={rate:.1f}\n")
    return 0


#: Most thresholds a `--tau-grid` range may list.
MAX_TAUS = 10_000


def _tau(text: str) -> float:
    tau = float(text)
    if not 0.0 <= tau <= 1.0:
        raise argparse.ArgumentTypeError(f"threshold outside [0, 1]: {text}")
    return tau


def _tau_grid(text: str) -> tuple[float, ...]:
    """`lo:hi:step` or a comma list of thresholds, each inside [0, 1]."""
    try:
        if ":" not in text:
            return tuple(_tau(x) for x in text.split(","))
        lo_text, hi_text, step_text = text.split(":")
        lo, hi, step = _tau(lo_text), _tau(hi_text), float(step_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:step or a comma list of numbers, got {text!r}"
        ) from None
    if not step > 0.0:
        raise argparse.ArgumentTypeError(f"step must be positive, got {text!r}")
    taus = []
    t = lo
    while t <= hi + 1e-12:
        if len(taus) == MAX_TAUS:
            raise argparse.ArgumentTypeError(
                f"more than {MAX_TAUS} thresholds in {text!r}"
            )
        taus.append(round(t, 10))
        t += step
    return tuple(taus)


def cmd_predict(args: argparse.Namespace) -> int:
    model = model_io.load_model(args.model)
    test = model_io.read_sequence(args.test, args.char_mode, model.alphabet)
    outcomes = {"cossu": evaluate_prediction(model, test, args.tau_grid)}
    if args.train:
        train = model_io.read_sequence(
            args.train, args.char_mode, model.alphabet
        )
        outcomes["bigram"] = evaluate_prediction(
            bigram_baseline(train), test, args.tau_grid
        )
    with _output(args.out) as stream:
        writer = csv.writer(stream)
        writer.writerow(["method", "tau", "precision", "recall", "f1"])
        for method, outcome in outcomes.items():
            for tm in outcome.metrics:
                writer.writerow(
                    [
                        method,
                        f"{tm.tau:.2f}",
                        f"{tm.precision:.6f}",
                        f"{tm.recall:.6f}",
                        f"{tm.f1:.6f}",
                    ]
                )
        for method, outcome in outcomes.items():
            stream.write(f"# auc method={method} value={outcome.auc:.6f}\n")
    return 0


def _class_training(args: argparse.Namespace) -> dict[str, list[Path]]:
    classes: dict[str, list[Path]] = {}
    for spec in args.train:
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            label, sep, path = chunk.partition("=")
            if not sep or not label or not path:
                raise ValueError(f"bad --train entry: {chunk!r} (use label=path)")
            classes.setdefault(label, []).append(Path(path))
    if len(classes) < 2:
        raise ValueError("classification needs at least two classes")
    return classes


def _test_instances(target: Path) -> list[Path]:
    if target.is_dir():
        files = sorted(p for p in target.iterdir() if p.is_file())
        if not files:
            raise ValueError(f"no test instances in {target}")
        return files
    if target.is_file():
        return [target]
    raise ValueError(f"no such file or directory: {target}")


def cmd_classify(args: argparse.Namespace) -> int:
    classes = _class_training(args)
    training = {
        label: [
            model_io.read_sequence(p, args.char_mode) for p in paths
        ]
        for label, paths in classes.items()
    }
    clf = train_classifier(training, args.config)
    instances = _test_instances(Path(args.test))
    rows = []
    scored = 0
    correct = 0
    for path in instances:
        s = model_io.read_sequence(path, args.char_mode, clf.alphabet)
        label = classify(clf, s)
        truth = next(
            (c for c in clf.labels if path.name.startswith(f"{c}_")), ""
        )
        if truth:
            scored += 1
            correct += int(truth == label)
        rows.append((path.name, label, truth))
    with _output(args.out) as stream:
        writer = csv.writer(stream)
        writer.writerow(["instance", "label", "truth"])
        writer.writerows(rows)
        if scored:
            stream.write(f"# accuracy={correct / scored:.4f} over={scored}\n")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="cossu", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mine", help="mine a weighted rule table")
    sp.add_argument("sequence")
    sp.add_argument("--out", required=True)
    sp.add_argument("--char-mode", action="store_true")
    sp.add_argument(
        "--json",
        action="store_true",
        help="print one JSON summary: rules, bits, stage seconds and counts",
    )
    _add_mining_args(sp)
    sp.set_defaults(func=cmd_mine)

    sp = sub.add_parser("score", help="description length of a sequence")
    sp.add_argument("--model", required=True)
    sp.add_argument("--seq", required=True)
    sp.add_argument("--char-mode", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_score)

    sp = sub.add_parser("synth", help="generate a planted-rule sequence")
    _add_spec_args(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.add_argument("--targets")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser(
        "eval-hitrate", help="planted-rule recovery over many seeds"
    )
    sp.add_argument("--runs", type=_positive_int, default=20)
    _add_spec_args(sp)
    sp.add_argument("--seed", type=int, default=0, help="base seed")
    sp.add_argument(
        "--threads",
        type=_positive_int,
        help="worker processes (default: CPU count, at most --runs)",
    )
    sp.add_argument("--out")
    _add_mining_args(sp)
    sp.set_defaults(func=cmd_eval_hitrate)

    sp = sub.add_parser("predict", help="next-element prediction metrics")
    sp.add_argument("--model", required=True)
    sp.add_argument("--test", required=True)
    sp.add_argument("--train", help="adds the bigram baseline")
    sp.add_argument("--tau-grid", type=_tau_grid, default="0:0.95:0.05")
    sp.add_argument("--char-mode", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("classify", help="compression-based classification")
    sp.add_argument(
        "--train",
        action="append",
        required=True,
        metavar="LABEL=PATH[,LABEL=PATH...]",
    )
    sp.add_argument("--test", required=True, help="instance file or directory")
    sp.add_argument("--char-mode", action="store_true")
    sp.add_argument("--out")
    _add_mining_args(sp)
    sp.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"cossu: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
