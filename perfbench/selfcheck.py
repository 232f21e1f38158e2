"""Checks of the benchmark's own code.

    python3 perfbench/selfcheck.py

- The reference computations reproduce hand-worked values on the worked
  example `abceabcadeab` (every run also does this before it starts).
- Each output check fails on a deliberately wrong output.
- Every workload runs to its end at a tiny size, traced and untraced, with
  correct outputs and exactly the metrics BENCHMARK.json lists.

Exits non-zero, naming the failed check, on the first failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import reference as ref

WORKED = "abceabcadeab"


def _fail(what: str) -> None:
    raise SystemExit(f"perfbench self-check failed: {what}")


def _near(got, want, what: str) -> None:
    if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
        _fail(f"{what}: got {got!r}, want {want!r}")


def check_reference() -> None:
    """The reference code against values worked out by hand."""
    c0 = math.log2(2.865064)
    # Universal code: log2(c0) plus the positive iterated logs.
    _near(ref.universal_bits(1), c0, "L_N(1)")
    _near(ref.universal_bits(2), 1 + c0, "L_N(2)")
    _near(ref.universal_bits(16), 4 + 2 + 1 + c0, "L_N(16)")
    _near(ref.universal_bits(65536), 16 + 4 + 2 + 1 + c0, "L_N(65536)")
    # Weights: significant decimals reversed, 0.25 -> 52, 0.0833 -> 3380.
    _near(ref.weight_bits(0.25, 4), ref.universal_bits(52), "weight 0.25")
    _near(ref.weight_bits(0.0833, 4), ref.universal_bits(3380), "weight 0.0833")
    _near(ref.weight_bits(0.5, 2), ref.universal_bits(5), "weight 0.5")

    # a b c e a b c a d e a b over a..e: counts a4 b3 c2 d1 e2, n = 12.
    ids = ["abcde".index(ch) for ch in WORKED]
    counts, n = [4, 3, 2, 1, 2], 12
    singletons = [((), (x,)) for x in range(5)]
    freq = [c / n for c in counts]
    empty_bits = [-math.log2(freq[x]) for x in ids]
    _near(sum(empty_bits), 4 * math.log2(3) + 6 + 4 * math.log2(6) + math.log2(12), "empty data bits")

    # a -> b with weight 1 is active after each a (positions 2, 6, 9, 12,
    # 1-based), doubling the total weight: b there costs log2(2 / (3/12 + 1))
    # = log2(8/5) bits, the d at position 9 costs log2(2 / (1/12)) = log2(24).
    act = ref.Activity(ids, singletons + [((0,), (1,))], freq + [1.0], 5)
    want = list(empty_bits)
    for t in (1, 5, 11):
        want[t] = math.log2(8 / 5)
    want[8] = math.log2(24)
    _near(act.data_bits_per_position(), want, "a -> b per-position bits")
    # Argmax: a everywhere, b after a; right at 1,2,5,6,8,11,12 (1-based).
    if act.argmax_hits() != (7, 0):
        _fail(f"a -> b argmax hits {act.argmax_hits()}, want (7, 0)")

    # a -> b c adds stage 1 after each "a b" (positions 3 and 7, both c):
    # c there costs log2(2 / (2/12 + 1)) = log2(12/7) instead of log2(6).
    want_bc = list(want)
    for t in (2, 6):
        want_bc[t] = math.log2(12 / 7)
    act = ref.Activity(ids, singletons + [((0,), (1, 2))], freq + [1.0], 5)
    _near(act.data_bits_per_position(), want_bc, "a -> b c per-position bits")

    # Table: size 6; singleton x costs L_N(1) + L_N(1) + cl(x) + its
    # weight; a -> b costs L_N(2) + cl(a) + L_N(1) + cl(b) + its weight.
    weights = [0.3333, 0.25, 0.1667, 0.0833, 0.1667, 0.5]
    cl = [math.log2(3), 2.0, math.log2(6), math.log2(12), math.log2(6)]
    digits = [3333, 52, 7661, 3380, 7661, 5]
    want_table = ref.universal_bits(6)
    for x in range(5):
        want_table += 2 * c0 + cl[x] + ref.universal_bits(digits[x])
    want_table += (1 + c0) + cl[0] + c0 + cl[1] + ref.universal_bits(5)
    got = ref.model_bits(singletons + [((0,), (1,))], weights, counts, n, 4)
    _near(got, want_table, "table bits")


def check_checks(api, chk) -> None:
    """Each output check rejects a wrong output."""
    s = api.Sequence.from_tokens(api.Alphabet(set(WORKED)), list(WORKED))
    empty = api.Model.empty(api.frequencies(s))
    model = api.quantize_weights(
        api.normalize_weights(empty.with_rule(api.Rule((0,), (1,)), 1.0))
    )
    report = api.total_dl(model, s)
    outcome = api.evaluate_prediction(model, s, (0.0, 0.3))
    wrong_outcome = dataclasses.replace(
        outcome,
        metrics=tuple(
            dataclasses.replace(m, correct=m.correct + 1) for m in outcome.metrics
        ),
    )
    cases = {
        "right outputs": lambda c: (
            chk.dl_matches_reference(c, "", model, s, report),
            chk.prediction_matches_reference(c, "", model, s, outcome),
            chk.planted_rules_found(c, "", model, [api.Rule((0,), (1,))]),
        ),
        "data bits": lambda c: chk.dl_matches_reference(
            c, "", model, s, api.DLReport(report.model_bits, report.data_bits * (1 + 1e-5))
        ),
        "model bits": lambda c: chk.dl_matches_reference(
            c, "", model, s, api.DLReport(report.model_bits + 1e-3, report.data_bits)
        ),
        "prediction": lambda c: chk.prediction_matches_reference(c, "", model, s, wrong_outcome),
        "planted rule": lambda c: chk.planted_rules_found(c, "", empty, [api.Rule((0,), (1,))]),
        "round trip": lambda c: chk.round_trip_kept(
            c, "", model, model.with_weights([0.5] * len(model.weights)), report, report
        ),
        "classifier": lambda c: chk.classifier_accurate(c, "", ["x"] * 10, ["x"] * 8 + ["y"] * 2),
        "below empty": lambda c: chk.below_empty_model(c, "", report, report),
    }
    for name, case in cases.items():
        checks = chk.Checks()
        with contextlib.redirect_stderr(io.StringIO()):
            case(checks)
        if checks.ok != (name == "right outputs"):
            _fail(f"output check on {name}: ok={checks.ok}, failures {checks.failures}")


def check_workloads(workloads) -> None:
    """Every workload at a tiny size, untraced and traced."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    if set(workloads.WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        _fail("workloads differ from BENCHMARK.json")
    for w in workloads.WORKLOADS.values():
        for trace in (0, 1):
            with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
                work = Path(tmp) / "work"
                work.mkdir()
                trace_file = Path(tmp) / "trace.json" if trace else None
                result, details = workloads.run(workloads.tiny(w), 3, 0.0, trace_file, work)
            what = f"{w.name} tiny, trace {trace}"
            if not result["correct"] or result["failed"]:
                _fail(f"{what}: {details['check_failures']}")
            if set(result["metrics"]) != names[trace]:
                _fail(f"{what}: metrics {sorted(set(result['metrics']) ^ names[trace])} differ")
            values = [m["value"] for m in result["metrics"].values()]
            if not all(math.isfinite(v) for v in values) or (not trace and min(values) <= 0):
                _fail(f"{what}: metric values {result['metrics']}")
            print(f"ok  {what}: {result['attempted']} operations, {details['checks_passed']} checks")


def main() -> int:
    import run

    run._import_cossu()
    import cossu

    import checks
    import workloads

    check_reference()
    print("ok  reference computations reproduce the hand-worked values")
    check_checks(cossu, checks)
    print("ok  every output check rejects a wrong output")
    check_workloads(workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
