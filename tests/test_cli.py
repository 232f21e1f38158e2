import json
import math
import os

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cossu import (
    Model,
    frequencies,
    load_model,
    model_to_dict,
    model_to_json,
    read_sequence,
    total_dl,
)
from cossu.cli import MAX_TAUS, _worker_count, build_parser, main
from cossu.evaluation import DEFAULT_TAUS
from cossu.selector import COUNTS, STAGES


#: A small valid model and a sequence it can score.
VALID_MODEL = {
    "alphabet": ["A", "B", "C"],
    "frequencies": {"A": 3, "B": 2, "C": 1},
    "n": 6,
    "precision": 4,
    "rules": [
        {"antecedent": [], "consequent": ["A"], "weight": "0.5000"},
        {"antecedent": [], "consequent": ["B"], "weight": "0.3333"},
        {"antecedent": [], "consequent": ["C"], "weight": "0.1667"},
        {"antecedent": ["A"], "consequent": ["B", "A"], "weight": "0.4000"},
    ],
}
VALID_SEQUENCE = "A B A C A B\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def synth_file(tmp_path):
    seq_path = tmp_path / "seq.txt"
    targets_path = tmp_path / "targets.json"
    code = main(
        [
            "synth",
            "--n",
            "2000",
            "--seed",
            "11",
            "--out",
            str(seq_path),
            "--targets",
            str(targets_path),
        ]
    )
    assert code == 0
    return seq_path, targets_path


MINING_COMMANDS = {
    "mine": ["mine", "x.txt", "--out", "m.json"],
    "eval-hitrate": ["eval-hitrate"],
    "classify": ["classify", "--train", "x=a.txt,y=b.txt", "--test", "t.txt"],
}


class TestUsageErrors:
    def test_mine_without_args(self, capsys):
        code, _, err = run(capsys, "mine")
        assert code == 1
        assert "usage" in err or "error" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "mine", "x.txt", "--out", "m.json", "--nope")
        assert code == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "mine",
            str(tmp_path / "absent.txt"),
            "--out",
            str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", sorted(MINING_COMMANDS))
    @pytest.mark.parametrize(
        "flag, reason",
        [
            ("--opt-bounds=5,1", "lower < upper"),
            ("--opt-bounds=x", "bad --opt-bounds value"),
            ("--minsup=1", "minsup must be at least 2"),
            ("--max-pattern-len=0", "max_pattern_len must be at least 1"),
            ("--opt-passes=0", "at least one pass"),
            ("--opt-tol=0", "tolerance must be positive"),
            ("--precision=0", "precision must lie in"),
            ("--opt-bounds=1e-6,inf", "must be finite"),
            ("--opt-tol=nan", "must be finite"),
            ("--opt-tol=inf", "must be finite"),
        ],
    )
    def test_bad_mining_flag(
        self, capsys, monkeypatch, tmp_path, command, flag, reason
    ):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *MINING_COMMANDS[command], flag)
        assert code == 1
        assert reason in err
        assert not list(tmp_path.iterdir())


class TestMineScore:
    def test_end_to_end(self, capsys, tmp_path, synth_file):
        seq_path, _ = synth_file
        model_path = tmp_path / "m.json"
        code, out, _ = run(
            capsys, "mine", str(seq_path), "--out", str(model_path)
        )
        assert code == 0
        assert "A -> B" in out
        model = load_model(model_path)
        mined = [r.tokens(model.alphabet) for r in model.non_singletons()]
        assert mined == [(("A",), ("B",))]

        code, out, _ = run(
            capsys,
            "score",
            "--model",
            str(model_path),
            "--seq",
            str(seq_path),
        )
        assert code == 0
        assert "model_bits=" in out and "total=" in out
        s = read_sequence(seq_path)
        report = total_dl(model, s)
        assert f"total={report.total:.6f}" in out

    def test_round_trip_is_fixed_point(self, capsys, tmp_path, synth_file):
        seq_path, _ = synth_file
        model_path = tmp_path / "m.json"
        assert run(capsys, "mine", str(seq_path), "--out", str(model_path))[0] == 0
        text1 = model_path.read_text()
        model = load_model(model_path)
        assert model_to_json(model) == text1
        s = read_sequence(seq_path)
        r1 = total_dl(model, s)
        r2 = total_dl(load_model(model_path), s)
        assert math.isclose(r1.total, r2.total, abs_tol=1e-9)

    def test_malformed_model_json(self, capsys, tmp_path, synth_file):
        seq_path, _ = synth_file
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(
            capsys, "score", "--model", str(bad), "--seq", str(seq_path)
        )
        assert code == 2
        assert "malformed JSON" in err

    @pytest.mark.parametrize(
        "entry",
        [{"consequent": ["B"], "weight": "0.5000"}, "A -> B"],
        ids=["missing-antecedent", "not-an-object"],
    )
    def test_malformed_rule_entry(self, capsys, tmp_path, synth_file, entry):
        seq_path, _ = synth_file
        obj = model_to_dict(Model.empty(frequencies(read_sequence(seq_path))))
        obj["rules"].append(entry)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, _, err = run(
            capsys, "score", "--model", str(bad), "--seq", str(seq_path)
        )
        assert code == 2
        assert "malformed model" in err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("frequencies",), []),
            (("rules",), 3),
            (("alphabet",), 3),
            (("alphabet",), [["A"], "B"]),
            (("rules", 0, "weight"), None),
            (("rules", 0, "antecedent"), 3),
            (("frequencies", "A"), None),
            (("n",), 7.9),
            (("precision",), 4.7),
            (("precision",), True),
            (("frequencies", "A"), 3.5),
            (("n",), "6"),
            (("precision",), "4"),
            (("frequencies", "A"), "3"),
            (("rules", 0, "weight"), "1.5"),
            (("rules", 0, "weight"), "0"),
            (("rules", 0, "weight"), "0.00001"),
        ],
        ids=[
            "frequencies-list",
            "rules-int",
            "alphabet-int",
            "alphabet-nested",
            "weight-null",
            "antecedent-int",
            "count-null",
            "n-fraction",
            "precision-fraction",
            "precision-bool",
            "count-fraction",
            "n-string",
            "precision-string",
            "count-string",
            "weight-above-one",
            "weight-zero",
            "weight-beyond-precision",
        ],
    )
    def test_malformed_field_type(self, capsys, tmp_path, path, value):
        obj = json.loads(json.dumps(VALID_MODEL))
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        seq = tmp_path / "seq.txt"
        seq.write_text(VALID_SEQUENCE)
        for command, data in (("score", "--seq"), ("predict", "--test")):
            code, _, err = run(
                capsys, command, "--model", str(bad), data, str(seq)
            )
            assert code == 2
            assert "malformed model" in err and str(bad) in err

    @pytest.mark.parametrize(
        "fields, reason",
        [
            # Every weight is formatted to `precision` decimals when priced.
            ({"precision": 2**30}, "precision must lie in"),
            (
                {"n": 10**400, "frequencies": {"A": 10**400 - 3, "B": 2, "C": 1}},
                "beyond float range",
            ),
        ],
        ids=["precision", "counts"],
    )
    def test_number_out_of_range(self, capsys, tmp_path, fields, reason):
        bad, seq = tmp_path / "bad.json", tmp_path / "seq.txt"
        bad.write_text(json.dumps(dict(VALID_MODEL, **fields)))
        seq.write_text(VALID_SEQUENCE)
        code, _, err = run(capsys, "score", "--model", str(bad), "--seq", str(seq))
        assert code == 2
        assert reason in err

    def test_score_unknown_symbol(self, capsys, tmp_path, synth_file):
        seq_path, _ = synth_file
        model_path = tmp_path / "m.json"
        assert run(capsys, "mine", str(seq_path), "--out", str(model_path))[0] == 0
        alien = tmp_path / "alien.txt"
        alien.write_text("A B Z\n")
        code, _, err = run(
            capsys, "score", "--model", str(model_path), "--seq", str(alien)
        )
        assert code == 2
        assert "unknown symbol" in err

    def test_json_summary(self, capsys, tmp_path, synth_file):
        seq_path, _ = synth_file
        model_path = tmp_path / "m.json"
        code, out, _ = run(
            capsys,
            "mine",
            str(seq_path),
            "--out",
            str(model_path),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rules"] == ["A -> B"]

    def test_deterministic_model_files(self, capsys, tmp_path, synth_file):
        seq_path, _ = synth_file
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert run(capsys, "mine", str(seq_path), "--out", str(p1))[0] == 0
        assert run(capsys, "mine", str(seq_path), "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestSynth:
    def test_deterministic_per_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert (
                run(
                    capsys,
                    "synth",
                    "--n",
                    "500",
                    "--seed",
                    "3",
                    "--out",
                    str(path),
                )[0]
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

    def test_char_mode_round_trip(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("abc abc\n")
        plain = read_sequence(path)
        chars = read_sequence(path, char_mode=True)
        assert len(plain) == 2
        assert len(chars) == 6

    def test_bad_dist(self, capsys):
        code, _, err = run(
            capsys, "synth", "--n", "10", "--dist", "0.5,0.5"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (("--dist=-0.5,1.5,0,0,0",), "must be >= 0 and sum to 1"),
            (("--dist=nan,1,0,0,0",), "must be >= 0 and sum to 1"),
            (("--seed", "-1"), "seed must be non-negative, got -1"),
        ],
        ids=["negative-probability", "nan-probability", "negative-seed"],
    )
    def test_bad_spec_is_data_error(self, capsys, argv, reason):
        code, out, err = run(capsys, "synth", "--n", "10", *argv)
        assert code == 2 and not out
        assert reason in err

    @pytest.mark.parametrize("rules", ["A->B", ""])
    def test_alphabet_entries_stripped(self, capsys, rules):
        argv = ("--rules", rules, "--n", "50", "--seed", "3")
        code, out, _ = run(capsys, "synth", "--alphabet", "A, B, C", *argv)
        assert code == 0
        tokens = out.split()
        assert len(tokens) == 50 and set(tokens) == {"A", "B", "C"}
        assert out == " ".join(tokens) + "\n"
        assert run(capsys, "synth", "--alphabet", "A,B,C", *argv)[1] == out

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_alphabet_token_with_whitespace(self, capsys, tmp_path, to_file):
        # "A B" reads back as two tokens: 8 symbols would read as up to 16.
        path = tmp_path / "seq.txt"
        argv = ["synth", "--alphabet", "A B,C", "--rules", "", "--n", "8"]
        if to_file:
            argv += ["--out", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "cannot be written as text: 'A B'" in err
        assert not path.exists()


class TestTrace:
    def test_trace_lines_are_key_value(self, capsys, tmp_path, synth_file):
        seq_path, _ = synth_file
        model_path = tmp_path / "m.json"
        code, _, err = run(
            capsys,
            "mine",
            str(seq_path),
            "--out",
            str(model_path),
            "--trace",
        )
        assert code == 0
        lines = [l for l in err.splitlines() if l.startswith("event=")]
        assert any("event=candidate" in l for l in lines)
        assert any("decision=accept" in l for l in lines)
        stage = "event=stage stage=screen seconds="
        assert any(l.startswith(stage) for l in lines)
        assert "line_searches=" in lines[-1]

    def test_json_stages_and_counts_match_trace(
        self, capsys, tmp_path, synth_file
    ):
        seq_path, _ = synth_file
        model_path = tmp_path / "m.json"
        code, out, err = run(
            capsys,
            "mine",
            str(seq_path),
            "--out",
            str(model_path),
            "--json",
            "--trace",
        )
        assert code == 0
        payload = json.loads(out)
        events = [
            dict(field.split("=", 1) for field in line.split())
            for line in err.splitlines()
            if line.startswith("event=stage") or line.startswith("event=done")
        ]
        stages = {e["stage"]: float(e["seconds"]) for e in events[:-1]}
        assert list(payload["stages"]) == list(STAGES)
        for name, seconds in payload["stages"].items():
            assert seconds == pytest.approx(stages[name], abs=5e-5)
        done = events[-1]
        assert done["event"] == "done"
        assert list(payload["counts"]) == list(COUNTS)
        for name, count in payload["counts"].items():
            assert count == int(done[name])
        assert payload["counts"]["screened"] == sum(
            "event=candidate" in line for line in err.splitlines()
        )
        assert payload["counts"]["objective_evals"] > 0


class TestEvalHitrate:
    def test_small_run(self, capsys, tmp_path):
        out = tmp_path / "hits.csv"
        code, _, _ = run(
            capsys,
            "eval-hitrate",
            "--threads",
            "1",
            "--runs",
            "2",
            "--n",
            "1500",
            "--seed",
            "5",
            "--out",
            str(out),
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("seed,mined_rules,hit")
        assert "# hit_rate=" in text


    def test_threads_default_and_clamp(self):
        parser = build_parser()

        def workers(*argv):
            args = parser.parse_args(["eval-hitrate", *argv])
            return _worker_count(args.threads, args.runs)

        assert workers("--runs", "1") == 1
        assert workers("--runs", "64") == min(os.cpu_count() or 1, 64)
        assert workers("--runs", "3", "--threads", "8") == 3
        assert workers("--runs", "8", "--threads", "2") == 2

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_threads_below_one_is_usage_error(self, capsys, value):
        code, _, err = run(capsys, "eval-hitrate", "--threads", value)
        assert code == 1
        assert "--threads" in err


class TestPredictCommand:
    def test_csv_output(self, capsys, tmp_path, synth_file):
        seq_path, _ = synth_file
        model_path = tmp_path / "m.json"
        assert run(capsys, "mine", str(seq_path), "--out", str(model_path))[0] == 0
        code, out, _ = run(
            capsys,
            "predict",
            "--model",
            str(model_path),
            "--test",
            str(seq_path),
            "--train",
            str(seq_path),
            "--tau-grid",
            "0,0.3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method,tau,precision,recall,f1"
        methods = {l.split(",")[0] for l in lines[1:] if "," in l}
        assert {"cossu", "bigram"} <= methods
        assert any(l.startswith("# auc method=cossu") for l in lines)


class TestClassifyCommand:
    def test_two_class_flow(self, capsys, tmp_path):
        for label, rules, seed in (("one", "A->B", 1), ("two", "C->D", 2)):
            assert (
                run(
                    capsys,
                    "synth",
                    "--n",
                    "1500",
                    "--rules",
                    rules,
                    "--ip",
                    "0.7",
                    "--seed",
                    str(seed),
                    "--out",
                    str(tmp_path / f"{label}.txt"),
                )[0]
                == 0
            )
        test_dir = tmp_path / "test"
        test_dir.mkdir()
        for label, rules, seed in (("one", "A->B", 31), ("two", "C->D", 32)):
            assert (
                run(
                    capsys,
                    "synth",
                    "--n",
                    "300",
                    "--rules",
                    rules,
                    "--ip",
                    "0.7",
                    "--seed",
                    str(seed),
                    "--out",
                    str(test_dir / f"{label}_probe.txt"),
                )[0]
                == 0
            )
        code, out, _ = run(
            capsys,
            "classify",
            "--train",
            f"one={tmp_path / 'one.txt'},two={tmp_path / 'two.txt'}",
            "--test",
            str(test_dir),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "instance,label,truth"
        assert "# accuracy=1.0000" in out

    def test_truth_is_longest_label(self, capsys, tmp_path):
        # a_b_probe.txt starts with both "a_" and "a_b_"; its truth is a_b.
        test_dir = tmp_path / "test"
        test_dir.mkdir()
        for label, rules, seed in (("a", "A->B", 1), ("a_b", "C->D", 2)):
            for path, n, s in (
                (tmp_path / f"{label}.txt", 1500, seed),
                (test_dir / f"{label}_probe.txt", 300, seed + 30),
            ):
                argv = ["--n", str(n), "--rules", rules, "--ip", "0.7"]
                argv += ["--seed", str(s), "--out", str(path)]
                assert run(capsys, "synth", *argv)[0] == 0
        code, out, _ = run(
            capsys,
            "classify",
            "--train",
            f"a={tmp_path / 'a.txt'},a_b={tmp_path / 'a_b.txt'}",
            "--test",
            str(test_dir),
        )
        assert code == 0
        assert "a_b_probe.txt,a_b,a_b" in out.splitlines()
        assert "# accuracy=1.0000 over=2" in out

    def test_single_class_rejected(self, capsys, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("A B A B\n")
        code, _, err = run(
            capsys, "classify", "--train", f"x={p}", "--test", str(p)
        )
        assert code == 2
        assert "two classes" in err


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=4), inner, max_size=3
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    _json_containers,
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every path to a value inside a JSON tree, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


class TestModelFuzz:
    def test_valid_model_scores(self, capsys, tmp_path):
        model, seq = tmp_path / "m.json", tmp_path / "seq.txt"
        model.write_text(json.dumps(VALID_MODEL))
        seq.write_text(VALID_SEQUENCE)
        code, _, _ = run(capsys, "score", "--model", str(model), "--seq", str(seq))
        assert code == 0

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_model_never_raises(self, tmp_path, data):
        obj = json.loads(json.dumps(VALID_MODEL))
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            paths = list(_paths(obj))
            if not paths:
                break
            path = data.draw(st.sampled_from(paths), label="path")
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans(), label="delete"):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(JSON_VALUES, label="value")
        model, seq = tmp_path / "m.json", tmp_path / "seq.txt"
        model.write_text(json.dumps(obj))
        seq.write_text(VALID_SEQUENCE)
        assert main(["score", "--model", str(model), "--seq", str(seq)]) in {0, 1, 2}


class TestTauGrid:
    def parse(self, grid):
        args = build_parser().parse_args(
            ["predict", "--model", "m.json", "--test", "t.txt", f"--tau-grid={grid}"]
        )
        return args.tau_grid

    def test_default_grid(self):
        args = build_parser().parse_args(
            ["predict", "--model", "m.json", "--test", "t.txt"]
        )
        assert args.tau_grid == DEFAULT_TAUS

    def test_range_and_list(self):
        assert self.parse("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert self.parse("0,0.3") == (0.0, 0.3)

    @pytest.mark.parametrize(
        "grid, reason",
        [
            ("0:1:0", "step must be positive"),
            ("0:1:-0.1", "step must be positive"),
            ("0:1:nan", "step must be positive"),
            ("0:1", "expected lo:hi:step"),
            ("0:1:0.1:2", "expected lo:hi:step"),
            ("a:1:0.1", "expected lo:hi:step"),
            ("0,,0.3", "expected lo:hi:step"),
            ("0:1.5:0.1", "outside [0, 1]"),
            ("-0.1:1:0.1", "outside [0, 1]"),
            ("0,2", "outside [0, 1]"),
            ("nan", "outside [0, 1]"),
            (f"0:1:{0.5 / MAX_TAUS}", "more than"),
            ("1:1:1e-300", "more than"),
            ("0.9:0.1:0.05", "lo > hi"),
        ],
    )
    def test_bad_grid_is_usage_error(self, capsys, grid, reason):
        with pytest.raises(SystemExit) as exc:
            self.parse(grid)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--tau-grid" in err and reason in err


SEQUENCE_FILES = st.one_of(
    st.binary(max_size=200),
    st.sampled_from(
        [b"", b" ", b"\n\n", b"\t \r\n ", b"A", b"A\n", b"\xff", b"A \xc3"]
    ),
    st.lists(
        st.sampled_from(["A", "B", "C", "\u00e9", " ", "\n", "\t", "\r\n"]),
        max_size=200,
    ).map(lambda parts: "".join(parts).encode()),
    st.builds(
        lambda token, count, sep: sep.join([token] * count).encode(),
        st.sampled_from(["A", "B", "xy", "\u00e9"]),
        st.integers(1, 400),
        st.sampled_from([" ", "\n", ""]),
    ),
)


class TestSequenceFileFuzz:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        content=SEQUENCE_FILES,
        cap=st.sampled_from([1, 2, 3, 20]),
        char_mode=st.booleans(),
    )
    def test_mine_never_raises(self, tmp_path, content, cap, char_mode):
        seq, out = tmp_path / "seq.txt", tmp_path / "m.json"
        seq.write_bytes(content)
        out.unlink(missing_ok=True)
        argv = ["mine", str(seq), "--out", str(out), f"--max-pattern-len={cap}"]
        argv += ["--char-mode"] * char_mode
        code = main(argv)
        event(f"exit {code}")
        assert code in {0, 1, 2}
        if code == 0:
            first = out.read_bytes()
            assert main(argv) == 0
            assert out.read_bytes() == first

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(content=SEQUENCE_FILES, char_mode=st.booleans())
    def test_score_never_raises(self, tmp_path, content, char_mode):
        model, seq = tmp_path / "m.json", tmp_path / "seq.txt"
        model.write_text(json.dumps(VALID_MODEL))
        seq.write_bytes(content)
        argv = ["score", "--model", str(model), "--seq", str(seq)]
        assert main(argv + ["--char-mode"] * char_mode) in {0, 1, 2}
