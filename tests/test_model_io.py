import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cossu import (
    Alphabet,
    Model,
    Rule,
    Sequence,
    frequencies,
    load_model,
    load_targets,
    model_from_dict,
    model_to_dict,
    model_to_json,
    read_sequence,
    save_model,
    save_targets,
    write_sequence,
)
from cossu.model_io import parse_sequence

from conftest import char_seq


@pytest.fixture
def small_model(worked):
    f = frequencies(worked)
    m = Model.empty(f).with_rule(
        Rule.from_tokens(worked.alphabet, ["a", "b"], ["c"]), 0.75
    )
    return m.with_weights(
        [0.3333, 0.25, 0.1667, 0.0833, 0.1667, 0.75]
    )


class TestModelJson:
    def test_round_trip_identical(self, small_model, tmp_path):
        path = tmp_path / "m.json"
        save_model(small_model, path)
        loaded = load_model(path)
        assert loaded == small_model
        assert model_to_json(loaded) == path.read_text()

    def test_schema_fields(self, small_model):
        obj = model_to_dict(small_model)
        assert set(obj) == {
            "alphabet",
            "frequencies",
            "n",
            "precision",
            "rules",
        }
        assert obj["alphabet"] == ["a", "b", "c", "d", "e"]
        assert obj["n"] == 12
        assert obj["rules"][-1] == {
            "antecedent": ["a", "b"],
            "consequent": ["c"],
            "weight": "0.7500",
        }

    def test_weights_as_fixed_precision_strings(self, small_model):
        obj = model_to_dict(small_model)
        for entry in obj["rules"]:
            assert len(entry["weight"].split(".")[1]) == 4

    def test_unnormalized_save_rejected(self, worked):
        m = Model.empty(frequencies(worked)).with_weights(
            [2.0, 0.1, 0.1, 0.1, 0.1]
        )
        with pytest.raises(ValueError, match="normalize"):
            model_to_dict(m)

    def test_missing_field_rejected(self, small_model):
        obj = model_to_dict(small_model)
        del obj["rules"]
        with pytest.raises(ValueError, match="malformed model"):
            model_from_dict(obj)

    def test_unsorted_alphabet_rejected(self, small_model):
        obj = model_to_dict(small_model)
        obj["alphabet"] = list(reversed(obj["alphabet"]))
        with pytest.raises(ValueError):
            model_from_dict(obj)

    def test_singletons_required(self, small_model):
        obj = model_to_dict(small_model)
        obj["rules"] = obj["rules"][1:]
        with pytest.raises(ValueError, match="singleton"):
            model_from_dict(obj)

    def test_json_is_deterministic(self, small_model):
        assert model_to_json(small_model) == model_to_json(small_model)
        parsed = json.loads(model_to_json(small_model))
        assert parsed == model_to_dict(small_model)


class TestSequenceParsing:
    def test_whitespace_tokens(self):
        s = parse_sequence("foo bar\nbaz  foo\n")
        assert s.tokens == ("foo", "bar", "baz", "foo")

    def test_char_mode(self):
        s = parse_sequence("ab\nc a", char_mode=True)
        assert s.tokens == ("a", "b", "c", "a")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            parse_sequence("  \n ")

    def test_fixed_alphabet(self, worked):
        s = parse_sequence("a b", alphabet=worked.alphabet)
        assert s.alphabet is worked.alphabet
        with pytest.raises(ValueError, match="unknown symbol"):
            parse_sequence("z", alphabet=worked.alphabet)

    @pytest.mark.parametrize("k", [3, 257])
    def test_file_round_trip(self, k, tmp_path):
        rng = random.Random(k)
        alphabet = Alphabet(f"t{i:03d}" for i in range(k))
        s = Sequence(alphabet, [rng.randrange(k) for _ in range(1000)])
        path = tmp_path / "seq.txt"
        write_sequence(s, path)
        back = read_sequence(path, alphabet=alphabet)
        assert back == s and back.array.dtype == s.array.dtype
        # Without a given alphabet, the tokens that occur form it.
        inferred = read_sequence(path)
        assert inferred.tokens == s.tokens

    @pytest.mark.parametrize("token", ["", "A B", "A\tB", "B\n", "A\u00a0B"])
    def test_token_with_whitespace_not_written(self, token, tmp_path):
        s = Sequence(Alphabet([token, "C"]), [0, 1, 0])
        path = tmp_path / "seq.txt"
        with pytest.raises(ValueError, match="cannot be written as text"):
            write_sequence(s, path)
        assert not path.exists()


#: Tokens a sequence file can hold: no whitespace, as `str.split` reads it.
TOKEN = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3
).filter(lambda t: t.split() == [t])


@st.composite
def seq_and_target_alphabet(draw):
    tokens = draw(st.lists(TOKEN, min_size=1, max_size=8, unique=True))
    ids = draw(st.lists(st.integers(0, len(tokens) - 1), max_size=40))
    kept = draw(st.lists(st.sampled_from(tokens), unique=True))
    extra = draw(st.lists(TOKEN, max_size=3))
    target = Alphabet(set(kept) | set(extra) or set(tokens))
    return Sequence(Alphabet(tokens), ids), target


@settings(max_examples=200, deadline=None)
@given(case=seq_and_target_alphabet())
def test_array_paths_match_token_by_token(tmp_path_factory, case):
    """`tokens`, `reindexed` and the text format against one-token-at-a-time
    references, including the error for a token the target lacks."""
    s, target = case
    tokens = tuple(s.alphabet.token_of(i) for i in s.ids)
    assert s.tokens == tokens
    try:
        expected = Sequence.from_tokens(target, tokens)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            s.reindexed(target)
        assert str(raised.value) == str(exc)
    else:
        assert s.reindexed(target) == expected
    path = tmp_path_factory.mktemp("seq") / "seq.txt"
    write_sequence(s, path)
    assert path.read_text(encoding="utf-8") == " ".join(tokens) + "\n"
    if tokens:
        assert read_sequence(path, alphabet=s.alphabet) == s


class TestTargetsJson:
    def test_round_trip(self, worked, tmp_path):
        rules = (
            Rule.from_tokens(worked.alphabet, ["a", "b"], ["c"]),
            Rule.from_tokens(worked.alphabet, [], ["e", "a"]),
        )
        path = tmp_path / "targets.json"
        save_targets(rules, worked.alphabet, path)
        assert load_targets(path, worked.alphabet) == rules

    @pytest.mark.parametrize(
        "payload",
        [
            [{"antecedent": "ab", "consequent": ["c"]}],
            [{"antecedent": ["a"], "consequent": "c"}],
            {"antecedent": ["a"], "consequent": ["c"]},
            {},
            [{"consequent": ["c"]}],
            [["a", "c"]],
        ],
        ids=[
            "string-antecedent",
            "string-consequent",
            "object-payload",
            "empty-object-payload",
            "missing-antecedent",
            "list-entry",
        ],
    )
    def test_malformed_rejected(self, worked, tmp_path, payload):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="malformed targets"):
            load_targets(path, worked.alphabet)
