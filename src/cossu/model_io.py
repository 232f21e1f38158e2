"""File formats: token sequences, model JSON, and planted-target JSON.

Sequence files are UTF-8 text with whitespace-separated tokens (newlines
count as spaces); char mode treats each non-whitespace character as a
token. Model files carry weights as fixed-precision decimal strings so the
weight-table bits survive a round trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .encoding import Model, quantize_weight
from .rules import Rule
from .sequence import Alphabet, FrequencyTable, Sequence


def parse_tokens(text: str, char_mode: bool = False) -> list[str]:
    if char_mode:
        return [ch for ch in text if not ch.isspace()]
    return text.split()


def parse_sequence(
    text: str, char_mode: bool = False, alphabet: Alphabet | None = None
) -> Sequence:
    tokens = parse_tokens(text, char_mode)
    if not tokens:
        raise ValueError("empty input")
    if alphabet is None:
        alphabet = Alphabet(set(tokens))
    return Sequence.from_tokens(alphabet, tokens)


def read_sequence(
    path: str | Path, char_mode: bool = False, alphabet: Alphabet | None = None
) -> Sequence:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return parse_sequence(text, char_mode, alphabet)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def format_sequence(s: Sequence) -> str:
    """The sequence as one line of space-separated tokens.

    Raises ValueError for an alphabet token that is empty or holds
    whitespace, as the text would not read back as the same tokens.
    """
    for token in s.alphabet.tokens:
        if token.split() != [token]:
            raise ValueError(f"token cannot be written as text: {token!r}")
    return " ".join(s.tokens) + "\n"


def write_sequence(s: Sequence, path: str | Path) -> None:
    Path(path).write_text(format_sequence(s), encoding="utf-8")


def model_to_dict(m: Model) -> dict:
    if any(not 0.0 < w < 1.0 for w in m.weights):
        raise ValueError("normalize weights into (0, 1) before saving")
    return {
        "alphabet": list(m.alphabet.tokens),
        "frequencies": {
            m.alphabet.token_of(i): c
            for i, c in enumerate(m.freq.counts)
            if c
        },
        "n": m.freq.n,
        "precision": m.precision,
        "rules": [
            {
                "antecedent": [m.alphabet.token_of(i) for i in r.antecedent],
                "consequent": [m.alphabet.token_of(i) for i in r.consequent],
                "weight": f"{w:.{m.precision}f}",
            }
            for r, w in zip(m.rules, m.weights)
        ],
    }


def model_to_json(m: Model) -> str:
    return json.dumps(model_to_dict(m), indent=2, ensure_ascii=False) + "\n"


_RULE_FIELDS = ("antecedent", "consequent", "weight")


def _tokens(value: object, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise ValueError(f"{what} is not a list of tokens")
    return value


def _number(kind: type, value: object, what: str):
    try:
        # true as a number, or "7" or 7.9 as an int, is malformed, not
        # converted. Weights are floats written as decimal strings.
        if isinstance(value, bool) or (kind is int and isinstance(value, str)):
            raise ValueError
        number = kind(value)
        if type(value) is float and number != value:
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"malformed model: {what} is not {kind.__name__}: {value!r}"
        ) from None


def model_from_dict(obj: dict) -> Model:
    try:
        tokens = obj["alphabet"]
        counts_by_token = obj["frequencies"]
        n = obj["n"]
        precision = obj["precision"]
        raw_rules = obj["rules"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model: missing field {exc}") from None
    alphabet = Alphabet(_tokens(tokens, "malformed model: alphabet"))
    if list(alphabet.tokens) != list(tokens):
        raise ValueError("malformed model: alphabet not in canonical order")
    if not isinstance(counts_by_token, dict):
        raise ValueError("malformed model: frequencies is not an object")
    if not isinstance(raw_rules, list):
        raise ValueError("malformed model: rules is not a list")
    counts = [0] * len(alphabet)
    for token, count in counts_by_token.items():
        counts[alphabet.id_of(token)] = _number(int, count, f"count of {token!r}")
    try:
        freq = FrequencyTable(alphabet, counts, _number(int, n, "n"))
    except OverflowError:
        raise ValueError("malformed model: counts beyond float range") from None
    precision = _number(int, precision, "precision")
    rules = []
    weights = []
    for entry in raw_rules:
        if not isinstance(entry, dict):
            raise ValueError(
                f"malformed model: rule entry is not an object: {entry!r}"
            )
        missing = [f for f in _RULE_FIELDS if f not in entry]
        if missing:
            raise ValueError(
                f"malformed model: rule entry lacks {', '.join(missing)}"
            )
        ant = _tokens(entry["antecedent"], "malformed model: rule antecedent")
        cons = _tokens(entry["consequent"], "malformed model: rule consequent")
        rules.append(Rule.from_tokens(alphabet, ant, cons))
        w = _number(float, entry["weight"], "rule weight")
        if not (0.0 < w < 1.0 and quantize_weight(w, precision) == w):
            raise ValueError(
                f"malformed model: rule weight {entry['weight']!r} is not in "
                f"(0, 1) with at most {precision} decimals"
            )
        weights.append(w)
    return Model(alphabet, freq, tuple(rules), tuple(weights), precision)


def save_model(m: Model, path: str | Path) -> None:
    Path(path).write_text(model_to_json(m), encoding="utf-8")


def load_model(path: str | Path) -> Model:
    text = Path(path).read_text(encoding="utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from None
    try:
        return model_from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_targets(
    rules: Iterable[Rule], alphabet: Alphabet, path: str | Path
) -> None:
    payload = [
        {
            "antecedent": list(r.tokens(alphabet)[0]),
            "consequent": list(r.tokens(alphabet)[1]),
        }
        for r in rules
    ]
    Path(path).write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def load_targets(path: str | Path, alphabet: Alphabet) -> tuple[Rule, ...]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from None
    try:
        if not isinstance(payload, list):
            raise TypeError("not a list of rules")
        return tuple(
            Rule.from_tokens(
                alphabet,
                _tokens(e["antecedent"], "antecedent"),
                _tokens(e["consequent"], "consequent"),
            )
            for e in payload
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed targets: {exc}") from None
