"""state_from_json verifies text written by state_to_json on the text
itself, and gives every other text to load_state(json.loads(text)).

Within its layout the text hash and the re-serialized checksum agree, so
both paths must give the same array or the same error; the one intended
difference is pinned in ``test_self_signed_non_canonical_text_loads``.
"""

import contextlib
import hashlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fndam.array
from fndam.array import (MismatchSpec, advance, batch_read, build_array, load_state,
                         state_from_json, state_to_json)
from fndam.calibrate import DEFAULT_V0, default_params
from fndam.cli import main
from fndam.errors import FndamError, StateFormatError

MUTATIONS = ("none", "flip_payload", "flip_checksum", "indent", "key_order", "no_newline",
             "crlf", "bytes", "repeat_checksum_same", "repeat_checksum_other",
             "repeat_checksum_last")


def outcome(call):
    """("ok", array) or (error type, message), for comparing two loads."""
    try:
        return "ok", call()
    except (FndamError, ValueError) as exc:
        return type(exc), str(exc)


def reference(text):
    """What load_state makes of the text, with the checksum re-serialized."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return StateFormatError, f"not valid JSON: {exc}"
    return outcome(lambda: load_state(doc))


def flipped(text, i, bit):
    return text[:i] + chr(ord(text[i]) ^ (1 << bit)) + text[i + 1:]


def mutate(text, kind, data):
    """text changed as kind says; data draws the positions and orders."""
    if kind == "flip_payload":
        i = data.draw(st.integers(79, len(text) - 2), label="at")
        return flipped(text, i, data.draw(st.integers(0, 6), label="bit"))
    if kind == "flip_checksum":
        i = data.draw(st.integers(13, 76), label="at")
        return flipped(text, i, data.draw(st.integers(0, 6), label="bit"))
    doc = json.loads(text)
    if kind == "indent":
        return json.dumps(doc, indent=1)
    if kind == "key_order":
        keys = data.draw(st.permutations(sorted(doc)), label="keys")
        return json.dumps({k: doc[k] for k in keys}, separators=(",", ":")) + "\n"
    if kind == "no_newline":
        return text[:-1]
    if kind == "crlf":
        return text[:-1] + "\r\n"
    if kind == "bytes":
        return text.encode()
    other = hashlib.sha256(text.encode()).hexdigest()
    if kind == "repeat_checksum_same":
        return text[:79] + f'"checksum":"{doc["checksum"]}",' + text[79:]
    if kind == "repeat_checksum_other":
        return text[:79] + f'"checksum":"{other}",' + text[79:]
    if kind == "repeat_checksum_last":
        return text[:-2] + f',"checksum":"{doc["checksum"]}"}}\n'
    return text


class NoChecksum(Exception):
    pass


def refuse(doc):
    raise NoChecksum


def aged_array(n, sigma, seed, dt):
    return advance(build_array(n, default_params(), DEFAULT_V0, MismatchSpec(sigma, seed)), dt)


@given(n=st.integers(1, 50), sigma=st.floats(0.0, 1e-2), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(0.0, 1e6), kind=st.sampled_from(MUTATIONS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_fast_path_loads_as_load_state_does(n, sigma, seed, dt, kind, data):
    text = mutate(state_to_json(aged_array(n, sigma, seed, dt)), kind, data)
    expected = reference(text)
    # the written text, with or without its newline, never re-serializes
    fast = kind in ("none", "no_newline")
    with mock.patch.object(fndam.array, "_checksum", refuse) if fast else contextlib.nullcontext():
        assert outcome(lambda: state_from_json(text)) == expected


def test_tampered_text_is_rejected():
    text = state_to_json(aged_array(3, 1e-3, 5, 2.0))
    at = text.index('"global_clock":2.0') + len('"global_clock":')
    for tampered in (text[:at] + "3" + text[at + 1:], flipped(text, 20, 0)):
        with pytest.raises(StateFormatError, match="checksum mismatch"):
            state_from_json(tampered)


def self_signed(payload_text):
    """A document whose checksum is the SHA-256 of '{' + its text after the checksum."""
    checksum = hashlib.sha256(payload_text.encode()).hexdigest()
    return '{"checksum":"' + checksum + '",' + payload_text[1:] + "\n"


def test_self_signed_non_canonical_text_loads():
    array = aged_array(4, 1e-3, 11, 3.5)
    doc = json.loads(state_to_json(array))
    del doc["checksum"]
    loose = self_signed(json.dumps(doc, sort_keys=True, separators=(", ", ": ")))
    assert state_from_json(loose) == state_from_json(state_to_json(array)) == array
    # re-serialized, the same document fails its checksum
    kind, message = reference(loose)
    assert kind is StateFormatError and "checksum mismatch" in message


@pytest.mark.parametrize("last", ["0" * 64, "written"])
def test_a_checksum_repeated_inside_the_signed_text_is_the_stored_one(last):
    # json keeps the last "checksum", which the hash in front does not name
    text = state_to_json(aged_array(3, 1e-3, 6, 2.0))
    last = json.loads(text)["checksum"] if last == "written" else last
    signed = self_signed("{" + text[79:-2] + f',"checksum":"{last}"}}')
    assert outcome(lambda: state_from_json(signed)) == reference(signed)


def test_fast_path_runs_every_other_check():
    array = aged_array(2, 1e-3, 3, 1.0)
    doc = json.loads(state_to_json(array))
    del doc["checksum"]
    doc["rng"]["algorithm"] = "numpy.random.MT19937"
    with pytest.raises(StateFormatError, match="unknown generator at rng.algorithm"):
        state_from_json(self_signed(json.dumps(doc, sort_keys=True, separators=(",", ":"))))
    doc["rng"]["algorithm"] = fndam.array.RNG_ALGORITHM
    doc["columns"]["set_v_fg"][1] = -1.0
    with pytest.raises(StateFormatError, match=r"columns\.set_v_fg\[1\]"):
        state_from_json(self_signed(json.dumps(doc, sort_keys=True, separators=(",", ":"))))


def test_a_lone_surrogate_goes_to_load_state():
    text = state_to_json(aged_array(2, 1e-3, 3, 1.0))
    odd = text.replace('"gaussian"', '"gaussian\ud800"')
    assert outcome(lambda: state_from_json(odd)) == reference(odd)


def cli_state_files(tmp_path):
    for experiment in ("perceptron", "network"):
        out = tmp_path / experiment
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--experiment", experiment, "--seed", "0",
                         "--out", str(out)]) == 0
        yield from sorted(out.glob("*_state.json"))


def test_written_files_take_the_fast_path(tmp_path, monkeypatch):
    # bench/refs/cli records the CSVs only; the state files come from the CLI
    texts = [p.read_text() for p in cli_state_files(tmp_path)]
    assert len(texts) == 2
    array = aged_array(10_000, 1e-3, 0, 60.0)
    texts.append(state_to_json(array))
    expected = [[r.weight for r in batch_read(load_state(json.loads(t)))] for t in texts]
    monkeypatch.setattr(fndam.array, "_checksum", refuse)
    assert [[r.weight for r in batch_read(state_from_json(t))] for t in texts] == expected
    assert state_from_json(texts[-1]) == array


@pytest.mark.parametrize("reformat", [
    lambda text: json.dumps(json.loads(text), indent=1),
    lambda text: text.encode(),
    lambda text: text[:-1] + "\r\n",
])
def test_other_text_is_checked_by_re_serializing(reformat, monkeypatch):
    text = reformat(state_to_json(aged_array(3, 1e-3, 2, 1.0)))
    monkeypatch.setattr(fndam.array, "_checksum", refuse)
    with pytest.raises(NoChecksum):
        state_from_json(text)

