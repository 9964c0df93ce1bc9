"""state_from_json verifies the checksum on the text itself: the text must
open with the stored checksum, as state_to_json writes it, and the
checksum must be the SHA-256 of ``"{"`` and everything after it, less one
trailing newline.

So the text state_to_json writes loads, with or without its newline, and
so does any text that signs itself by that rule; reformatted, reordered,
``\\r\\n``, bytes and tampered text each fail at ``checksum``.  Hashing
the text is the fast path: no load serializes the parsed document again.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fndam.array import MismatchSpec, advance, build_array, state_from_json, state_to_json
from fndam.calibrate import DEFAULT_V0, default_params
from fndam.errors import StateFormatError

MUTATIONS = ("none", "flip_payload", "flip_checksum", "indent", "key_order", "no_newline",
             "crlf", "bytes", "repeat_checksum_same", "repeat_checksum_other",
             "repeat_checksum_last")
AT_CHECKSUM = "^checksum mismatch at checksum: "


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


def aged_array(n, sigma, seed, dt):
    return advance(build_array(n, default_params(), DEFAULT_V0, MismatchSpec(sigma, seed)), dt)


@given(n=st.integers(1, 50), sigma=st.floats(0.0, 1e-2), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(0.0, 1e6), kind=st.sampled_from(MUTATIONS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_only_the_written_text_loads(n, sigma, seed, dt, kind, data):
    array = aged_array(n, sigma, seed, dt)
    text = mutate(state_to_json(array), kind, data)
    if kind in ("none", "no_newline"):
        assert state_from_json(text) == array
    elif kind.startswith("flip"):
        # a flipped bit may also break the JSON or the format tag, which are read first
        with pytest.raises(StateFormatError):
            state_from_json(text)
    elif kind == "key_order" and text == state_to_json(array):
        assert state_from_json(text) == array  # the drawn order was the written one
    else:
        with pytest.raises(StateFormatError, match=AT_CHECKSUM):
            state_from_json(text)


def test_tampered_text_is_rejected():
    text = state_to_json(aged_array(3, 1e-3, 5, 2.0))
    at = text.index('"global_clock":2.0') + len('"global_clock":')
    for tampered in (text[:at] + "3" + text[at + 1:], flipped(text, 20, 0)):
        with pytest.raises(StateFormatError, match=AT_CHECKSUM + "stored "):
            state_from_json(tampered)


@pytest.mark.parametrize("reformat", [
    lambda text: json.dumps(json.loads(text), indent=1),
    lambda text: json.dumps(dict(sorted(json.loads(text).items(), reverse=True)),
                            separators=(",", ":")) + "\n",
    lambda text: text[:-1] + "\r\n",
    lambda text: text.encode(),
], ids=["indent", "key_order", "crlf", "bytes"])
def test_other_text_fails_at_checksum(reformat):
    text = reformat(state_to_json(aged_array(3, 1e-3, 2, 1.0)))
    with pytest.raises(StateFormatError, match=AT_CHECKSUM):
        state_from_json(text)


def self_signed(payload_text):
    """A document whose checksum is the SHA-256 of '{' + its text after the checksum."""
    checksum = hashlib.sha256(payload_text.encode()).hexdigest()
    return '{"checksum":"' + checksum + '",' + payload_text[1:] + "\n"


@given(n=st.integers(1, 50), sigma=st.floats(0.0, 1e-2), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(0.0, 1e6))
@settings(max_examples=50, deadline=None)
def test_the_text_is_the_canonical_dump_of_its_document(n, sigma, seed, dt):
    # state_to_json encodes the columns one at a time; the reference is one json.dumps
    text = state_to_json(aged_array(n, sigma, seed, dt))
    doc = json.loads(text)
    del doc["checksum"]
    assert text == self_signed(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def test_self_signed_non_canonical_text_loads():
    array = aged_array(4, 1e-3, 11, 3.5)
    doc = json.loads(state_to_json(array))
    del doc["checksum"]
    loose = self_signed(json.dumps(doc, sort_keys=True, separators=(", ", ": ")))
    assert loose != state_to_json(array)
    assert state_from_json(loose) == state_from_json(state_to_json(array)) == array


@pytest.mark.parametrize("last", ["0" * 64, "written"])
def test_a_checksum_repeated_inside_the_signed_text_is_the_stored_one(last):
    # json keeps the last "checksum", which the hash in front does not name
    text = state_to_json(aged_array(3, 1e-3, 6, 2.0))
    last = json.loads(text)["checksum"] if last == "written" else last
    signed = self_signed("{" + text[79:-2] + f',"checksum":"{last}"}}')
    with pytest.raises(StateFormatError, match=AT_CHECKSUM + "the text does not open"):
        state_from_json(signed)


def test_fast_path_runs_every_other_check():
    array = aged_array(2, 1e-3, 3, 1.0)
    doc = json.loads(state_to_json(array))
    del doc["checksum"]
    doc["mismatch"]["seed"] = True  # bool is an int subclass, but not a seed
    with pytest.raises(StateFormatError,
                       match=r"^wrong type at mismatch\.seed: expected int, got bool$"):
        state_from_json(self_signed(json.dumps(doc, sort_keys=True, separators=(",", ":"))))
    doc["mismatch"]["seed"] = 3
    doc["columns"]["set_v_fg"][1] = -1.0
    with pytest.raises(StateFormatError, match=r"columns\.set_v_fg\[1\]"):
        state_from_json(self_signed(json.dumps(doc, sort_keys=True, separators=(",", ":"))))


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(version="2"), r"^wrong type at version: expected int, got str$"),
    (lambda doc: doc["nominal_params"].update(c_couple=doc["nominal_params"]["c_total"]),
     r"^invalid parameters at nominal_params: "),
    (lambda doc: doc.update(v0=1e-300), r"^invalid value at v0: 1e-300, no set node starts there$"),
    (lambda doc: doc["mismatch"].update(relative_sigma=-1.0), r"^invalid field at mismatch: "),
], ids=["version_type", "coupling", "v0", "sigma"])
def test_signed_document_errors_name_their_field(edit, message):
    # the checksum holds, so each document reaches the check behind it
    doc = json.loads(state_to_json(aged_array(2, 1e-3, 3, 1.0)))
    del doc["checksum"]
    edit(doc)
    with pytest.raises(StateFormatError, match=message):
        state_from_json(self_signed(json.dumps(doc, sort_keys=True, separators=(",", ":"))))


def test_a_lone_surrogate_fails_at_checksum():
    text = state_to_json(aged_array(2, 1e-3, 3, 1.0))
    odd = text.replace('"v0"', '"v0\ud800"')
    with pytest.raises(StateFormatError, match=AT_CHECKSUM + "stored "):
        state_from_json(odd)


def test_written_files_take_the_fast_path():
    # the two state files `train` writes at seed 0; tests/test_cli_golden.py
    # holds the CLI to these bytes
    golden = Path(__file__).resolve().parent / "data" / "golden" / "seed-0"
    texts = [p.read_text() for p in sorted(golden.glob("*_state.json"))]
    assert len(texts) == 2
    array = aged_array(10_000, 1e-3, 0, 60.0)
    texts.append(state_to_json(array))
    # each loads to the array that writes it again, byte for byte
    assert [state_to_json(state_from_json(t)) for t in texts] == texts
    assert state_from_json(texts[-1]) == array
