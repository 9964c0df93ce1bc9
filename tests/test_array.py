"""Array construction with seeded mismatch, batch operations, and the
versioned state round-trip."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fndam
from fndam.array import (
    STATE_FORMAT,
    STATE_VERSION,
    NO_MISMATCH,
    DamArray,
    MismatchSpec,
    WeightReading,
    _mismatched,
    advance,
    batch_pulse,
    batch_read,
    build_array,
    rate_matched_voltages,
    state_from_json,
    state_to_json,
)
from fndam.calibrate import default_params
from fndam.cell import decay, read_weight, set_pulse, synchronize
from fndam.errors import ArgumentError, DomainError, InitializationError, StateFormatError
from fndam.node import Pulse


def state_doc(array):
    """The state document of array, as a reader of its JSON text gets it."""
    return json.loads(state_to_json(array))


def canonical(doc):
    """doc as state_to_json lays its text out, keeping doc's checksum."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def signed(doc):
    """The text state_to_json would write for doc: everything but the
    checksum in canonical form, its SHA-256 spliced in front."""
    payload = json.dumps({k: v for k, v in doc.items() if k != "checksum"},
                         sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(payload.encode()).hexdigest()
    return '{"checksum":"' + checksum + '",' + payload[1:] + "\n"


def small_array(n=4, sigma=0.0, seed=0):
    spec = MismatchSpec(relative_sigma=sigma, seed=seed)
    return build_array(n, default_params(), 7.5, mismatch=spec)


def row(array, i):
    """Cell i of array as a one-cell DamArray over row i of its columns.

    A one-cell draw gives cell 0's constants only, so the row is built
    as operations build arrays, through ``DamArray._of``.
    """
    columns = (getattr(array, c)[i:i + 1] for c in ("v", "log_k1", "k2"))
    return DamArray._of(*columns, array.nominal_params, array.mismatch, array.v0,
                        array.global_clock)


def hand_made(v, log_k1, k2, nominal, v0):
    """A fresh array of nodes whose (N, 2) constants no mismatch draw
    gives, built as ``cell.synchronize`` builds its cell: read-only
    columns through ``DamArray._of``."""
    columns = np.array([v, log_k1, k2], dtype=np.float64)
    columns.flags.writeable = False
    return DamArray._of(*columns, nominal, NO_MISMATCH, v0, 0.0)


class TestBuildArray:
    def test_same_seed_same_array(self):
        a = small_array(8, sigma=1e-3, seed=5)
        b = small_array(8, sigma=1e-3, seed=5)
        assert a == b

    def test_different_seed_different_voltages(self):
        a = small_array(8, sigma=1e-3, seed=5)
        b = small_array(8, sigma=1e-3, seed=6)
        va = a.v[:, 1].tolist()
        vb = b.v[:, 1].tolist()
        assert va != vb

    def test_all_cells_start_at_matched_rates(self):
        # mismatch perturbs parameters, not the initial weight ordering:
        # every cell is rate-matched so its weight drift starts from zero
        array = small_array(16, sigma=1e-3, seed=1)
        for reading in batch_read(array):
            assert abs(reading.weight) < 20.0  # mV; k2 spread shifts the balance point
        assert array.global_clock == 0.0

    def test_zero_sigma_means_identical_cells(self):
        array = small_array(5, sigma=0.0)
        first = row(array, 0)
        assert all(row(array, i) == first for i in range(len(array)))
        assert all(read_weight(row(array, i)) == 0.0 for i in range(len(array)))

    def test_mismatch_spread_tracks_sigma(self):
        # pull the realized k1/k2 factors back out of the built cells
        sigma = 5e-4
        nominal = default_params()
        array = build_array(400, nominal, 7.5, mismatch=MismatchSpec(relative_sigma=sigma, seed=9))
        factors = []
        for set_k2, reset_k2 in array.k2.tolist():
            factors.append(set_k2 / nominal.k2 - 1.0)
            factors.append(reset_k2 / nominal.k2 - 1.0)
        realized = float(np.std(factors))
        np.testing.assert_allclose(realized, sigma, rtol=0.10)

    def test_size_validation(self):
        with pytest.raises(ArgumentError):
            build_array(0, default_params(), 7.5)

    @pytest.mark.parametrize("n", [1.5, math.nan, True])
    def test_size_must_be_an_integer(self, n):
        with pytest.raises(ArgumentError, match="array size must be an integer"):
            build_array(n, default_params(), 7.5)

    def test_numpy_integer_size(self):
        assert len(build_array(np.int64(3), default_params(), 7.5)) == 3

    def test_hopeless_mismatch_reports_indices(self):
        with pytest.raises(InitializationError) as exc_info:
            build_array(
                3, default_params(), 7.5,
                mismatch=MismatchSpec(relative_sigma=0.5, seed=0),
            )
        assert len(exc_info.value.indices) >= 1

    def test_subnormal_v0_fails_without_a_warning(self):
        # k2/v0 overflows to inf, which the k0 range check rejects; a
        # RuntimeWarning fails this test (filterwarnings in pyproject.toml)
        with pytest.raises(InitializationError) as exc_info:
            build_array(2, default_params(), 5e-324)
        assert exc_info.value.indices == (0, 1)


class TestConstruction:
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_bad_voltage_rejected_by_replace(self, value):
        cell = synchronize(default_params(), 7.5)
        with pytest.raises(DomainError) as exc_info:
            replace(cell, v=[[7.5, value]])
        assert str(exc_info.value) == (
            f"cell 0 RESET node voltage must be positive and finite, got {value!r}")

    def test_bad_voltage_rejected_by_public_constructor(self):
        array = small_array(3)
        v = array.v.copy()
        v[2, 0] = math.nan
        with pytest.raises(DomainError, match="^cell 2 SET node voltage must be positive"):
            DamArray(v, array.nominal_params, array.mismatch, array.v0)

    def test_first_bad_node_is_named(self):
        array = small_array(3)
        v = array.v.copy()
        v[1, 1] = -2.0
        v[2, 0] = math.inf
        with pytest.raises(DomainError, match="^cell 1 RESET node .* got -2.0$"):
            replace(array, v=v)

    @pytest.mark.parametrize("column, value", [
        *(("log_k1", value) for value in (-math.inf, math.nan, math.inf)),
        *(("k2", value) for value in (0.0, -1.0, math.nan, math.inf)),
    ])
    def test_bad_node_constant_rejected(self, column, value, monkeypatch):
        # a draw that gives cell 2's RESET node this log k1 (k1 = exp(value))
        # or k2; any finite log k1 is some k1 > 0
        name, got = ("k1", math.exp(value)) if column == "log_k1" else ("k2", value)
        draw = fndam.array._mismatched

        def patched(n, nominal, spec):
            k = dict(zip(("k1", "k2"), draw(n, nominal, spec)))
            k[name][2, 1] = got
            return k["k1"], k["k2"]

        array = small_array(3)
        monkeypatch.setattr(fndam.array, "_mismatched", patched)
        with pytest.raises(DomainError) as exc_info:
            DamArray(array.v, array.nominal_params, array.mismatch, array.v0)
        assert str(exc_info.value) == (
            f"cell 2 RESET node {name} must be positive and finite, got {got!r}")


class TestMismatchSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(relative_sigma=-1e-3),
        dict(relative_sigma=math.nan),
        dict(seed=-1),
        dict(seed=2**64),
        dict(seed=1.5),
        dict(relative_sigma=math.inf),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            MismatchSpec(**kwargs)


class TestBatchOperations:
    def test_advance_moves_every_clock(self):
        array = advance(small_array(3), 2.5)
        assert array.global_clock == 2.5
        assert all(row(array, i).global_clock == 2.5 for i in range(len(array)))

    def test_batch_pulse_matches_single_cell_path(self):
        array = small_array(3)
        pulse = Pulse(amplitude=0.2, duration=0.5)
        batched = batch_pulse(array, [(1, 1, pulse)])
        manual = set_pulse(row(array, 1), pulse)
        assert row(batched, 1) == manual
        # untargeted cells idle for the same window
        assert row(batched, 0) == decay(row(array, 0), 0.5)
        assert batched.global_clock == 0.5

    def test_a_clock_that_would_overflow_is_rejected(self):
        array = advance(small_array(2), 1e308)
        pulse = Pulse(amplitude=0.2, duration=1e308)
        for step in (lambda a: advance(a, 1e308), lambda a: batch_pulse(a, [(0, 1, pulse)])):
            with pytest.raises(DomainError,
                               match=r"^global_clock 1e\+308 s \+ 1e\+308 s overflows to inf$"):
                step(array)
        # the largest clock an operation reaches is still saved and loaded
        assert state_from_json(state_to_json(array)) == array

    def test_mixed_polarities_in_one_batch(self):
        array = small_array(4)
        pulse = Pulse(amplitude=0.3, duration=0.1)
        after = batch_pulse(array, [(0, 1, pulse), (2, -1, pulse)])
        w = [r.weight for r in batch_read(after)]
        assert w[0] > 0.0
        assert w[2] < 0.0
        assert w[1] == w[3]

    def test_empty_batch_without_duration_rejected(self):
        with pytest.raises(ArgumentError, match="empty batch"):
            batch_pulse(small_array(2), [])

    def test_duplicate_target_rejected(self):
        pulse = Pulse(amplitude=0.2, duration=0.5)
        with pytest.raises(ArgumentError):
            batch_pulse(small_array(3), [(1, 1, pulse), (1, -1, pulse)])

    def test_mismatched_durations_rejected(self):
        with pytest.raises(ArgumentError):
            batch_pulse(small_array(3), [
                (0, 1, Pulse(amplitude=0.2, duration=0.5)),
                (1, 1, Pulse(amplitude=0.2, duration=0.25)),
            ])

    @pytest.mark.parametrize("idx", [-1, 3, 1.5, True, False, np.True_])
    def test_index_validation(self, idx):
        pulse = Pulse(amplitude=0.2, duration=0.5)
        with pytest.raises(ArgumentError):
            batch_pulse(small_array(3), [(idx, 1, pulse)])

    @pytest.mark.parametrize("sigma", [0.0, 1e-4])
    def test_batch_read_is_read_weight_per_row(self, sigma):
        array = advance(small_array(6, sigma=sigma, seed=8), 12.5)
        readings = batch_read(array)
        assert len(readings) == len(array)
        for i, reading in enumerate(readings):
            assert reading == (read_weight(row(array, i)), array.global_clock)
            assert isinstance(reading, WeightReading)

    def test_reading_is_immutable_and_exported(self):
        reading = batch_read(small_array(2))[0]
        with pytest.raises(AttributeError):
            reading.weight = 0.0
        assert fndam.WeightReading is WeightReading
        assert reading == (reading.weight, reading.timestamp)


class TestStatePersistence:
    def test_round_trip_is_lossless(self):
        array = small_array(100, sigma=1e-3, seed=12)
        array = advance(array, 3.25)
        restored = state_from_json(signed(state_doc(array)))
        assert restored == array

    def test_json_round_trip_is_lossless(self):
        array = small_array(10, sigma=1e-3, seed=4)
        assert state_from_json(state_to_json(array)) == array

    def test_document_identity_fields(self):
        doc = state_doc(small_array(2, sigma=1e-3, seed=7))
        assert doc["format"] == STATE_FORMAT
        assert doc["version"] == STATE_VERSION
        assert sorted(doc) == ["checksum", "columns", "format", "global_clock", "mismatch",
                               "nominal_params", "v0", "version"]
        assert sorted(doc["mismatch"]) == ["constants_sha256", "relative_sigma", "seed"]
        assert (doc["mismatch"]["relative_sigma"], doc["mismatch"]["seed"]) == (1e-3, 7)
        assert sorted(doc["columns"]) == ["reset_v_fg", "set_v_fg"]
        assert all(len(col) == 2 for col in doc["columns"].values())

    def test_tampered_v2_document_rejected(self):
        doc = state_doc(small_array(2))
        doc["columns"]["set_v_fg"][0] = 7.4
        with pytest.raises(StateFormatError, match="checksum"):
            state_from_json(canonical(doc))

    def test_unknown_format_rejected(self):
        doc = state_doc(small_array(2))
        doc["format"] = "other-tool-state"
        with pytest.raises(StateFormatError, match="format"):
            state_from_json(canonical(doc))

    def test_future_version_rejected(self):
        # version 1, one object per cell, version 3, which stored k1
        # itself, and version 4, which stored log k1 and k2, are no longer
        # read either
        for version in (1, 3, 4, STATE_VERSION + 1):
            doc = state_doc(small_array(2))
            doc["version"] = version
            doc["checksum"] = ""
            with pytest.raises(StateFormatError,
                               match=f"^unsupported schema version at version: {version}$"):
                state_from_json(canonical(doc))

    def test_signed_version_2_layout_rejected(self):
        # the layout before version 3: a weight_scale column, an rng block
        # and the draw's name; the checksum holds, the version does not
        doc = state_doc(small_array(2, sigma=1e-3, seed=7))
        doc["version"] = 2
        doc["columns"]["weight_scale"] = [1000.0, 1000.0]
        doc["rng"] = {"algorithm": "numpy.random.PCG64", "seed": 7}
        doc["mismatch"]["distribution"] = "gaussian"
        with pytest.raises(StateFormatError, match="^unsupported schema version at version: 2$"):
            state_from_json(signed(doc))

    def test_missing_field_is_located(self):
        doc = state_doc(small_array(2))
        del doc["mismatch"]["seed"]
        with pytest.raises(StateFormatError, match=r"^missing field at mismatch\.seed$"):
            state_from_json(signed(doc))

    def test_missing_v2_column_is_located(self):
        doc = state_doc(small_array(2))
        del doc["columns"]["reset_v_fg"]
        with pytest.raises(StateFormatError, match=r"columns\.reset_v_fg"):
            state_from_json(signed(doc))

    def test_short_v2_column_is_located(self):
        doc = state_doc(small_array(2))
        doc["columns"]["reset_v_fg"].pop()
        with pytest.raises(StateFormatError, match=r"columns\.reset_v_fg"):
            state_from_json(signed(doc))

    def test_wrong_scalar_type_is_located(self):
        doc = state_doc(small_array(2))
        doc["global_clock"] = "zero"
        with pytest.raises(StateFormatError, match="^wrong type at global_clock: "):
            state_from_json(signed(doc))

    @pytest.mark.parametrize("value", ["zero", True, None, [1.0]])
    def test_wrong_v2_entry_type_is_located(self, value):
        doc = state_doc(small_array(2))
        doc["columns"]["reset_v_fg"][1] = value
        with pytest.raises(StateFormatError, match=r"columns\.reset_v_fg\[1\]"):
            state_from_json(signed(doc))

    def test_bool_is_not_a_number(self):
        doc = state_doc(small_array(2))
        doc["v0"] = True
        with pytest.raises(StateFormatError, match="v0"):
            state_from_json(signed(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(StateFormatError, match="JSON"):
            state_from_json("{not json")
        # an int literal longer than int() converts from text
        with pytest.raises(StateFormatError, match="not valid JSON"):
            state_from_json('{"v0":' + "1" * 5000 + "}")

    def test_non_mapping_rejected(self):
        with pytest.raises(StateFormatError):
            state_from_json("[1, 2, 3]")

    def test_empty_cell_list_rejected(self):
        # one empty column among full ones
        doc = state_doc(small_array(2))
        doc["columns"]["reset_v_fg"] = []
        with pytest.raises(StateFormatError, match=r"^empty cell list at columns\.reset_v_fg$"):
            state_from_json(signed(doc))

    def test_empty_v2_columns_rejected(self):
        doc = state_doc(small_array(1))
        doc["columns"] = {key: [] for key in doc["columns"]}
        with pytest.raises(StateFormatError, match="empty"):
            state_from_json(signed(doc))

    def test_json_is_one_line_with_full_precision(self):
        array = advance(small_array(3, sigma=1e-3, seed=4), 1.0 / 3.0)
        text = state_to_json(array)
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text)["global_clock"] == 1.0 / 3.0

    def test_json_parses_to_the_saved_document(self):
        array = advance(small_array(5, sigma=1e-3, seed=9), 2.5)
        text = state_to_json(array)
        # the compact canonical form, checksum first
        assert text == signed(json.loads(text)) == canonical(json.loads(text))

    @given(seed=st.integers(0, 2**32 - 1), dt=st.floats(0.0, 1e4))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_any_seed_and_age(self, seed, dt):
        array = advance(small_array(3, sigma=1e-3, seed=seed), dt)
        assert state_from_json(signed(state_doc(array))) == array


def _edit(doc, change):
    """The signed text of doc after change."""
    change(doc)
    return signed(doc)


def _set(path, value):
    """Document edit that sets the field at a key path (tuple of keys/indices)."""
    def change(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return change


class TestPhysicalInvariantsOnLoad:
    """Checksummed documents that cannot describe an array are rejected."""

    @pytest.mark.parametrize("path, value, where", [
        (("v0",), math.inf, "^invalid value at v0: inf, must be positive and finite$"),
        (("mismatch", "constants_sha256"), "0" * 64, "^constants mismatch at mismatch: numpy "),
        (("global_clock",), math.nan, "global_clock"),
        (("global_clock",), -5.0, "global_clock"),
        (("global_clock",), math.inf, "global_clock"),
        (("columns", "set_v_fg", 0), 0.0, r"columns\.set_v_fg\[0\]"),
        (("columns", "set_v_fg", 1), -7.5, r"columns\.set_v_fg\[1\]"),
        (("columns", "reset_v_fg", 1), 5000.0, r"columns\.reset_v_fg\[1\]"),
        (("mismatch", "relative_sigma"), 2e-3, "^constants mismatch at mismatch: "),
        (("mismatch", "seed"), 4, "^constants mismatch at mismatch: "),
        (("mismatch", "relative_sigma"), 1e308, "^invalid draw at mismatch: cell 0 "),
        (("v0",), 0.0, "v0"),
        (("mismatch", "constants_sha256"), 5,
         r"^wrong type at mismatch\.constants_sha256: expected str, got int$"),
        (("columns", "set_v_fg", 0), math.nan, r"columns\.set_v_fg\[0\]"),
        (("v0",), 10**400, "^number out of float range at v0$"),
        (("global_clock",), 10**400, "^number out of float range at global_clock$"),
        (("nominal_params", "k1"), 10**400, r"^number out of float range at nominal_params\.k1$"),
        (("mismatch", "relative_sigma"), 10**400,
         r"^number out of float range at mismatch\.relative_sigma$"),
        (("columns", "reset_v_fg", 1), 10**400,
         r"^number out of float range at columns\.reset_v_fg$"),
    ])
    def test_version_2(self, path, value, where):
        text = _edit(state_doc(small_array(2, sigma=1e-3, seed=3)), _set(path, value))
        with pytest.raises(StateFormatError, match=where):
            state_from_json(text)


class TestColumns:
    def test_columns_are_read_only(self):
        array = small_array(3)
        for col in (array.v, array.log_k1, array.k2):
            with pytest.raises(ValueError):
                col[0] = 1.0

    def test_operations_leave_their_input_unchanged(self):
        array = small_array(4, sigma=1e-3, seed=2)
        before = state_doc(array)
        pulse = Pulse(amplitude=0.2, duration=0.5)
        advance(array, 3.0)
        batch_pulse(array, [(0, 1, pulse), (3, -1, pulse)])
        batch_read(array)
        assert state_doc(array) == before

    def test_writable_inputs_are_copied(self):
        array = small_array(2)
        v = np.array(array.v)
        built = DamArray(v, array.nominal_params, array.mismatch, array.v0)
        v[0, 0] = 1.0
        assert built == array
        assert v.flags.writeable

    def test_shape_mismatch_rejected(self):
        array = small_array(2)
        with pytest.raises(ArgumentError):
            DamArray(array.v[:, :1], array.nominal_params, array.mismatch, array.v0)

    def test_equality_compares_every_column(self):
        array = small_array(2)
        assert array == small_array(2)
        assert array != advance(array, 1.0)
        assert array != small_array(2, sigma=1e-3)
        assert array != "not an array"

    def test_cells_view_matches_columns(self):
        array = advance(small_array(3, sigma=1e-3, seed=8), 2.0)
        nominal = array.nominal_params
        v_reset = rate_matched_voltages(array.log_k1[:, 0], array.k2[:, 0],
                                        array.log_k1[:, 1], array.k2[:, 1], 7.5).tolist()
        k1s = _mismatched(3, nominal, array.mismatch)[0].tolist()
        for i, (k1, k2) in enumerate(zip(k1s, array.k2.tolist())):
            set_p, reset_p = (replace(nominal, k1=a, k2=b) for a, b in zip(k1, k2))
            cell = decay(hand_made([[7.5, v_reset[i]]], [[set_p.log_k1, reset_p.log_k1]], [k2],
                                   set_p, 7.5), 2.0)
            assert cell.v[0].tolist() == array.v[i].tolist()
            assert cell.log_k1[0].tolist() == array.log_k1[i].tolist()
            assert cell.global_clock == array.global_clock
            assert read_weight(cell) == array.weights()[i]
