"""The summary of tools/ab_pairs.py, on made-up paired runs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

LOWER = {"name": "pass_norm", "better": "lower", "bound": 0.2}
HIGHER = {"name": "ops", "better": "higher", "bound": 0.1}


def runs(name, values):
    return [{name: v} for v in values]


def test_statistics_wins_and_gain():
    parent = runs("pass_norm", [100.0, 102.0, 98.0, 101.0, 99.0])
    change = runs("pass_norm", [80.0, 82.0, 81.0, 101.0, 79.0])  # pair 4 ties
    s = ab_pairs.summarize(parent, change, [LOWER])["pass_norm"]
    assert s["parent"] == {"median": 100.0, "q1": 99.0, "q3": 101.0}
    assert s["change"] == {"median": 81.0, "q1": 80.0, "q3": 82.0}
    assert s["ratio"] == 0.81
    assert (s["wins"], s["pairs"]) == (4, 5)
    assert not s["gain"]  # 4 of 5 is below nine tenths
    assert s["within_bound"]


def test_gain_needs_the_medians_apart_by_more_than_the_parent_iqr():
    parent = runs("pass_norm", [90.0, 100.0, 110.0, 95.0, 105.0])  # IQR 10
    for change_values, gain in (([89.0, 99.0, 109.0, 94.0, 104.0], False),
                                ([80.0, 85.0, 88.0, 84.0, 89.0], True)):
        s = ab_pairs.summarize(parent, runs("pass_norm", change_values), [LOWER])
        assert s["pass_norm"]["wins"] == 5
        assert s["pass_norm"]["gain"] is gain


def test_higher_is_better_and_the_bound():
    parent = runs("ops", [10.0, 10.0, 10.0])
    s = ab_pairs.summarize(parent, runs("ops", [8.5, 8.9, 9.5]), [HIGHER])["ops"]
    assert s["wins"] == 0 and not s["gain"]
    assert not s["within_bound"]  # 11 % lower against a 10 % bound
    s = ab_pairs.summarize(parent, runs("ops", [9.2, 11.0, 12.0]), [HIGHER])["ops"]
    assert s["wins"] == 2 and s["within_bound"]


def test_one_pair_and_mismatched_sides():
    s = ab_pairs.summarize(runs("pass_norm", [5.0]), runs("pass_norm", [4.0]), [LOWER])
    assert s["pass_norm"]["parent"] == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    assert s["pass_norm"]["gain"]
    nan = ab_pairs.summarize(runs("pass_norm", [math.nan]), runs("pass_norm", [4.0]), [LOWER])
    assert nan["pass_norm"]["wins"] == 0
    with pytest.raises(ValueError):
        ab_pairs.summarize(runs("pass_norm", [1.0, 2.0]), runs("pass_norm", [1.0]), [LOWER])


def test_ungated_metrics_have_no_bound():
    ungated = {"name": "calibrate_s", "better": "lower"}
    s = ab_pairs.summarize(runs("calibrate_s", [0.04, 0.05, 0.06]),
                           runs("calibrate_s", [0.03, 0.04, 0.05]), [ungated])["calibrate_s"]
    assert (s["wins"], s["pairs"]) == (3, 3)
    assert "within_bound" not in s
    missing = ab_pairs.summarize([{}], runs("calibrate_s", [0.03]), [ungated])["calibrate_s"]
    assert math.isnan(missing["parent"]["median"]) and missing["wins"] == 0


def test_the_record_line_gives_the_ungated_per_command_metrics():
    record = {"record": {"end_to_end": {
        "pass_norm": {"value": 250.0, "n": 40},
        "calibrate_s": {"value": 0.036, "n": 40, "norm": 145.0},
        "characterize_s": {"value": 0.012, "n": 40, "norm": 48.5, "p75": 0.02},
        "retention_report_s": {"value": 0.0077, "n": 40},
        "array_cell_ops_per_s": {"value": 2.1e7, "n": 40, "norm": 5.2e4},
        "error_rate": {"value": 0.0, "n": 160},
    }}}
    result = {"correct": True, "attempted": 160, "failed": 0,
              "metrics": {"pass_norm": {"value": 250.0, "unit": "ref"}}}
    stdout = "end-to-end (untraced):\n" + json.dumps(record) + "\n" + json.dumps(result) + "\n"
    got_result, got_record = ab_pairs.read_output(stdout)
    assert got_result == result
    # the normalized medians, not the raw seconds; a metric without one is left out
    assert ab_pairs.run_values(got_result, got_record, [LOWER]) == {
        "pass_norm": 250.0, "calibrate_s": 145.0, "characterize_s": 48.5,
        "array_cell_ops_per_s": 5.2e4}
    assert set(ab_pairs.UNGATED) == {
        "calibrate_s", "characterize_s", "energy_report_s", "retention_report_s",
        "train_perceptron_s", "train_network_s", "array_cell_ops_per_s", "fndam_import_s",
        "state_to_json_s", "state_from_json_s"}
    assert ab_pairs.UNGATED["array_cell_ops_per_s"] == "higher"
    assert ab_pairs.UNGATED["fndam_import_s"] == "lower"
    # no record line, or no output at all
    assert ab_pairs.read_output(json.dumps(result)) == (result, None)
    assert ab_pairs.read_output("") == (None, None)
    assert math.isnan(ab_pairs.run_values(None, None, [LOWER])["pass_norm"])


# stderr of `python -X importtime -c "import fndam.cli"`, cut down
IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:     61234 |     142011 | numpy
import time:       310 |        310 |     fndam.errors
import time:      1850 |       2160 |   fndam.node
import time:       402 |     145600 | fndam
import time:        95 |         95 |   fndamental
import time:      2010 |       2010 |   fndam.cli
"""


def test_the_fndam_import_time_sums_the_fndam_self_times():
    assert ab_pairs.fndam_import_seconds(IMPORTTIME) == (310 + 1850 + 402 + 2010) * 1e-6
    assert ab_pairs.fndam_import_seconds("") == 0.0



def test_import_times_alternate_the_trees_in_abba_order(monkeypatch):
    """Each side's interpreters interleave with the other side's, so neither
    runs all of its imports right after its own bench run."""
    calls = []
    self_us = {"parent": iter([900, 1100, 1000, 5000, 950]),
               "change": iter([800, 700, 750, 760, 4000])}

    def fake_stderr(tree):
        calls.append(tree.name)
        return f"import time: {next(self_us[tree.name])} | 1 | fndam.node\n"

    monkeypatch.setattr(ab_pairs, "importtime_stderr", fake_stderr)
    trees = {"parent": Path("/trees/parent"), "change": Path("/trees/change")}
    times = ab_pairs.import_times(trees, runs=5)
    assert calls == ["parent", "change", "change", "parent", "parent", "change",
                     "change", "parent", "parent", "change"]
    assert times == {"parent": 1000 * 1e-6, "change": 760 * 1e-6}  # medians; outliers drop out


def test_the_state_timer_reports_one_save_and_one_load(monkeypatch):
    monkeypatch.setattr(ab_pairs, "STATE_CELLS", 3)
    monkeypatch.setattr(ab_pairs, "STATE_RUNS", 2)
    times = ab_pairs.state_times(_PATH.parents[1], 0)
    assert sorted(times) == ["state_from_json_s", "state_to_json_s"]
    assert all(0.0 < t < 10.0 for t in times.values())
