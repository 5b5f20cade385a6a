"""``tools/bench_pairs.py`` rebuilds the stored summaries of earlier benchmark files from their
stored pairs, with no child runs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402


def _decimals(value: float) -> int:
    text = repr(float(value))
    return len(text.split(".")[1]) if "." in text and "e" not in text else 0


@pytest.mark.parametrize("name", ["BENCH_30.json", "BENCH_31.json", "BENCH_32.json", "BENCH_33.json",
                                  "BENCH_34.json", "BENCH_35.json"])
def test_stored_summaries_are_rebuilt_from_their_pairs(name):
    doc = json.loads((ROOT / name).read_text(encoding="utf-8"))
    assert doc["summary"]
    for workload, stored in doc["summary"].items():
        got = bench_pairs.summarize([p for p in doc["pairs"] if p["workload"] == workload], bench_pairs.bounds())
        assert got["pairs"] == stored["pairs"]
        assert got.get("every_report_correct") == stored.get("every_report_correct", got["every_report_correct"])
        for metric in ("rows_per_s", "setup_s", "peak_rss_mb"):
            want, have = stored[metric], got[metric]
            assert set(want) == set(have)
            # BENCH_30.json stored the parent's interquartile range over its median to 3 decimals
            iqr = want.pop("parent_iqr_over_median")
            assert abs(have.pop("parent_iqr_over_median") - iqr) <= 0.5 * 10.0 ** -_decimals(iqr) + 1e-12
            assert have == want, (workload, metric)


@pytest.mark.parametrize("name", ["BENCH_31.json", "BENCH_32.json", "BENCH_33.json"])
def test_the_stored_claim_is_rebuilt_from_its_pairs(name):
    doc = json.loads((ROOT / name).read_text(encoding="utf-8"))
    stored = doc["claim"]
    pairs = [p for p in doc["pairs"] if p["workload"] == stored["workload"]]
    got = bench_pairs.claim(pairs, stored["workload"], stored["metric"], stored["better"])
    # BENCH_31.json stored the parent's interquartile range to 1 decimal
    assert got.pop("parent_iqr") == pytest.approx(stored.pop("parent_iqr"), abs=0.05)
    assert got == stored


def _pairs(parent, change):
    return [{"workload": "w", "seed": s, "first": "parent", "parent": {"m": p, "failed": 0, "correct": True},
             "change": {"m": c, "failed": 0, "correct": True}} for s, (p, c) in enumerate(zip(parent, change))]


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("higher", [100, 101, 102, 103], [99, 100, 101, 102], "no regression beyond bound"),
    ("higher", [100, 101, 102, 103], [70, 71, 72, 73], "regression beyond bound"),
    ("higher", [60, 100, 140, 180], [70, 90, 130, 170], "unresolved"),
    ("higher", [60, 100, 140, 180], [190, 200, 210, 220], "no regression beyond bound"),
    ("lower", [1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "regression beyond bound"),
])
def test_verdicts(better, parent, change, verdict):
    summary = bench_pairs.summarize(_pairs(parent, change), {"m": (better, 0.25)})
    assert summary["m"]["verdict"] == verdict


def test_a_failed_run_counts_in_no_median_and_its_pair_is_no_win():
    # run_once gives no metric values for a run whose output is not a result
    failed = {"attempted": 0, "failed": 0, "correct": False, "exit_code": 1}
    pairs = [{"workload": "w", "seed": s, "first": "parent", "parent": {"m": 100.0 + s, "failed": 0, "correct": True},
              "change": {"m": 200.0 + s, "failed": 0, "correct": True}} for s in range(10)]
    pairs[3]["change"] = failed
    got = bench_pairs.claim(pairs, "w", "m", "higher")
    assert got["change_better_in"] == "9 of 10" and got["met"]
    assert got["parent_median"] == 104.5 and got["change_median"] == 205.0
    summary = bench_pairs.summarize(pairs, {"m": ("higher", 0.25)})
    assert summary["m"]["change_better_in"] == "9 of 10" and not summary["every_report_correct"]
    assert (summary["m"]["parent_median"], summary["m"]["change_median"]) == (104.5, 205.0)
    pairs[5]["change"] = failed
    assert not bench_pairs.claim(pairs, "w", "m", "higher")["met"]  # 8 of 10
    for p in pairs:
        p["change"] = failed
    assert bench_pairs.claim(pairs, "w", "m", "higher") == {
        "workload": "w", "metric": "m", "better": "higher", "change_better_in": "0 of 10", "met": False}


def test_a_lower_is_better_claim_needs_nine_wins_and_a_median_drop_past_the_parent_iqr():
    # the parent reads 74.0 to 75.8 (quartiles 74.45 and 75.35, IQR 0.9); the change reads 65.x,
    # so its median is lower by far more than the IQR, and it wins wherever it reads lower
    parent = [74.0 + 0.2 * s for s in range(10)]
    change = [65.0 + 0.1 * s for s in range(10)]
    change[4] = 80.0  # one pair the change loses: 9 of 10
    got = bench_pairs.claim(_pairs(parent, change), "w", "m", "lower")
    assert got["change_better_in"] == "9 of 10" and got["met"]
    assert got["parent_iqr"] == pytest.approx(0.9) and got["parent_median"] - got["change_median"] > 0.9
    change[6] = 81.0  # a second lost pair: 8 of 10, with the median still far lower
    got = bench_pairs.claim(_pairs(parent, change), "w", "m", "lower")
    assert got["change_better_in"] == "8 of 10" and not got["met"]
    assert got["parent_median"] - got["change_median"] > got["parent_iqr"]


def test_a_lower_is_better_claim_within_the_parent_iqr_is_not_met():
    # every pair reads lower, but the median falls by 0.5 against a parent IQR of 0.9
    parent = [74.0 + 0.2 * s for s in range(10)]
    got = bench_pairs.claim(_pairs(parent, [p - 0.5 for p in parent]), "w", "m", "lower")
    assert got["change_better_in"] == "10 of 10" and not got["met"]
