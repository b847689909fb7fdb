"""tools/pairs.py: the verdict is the choosing-metrics rule, nothing looser."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs_tool", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

PARENT = [1.20, 1.22, 1.19, 1.25, 1.21, 1.23, 1.20, 1.24, 1.22, 1.21]


def test_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parents_iqr():
    fast = [p / 1.4 for p in PARENT]
    assert pairs.judge(PARENT, fast, "lower")["verdict"] == "gain"
    assert pairs.judge(fast, PARENT, "lower")["verdict"] == "loss"
    # eight wins, two losses: not shown, however far apart the medians
    mixed = fast[:8] + [p * 1.1 for p in PARENT[8:]]
    r = pairs.judge(PARENT, mixed, "lower")
    assert (r["wins"], r["losses"], r["verdict"]) == (8, 2, "not shown")
    # ten wins by a hair: inside the parent's own spread
    hair = [p - 0.001 for p in PARENT]
    r = pairs.judge(PARENT, hair, "lower")
    assert (r["wins"], r["verdict"]) == (10, "not shown")
    # a tie counts for neither side
    tied = fast[:9] + PARENT[9:]
    r = pairs.judge(PARENT, tied, "lower")
    assert (r["wins"], r["losses"], r["verdict"]) == (9, 0, "gain")


def test_higher_is_better_metrics_are_judged_the_other_way_round():
    rate = [1000.0 / p for p in PARENT]
    faster = [r * 1.4 for r in rate]
    r = pairs.judge(rate, faster, "higher")
    assert r["verdict"] == "gain" and abs(r["ratio"] - 1.4) < 1e-9
    assert pairs.judge(rate, faster, "lower")["verdict"] == "loss"


def test_fewer_than_ten_pairs_claim_nothing():
    r = pairs.judge(PARENT[:3], [p / 2 for p in PARENT[:3]], "lower")
    assert r["wins"] == 3 and r["verdict"] == "needs 10 pairs"
    assert pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)
