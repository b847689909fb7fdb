"""The claims registry's bookkeeping, checked without running a simulation."""

import re
from pathlib import Path

from repro.experiments.claims import CLAIMS, HEADLINE, RUNS

ROOT = Path(__file__).resolve().parents[1]


def _design_exp_ids() -> set[str]:
    """The Exp ids of DESIGN.md §4's experiment index."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("## 4. Experiment index"):text.index("## 5.")]
    return set(re.findall(r"^\| ([A-Za-z0-9-]+) \|", section, re.M)) - {"Exp id"}


def _committed_headline() -> list[tuple[str, str]]:
    """(metric, paper) of every row of the headline table in run_all_fast.txt."""
    lines = (ROOT / "benchmarks" / "run_all_fast.txt").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("metric ")) + 2
    rows = [line.split(" | ") for line in lines[start:] if " | " in line]
    return [(metric.rstrip(), paper.rstrip()) for metric, paper, *_ in rows]


def test_claim_ids_are_unique():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))


def test_every_id_is_prefixed_by_an_exp_id_of_design_section_4():
    exp_ids = _design_exp_ids()
    assert {c.id.split(".")[0] for c in CLAIMS} <= exp_ids, exp_ids


def test_every_claim_reads_a_registered_run():
    assert all(c.runs and set(c.runs) <= set(RUNS) for c in CLAIMS)
    assert {run for c in CLAIMS for run in c.runs} == set(RUNS)


def test_headline_claims_carry_the_committed_headline_table_in_order():
    committed = _committed_headline()
    assert len(committed) == 14
    assert [(c.headline, c.paper) for c in CLAIMS if c.headline] == committed
    assert all(HEADLINE in c.runs for c in CLAIMS if c.headline)
