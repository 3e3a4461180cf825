"""The mutation harness's list cannot rot: each mutant's old text occurs
exactly once in its module, and the committed report `MUTANTS.json` names
the same mutants in the same order, each killed by a test other than the
golden digests."""
import json

import pytest

import mutants

REPORT = json.loads((mutants.ROOT / "MUTANTS.json").read_text())


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    source = (mutants.ROOT / mutants.PACKAGE / f"{mutant.module}.py").read_text()
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_report_names_the_same_mutants():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert [r["name"] for r in REPORT["mutants"]] == names


def test_every_mutant_is_killed_without_the_golden_test():
    assert [r["name"] for r in REPORT["mutants"] if not r["killed_without_golden"]] == []
