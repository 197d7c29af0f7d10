"""The one check recorder and the case loop of the validation reports."""

import itertools
import pathlib

import pytest

from pcurv.cli import Report, identity_suite, run_scenario
from pcurv.report import ValidationReport

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


class TestCheck:
    @pytest.mark.parametrize(
        "shown, witness", [(None, "a; b; c"), (1, "a"), (2, "a; b"), (3, "a; b; c")]
    )
    def test_witness_is_the_first_shown_failures(self, shown, witness):
        rep = ValidationReport("t")
        rep.check("c", ["a", "b", "c"], shown=shown)
        (result,) = rep.checks
        assert (result.name, result.passed, result.witness) == ("c", False, witness)
        assert not rep.passed

    def test_no_failures_passes_without_witness(self):
        rep = ValidationReport("t")
        rep.check("c", [], shown=1)
        (result,) = rep.checks
        assert result.passed and result.witness is None
        assert rep.passed

    def test_details_and_section_are_kept(self):
        rep = ValidationReport("t")
        rep.check("c", ["w"], section="anchor_compatibility", pairs=4, panel=30)
        (result,) = rep.checks
        assert result.section == "anchor_compatibility"
        assert result.details == {"pairs": 4, "panel": 30}
        assert result.to_dict() == {
            "name": "c",
            "passed": False,
            "section": "anchor_compatibility",
            "witness": "w",
            "details": {"pairs": 4, "panel": 30},
        }


class TestRunCases:
    def test_records_each_case_under_its_function_name(self):
        def always_holds():
            return None

        def never_holds():
            return "bad"

        rep = ValidationReport("t")
        rep.run_cases([always_holds, never_holds], 3)
        assert [c.to_dict() for c in rep.checks] == [
            {"name": "always_holds", "passed": True, "section": "core", "details": {"trials": 3}},
            {
                "name": "never_holds",
                "passed": False,
                "section": "core",
                "witness": "bad",
                "details": {"trials": 3},
            },
        ]

    def test_shows_the_first_failing_trial_and_runs_every_trial(self):
        draws = itertools.count()
        seen = []

        def fails_on_odd_draws():
            n = next(draws)
            seen.append(n)
            return f"n={n}" if n % 2 else None

        def draws_after():
            seen.append(next(draws))

        rep = ValidationReport("t")
        rep.run_cases([fails_on_odd_draws, draws_after], 5)
        assert rep.checks[0].witness == "n=1"
        assert seen == list(range(10))


class TestReport:
    def test_is_a_validation_report(self):
        rep = Report("s", command="validate", seed=0, trials=1, degree=0)
        assert isinstance(rep, ValidationReport)
        inner = ValidationReport("inner")
        inner.check("c", ["w"], pairs=1)
        rep.merge("group", inner)
        (merged,) = rep.checks
        assert (merged.name, merged.witness, merged.details) == ("group.c", "w", {"pairs": 1})
        assert inner.checks[0].name == "c"
        assert not rep.passed


REPORTS = [golden.stem for golden in sorted((SCENARIOS / "expected").glob("*.json"))]


@pytest.mark.parametrize("case", [*REPORTS, "identities.p2", "identities.p3"])
def test_check_names_are_unique_within_every_report(case):
    """Every bundled scenario under each of its commands, and the identity
    battery at p = 2 and p = 3: check names come from function names."""
    stem, command = case.split(".")
    if stem == "identities":
        report = identity_suite(int(command[1:]), 1, trials=2)
    else:
        report, _ = run_scenario(str(SCENARIOS / f"{stem}.json"), command)
    names = [c.name for c in report.checks]
    assert names and len(set(names)) == len(names), names
