import json
import pathlib
import re
import subprocess
import sys

import pytest

from pcurv.cli import (
    EXIT_INPUT_ERROR,
    EXIT_MATH_FAILURE,
    EXIT_OK,
    MAX_IDENTITY_COORDINATES,
    ScenarioError,
    _build_parser,
    identity_suite,
    load_scenario,
    main,
    run_scenario,
)
from pcurv.poly import ResourceLimitError

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "minimal",
        "p": 3,
        "coordinates": ["x"],
        "algebroid": {
            "rank": 1,
            "bracket": [[["0"]]],
            "anchor": [["1"]],
            "p_op": [["0"]],
        },
        "module": {"rank": 1, "matrices": [[["x^2"]]]},
    }
    doc.update(overrides)
    return doc


class TestLoading:
    def test_bundled_scenarios_load(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            scenario = load_scenario(str(path))
            assert scenario.p == 3

    def test_missing_field(self, tmp_path):
        doc = minimal_doc()
        del doc["algebroid"]
        with pytest.raises(ScenarioError, match="algebroid"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_bad_polynomial_reports_location(self, tmp_path):
        doc = minimal_doc()
        doc["module"]["matrices"] = [[["x +"]]]
        with pytest.raises(ScenarioError, match="module.matrices"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_unknown_variable_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["module"]["matrices"] = [[["z"]]]
        with pytest.raises(ScenarioError, match="unknown variable"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_wrong_schema_version(self, tmp_path):
        with pytest.raises(ScenarioError, match="schema_version"):
            load_scenario(write_scenario(tmp_path, minimal_doc(schema_version=2)))

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("bracket", lambda doc: doc["algebroid"].update(bracket=[[["0", "0"]]])),
            ("anchor", lambda doc: doc["algebroid"].update(anchor=[["1"], ["0"]])),
            ("p_op", lambda doc: doc["algebroid"].update(p_op=[[["0"]]])),
            ("shift.phi", lambda doc: doc.update(shift={"phi": []})),
            ("module.matrices", lambda doc: doc["module"].update(matrices=[[["x"], ["0"]]])),
            ("module rank", lambda doc: doc["module"].update(rank=0, matrices=[[]])),
        ],
    )
    def test_shape_error_names_field(self, tmp_path, field, edit):
        doc = minimal_doc()
        edit(doc)
        with pytest.raises(ScenarioError, match=re.escape(field)):
            load_scenario(write_scenario(tmp_path, doc))

    def test_dimension_mismatch(self, tmp_path):
        doc = minimal_doc()
        doc["algebroid"]["anchor"] = [["1", "0"]]
        with pytest.raises(ScenarioError):
            load_scenario(write_scenario(tmp_path, doc))

    def test_rees_flag_builds_deformation(self):
        scenario = load_scenario(str(SCENARIOS / "rees_family.json"))
        assert scenario.algebroid.ring.rees_variable == "t"


class TestRunScenario:
    def test_descend_crystalline(self):
        report, code = run_scenario(str(SCENARIOS / "crystalline_1d.json"), "descend")
        assert code == EXIT_OK
        assert report.data["descent"]["e1@y1"] == {"descended": "x^2 + 2"}
        assert report.data["invariants"] == {"e1": "(x^6 + 2)*y1"}

    def test_descend_counterexample_is_green(self):
        report, code = run_scenario(str(SCENARIOS / "counterexample.json"), "descend")
        assert code == EXIT_OK
        assert report.data["descent"]["e1@y1"] == {"not_descendable": "2*x^2"}
        assert report.data["invariants"] == {"e1": "(x^3 + 2*x^2)*y1"}

    def test_unexpected_descent_failure_is_red(self, tmp_path):
        doc = minimal_doc(expect="not_descendable")
        _, code = run_scenario(write_scenario(tmp_path, doc), "descend")
        assert code == EXIT_MATH_FAILURE

    def test_validate_broken_antisymmetry(self, tmp_path):
        doc = minimal_doc(name="broken")
        doc["coordinates"] = ["x", "y"]
        doc["algebroid"] = {
            "rank": 2,
            "bracket": [
                [["0", "0"], ["1", "0"]],
                [["1", "0"], ["0", "0"]],
            ],
            "anchor": [["1", "0"], ["0", "1"]],
            "p_op": [["0", "0"], ["0", "0"]],
        }
        del doc["module"]
        report, code = run_scenario(write_scenario(tmp_path, doc), "validate")
        assert code == EXIT_MATH_FAILURE
        failing = {c.name for c in report.checks if not c.passed}
        assert "algebroid.antisymmetry" in failing

    def test_rees_pipeline_fibers(self):
        report, code = run_scenario(str(SCENARIOS / "rees_family.json"), "rees")
        assert code == EXIT_OK
        assert report.data["descended_family"] == {"e1@y1": "x^2 + 2*t^2"}
        assert report.data["fiber_t1"] == {"e1@y1": "x^6 + 2"}
        assert report.data["fiber_t0"] == {"e1@y1": "x^6"}

    def test_rees_command_requires_flag(self):
        with pytest.raises(ScenarioError, match="rees"):
            run_scenario(str(SCENARIOS / "crystalline_1d.json"), "rees")

    def test_descend_requires_odd_p(self, tmp_path):
        import warnings

        doc = minimal_doc(p=2)
        doc["module"]["matrices"] = [[["x"]]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ScenarioError, match="p > 2"):
                run_scenario(write_scenario(tmp_path, doc), "descend")


class TestGoldenReports:
    @pytest.mark.parametrize(
        "stem",
        [
            "crystalline_1d",
            "crystalline_2d",
            "higgs_rank1",
            "higgs_rank2",
            "counterexample",
            "shifted_p_structure",
            "rees_family",
        ],
    )
    def test_descend_matches_committed_report(self, stem):
        report, _ = run_scenario(
            str(SCENARIOS / f"{stem}.json"), "descend", seed=0, trials=20, degree=3
        )
        expected = (SCENARIOS / "expected" / f"{stem}.descend.json").read_text(
            encoding="utf-8"
        )
        assert report.to_json() + "\n" == expected

    def test_rees_matches_committed_report(self):
        report, _ = run_scenario(
            str(SCENARIOS / "rees_family.json"), "rees", seed=0, trials=20, degree=3
        )
        expected = (SCENARIOS / "expected" / "rees_family.rees.json").read_text(
            encoding="utf-8"
        )
        assert report.to_json() + "\n" == expected

    def test_structured_output_is_deterministic(self):
        a, _ = run_scenario(str(SCENARIOS / "crystalline_1d.json"), "descend", seed=7)
        b, _ = run_scenario(str(SCENARIOS / "crystalline_1d.json"), "descend", seed=7)
        assert a.to_json() == b.to_json()


class TestIdentitySuite:
    def test_small_battery_passes(self):
        report = identity_suite(3, 1, seed=0, trials=8)
        assert report.passed

    @pytest.mark.parametrize("n", [1, 2])
    def test_p2_runs_the_full_battery(self, n):
        report = identity_suite(2, n, seed=0, trials=8)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == [c.name for c in identity_suite(3, n, seed=0, trials=8).checks]


class TestMainEntry:
    def test_no_scenarios_is_usage_error(self, capsys):
        assert main(["descend"]) == EXIT_INPUT_ERROR

    def test_missing_file_is_input_error(self, capsys):
        assert main(["descend", "/no/such/file.json"]) == EXIT_INPUT_ERROR

    def test_batch_merged_by_name(self, capsys):
        paths = [str(SCENARIOS / "higgs_rank1.json"), str(SCENARIOS / "crystalline_1d.json")]
        assert main(["descend", *paths]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.index("crystalline-1d-p3") < out.index("higgs-rank1-p3")

    def test_json_format(self, capsys):
        assert main(["descend", str(SCENARIOS / "crystalline_1d.json"), "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    def test_oversized_entry_is_one_line_input_error(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["module"]["matrices"] = [[["x^2000000"]]]
        with pytest.raises(ResourceLimitError, match=r"module\.matrices\[0\]\[0\]"):
            load_scenario(write_scenario(tmp_path, doc))
        assert main(["pcurvature", write_scenario(tmp_path, doc)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "module.matrices[0][0]" in err

    def test_resource_limit_in_pipeline_names_scenario(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["module"]["matrices"] = [[["x^400000"]]]  # loads; psi has degree 1.2e6
        path = write_scenario(tmp_path, doc, name="deep.json")
        assert main(["pcurvature", path]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and path in err and "resource limit" in err

    def test_prime_over_degree_bound_is_rejected_at_once(self, tmp_path):
        path = write_scenario(tmp_path, minimal_doc(p=1000000000000000009))
        result = subprocess.run(
            [sys.executable, "-m", "pcurv", "validate", path],
            capture_output=True,
            text=True,
            timeout=15,
        )
        assert result.returncode == EXIT_INPUT_ERROR
        assert result.stderr.count("\n") == 1 and "degree bound" in result.stderr

    def test_subprocess_smoke(self):
        result = subprocess.run(
            [sys.executable, "-m", "pcurv", "descend", str(SCENARIOS / "crystalline_1d.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "x^2 + 2" in result.stdout


class TestArgumentBounds:
    CRYSTALLINE = str(SCENARIOS / "crystalline_1d.json")

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["descend", CRYSTALLINE, "--trials", "0"], "--trials"),
            (["identities", "--trials", "-3"], "--trials"),
            (["descend", CRYSTALLINE, "--degree-panel", "-1"], "--degree-panel"),
            (["identities", "--degree-panel", "-1"], "--degree-panel"),
            (["identities", "--n", "-1"], "--n"),
            (["identities", "--n", "0"], "--n"),
            (["identities", "--n", "40", "--trials", "1"], "--n"),
        ],
    )
    def test_bad_value_exits_2_naming_the_flag(self, args, flag):
        result = subprocess.run(
            [sys.executable, "-m", "pcurv", *args], capture_output=True, text=True, timeout=15
        )
        assert result.returncode == EXIT_INPUT_ERROR
        assert f"argument {flag}: must be" in result.stderr
        assert result.stdout == ""

    def test_boundary_values_accepted(self):
        args = _build_parser().parse_args(
            ["identities", "--trials", "1", "--degree-panel", "0", "--n", str(MAX_IDENTITY_COORDINATES)]
        )
        assert (args.trials, args.degree, args.n) == (1, 0, MAX_IDENTITY_COORDINATES)
