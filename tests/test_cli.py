import json
import math
import pathlib
import random
import re
import subprocess
import sys
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bench_tracer import load_tracing

from pcurv import algebroid, connection, hitchin, operators, poly
from pcurv.cli import (
    EXIT_INPUT_ERROR,
    EXIT_MATH_FAILURE,
    EXIT_OK,
    MAX_IDENTITY_COORDINATES,
    MAX_TRIALS,
    ScenarioError,
    _build_parser,
    identity_suite,
    load_scenario,
    main,
    run_scenario,
)
from pcurv.panels import PANEL_LIMIT, poly_panel
from pcurv.poly import Poly, ResourceLimitError

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


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
            assert scenario.algebroid.p == 3

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
            ("algebroid.bracket", lambda doc: doc["algebroid"].update(bracket=[[["0", "0"]]])),
            ("algebroid.anchor", lambda doc: doc["algebroid"].update(anchor=[["1"], ["0"]])),
            ("algebroid.p_op", lambda doc: doc["algebroid"].update(p_op=[[["0"]]])),
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

    @pytest.mark.parametrize("value", ["false", "no", "true", 0, 1, None])
    def test_rees_flag_must_be_a_json_boolean(self, tmp_path, capsys, value):
        path = write_scenario(tmp_path, minimal_doc(rees=value))
        assert main(["pcurvature", path]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err == "error: field 'rees' has the wrong type\n"

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("schema_version", lambda doc: doc.update(schema_version=True)),
            ("p", lambda doc: doc.update(p=True)),
            ("algebroid.rank", lambda doc: doc["algebroid"].update(rank=True)),
            ("module.rank", lambda doc: doc["module"].update(rank=True)),
        ],
    )
    def test_integer_fields_reject_booleans(self, tmp_path, capsys, field, edit):
        doc = minimal_doc()
        edit(doc)
        assert main(["pcurvature", write_scenario(tmp_path, doc)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: field {field!r} has the wrong type\n"


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

    def test_dual_variables_avoid_a_coordinate_named_y1(self, tmp_path):
        doc = minimal_doc(coordinates=["y1"])
        doc["module"] = {"rank": 2, "matrices": [[["0", "1"], ["y1", "0"]]]}
        report, code = run_scenario(write_scenario(tmp_path, doc), "descend")
        assert code == EXIT_OK
        assert report.data["invariants"] == {"e1": "0", "e2": "(2*y1^3 + 2)*y10^2"}
        assert report.data["descent"] == {"e2@y10^2": {"descended": "2*y1 + 2"}}

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
        doc = minimal_doc(p=2)
        doc["module"]["matrices"] = [[["x"]]]
        with pytest.raises(ScenarioError, match="p > 2"):
            run_scenario(write_scenario(tmp_path, doc), "descend")

    @pytest.mark.parametrize("command", ["pcurvature", "hitchin", "descend"])
    def test_flatness_failure_stops_before_the_p_curvature(self, command):
        report, code = run_scenario(str(GOLDEN / "broken_axioms.json"), command)
        assert code == EXIT_MATH_FAILURE
        assert [(c.name, c.passed) for c in report.checks] == [("module.flatness", False)]

    def test_p_curvature_of_order_one_fails_order_zero(self, tmp_path):
        doc = minimal_doc(name="tangent-p-op-x")
        doc["algebroid"]["p_op"] = [["x"]]
        doc["module"]["matrices"] = [[["0"]]]
        report, code = run_scenario(write_scenario(tmp_path, doc), "pcurvature")
        assert code == EXIT_MATH_FAILURE
        check = report.checks[-1]
        assert (check.name, check.passed) == ("pcurvature.order_zero", False)
        assert check.witness == "p-curvature of e1 has a differential part of order 1: (2*x)*d/dx"


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

    @pytest.mark.parametrize(
        "golden", sorted((SCENARIOS / "expected").glob("*.json")), ids=lambda path: path.stem
    )
    def test_matches_committed_report(self, golden):
        stem, command = golden.stem.split(".")
        report, _ = run_scenario(
            str(SCENARIOS / f"{stem}.json"), command, seed=0, trials=20, degree=3
        )
        assert report.to_json() + "\n" == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("broken_axioms.validate.json", ["validate", str(GOLDEN / "broken_axioms.json")]),
            ("identities_p3_n2.json", ["identities", "--p", "3", "--n", "2"]),
            ("higgs_wide_p5.descend.json", ["descend", str(GOLDEN / "higgs_wide_p5.json")]),
            ("dense_higgs_rank8.hitchin.json", ["hitchin", str(GOLDEN / "dense_higgs_rank8.json")]),
        ],
        ids=[
            "broken_axioms.validate",
            "identities_p3_n2",
            "higgs_wide_p5.descend",
            "dense_higgs_rank8.hitchin",
        ],
    )
    def test_failing_and_battery_reports_match_golden(self, capsys, golden, argv):
        """Pins the witnesses of failing checks (cut-offs of all, 1 and 2
        failures), the full identity battery, a big multivariate path (the
        seed-0 p = 5 ``higgs_wide`` benchmark input, whose characteristic
        polynomial has hundreds of terms in five variables) and a dense
        rank-8 one-field Higgs module over F_3[x], a rank where cofactor
        expansion took seconds."""
        expected = (GOLDEN / golden).read_text(encoding="utf-8")
        code = main([*argv, "--format", "json"])
        assert capsys.readouterr().out == expected
        assert code == (EXIT_OK if json.loads(expected)["passed"] else EXIT_MATH_FAILURE)

    @pytest.mark.parametrize(
        "golden", sorted(GOLDEN.glob("sl2_action_p*.*.json")), ids=lambda path: path.stem
    )
    def test_nonabelian_report_matches_golden(self, golden):
        """The sl2 action algebroid on the line: its bracket is nonzero, so
        the enveloping algebra's normal form reorders generators."""
        stem, command = golden.stem.split(".")
        report, code = run_scenario(str(GOLDEN / f"{stem}.json"), command)
        assert report.to_json() + "\n" == golden.read_text(encoding="utf-8")
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", ["pcurvature", "hitchin", "descend"])
    def test_large_prime_report_matches_golden(self, command):
        """A rank-3 connection on the line over F_31: the oracle's words
        e1^31 run packed, at digit widths of two bytes."""
        golden = GOLDEN / f"line_rank3_p31.{command}.json"
        report, code = run_scenario(str(GOLDEN / "line_rank3_p31.json"), command)
        assert report.to_json() + "\n" == golden.read_text(encoding="utf-8")
        assert code == EXIT_OK

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
    def test_p2_is_refused_only_by_the_descent_commands(self, capsys):
        path = str(GOLDEN / "line_p2.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("validate", "pcurvature"):
                assert main([command, path]) == EXIT_OK
                assert capsys.readouterr().err == ""
            for command in ("hitchin", "descend", "rees"):
                assert main([command, path]) == EXIT_INPUT_ERROR
                assert capsys.readouterr().err == f"error: command {command} requires p > 2\n"

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

    def test_entry_just_past_the_degree_bound_is_one_line_input_error(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["module"]["matrices"] = [[["x^1000001"]]]
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

    def test_non_central_p_curvature_element_is_a_mathematical_failure(self, tmp_path, capsys):
        doc = minimal_doc(name="non-central")
        doc["algebroid"] = {
            "rank": 2,
            "bracket": [[["0", "0"], ["0", "1"]], [["0", "2"], ["0", "0"]]],
            "anchor": [["0"], ["0"]],
            "p_op": [["0", "0"], ["0", "0"]],
        }
        doc["module"]["matrices"] = [[["2"]], [["0"]]]
        path = write_scenario(tmp_path, doc)
        assert main(["pcurvature", path]) == EXIT_MATH_FAILURE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"mathematical failure in {path}: p-curvature element of e1 is not central; ")

    @pytest.mark.parametrize(
        "p, line",
        [
            ("4", "error: 4 is not prime"),
            ("1000003", "resource limit in identities-p1000003-n1: p = 1000003 exceeds the degree bound"),
        ],
        ids=["not_prime", "over_degree_bound"],
    )
    def test_identities_bad_prime_exits_2_with_one_line(self, capsys, p, line):
        assert main(["identities", "--p", p]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(line)

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

    def test_reader_closing_the_pipe_early_leaves_no_traceback(self):
        # four copies of the bundled reports (about 116 KB) overfill the pipe,
        # so the report is still being written when the reader goes away
        paths = [str(path) for path in sorted(SCENARIOS.glob("*.json"))] * 4
        proc = subprocess.Popen(
            [sys.executable, "-m", "pcurv", "validate", *paths, "--trials", "1", "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(1) == b"["
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_OK
        assert "Traceback" not in stderr


class TestParserBounds:
    """Entries the parser cannot take whole (nesting past ``NESTING_LIMIT``,
    an integer literal past ``LITERAL_DIGITS``) are bad input: exit 2, one
    line naming the field, no traceback."""

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("(" * 3000 + "x" + ")" * 3000, "nested deeper"),
            ("1" * 5000 + "*x", "integer literal longer"),
            ("x^" + "1" * 5000, "integer literal longer"),
        ],
        ids=["deep-parentheses", "long-coefficient", "long-exponent"],
    )
    @pytest.mark.parametrize("command", ["validate", "descend"])
    def test_exits_2_with_one_line_naming_the_field(self, tmp_path, entry, message, command):
        doc = minimal_doc()
        doc["module"]["matrices"] = [[[entry]]]
        result = subprocess.run(
            [sys.executable, "-m", "pcurv", command, write_scenario(tmp_path, doc)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == EXIT_INPUT_ERROR
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
        assert result.stderr.startswith("error: module.matrices[0][0][0]: ")
        assert message in result.stderr

    def test_entries_at_the_bounds_load(self, tmp_path):
        doc = minimal_doc()
        depth, digits = poly.NESTING_LIMIT, poly.LITERAL_DIGITS
        doc["module"]["matrices"] = [[["(" * depth + "x" + ")" * depth + " + " + "1" * digits]]]
        scenario = load_scenario(write_scenario(tmp_path, doc))
        x = scenario.module.ring.variable("x")
        assert scenario.module.matrices[0][0][0] == x + int("1" * digits)


def crystalline_1d_text(old="", new=""):
    return (SCENARIOS / "crystalline_1d.json").read_text(encoding="utf-8").replace(old, new)


class TestLoadFaults:
    """Every fault found while reading or building a scenario is bad input:
    exit 2, one line naming the file (or the field), no traceback."""

    @pytest.mark.parametrize(
        "content, field, message",
        [
            (
                crystalline_1d_text('[[["x^2"]]]', "[" * 100_000 + "]" * 100_000).encode(),
                None,
                "recursion",
            ),
            (crystalline_1d_text("crystalline", "crystall\xefne").encode("latin-1"), None, "utf-8"),
            (crystalline_1d_text('"p": 3', '"p": ' + "3" * 5000).encode(), None, "digits"),
            (crystalline_1d_text("x^2", "x^²").encode(), "module.matrices[0][0][0]", "expected an integer"),
            (crystalline_1d_text('["x"]', '["x", "x"]').encode(), None, "duplicate variable"),
        ],
        ids=["deep-json", "not-utf-8", "long-p", "superscript-exponent", "duplicate-coordinates"],
    )
    def test_exits_2_with_one_line(self, tmp_path, content, field, message):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        result = subprocess.run(
            [sys.executable, "-m", "pcurv", "validate", str(path), "--trials", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == EXIT_INPUT_ERROR
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
        assert result.stderr.startswith(f"error: {field or f'cannot load {path}'}: ")
        assert message in result.stderr


def scenario_locations(node, at=()):
    """The key paths of every value in a JSON document, the root's included."""
    yield at
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from scenario_locations(value, at + (key,))


entry_strings = st.text("xy0123456789^*+-() ", max_size=8) | st.text(max_size=4)
json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 12), st.floats(allow_nan=False), entry_strings,
    st.just([]), st.just({}),
)


@st.composite
def mutated_crystalline_1d(draw):
    """``crystalline_1d.json`` after one to three edits: a key or element
    deleted, a value swapped for one of another JSON type or for a short entry
    string, or a list resized."""
    doc = json.loads(crystalline_1d_text())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(list(scenario_locations(doc))[1:]))
        parent = doc
        for key in at[:-1]:
            parent = parent[key]
        key = at[-1]
        action = draw(st.sampled_from(["delete", "swap", "entry", "resize"]))
        if action == "delete":
            del parent[key]
        elif action == "swap":
            parent[key] = draw(json_values)
        elif action == "entry":
            parent[key] = draw(entry_strings)
        elif isinstance(parent[key], list):
            n = draw(st.integers(0, 3))
            parent[key] = (parent[key] * 3)[:n] if parent[key] else [draw(json_values)] * n
    return doc


class TestLoaderFuzz:
    @pytest.mark.parametrize("command", ["validate", "descend"])
    @settings(max_examples=25, deadline=None)
    @given(doc=mutated_crystalline_1d())
    def test_mutated_scenario_exits_with_a_status(self, tmp_path_factory, command, doc):
        path = tmp_path_factory.getbasetemp() / f"mutated-{command}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(path), "--trials", "1"]) in (
            EXIT_OK, EXIT_MATH_FAILURE, EXIT_INPUT_ERROR,
        )


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
            (["identities", "--trials", str(MAX_TRIALS + 1)], "--trials"),
            (["descend", CRYSTALLINE, "--trials", "100000"], "--trials"),
        ],
    )
    def test_bad_value_exits_2_naming_the_flag(self, args, flag):
        result = subprocess.run(
            [sys.executable, "-m", "pcurv", *args], capture_output=True, text=True, timeout=15
        )
        assert result.returncode == EXIT_INPUT_ERROR
        assert f"argument {flag}: must be" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args, stray",
        [
            (["identities", "no-such.json", "--trials", "1"], "no-such.json"),
            (["descend", CRYSTALLINE, "--p", "4"], "--p"),
            (["descend", CRYSTALLINE, "--n", "8"], "--n"),
        ],
        ids=["file", "p", "n"],
    )
    def test_argument_of_another_command_exits_2_naming_it(self, args, stray):
        result = subprocess.run(
            [sys.executable, "-m", "pcurv", *args], capture_output=True, text=True, timeout=15
        )
        assert result.returncode == EXIT_INPUT_ERROR
        assert result.stderr == f"error: argument {stray} does not apply to {args[0]}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args, panel",
        [
            (
                ["validate", str(SCENARIOS / "higgs_rank2.json"), "--degree-panel", "100000"],
                "degree 100000 in n = 1 variables: 100001 monomials",
            ),
            (["identities", "--n", "8", "--degree-panel", "6"], "degree 6 in n = 8 variables: 3003 monomials"),
        ],
        ids=["validate", "identities"],
    )
    def test_oversized_degree_panel_exits_2_with_one_line(self, args, panel):
        """Both ran past 30 s before the panel had a bound."""
        result = subprocess.run(
            [sys.executable, "-m", "pcurv", *args, "--trials", "1"], capture_output=True, text=True, timeout=30
        )
        assert result.returncode == EXIT_INPUT_ERROR
        assert result.stderr.count("\n") == 1
        assert f"{panel}, above the bound {PANEL_LIMIT}" in result.stderr
        assert result.stdout == ""

    def test_boundary_values_accepted(self):
        args = _build_parser().parse_args(
            ["identities", "--trials", "1", "--degree-panel", "0", "--n", str(MAX_IDENTITY_COORDINATES)]
        )
        assert (args.trials, args.degree, args.n) == (1, 0, MAX_IDENTITY_COORDINATES)
        args = _build_parser().parse_args(["validate", "--trials", str(MAX_TRIALS)])
        assert args.trials == MAX_TRIALS


def count_calls(monkeypatch, function, counts):
    """Count the calls of ``function`` through every binding of it in the
    pcurv modules, as the benchmark's tracer patches the functions it times."""

    def counted(*args, **kwargs):
        counts[function.__name__] += 1
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "pcurv" or name.startswith("pcurv."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counted)


class TestStageCounts:
    """Each pipeline stage runs once per module and hands its result on: the
    p-curvature guard reads the module's flatness, the characteristic
    polynomial reads the p-curvature's commutativity, and trace flatness
    takes the invariants the pipeline holds.  A rees job has three modules:
    the family and its two fibers.  A module builds its Weyl algebra at most
    once, when a check first needs it; the rank-1 fibers never do, since
    their flatness has no pair of generators to compare."""

    @pytest.mark.parametrize(
        "stem, command, modules, weyl_builds",
        [
            ("crystalline_2d", "descend", 1, 1),
            ("higgs_rank2", "descend", 1, 1),
            ("rees_family", "rees", 3, 1),
        ],
    )
    def test_each_stage_runs_once_per_module(
        self, monkeypatch, stem, command, modules, weyl_builds
    ):
        counts = Counter()
        count_calls(monkeypatch, connection.check_higgs_commutativity, counts)
        count_calls(monkeypatch, algebroid.tangent_algebroid, counts)
        tracer = load_tracing().Tracer()
        tracer.install()
        try:
            _, code = run_scenario(str(SCENARIOS / f"{stem}.json"), command)
        finally:
            tracer.uninstall()
        assert code == EXIT_OK
        traced = ("connection.flatness", "hitchin.charpoly", "hitchin.invariants")
        assert {name: tracer.stats[name].calls for name in traced} == dict.fromkeys(traced, modules)
        assert counts == {"check_higgs_commutativity": modules, "tangent_algebroid": weyl_builds}


def line_module_doc(p, rank, coordinates, seed=0):
    """A one-generator module on affine space, generated as the benchmark's
    line workload is: every matrix entry is c0 + c1*x, c0 and c1 nonzero."""
    rng = random.Random(seed)
    matrix = [
        [f"{rng.randrange(1, p)} + {rng.randrange(1, p)}*x" for _ in range(rank)] for _ in range(rank)
    ]
    algebroid = {
        "rank": 1,
        "bracket": [[["0"]]],
        "anchor": [["1"] + ["0"] * (len(coordinates) - 1)],
        "p_op": [["0"]],
    }
    return minimal_doc(
        p=p, coordinates=coordinates, algebroid=algebroid, module={"rank": rank, "matrices": [matrix]}
    )


class TestMatMulCost:
    """Katz's recurrence over a one-variable ring at rank above 1 runs on
    packed ints (poly.katz_recurrence): B and g are packed once and X_p is
    unpacked once, with no Poly.__mul__ and no mat_mul inside.  Rank 1
    and multivariate rings keep the Poly loop, one entrywise mat_mul
    B . X_k per step."""

    @pytest.mark.parametrize(
        "rank, coordinates, entrywise",
        [(3, ["x"], False), (1, ["x"], True), (3, ["x", "y"], True)],
    )
    def test_p_linearity_matrix_products(self, tmp_path, monkeypatch, rank, coordinates, entrywise):
        p = 7
        scenario = load_scenario(write_scenario(tmp_path, line_module_doc(p, rank, coordinates)))
        C = connection.p_curvature(scenario.module)
        panel = poly_panel(C.ring, 2, seed=0, max_degree=2)
        counts = Counter()
        poly_mul = Poly.__mul__
        inside = []

        def counted_poly_mul(x, y):
            counts["poly_mul_inside" if inside else "poly_mul"] += 1
            return poly_mul(x, y)

        def marked(name, function):
            def wrapper(*args):
                counts[name] += 1
                inside.append(True)
                try:
                    return function(*args)
                finally:
                    inside.pop()

            return wrapper

        def counted_inside(name, function):
            def wrapper(*args):
                counts[name] += bool(inside)
                return function(*args)

            return wrapper

        monkeypatch.setattr(Poly, "__mul__", counted_poly_mul)
        monkeypatch.setattr(Poly, "__rmul__", counted_poly_mul)
        monkeypatch.setattr(connection, "mat_mul", marked("mat_mul", connection.mat_mul))
        monkeypatch.setattr(
            connection, "katz_recurrence", marked("katz", connection.katz_recurrence)
        )
        monkeypatch.setattr(poly, "_pack_first", counted_inside("pack", poly._pack_first))
        monkeypatch.setattr(poly, "_unpack_first", counted_inside("unpack", poly._unpack_first))
        assert connection.check_p_linearity(C, panel).passed
        assert counts["poly_mul"] > 0
        if entrywise:
            # One product B . X_k per recurrence step, p - 1 steps per element.
            assert counts["mat_mul"] == len(panel) * (p - 1)
            assert counts["poly_mul_inside"] >= counts["mat_mul"] * rank**3
            assert counts["katz"] == 0
        else:
            # One packed recurrence per element: r^2 entries of B and g
            # packed, r^2 entries of X_p unpacked.
            assert counts["katz"] == len(panel)
            assert counts["mat_mul"] == counts["poly_mul_inside"] == 0
            assert counts["pack"] == len(panel) * (rank**2 + 1)
            assert counts["unpack"] == len(panel) * rank**2


def dense_higgs_doc(p, rank, seed=0):
    """A one-field Higgs module on the line (zero anchor) with a dense
    matrix: every entry is c0*x + c1, c0 and c1 nonzero."""
    rng = random.Random(seed)
    matrix = [
        [f"{rng.randrange(1, p)}*x + {rng.randrange(1, p)}" for _ in range(rank)] for _ in range(rank)
    ]
    algebroid = {"rank": 1, "bracket": [[["0"]]], "anchor": [["0"]], "p_op": [["0"]]}
    return minimal_doc(p=p, algebroid=algebroid, module={"rank": rank, "matrices": [matrix]})


class TestCharpolyCost:
    """The characteristic polynomial costs O(r^4) packed entry products
    (Berkowitz), where cofactor expansion took r!: a dense rank-12 module
    passes ``hitchin``, and none of the products inside
    poly.charpoly_coefficients go through Poly.__mul__."""

    def test_entry_products_grow_polynomially_in_the_rank(self, tmp_path, monkeypatch, capsys):
        counts = Counter()
        packed_sum, poly_mul = poly._packed_sum, Poly.__mul__
        charpoly = poly.charpoly_coefficients
        inside = []

        def counted_sum(pairs, *args):
            pairs = list(pairs)
            counts["packed"] += len(pairs)
            return packed_sum(pairs, *args)

        def counted_poly_mul(x, y):
            counts["poly_mul_inside"] += bool(inside)
            return poly_mul(x, y)

        def counted_charpoly(matrix):
            inside.append(True)
            try:
                return charpoly(matrix)
            finally:
                inside.pop()

        monkeypatch.setattr(poly, "_packed_sum", counted_sum)
        monkeypatch.setattr(Poly, "__mul__", counted_poly_mul)
        monkeypatch.setattr(Poly, "__rmul__", counted_poly_mul)
        monkeypatch.setattr(hitchin, "charpoly_coefficients", counted_charpoly)
        products = {}
        for rank in (4, 8, 12):
            path = write_scenario(tmp_path, dense_higgs_doc(3, rank), name=f"dense{rank}.json")
            counts.clear()
            assert main(["hitchin", path, "--format", "json"]) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["passed"]
            assert counts["poly_mul_inside"] == 0
            products[rank] = counts["packed"]
        # Growing the leading block from size k to k + 1 takes k^3 products
        # for r A^j c (j < k) and k + 1 + (k + 1)(k + 2) / 2 for the
        # Toeplitz sums: about r^4 / 4 in all, where 12! is about 4.8e8.
        assert products == {
            r: (r * (r - 1) // 2) ** 2 + math.comb(r + 2, 3) + r * (r + 1) // 2 for r in products
        }
        assert products[12] == 4798


def crystalline_1d_at(tmp_path, p):
    """``scenarios/crystalline_1d.json`` with its prime replaced by ``p``."""
    doc = json.loads((SCENARIOS / "crystalline_1d.json").read_text(encoding="utf-8"))
    doc["p"] = p
    return write_scenario(tmp_path, doc, name=f"crystalline_1d_p{p}.json")


class TestOracleCost:
    """The oracle builds each word e^beta by left-multiplying by one
    generator action at a time: at most p steps per generator for e_a^p,
    each with an order-1 action on the left.  Square-and-multiply takes
    fewer products but squares words of positive order, O(p^3) generator
    rewrites in all where this costs O(p^2).  On the ``MatrixDiffOp``
    route a step is one operator product; where ``connection._packs``
    holds it is one step of ``poly.operator_word``, which reduces its
    digits once."""

    def test_oracle_multiplies_by_one_action_at_a_time(self, tmp_path, monkeypatch):
        p = 13
        scenario = load_scenario(crystalline_1d_at(tmp_path, p))
        C = connection.p_curvature(scenario.module)
        actions = scenario.module.actions
        left_factors = []
        multiply = connection.MatrixDiffOp.__mul__

        def counted(left, right):
            left_factors.append(left)
            return multiply(left, right)

        monkeypatch.setattr(connection.MatrixDiffOp, "__mul__", counted)
        assert connection.check_abstract_action_oracle(C).passed
        assert 0 < len(left_factors) <= p * scenario.algebroid.rank
        assert all(any(left is action for action in actions) for left in left_factors)

    def test_packed_words_take_one_step_per_action(self, tmp_path, monkeypatch):
        p = 13
        scenario = load_scenario(write_scenario(tmp_path, line_module_doc(p, 3, ["x"])))
        C = connection.p_curvature(scenario.module)
        counts = Counter()
        operator_word, reduce_step = connection.operator_word, poly._reduce

        def counted_word(factors, exponents):
            counts["actions"] += sum(exponents)
            return operator_word(factors, exponents)

        def counted_reduce(*args):
            counts["steps"] += 1
            return reduce_step(*args)

        def refuse(*args):
            raise AssertionError("a MatrixDiffOp product on the packed route")

        monkeypatch.setattr(connection, "operator_word", counted_word)
        monkeypatch.setattr(poly, "_reduce", counted_reduce)
        monkeypatch.setattr(connection.MatrixDiffOp, "__mul__", refuse)
        assert connection.check_abstract_action_oracle(C).passed
        assert 0 < counts["steps"] == counts["actions"] <= p * scenario.algebroid.rank

    def test_descend_at_p61_passes_the_oracle(self, tmp_path):
        report, code = run_scenario(crystalline_1d_at(tmp_path, 61), "descend")
        assert code == EXIT_OK
        checks = {c.name: c.passed for c in report.checks}
        assert checks["pcurvature.abstract_action_oracle"]


class TestHiggsCommutationCost:
    """Each commutator [psi_a, nabla_{e_b}] in the commutation check is the
    matrix [psi_a, A_b] - delta_b . psi_a: two polynomial matrix products,
    and no product of matrix operators or of enveloping-algebra
    elements."""

    def test_each_commutator_is_two_matrix_products(self, monkeypatch):
        scenario = load_scenario(GOLDEN / "higgs_wide_p5.json")
        C = connection.p_curvature(scenario.module)
        counts = Counter()
        per_commutator = []
        mat_mul = connection.mat_mul
        commutator = connection.mat_commutator
        operator_mul = operators.OperatorElement.__mul__
        diff_op_mul = connection.MatrixDiffOp.__mul__

        def counted(name, function):
            def wrapper(x, y):
                counts[name] += 1
                return function(x, y)

            return wrapper

        def counted_commutator(x, y):
            before = counts["mat_mul"]
            out = commutator(x, y)
            per_commutator.append(counts["mat_mul"] - before)
            return out

        monkeypatch.setattr(connection, "mat_mul", counted("mat_mul", mat_mul))
        monkeypatch.setattr(operators.OperatorElement, "__mul__", counted("op", operator_mul))
        monkeypatch.setattr(connection.MatrixDiffOp, "__mul__", counted("diff_op", diff_op_mul))
        monkeypatch.setattr(connection, "mat_commutator", counted_commutator)
        assert connection.check_flat_commutation(C).passed
        assert counts["op"] == counts["diff_op"] == 0
        assert per_commutator == [2] * scenario.algebroid.rank**2 == [2] * 9
        assert counts["mat_mul"] == 18


class TestAnchorOfCost:
    """``anchor_of`` sums the components of sum g_a delta(e_a) directly: one
    ``Derivation`` per call, whatever the number of nonzero g_a, also over a
    zero anchor."""

    @pytest.mark.parametrize("stem", ["crystalline_2d", "higgs_rank2"])
    def test_one_derivation_per_call(self, monkeypatch, stem):
        built = Counter()
        per_call = []
        post_init = poly.Derivation.__post_init__
        anchor_of = algebroid.AlgebroidPresentation.anchor_of

        def counted_post_init(self):
            built["derivation"] += 1
            post_init(self)

        def counted_anchor_of(self, D):
            before = built["derivation"]
            out = anchor_of(self, D)
            per_call.append(built["derivation"] - before)
            return out

        monkeypatch.setattr(poly.Derivation, "__post_init__", counted_post_init)
        monkeypatch.setattr(algebroid.AlgebroidPresentation, "anchor_of", counted_anchor_of)
        report, code = run_scenario(str(SCENARIOS / f"{stem}.json"), "validate")
        assert code == EXIT_OK
        assert len(per_call) > 100
        assert set(per_call) == {1}

    def test_each_bracket_forms_two_anchors(self, monkeypatch):
        """``lambda1_bracket`` (and ``h_bracket`` through it) forms delta_D
        and delta_E once each, for the function and the H part together."""
        anchors = Counter()
        per_call = []
        anchor_of = algebroid.AlgebroidPresentation.anchor_of
        bracket = algebroid.AlgebroidPresentation.lambda1_bracket

        def counted_anchor_of(self, D):
            anchors["anchor_of"] += 1
            return anchor_of(self, D)

        def counted_bracket(self, x, y):
            before = anchors["anchor_of"]
            out = bracket(self, x, y)
            per_call.append(anchors["anchor_of"] - before)
            return out

        monkeypatch.setattr(algebroid.AlgebroidPresentation, "anchor_of", counted_anchor_of)
        monkeypatch.setattr(algebroid.AlgebroidPresentation, "lambda1_bracket", counted_bracket)
        report, code = run_scenario(str(SCENARIOS / "crystalline_2d.json"), "validate")
        assert code == EXIT_OK
        assert len(per_call) > 800
        assert set(per_call) == {2}
