import json
import math
from pathlib import Path

import pytest

from metricdp import formats
from metricdp.cli import _float, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def grid5_files(tmp_path):
    space = write(tmp_path, "space.json", {"kind": "grid", "n": 5})
    labels = ["0", "0.25", "0.5", "0.75", "1"]
    the_map = write(tmp_path, "map.json", {
        "domain": {"kind": "grid", "n": 5},
        "codomain": {"kind": "grid", "n": 5},
        "table": {lab: lab for lab in labels},
    })
    measure = write(tmp_path, "measure.json", {
        "space": {"kind": "grid", "n": 5},
        "weights": {lab: 0.2 for lab in labels},
    })
    return {"space": space, "map": the_map, "measure": measure, "dir": tmp_path}


class TestEnvelope:
    def test_fields_and_echo(self, capsys):
        code, doc = run(capsys, "calibrate", "--gamma", "1", "--delta", "0.5", "--m", "1")
        assert code == 0
        assert doc["command"] == "calibrate"
        assert doc["params"]["gamma"] == 1.0
        assert doc["version"]
        assert doc["result"]["beta"] == pytest.approx(2 * math.log(2))

    def test_out_writes_the_same_document(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = main(["calibrate", "--gamma", "1", "--delta", "0.5", "--m", "1",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["result"]["beta"] == pytest.approx(2 * math.log(2))

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["demo", "--space", "grid3", "--gamma", "0.5", "--delta", "0.1"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestValidate:
    def test_good_space(self, capsys, tmp_path):
        space = write(tmp_path, "s.json", {"kind": "grid", "n": 4})
        code, doc = run(capsys, "validate", "--space", space)
        assert code == 0
        assert doc["result"]["ok"] is True

    def test_triangle_violation_exits_3_and_names_labels(self, capsys, tmp_path):
        space = write(tmp_path, "bad.json", {
            "labels": ["a", "b", "c"],
            "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
        })
        code, doc = run(capsys, "validate", "--space", space)
        assert code == 3
        v = doc["result"]["violations"][0]
        assert v["axiom"] == "triangle"
        assert v["witness"] == ["a", "c", "b"]

    def test_duplicate_labels_exit_3_with_report(self, capsys, tmp_path):
        space = write(tmp_path, "dup.json", {"labels": ["a", "a"], "dist": [[0, 1], [1, 0]]})
        out = str(tmp_path / "err.json")
        assert main(["validate", "--space", space, "--out", out]) == 3
        err = json.loads(Path(out).read_text())["result"]
        assert err["error_kind"] == "StructuralError"
        assert err["error"] == "labels must be distinct"

    def test_label_count_mismatch_exits_3(self, capsys, tmp_path):
        space = write(tmp_path, "short.json", {
            "labels": ["a", "b", "c"],
            "dist": [[0, 1], [1, 0]],
        })
        for argv in (["validate", "--space", space], ["net", "--space", space, "--r", "0.5"]):
            code, doc = run(capsys, *argv)
            assert code == 3
            assert doc["result"]["error"] == "3 labels but a 2x2 matrix"
            assert doc["result"]["error_kind"] == "StructuralError"

    def test_missing_file_exits_2_without_report(self, capsys, tmp_path):
        out = tmp_path / "never.json"
        code = main(["validate", "--space", str(tmp_path / "ghost.json"),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{broken")
        assert main(["validate", "--space", str(path)]) == 2


class TestUnwritableReport:
    """A report that cannot be written is an input error: exit 2, a one-line
    message and no file, never a traceback."""

    def test_missing_directory(self, capsys, tmp_path):
        space = write(tmp_path, "s.json", {"kind": "grid", "n": 3})
        out = tmp_path / "missing" / "r.json"
        assert main(["validate", "--space", space, "--out", str(out)]) == 2
        assert not out.parent.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"metricdp: error: cannot write {out}: No such file or directory\n"

    def test_error_report(self, capsys, tmp_path):
        space = write(tmp_path, "dup.json", {"labels": ["a", "a"], "dist": [[0, 1], [1, 0]]})
        out = tmp_path / "missing" / "r.json"
        assert main(["validate", "--space", space, "--out", str(out)]) == 2
        assert not out.parent.exists()
        assert "cannot write" in capsys.readouterr().err

    def test_directory_in_the_way(self, capsys, tmp_path):
        space = write(tmp_path, "s.json", {"kind": "grid", "n": 3})
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["validate", "--space", space, "--out", str(out)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "taken"]
        assert list(out.iterdir()) == []


class TestArgparseErrors:
    def test_sample_requires_seed(self, grid5_files):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--map", grid5_files["map"], "--measure",
                  grid5_files["measure"], "--beta", "1", "--input", "0"])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_non_numeric_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--gamma", "one", "--delta", "0.5", "--m", "1"])
        assert exc.value.code == 2


# Every flag the parser reads as a float, by command.
FLOAT_FLAGS = [
    ("net", "--r"),
    ("calibrate", "--gamma"), ("calibrate", "--delta"), ("calibrate", "--m"),
    ("tabulate", "--beta"),
    ("sample", "--beta"),
    ("audit-privacy", "--threshold"),
    ("audit-utility", "--gamma"), ("audit-utility", "--threshold"),
    ("lower-bound", "--r"), ("lower-bound", "--utility-threshold"),
    ("lower-bound", "--threshold"),
    ("tradeoff", "--gamma"), ("tradeoff", "--delta"),
    ("demo", "--gamma"), ("demo", "--delta"),
]


def float_flag_argv(files, command):
    """A valid invocation of ``command`` giving each of its float flags."""
    mech = str(files["dir"] / "mech.json")
    assert main(["tabulate", "--map", files["map"], "--measure", files["measure"],
                 "--beta", "4", "--out", mech]) == 0
    mechanism = ["--map", files["map"], "--measure", files["measure"], "--beta", "4"]
    return [command] + {
        "net": ["--space", files["space"], "--r", "0.5"],
        "calibrate": ["--gamma", "0.5", "--delta", "0.1", "--m", "0.5"],
        "tabulate": mechanism,
        "sample": mechanism + ["--input", "0", "--seed", "1"],
        "audit-privacy": ["--mech", mech, "--space", files["space"], "--threshold", "9"],
        "audit-utility": ["--mech", mech, "--map", files["map"], "--gamma", "0.5",
                          "--threshold", "0.5"],
        "lower-bound": ["--mech", mech, "--map", files["map"], "--centers", "0,1",
                        "--r", "0.25", "--utility-threshold", "0.5", "--threshold", "0"],
        "tradeoff": ["--measure", files["measure"], "--gamma", "0.5", "--delta", "0.1"],
        "demo": ["--gamma", "0.5", "--delta", "0.1"],
    }[command]


class TestNaNFlags:
    """NaN passes no comparison, so a float flag refuses it at parse time:
    exit 2 and no report, as for any malformed number."""

    def test_every_float_flag_is_listed(self):
        subcommands = build_parser()._subparsers._group_actions[0].choices
        found = {(name, action.option_strings[0]): action.type
                 for name, sp in subcommands.items() for action in sp._actions
                 if action.type in (float, _float)}
        assert found == dict.fromkeys(FLOAT_FLAGS, _float)

    @pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
    def test_nan_exits_2_without_report(self, capsys, grid5_files, command, flag):
        argv = float_flag_argv(grid5_files, command)
        assert main(argv) != 2
        argv[argv.index(flag) + 1] = "nan"
        out = grid5_files["dir"] / "never.json"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert f"argument {flag}: invalid float value: 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["NaN", "+nan", " nan "])
    def test_every_nan_spelling_is_refused(self, text):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--gamma", "0.5", "--delta", "0.1", "--m", text])
        assert exc.value.code == 2

    def test_infinity_is_still_a_number(self, capsys, grid5_files):
        code, doc = run(capsys, *float_flag_argv(grid5_files, "audit-privacy")[:-1], "inf")
        assert code == 0
        assert doc["params"]["threshold"] == "infinity"
        assert doc["result"]["passed"] is True


class TestNegativeFlagValues:
    """argparse reads ``--threshold -inf`` as a missing value; the
    ``--flag=value`` form passes any number."""

    @pytest.mark.parametrize("text", ["-inf", "-1e-3"])
    def test_equals_form(self, capsys, grid5_files, text):
        argv = float_flag_argv(grid5_files, "audit-privacy")[:-2]
        code, doc = run(capsys, *argv, f"--threshold={text}")
        assert code == 1
        assert doc["params"]["threshold"] == formats.encode_value(float(text))
        assert doc["result"]["passed"] is False


class TestPipeline:
    def test_net(self, capsys, grid5_files):
        code, doc = run(capsys, "net", "--space", grid5_files["space"], "--r", "0.5")
        assert code == 0
        assert doc["result"]["centers"] == ["0", "0.75"]
        assert doc["result"]["size"] == 2

    def test_build_measure_loads_back_as_measure(self, capsys, grid5_files):
        out = str(grid5_files["dir"] / "built.json")
        assert main(["build-measure", "--space", grid5_files["space"],
                     "--out", out]) == 0
        measure = formats.measure_from_doc(out)
        assert measure.total_mass == pytest.approx(0.75)
        doc = json.loads(Path(out).read_text())
        assert doc["result"]["hierarchy"]["L"] == 2

    def test_calibrate_from_measure_file(self, capsys, grid5_files):
        out = str(grid5_files["dir"] / "built.json")
        main(["build-measure", "--space", grid5_files["space"], "--out", out])
        code, doc = run(capsys, "calibrate", "--gamma", "0.5", "--delta", "0.1",
                        "--measure", out)
        assert code == 0
        # modulus 7/15 under the normalized hierarchy measure
        assert doc["result"]["modulus"] == pytest.approx(7.0 / 15.0)
        assert doc["result"]["beta"] == pytest.approx(4 * math.log(15 / 0.7))

    def test_tabulate_then_audit_privacy(self, capsys, grid5_files):
        mech = str(grid5_files["dir"] / "mech.json")
        assert main(["tabulate", "--map", grid5_files["map"], "--measure",
                     grid5_files["measure"], "--beta", "2", "--out", mech]) == 0
        code, doc = run(capsys, "audit-privacy", "--mech", mech, "--space",
                        grid5_files["space"], "--threshold", "4.0")
        assert code == 0
        assert doc["result"]["passed"] is True
        assert doc["result"]["epsilon_max"] <= 4.0

    def test_audit_privacy_threshold_failure_exits_1(self, capsys, grid5_files):
        mech = str(grid5_files["dir"] / "mech.json")
        main(["tabulate", "--map", grid5_files["map"], "--measure",
              grid5_files["measure"], "--beta", "2", "--out", mech])
        code, doc = run(capsys, "audit-privacy", "--mech", mech, "--space",
                        grid5_files["space"], "--threshold", "0.001")
        assert code == 1
        assert doc["result"]["passed"] is False

    def test_per_pair_keeps_the_witness_on_a_pseudometric(self, capsys, tmp_path):
        # a and b are at distance 0 with differing rows; (a, c) is infinite
        # first in label order, with or without the per-pair matrix.
        space = write(tmp_path, "space.json", {
            "labels": ["a", "c", "b"],
            "dist": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
        })
        mech = write(tmp_path, "mech.json", {
            "inputs": ["a", "c", "b"],
            "outputs": ["y0", "y1"],
            "rows": {"a": [0.5, 0.5], "c": [1.0, 0.0], "b": [0.4, 0.6]},
        })
        code, plain = run(capsys, "audit-privacy", "--mech", mech, "--space", space)
        assert code == 0
        code, full = run(capsys, "audit-privacy", "--mech", mech, "--space", space,
                         "--per-pair")
        assert code == 0
        assert plain["result"]["witness"] == full["result"]["witness"] == ["a", "c", "y1"]
        assert plain["result"]["epsilon_max"] == full["result"]["epsilon_max"]

    def test_audit_utility(self, capsys, grid5_files):
        mech = str(grid5_files["dir"] / "mech.json")
        main(["tabulate", "--map", grid5_files["map"], "--measure",
              grid5_files["measure"], "--beta", "12", "--out", mech])
        code, doc = run(capsys, "audit-utility", "--mech", mech, "--map",
                        grid5_files["map"], "--gamma", "0.5", "--threshold", "0.9")
        assert code == 0
        assert doc["result"]["min_mass"] >= 0.9

    def test_lower_bound_pass_and_precondition_failure(self, capsys, grid5_files):
        mech = str(grid5_files["dir"] / "mech.json")
        main(["tabulate", "--map", grid5_files["map"], "--measure",
              grid5_files["measure"], "--beta", "12", "--out", mech])
        code, doc = run(capsys, "lower-bound", "--mech", mech, "--map",
                        grid5_files["map"], "--centers", "0,1", "--r", "0.25",
                        "--threshold", "1.0")
        assert code == 0
        assert doc["result"]["eps_lower"] >= 1.0
        err_out = str(grid5_files["dir"] / "err.json")
        code = main(["lower-bound", "--mech", mech, "--map", grid5_files["map"],
                     "--centers", "0,0.25", "--r", "0.25", "--out", err_out])
        assert code == 3
        err = json.loads(Path(err_out).read_text())
        assert "overlap" in err["result"]["error"]
        assert err["result"]["error_kind"] == "DomainError"

    def test_tradeoff(self, capsys, grid5_files):
        code, doc = run(capsys, "tradeoff", "--measure", grid5_files["measure"],
                        "--gamma", "0.5", "--delta", "0.1")
        assert code == 0
        assert doc["result"]["epsilon"] == pytest.approx(2 * doc["result"]["beta"])

    @pytest.mark.parametrize("command", ["tradeoff", "calibrate"])
    def test_zero_mass_base_exits_3(self, capsys, tmp_path, command):
        measure = write(tmp_path, "zero.json",
                        {"space": {"kind": "grid", "n": 3}, "weights": {"0": 0}})
        code, doc = run(capsys, command, "--measure", measure, "--gamma", "0.5",
                        "--delta", "0.1")
        assert code == 3
        assert doc["result"]["error_kind"] == "DegenerateMeasureError"

    def test_calibrate_from_measure_agrees_with_tradeoff(self, capsys, grid5_files):
        out = str(grid5_files["dir"] / "built.json")
        main(["build-measure", "--space", grid5_files["space"], "--out", out])
        for measure in (out, grid5_files["measure"]):
            for gamma, delta in (("0.5", "0.1"), ("0.2", "0.01"), ("1.5", "0.5")):
                _, cal = run(capsys, "calibrate", "--gamma", gamma, "--delta", delta,
                             "--measure", measure)
                _, trade = run(capsys, "tradeoff", "--gamma", gamma, "--delta", delta,
                               "--measure", measure)
                assert cal["result"]["beta"] == trade["result"]["beta"]
                assert cal["result"]["modulus"] == trade["result"]["modulus"]

    def test_calibrate_from_measure_rejects_negative_gamma(self, capsys, grid5_files):
        code, doc = run(capsys, "calibrate", "--gamma", "-0.5", "--delta", "0.1",
                        "--measure", grid5_files["measure"])
        assert code == 3
        assert doc["result"]["error"] == "gamma must be positive, got -0.5"

    def test_sample_is_reproducible(self, capsys, grid5_files):
        argv = ["sample", "--map", grid5_files["map"], "--measure",
                grid5_files["measure"], "--beta", "3", "--input", "0.5",
                "--seed", "11", "--count", "8"]
        _, a = run(capsys, *argv)
        _, b = run(capsys, *argv)
        assert a["result"]["outputs"] == b["result"]["outputs"]
        assert len(a["result"]["outputs"]) == 8

    def test_unknown_label_error_is_not_quoted(self, capsys, grid5_files):
        code = main(["sample", "--map", grid5_files["map"], "--measure", grid5_files["measure"],
                     "--beta", "1", "--input", "zz", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["result"] == {"error": "unknown label 'zz'",
                                                     "error_kind": "UnknownLabelError"}
        assert captured.err == "metricdp: error: unknown label 'zz'\n"

    def test_lower_bound_with_every_ratio_at_minus_infinity(self, capsys, tmp_path):
        # Input distance 1e-320: ln(0.7 / 0.8) / 1e-320 overflows to -inf.
        space = write(tmp_path, "in.json", {"labels": ["a", "b"],
                                            "dist": [[0, 1e-320], [1e-320, 0]]})
        the_map = write(tmp_path, "map.json", {"domain": space, "codomain": {"kind": "grid", "n": 2},
                                               "table": {"a": "0", "b": "1"}})
        mech = write(tmp_path, "mech.json", {"inputs": ["a", "b"], "outputs": ["0", "1"],
                                              "rows": {"a": [0.2, 0.8], "b": [0.3, 0.7]}})
        code, doc = run(capsys, "lower-bound", "--mech", mech, "--map", the_map,
                        "--centers", "a,b", "--r", "0.25", "--utility-threshold", "0.1")
        assert code == 0
        assert doc["result"]["eps_lower"] == "-infinity"
        assert (doc["result"]["witness_index"], doc["result"]["witness_center"]) == (1, "b")

    @pytest.mark.parametrize("argv,beta", [
        # 1e-320 is subnormal, so its log is taken from the float itself.
        (["calibrate", "--m", "1e-320"], 4.0 * (10 * math.log(10.0) - math.log(1e-320))),
        (["calibrate", "--m", "inf"], 0.0),
        (["tradeoff", "--measure", {"space": {"kind": "discrete", "n": 2},
                                    "weights": {"0": 1, "1": 1e-300}}], 4.0 * 310 * math.log(10.0)),
    ])
    def test_calibration_past_the_float_range(self, capsys, tmp_path, argv, beta):
        if isinstance(argv[-1], dict):
            argv = argv[:-1] + [write(tmp_path, "tiny.json", argv[-1])]
        code, doc = run(capsys, *argv, "--gamma", "0.5", "--delta", "1e-10")
        assert code == 0
        assert doc["result"]["beta"] == pytest.approx(beta, rel=1e-12)

    def test_domain_error_writes_report_and_exits_3(self, capsys, grid5_files):
        out = str(grid5_files["dir"] / "err2.json")
        code = main(["build-measure", "--space", grid5_files["space"],
                     "--L", "0", "--out", out])
        assert code == 3
        assert "error" in json.loads(Path(out).read_text())["result"]

    def test_reports_round_trip_through_loaders(self, capsys, grid5_files):
        mech = str(grid5_files["dir"] / "mech.json")
        main(["tabulate", "--map", grid5_files["map"], "--measure",
              grid5_files["measure"], "--beta", "1", "--out", mech])
        table = formats.table_from_doc(mech)
        assert table.probs.shape == (5, 5)


class TestMeasureSpace:
    """A measure's own space wins; a weights-only measure takes the map's
    codomain, and commands without a map reject it."""

    @pytest.fixture
    def weights_only(self, grid5_files):
        doc = json.loads(Path(grid5_files["measure"]).read_text())
        del doc["space"]
        return write(grid5_files["dir"], "weights_only.json", doc)

    def test_map_supplies_the_space(self, capsys, grid5_files, weights_only):
        for command, extra in (("tabulate", []), ("sample", ["--input", "0.5", "--seed", "3"])):
            argv = [command, "--map", grid5_files["map"], "--beta", "2", *extra]
            _, with_space = run(capsys, *argv, "--measure", grid5_files["measure"])
            code, without = run(capsys, *argv, "--measure", weights_only)
            assert code == 0
            assert without["result"] == with_space["result"]

    @pytest.mark.parametrize("argv", [
        ["tradeoff", "--gamma", "0.5", "--delta", "0.1"],
        ["calibrate", "--gamma", "0.5", "--delta", "0.1"],
    ])
    def test_no_space_and_no_map_exits_2(self, capsys, grid5_files, weights_only, argv):
        out = grid5_files["dir"] / "report.json"
        code = main([*argv, "--measure", weights_only, "--out", str(out)])
        assert code == 2
        assert "measure document names no space and none is implied" in capsys.readouterr().err
        assert not out.exists()

    def test_tabulate_validates_one_space(self, capsys, grid5_files, validations):
        code, _ = run(capsys, "tabulate", "--map", grid5_files["map"],
                      "--measure", grid5_files["measure"], "--beta", "2")
        assert code == 0
        assert validations == [5]

    def test_invalid_codomain_exits_3(self, capsys, tmp_path):
        good = {"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
        bad = {"labels": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
        the_map = write(tmp_path, "map.json", {"domain": good, "codomain": bad,
                                               "table": {x: x for x in good["labels"]}})
        measure = write(tmp_path, "measure.json", {"space": good, "weights": {"a": 1.0}})
        code, doc = run(capsys, "tabulate", "--map", the_map, "--measure", measure,
                        "--beta", "1")
        assert code == 3
        assert doc["result"] == {
            "error": "metric axioms violated (triangle at (0, 2, 1); 2 violation(s) total)",
            "error_kind": "InvalidMetricError",
        }

    def test_own_space_beats_the_codomain(self, capsys, grid5_files):
        measure = write(grid5_files["dir"], "grid3_measure.json", {
            "space": {"kind": "grid", "n": 3},
            "weights": {"0": 1.0, "0.5": 1.0, "1": 1.0},
        })
        code, doc = run(capsys, "tabulate", "--map", grid5_files["map"],
                        "--measure", measure, "--beta", "2")
        assert code == 3
        assert doc["result"]["error"] == "base measure must live on the query's codomain"


class TestDemo:
    def test_grid5_meets_both_guarantees(self, capsys):
        code, doc = run(capsys, "demo", "--space", "grid5", "--gamma", "0.5",
                        "--delta", "0.1")
        assert code == 0
        r = doc["result"]
        assert r["utility_min_mass"] >= 0.9
        assert r["epsilon_audited"] <= r["privacy_bound"]

    def test_discrete8_lower_bound_row(self, capsys):
        code, doc = run(capsys, "demo", "--space", "discrete8")
        assert code == 0
        rows = {row["n"]: row for row in doc["result"]["lower_bound_table"]}
        assert rows[8]["eps_lower"] >= math.log(4) - 1e-12
        for n, row in rows.items():
            assert row["eps_lower"] >= row["floor"] - 1e-12

    def test_singleton_space(self, capsys):
        code, doc = run(capsys, "demo", "--space", "singleton")
        assert code == 0
        assert doc["result"]["epsilon_audited"] == 0.0
        assert doc["result"]["utility_min_mass"] == 1.0


class TestMalformedNumbers:
    """A malformed number in a document is a schema error: exit 2 and no
    report, never a traceback.  ``write`` spells math.nan and math.inf as
    the NaN and Infinity literals that Python's json reads but JSON lacks."""

    @pytest.mark.parametrize("weight", [None, "abc", [0.2], True, math.nan, math.inf])
    def test_measure_weight(self, capsys, grid5_files, weight):
        doc = json.loads(Path(grid5_files["measure"]).read_text())
        doc["weights"]["0"] = weight
        measure = write(grid5_files["dir"], "bad_measure.json", doc)
        code, out = run(capsys, "tradeoff", "--measure", measure,
                        "--gamma", "0.5", "--delta", "0.1")
        assert code == 2
        assert out is None

    @pytest.mark.parametrize("declared", [[1], "1", {"c": 1}, math.nan, math.inf])
    def test_map_lipschitz_constant(self, capsys, grid5_files, declared):
        doc = json.loads(Path(grid5_files["map"]).read_text())
        doc["lipschitz_c"] = declared
        the_map = write(grid5_files["dir"], "bad_map.json", doc)
        code, out = run(capsys, "tabulate", "--map", the_map, "--measure",
                        grid5_files["measure"], "--beta", "1")
        assert code == 2
        assert out is None

    BAD_DIST = [[[0, "1"], ["1", 0]], [[0, 1], [1, False]], [[0, True], [True, 0]],
                [[0, math.nan], [math.nan, 0]], [[0, math.inf], [math.inf, 0]]]

    @pytest.mark.parametrize("dist", BAD_DIST)
    def test_space_dist(self, capsys, tmp_path, dist):
        # np.array(..., dtype=float) takes each of these as a valid metric.
        space = write(tmp_path, "space.json", {"labels": ["a", "b"], "dist": dist})
        the_map = write(tmp_path, "map.json",
                        {"domain": space, "codomain": space, "table": {"a": "a", "b": "b"}})
        measure = write(tmp_path, "measure.json", {"weights": {"a": 1, "b": 1}})
        mech = write(tmp_path, "mech.json", {"inputs": ["a", "b"], "outputs": ["a", "b"],
                                              "rows": {"a": [0.5, 0.5], "b": [0.5, 0.5]}})
        for argv in (["validate", "--space", space],
                     ["tabulate", "--map", the_map, "--measure", measure, "--beta", "1"],
                     ["audit-privacy", "--mech", mech, "--space", space]):
            assert run(capsys, *argv) == (2, None), argv

    @pytest.mark.parametrize("row", [["0.5", 0.5], [0.5, "0.5"], [True, 0], [1, False],
                                     [math.nan, 0.5], [math.inf, 0]])
    def test_table_rows(self, capsys, tmp_path, row):
        # Each row sums to 1 once coerced to floats.
        space = write(tmp_path, "space.json", {"kind": "discrete", "n": 2})
        mech = write(tmp_path, "mech.json", {"inputs": ["0", "1"], "outputs": ["0", "1"],
                                              "rows": {"0": row, "1": [0.5, 0.5]}})
        assert run(capsys, "audit-privacy", "--mech", mech, "--space", space) == (2, None)
