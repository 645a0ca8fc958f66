import json
import math

import pytest

from metricdp import formats
from metricdp.cli import main


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
        err = json.loads(open(out).read())["result"]
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
        doc = json.loads(open(out).read())
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
        err = json.loads(open(err_out).read())
        assert "overlap" in err["result"]["error"]
        assert err["result"]["error_kind"] == "DomainError"

    def test_tradeoff(self, capsys, grid5_files):
        code, doc = run(capsys, "tradeoff", "--measure", grid5_files["measure"],
                        "--gamma", "0.5", "--delta", "0.1")
        assert code == 0
        assert doc["result"]["epsilon"] == pytest.approx(2 * doc["result"]["beta"])

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

    def test_domain_error_writes_report_and_exits_3(self, capsys, grid5_files):
        out = str(grid5_files["dir"] / "err2.json")
        code = main(["build-measure", "--space", grid5_files["space"],
                     "--L", "0", "--out", out])
        assert code == 3
        assert "error" in json.loads(open(out).read())["result"]

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
        doc = json.loads(open(grid5_files["measure"]).read())
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
    report, never a traceback."""

    @pytest.mark.parametrize("weight", [None, "abc", [0.2], True])
    def test_measure_weight(self, capsys, grid5_files, weight):
        doc = json.loads(open(grid5_files["measure"]).read())
        doc["weights"]["0"] = weight
        measure = write(grid5_files["dir"], "bad_measure.json", doc)
        code, out = run(capsys, "tradeoff", "--measure", measure,
                        "--gamma", "0.5", "--delta", "0.1")
        assert code == 2
        assert out is None

    @pytest.mark.parametrize("declared", [[1], "1", {"c": 1}])
    def test_map_lipschitz_constant(self, capsys, grid5_files, declared):
        doc = json.loads(open(grid5_files["map"]).read())
        doc["lipschitz_c"] = declared
        the_map = write(grid5_files["dir"], "bad_map.json", doc)
        code, out = run(capsys, "tabulate", "--map", the_map, "--measure",
                        grid5_files["measure"], "--beta", "1")
        assert code == 2
        assert out is None
