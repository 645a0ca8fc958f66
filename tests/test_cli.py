import dataclasses
import functools
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cloud_metric, empty_memos
from metricdp import (
    ImpossibilityReport,
    PrivacyAuditReport,
    TradeoffBound,
    UtilityAuditReport,
    formats,
    grid_space,
    validate_metric,
)
from metricdp import cli
from metricdp.cli import _float, build_parser, main

SUBCOMMANDS = build_parser()._subparsers._group_actions[0].choices


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# Written by ``write`` as the raw literal 1e400, which json reads as inf
# and json.dumps would spell Infinity.
LITERAL_1E400 = "<1e400>"


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc).replace(json.dumps(LITERAL_1E400), "1e400"))
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

    def test_out_has_the_mode_of_a_plain_write(self, tmp_path):
        old = os.umask(0o022)
        try:
            plain = tmp_path / "plain.json"
            with open(plain, "w"):
                pass
            out = tmp_path / "r.json"
            assert main(["calibrate", "--gamma", "1", "--delta", "0.5", "--m", "1",
                         "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.json", "r.json"]


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

    def test_a_failing_space_is_read_once(self, capsys, tmp_path, builds):
        # The witnesses are named from the labels of the text validated,
        # carried on the error, not from a second read of the file.
        labels = [f"p{i}" for i in range(6)]
        dist = cloud_metric(np.random.default_rng(5), 6)
        dist[1, 4] = dist[4, 1] = 3 * dist[1, 4]
        space = write(tmp_path, "bad.json", {"labels": labels, "dist": dist.tolist()})
        code, doc = run(capsys, "validate", "--space", space)
        assert code == 3 and builds["_parse"] == 1
        want = [[labels[i] for i in v.witness] for v in validate_metric(dist).violations]
        assert [v["witness"] for v in doc["result"]["violations"]] == want and want
        assert doc["result"]["points"] == 6

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

    def test_not_utf8_exits_2_without_report(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b'{"kind": "grid", "n": 3\xff}')
        out = tmp_path / "never.json"
        assert main(["validate", "--space", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "codec can't decode byte 0xff" in capsys.readouterr().err


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


class TestParserReuse:
    """``main`` parses every call with the one parser ``build_parser``
    built; no call leaves behind anything a later call reads."""

    def chain(self, files):
        """Run six commands, each writing its report under ``files["dir"]``;
        return each report's bytes."""
        d = files["dir"]
        argvs = {
            "build-measure": ["--space", files["space"]],
            "calibrate": ["--gamma", "0.5", "--delta", "0.1", "--measure", d / "build-measure"],
            "tabulate": ["--map", files["map"], "--measure", d / "build-measure", "--beta", "4"],
            "audit-privacy": ["--mech", d / "tabulate", "--space", files["space"], "--per-pair"],
            "audit-utility": ["--mech", d / "tabulate", "--map", files["map"], "--gamma", "0.5"],
            "lower-bound": ["--mech", d / "tabulate", "--map", files["map"],
                            "--centers", "0,1", "--r", "0.25"],
        }
        for command, argv in argvs.items():
            assert main([command, *map(str, argv), "--out", str(d / command)]) == 0
        return {command: (d / command).read_bytes() for command in argvs}

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_reports_survive_errors_help_and_version(self, capsys, grid5_files):
        first = self.chain(grid5_files)
        for argv, code in ((["calibrate", "--gamma", "one", "--delta", "0.5", "--m", "1"], 2),
                           (["calibrate", "--gamma", "1", "--delta", "0.5"], 2),
                           (["audit-privacy", "--help"], 0),
                           (["--version"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        capsys.readouterr()
        assert self.chain(grid5_files) == first

    def test_params_hold_only_the_commands_own_flags(self, grid5_files):
        params = {command: json.loads(report)["params"]
                  for command, report in self.chain(grid5_files).items()}
        for command, keys in params.items():
            flags = {action.dest for action in SUBCOMMANDS[command]._actions}
            assert set(keys) <= flags - {"help", "out"}
        assert params["audit-privacy"]["per_pair"] is True
        assert "per_pair" not in params["audit-utility"]

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_help_is_the_same_twice(self, capsys, command):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"usage: metricdp {command}")


class TestLoaderMemos:
    """A chain run through ``main`` in one thread builds each object it
    loads once and validates its one explicit space once, and writes the
    bytes it writes with the memos emptied before every command."""

    @pytest.fixture
    def files(self, tmp_path):
        labels = [f"p{i}" for i in range(12)]
        space = {"labels": labels, "dist": cloud_metric(np.random.default_rng(24), 12).tolist()}
        far = labels[int(np.argmax(space["dist"][0]))]
        return {"dir": tmp_path, "far": far,
                "space": write(tmp_path, "space.json", space),
                "map": write(tmp_path, "map.json", {"domain": space, "codomain": space,
                                                    "table": {x: x for x in labels}})}

    def chain(self, files, cold):
        d, space, the_map = files["dir"], files["space"], files["map"]
        argvs = {
            "build-measure": ["--space", space],
            "calibrate": ["--gamma", "0.5", "--delta", "0.1", "--measure", d / "build-measure"],
            "tabulate": ["--map", the_map, "--measure", d / "build-measure", "--beta", "40"],
            "audit-privacy": ["--mech", d / "tabulate", "--space", space, "--per-pair"],
            "audit-utility": ["--mech", d / "tabulate", "--map", the_map, "--gamma", "0.5"],
            "lower-bound": ["--mech", d / "tabulate", "--map", the_map,
                            "--centers", "p0," + files["far"], "--r", "0.01"],
        }
        for command, argv in argvs.items():
            if cold:
                empty_memos()
            assert main([command, *map(str, argv), "--out", str(d / command)]) == 0
        return {command: (d / command).read_bytes() for command in argvs}

    def test_one_validation_and_the_same_bytes(self, files, validations, builds):
        # Each command validates the space, and audit-privacy also the
        # placeholder output space over the table's 12 output labels.
        cold = self.chain(files, cold=True)
        assert validations == [12] * 7
        empty_memos()
        validations.clear()
        builds.clear()
        warm = self.chain(files, cold=False)
        assert validations == [12, 12]
        assert warm == cold
        # Only the space and the map are parsed: the measure and the table
        # are kept as written.  The table's rows are bound once per audit:
        # with tabulate's own table, four tables are built.
        assert builds == {"_parse": 2, "_number_matrix": 3, "lipschitz_constant": 1,
                          "__init__": 4}

    def test_a_fresh_thread_starts_its_own_memo(self, files, validations, builds):
        # The main thread's memo holds the chain's objects; a chain run in a
        # new thread does not see them, and counts what the first chain did.
        first = self.chain(files, cold=False)
        counts = validations.copy(), builds.copy()
        validations.clear()
        builds.clear()
        outcome = []
        thread = threading.Thread(target=lambda: outcome.append(self.chain(files, cold=False)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and outcome == [first]
        assert (validations, builds) == counts == ([12, 12], {"_parse": 2, "_number_matrix": 3,
                                                             "lipschitz_constant": 1, "__init__": 4})


def kept_texts() -> set:
    """The file texts the loaders hold an object for in this thread."""
    return {key[1] for key in formats._memo.kept}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestWrittenReports:
    """A measure or table written with ``--out`` is kept as the object its
    loader would build from the text written: a later load in the process
    parses nothing and gets what a fresh load gets, bit for bit.  Nothing
    else is kept: no error report, no report that was not written, none on
    stdout and none over ``_MEMO_CHARS``."""

    @staticmethod
    def build(d, space, the_map, beta):
        """Paths of the measure built on ``space`` and of ``the_map``'s table
        tabulated on it at ``beta``, both written with --out."""
        measure, table = str(d / "measure.json"), str(d / "table.json")
        assert main(["build-measure", "--space", space, "--out", measure]) == 0
        assert main(["tabulate", "--map", the_map, "--measure", measure,
                     "--beta", repr(beta), "--out", table]) == 0
        return measure, table

    @staticmethod
    def kept_then_fresh(measure, table):
        """The kept measure and table rows, loaded with no parse allowed, then
        the same loaded afresh with both memos emptied."""
        with mock.patch.object(formats, "_parse", side_effect=AssertionError("parsed")):
            kept = formats.measure_from_doc(measure), formats._table_rows(table)
        empty_memos()
        return kept, (formats.measure_from_doc(measure), formats._table_rows(table))

    @staticmethod
    def assert_same(kept, fresh):
        (measure, (inputs, outputs, rows)), (fresh_measure, fresh_rows) = kept, fresh
        assert measure.space.labels == fresh_measure.space.labels
        assert same_bits(measure.space.dist, fresh_measure.space.dist)
        assert same_bits(measure.values, fresh_measure.values)
        assert same_bits(measure.total_mass, fresh_measure.total_mass)
        assert (inputs, outputs) == fresh_rows[:2]
        assert same_bits(rows, fresh_rows[2])

    def test_subnormal_probabilities(self, tmp_path, grid5_files):
        measure, table = self.build(tmp_path, grid5_files["space"], grid5_files["map"], 960.0)
        kept, fresh = self.kept_then_fresh(measure, table)
        rows = kept[1][2]
        assert ((rows > 0) & (rows < np.finfo(float).tiny)).any()
        self.assert_same(kept, fresh)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_the_kept_objects_are_fresh_loads(self, data):
        # An explicit space, perhaps with twins, whose raw matrix may differ
        # from the one stored: in-band asymmetric, 1e-13 on the diagonal or
        # between twins, or -0.0.
        family = data.draw(st.sampled_from(["grid", "cloud", "twins"]))
        n = data.draw(st.integers(1 if family == "grid" else 2, 6))
        if family == "grid":
            dist, points = grid_space(n).dist, list(range(n))
        else:
            dist = cloud_metric(np.random.default_rng(data.draw(st.integers(0, 99))), n, 0.7)
            points = list(range(n))
            if family == "twins":
                points += data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        raw = dist[np.ix_(points, points)].tolist()
        size = len(points)
        pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
        twins = [(i, j) for i, j in pairs if points[i] == points[j]]
        edits = [st.tuples(st.integers(0, size - 1).map(lambda i: (i, i)),
                           st.sampled_from([1e-13, -1e-13, -0.0]), st.just(False))]
        if pairs:
            edits.append(st.tuples(st.sampled_from(pairs), st.sampled_from([4e-13, -4e-13]),
                                   st.just(True)))
        if twins:
            edits.append(st.tuples(st.sampled_from(twins), st.sampled_from([1e-13, -1e-13, -0.0]),
                                   st.just(False)))
        for (i, j), value, offset in data.draw(st.lists(st.one_of(edits), max_size=2)):
            raw[i][j] = raw[i][j] + value if offset else value
        labels = [f"p{i}" for i in range(size)]
        images = {labels[i]: labels[points.index(points[i])] for i in range(size)}
        beta = data.draw(st.sampled_from([0.0, 1.0, 40.0, 800.0, 960.0]))
        empty_memos()
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            space = write(d, "space.json", {"labels": labels, "dist": raw})
            the_map = write(d, "map.json", {"domain": space, "codomain": space, "table": images})
            self.assert_same(*self.kept_then_fresh(*self.build(d, space, the_map, beta)))

    def test_a_report_changed_after_it_was_written_is_loaded_afresh(
            self, tmp_path, grid5_files, builds, validations):
        measure, _ = self.build(tmp_path, grid5_files["space"], grid5_files["map"], 1.0)
        builds.clear()
        validations.clear()
        assert formats.measure_from_doc(measure).values[0] == 0.3
        assert builds["_parse"] == 0 and validations == []
        text = Path(measure).read_text()
        assert text.count('"0": 0.3,') == 1
        Path(measure).write_text(text.replace('"0": 0.3,', '"0": 0.4,'))
        assert formats.measure_from_doc(measure).values[0] == 0.4
        assert builds["_parse"] == 1 and validations == [5]

    def test_an_error_report_is_not_kept(self, tmp_path, grid5_files):
        out = tmp_path / "error.json"
        assert main(["build-measure", "--space", grid5_files["space"], "--L", "0",
                     "--out", str(out)]) == 3
        assert out.read_text() not in kept_texts()

    @pytest.mark.parametrize("command", ["build-measure", "tabulate"])
    def test_a_report_that_is_not_written_is_not_kept(self, capsys, tmp_path, grid5_files,
                                                      command):
        argv = {"build-measure": ["--space", grid5_files["space"]],
                "tabulate": ["--map", grid5_files["map"], "--measure", grid5_files["measure"],
                             "--beta", "1"]}[command]
        taken = tmp_path / "taken"
        taken.mkdir()
        assert main([command, *argv, "--out", str(taken)]) == 2
        capsys.readouterr()
        assert main([command, *argv]) == 0
        printed = capsys.readouterr().out
        kept = kept_texts()
        assert main([command, *argv, "--out", str(tmp_path / "r.json")]) == 0
        assert printed not in kept and kept_texts() - kept == {printed}

    @pytest.mark.parametrize("extra,kept", [(0, True), (1, False)])
    def test_only_reports_up_to_the_cap_are_kept(self, tmp_path, grid5_files, monkeypatch,
                                                 builds, extra, kept):
        out = tmp_path / "measure.json"
        assert main(["build-measure", "--space", grid5_files["space"], "--out", str(out)]) == 0
        empty_memos()
        monkeypatch.setattr(formats, "_MEMO_CHARS", len(out.read_text()) - extra)
        assert main(["build-measure", "--space", grid5_files["space"], "--out", str(out)]) == 0
        assert (out.read_text() in kept_texts()) == kept
        builds.clear()
        formats.measure_from_doc(str(out))
        assert builds["_parse"] == (not kept)

    def test_a_wrapped_loader_still_hits(self, tmp_path, grid5_files, monkeypatch, builds):
        # As a tracer wraps the loaders: the report is filed for the loader
        # the wrapper calls, and the wrapped name still finds it.
        for name in ("measure_from_doc", "_table_rows"):
            loader = getattr(formats, name)
            monkeypatch.setattr(formats, name, functools.wraps(loader)(
                lambda *args, _loader=loader, **kwargs: _loader(*args, **kwargs)))
        measure, table = self.build(tmp_path, grid5_files["space"], grid5_files["map"], 1.0)
        builds.clear()
        formats.measure_from_doc(measure)
        formats.table_from_doc(table, input_space=grid_space(5))
        assert builds["_parse"] == 0

    def test_validate_then_build_measure_parses_the_space_once(self, tmp_path, builds,
                                                               validations):
        labels = [f"p{i}" for i in range(8)]
        space = write(tmp_path, "space.json",
                      {"labels": labels, "dist": cloud_metric(np.random.default_rng(3), 8).tolist()})
        assert main(["validate", "--space", space, "--out", str(tmp_path / "v.json")]) == 0
        assert main(["build-measure", "--space", space, "--out", str(tmp_path / "m.json")]) == 0
        assert builds["_parse"] == 1 and validations == [8]


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
        found = {(name, action.option_strings[0]): action.type
                 for name, sp in SUBCOMMANDS.items() for action in sp._actions
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
    """A float flag takes a value that starts with ``-`` either joined to it
    with ``=`` or as the next token, and both give the same report."""

    @pytest.mark.parametrize("text", ["-inf", "-1e-3"])
    def test_equals_form(self, capsys, grid5_files, text):
        argv = float_flag_argv(grid5_files, "audit-privacy")[:-2]
        code, doc = run(capsys, *argv, f"--threshold={text}")
        assert code == 1
        assert doc["params"]["threshold"] == formats.encode_value(float(text))
        assert doc["result"]["passed"] is False

    @pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
    @pytest.mark.parametrize("text", ["-inf", "-1e-3", "-0", "-2"])
    def test_the_next_token_form(self, capsys, grid5_files, command, flag, text):
        argv = float_flag_argv(grid5_files, command)
        i = argv.index(flag)
        outcomes = []
        for spelling in ([f"{flag}={text}"], [flag, text]):
            try:
                code = main(argv[:i] + spelling + argv[i + 2:])
            except SystemExit as exc:
                code = exc.code
            outcomes.append((code, capsys.readouterr()))
        assert outcomes[0][0] in (0, 1, 3)
        assert outcomes[1] == outcomes[0]


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

    def test_calibrate_with_an_overflowing_beta_exits_3(self, capsys):
        code, doc = run(capsys, "calibrate", "--gamma", "1e-320", "--delta", "0.1", "--m", "0.5")
        assert code == 3
        assert doc["result"] == {
            "error": "gamma 1e-320 is too small: 2 * beta is not a finite double",
            "error_kind": "ValueError"}

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--m", "0.5"],
        ["tradeoff", "--measure", {"space": {"kind": "grid", "n": 3},
                                   "weights": {"0": 1, "0.5": 1, "1": 1}}],
    ])
    def test_overflowing_epsilon_exits_3(self, capsys, tmp_path, argv):
        # beta = 1.2e308 or 1.36e308 is finite, but the privacy level 2 * beta is not.
        if isinstance(argv[-1], dict):
            argv = argv[:-1] + [write(tmp_path, "base.json", argv[-1])]
        code, doc = run(capsys, *argv, "--gamma", "5e-308", "--delta", "0.1")
        assert code == 3
        assert doc["result"] == {
            "error": "gamma 5e-308 is too small: 2 * beta is not a finite double",
            "error_kind": "ValueError"}

    def test_tabulate_at_beta_zero_with_an_infinite_constant(self, capsys, tmp_path):
        # Points 5e-324 apart with images 0.5 apart: the constant is inf,
        # and at beta 0 the mechanism ignores its input.
        the_map = write(tmp_path, "map.json", {
            "domain": {"labels": ["a", "b"], "dist": [[0, 5e-324], [5e-324, 0]]},
            "codomain": {"kind": "grid", "n": 3}, "table": {"a": "0", "b": "0.5"}})
        measure = write(tmp_path, "base.json", {"space": {"kind": "grid", "n": 3},
                                                "weights": {"0": 1, "0.5": 1, "1": 1}})
        code, doc = run(capsys, "tabulate", "--map", the_map, "--measure", measure, "--beta", "0")
        assert code == 0
        assert doc["result"]["lipschitz_c"] == "infinity"
        assert doc["result"]["privacy_bound"] == 0.0

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

    def test_a_threshold_at_the_reported_value_passes(self, capsys, grid5_files):
        # The verdict rule at its edge: epsilon_max <= threshold passes
        # audit-privacy, min_mass or eps_lower >= threshold passes the other
        # two, and a threshold one ulp to the failing side exits 1.
        files = grid5_files
        mech = str(files["dir"] / "mech.json")
        main(["tabulate", "--map", files["map"], "--measure", files["measure"],
              "--beta", "12", "--out", mech])
        cases = [
            (["audit-privacy", "--space", files["space"]], "epsilon_max", -math.inf),
            (["audit-utility", "--map", files["map"], "--gamma", "0.5"], "min_mass", math.inf),
            (["lower-bound", "--map", files["map"], "--centers", "0,1", "--r", "0.25"],
             "eps_lower", math.inf),
        ]
        for argv, key, failing_side in cases:
            value = run(capsys, *argv, "--mech", mech)[1]["result"][key]
            for threshold, want in ((value, 0), (math.nextafter(value, failing_side), 1)):
                code, doc = run(capsys, *argv, "--mech", mech, "--threshold", repr(threshold))
                assert (code, doc["result"]["passed"]) == (want, want == 0), (argv, threshold)

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

    def test_per_pair_hands_the_writer_the_reports_own_matrix(self, grid5_files, monkeypatch):
        # The result holds the report's own arrays: nothing copies the n x n
        # matrix between the audit and the writer.
        reports, docs = [], []
        audit, write_doc = cli.audit_privacy, formats.write_doc
        monkeypatch.setattr(cli, "audit_privacy",
                            lambda *args, **kwargs: reports.append(audit(*args, **kwargs)) or reports[-1])
        monkeypatch.setattr(formats, "write_doc",
                            lambda path, doc: docs.append(doc) or write_doc(path, doc))
        mech = str(grid5_files["dir"] / "mech.json")
        assert main(["tabulate", "--map", grid5_files["map"], "--measure",
                     grid5_files["measure"], "--beta", "2", "--out", mech]) == 0
        assert main(["audit-privacy", "--mech", mech, "--space", grid5_files["space"],
                     "--per-pair", "--out", str(grid5_files["dir"] / "audit.json")]) == 0
        (report,), doc = reports, docs[-1]
        assert doc["result"]["per_pair_max"] is report.per_pair_max
        assert doc["result"]["witness"] is report.witness

    def test_results_hold_the_report_fields(self, capsys, grid5_files):
        files = grid5_files
        mech = str(files["dir"] / "mech.json")
        main(["tabulate", "--map", files["map"], "--measure", files["measure"],
              "--beta", "12", "--out", mech])
        cases = [
            (PrivacyAuditReport, set(), ["audit-privacy", "--space", files["space"]]),
            (PrivacyAuditReport, set(), ["audit-privacy", "--space", files["space"], "--per-pair"]),
            (UtilityAuditReport, set(), ["audit-utility", "--map", files["map"], "--gamma", "0.5"]),
            (ImpossibilityReport, {"witness_center"},
             ["lower-bound", "--map", files["map"], "--centers", "0,1", "--r", "0.1"]),
        ]
        for report, extra, argv in cases:
            code, doc = run(capsys, *argv, "--mech", mech)
            names = {f.name for f in dataclasses.fields(report)} | extra
            if argv[0] == "audit-privacy" and "--per-pair" not in argv:
                names.remove("per_pair_max")
            assert code == 0 and set(doc["result"]) == names, argv
        code, doc = run(capsys, "tradeoff", "--measure", files["measure"],
                        "--gamma", "0.5", "--delta", "0.1")
        assert set(doc["result"]) == {f.name for f in dataclasses.fields(TradeoffBound)}

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

    def test_sample_count_past_the_cap_exits_3_with_report(self, capsys, grid5_files):
        code, doc = run(capsys, "sample", "--map", grid5_files["map"], "--measure",
                        grid5_files["measure"], "--beta", "3", "--input", "0.5",
                        "--seed", "11", "--count", "1000000000")
        assert code == 3
        assert doc["result"] == {"error": "count must be at most 10000000 (MAX_DRAWS), "
                                          "got 1000000000", "error_kind": "ValueError"}

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
        (["calibrate", "--m", "5e-324"], 4.0 * (10 * math.log(10.0) - math.log(5e-324))),
        (["tradeoff", "--measure", {"space": {"kind": "discrete", "n": 2},
                                    "weights": {"0": 1, "1": 1e-300}}], 4.0 * 310 * math.log(10.0)),
    ])
    def test_calibration_past_the_float_range(self, capsys, tmp_path, argv, beta):
        if isinstance(argv[-1], dict):
            argv = argv[:-1] + [write(tmp_path, "tiny.json", argv[-1])]
        code, doc = run(capsys, *argv, "--gamma", "0.5", "--delta", "1e-10")
        assert code == 0
        assert doc["result"]["beta"] == pytest.approx(beta, rel=1e-12)

    @pytest.mark.parametrize("flag, code", [("--m=2", 3), ("--m=inf", 3), ("--m=1", 0)],
                             ids=["2", "inf", "1"])
    def test_calibrate_refuses_a_modulus_above_one(self, capsys, flag, code):
        # --m is a ball-mass floor of the normalized base, so it lies in (0, 1].
        got, doc = run(capsys, "calibrate", "--gamma", "0.5", "--delta", "0.1", flag)
        assert got == code
        if code == 3:
            assert doc["result"] == {"error": f"--m must be at most 1, got {float(flag[4:])}",
                                     "error_kind": "ValueError"}
        else:
            assert doc["result"]["beta"] == 4.0 * math.log(10.0)

    def test_build_measure_on_subnormal_distances(self, capsys, tmp_path):
        space = write(tmp_path, "s.json",
                      {"labels": ["a", "b"], "dist": [[0, 1e-310], [1e-310, 0]]})
        code, doc = run(capsys, "build-measure", "--space", space)
        assert code == 0
        assert doc["result"]["hierarchy"]["L"] == 1030
        assert doc["result"]["weights"]["b"] > 0

    def test_build_measure_on_the_smallest_distance(self, capsys, tmp_path):
        # The default depth stops at the deepest level that can be built,
        # which packs at 5e-324 and so keeps one of the two points.
        space = write(tmp_path, "s.json",
                      {"labels": ["a", "b"], "dist": [[0, 5e-324], [5e-324, 0]]})
        code, doc = run(capsys, "build-measure", "--space", space)
        assert code == 0
        assert doc["result"]["hierarchy"]["L"] == 1073
        assert doc["result"]["weights"]["b"] == 0.0

    @pytest.mark.parametrize("radius, code", [("5e-324", 3), ("1e-323", 0)])
    def test_net_at_the_smallest_radii(self, capsys, tmp_path, radius, code):
        # A net at r packs at r/2; 1e-323 is 2**-1073, whose half is 5e-324.
        space = write(tmp_path, "s.json", {"kind": "grid", "n": 3})
        got, doc = run(capsys, "net", "--space", space, "--r", radius)
        assert got == code
        if code == 0:
            assert doc["result"]["centers"] == ["0", "0.5", "1"]
        else:
            assert doc["result"]["error"] == "radius must be at least 2^-1073, got 5e-324"

    def test_build_measure_past_the_float_range(self, capsys, tmp_path):
        # Level 1080's radius 2**-1080 underflows to 0; the depth is refused
        # before any level is built.
        space = write(tmp_path, "s.json", {"kind": "grid", "n": 3})
        code, doc = run(capsys, "build-measure", "--space", space, "--L", "1080")
        assert code == 3
        assert doc["result"] == {
            "error": "depth must be at most 1073 (deeper packing radii underflow to 0), got 1080",
            "error_kind": "ValueError"}

    @pytest.mark.parametrize("depth, code", [(1073, 0), (1074, 3)])
    def test_build_measure_at_the_deepest_level(self, capsys, tmp_path, depth, code):
        # Level 1073 packs at 2**-1074, the smallest positive float; level
        # 1074 would pack at 2**-1075, which is 0.
        space = write(tmp_path, "s.json", {"kind": "grid", "n": 3})
        got, doc = run(capsys, "build-measure", "--space", space, "--L", str(depth))
        assert got == code
        if code == 0:
            assert doc["result"]["hierarchy"]["L"] == 1073
        else:
            assert doc["result"]["error"].startswith("depth must be at most 1073")

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
        table = formats.table_from_doc(mech, formats.space_from_doc(grid5_files["space"]))
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

    @pytest.mark.parametrize("explicit, expected", [(False, [5, 5, 5]), (True, [5])],
                             ids=["generator", "explicit"])
    def test_tabulate_validates_one_space(self, capsys, grid5_files, validations,
                                          explicit, expected):
        # A generator document is validated each time it is read, here as the
        # map's domain and codomain and the measure's space; an explicit space
        # repeated in those three places is validated once per command.
        the_map, measure = grid5_files["map"], grid5_files["measure"]
        if explicit:
            space = json.loads(json.dumps(formats.space_to_doc(grid_space(5)),
                                          default=np.ndarray.tolist))
            docs = [json.loads(Path(path).read_text()) for path in (the_map, measure)]
            docs[0]["domain"] = docs[0]["codomain"] = docs[1]["space"] = space
            the_map = write(grid5_files["dir"], "explicit_map.json", docs[0])
            measure = write(grid5_files["dir"], "explicit_measure.json", docs[1])
        validations.clear()
        code, _ = run(capsys, "tabulate", "--map", the_map, "--measure", measure, "--beta", "2")
        assert code == 0
        assert validations == expected

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
    the NaN and Infinity literals that Python's json reads but JSON lacks;
    BIG is an integer too large for a double, and HUGE the number literal
    1e400, which json reads as inf."""

    BIG = pytest.param(10**400, id="10**400")
    HUGE = pytest.param(LITERAL_1E400, id="1e400")

    @pytest.mark.parametrize("weight", [None, "abc", [0.2], True, math.nan, math.inf, BIG, HUGE])
    def test_measure_weight(self, capsys, grid5_files, weight):
        doc = json.loads(Path(grid5_files["measure"]).read_text())
        doc["weights"]["0"] = weight
        measure = write(grid5_files["dir"], "bad_measure.json", doc)
        code, out = run(capsys, "tradeoff", "--measure", measure,
                        "--gamma", "0.5", "--delta", "0.1")
        assert code == 2
        assert out is None

    @pytest.mark.parametrize("declared", [[1], "1", {"c": 1}, math.nan, math.inf, BIG, HUGE])
    def test_map_lipschitz_constant(self, capsys, grid5_files, declared):
        doc = json.loads(Path(grid5_files["map"]).read_text())
        doc["lipschitz_c"] = declared
        the_map = write(grid5_files["dir"], "bad_map.json", doc)
        code, out = run(capsys, "tabulate", "--map", the_map, "--measure",
                        grid5_files["measure"], "--beta", "1")
        assert code == 2
        assert out is None

    @pytest.mark.parametrize("output", [[1], 1])
    def test_map_table_value(self, capsys, grid5_files, output):
        doc = json.loads(Path(grid5_files["map"]).read_text())
        doc["table"]["0"] = output
        the_map = write(grid5_files["dir"], "bad_map.json", doc)
        code, out = run(capsys, "tabulate", "--map", the_map, "--measure",
                        grid5_files["measure"], "--beta", "1")
        assert code == 2
        assert out is None

    BAD_DIST = [[[0, "1"], ["1", 0]], [[0, 1], [1, False]], [[0, True], [True, 0]],
                [[0, math.nan], [math.nan, 0]], [[0, math.inf], [math.inf, 0]],
                pytest.param([[0, 10**400], [10**400, 0]], id="10**400"),
                pytest.param([[0, LITERAL_1E400], [LITERAL_1E400, 0]], id="1e400")]

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

    def test_integer_past_the_digit_limit_exits_2(self, capsys, tmp_path):
        # json reads integers with int(), which refuses more than 4300 digits.
        path, big = tmp_path / "space.json", "1" + "0" * 5000
        path.write_text(f'{{"labels": ["a", "b"], "dist": [[0, {big}], [{big}, 0]]}}')
        assert run(capsys, "validate", "--space", str(path)) == (2, None)

    @pytest.mark.parametrize("row", [["0.5", 0.5], [0.5, "0.5"], [True, 0], [1, False],
                                     [math.nan, 0.5], [math.inf, 0],
                                     pytest.param([10**400, 0], id="10**400"),
                                     pytest.param([LITERAL_1E400, 0], id="1e400")])
    def test_table_rows(self, capsys, tmp_path, row):
        # Each row sums to 1 once coerced to floats.
        space = write(tmp_path, "space.json", {"kind": "discrete", "n": 2})
        mech = write(tmp_path, "mech.json", {"inputs": ["0", "1"], "outputs": ["0", "1"],
                                              "rows": {"0": row, "1": [0.5, 0.5]}})
        assert run(capsys, "audit-privacy", "--mech", mech, "--space", space) == (2, None)


GRID5 = ["0", "0.25", "0.5", "0.75", "1"]


class TestMalformedDocuments:
    """A document of the wrong shape is a schema error: exit 2, the reason
    on stderr, and no report.  ``bad.json`` is the malformed document;
    ``space`` and ``map`` name the fixture's grid-5 files."""

    @pytest.mark.parametrize("doc, argv, message", [
        ({"command": "net", "result": [1]},
         ["validate", "--space", "bad.json"], "non-object result"),
        ({"space": {"kind": "grid", "n": 5}, "weights": [1] * 5},
         ["tradeoff", "--measure", "bad.json", "--gamma", "0.5", "--delta", "0.1"],
         "weights must be an object"),
        ({"inputs": GRID5, "outputs": ["0"], "rows": [[1]] * 5},
         ["audit-privacy", "--mech", "bad.json", "--space", "space"], "rows must be an object"),
        ({"inputs": GRID5, "outputs": ["a"], "rows": {x: [1] for x in GRID5}},
         ["audit-utility", "--mech", "bad.json", "--map", "map", "--gamma", "0.5"],
         "outputs do not match"),
        ({"inputs": GRID5, "outputs": ["a", "b", "c"], "rows": {x: [0.5, 0.5] for x in GRID5}},
         ["audit-privacy", "--mech", "bad.json", "--space", "space"],
         "one probability per output label"),
    ])
    def test_exits_2(self, capsys, grid5_files, doc, argv, message):
        files = dict(grid5_files, **{"bad.json": write(grid5_files["dir"], "bad.json", doc)})
        code = main([files.get(arg, arg) for arg in argv])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("argv", [
        ["audit-privacy", "--mech", "bad.json", "--space", "space"],
        ["audit-utility", "--mech", "bad.json", "--map", "map", "--gamma", "0.5"],
        ["lower-bound", "--mech", "bad.json", "--map", "map", "--centers", "0,1", "--r", "0.1"],
    ])
    @pytest.mark.parametrize("key", ["inputs", "outputs"])
    def test_repeated_table_labels_exit_2(self, capsys, grid5_files, key, argv):
        labels = {"inputs": GRID5 + ["0"], "outputs": GRID5[:4] + ["0"]}[key]
        doc = {"inputs": GRID5, "outputs": GRID5, key: labels,
               "rows": {x: [0.2] * 5 for x in GRID5}}
        self.test_exits_2(capsys, grid5_files, doc, argv, f"table {key} must not repeat a label")


def test_readme_command_block_runs(capsys, tmp_path, monkeypatch):
    # Every line of the README's command block exits 0 on the files it
    # names, and audit-privacy prints the envelope shown under the block.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", "")
    envelope = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    monkeypatch.chdir(tmp_path)
    labels = ["0", "0.25", "0.5", "0.75", "1"]
    write(tmp_path, "space.json", {"kind": "grid", "n": 5})
    write(tmp_path, "query.json", {"domain": "space.json", "codomain": "space.json",
                                   "table": {lab: lab for lab in labels}})
    reports = {}
    for line in block.splitlines():
        prog, *argv = shlex.split(line)
        assert prog == "metricdp"
        assert main(argv) == 0, line
        reports[argv[0]] = capsys.readouterr().out
    doc = json.loads(reports["audit-privacy"])
    assert doc["result"]["epsilon_max"] == 18.496190890947364
    assert doc["result"]["witness"] == ["1", "0.75", "1"]
    assert doc == envelope


# Four valid documents on one 4-point line; every command below exits 0 on them.
LINE = {"labels": ["a", "b", "c", "d"],
        "dist": [[0.0, 0.25, 0.5, 1.0], [0.25, 0.0, 0.25, 0.75],
                 [0.5, 0.25, 0.0, 0.5], [1.0, 0.75, 0.5, 0.0]]}
DOCUMENTS = {
    "space": LINE,
    "measure": {"space": LINE, "weights": {"a": 1.0, "b": 2.0, "c": 1.0, "d": 0.5}},
    "map": {"domain": LINE, "codomain": LINE, "table": {x: x for x in LINE["labels"]}},
    "table": {"inputs": LINE["labels"], "outputs": LINE["labels"],
              "rows": {x: [0.7 if x == y else 0.1 for y in LINE["labels"]] for x in LINE["labels"]}},
}
CONTRACT_ARGV = [
    ["validate", "--space", "space"],
    ["net", "--space", "space", "--r", "0.5"],
    ["build-measure", "--space", "space"],
    ["calibrate", "--gamma", "0.5", "--delta", "0.1", "--measure", "measure"],
    ["tradeoff", "--measure", "measure", "--gamma", "0.5", "--delta", "0.1"],
    ["tabulate", "--map", "map", "--measure", "measure", "--beta", "4"],
    ["sample", "--map", "map", "--measure", "measure", "--beta", "4", "--input", "b",
     "--seed", "1", "--count", "3"],
    ["audit-privacy", "--mech", "table", "--space", "space", "--per-pair", "--threshold", "9"],
    ["audit-utility", "--mech", "table", "--map", "map", "--gamma", "0.5"],
    ["lower-bound", "--mech", "table", "--map", "map", "--centers", "a,d", "--r", "0.25"],
]
REPLACEMENTS = ["x", True, None, [[1.0]], 0.0, -0.0, 5e-324, 1e308, "infinity"]
# (command, position) of every float flag above, and values to give one of them.
FLAG_SLOTS = [(k, i) for k, argv in enumerate(CONTRACT_ARGV) for i, arg in enumerate(argv)
              if (argv[0], arg) in FLOAT_FLAGS]
FLAG_VALUES = ["0", "-0", "5e-324", "1e-320", "0.5", "1", "2", "1e308", "inf", "-inf", "-1", "-1e-3"]


def nodes(doc, path=()):
    """The path of every node below ``doc``: object keys and list positions."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from nodes(value, path + (key,))


def run_contract(documents, flag=None, joined=True):
    """Run every command of ``CONTRACT_ARGV`` in-process on ``documents``,
    each writing its report with ``--out``, with ``flag`` = (slot, value)
    setting one float flag, spelled ``--flag=value`` if ``joined`` and
    ``--flag value`` if not; return (exit code, report or None) per
    command."""
    empty_memos()
    outcomes = []
    with tempfile.TemporaryDirectory() as d:
        files = {name: os.path.join(d, name + ".json") for name in documents}
        for name, doc in documents.items():
            Path(files[name]).write_text(json.dumps(doc))
        for k, argv in enumerate(CONTRACT_ARGV):
            if flag is not None and flag[0][0] == k:
                i = flag[0][1]
                value = [f"{argv[i]}={flag[1]}"] if joined else [argv[i], flag[1]]
                argv = argv[:i] + value + argv[i + 2:]
            out = os.path.join(d, f"report{k}.json")
            try:
                code = main([files.get(arg, arg) for arg in argv] + ["--out", out])
            except SystemExit as exc:  # argparse's own exit
                code = exc.code
            report = json.loads(Path(out).read_text()) if os.path.exists(out) else None
            if report is not None:  # name each file as the run's other spellings do
                names = {path: name for name, path in files.items()}
                report["params"] = {k: names.get(v, v) for k, v in report["params"].items()}
            outcomes.append((code, report))
    return outcomes


class TestExitContract:
    """Whatever one node of a valid document holds, and whatever number one
    float flag is given, every command exits 0, 1, 2 or 3, raises nothing,
    and writes an error report exactly when it exits 3: a report holding
    "error", or validate's violations report.  ``--flag value`` gives the
    exit codes and reports of ``--flag=value``."""

    def test_nesting_past_the_recursion_limit_exits_2_without_report(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        out = tmp_path / "never.json"
        assert main(["validate", "--space", str(deep), "--out", str(out)]) == 2
        assert not out.exists()
        assert "is not valid JSON: maximum recursion depth" in capsys.readouterr().err

    def test_an_input_too_large_to_build_exits_3_with_report(self, capsys, tmp_path, monkeypatch):
        # As numpy raises on {"kind": "grid", "n": 1000000}, whose matrix
        # would take 7.28 TiB; nothing that large is asked for here.
        def refuse(n):
            raise MemoryError(f"Unable to allocate a {n}x{n} matrix")

        monkeypatch.setattr(formats, "grid_space", refuse)
        space = write(tmp_path, "space.json", {"kind": "grid", "n": 1000000})
        code, doc = run(capsys, "validate", "--space", space)
        assert code == 3
        assert doc["result"] == {"error": "Unable to allocate a 1000000x1000000 matrix",
                                 "error_kind": "MemoryError"}

    def test_the_valid_documents_pass(self):
        assert [code for code, _ in run_contract(DOCUMENTS)] == [0] * len(CONTRACT_ARGV)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_one_mutated_node(self, data):
        name = data.draw(st.sampled_from(sorted(DOCUMENTS)))
        documents = json.loads(json.dumps(DOCUMENTS))
        *parents, key = data.draw(st.sampled_from(list(nodes(documents[name]))))
        parent = documents[name]
        for step in parents:
            parent = parent[step]
        replacement = data.draw(st.sampled_from(["delete", *REPLACEMENTS]))
        if replacement == "delete":
            del parent[key]
        else:
            parent[key] = replacement
        flag = data.draw(st.none() | st.tuples(st.sampled_from(FLAG_SLOTS), st.sampled_from(FLAG_VALUES)))
        joined = data.draw(st.booleans())
        outcomes = run_contract(documents, flag, joined)
        for argv, (code, report) in zip(CONTRACT_ARGV, outcomes):
            assert code in (0, 1, 2, 3), argv
            result = report and report["result"]
            failed = report is not None and ("error" in result or result.get("ok") is False)
            assert failed == (code == 3), (argv, code, report)
            assert (report is None) == (code == 2), (argv, code)
        if flag is not None:
            assert run_contract(documents, flag, not joined) == outcomes


def test_start_up_imports_no_exact_arithmetic():
    """``fractions`` (and through it ``decimal``) serves only
    ``min_database_size``, which imports it itself, so no command pays
    for it at start-up."""
    src = str(Path(formats.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, metricdp.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
