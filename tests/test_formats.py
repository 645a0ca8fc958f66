import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import jsonable
from metricdp import (
    CoverHierarchy,
    CoverLevel,
    FiniteMetricSpace,
    InvalidMetricError,
    SchemaError,
    StructuralError,
    UnknownLabelError,
    covering_measure,
    discrete_space,
    grid_space,
    identity_map,
    tabulate,
    uniform_measure,
    ExpMechParams,
    LipschitzMap,
)
from metricdp import formats


class TestValues:
    def test_infinity_round_trip(self):
        assert formats.encode_value(math.inf) == "infinity"
        assert formats.decode_value("infinity") == math.inf
        assert formats.encode_value(-math.inf) == "-infinity"
        assert formats.decode_value("-infinity") == -math.inf

    def test_finite_values_pass_through(self):
        assert formats.encode_value(1.25) == 1.25
        assert formats.decode_value(3) == 3.0

    def test_decode_rejects_junk(self):
        with pytest.raises(SchemaError):
            formats.decode_value("very big")
        with pytest.raises(SchemaError):
            formats.decode_value(True)

    def test_jsonable_handles_numpy(self):
        doc = jsonable({
            "a": np.float64(0.5),
            "b": np.array([1.0, math.inf]),
            "c": (np.int64(3), np.bool_(True)),
        })
        assert doc == {"a": 0.5, "b": [1.0, "infinity"], "c": [3, True]}

    def test_dump_doc_rejects_nan(self):
        with pytest.raises(ValueError):
            formats.dump_doc({"x": math.nan})

    def test_dump_doc_is_canonical(self):
        a = formats.dump_doc({"b": 1, "a": 2})
        b = formats.dump_doc({"a": 2, "b": 1})
        assert a == b
        assert a.endswith("\n")


class TestLoadDoc:
    def test_reads_files(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"k": 1}')
        assert formats.load_doc(str(path)) == {"k": 1}

    def test_missing_file(self):
        with pytest.raises(SchemaError, match="cannot read"):
            formats.load_doc("/nonexistent/file.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError, match="not valid JSON"):
            formats.load_doc(str(path))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_nan_and_infinity_literals_are_schema_errors(self, tmp_path, literal):
        # Python's json reads these; JSON has no such numbers.
        path = tmp_path / "x.json"
        path.write_text('{"k": [1, %s]}' % literal)
        with pytest.raises(SchemaError, match=literal):
            formats.load_doc(str(path))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            formats.load_doc(str(path))

    def test_envelope_unwrapping(self):
        doc = {"command": "net", "version": "0", "params": {}, "result": {"k": 9}}
        assert formats.load_doc(doc) == {"k": 9}

    def test_envelope_with_non_object_result(self):
        doc = {"command": "net", "version": "0", "params": {}, "result": [9]}
        with pytest.raises(SchemaError, match="non-object result"):
            formats.load_doc(doc)

    def test_nesting_past_the_recursion_limit_is_a_schema_error(self, tmp_path):
        # json raises RecursionError, not ValueError, on input this deep.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(SchemaError, match="not valid JSON"):
            formats.load_doc(str(path))

    def test_write_doc_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        formats.write_doc(str(path), {"x": [1, 2]})
        assert json.loads(path.read_text()) == {"x": [1, 2]}


class TestParsedDocumentMemo:
    """A loader given a path parses and builds once per file text: it
    returns the very object an earlier call in the thread built from the
    identical text with no space supplied, and ``load_doc`` parses on every
    call."""

    def test_a_path_loaded_twice_is_parsed_once(self, tmp_path, builds):
        space = grid_space(3)
        lmap = identity_map(space)
        mech = tabulate(ExpMechParams(base=uniform_measure(space), beta=1.0, query=lmap))
        docs = {"space": formats.space_to_doc(space),
                "measure": formats.measure_to_doc(uniform_measure(space)),
                "map": {"domain": formats.space_to_doc(space), "codomain": formats.space_to_doc(space),
                        "table": lmap.table},
                "table": formats.table_to_doc(mech)}
        builds.clear()
        loads = {"space": formats.space_from_doc, "measure": formats.measure_from_doc,
                 "map": formats.map_from_doc, "table": formats._table_rows}
        for name, doc in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc, default=np.ndarray.tolist))
            first = loads[name](str(path))
            assert loads[name](str(path)) is first
        # A table is bound to its space on every call, from the kept rows.
        table = formats.table_from_doc(str(path), input_space=space)
        assert builds == {"_parse": 4, "_number_matrix": 5, "lipschitz_constant": 1, "__init__": 1}
        assert np.array_equal(table.probs, mech.probs)

    def test_a_rewrite_of_the_same_length_is_parsed_again(self, tmp_path, builds):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "dist": [[0, 1], [1, 0]]}))
        first = formats.space_from_doc(str(path))
        path.write_text(json.dumps({"labels": ["a", "b"], "dist": [[0, 2], [2, 0]]}))
        second = formats.space_from_doc(str(path))
        assert first.dist[0, 1] == 1.0 and second.dist[0, 1] == 2.0
        assert builds["_parse"] == 2

    def test_key_order_and_float_bits_survive_the_copy(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"b": [-0.0, 5e-324, 0.1], "a": 12345678901234567890}')
        for _ in range(2):
            doc = formats.load_doc(str(path))
            assert list(doc) == ["b", "a"]
            assert np.array(doc["b"]).tobytes() == np.array([-0.0, 5e-324, 0.1]).tobytes()
            assert doc["a"] == 12345678901234567890

    def test_load_doc_parses_every_call(self, tmp_path, builds):
        path = tmp_path / "x.json"
        path.write_text('{"k": [1, {"j": 2.5}], "s": "t"}')
        first = formats.load_doc(str(path))
        second = formats.load_doc(str(path))
        assert first == second == {"k": [1, {"j": 2.5}], "s": "t"}
        assert first is not second and first["k"] is not second["k"]
        first["k"][1]["j"] = 0
        del first["s"]
        assert formats.load_doc(str(path)) == second == {"k": [1, {"j": 2.5}], "s": "t"}
        assert builds["_parse"] == 3 and formats._memo.kept == {}

    @pytest.mark.parametrize("text,match", [
        ("{nope", "not valid JSON"),
        ('{"k": NaN}', "NaN"),
        ("[1, 2]", "got list"),
        pytest.param('{"labels": [0, 1], "dist": [[0, 1], [1, 0]]}', "strings", id="schema"),
        pytest.param('{"labels": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}',
                     "triangle", id="invalid-metric"),
    ])
    def test_a_malformed_file_raises_the_same_error_every_time(self, tmp_path, builds, text, match):
        path = tmp_path / "x.json"
        path.write_text(text)
        errors = []
        for _ in range(3):
            with pytest.raises((SchemaError, InvalidMetricError), match=match) as exc:
                formats.space_from_doc(str(path))
            errors.append((type(exc.value), str(exc.value)))
        assert errors == [errors[0]] * 3
        assert builds["_parse"] == 3 and formats._memo.kept == {}

    @pytest.mark.parametrize("extra,kept", [(0, 1), (1, 0)])
    def test_only_texts_up_to_the_cap_are_kept(self, tmp_path, builds, extra, kept):
        path = tmp_path / "x.json"
        frame = '{"labels": ["a"], "dist": [[0]], "pad": ""}'
        pad = "x" * (formats._MEMO_CHARS - len(frame) + extra)
        path.write_text('{"labels": ["a"], "dist": [[0]], "pad": "%s"}' % pad)
        for _ in range(2):
            assert formats.space_from_doc(str(path)).labels == ["a"]
        assert len(formats._memo.kept) == kept
        assert builds["_parse"] == 2 - kept

    def test_the_memo_holds_a_fixed_number_of_texts(self, tmp_path):
        paths, first = [], []
        for i in range(formats._MEMO_DOCS + 3):
            paths.append(str(tmp_path / f"x{i}.json"))
            Path(paths[-1]).write_text(json.dumps({"labels": ["a", "b"], "dist": [[0, i + 1], [i + 1, 0]]}))
            first.append(formats.space_from_doc(paths[-1]))
        assert len(formats._memo.kept) == formats._MEMO_DOCS
        assert formats.space_from_doc(paths[-1]) is first[-1]
        assert formats.space_from_doc(paths[0]) is not first[0]

    def test_other_spaces_give_a_fresh_build(self, tmp_path, builds):
        # Every call binds the kept rows to the spaces it supplies.
        space = grid_space(3)
        path = tmp_path / "table.json"
        path.write_text(json.dumps(formats.table_to_doc(tabulate(
            ExpMechParams(base=uniform_measure(space), beta=1.0, query=identity_map(space)))),
            default=np.ndarray.tolist))
        table = formats.table_from_doc(str(path), input_space=space)
        again = formats.table_from_doc(str(path), input_space=space)
        assert again is not table and again.input_space is space
        twin = grid_space(3)  # equal, but another object
        assert formats.table_from_doc(str(path), input_space=twin).input_space is twin
        full = formats.table_from_doc(str(path), input_space=space, output_space=space)
        assert full.output_space is space
        assert builds["__init__"] == 5  # the tabulated table and four loads
        assert builds["_parse"] == 1  # which share one parse of the rows

    def test_a_measure_naming_its_space_serves_any_supplied_space(self, tmp_path, builds):
        own = tmp_path / "own.json"
        own.write_text(json.dumps(formats.measure_to_doc(uniform_measure(discrete_space(3))),
                                  default=np.ndarray.tolist))
        measure = formats.measure_from_doc(str(own))
        assert formats.measure_from_doc(str(own), space=grid_space(3)) is measure
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"weights": {"0": 1.0}}))
        # A load given a space is not kept: each is built on its own space.
        grid, wider = grid_space(3), grid_space(5)
        on_grid = formats.measure_from_doc(str(bare), space=grid)
        again = formats.measure_from_doc(str(bare), space=grid)
        assert again is not on_grid and again.space is grid
        assert formats.measure_from_doc(str(bare), space=wider).space is wider
        with pytest.raises(SchemaError, match="names no space"):
            formats.measure_from_doc(str(bare))
        assert builds["_parse"] == 5

    def test_a_document_naming_another_file_is_kept_while_that_file_is(self, tmp_path, builds):
        space = tmp_path / "space.json"
        space.write_text(json.dumps(formats.space_to_doc(grid_space(3)), default=np.ndarray.tolist))
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"domain": str(space), "codomain": str(space),
                                    "table": {"0": "0", "0.5": "0.5", "1": "1"}}))
        first = formats.map_from_doc(str(path))
        assert formats.map_from_doc(str(path)) is first
        assert first.domain is first.codomain is formats.space_from_doc(str(space))
        space.write_text(json.dumps({"labels": ["0", "0.5", "1"],
                                     "dist": [[0, 2, 4], [2, 0, 2], [4, 2, 0]]}))
        second = formats.map_from_doc(str(path))
        assert second.domain.dist[0, 2] == 4.0 and first.domain.dist[0, 2] == 1.0
        assert formats.map_from_doc(str(path)) is second
        assert builds["lipschitz_constant"] == 2
        # A build that builds the map depends on the space file too.
        formats._memo.kept.clear()
        index = tmp_path / "index.json"
        index.write_text(json.dumps({"map": str(path)}))
        load = formats._kept(lambda source: formats.map_from_doc(formats.load_doc(source)["map"]))
        assert load(str(index)) is load(str(index))
        space.write_text(json.dumps(formats.space_to_doc(grid_space(3)), default=np.ndarray.tolist))
        assert load(str(index)).domain.dist[0, 2] == 1.0

    def test_a_build_reads_each_file_once(self, tmp_path, monkeypatch):
        # A file rewritten while a build runs is not seen by that build: the
        # space file is rewritten once its first text is parsed, and both of
        # the map's spaces still come from that text.
        space = tmp_path / "space.json"
        old = json.dumps(formats.space_to_doc(grid_space(3)), default=np.ndarray.tolist)
        new = json.dumps({"labels": ["0", "0.5", "1"], "dist": [[0, 2, 4], [2, 0, 2], [4, 2, 0]]})
        space.write_text(old)
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"domain": str(space), "codomain": str(space),
                                    "table": {"0": "0", "0.5": "0.5", "1": "1"}}))
        parse = formats._parse

        def parse_and_rewrite(p, text):
            if p == str(space):
                space.write_text(new)
            return parse(p, text)

        monkeypatch.setattr(formats, "_parse", parse_and_rewrite)
        first = formats.map_from_doc(str(path))
        assert first.domain is first.codomain and first.domain.dist[0, 2] == 1.0
        monkeypatch.setattr(formats, "_parse", parse)
        assert formats.map_from_doc(str(path)).domain.dist[0, 2] == 4.0
        space.write_text(old)
        assert formats.map_from_doc(str(path)).domain.dist[0, 2] == 1.0

    def test_each_thread_keeps_its_own_memo(self, tmp_path):
        # More threads than cores, switching often, over more files than the
        # memo holds: every load gets its own file's space, each thread's
        # memo fills to its bound and no further, and no thread gets another
        # thread's object or fills the main thread's memo.
        paths = []
        for i in range(formats._MEMO_DOCS + 2):
            paths.append(str(tmp_path / f"x{i}.json"))
            Path(paths[-1]).write_text(json.dumps({"labels": ["a", "b"], "dist": [[0, i + 1], [i + 1, 0]]}))
        errors, sizes, firsts = [], [], []

        def work(k):
            try:
                for j in range(1000):
                    i = (k + j) % len(paths)
                    assert formats.space_from_doc(paths[i]).dist[0, 1] == i + 1
                    sizes.append(len(formats._memo.kept))
                firsts.append(formats.space_from_doc(paths[0]))
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(sizes) == 8 * 1000 and max(sizes) == formats._MEMO_DOCS
        assert len(set(map(id, firsts))) == 8
        assert formats._memo.kept == {}


class TestSpaceDocs:
    def test_generator_forms(self, validations):
        assert formats.space_from_doc({"kind": "grid", "n": 3}) == grid_space(3)
        assert formats.space_from_doc({"kind": "discrete", "n": 4}) == discrete_space(4)
        assert validations == []

    def test_generator_form_ignores_known(self, validations):
        # Only explicit documents meet the validated-space memo: a
        # generator's fresh space equals the memo's by value, and leaves it
        # in place.
        explicit = formats.space_to_doc(grid_space(3))
        known = formats.space_from_doc(explicit)
        space = formats.space_from_doc({"kind": "grid", "n": 3})
        assert space == known and space is not known
        assert formats.space_from_doc(explicit) is known
        assert validations == [3]

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            formats.space_from_doc({"kind": "torus", "n": 3})

    def test_generator_size_validation(self):
        with pytest.raises(SchemaError):
            formats.space_from_doc({"kind": "grid", "n": 0})
        with pytest.raises(SchemaError):
            formats.space_from_doc({"kind": "grid", "n": True})
        with pytest.raises(SchemaError):
            formats.space_from_doc({"kind": "grid", "n": "five"})

    def test_explicit_round_trip(self):
        s = grid_space(5)
        assert formats.space_from_doc(formats.space_to_doc(s)) == s

    def test_labels_must_be_strings(self):
        with pytest.raises(SchemaError, match="strings"):
            formats.space_from_doc({"labels": [0, 1], "dist": [[0, 1], [1, 0]]})

    def test_missing_keys(self):
        with pytest.raises(SchemaError, match="missing"):
            formats.space_from_doc({"labels": ["a"]})

    def test_bad_matrix_shape(self):
        with pytest.raises(SchemaError):
            formats.space_from_doc({"labels": ["a", "b"], "dist": [0, 1]})

    def test_label_count_is_checked_before_validation(self):
        # The matrix also breaks the triangle inequality; the shape is
        # reported first.
        doc = {"labels": ["a", "b"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
        with pytest.raises(StructuralError, match="2 labels but a 3x3 matrix"):
            formats.space_from_doc(doc)

    def test_invalid_metric_is_a_domain_error(self):
        doc = {"labels": ["a", "b"], "dist": [[0, -1], [-1, 0]]}
        with pytest.raises(InvalidMetricError):
            formats.space_from_doc(doc)


class TestMeasureDocs:
    def test_inline_space_round_trip(self):
        m = uniform_measure(grid_space(3))
        again = formats.measure_from_doc(formats.measure_to_doc(m))
        assert again.space == m.space
        assert np.array_equal(again.values, m.values)

    def test_space_by_path(self, tmp_path):
        sp = tmp_path / "space.json"
        sp.write_text(json.dumps({"kind": "grid", "n": 3}))
        doc = {"space": str(sp), "weights": {"0": 1.0, "1": 2.0}}
        m = formats.measure_from_doc(doc)
        assert m.values.tolist() == [1.0, 0.0, 2.0]

    def test_supplied_space_wins(self):
        m = formats.measure_from_doc({"weights": {"0": 1.0}}, space=grid_space(3))
        assert m.space == grid_space(3)

    def test_document_space_wins(self):
        doc = {"space": {"kind": "discrete", "n": 3}, "weights": {"0": 1.0}}
        m = formats.measure_from_doc(doc, space=grid_space(3))
        assert m.space == discrete_space(3)

    def test_no_space_anywhere(self):
        with pytest.raises(SchemaError, match="names no space and none is implied"):
            formats.measure_from_doc({"weights": {"0": 1.0}})

    def test_missing_weights(self):
        with pytest.raises(SchemaError):
            formats.measure_from_doc({"space": {"kind": "grid", "n": 3}})

    def test_weights_must_be_an_object(self):
        doc = {"space": {"kind": "grid", "n": 3}, "weights": [1.0, 1.0, 1.0]}
        with pytest.raises(SchemaError, match="weights must be an object"):
            formats.measure_from_doc(doc)

    def test_unknown_weight_label_is_domain_error(self):
        doc = {"space": {"kind": "grid", "n": 3}, "weights": {"9": 1.0}}
        with pytest.raises(UnknownLabelError, match=r"outside the space: \[\"'9'\"\]$"):
            formats.measure_from_doc(doc)


class TestMapDocs:
    @staticmethod
    def map_doc(f):
        return {"domain": formats.space_to_doc(f.domain),
                "codomain": formats.space_to_doc(f.codomain),
                "table": f.table, "lipschitz_c": f.constant}

    def test_round_trip(self):
        f = identity_map(grid_space(4))
        again = formats.map_from_doc(self.map_doc(f))
        assert again.table == f.table
        assert again.constant == f.constant

    def test_declared_constant_checked(self):
        doc = self.map_doc(identity_map(grid_space(3)))
        doc["lipschitz_c"] = 0.25
        with pytest.raises(StructuralError):
            formats.map_from_doc(doc)

    def test_declared_nan_fails_the_check(self):
        # abs(nan - c) > 1e-9 is False: a NaN declared in a dict document
        # would pass a check written that way.
        doc = self.map_doc(identity_map(grid_space(3)))
        doc["lipschitz_c"] = math.nan
        with pytest.raises(StructuralError, match="declared Lipschitz constant nan"):
            formats.map_from_doc(doc)

    def test_declared_infinity_matches_an_infinite_constant(self):
        # 1 / 1e-320 overflows: the computed constant is inf.
        domain = {"labels": ["a", "b"], "dist": [[0, 1e-320], [1e-320, 0]]}
        doc = {"domain": domain, "codomain": {"kind": "grid", "n": 2},
               "table": {"a": "0", "b": "1"}, "lipschitz_c": "infinity"}
        assert formats.map_from_doc(doc).constant == math.inf
        doc["lipschitz_c"] = 1e300
        with pytest.raises(StructuralError):
            formats.map_from_doc(doc)

    def test_table_must_be_object(self):
        doc = {"domain": {"kind": "grid", "n": 2},
               "codomain": {"kind": "grid", "n": 2}, "table": ["0", "1"]}
        with pytest.raises(SchemaError):
            formats.map_from_doc(doc)


SPACE_DOC = {"labels": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
WIDER_DOC = {"labels": ["a", "b", "c"], "dist": [[0, 2, 4], [2, 0, 2], [4, 2, 0]]}


class TestOneValidationPerSpace:
    """A document with the labels and raw matrix of the last explicit space
    built reuses that object; any other space document is validated."""

    def map_doc(self, codomain):
        return {"domain": SPACE_DOC, "codomain": codomain,
                "table": {x: x for x in SPACE_DOC["labels"]}}

    def test_codomain_equal_to_domain_reuses_it(self, validations):
        lmap = formats.map_from_doc(self.map_doc(json.loads(json.dumps(SPACE_DOC))))
        assert lmap.codomain is lmap.domain
        assert validations == [3]

    @pytest.mark.parametrize("dist", [
        [[0, -1, 2], [1, 0, 1], [2, 1, 0]],
        [[0, 1, 2], [0.5, 0, 1], [2, 1, 0]],
    ], ids=["negative", "asymmetric"])
    def test_codomain_that_snaps_to_the_domain_is_validated(self, dist):
        # Both matrices would store as the domain's; the raw one is invalid.
        bad = {"labels": ["a", "b", "c"], "dist": dist}
        with pytest.raises(InvalidMetricError):
            formats.map_from_doc(self.map_doc(bad))

    def test_differing_codomain_is_validated(self, validations):
        lmap = formats.map_from_doc(self.map_doc(WIDER_DOC))
        assert lmap.codomain is formats.space_from_doc(WIDER_DOC)
        assert lmap.codomain != lmap.domain
        assert lmap.constant == 2.0
        assert validations == [3, 3]

    def test_a_codomain_that_the_store_rewrites_is_validated_once(self, validations):
        # The stored matrix has a zero diagonal; raw input is compared with
        # raw input, so the codomain still matches the domain.
        doc = {"labels": ["a", "b"], "dist": [[1e-13, 1], [1, 0]]}
        lmap = formats.map_from_doc({"domain": doc, "codomain": json.loads(json.dumps(doc)),
                                     "table": {"a": "a", "b": "b"}})
        assert lmap.codomain is lmap.domain
        assert lmap.domain.dist[0, 0] == 0.0
        assert formats.space_from_doc(doc) is lmap.domain
        assert validations == [2]

    def test_the_stored_matrix_does_not_stand_in_for_a_rewritten_raw_one(self, validations):
        # A space built from a clean document is not the answer for a
        # document whose raw entries would store the same.
        clean = formats.space_from_doc(SPACE_DOC)
        banded = {"labels": SPACE_DOC["labels"],
                  "dist": [[1e-13, 1, 2], [1, 0, 1], [2, 1, 0]]}
        assert formats.space_from_doc(banded) is not clean
        assert validations == [3, 3]

    def test_only_the_last_space_is_kept(self, validations):
        first = formats.space_from_doc(SPACE_DOC)
        formats.space_from_doc(WIDER_DOC)
        again = formats.space_from_doc(SPACE_DOC)
        assert again == first and again is not first
        assert validations == [3, 3, 3]

    def test_an_invalid_space_is_never_kept(self, validations):
        bad = {"labels": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
        for _ in range(2):
            with pytest.raises(InvalidMetricError):
                formats.space_from_doc(bad)
        assert validations == [3, 3]

    def test_invalid_codomain_is_rejected(self):
        bad = {"labels": ["a", "b", "c"], "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
        with pytest.raises(InvalidMetricError, match=r"triangle at \(0, 2, 1\)"):
            formats.map_from_doc(self.map_doc(bad))

    def test_measure_on_the_implied_space_reuses_it(self, validations):
        space = formats.space_from_doc(SPACE_DOC)
        m = formats.measure_from_doc({"space": SPACE_DOC, "weights": {"a": 1.0}}, space=space)
        assert m.space is space
        assert validations == [3]

    def test_measure_on_another_space_is_validated(self, validations):
        space = formats.space_from_doc(SPACE_DOC)
        m = formats.measure_from_doc({"space": WIDER_DOC, "weights": {"a": 1.0}}, space=space)
        assert m.space is formats.space_from_doc(WIDER_DOC)
        assert m.space != space
        assert validations == [3, 3]


class TestTableDocs:
    def make_mech(self):
        s = grid_space(3)
        return tabulate(ExpMechParams(base=uniform_measure(s), beta=1.0,
                                      query=identity_map(s)))

    def test_round_trip_with_spaces(self):
        mech = self.make_mech()
        doc = formats.table_to_doc(mech)
        s = grid_space(3)
        again = formats.table_from_doc(doc, input_space=s, output_space=s)
        assert np.allclose(again.probs, mech.probs)

    def test_space_label_mismatch(self):
        doc = formats.table_to_doc(self.make_mech())
        with pytest.raises(SchemaError, match="labels"):
            formats.table_from_doc(doc, input_space=discrete_space(3))

    def test_output_space_label_mismatch(self):
        doc = formats.table_to_doc(self.make_mech())
        with pytest.raises(SchemaError, match="outputs do not match"):
            formats.table_from_doc(doc, input_space=grid_space(3), output_space=discrete_space(3))

    def test_rows_must_be_an_object(self):
        doc = formats.table_to_doc(self.make_mech())
        doc["rows"] = list(doc["rows"].values())
        with pytest.raises(SchemaError, match="rows must be an object"):
            formats.table_from_doc(doc, grid_space(3))

    def test_rows_of_the_wrong_width(self):
        doc = {"inputs": ["0", "1"], "outputs": ["0", "1", "2"],
               "rows": {"0": [0.5, 0.5], "1": [0.5, 0.5]}}
        with pytest.raises(SchemaError, match="one probability per output label"):
            formats.table_from_doc(doc, grid_space(2))

    def test_missing_row(self):
        doc = formats.table_to_doc(self.make_mech())
        del doc["rows"]["0.5"]
        with pytest.raises(SchemaError, match="no row"):
            formats.table_from_doc(doc, grid_space(3))

    def test_unknown_row(self):
        doc = formats.table_to_doc(self.make_mech())
        doc["rows"]["9"] = [1.0, 0.0, 0.0]
        with pytest.raises(SchemaError, match="unknown input"):
            formats.table_from_doc(doc, grid_space(3))

    @pytest.mark.parametrize("key", ["inputs", "outputs"])
    def test_empty_label_lists(self, key):
        doc = {"inputs": ["0"], "outputs": ["0"], "rows": {"0": [1.0]}, key: []}
        with pytest.raises(SchemaError, match=f"table {key} must be a nonempty list"):
            formats.table_from_doc(doc, grid_space(1))

    def test_ragged_rows(self):
        doc = formats.table_to_doc(self.make_mech())
        doc["rows"]["0"] = [1.0]
        with pytest.raises(SchemaError):
            formats.table_from_doc(doc, grid_space(3))

    def test_bad_row_sums_are_domain_errors(self):
        doc = formats.table_to_doc(self.make_mech())
        doc["rows"]["0"] = [0.9, 0.0, 0.0]
        with pytest.raises(StructuralError, match="sums"):
            formats.table_from_doc(doc, grid_space(3))


class TestHierarchyDocs:
    def test_round_trip(self):
        # No command reads a hierarchy back; the document still holds every
        # level needed to rebuild, and so re-certify, the one written.
        s = grid_space(5)
        _, hier = covering_measure(s)
        doc = formats.hierarchy_to_doc(hier)
        assert doc["L"] == hier.depth
        again = CoverHierarchy(s, [CoverLevel(lv["radius"], tuple(lv["centers"]))
                                   for lv in doc["levels"]])
        assert again.levels == hier.levels


class TestWriterMemory:
    """``dump_doc`` reads a ``*_to_doc`` document's arrays in place: an
    n=600 space or table peaks at about twice its text, where a nested-list
    copy of the matrix would add about as much again."""

    @pytest.mark.parametrize("family", ["planar", "grid"])
    def test_peak_under_two_and_a_half_times_the_text(self, family):
        if family == "planar":
            pts = np.random.default_rng(600).uniform(0.0, 0.7, size=(600, 2))
            diff = pts[:, None, :] - pts[None, :, :]
            space = FiniteMetricSpace([f"p{i}" for i in range(600)],
                                      np.sqrt((diff * diff).sum(axis=2)))
        else:
            space = grid_space(600)
        table = tabulate(ExpMechParams(base=uniform_measure(space), beta=8.0,
                                       query=identity_map(space)))
        for to_doc, obj in ((formats.space_to_doc, space), (formats.table_to_doc, table)):
            tracemalloc.start()
            try:
                text = formats.dump_doc(to_doc(obj))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * len(text), (to_doc.__name__, peak, len(text))
