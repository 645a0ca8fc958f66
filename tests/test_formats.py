import json
import math

import numpy as np
import pytest

from conftest import jsonable
from metricdp import (
    CoverHierarchy,
    CoverLevel,
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

    def test_write_doc_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        formats.write_doc(str(path), {"x": [1, 2]})
        assert json.loads(path.read_text()) == {"x": [1, 2]}


class TestParsedDocumentMemo:
    """A file's text is parsed once per process; every load gets its own
    copy of the parse, and only an identical text hits."""

    def test_a_path_loaded_twice_is_parsed_once(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"k": [1, {"j": 2.5}], "s": "t"}')
        first = formats.load_doc(str(path))
        second = formats.load_doc(str(path))
        info = formats._parsed.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first == second == {"k": [1, {"j": 2.5}], "s": "t"}
        assert first is not second and first["k"] is not second["k"]
        first["k"][1]["j"] = 0
        first["k"].append(3)
        del first["s"]
        assert formats.load_doc(str(path)) == second == {"k": [1, {"j": 2.5}], "s": "t"}

    def test_a_rewrite_of_the_same_length_is_parsed_again(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"k": 1}')
        assert formats.load_doc(str(path)) == {"k": 1}
        path.write_text('{"k": 2}')
        assert formats.load_doc(str(path)) == {"k": 2}
        assert formats._parsed.cache_info().misses == 2

    def test_key_order_and_float_bits_survive_the_copy(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"b": [-0.0, 5e-324, 0.1], "a": 12345678901234567890}')
        for _ in range(2):
            doc = formats.load_doc(str(path))
            assert list(doc) == ["b", "a"]
            assert np.array(doc["b"]).tobytes() == np.array([-0.0, 5e-324, 0.1]).tobytes()
            assert doc["a"] == 12345678901234567890

    @pytest.mark.parametrize("text,match", [("{nope", "not valid JSON"),
                                            ('{"k": NaN}', "NaN"),
                                            ("[1, 2]", "got list")])
    def test_a_malformed_file_raises_the_same_error_every_time(self, tmp_path, text, match):
        path = tmp_path / "x.json"
        path.write_text(text)
        errors = []
        for _ in range(3):
            with pytest.raises(SchemaError, match=match) as exc:
                formats.load_doc(str(path))
            errors.append(str(exc.value))
        assert errors == [errors[0]] * 3

    @pytest.mark.parametrize("extra,kept", [(0, 1), (1, 0)])
    def test_only_texts_up_to_the_cap_are_kept(self, tmp_path, extra, kept):
        path = tmp_path / "x.json"
        frame = '{"k": ""}'
        pad = "x" * (formats._MEMO_CHARS - len(frame) + extra)
        path.write_text('{"k": "%s"}' % pad)
        for _ in range(2):
            assert formats.load_doc(str(path)) == {"k": pad}
        info = formats._parsed.cache_info()
        assert info.currsize == kept
        assert (info.misses, info.hits) == ((1, 1) if kept else (0, 0))

    def test_the_memo_holds_a_fixed_number_of_texts(self, tmp_path):
        for i in range(formats._MEMO_DOCS + 3):
            path = tmp_path / f"x{i}.json"
            path.write_text('{"k": %d}' % i)
            assert formats.load_doc(str(path)) == {"k": i}
        assert formats._parsed.cache_info().currsize == formats._MEMO_DOCS


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
