"""JSON interchange for spaces, measures, maps, tables, and hierarchies.

One rule everywhere: a string where a document is expected is a path to a
JSON file; a dict is the document itself.  Documents produced by the
command-line tool are wrapped in a report envelope ({"command", "version",
"params", "result"}); every loader unwraps that transparently, so a report
written by one command can feed the next.

Malformed documents (wrong JSON shape, missing keys) raise SchemaError.
Well-formed documents describing invalid objects (a matrix violating the
triangle inequality, rows that do not sum to 1) raise the domain errors of
the module that owns the object.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import tempfile

import numpy as np

from .covering import CoverHierarchy
from .errors import SchemaError, StructuralError
from .measures import DiscreteMeasure
from .mechanisms import MechanismTable
from .spaces import FiniteMetricSpace, LipschitzMap, discrete_space, grid_space

# JSON has no infinity literal; reports spell it as this string.
INFINITY = "infinity"


def encode_value(v: float):
    """Float for JSON, with inf spelled as a string."""
    v = float(v)
    if math.isinf(v):
        return INFINITY if v > 0 else "-" + INFINITY
    return v


def decode_value(v) -> float:
    """Inverse of encode_value."""
    if v == INFINITY:
        return math.inf
    if v == "-" + INFINITY:
        return -math.inf
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    raise SchemaError(f"expected a number or {INFINITY!r}, got {v!r}")


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and infinities to plain
    JSON-serializable Python values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return encode_value(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def load_doc(source) -> dict:
    """Resolve a path-or-dict into a bare document, unwrapping any report
    envelope so reports are directly reusable as inputs."""
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                # decode_value refuses the NaN and Infinity json would accept.
                doc = json.load(fh, parse_constant=decode_value)
        except OSError as exc:
            raise SchemaError(f"cannot read {source}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{source} is not valid JSON: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    while "result" in doc and "command" in doc:
        doc = doc["result"]
        if not isinstance(doc, dict):
            raise SchemaError("report envelope holds a non-object result")
    return doc


_CONTAINERS = (dict, list, tuple, np.ndarray)


@functools.lru_cache(maxsize=None)
def _encoder(depth: int) -> json.JSONEncoder:
    """json's C encoder (``indent`` is None), writing between items the
    newline and padding that ``indent=2`` writes at ``depth``."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "),
                            sort_keys=True, allow_nan=False)


def _write(obj, depth: int, out: list) -> None:
    """Append the ``indent=2`` text of ``obj``, nested ``depth`` deep, to
    ``out``.  A scalar, or a container holding only scalars, takes one
    encoder call; infinities and numpy scalars make that call raise and
    are encoded again through ``jsonable``, where a NaN still raises."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not all(type(k) is str for k in obj):
            obj = {str(k): v for k, v in obj.items()}
        items = obj.values()
    else:
        items = obj if isinstance(obj, (list, tuple)) else ()
    pad = "\n" + "  " * (depth + 1)
    if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items))):
        encoder = _encoder(depth + 1)
        try:
            text = encoder.encode(obj)
        except (TypeError, ValueError):
            text = encoder.encode(jsonable(obj))
        # Scalars and empty containers stay on one line.
        out.append(text[0] + pad + text[1:-1] + pad[:-2] + text[-1] if items else text)
        return
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            out.append(("," if i else "") + pad + json.dumps(key) + ": ")
            _write(obj[key], depth + 1, out)
        out.append(pad[:-2] + "}")
    else:
        out.append("[")
        for i, item in enumerate(obj):
            out.append(("," if i else "") + pad)
            _write(item, depth + 1, out)
        out.append(pad[:-2] + "]")


def dump_doc(doc: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, one scalar
    per line, ASCII escapes, infinities as ``"infinity"`` strings and a
    trailing newline.  The bytes are those of ``json.dumps(jsonable(doc),
    indent=2, sort_keys=True, allow_nan=False)``, written through json's C
    encoder one container of scalars at a time.  A NaN raises ValueError
    instead of producing invalid JSON."""
    out = []
    _write(doc, 0, out)
    out.append("\n")
    return "".join(out)


def write_doc(path: str, doc: dict) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    text = dump_doc(doc)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise SchemaError(f"{context} document is missing {key!r}")
    return doc[key]


def _number_matrix(rows, what: str) -> np.ndarray:
    """A 2-d float matrix of numbers; unlike ``np.array``, refuses strings
    and booleans, as ``decode_value`` does."""
    try:
        mat = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} is not a numeric matrix: {exc}") from exc
    if mat.ndim != 2:
        raise SchemaError(f"{what} must be a 2-d matrix, got {mat.ndim} dimension(s)")
    kinds = set(map(type, itertools.chain.from_iterable(rows)))
    if any(issubclass(k, bool) or not issubclass(k, (int, float)) for k in kinds):
        raise SchemaError(f"{what} must hold only numbers")
    return mat


def space_components(source) -> tuple:
    """(labels, dist matrix) from a space document, expanding the generator
    forms {"kind": "grid"|"discrete", "n": k}.  Returns raw parts so callers
    can run the full axiom validator before construction."""
    doc = load_doc(source)
    if "kind" in doc:
        kind = doc["kind"]
        n = _require(doc, "n", "space generator")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise SchemaError(f"generator size must be a positive integer, got {n!r}")
        if kind == "grid":
            s = grid_space(n)
        elif kind == "discrete":
            s = discrete_space(n)
        else:
            raise SchemaError(f"unknown space generator kind {kind!r}")
        return list(s.labels), np.array(s.dist)
    labels = _require(doc, "labels", "space")
    dist = _require(doc, "dist", "space")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("space labels must be a list of strings")
    mat = _number_matrix(dist, "space dist")
    if len(labels) != mat.shape[0]:
        raise StructuralError(
            f"{len(labels)} labels but a {mat.shape[0]}x{mat.shape[1]} matrix"
        )
    return labels, mat


def space_from_doc(source, known: FiniteMetricSpace | None = None) -> FiniteMetricSpace:
    """The space a document describes, validated, or ``known`` itself when
    the document describes it (same labels, equal distances), so a command
    validates each space once."""
    labels, mat = space_components(source)
    if known is not None and labels == known.labels and np.array_equal(mat, known.dist):
        return known
    return FiniteMetricSpace(labels, mat)


def space_to_doc(space: FiniteMetricSpace) -> dict:
    return {"labels": list(space.labels), "dist": space.dist.tolist()}


def _labels_space(labels: list) -> FiniteMetricSpace:
    """Placeholder space over ``labels``: the discrete metric, unvalidated,
    for a side of a table whose distances the caller never reads."""
    return FiniteMetricSpace(labels, discrete_space(len(labels)).dist, _trusted=True)


def measure_from_doc(source, space: FiniteMetricSpace | None = None) -> DiscreteMeasure:
    """Load a measure.  The document's own ``space`` wins; ``space`` is
    used only for a document that names none (the CLI passes a map's
    codomain), and with neither the document is rejected."""
    doc = load_doc(source)
    if "space" not in doc and space is None:
        raise SchemaError("measure document names no space and none is implied")
    weights = _require(doc, "weights", "measure")
    if not isinstance(weights, dict):
        raise SchemaError("measure weights must be an object mapping label to number")
    if "space" in doc:
        space = space_from_doc(doc["space"], space)
    return DiscreteMeasure(space, {k: decode_value(v) for k, v in weights.items()})


def measure_to_doc(measure: DiscreteMeasure) -> dict:
    return {"space": space_to_doc(measure.space), "weights": measure.as_dict()}


def map_from_doc(source) -> LipschitzMap:
    doc = load_doc(source)
    domain = space_from_doc(_require(doc, "domain", "map"))
    codomain = space_from_doc(_require(doc, "codomain", "map"), domain)
    table = _require(doc, "table", "map")
    if not isinstance(table, dict):
        raise SchemaError("map table must be an object mapping input label to output label")
    declared = doc.get("lipschitz_c")
    if declared is not None:
        declared = decode_value(declared)
    return LipschitzMap(domain, codomain, table, declared_constant=declared)


def table_from_doc(
    source,
    input_space: FiniteMetricSpace | None = None,
    output_space: FiniteMetricSpace | None = None,
) -> MechanismTable:
    """Load a mechanism table.  The file stores only label lists; callers
    that need real geometry (privacy audits need input distances, utility
    audits output distances) pass the spaces, which must list the same
    labels in the same order.  Omitted spaces default to all-ones
    placeholders over the file's labels."""
    doc = load_doc(source)
    inputs = _require(doc, "inputs", "table")
    outputs = _require(doc, "outputs", "table")
    rows = _require(doc, "rows", "table")
    for name, val in (("inputs", inputs), ("outputs", outputs)):
        if not isinstance(val, list) or not val or not all(isinstance(x, str) for x in val):
            raise SchemaError(f"table {name} must be a nonempty list of strings")
    if not isinstance(rows, dict):
        raise SchemaError("table rows must be an object mapping input label to a row")
    if input_space is None:
        input_space = _labels_space(inputs)
    elif list(input_space.labels) != inputs:
        raise SchemaError("table inputs do not match the supplied input space's labels")
    if output_space is None:
        output_space = _labels_space(outputs)
    elif list(output_space.labels) != outputs:
        raise SchemaError("table outputs do not match the supplied output space's labels")
    missing = [x for x in inputs if x not in rows]
    if missing:
        raise SchemaError(f"table has no row for input {missing[0]!r}")
    known = set(inputs)
    extra = [x for x in rows if x not in known]
    if extra:
        raise SchemaError(f"table has a row for unknown input {extra[0]!r}")
    mat = _number_matrix([rows[x] for x in inputs], "table rows")
    if mat.shape[1] != len(outputs):
        raise SchemaError("table rows must all have one probability per output label")
    return MechanismTable(input_space, output_space, mat)


def table_to_doc(mech: MechanismTable) -> dict:
    return {
        "inputs": list(mech.input_space.labels),
        "outputs": list(mech.output_space.labels),
        "rows": dict(zip(mech.input_space.labels, mech.probs.tolist())),
    }


def hierarchy_to_doc(hier: CoverHierarchy) -> dict:
    return {
        "L": hier.depth,
        "levels": [
            {"radius": float(lev.radius), "centers": list(lev.centers)}
            for lev in hier.levels
        ],
    }
