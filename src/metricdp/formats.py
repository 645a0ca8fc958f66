"""JSON interchange for spaces, measures, maps, tables, and hierarchies.

One rule everywhere: a string where a document is expected is a path to a
JSON file; a dict is the document itself.  Documents produced by the
command-line tool are wrapped in a report envelope ({"command", "version",
"params", "result"}); every loader unwraps that transparently, so a report
written by one command can feed the next.

Malformed documents (wrong JSON shape, missing keys, a number too large
for a double, a table label list with a repeat) raise SchemaError.
Well-formed documents describing invalid objects (a matrix violating the
triangle inequality, rows that do not sum to 1) raise the domain errors of
the module that owns the object.

``space_from_doc`` is the one loader of space documents.  A generator
document ({"kind": "grid", "n": 5}) is a call to ``grid_space`` or
``discrete_space``, which validates its matrix as every space does.

A thread keeps what a file's text alone builds.  A loader given a path
returns the object it built from the identical text before, in the same
thread, if each other file that build read still holds the text it read.
A load given a space is not kept; a measure naming its own space ignores
a supplied one, so such a load may get what a path-only load kept.  The
command-line tool files each measure and table it writes with ``--out``
under the text written, so a chain of commands in one thread parses only
its space and its map, and validates each distinct explicit space once; a
generator document is validated each time it is read.  Nothing keys on a
path or a file's time stamps, and nothing is shared between threads.  A
hit returns the object built before: loaded objects may be shared, and
must not be mutated.

``dump_doc`` writes the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` with infinities spelled as strings and a float64 array
as its ``tolist``.  It formats each distinct double once per block of
array rows, not once per occurrence, so a symmetric matrix or a table of
a few values is written faster.  The ``*_to_doc`` documents hold the
objects' own read-only arrays, which must not be mutated.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import threading

import numpy as np

from .covering import CoverHierarchy
from .errors import SchemaError, UnknownLabelError
from .measures import DiscreteMeasure
from .mechanisms import MechanismTable
from .spaces import _BLOCK_CELLS, FiniteMetricSpace, LipschitzMap, discrete_space, grid_space

# JSON has no infinity literal; reports spell it as this string.
INFINITY = "infinity"

# Longest file text (in characters) whose object a thread keeps, and how
# many objects it keeps.  A CLI chain needs the four newest: the space and
# the map it loads, and the measure and the table rows it wrote.
_MEMO_CHARS = 1 << 20
_MEMO_DOCS = 4


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
        try:
            value = float(v)
        except OverflowError:  # an integer past the double range
            value = math.inf
        # json reads a literal past the double range, such as 1e400, as inf.
        if math.isinf(value):
            raise SchemaError(f"a number too large for a double ({INFINITY!r} spells an infinity)")
        return value
    raise SchemaError(f"expected a number or {INFINITY!r}, got {v!r}")


class _Memo(threading.local):
    """A thread's memo: ``kept``, the objects built from file texts, oldest
    first, (loader, text) -> (the other files the build read, path -> text;
    the object); ``frames``, the builds under way, innermost last, each with
    the files it read, path -> text; and ``space``, the explicit space built
    last with the raw matrix it was built from, or None where that equals
    its stored one.  A build reads a file once, and sees the text an outer
    build read."""

    def __init__(self):
        self.kept = {}
        self.frames = []
        self.space = None


_memo = _Memo()


def _read(path: str) -> str:
    frames = _memo.frames
    text = next((files[path] for files in frames if path in files), None)
    if text is None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {path}: {exc}") from exc
        except ValueError as exc:  # not UTF-8
            raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if frames:
        frames[-1][path] = text
    return text


def _parse(path: str, text: str):
    try:
        # decode_value refuses the NaN and Infinity json would accept.
        return json.loads(text, parse_constant=decode_value)
    # Bad JSON, an int past Python's digit limit, or nesting past the
    # recursion limit.
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def load_doc(source) -> dict:
    """Resolve a path-or-dict into a bare document, unwrapping any report
    envelope so reports are directly reusable as inputs.  A file is read
    and parsed on every call."""
    doc = _parse(source, _read(source)) if isinstance(source, str) else source
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    while "result" in doc and "command" in doc:
        doc = doc["result"]
        if not isinstance(doc, dict):
            raise SchemaError("report envelope holds a non-object result")
    return doc


def _kept(load):
    """``load``, which given a path returns the object an earlier call in
    this thread built from the same text with no spaces supplied, if each
    other file that build read still holds the text it read.  It keeps what
    it builds from a path alone and texts of at most ``_MEMO_CHARS``
    characters, and ``loader.keep(text, obj)`` files an object built
    elsewhere, such as the one a report was just written from, as if it had
    built it from ``text``."""

    @functools.wraps(load)
    def loader(source, *args, **kwargs):
        if not isinstance(source, str):
            return load(source, *args, **kwargs)
        text = _read(source)
        hit = _memo.kept.get((load, text))
        if hit and all(_read(path) == other for path, other in hit[0].items()):
            return hit[1]
        _memo.frames.append({source: text})
        try:
            obj = load(source, *args, **kwargs)
        finally:
            files = _memo.frames.pop()
            if _memo.frames:
                _memo.frames[-1].update(files)
        del files[source]
        if not (args or kwargs) and all(len(t) <= _MEMO_CHARS for t in (text, *files.values())):
            _file((load, text), (files, obj))
        return obj

    def keep(text: str, obj) -> None:
        """File ``obj`` as the object ``loader`` builds from a file holding
        ``text`` that names no other file."""
        if len(text) <= _MEMO_CHARS:
            _file((load, text), ({}, obj))

    loader.keep = keep  # functools.wraps copies it to a wrapper
    return loader


def _file(key, entry) -> None:
    """Keep ``entry`` under ``key``, dropping the oldest past ``_MEMO_DOCS``."""
    _memo.kept[key] = entry
    if len(_memo.kept) > _MEMO_DOCS:
        del _memo.kept[next(iter(_memo.kept))]


_CONTAINERS = (dict, list, tuple, np.ndarray)

# Float64 rows are formatted a block of at most ``_BLOCK_CELLS`` cells at
# a time, each block judged from rows holding at most ``_SAMPLE`` cells.
_SAMPLE = _BLOCK_CELLS >> 5
_repr = float.__repr__  # what formats each distinct double; tests count its calls


@functools.lru_cache(maxsize=None)
def _encoder(depth: int) -> json.JSONEncoder:
    """json's C encoder (``indent`` is None), writing between items the
    newline and padding that ``indent=2`` writes at ``depth``."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "),
                            sort_keys=True, allow_nan=False)


def _scalar(v):
    """``v`` as the encoder takes it: a numpy scalar as a Python one, an
    infinity as its string; a NaN is left for the encoder to refuse."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and math.isinf(v):
        return encode_value(v)
    return v


def _flat(obj, depth: int) -> str:
    """The ``indent=2`` text of a scalar or a container of scalars, in one
    encoder call; infinities and numpy scalars make that call raise and
    are encoded again through ``_scalar``, where a NaN still raises."""
    encoder = _encoder(depth + 1)
    try:
        text = encoder.encode(obj)
    except (TypeError, ValueError):
        if isinstance(obj, dict):
            obj = {k: _scalar(v) for k, v in obj.items()}
        else:
            obj = list(map(_scalar, obj)) if isinstance(obj, (list, tuple)) else _scalar(obj)
        text = encoder.encode(obj)
    if not (isinstance(obj, (dict, list, tuple)) and obj):
        return text  # a scalar or an empty container stays on one line
    pad = "\n" + "  " * (depth + 1)
    return text[0] + pad + text[1:-1] + pad[:-2] + text[-1]


def _write(obj, depth: int, out: list, rows: list) -> None:
    """Append the ``indent=2`` text of ``obj``, nested ``depth`` deep, to
    ``out``.  A nonempty 1-d float64 array (a 2-d one is its rows) gets a
    slot in ``out``, and ``(slot, row, depth)`` goes on ``rows`` for
    ``_fill`` to format.  Any other scalar, or container holding only
    scalars, is written by ``_flat``.  The byte reference is
    ``tests/conftest.py::dump_doc_reference``."""
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim == 0 or not obj.size:
            obj = obj.tolist()
        elif obj.ndim == 1:
            rows.append((len(out), obj.view(np.ndarray), depth))
            out.append(None)
            return
        else:
            obj = list(obj.view(np.ndarray))
    if isinstance(obj, dict):
        if not all(type(k) is str for k in obj):
            obj = {str(k): v for k, v in obj.items()}
        items = obj.values()
    else:
        items = obj if isinstance(obj, (list, tuple)) else ()
    if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items))):
        out.append(_flat(obj, depth))
        return
    pad = "\n" + "  " * (depth + 1)
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            out.append(("," if i else "") + pad + json.dumps(key) + ": ")
            _write(obj[key], depth + 1, out, rows)
        out.append(pad[:-2] + "}")
    else:
        out.append("[")
        for i, item in enumerate(obj):
            out.append(("," if i else "") + pad)
            _write(item, depth + 1, out, rows)
        out.append(pad[:-2] + "]")


def _bits(block) -> np.ndarray:
    """The int64 bit patterns of ``block``'s float64 rows, in order."""
    return np.concatenate([row for _, row, _ in block]).view(np.int64)


def _fill(rows: list, out: list) -> None:
    """Write the text of each float64 row ``_write`` queued into its slot
    in ``out``, a block of rows of at most ``_BLOCK_CELLS`` cells (or one
    longer row) at a time.  A block whose sampled rows (all of them in a
    block of at most ``_SAMPLE`` cells, else rows at an even stride) are
    at most 3/4 distinct doubles goes to ``_join``; any other block is
    written by ``_flat``, row by row.  Both give the same bytes."""
    start, cells = 0, 0
    for end, (_, row, _) in enumerate(rows):
        if cells and cells + len(row) > _BLOCK_CELLS:
            _fill_block(rows[start:end], cells, out)
            start, cells = end, 0
        cells += len(row)
    if cells:
        _fill_block(rows[start:], cells, out)


def _fill_block(block: list, cells: int, out: list) -> None:
    stride = -(-cells // _SAMPLE)
    bits = _bits(block[::stride])
    seen = np.sort(bits)
    if 4 * (1 + np.count_nonzero(seen[1:] != seen[:-1])) <= 3 * len(seen):
        _join(block, bits if stride == 1 else _bits(block), out)
        return
    for slot, row, depth in block:
        out[slot] = _flat(row.tolist(), depth)


def _join(block: list, bits: np.ndarray, out: list) -> None:
    """Write ``block``'s rows, whose cells have the bit patterns ``bits``,
    formatting each distinct pattern once: ``float.__repr__`` (through
    ``_repr``), then the strings of ``encode_value`` for the infinities.
    A NaN raises ValueError, as json's encoder does."""
    distinct, where = np.unique(bits, return_inverse=True)
    values = distinct.view(np.float64)
    if np.isnan(values).any():
        raise ValueError("Out of range float values are not JSON compliant")
    texts = np.array(list(map(_repr, values.tolist())), dtype=object)
    for i in np.flatnonzero(np.isinf(values)):
        texts[i] = json.dumps(encode_value(values[i]))
    texts = texts[where].tolist()
    pos = 0
    for slot, row, depth in block:
        pad = "\n" + "  " * (depth + 1)
        out[slot] = "[" + pad + ("," + pad).join(texts[pos:pos + len(row)]) + pad[:-2] + "]"
        pos += len(row)


def dump_doc(doc: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, one scalar
    per line, ASCII escapes, infinities as ``"infinity"`` strings and a
    trailing newline, written through json's C encoder one container of
    scalars at a time.  Float64 rows are formatted a block at a time,
    where a block holding repeats formats each distinct double once; the
    bytes are the same either way.  The byte reference is
    ``json.dumps(..., indent=2)`` in
    ``tests/conftest.py::dump_doc_reference``.  A NaN raises ValueError
    instead of producing invalid JSON."""
    out, rows = [], []
    _write(doc, 0, out, rows)
    _fill(rows, out)
    out.append("\n")
    return "".join(out)


def write_doc(path: str, doc: dict) -> str:
    """Atomic write: a new file in the target directory, then rename.  The
    file is created with mode 0666 less the umask, as a plain open is.
    Returns the text written."""
    text = dump_doc(doc)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return text


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise SchemaError(f"{context} document is missing {key!r}")
    return doc[key]


def _number_matrix(rows, what: str) -> np.ndarray:
    """A 2-d float matrix of numbers; unlike ``np.array``, refuses strings
    and booleans, as ``decode_value`` does."""
    try:
        mat = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{what} is not a numeric matrix: {exc}") from exc
    if mat.ndim != 2:
        raise SchemaError(f"{what} must be a 2-d matrix, got {mat.ndim} dimension(s)")
    kinds = set(map(type, itertools.chain.from_iterable(rows)))
    if any(issubclass(k, bool) or not issubclass(k, (int, float)) for k in kinds):
        raise SchemaError(f"{what} must hold only numbers")
    if np.isinf(mat).any():  # json reads a literal such as 1e400 as inf
        raise SchemaError(f"{what} holds a number too large for a double")
    return mat


@_kept
def space_from_doc(source) -> FiniteMetricSpace:
    """The space a document describes; a generator form {"kind": "grid"|
    "discrete", "n": k} is built and validated on every call.  An explicit
    document with the labels and raw matrix of the last explicit space this
    thread built returns that space itself, and any other is validated."""
    doc = load_doc(source)
    if "kind" in doc:
        kind = doc["kind"]
        n = _require(doc, "n", "space generator")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise SchemaError(f"generator size must be a positive integer, got {n!r}")
        if kind == "grid":
            return grid_space(n)
        if kind == "discrete":
            return discrete_space(n)
        raise SchemaError(f"unknown space generator kind {kind!r}")
    labels = _require(doc, "labels", "space")
    dist = _require(doc, "dist", "space")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("space labels must be a list of strings")
    mat = _number_matrix(dist, "space dist")
    if _memo.space is not None:
        space, raw = _memo.space
        if labels == space.labels and np.array_equal(mat, space.dist if raw is None else raw):
            return space
    space = FiniteMetricSpace(labels, mat)
    _memo.space = space, None if np.array_equal(mat, space.dist) else mat
    return space


def space_to_doc(space: FiniteMetricSpace) -> dict:
    """The labels and, as ``"dist"``, the space's own read-only matrix."""
    return {"labels": list(space.labels), "dist": space.dist}


@_kept
def measure_from_doc(source, space: FiniteMetricSpace | None = None) -> DiscreteMeasure:
    """Load a measure.  The document's own ``space`` wins; ``space`` is used
    only for a document that names none (the CLI passes a map's codomain),
    and with neither it is rejected.  Labels ``weights`` omits weigh 0."""
    doc = load_doc(source)
    if "space" not in doc and space is None:
        raise SchemaError("measure document names no space and none is implied")
    weights = _require(doc, "weights", "measure")
    if not isinstance(weights, dict):
        raise SchemaError("measure weights must be an object mapping label to number")
    if "space" in doc:
        space = space_from_doc(doc["space"])
    weights = {k: decode_value(v) for k, v in weights.items()}
    unknown = set(weights) - set(space.labels)
    if unknown:
        raise UnknownLabelError(f"weights name labels outside the space: {sorted(map(repr, unknown))}")
    return DiscreteMeasure(space, [weights.get(lab, 0.0) for lab in space.labels])


def measure_to_doc(measure: DiscreteMeasure) -> dict:
    """The ``space_to_doc`` of its space and the weight of each label."""
    return {"space": space_to_doc(measure.space), "weights": measure.as_dict()}


@_kept
def map_from_doc(source) -> LipschitzMap:
    doc = load_doc(source)
    domain = space_from_doc(_require(doc, "domain", "map"))
    codomain = space_from_doc(_require(doc, "codomain", "map"))
    table = _require(doc, "table", "map")
    if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
        raise SchemaError("map table must be an object mapping input label to output label")
    declared = doc.get("lipschitz_c")
    if declared is not None:
        declared = decode_value(declared)
    return LipschitzMap(domain, codomain, table, declared_constant=declared)


@_kept
def _table_rows(source) -> tuple:
    """The input labels, output labels and row matrix of a table document."""
    doc = load_doc(source)
    inputs = _require(doc, "inputs", "table")
    outputs = _require(doc, "outputs", "table")
    rows = _require(doc, "rows", "table")
    for name, val in (("inputs", inputs), ("outputs", outputs)):
        if not isinstance(val, list) or not val or not all(isinstance(x, str) for x in val):
            raise SchemaError(f"table {name} must be a nonempty list of strings")
        if len(set(val)) != len(val):
            raise SchemaError(f"table {name} must not repeat a label")
    if not isinstance(rows, dict):
        raise SchemaError("table rows must be an object mapping input label to a row")
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
    return inputs, outputs, mat


def table_from_doc(
    source,
    input_space: FiniteMetricSpace,
    output_space: FiniteMetricSpace | None = None,
) -> MechanismTable:
    """Load a mechanism table.  The file stores only label lists, so the
    caller supplies the input space (privacy audits read its distances)
    and, where its distances matter, the output space; each must list the
    file's labels in order.  An omitted output space is an all-ones
    placeholder over the file's output labels.  The rows are kept, and
    bound to the spaces supplied on every call."""
    inputs, outputs, mat = _table_rows(source)
    if list(input_space.labels) != inputs:
        raise SchemaError("table inputs do not match the supplied input space's labels")
    if output_space is None:
        output_space = FiniteMetricSpace(outputs, 1.0 - np.eye(len(outputs)))
    elif list(output_space.labels) != outputs:
        raise SchemaError("table outputs do not match the supplied output space's labels")
    return MechanismTable(input_space, output_space, mat)


def table_to_doc(mech: MechanismTable) -> dict:
    """The labels and each input's row, a read-only view of ``mech.probs``."""
    return {
        "inputs": list(mech.input_space.labels),
        "outputs": list(mech.output_space.labels),
        "rows": dict(zip(mech.input_space.labels, mech.probs)),
    }


def hierarchy_to_doc(hier: CoverHierarchy) -> dict:
    return {
        "L": hier.depth,
        "levels": [
            {"radius": float(lev.radius), "centers": list(lev.centers)}
            for lev in hier.levels
        ],
    }
