"""The JSON readers of the input files.

:func:`read_json` reads a config; :func:`read_numeric` reads field and
curve files, whose arrays of numbers it decodes a slice at a time into
float64 arrays, so that a large grid is never all Python floats at once.
"""

from __future__ import annotations

import json
import re

import numpy as np

__all__ = ["read_json", "read_numeric"]


def read_json(path):
    """The JSON document in the file ``path``; ``ValueError`` names the file
    when it cannot be read, is not UTF-8 JSON or nests deeper than the
    decoder can recurse."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path} nests its JSON too deeply to read") from None


#: Text of an array decoded at a time, in bytes: whole rows of about this.
BLOCK = 1 << 16
_WS = rb"[ \t\n\r]*"
_SPACE, _OPEN = re.compile(_WS), re.compile(_WS + rb"\{")
_KEY = re.compile(_WS + rb'"([ !#-\[\]-~]*)"' + _WS + rb":" + _WS)  # no escape
_NEXT = re.compile(_WS + rb"([,}])")
_NUMBER = re.compile(rb"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")
_ROWS = re.compile(rb"\[" + _WS + rb"(\[)?")
# by dimension: the end of an array, and the comma after a whole row
_END = (re.compile(rb"\]"), re.compile(rb"\]" + _WS + rb"\]"))
_CUT = (re.compile(rb","), re.compile(rb"\]" + _WS + rb","))
# the first bytes of every JSON value that is not a number or an array
_NOT_NUMBERS = (b'"', b"t", b"f", b"n", b"{")


def read_numeric(path):
    """The JSON document in the file ``path``, as :func:`read_json` reads
    it, except that each rectangular array of numbers (1-d or 2-d) in an
    object is a float64 array, equal to ``np.asarray(list, dtype=float)``.

    Each array is decoded by ``json`` in slices of whole rows of about
    ``BLOCK`` bytes into one preallocated array, so only one slice is
    Python floats at a time.  A document this does not take (not an
    object, or holding a string, a bool, an escape, a duplicate key, deeper
    nesting or a ragged array) is read by :func:`read_json`, with its
    messages."""
    doc = _numeric_doc(path)
    return read_json(path) if doc is None else doc


def _numeric_doc(path):
    """:func:`read_numeric`'s document, or None when it does not take it;
    the file's bytes are freed on return."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        doc, end = _object(data, _match(_OPEN, data, 0).end() - 1, 1)
        return doc if _SPACE.match(data, end).end() == len(data) else None
    except (OSError, ValueError, OverflowError, RecursionError):
        return None


def _match(pattern, data: bytes, i: int):
    """``pattern`` matched at ``data[i]``; ``ValueError`` when it does not."""
    m = pattern.match(data, i)
    if m is None:
        raise ValueError("not a numeric document")
    return m


def _object(data: bytes, i: int, depth: int) -> tuple:
    """The object at ``data[i] == b"{"`` and the index past it: ASCII keys
    without escapes, each once, and values that are numbers, arrays or,
    ``depth`` levels down, objects."""
    doc, key = {}, _match(_KEY, data, i + 1)
    while True:
        name, i = key[1].decode(), key.end()
        if name in doc:
            raise ValueError(f"duplicate key {name!r}")
        if data[i : i + 1] == b"[":
            doc[name], i = _array(data, i)
        elif data[i : i + 1] == b"{" and depth > 0:
            doc[name], i = _object(data, i, depth - 1)
        else:
            m = _match(_NUMBER, data, i)
            doc[name], i = (float if m[1] or m[2] else int)(m[0]), m.end()
        sep = _match(_NEXT, data, i)
        if sep[1] == b"}":
            return doc, sep.end()
        key = _match(_KEY, data, sep.end())


def _array(data: bytes, i: int) -> tuple:
    """The 1-d or 2-d array of numbers at ``data[i] == b"["`` as a float64
    array, and the index past it, decoded ``BLOCK`` bytes of whole rows at
    a time."""
    dims = 2 if _ROWS.match(data, i)[1] else 1
    stop = _END[dims - 1].search(data, i)
    if stop is None:
        raise ValueError("an array without its end")
    stop = stop.end() - 1  # the closing bracket
    n = data.count(b"[" if dims == 2 else b",", i + 1, stop) + (dims == 1)
    out, pos, row = None, i + 1, 0
    while pos < stop:
        cut = _CUT[dims - 1].search(data, pos + BLOCK, stop)
        cut = stop if cut is None else cut.end() - 1
        part = data[pos:cut]
        if any(c in part for c in _NOT_NUMBERS):
            raise ValueError("not an array of numbers")
        rows = np.asarray(json.loads(b"[" + part + b"]"), dtype=float)
        # n rows of this shape take at least one byte an entry
        if out is None and len(rows) and n * rows[0].size <= stop - i:
            out = np.empty((n,) + rows.shape[1:])
        if out is None or not len(rows) or rows.shape[1:] != out.shape[1:]:
            raise ValueError("not a rectangular array of numbers")
        out[row : row + len(rows)] = rows
        row, pos = row + len(rows), cut + 1
    if row != n:
        raise ValueError("not a rectangular array of numbers")
    return out, stop + 1
