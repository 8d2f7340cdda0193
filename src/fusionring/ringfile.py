"""JSON serialization of fusion rings.

A ring document is an object with exactly these fields:

    rank     positive integer
    duality  list of rank indices, the permutation i -> i*
    labels   optional list of rank strings
    N        rank x rank x rank nested lists of non-negative integers below
             2**63, N[i][j][k] = multiplicity of basis element k in the
             product i*j

parse_ring is strict: unknown fields, wrong shapes and wrong value types are
reported with the exact location rather than coerced.

parse_ring reads N's text with a byte scanner (_scan) when the scanner can
read it in full: no backslash in the text and exactly one "N", followed by
":" and "[" across JSON whitespace; a span of digits, brackets, commas and
JSON whitespace whose tokens are exactly those of a rank x rank x rank array
of one-digit numbers; and a header, the text with that span replaced by 0,
that json.loads reads as an object whose N is that int 0 and that _header
accepts. The token count is compared first, in Python ints, so nothing of
size rank**3 is built for a rank the text cannot fill. Any other text,
among them every file with an entry of 10 or more, takes json.loads and
_walk_table, which give every error message. Both paths give the same ring
for every text the scanner accepts.

json_text is the one JSON writer: serialize_ring and the CLI's reports go
through it. Its text is json.dumps(value, indent=2, sort_keys=True), byte
for byte, without json's pure-Python indenting encoder.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .ring import _ENTRY_LIMIT, FusionRing


class RingFormatError(ValueError):
    pass


_FIELDS = {"rank", "duality", "labels", "N"}


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RingFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def parse_ring(text: str) -> FusionRing:
    scanned = _scan(text)
    if scanned is not None:
        return _ring(*scanned)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RingFormatError(
            f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None
    except RecursionError:
        raise RingFormatError("not valid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits()
        raise RingFormatError(f"not valid JSON: {exc}") from None
    return ring_from_document(doc)


_SPACE = b" \t\n\r"  # JSON whitespace
_KEY = re.compile(r'"N"[ \t\n\r]*:[ \t\n\r]*\[')
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")


def _scan(text: str) -> tuple[int, tuple[int, ...], np.ndarray, tuple[str, ...] | None] | None:
    """_ring's arguments for a text whose N the scanner reads in full, else None."""
    key = _KEY.search(text)
    if key is None:
        return None
    start = key.end() - 1
    # N's span ends at the last "]" before the next '"' or "}". When its tokens
    # are the array's (checked below), that "]" closes the span's first "[".
    stop = len(text)
    for char in '"}':
        at = text.find(char, start, stop)
        stop = stop if at < 0 else at
    end = text.rfind("]", start, stop) + 1
    header = text[:start] + "0" + text[end:]
    # The span holds no '"', and a backslash in it fails the token check, so
    # these tests of the header answer for the whole text.
    if "\\" in header or header.count('"N"') != 1:
        return None
    try:
        doc = json.loads(header)
        rank, dual, labels = _header(doc)
    except (ValueError, RecursionError):  # JSONDecodeError and RingFormatError included
        return None
    if type(doc["N"]) is not int:  # the span and what follows read as 0.5 or 0e5
        return None
    # Every number must be one digit: a number of several digits, a leading
    # zero or two digits apart by whitespace leaves "00" in the token kinds,
    # which fails _is_array.
    raw = text[start:end].encode("ascii", "replace")  # a non-ASCII character becomes "?"
    compact = raw.translate(None, _SPACE)
    if not _is_array(compact.translate(_ZERO_DIGITS), rank):
        return None
    values = np.frombuffer(compact.translate(None, b"[],"), np.uint8) - np.int64(48)
    return rank, dual, values.reshape(rank, rank, rank), labels


def _is_array(kinds: bytes, rank: int) -> bool:
    """Whether kinds are the token kinds of a rank x rank x rank array in JSON, each number "0".

    The token count is compared first, in Python ints, so that no stream of
    size rank**3 is built for a rank the text cannot fill.
    """
    if len(kinds) != 2 * rank ** 3 + 2 * rank ** 2 + 2 * rank + 1:  # numbers, commas, brackets
        return False
    stream = b"0"
    for _ in range(3):
        stream = b"[" + b",".join([stream] * rank) + b"]"
    return kinds == stream


def ring_from_document(doc: Any) -> FusionRing:
    rank, dual, labels = _header(doc)
    return _ring(rank, dual, _walk_table(doc["N"], rank), labels)


def _header(doc: Any) -> tuple[int, tuple[int, ...], tuple[str, ...] | None]:
    """rank, duality and labels of a document whose fields are all checked but N's entries."""
    if not isinstance(doc, dict):
        raise RingFormatError("top level must be a JSON object")
    unknown = sorted(set(doc) - _FIELDS)
    if unknown:
        raise RingFormatError(f"unknown field(s): {', '.join(unknown)}")
    for required in ("rank", "duality", "N"):
        if required not in doc:
            raise RingFormatError(f"missing field {required!r}")

    rank = _require_int(doc["rank"], "rank")
    if rank < 1:
        raise RingFormatError(f"rank must be positive, got {rank}")

    duality = doc["duality"]
    if not isinstance(duality, list) or len(duality) != rank:
        raise RingFormatError(f"duality must be a list of {rank} indices")
    dual = tuple(_require_int(v, f"duality[{i}]") for i, v in enumerate(duality))

    labels = None
    if doc.get("labels") is not None:
        raw = doc["labels"]
        if not isinstance(raw, list) or len(raw) != rank:
            raise RingFormatError(f"labels must be a list of {rank} strings")
        for i, item in enumerate(raw):
            if not isinstance(item, str):
                raise RingFormatError(f"labels[{i}]: expected a string, got {item!r}")
        labels = tuple(raw)
    return rank, dual, labels


def _walk_table(table: Any, rank: int) -> np.ndarray:
    if not isinstance(table, list) or len(table) != rank:
        raise RingFormatError(f"N must be a {rank}x{rank}x{rank} nested list")
    for i, plane in enumerate(table):
        if not isinstance(plane, list) or len(plane) != rank:
            raise RingFormatError(f"N[{i}] must be a list of {rank} rows")
        for j, row in enumerate(plane):
            if not isinstance(row, list) or len(row) != rank:
                raise RingFormatError(f"N[{i}][{j}] must be a list of {rank} integers")
            if all(type(v) is int for v in row) and 0 <= min(row) and max(row) < _ENTRY_LIMIT:
                continue
            # a row that fails the check is walked entry by entry for the location
            for k, value in enumerate(row):
                entry = _require_int(value, f"N[{i}][{j}][{k}]")
                if entry < 0:
                    raise RingFormatError(f"N[{i}][{j}][{k}] is negative: {entry}")
                if entry >= _ENTRY_LIMIT:
                    raise RingFormatError(
                        f"N[{i}][{j}][{k}] is too large: {entry} (at most 2**63 - 1)")
    return np.array(table, dtype=np.int64)


def _ring(rank: int, dual: tuple[int, ...], table: np.ndarray,
          labels: tuple[str, ...] | None) -> FusionRing:
    try:
        return FusionRing(rank, dual, table, labels)
    except ValueError as exc:
        raise RingFormatError(str(exc)) from None


def ring_to_document(ring: FusionRing) -> dict:
    doc: dict[str, Any] = {
        "rank": ring.rank,
        "duality": list(ring.dual),
        "N": ring.n.tolist(),
    }
    if ring.labels is not None:
        doc["labels"] = list(ring.labels)
    return doc


def serialize_ring(ring: FusionRing) -> str:
    return json_text(ring_to_document(ring)) + "\n"


def json_text(value: Any) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte: the one JSON writer.

    value is built from dicts with str keys, lists, tuples, str, int, float,
    bool and None; anything else raises TypeError, as json does. json writes
    an indented text with its pure-Python encoder, one generator step per
    token; here each container is one str.join and a list of ints one join
    over int.__repr__.
    """
    return _json_text(value, "\n")


_INT = {int}


def _json_text(value: Any, newline: str) -> str:
    """value's text, each line it adds opened by newline: a line break and the indent."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if {*map(type, value)} == _INT:  # exact ints only: a bool would print as 1
            items = map(int.__repr__, value)
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json_text(item, inner)
            for key, item in sorted(value.items())]) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
