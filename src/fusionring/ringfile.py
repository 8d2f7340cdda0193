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
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .ring import FusionRing


class RingFormatError(ValueError):
    pass


_FIELDS = {"rank", "duality", "labels", "N"}
_ENTRY_LIMIT = 2 ** 63  # entries are stored as int64


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RingFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def parse_ring(text: str) -> FusionRing:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RingFormatError(
            f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None
    except RecursionError:
        raise RingFormatError("not valid JSON: nested too deeply") from None
    rank, dual, labels = _header(doc)
    # One numpy call reads a well-formed table. Anything else (ragged rows,
    # floats, strings, null, objects, entries >= 2**63: another dtype) takes
    # the walk, which names the first bad entry. JSON booleans would pass as
    # int64 1 and 0, so text holding either token takes the walk too.
    try:
        table = np.array(doc["N"])
    except ValueError:  # ragged rows
        table = None
    if not (table is not None and table.dtype == np.int64 and table.shape == (rank,) * 3
            and table.min() >= 0 and "true" not in text and "false" not in text):
        table = _walk_table(doc["N"], rank)
    return _ring(rank, dual, table, labels)


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
    return json.dumps(ring_to_document(ring), indent=2, sort_keys=True) + "\n"
