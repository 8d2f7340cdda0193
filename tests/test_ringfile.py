import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring import catalog as cat
from fusionring import ringfile
from fusionring.ringfile import (RingFormatError, parse_ring, ring_from_document,
                                 ring_to_document, serialize_ring)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("ring", [
    cat.ising(), cat.yang_lee(), cat.pointed("S3"), cat.yl_extension("Z3"),
    cat.deligne_product(cat.ising(), cat.pointed("Z2")),
], ids=["ising", "yang-lee", "pointed-s3", "ylext-z3", "deligne"])
def test_round_trip(ring):
    back = parse_ring(serialize_ring(ring))
    assert back.rank == ring.rank
    assert back.dual == ring.dual
    assert back.labels == ring.labels
    assert np.array_equal(back.n, ring.n)


def test_serialized_form_is_stable():
    text = serialize_ring(cat.pointed("Z2"))
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc == {
        "rank": 2,
        "duality": [0, 1],
        "labels": ["e", "g1"],
        "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    }
    # keys come out sorted so the bytes are reproducible
    assert text.index('"N"') < text.index('"duality"') < text.index('"labels"')


def test_labels_omitted_when_absent():
    ring = fr.FusionRing(1, (0,), np.ones((1, 1, 1), dtype=np.int64))
    assert "labels" not in ring_to_document(ring)
    assert parse_ring(serialize_ring(ring)).labels is None


def test_parse_rejects_bad_json_with_location():
    with pytest.raises(RingFormatError, match=r"line 1, column 13"):
        parse_ring('{"rank": 2, }')


def test_parse_rejects_non_object():
    with pytest.raises(RingFormatError, match="JSON object"):
        parse_ring("[1, 2, 3]")


def test_unknown_field():
    with pytest.raises(RingFormatError, match="unknown field"):
        ring_from_document({"rank": 1, "duality": [0], "N": [[[1]]], "spin": 2})


@pytest.mark.parametrize("missing", ["rank", "duality", "N"])
def test_missing_field(missing):
    doc = {"rank": 1, "duality": [0], "N": [[[1]]]}
    del doc[missing]
    with pytest.raises(RingFormatError, match=missing):
        ring_from_document(doc)


def test_rank_validation():
    with pytest.raises(RingFormatError):
        ring_from_document({"rank": 0, "duality": [], "N": []})
    with pytest.raises(RingFormatError):
        ring_from_document({"rank": "two", "duality": [0, 1], "N": [[[1]]]})
    # bool is not an acceptable stand-in for an integer
    with pytest.raises(RingFormatError):
        ring_from_document({"rank": True, "duality": [0], "N": [[[1]]]})


def test_duality_validation():
    with pytest.raises(RingFormatError, match="duality"):
        ring_from_document({"rank": 2, "duality": [0], "N": [[[1, 0], [0, 1]],
                                                             [[0, 1], [1, 0]]]})
    with pytest.raises(RingFormatError, match="duality"):
        ring_from_document({"rank": 1, "duality": [0.0], "N": [[[1]]]})


def test_labels_validation():
    base = {"rank": 1, "duality": [0], "N": [[[1]]]}
    with pytest.raises(RingFormatError, match="labels"):
        ring_from_document({**base, "labels": ["a", "b"]})
    with pytest.raises(RingFormatError, match="labels"):
        ring_from_document({**base, "labels": [7]})


def test_tensor_shape_errors_carry_position():
    doc = {"rank": 2, "duality": [0, 1],
           "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0, 0]]]}
    with pytest.raises(RingFormatError, match=r"N\[1\]\[1\]"):
        ring_from_document(doc)
    doc = {"rank": 2, "duality": [0, 1], "N": [[[1, 0], [0, 1]]]}
    with pytest.raises(RingFormatError, match="N"):
        ring_from_document(doc)


def test_tensor_entry_errors_carry_position():
    doc = {"rank": 1, "duality": [0], "N": [[["x"]]]}
    with pytest.raises(RingFormatError, match=r"N\[0\]\[0\]\[0\]"):
        ring_from_document(doc)


def test_oversized_entry_is_a_format_error():
    doc = ring_to_document(cat.ising())
    doc["N"][2][1][2] = 2 ** 63
    with pytest.raises(RingFormatError, match=r"N\[2\]\[1\]\[2\] is too large"):
        ring_from_document(doc)
    doc["N"][2][1][2] = 2 ** 63 - 1
    assert ring_from_document(doc).n[2, 1, 2] == 2 ** 63 - 1


def test_first_bad_entry_is_reported_in_document_order():
    doc = ring_to_document(cat.ising())
    doc["N"][2][2][1] = "x"
    doc["N"][1][2][0] = -1
    doc["N"][1][2][2] = 1.0
    with pytest.raises(RingFormatError, match=r"N\[1\]\[2\]\[0\] is negative"):
        ring_from_document(doc)
    doc["N"][1][2][0] = 0
    with pytest.raises(RingFormatError, match=r"N\[1\]\[2\]\[2\]: expected an integer"):
        ring_from_document(doc)
    doc["N"][1][2][2] = True
    with pytest.raises(RingFormatError, match=r"N\[1\]\[2\]\[2\]: expected an integer"):
        ring_from_document(doc)


def test_structural_errors_become_format_errors():
    # negative entry: shape is fine, FusionRing itself rejects it
    doc = {"rank": 1, "duality": [0], "N": [[[-1]]]}
    with pytest.raises(RingFormatError, match="negative"):
        ring_from_document(doc)
    # duality that is not an involution
    doc = {"rank": 2, "duality": [1, 1],
           "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}
    with pytest.raises(RingFormatError):
        ring_from_document(doc)


def test_parseable_but_axiom_invalid_ring():
    # structurally fine, fails the fusion-ring axioms: callers are expected
    # to run verify_axioms() themselves
    doc = ring_to_document(cat.ising())
    doc["duality"] = [0, 2, 1]
    ring = ring_from_document(doc)
    assert fr.verify_axioms(ring) != []


# ------------------------------------------- parse_ring against the walk

PARITY_RINGS = [cat.ising(), cat.yang_lee(), cat.pointed("Z3"), cat.yl_extension("Z2"),
                fr.FusionRing(1, (0,), np.ones((1, 1, 1), dtype=np.int64))]
ODD_ENTRIES = [True, False, 1.5, 2.0, -1, -(2 ** 63) - 1, None, 2 ** 63 - 1, 2 ** 63, 2 ** 64,
               {"n": 1}, [1], "1", float("inf")]


def outcome(read):
    try:
        ring = read()
    except RingFormatError as exc:
        return "error", str(exc)
    return ring.rank, ring.dual, ring.labels, ring.n.dtype, ring.n.tolist()


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_parse_ring_matches_the_walk(data):
    doc = ring_to_document(data.draw(st.sampled_from(PARITY_RINGS)))
    r = doc["rank"]
    cell = st.integers(0, r - 1)
    # one odd entry, then up to two more mutations of any kind
    kinds = ["entry"] + data.draw(st.lists(st.sampled_from(
        ["entry", "short row", "long row", "short plane", "nested", "label"]), max_size=2))
    for kind in kinds:
        i, j, k = data.draw(cell), data.draw(cell), data.draw(cell)
        with contextlib.suppress(IndexError):  # a cell an earlier mutation removed
            mutate(doc, kind, (i, j, k), data)
    text = json.dumps(doc, indent=data.draw(st.sampled_from([None, 2])))
    assert outcome(lambda: parse_ring(text)) == outcome(
        lambda: ring_from_document(json.loads(text)))


def mutate(doc, kind, at, data):
    i, j, k = at
    if kind == "entry":
        doc["N"][i][j][k] = data.draw(st.sampled_from(ODD_ENTRIES))
    elif kind == "short row":
        doc["N"][i][j] = doc["N"][i][j][:-1]
    elif kind == "long row":
        doc["N"][i][j] = doc["N"][i][j] + [0]
    elif kind == "short plane":
        doc["N"][i] = doc["N"][i][:-1]
    elif kind == "nested":
        doc["N"][i][j] = [[v] for v in doc["N"][i][j]]
    else:
        doc["labels"] = [data.draw(st.sampled_from(["true", "x-true", "false", "a"]))
                         for _ in range(doc["rank"])]


def reference(text):
    """The outcome of ring_from_document(json.loads(text)), in parse_ring's words for bad JSON."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return "error", f"not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
    except RecursionError:
        return "error", "not valid JSON: nested too deeply"
    except ValueError as exc:
        return "error", f"not valid JSON: {exc}"
    return outcome(lambda: ring_from_document(doc))


def document(ring, labels=None):
    doc = ring_to_document(ring)
    if labels is not None:
        doc["labels"] = labels
    return doc


def with_entry(value, ring):
    doc = ring_to_document(ring)
    doc["N"][1][1][1] = value
    return doc


ISING = json.dumps(ring_to_document(cat.ising()))
Z2 = cat.pointed("Z2")
RANK_64 = cat.deligne_product(cat.yl_extension("Z2xZ2xZ2"), cat.pointed("Z4"))
# Each text, and whether parse_ring hands it to the fallback (json.loads and
# the walk) rather than reading it with the scanner: one text per decline.
DISPATCH = {
    "unlabelled": (serialize_ring(fr.FusionRing(2, (0, 1), Z2.n)), False),
    "labelled": (serialize_ring(Z2), False),
    "true-false-labels": (json.dumps(document(Z2, ["true", "false"])), False),
    "compact": (json.dumps(ring_to_document(cat.ising()), separators=(",", ":")), False),
    "indented": (serialize_ring(cat.yl_extension("Z2")), False),
    "rank-1": (serialize_ring(PARITY_RINGS[-1]), False),
    "N-first": (json.dumps(dict(sorted(ring_to_document(cat.ising()).items()))), False),
    "N-last": (json.dumps({"rank": 3, "duality": [0, 1, 2], "labels": ["1", "d", "X"],
                           "N": ring_to_document(cat.ising())["N"]}), False),
    "labels-N": (json.dumps(document(cat.ising(), ["aN", "[N]", "]["])), False),
    "labels-non-ascii": (json.dumps(document(cat.ising(), ["1", "σ", "ψ中"]),
                                    ensure_ascii=False), False),
    "tabs-newlines": (ISING.replace(", ", ",\t").replace("[", "[\r\n "), False),
    "spaced-key": (ISING.replace('"N": [', '"N" \t:\n\r ['), False),
    # a backslash, a second "N", an entry of 10 or more and a leading zero force the walk
    "escaped-quote": (json.dumps(document(Z2, ["e", 'g"'])), True),
    "escaped-backslash": (json.dumps(document(Z2, ["e", "\\u00e9"])), True),
    "ensure-ascii": (json.dumps(document(Z2, ["e", "é"])), True),
    "second-N": (json.dumps(document(Z2))[:-1] + ', "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}',
                 True),
    "label-N": (json.dumps(document(Z2, ["e", "N"])), True),
    "ten": (json.dumps(with_entry(10, cat.ising())), True),
    "multi-digit-spaced": (json.dumps(with_entry(123, cat.ising())).replace(", ", " ,\n "), True),
    "18-digits": (json.dumps(with_entry(10 ** 18 - 1, Z2)), True),
    "19-digits": (json.dumps(with_entry(10 ** 18, Z2)), True),
    "int64-max": (json.dumps(with_entry(2 ** 63 - 1, Z2)), True),
    "leading-zero": (json.dumps(document(Z2)).replace("[[[1, 0]", "[[[01, 0]"), True),
    "no-N": ('{"rank": 1, "duality": [0], "labels": ["N"]}', True),
    "N-not-array": ('{"rank": 1, "duality": [0], "N": 1}', True),
    "no-closing-bracket": ('{"rank": 1, "duality": [0], "N": [[[1}', True),
    "bad-json-after": ('{"rank": 1, "duality": [0], "N": [[[1]]] [1]}', True),
    "bad-header": ('{"rank": 1, "duality": [0], "N": [[[1]]], "spin": 2}', True),
    # json.loads stops at the bad N before the rank, too long for an int, after it
    "long-int-header": ('{"N": [[[1 2]]], "rank": ' + "9" * 5000 + ', "duality": [0]}', True),
    "deep-header": ('{"rank": 1, "duality": [0], "N": [[[1]]], "x": ' + "[" * 100_000 + "}",
                    True),
    "nested-N": ('{"rank": 1, "duality": [0], "x": {"N": [[[1]]]}}', True),
    "N-float": ('{"rank": 1, "duality": [0], "N": [[[1]]].5}', True),
    "N-exponent": ('{"rank": 1, "duality": [0], "N": [[[1]]]e5}', True),
    "short-table": ('{"rank": 2, "duality": [0, 1], "N": [[[1, 0], [0, 1]]]}', True),
    "ragged": ('{"rank": 1, "duality": [0], "N": [[1]]}', True),
    "negative": ('{"rank": 1, "duality": [0], "N": [[[-1]]]}', True),
    "boolean": ('{"rank": 1, "duality": [0], "N": [[[true]]]}', True),
    "float": ('{"rank": 1, "duality": [0], "N": [[[1.0]]]}', True),
    "no-break-space": ('{"rank": 1, "duality": [0], "N": [[[\u00a01]]]}', True),
    "digits-apart": ('{"rank": 1, "duality": [0], "N": [[[1 2]]]}', True),
    "digit-runs-apart": ('{"rank": 1, "duality": [0], "N": [[[12 3]]]}', True),
    "missing-comma": ('{"rank": 2, "duality": [0, 1], "N": [[[1 0], [0, 1]], [[0, 1], [1, 0]]]}',
                      True),
    # a rank-64 ring in five layouts: the scanner reads the first four, the fallback the last
    "rank-64-indented": (serialize_ring(RANK_64), False),
    "rank-64-default": (json.dumps(ring_to_document(RANK_64)), False),
    "rank-64-compact": (json.dumps(ring_to_document(RANK_64), separators=(",", ":")), False),
    "rank-64-non-ascii": (json.dumps(document(RANK_64, [f"σ{i}" for i in range(64)]),
                                     ensure_ascii=False), False),
    "rank-64-escaped": (json.dumps(document(RANK_64, [f'"N\\{i}"' for i in range(64)])), True),
}


@pytest.mark.parametrize("name", DISPATCH)
def test_parse_ring_walks_the_table_only_when_it_must(monkeypatch, name):
    text, walked = DISPATCH[name]
    scans = []
    scan = ringfile._scan
    monkeypatch.setattr(ringfile, "_scan", lambda t: scans.append(scan(t)) or scans[-1])
    assert outcome(lambda: parse_ring(text)) == reference(text)
    assert (scans == [None]) == walked


# labels that put "N", brackets, quotes or non-ASCII into the text
LABEL_PARTS = ["a", "N", '"N"', "[", "]", "[[0]]", "é", "中", "true"]
LARGE_ENTRIES = [10, 99, 10 ** 17, 10 ** 18 - 1, 10 ** 18, 2 ** 63 - 1, 2 ** 63]
SPACES = [" ", "\t", "\n", "\r", "\r\n  ", "\u00a0"]  # the last is no JSON whitespace


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_parse_ring_matches_the_fallback_on_textual_variants(data):
    r = data.draw(st.integers(1, 3))
    doc = {"rank": r, "duality": list(range(r)),
           "N": data.draw(st.lists(st.lists(st.lists(st.integers(0, 9), min_size=r, max_size=r),
                                            min_size=r, max_size=r), min_size=r, max_size=r))}
    if data.draw(st.booleans()):  # an entry of 10 or more
        i, j, k = (data.draw(st.integers(0, r - 1)) for _ in range(3))
        doc["N"][i][j][k] = data.draw(st.sampled_from(LARGE_ENTRIES))
    if data.draw(st.booleans()):
        doc["labels"] = [data.draw(st.sampled_from(LABEL_PARTS)) + str(i) for i in range(r)]
    keys = data.draw(st.permutations(list(doc)))
    doc = {key: doc[key] for key in keys}
    if data.draw(st.booleans()):  # an "N" inside another value: an unknown field
        doc["extra"] = {"N": doc["N"]}
        if data.draw(st.booleans()):
            del doc["N"]
    layout = data.draw(st.sampled_from([{}, {"separators": (",", ":")}, {"indent": 2},
                                        {"indent": 2, "sort_keys": True}]))
    text = json.dumps(doc, ensure_ascii=data.draw(st.booleans()), **layout)
    for _ in range(data.draw(st.integers(0, 3))):  # whitespace between tokens
        target = data.draw(st.sampled_from([",", "[", "]", ":"]))
        text = text.replace(target, target + data.draw(st.sampled_from(SPACES)),
                            data.draw(st.integers(1, 5)))
    if data.draw(st.booleans()):  # a leading zero
        text = text.replace(data.draw(st.sampled_from(["[0", "[1", " 0", " 1"])),
                            data.draw(st.sampled_from(["[00", "[01", " 00", " 01"])), 1)
    if "N" in doc and data.draw(st.booleans()):  # a second "N" key
        text = text.rstrip()[:-1] + ', "N": ' + json.dumps(doc["N"]) + "}"
    assert outcome(lambda: parse_ring(text)) == reference(text)


MILLION = json.dumps({"rank": 10 ** 6, "duality": list(range(10 ** 6)),
                      "N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]})


def test_a_rank_the_text_cannot_fill_is_a_format_error(tmp_path):
    # the token count is compared before anything of size rank**3 is built
    with pytest.raises(RingFormatError) as info:
        parse_ring(MILLION)
    assert str(info.value) == "N must be a 1000000x1000000x1000000 nested list"
    path = tmp_path / "million.json"
    path.write_text(MILLION)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "fusionring", "verify", str(path)],
                          capture_output=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == f"error: {path}: N must be a 1000000x1000000x1000000 nested list\n".encode()


LONG_INT = "1" * 5001  # past Python's default limit of 4,300 digits for int(str)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit")
@pytest.mark.parametrize("text", [
    '{"rank": ' + LONG_INT + ', "duality": [0], "N": [[[1]]]}',
    '{"rank": 1, "duality": [0], "N": [[[' + LONG_INT + ']]]}',
], ids=["header", "N"])
def test_an_integer_past_the_digit_limit_is_not_valid_json(text):
    with pytest.raises(RingFormatError, match=r"^not valid JSON: Exceeds the limit \(4300 digits\)"):
        parse_ring(text)
    assert outcome(lambda: parse_ring(text)) == reference(text)
