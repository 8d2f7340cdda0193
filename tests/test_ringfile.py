import contextlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring import catalog as cat
from fusionring import ringfile
from fusionring.ringfile import (RingFormatError, parse_ring, ring_from_document,
                                 ring_to_document, serialize_ring)


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


@pytest.mark.parametrize("labels,walked", [(None, False), (["e", "g"], False),
                                           (["e", "true"], True)])
def test_parse_ring_walks_the_table_only_when_it_must(monkeypatch, labels, walked):
    calls = []
    walk = ringfile._walk_table
    monkeypatch.setattr(ringfile, "_walk_table", lambda *a: calls.append(a) or walk(*a))
    ring = fr.FusionRing(2, (0, 1), cat.pointed("Z2").n, labels and tuple(labels))
    assert np.array_equal(parse_ring(serialize_ring(ring)).n, ring.n)
    assert bool(calls) == walked
