"""No int64 wrap: products, Deligne products and the CLI on entries near 2**31, 2**53, 2**63.

The rings are x·x = 1 + b·x (valid for every b ≥ 0), its Deligne products
with pointed(Z2) and Ising, and x_b ⊠ x_c, whose largest entry is b·c.
Every figure is compared with the same sum over Python ints.
"""

import contextlib
import io
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring import catalog as cat
from fusionring.cli import run
from fusionring.ringfile import serialize_ring

INT64_MAX = 2 ** 63 - 1

NEAR_LIMITS = st.sampled_from((2 ** 31, 2 ** 53, INT64_MAX)).flatmap(
    lambda base: st.integers(base - 3, min(base + 3, INT64_MAX)))


def rank2_ring(b: int) -> fr.FusionRing:
    """The rank-2 ring x·x = 1 + b·x."""
    n = np.zeros((2, 2, 2), dtype=np.int64)
    n[0] = np.eye(2, dtype=np.int64)
    n[1, 0, 1] = n[1, 1, 0] = 1
    n[1, 1, 1] = b
    return fr.FusionRing(2, (0, 1), n)


def entries(ring):
    return np.asarray(ring.n, dtype=object)


def reference_deligne(r1, r2):
    n1, n2 = entries(r1), entries(r2)
    return np.einsum("ijk,abc->iajbkc", n1, n2).reshape((r1.rank * r2.rank,) * 3)


def reference_product(ring, a, b):
    n, r = entries(ring), ring.rank
    return tuple(sum(a[i] * b[j] * n[i, j, k] for i in range(r) for j in range(r))
                 for k in range(r))


def rings_near_limits(b: int, c: int) -> list[fr.FusionRing]:
    """x_b and every product of it that fits int64; the others must raise."""
    xb = rank2_ring(b)
    out = [xb]
    for other in (cat.pointed("Z2"), cat.ising(), rank2_ring(c)):
        if int(xb.n.max()) * int(other.n.max()) >= 2 ** 63:
            with pytest.raises(OverflowError):
                cat.deligne_product(xb, other)
            continue
        prod = cat.deligne_product(xb, other)
        assert (entries(prod) == reference_deligne(xb, other)).all()
        out.append(prod)
    return out


@settings(deadline=None, max_examples=60)
@given(b=NEAR_LIMITS, c=NEAR_LIMITS, data=st.data())
def test_products_match_python_ints_or_raise(b, c, data):
    for ring in rings_near_limits(b, c):
        coeffs = st.lists(st.integers(0, 2), min_size=ring.rank, max_size=ring.rank)
        u, v = data.draw(coeffs), data.draw(coeffs)
        want = reference_product(ring, u, v)
        try:
            got = fr.multiply(ring, u, v).coeffs
        except OverflowError:
            assert max(want) >= 2 ** 62
        else:
            assert got == want


@settings(deadline=None, max_examples=8)
@given(b=NEAR_LIMITS, c=NEAR_LIMITS)
def test_cli_exits_cleanly_on_entries_near_int64_limits(b, c):
    with tempfile.TemporaryDirectory() as tmp:
        for idx, ring in enumerate(rings_near_limits(b, c)):
            path = pathlib.Path(tmp) / f"ring{idx}.json"
            path.write_text(serialize_ring(ring))
            for argv in (["verify", path], ["analyze", path], ["classify", path],
                         ["subrings", path], ["iso", path, path]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run([str(a) for a in argv])
                message = err.getvalue()
                assert code in (0, 1), (argv, code)
                if code == 1:
                    assert message.startswith("error:") and message.count("\n") == 1, message
