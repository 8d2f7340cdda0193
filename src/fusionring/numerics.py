"""Perron dimensions, dimension recognition, and the cosine-square solver.

FPdim is the ring homomorphism that is positive on the basis. Its values are
the one common positive eigenvector of the left multiplication matrices: the
regular element R = sum_k d_k k satisfies i * R = d_i R for every i. So
(d_k)_k is the Perron vector of M = sum_i n[i]^T, with eigenvalue sum_i d_i.
M[k][j] = sum_i N_ij^k is, by reciprocity, the multiplicity sum of k * j*,
which is at least one because (k * j*)(j * k*) contains the unit. So M is
strictly positive on every ring that passes the gate fp_dimensions calls
(ring._require_valid). A strictly positive M has a strictly dominant Perron
root and no other positive eigenvector, so power iteration on M itself,
normalised at the unit, gives every dimension at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ring import FusionRing, _checked_int, _require_valid, per_object_cache

#: Tolerance used for grouping and recognizing dimension values.
DIM_TOL = 1e-9

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

#: Default target of the cosine-square solver, cos(pi/10) squared, and its tolerance.
COS_TARGET = (5.0 + math.sqrt(5.0)) / 8.0
_COS_TOL = 1e-12

_POWER_CAP = 10000


def _fmt(x: float) -> str:
    """x to 12 significant digits, as every report and type signature shows a float."""
    return f"{x:.12g}"


class ConvergenceError(RuntimeError):
    """Power iteration did not settle within its step cap."""


@dataclass(frozen=True)
class FPData:
    dims: tuple[float, ...]
    total: float
    recognized: tuple[str | None, ...]


@dataclass(frozen=True)
class TypeSignature:
    """Dimension classes in ascending order, as (value, multiplicity) pairs."""

    entries: tuple[tuple[float, int], ...]

    def text(self) -> str:
        inner = "; ".join(f"{_fmt(v)},{m}" for v, m in self.entries)
        return f"({inner})"


@per_object_cache
def fp_dimensions(ring: FusionRing) -> FPData:
    """Perron dimension of every basis element plus the squared total.

    StructuralError on a ring that fails verify_axioms (ring._require_valid).
    Each dual pair takes the entry of its smaller index, which makes
    dims[dual(i)] == dims[i] exact.
    """
    _require_valid(ring)
    m = ring.n.sum(axis=0, dtype=np.float64).T
    # A positive M contracts Hilbert's projective metric, so in exact
    # arithmetic the Collatz-Wielandt spread max(Mv/v) / min(Mv/v) falls
    # strictly until it is 1. Each entry of Mv sums nonnegative terms, so it is
    # computed to a relative (rank + 1) * 2**-53 (7e-15 at rank 64), and the
    # spread levels off within a small multiple of that above 1. Stopping at
    # the first step where it does not fall therefore stops at that floor,
    # whatever the rank, with no tolerance that rounding could keep out of
    # reach. The distance of v from the Perron vector in the same metric is
    # then at most log(spread) over one minus the contraction rate.
    v = np.ones(ring.rank)
    spread = math.inf
    for _ in range(_POWER_CAP):
        w = m @ v
        ratios = w / v
        prev, spread = spread, ratios.max() / ratios.min()
        v = w / w[0]
        if spread >= prev:
            break
    else:
        raise ConvergenceError("power iteration did not converge")
    vals = tuple(float(d) for d in v[np.minimum(np.arange(ring.rank), ring.dual)])
    total = float(sum(d * d for d in vals))
    tags = {d: recognize(d) for d in set(vals)}  # recognize is a function of the float
    return FPData(vals, total, tuple(tags[d] for d in vals))


#: The (value, tag) candidates of recognize, in preference order.
_CLOSED_FORMS: tuple[tuple[float, str], ...] = (
    tuple((float(m), str(m)) for m in range(1, 65))
    + tuple((math.sqrt(m), f"sqrt({m})") for m in range(2, 65) if math.isqrt(m) ** 2 != m)
    + ((GOLDEN, "golden"),)
    + tuple((2.0 * math.cos(math.pi / k), f"2cos(pi/{k})") for k in range(3, 31)))


def recognize(value: float) -> str | None:
    """Closed-form tag for a dimension value, or None.

    Candidates in preference order: integers up to 64, square roots of
    non-square integers up to 64, the golden ratio, then 2cos(pi/k) for
    k up to 30.
    """
    for candidate, tag in _CLOSED_FORMS:
        if abs(value - candidate) <= DIM_TOL:
            return tag
    return None


def dimension_classes(ring: FusionRing) -> list[tuple[float, tuple[int, ...]]]:
    """Basis indices grouped by dimension within DIM_TOL, ascending."""
    dims = fp_dimensions(ring).dims
    buckets: list[list[int]] = []
    for i in sorted(range(ring.rank), key=lambda i: (dims[i], i)):
        if buckets and abs(dims[i] - dims[buckets[-1][-1]]) <= DIM_TOL:
            buckets[-1].append(i)
        else:
            buckets.append([i])
    return [(float(sum(dims[j] for j in b) / len(b)), tuple(sorted(b))) for b in buckets]


def type_signature(ring: FusionRing) -> TypeSignature:
    return TypeSignature(tuple((v, len(mem)) for v, mem in dimension_classes(ring)))


def solve_cos_equation(terms: int, target: float = COS_TARGET,
                       bound: int = 100) -> list[tuple[int, ...]]:
    """Integer tuples a1 <= ... <= a_terms, all >= 3, with sum of cos(pi/ai)^2 = target.

    cos(pi/x)^2 increases in x, so the scan for a slot stops as soon as one
    term plus the floor value of the remaining slots overshoots; any bound
    of at least 10 therefore gives the same answer for the default target.
    """
    terms = _checked_int(terms, "term count", ValueError)
    bound = _checked_int(bound, "bound", ValueError)
    if terms not in (2, 3):
        raise ValueError("term count must be 2 or 3")
    if bound < 10:
        raise ValueError("bound must be at least 10")

    def f(a: int) -> float:
        c = math.cos(math.pi / a)
        return c * c

    floor = f(3)
    out: list[tuple[int, ...]] = []

    def scan(slots: int, start: int, remaining: float, prefix: tuple[int, ...]) -> None:
        for a in range(start, bound + 1):
            fa = f(a)
            if fa + (slots - 1) * floor > remaining + _COS_TOL:
                break
            if slots == 1:
                if abs(fa - remaining) <= _COS_TOL:
                    out.append(prefix + (a,))
            else:
                scan(slots - 1, a, remaining - fa, prefix + (a,))

    scan(terms, 3, target, ())
    return out
