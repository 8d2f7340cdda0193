"""Perron dimensions, dimension recognition, and the cosine-square solver.

Each basis element's dimension is the Perron eigenvalue of its left
multiplication matrix. Power iteration runs on M + I rather than M itself:
the shift keeps the Perron vector and adds one to the eigenvalue, but makes
the top eigenvalue strictly dominant, so the Rayleigh quotient cannot stall
on matrices with periodic spectrum (the spectral radius pair +-sqrt(2) of a
self-dual object is the standard example).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ring import FusionRing, per_object_cache

#: Tolerance used for grouping and recognizing dimension values.
DIM_TOL = 1e-9

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

#: Default target of the cosine-square solver: cos(pi/10) squared.
COS_TARGET = (5.0 + math.sqrt(5.0)) / 8.0

_POWER_TOL = 1e-13
_POWER_CAP = 10000


class ConvergenceError(RuntimeError):
    """Power iteration failed to settle; the input is not a valid ring."""


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
        inner = "; ".join(f"{v:.12g},{m}" for v, m in self.entries)
        return f"({inner})"


def _perron(matrix: np.ndarray) -> float:
    m = matrix.astype(float)
    r = m.shape[0]
    shifted = m + np.eye(r)
    v = np.full(r, 1.0 / math.sqrt(r))
    prev = None
    for _ in range(_POWER_CAP):
        w = shifted @ v
        rho = float(v @ w)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise ConvergenceError("multiplication matrix annihilated the start vector")
        v = w / norm
        if prev is not None and abs(rho - prev) <= _POWER_TOL * abs(rho):
            residual = float(np.max(np.abs(shifted @ v - rho * v)))
            if residual <= 1e-10 * rho:
                return rho - 1.0
        prev = rho
    raise ConvergenceError("power iteration did not converge")


@per_object_cache
def fp_dimensions(ring: FusionRing) -> FPData:
    """Perron dimension of every basis element plus the squared total.

    Dual partners share a matrix spectrum, so they are computed once and
    assigned to both indices, which makes dims[dual(i)] == dims[i] exact.
    """
    dims: list[float | None] = [None] * ring.rank
    for i in range(ring.rank):
        if dims[i] is not None:
            continue
        lam = _perron(ring.n[i].T)
        dims[i] = lam
        dims[ring.dual[i]] = lam
    vals = tuple(float(d) for d in dims)  # type: ignore[arg-type]
    total = float(sum(d * d for d in vals))
    return FPData(vals, total, tuple(recognize(d) for d in vals))


def recognize(value: float, tol: float = DIM_TOL) -> str | None:
    """Closed-form tag for a dimension value, or None.

    Candidates in preference order: integers up to 64, square roots of
    non-square integers up to 64, the golden ratio, then 2cos(pi/k) for
    k up to 30.
    """
    for m in range(1, 65):
        if abs(value - m) <= tol:
            return str(m)
    for m in range(2, 65):
        root = math.sqrt(m)
        if abs(root - round(root)) < 1e-12:
            continue
        if abs(value - root) <= tol:
            return f"sqrt({m})"
    if abs(value - GOLDEN) <= tol:
        return "golden"
    for k in range(3, 31):
        if abs(value - 2.0 * math.cos(math.pi / k)) <= tol:
            return f"2cos(pi/{k})"
    return None


def dimension_classes(ring: FusionRing) -> list[tuple[float, tuple[int, ...]]]:
    """Basis indices grouped by dimension within DIM_TOL, ascending."""
    data = fp_dimensions(ring)
    order = sorted(range(ring.rank), key=lambda i: (data.dims[i], i))
    classes: list[tuple[float, tuple[int, ...]]] = []
    bucket: list[int] = []
    for i in order:
        if bucket and abs(data.dims[i] - data.dims[bucket[-1]]) > DIM_TOL:
            vals = [data.dims[j] for j in bucket]
            classes.append((float(sum(vals) / len(vals)), tuple(sorted(bucket))))
            bucket = []
        bucket.append(i)
    if bucket:
        vals = [data.dims[j] for j in bucket]
        classes.append((float(sum(vals) / len(vals)), tuple(sorted(bucket))))
    return classes


def type_signature(ring: FusionRing) -> TypeSignature:
    return TypeSignature(tuple((v, len(mem)) for v, mem in dimension_classes(ring)))


def solve_cos_equation(terms: int, target: float = COS_TARGET,
                       bound: int = 100, tol: float = 1e-12) -> list[tuple[int, ...]]:
    """Integer tuples a1 <= ... <= a_terms, all >= 3, with sum of cos(pi/ai)^2 = target.

    cos(pi/x)^2 increases in x, so the scan for a slot stops as soon as one
    term plus the floor value of the remaining slots overshoots; any bound
    of at least 10 therefore gives the same answer for the default target.
    """
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
            if fa + (slots - 1) * floor > remaining + tol:
                break
            if slots == 1:
                if abs(fa - remaining) <= tol:
                    out.append(prefix + (a,))
            else:
                scan(slots - 1, a, remaining - fa, prefix + (a,))

    scan(terms, 3, target, ())
    return out
