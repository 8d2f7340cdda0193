"""Fusion rings as integer structure-constant tensors over a fixed basis.

A ring of rank r stores its multiplicities in an r x r x r tensor n, where
n[i][j][k] counts how often basis element k appears in the product i * j.
Index 0 is always the unit and duality is a permutation of the basis.

Validation happens in two layers. Shape and typing problems (wrong tensor
dimensions, non-permutation duality, entries outside [0, 2**63)) raise
StructuralError at construction time. The ring axioms themselves (dual
involution, unit rows, duality pairing, reciprocity, associativity) are
checked once per ring: verify_axioms lists every violation, _require_valid raises.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Any, Callable, Iterable, Sequence, TypeVar

import numpy as np

AXIOM_DUAL = "dual-involution"
AXIOM_UNIT = "unit"
AXIOM_DUALITY = "duality"
AXIOM_FROBENIUS = "frobenius-reciprocity"
AXIOM_ASSOCIATIVITY = "associativity"

_ENTRY_LIMIT = 2 ** 63  # entries are stored as int64


class StructuralError(ValueError):
    """Malformed ring data: wrong shapes, bad dual permutation, entries outside [0, 2**63)."""


_T = TypeVar("_T")


def _is_integer(x) -> bool:
    # a bool indexes numpy arrays as a mask, and a float indexes nothing
    return type(x) is int or isinstance(x, np.integer)


def _checked_int(x, what: str, error: type[ValueError] = StructuralError) -> int:
    """x as an int, or error when _is_integer rejects it."""
    if not _is_integer(x):
        raise error(f"{what} is {x!r}, not an integer")
    return int(x)


def _cache_key(fn: Callable) -> str:
    """The key of fn's values in obj.__dict__; a per_object_cache wrapper has fn's."""
    return f"{fn.__module__}.{fn.__qualname__}"


def per_object_cache(fn: Callable[[Any], _T]) -> Callable[[Any], _T]:
    """Cache fn(obj) in obj.__dict__, the storage cached_property uses.

    The result lives exactly as long as the ring or group it describes;
    nothing global holds on to the object. Every caller gets the same
    result object, so callers must not mutate it.
    """
    key = _cache_key(fn)

    @wraps(fn)
    def cached(obj):
        store = obj.__dict__
        if key not in store:
            store[key] = fn(obj)
        return store[key]

    return cached


def carry_invariants(r1: FusionRing, r2: FusionRing, sigma: Sequence[int]) -> bool:
    """Give r2 the colour classes and square profiles of r1, moved along sigma.

    sigma must be a permutation of range(r1.rank), and r2 of that rank.
    When sigma is an isomorphism r1 -> r2 (_maps_tensor) that commutes with
    the duals, the values go into r2's per_object_cache store, where
    colour_classes(r2) and square_profiles(r2) then find them, and the
    result is True. Otherwise r2 is left untouched and the result is False.
    The stored values are exactly those r2 would compute: every step of
    both functions reads only the tensor, the duals and invertibility, and
    hashes int tuples built from them, colours and class indices included,
    and sigma carries each of these over; so the colour of sigma(i) in r2
    is that of i in r1, its value and not only its class.
    """
    if not (_maps_tensor(r1, r2, sigma)
            and all(sigma[d] == r2.dual[p] for d, p in zip(r1.dual, sigma))):
        return False
    for fn in (colour_classes, square_profiles):
        moved = [0] * r1.rank
        for p, value in zip(sigma, fn(r1)):
            moved[p] = value
        r2.__dict__[_cache_key(fn)] = tuple(moved)
    return True


@dataclass(frozen=True, eq=False)
class FusionRing:
    """Immutable carrier for (rank, duality permutation, structure constants)."""

    rank: int
    dual: tuple[int, ...]
    n: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        r = _checked_int(self.rank, "rank")
        if r < 1:
            raise StructuralError("rank must be at least 1")
        arr = np.asarray(self.n)
        if arr.shape != (r, r, r):
            raise StructuralError(f"N tensor has shape {arr.shape}, expected {(r, r, r)}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise StructuralError("structure constants must be integers")
        if arr.size and arr.min() < 0:
            i, j, k = (int(x) for x in np.argwhere(arr < 0)[0])
            raise StructuralError(f"negative structure constant at ({i},{j},{k})")
        if arr.dtype.kind == "u" and arr.size and arr.max() >= _ENTRY_LIMIT:
            i, j, k = (int(x) for x in np.argwhere(arr >= _ENTRY_LIMIT)[0])
            raise StructuralError(f"structure constant at ({i},{j},{k}) exceeds the int64 range")
        dual = tuple(_checked_int(x, "duality entry") for x in self.dual)
        if len(dual) != r or sorted(dual) != list(range(r)):
            raise StructuralError("duality must be a permutation of the basis")
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != r:
                raise StructuralError("labels must name every basis element")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "rank", r)
        object.__setattr__(self, "dual", dual)
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "n", arr)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def constituents(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(product_support(self)[i][j])

    @cached_property
    def invertible(self) -> tuple[bool, ...]:
        """invertible[i] is true when i * dual(i) is exactly the unit."""
        rows = self.n[np.arange(self.rank), self.dual]
        return tuple(((rows[:, 0] == 1) & ~rows[:, 1:].any(axis=1)).tolist())

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.n, self.n.transpose(1, 0, 2)))

    def __repr__(self) -> str:
        return f"FusionRing(rank={self.rank})"


def _built_ring(n: np.ndarray, dual, labels) -> FusionRing:
    """A FusionRing on data its builder proved to pass the constructor's checks.

    The proof must give n as an r x r x r tensor of non-negative integers
    below 2**63, dual as a permutation of range(r) and r labels. None of
    the checks run; the fields are normalized as the constructor normalizes
    them. Only a builder whose docstring gives that proof may call this.
    """
    n = np.ascontiguousarray(n, dtype=np.int64)
    n.setflags(write=False)
    ring = object.__new__(FusionRing)
    ring.__dict__.update(rank=len(n), dual=tuple(int(x) for x in dual), n=n,
                         labels=tuple(str(x) for x in labels))
    return ring


@dataclass(frozen=True)
class RingElement:
    """Nonnegative integer combination of basis elements."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        cleaned = tuple(_checked_int(c, "coefficient") for c in self.coeffs)
        if any(c < 0 for c in cleaned):
            raise StructuralError("coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", cleaned)


@dataclass(frozen=True)
class Subring:
    """A closed subset of the basis, tagged pointed when every member is invertible."""

    members: tuple[int, ...]
    pointed: bool

    @property
    def rank(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    at: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.axiom} at {self.at}"


def basis_element(ring: FusionRing, i: int) -> RingElement:
    i = _checked_int(i, "basis index")
    if not 0 <= i < ring.rank:
        raise StructuralError(f"basis index {i} out of range")
    coeffs = [0] * ring.rank
    coeffs[i] = 1
    return RingElement(tuple(coeffs))


def as_element(ring: FusionRing, x) -> RingElement:
    if isinstance(x, RingElement):
        if len(x.coeffs) != ring.rank:
            raise StructuralError("element length does not match ring rank")
        return x
    if isinstance(x, (int, np.integer)):
        return basis_element(ring, x)
    coeffs = tuple(x)
    if len(coeffs) != ring.rank:
        raise StructuralError("element length does not match ring rank")
    return RingElement(coeffs)


def multiply(ring: FusionRing, a, b) -> RingElement:
    """Product of two nonnegative elements, computed exactly over Python ints.

    Coefficients of 2**62 or more raise OverflowError, so every product
    still fits the int64 tensors the rest of the package works with.
    """
    va = np.array(as_element(ring, a).coeffs, dtype=object)
    vb = np.array(as_element(ring, b).coeffs, dtype=object)
    out = tuple(int(c) for c in np.einsum("i,j,ijk->k", va, vb, ring.n.astype(object)))
    if any(c >= 2 ** 62 for c in out):
        raise OverflowError("product coefficients exceed the machine integer range")
    return RingElement(out)


def verify_axioms(ring: FusionRing) -> list[AxiomViolation]:
    """Every axiom violation, in a fixed order.

    Families are checked in the order dual involution, unit, duality,
    reciprocity, associativity; within a family the offending index tuples
    come out lexicographically. An empty list means the ring is valid.
    """
    return list(_violations(ring))


def _require_valid(ring: FusionRing) -> None:
    """Raise StructuralError unless the ring passes verify_axioms: the one axiom gate."""
    violations = _violations(ring)
    if violations:
        head = "; ".join(str(v) for v in violations[:3])
        raise StructuralError(f"not a fusion ring ({len(violations)} axiom violation(s): {head})")


@per_object_cache
def _violations(ring: FusionRing) -> tuple[AxiomViolation, ...]:
    """verify_axioms' list as a tuple, held by per_object_cache."""
    r, n = ring.rank, ring.n
    d = np.array(ring.dual)
    eye = np.eye(r, dtype=np.int64)
    bad_dual = d[d] != np.arange(r)
    bad_dual[0] |= d[0] != 0
    # the (0, 0, k) come with the (0, j, k), so the (i, 0, k) start at i = 1
    out = (_listed(AXIOM_DUAL, bad_dual)
           + _listed(AXIOM_UNIT, (n[0] != eye)[None])
           + _listed(AXIOM_UNIT, (n[1:, 0] != eye[1:])[:, None], start=1)
           + _listed(AXIOM_DUALITY, (n[:, :, 0] != eye[d])[:, :, None]))
    # Reciprocity: n[i,j,k] = n[i*,k,j] = n[k,j*,i]. Each of the two index maps
    # is a bijection of [r]^3, so when it keeps every nonzero entry it maps the
    # support onto itself, and with it the zeros onto zeros: checking the
    # nonzeros decides the whole tensor. The dense masks only list violations.
    i, j, k, m = _nonzeros(ring)
    flat = n.ravel()
    if not ((flat[(d[i] * r + k) * r + j] == m).all()
            and (flat[(k * r + d[j]) * r + i] == m).all()):
        mism = n != n[d].transpose(0, 2, 1)
        mism |= n != n[:, d, :].transpose(2, 1, 0)
        out += _listed(AXIOM_FROBENIUS, mism)

    # (i*j)*k against i*(j*k) as float64 products on the lanes of
    # _associator_lanes, a block of left factors i at a time so that the
    # lane products stay within 2**16 elements and memory near rank**3.
    lanes = _associator_lanes(n)
    step = max(1, 2 ** 16 // lanes.packed[0].size)
    # With every other axiom in place, associativity of the left factors in
    # _generating_set proves it for all of them: those factors lie in the left
    # nucleus, a subspace that holds 1 and is closed under products, and
    # peeling the product table forces every basis element into it. From
    # rank 17 up that is worth its cost; a failing generator falls through
    # to the full check, which lists every violation.
    if not out and r > 16:
        gens = _generating_set(ring)
        if all(_associators_differ(lanes, gens[t:t + step]) is None
               for t in range(0, len(gens), step)):
            return ()
    for start in range(0, r, step):
        at = _associators_differ(lanes, slice(start, start + step))
        if at is not None:
            out += _listed_at(AXIOM_ASSOCIATIVITY, at, start)
    return tuple(out)


def _listed(axiom: str, mask: np.ndarray, start: int = 0) -> list[AxiomViolation]:
    """One violation per true entry of mask, in C order (lexicographic), first index + start.

    Flat indices, not argwhere: numpy's nonzero is far slower on an array of several axes.
    """
    if not mask.any():
        return []
    return _listed_at(axiom, np.unravel_index(np.flatnonzero(mask), mask.shape), start)


def _listed_at(axiom: str, at: Sequence[np.ndarray], start: int = 0) -> list[AxiomViolation]:
    """One violation per index tuple of the arrays at, in their order, first index + start."""
    first, *rest = at
    return [AxiomViolation(axiom, x)
            for x in zip((first + start).tolist(), *(y.tolist() for y in rest))]


@dataclass(frozen=True)
class _Lanes:
    """The tensor packed for the associator products; see _associator_lanes."""

    moduli: list[int]           # 0 stands for no reduction
    factors: list[np.ndarray]   # n modulo each modulus, as float64
    packed: list[np.ndarray]    # each factor times W, as (i, lane, j): shape (r, lanes, r)
    base: int                   # beta
    powers: np.ndarray          # beta**t for t < b, as int64


def _associator_lanes(n: np.ndarray) -> _Lanes:
    """Lanes that hold b basis elements each, exactly, as base-beta digits.

    With M the largest entry and S the largest multiplicity sum of a product,
    sum_k n[i,j,k], beta = S*M + 1 and b is the largest count with
    beta**b <= 2**53, capped at the rank. W puts basis element l in lane
    l // b with weight beta**(l % b), and both sides of (i*j)*k = i*(j*k)
    are multiplied by it (Kronecker substitution). This is exact:
    - every count on either side is at most S*M < beta: sum_m n[i,j,m] *
      n[m,k,l] <= M * sum_m n[i,j,m] <= M*S, and likewise for i*(j*k);
    - so a lane is a sum of non-negative integers whose total is below
      beta**b <= 2**53, as is every product and partial sum in it; float64
      holds each exactly, in any summation order, fused or not;
    - two lanes are equal exactly when all their base-beta digits are.

    When r * M**2 >= 2**53 the products instead run with b = 1 (W the
    identity) on n mod p, for the largest primes p with r * p**2 < 2**53
    until their product exceeds r * M**2: two sums are then equal when they
    agree modulo every such prime (Chinese remainder theorem).
    """
    r = len(n)
    top = int(n.max())
    base, width = 0, 1
    if r * top * top >= 2 ** 53:
        moduli = _residue_primes(r, r * top * top)
    else:
        moduli = [0]
        base = int(n.sum(axis=2).max()) * top + 1
        while width < r and base ** (width + 1) <= 2 ** 53:
            width += 1
    powers = np.array([base ** t for t in range(width)], dtype=np.int64)
    at = np.arange(r)
    weights = np.zeros((r, -(-r // width)))
    weights[at, at // width] = powers[at % width]
    factors = [(n % p if p else n).astype(np.float64) for p in moduli]
    packed = [weights.T @ a.transpose(0, 2, 1) for a in factors]
    return _Lanes(moduli, factors, packed, base, powers)


def _associators_differ(lanes: _Lanes, rows) -> tuple[np.ndarray, ...] | None:
    """Index arrays a, j, k, l, in C order, of the differing counts of (i*j)*k and i*(j*k).

    Here i = rows[a]. None when the two agree everywhere, which the packed
    lanes show; only differing lanes are decoded into their base-beta digits.
    """
    differ = None
    for p, f, w in zip(lanes.moduli, lanes.factors, lanes.packed):
        r, count = w.shape[:2]
        # (i*j)*k one product per i, as (a, j, lane, k); i*(j*k) one product for
        # the whole block, (i, lane) rows against (j, k) columns, viewed in the
        # same order. Both keep k innermost, so they compare in long runs.
        left = (f[rows] @ w.reshape(r, -1)).reshape(-1, r, count, r)
        right = (w[rows].reshape(-1, r) @ f.reshape(r * r, r).T).reshape(-1, count, r, r)
        right = right.transpose(0, 2, 1, 3)
        if p:
            np.fmod(left, p, out=left)
            np.fmod(right, p, out=right)
        if differ is None:
            differ = left != right
        else:
            differ |= left != right
    if not differ.any():
        return None
    a, j, lane, k = np.unravel_index(np.flatnonzero(differ), differ.shape)
    if count > 1:  # listed in C order of (a, j, k, lane), not differ's (a, j, lane, k)
        order = np.sort(((a * r + j) * r + k) * count + lane)
        a, j, k, lane = np.unravel_index(order, (len(differ), r, r, count))
    width = len(lanes.powers)
    if width == 1:
        return a, j, k, lane
    # b > 1 only with the single modulus 0, so left and right hold its lanes.
    # Digits t come in increasing order within each lane, so the basis
    # elements l = lane * b + t do too.
    digits = [x[a, j, lane, k].astype(np.int64)[:, None] // lanes.powers % lanes.base
              for x in (left, right)]
    hit, t = np.nonzero(digits[0] != digits[1])
    return a[hit], j[hit], k[hit], lane[hit] * width + t


def _generating_set(ring: FusionRing) -> list[int]:
    """Basis elements S whose left factors prove associativity, when the unit axiom holds.

    Light's associativity test on the left nucleus L = {x : (x*y)*z = x*(y*z)
    for all y, z}. L is a subspace, and 1 is in L when n[0] is the identity.
    L is closed under products by the Teichmueller identity, which holds in
    every algebra for the associator (a, b, c) = (a*b)*c - a*(b*c):
    a*(b,c,d) + (a,b,c)*d = (a*b,c,d) - (a,b*c,d) + (a,b,c*d). For a, b in
    L every term but (a*b,c,d) vanishes. So checking the left factors in S
    proves the ring associative once S forces every basis element into L.

    The known set K of basis elements forced into L starts at the unit and
    grows by peeling the sparse product table: for x in K and s in S, x*s is
    in L, and if exactly one constituent c of x*s lies outside K, then e_c
    is x*s minus its known terms, divided by n[x,s,c] > 0, so c joins K.
    This holds over Q, with no prime. When nothing peels, the smallest basis
    element y outside K joins S, and K with it (1*y = y). Every stall grows
    K, so K always reaches the whole basis.
    """
    support = product_support(ring)
    full = (1 << ring.rank) - 1
    known, gens = 1, []
    fresh = 1  # known elements whose products by gens are not yet pending
    pending: list[int] = []  # the constituents of products x*s not yet peeled, as masks
    while known != full:
        if fresh:
            pending += [_mask(support[x][s]) for x in _bits(fresh) for s in gens]
        else:
            y = (~known & (known + 1)).bit_length() - 1
            gens.append(y)
            pending += [_mask(support[x][y]) for x in _bits(known)]
        fresh = 0
        stuck = []
        for constituents in pending:
            unknown = constituents & ~known
            if unknown & (unknown - 1):
                stuck.append(unknown)
            else:
                fresh |= unknown
                known |= unknown
        pending = stuck
    return gens


def _residue_primes(r: int, bound: int) -> list[int]:
    """The largest primes p with r * p**2 < 2**53, until their product exceeds bound."""
    primes: list[int] = []
    product, p = 1, math.isqrt((2 ** 53 - 1) // r)
    while product <= bound:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            primes.append(p)
            product *= p
        p -= 1
    return primes


@per_object_cache
def _nonzeros(ring: FusionRing) -> tuple[np.ndarray, ...]:
    """Arrays i, j, k and n[i,j,k] over the nonzero entries in C order; do not mutate."""
    # flat indices, as in _listed, of a bool mask: numpy finds the nonzeros of
    # an int64 array several times slower
    flat = np.flatnonzero(ring.n != 0)
    return (*np.unravel_index(flat, ring.n.shape), ring.n.ravel()[flat])


def _maps_tensor(r1: FusionRing, r2: FusionRing, sigma: Sequence[int]) -> bool:
    """Whether n1[i,j,k] = n2[s(i),s(j),s(k)] everywhere, s = sigma a permutation of the basis.

    Read at the nonzeros of n1 only, with one np.array_equal. s x s x s
    permutes [r]^3, so when it keeps every nonzero entry it maps the support
    of n1 into that of n2, and with as many nonzeros in n2, onto it; then
    the zeros of n1 go to zeros too. The ranks must be equal.
    """
    i, j, k, m = _nonzeros(r1)
    s, r = np.asarray(sigma), r1.rank
    return (len(m) == len(_nonzeros(r2)[3])
            and np.array_equal(r2.n.ravel()[(s[i] * r + s[j]) * r + s[k]], m))


@per_object_cache
def product_support(ring: FusionRing) -> tuple[tuple[dict[int, int], ...], ...]:
    """The sparse product table: support[i][j] = {k: n[i,j,k]} over n[i,j,k] > 0.

    Keys come in increasing k. Held by per_object_cache; do not mutate.
    """
    r = ring.rank
    support = [[{} for _ in range(r)] for _ in range(r)]
    for i, j, k, m in zip(*(a.tolist() for a in _nonzeros(ring))):  # C order: k increases
        support[i][j][k] = m
    return tuple(tuple(row) for row in support)


def closure(ring: FusionRing, seed: Iterable[int]) -> Subring:
    """Smallest closed subset containing the unit and the seed.

    The ring must pass verify_axioms, or StructuralError is raised
    (_require_valid). The closure is then the walk from the
    unit by right multiplication with the seed and its duals: the set W of
    constituents of words in those generators. W holds the seed (1*g = g)
    and lies in every closed set holding it. It is closed under products:
    if a is a constituent of the word u and b of v, the entries are
    non-negative, so each constituent of a*b is one of u*v, which is a word
    by associativity. It is closed under duals: by reciprocity the dual of a
    constituent of g1*...*gk is one of the word dual(gk)*...*dual(g1).
    """
    _require_valid(ring)
    gens: set[int] = set()
    for i in seed:
        i = _checked_int(i, "seed index")
        if not 0 <= i < ring.rank:
            raise StructuralError(f"seed index {i} out of range")
        gens |= {i, ring.dual[i]}
    support = product_support(ring)

    def step(x: int) -> int:
        mask = 0
        for g in gens:
            for k in support[x][g]:
                mask |= 1 << k
        return mask

    mem = _bits(_walk(1, step))
    return Subring(mem, all(ring.invertible[i] for i in mem))


def is_closed_subset(ring: FusionRing, members: Iterable[int]) -> bool:
    mem = tuple(sorted({_checked_int(i, "member") for i in members}))
    return closure(ring, mem).members == mem


def make_subring(ring: FusionRing, members: Iterable[int]) -> Subring:
    mem = tuple(sorted({_checked_int(i, "member") for i in members}))
    sub = closure(ring, mem)
    if sub.members != mem:
        raise StructuralError(f"members {mem} do not form a closed subset")
    return sub


def _walk(start: int, step: Callable[[int], int]) -> int:
    """The mask of every point reachable from the points of the mask start.

    A mask holds the point x as the bit 1 << x, and step(x) is the mask of
    the points one move from x.
    """
    seen = todo = start
    while todo:
        low = todo & -todo
        new = step(low.bit_length() - 1) & ~seen
        seen |= new
        todo ^= low | new
    return seen


def _mask(points: Iterable[int]) -> int:
    mask = 0
    for x in points:
        mask |= 1 << int(x)  # int: a numpy integer would wrap at bit 63
    return mask


def _bits(mask: int) -> tuple[int, ...]:
    """The points of a mask, increasing."""
    points = []
    while mask:
        low = mask & -mask
        points.append(low.bit_length() - 1)
        mask ^= low
    return tuple(points)


def _orbits(items: Iterable[int],
            step: Callable[[int], Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The orbits of the items under the moves, sorted by smallest member.

    step(x) yields the points one move from x. Each orbit is the walk from
    an item not yet seen, so every move must be undone by moves: a group
    acting through generators (inverses are powers in a finite group) or a
    symmetric relation.
    """
    seen = 0
    orbits = []
    for x in items:
        if not seen >> x & 1:
            orbit = _walk(1 << x, lambda y: _mask(step(y)))
            seen |= orbit
            orbits.append(_bits(orbit))
    return tuple(sorted(orbits))


def closed_subsets(moves: Sequence[Sequence[int]], dual: Sequence[int]) -> list[tuple[int, ...]]:
    """Every closed subset of range(len(moves)), sorted by (size, members).

    moves[x][g] is the mask of the points one move by g from x: the
    constituents of x*g, or the group product. The closure of a seed is the
    walk from 0 over the moves by the seed and its duals (dual[g]), for
    subrings and subgroups alike. A closed set is the join of the
    single-element closures of its members, and joins are associative, so
    joining every set found so far with each single-element closure in turn
    finds every closed set. Each set keeps its rows, rows[x] = the moves
    from x by a seed that generates it; the join of f and b is then the walk
    from f | b over the OR of their rows.
    """
    found = {1: (0,) * len(moves)}  # the closure of no seed: {0}
    singles: dict[int, tuple[int, ...]] = {}
    for g, h in enumerate(dual):
        rows = tuple(row[g] | row[h] for row in moves)
        singles.setdefault(_walk(1, rows.__getitem__), rows)
    for b, b_rows in singles.items():
        for f, f_rows in list(found.items()):
            if not b & ~f:  # b lies in f, so the join is f
                continue
            rows = tuple(map(operator.or_, f_rows, b_rows))
            found.setdefault(_walk(f | b, rows.__getitem__), rows)
    return sorted(map(_bits, found), key=lambda s: (len(s), s))


# -------------------------------------------------------------- isomorphism

@per_object_cache
def colour_classes(ring: FusionRing) -> tuple[int, ...]:
    """An exact colour per basis element, equal across isomorphic rings.

    Colour refinement: the colours start from each element's integer index
    profile and are refined until the number of classes stops growing. Each
    round an element's new colour combines its old colour, its dual's colour
    and, for each of the three tensor slots it can occupy, the total
    multiplicity over every pair of colours in the other two slots.
    Colours are hashes of int tuples only, so they do not vary between
    processes. Any isomorphism maps each element to one of the same colour;
    a hash collision can only merge classes, never split them.
    """
    r, dual = ring.rank, ring.dual
    i, j, k, values = _nonzeros(ring)
    # the three slots as one listing: x is the element in the slot, offset by
    # slot * r, and a, b are the other two slots: (j, k), (i, k), (i, j)
    x = np.concatenate((i, j + r, k + 2 * r))
    a, b = np.concatenate((j, i, i)), np.concatenate((k, k, j))
    v = np.tile(values, 3)
    # seed, the index profile: invertible, self-dual, n[i,i,i] and, for each
    # slot, the (value, count) pairs of the r*r entries with i in that slot:
    # (0, r*r - nonzeros) when positive, then the runs of equal (x, value)
    # among the nonzeros sorted by (x, value)
    order = np.lexsort((v, x))
    at, value = x[order], v[order]
    starts = np.ones(len(at), dtype=bool)  # first entry of each run
    starts[1:] = (at[1:] != at[:-1]) | (value[1:] != value[:-1])
    first = np.flatnonzero(starts)
    pairs = list(zip(value[first].tolist(), np.diff(first, append=len(at)).tolist()))
    bounds = np.searchsorted(at[first], np.arange(3 * r + 1)).tolist()
    zeros = (r * r - np.bincount(x, minlength=3 * r)).tolist()
    profiles = [((0, z),) * (z > 0) + tuple(pairs[lo:hi])
                for z, lo, hi in zip(zeros, bounds, bounds[1:])]
    diagonal = ring.n[(np.arange(r),) * 3].tolist()
    colours = [hash((ring.invertible[e], dual[e] == e, diagonal[e],
                     profiles[e], profiles[r + e], profiles[2 * r + e]))
               for e in range(r)]
    # Every count below is a sum of non-negative entries, at most r*r*max(N).
    # Under 2**53 each partial sum is an exact float64 whatever the summation
    # order, so bincount's float sums are the exact counts; above it,
    # rounding could depend on the order and split isomorphic rings, and
    # int64 sums could wrap past 2**63, so the counts are Python ints.
    exact = r * r * int(values.max(initial=0)) < 2 ** 53
    weights = v if exact else v.astype(object)
    duals, at = np.array(dual), np.arange(r)
    while True:
        index = {c: t for t, c in enumerate(sorted(set(colours)))}
        size = len(index)
        cls = np.array([index[c] for c in colours])
        # counts[s * r + e][c * size + d]: total multiplicity with e in slot s
        # and colours c, d in the other two slots
        key = (x * size + cls[a]) * size + cls[b]
        if exact:
            counts = np.bincount(key, weights, minlength=3 * r * size * size).astype(np.int64)
        else:
            counts = np.zeros(3 * r * size * size, dtype=object)
            np.add.at(counts, key, weights)
        counts = counts.reshape(3, r, -1)
        # The refinement ends on a round whose hashes take no more values
        # than there are classes. When every element's three count rows and
        # dual class are those of one member of its class, they take one
        # value per class, or fewer on a collision: that needs no hashes.
        member = np.empty(size, dtype=np.intp)
        member[cls] = at  # with repeated classes, one of their members
        lead, dual_cls = member[cls], cls[duals]
        if not ((counts == counts[:, lead]).all() and (dual_cls == dual_cls[lead]).all()):
            counts = counts.reshape(3 * r, -1).tolist()
            refined = [hash((colours[e], colours[dual[e]],
                             tuple(counts[e]), tuple(counts[r + e]), tuple(counts[2 * r + e])))
                       for e in range(r)]
            if len(set(refined)) > size:
                colours = refined
                continue
        return tuple(colours)


@per_object_cache
def square_profiles(ring: FusionRing) -> tuple[int, ...]:
    """Per element i, the colours and multiplicities of i*i and of each x with i in x*x.

    Equal across isomorphic rings, like colour_classes, and finer than it on
    the diagonal n[x,x,k], which colour refinement only counts together with
    every other pair of the same colours: in Z2^3 x Z4 the one involution
    that is a square shares its colour with the other fourteen.
    find_isomorphism prunes with it and keeps colour classes as candidates.
    """
    c = colour_classes(ring)
    r = ring.rank
    i, j, k, m = _nonzeros(ring)
    diagonal = i == j  # the entries n[x,x,k]
    out: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    roots: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    for x, k, m in zip(*(a[diagonal].tolist() for a in (i, k, m))):
        out[x].append((c[k], m))
        roots[k].append((c[x], m))
    return tuple(hash((tuple(sorted(out[i])), tuple(sorted(roots[i])))) for i in range(r))


def find_isomorphism(r1: FusionRing, r2: FusionRing) -> tuple[int, ...] | None:
    """The least basis permutation s with n1[i,j,k] = n2[s(i),s(j),s(k)], or None.

    s fixes the unit and commutes with duality. Least compares maps by their
    images at order[0], order[1], ...: the non-unit colour classes of r1 by
    (size, smallest member), each class in increasing index. The search
    branches in that order and tries images in increasing index. Every prune
    below cuts only branches that hold no isomorphism, and every forced
    image is the only one an isomorphism can take, so the first complete
    map is the least.

    The unit is pinned to the unit and each element may only map to one of
    the same colour class (colour_classes); rings whose colour multisets
    differ, and then rings whose square_profiles multisets differ, are
    rejected before the backtracking search runs, and i -> p also needs
    equal square_profiles. Each step assigns a dual pair, i -> p and
    dual(i) -> dual(p), and checks each element x of the step once against
    every element j assigned by then: x*j against s(x)*s(j), on the sparse
    product tables (product_support). j*x needs no check of its own: with
    reciprocity it is dual(x)*dual(j) read backwards, and dual(x) is in the
    step too. A step propagates what it forces: for each unassigned
    constituent of a product x*j, the sole unassigned constituent of its
    colour class in s(x)*s(j), if there is one. A trail undoes the forced
    images on backtrack. No float is read: every decision is on integer
    structure. On two rings with Frobenius reciprocity and an involutive
    dual, every complete map is an isomorphism (proof at the final
    comparison, _maps_tensor on the nonzeros of r1); on other tensors that
    comparison is what rejects the maps that are not.
    """
    if r1.rank != r2.rank:
        return None
    rank = r1.rank
    c1, c2 = colour_classes(r1), colour_classes(r2)
    if sorted(c1) != sorted(c2):
        return None
    q1, q2 = square_profiles(r1), square_profiles(r2)
    if sorted(q1) != sorted(q2):
        return None
    of_colour: dict[int, list[int]] = {}
    for p in range(rank):
        of_colour.setdefault(c2[p], []).append(p)
    cands = [of_colour[c] for c in c1]
    s1, s2 = product_support(r1), product_support(r2)
    sigma, inverse = [-1] * rank, [-1] * rank
    trail: list[int] = []  # assigned elements, in assignment order
    # Branch on the element with the fewest unbranched elements left in its
    # colour class, lowest index first, forced or not. The rule reads no
    # image, so its order is fixed: a class once picked has the smallest
    # count until used up, giving the non-unit classes by (size, smallest
    # member), each in increasing index.
    classes: dict[int, list[int]] = {}
    for i in range(1, rank):
        classes.setdefault(c1[i], []).append(i)
    order = [i for cls in sorted(classes.values(), key=lambda m: (len(m), m[0])) for i in cls]

    def agrees(a: int, b: int, forced: list[tuple[int, int]]) -> bool:
        # a*b against s(a)*s(b): the same number of constituents, and equal
        # multiplicities wherever the image of a constituent is fixed
        left, right = s1[a][b], s2[sigma[a]][sigma[b]]
        if len(left) != len(right):
            return False
        free = []
        for k, m in left.items():
            q = sigma[k]
            if q < 0:
                free.append(k)
            elif right.get(q) != m:
                return False
        if not free:  # the images of left, all distinct, fill right
            return True
        # an isomorphism extending sigma maps the free constituents of a*b
        # onto the rest of s(a)*s(b), colour to colour: each needs one there
        # of its colour, and takes it when that one is alone
        images = [q for q in right if inverse[q] < 0]
        if len(images) != len(free):
            return False
        for k in free:
            match = [q for q in images if c2[q] == c1[k]]
            if not match or (len(match) == 1 and right[match[0]] != left[k]):
                return False
            if len(match) == 1:
                forced.append((k, match[0]))
        return True

    def assign(i: int, p: int) -> bool:
        queue = [(i, p)]
        while queue:
            i, p = queue.pop()
            d, e = r1.dual[i], r2.dual[p]
            step = []  # the step: i -> p and d -> e, where not yet assigned
            for x, q in ((i, p), (d, e)):
                if sigma[x] == q:
                    continue
                if sigma[x] >= 0 or inverse[q] >= 0 or c1[x] != c2[q] or q1[x] != q2[q]:
                    return False
                sigma[x], inverse[q] = q, x
                trail.append(x)
                step.append(x)
            if not step:
                continue
            # the dual of d, which is i unless the dual is no involution
            queue.append((r1.dual[d], r2.dual[e]))
            for x in step:
                for j in trail:
                    if not agrees(x, j, queue):
                        return False
        return True

    def undo(mark: int) -> None:
        for i in trail[mark:]:
            inverse[sigma[i]] = -1
            sigma[i] = -1
        del trail[mark:]

    def search(depth: int) -> bool:
        # A complete map commutes with duality: each step assigns i -> p with
        # dual(i) -> dual(p) and queues the pair of their duals, and assign
        # succeeds only on an empty queue. On rings with reciprocity and an
        # involutive dual the comparison cannot fail. Each element x of a
        # step was checked against every y assigned by the end of that step,
        # x*y with the images of those elements fixed, and x shares its step
        # with x*. Take n1[a,b,k] and the step of the last of a, b, k: if a
        # is in it, (a, b) was checked with k fixed; if k, (k, b*) with a
        # fixed, and n[k,b*,a] = n[a,b,k]; if b, (b*, a*) with k* fixed, and
        # n[b*,a*,k*] = n[a,b,k], on both rings, as s(x*) = s(x)*. Each pair
        # also has equal constituent counts, which gives the zeros. On other
        # tensors the comparison is the only guard
        # (test_iso_final_comparison_guards_rings_without_reciprocity).
        if len(trail) == rank:
            return _maps_tensor(r1, r2, sigma)
        i = order[depth]
        if sigma[i] >= 0:
            return search(depth + 1)
        for p in cands[i]:
            if inverse[p] >= 0:
                continue
            mark = len(trail)
            if assign(i, p) and search(depth + 1):
                return True
            undo(mark)
        return False

    if not (assign(0, 0) and search(0)):
        return None
    return tuple(sigma)
