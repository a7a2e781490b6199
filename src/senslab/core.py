"""Core representations and exact complexity measures for Boolean functions.

Conventions shared by every module and by the file formats:

  * A point of the n-cube is an integer index in [0, 2^n); coordinate x_i
    (1-based) is bit (i-1) of the index.  Sorting points by index therefore
    coincides with sorting by sum(x_i * 2^i) (colex order on strings).
  * Bitstrings render coordinate 1 leftmost: "110" means x1=1, x2=1, x3=0,
    i.e. index 0b011 = 3.
  * Probabilities and biases are exact `fractions.Fraction` values unless a
    function is explicitly documented as a float fast path.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

import numpy as np

MAX_N = 24          # hard cap for truth-table scale
# n cap of distance_census, noise_sensitivity_all and expansion_reports, which build a
# (2^n, n+1) census or one Python object per point (a Fraction, a member of Lambda).  It
# stays because the CLI's ns, lambda and correct --mode global exit 2 above it.
PAIRWISE_MAX_N = 13


def check_n(n: int, cap: int | None = None) -> None:
    limit = min(cap, MAX_N) if cap is not None else MAX_N
    if not 1 <= n <= limit:
        raise ValueError(f"n={n} outside supported range [1, {limit}]")


def exact_fraction(value, refusal: str) -> Fraction:
    """value as an exact Fraction.  A float is refused, not converted, with
    ValueError(refusal.format(value)): Fraction(0.05) is 3602879701896397/2^56,
    not 1/20."""
    if isinstance(value, float):
        raise ValueError(refusal.format(value))
    return Fraction(value)


def popcount(x: int) -> int:
    return int(x).bit_count()


@lru_cache(maxsize=None)
def weights_vector(n: int) -> np.ndarray:
    """Hamming weight of every index in [0, 2^n) as uint8, cached per n."""
    w = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    w.setflags(write=False)
    return w


class Point(NamedTuple):
    n: int
    index: int

    def bits(self) -> str:
        return "".join("1" if (self.index >> i) & 1 else "0" for i in range(self.n))

    @classmethod
    def from_bits(cls, s: str) -> "Point":
        if set(s) - {"0", "1"}:
            raise ValueError(f"invalid bitstring {s!r}")
        check_n(len(s))
        idx = sum(1 << i for i, ch in enumerate(s) if ch == "1")
        return cls(len(s), idx)


def point(n: int, index: int) -> Point:
    check_n(n)
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for n={n}")
    return Point(n, index)


def weight(x: Point) -> int:
    return popcount(x.index)


def _point_indices(n: int, members: Iterable) -> np.ndarray:
    """The indices of `members` (indices or Points of the n-cube, read once) as
    an int64 array.  Anything else is refused, not coerced: a bool, a float, an
    index outside [0, 2^n) or a Point of another dimension.  A 1-d integer array
    is checked in numpy, without a Python object a member, and may be returned
    as it is."""
    if isinstance(members, np.ndarray) and members.ndim == 1 and members.dtype.kind in "iu":
        if len(members) and not (0 <= members.min() and members.max() < 1 << n):
            raise ValueError(f"member outside [0, {1 << n}) for n={n}")
        return members.astype(np.int64, copy=False)
    items = list(members)
    kinds = set(map(type, items))  # one type test per kind, not per member
    if any(issubclass(k, Point) for k in kinds):
        if any(m.n != n for m in items if isinstance(m, Point)):
            raise ValueError(f"member Point of another dimension than n={n}")
        items = [m.index if isinstance(m, Point) else m for m in items]
        kinds = set(map(type, items))
    bad = [k for k in kinds if issubclass(k, bool) or not issubclass(k, (int, np.integer))]
    if bad:
        raise ValueError(f"member of type {bad[0].__name__} is not a point index")
    if items and not (0 <= min(items) and max(items) < 1 << n):
        raise ValueError(f"member outside [0, {1 << n}) for n={n}")
    return np.array(items, dtype=np.int64)


class TruthTable:
    """Total Boolean function on n variables, one value per point index."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values):
        check_n(n)
        raw = np.asarray(values)
        if raw.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} values for n={n}, got {raw.shape}")
        # check before casting: the uint8 cast turns 256 and 0.7 into valid bits
        bits = (raw.max(initial=0) <= 1 if raw.dtype == np.uint8
                else np.array_equal(raw, raw.astype(bool)))
        if not bits:
            raise ValueError("truth-table values must be 0/1")
        arr = raw.astype(np.uint8)
        arr.setflags(write=False)
        self.n = n
        self.values = arr

    @classmethod
    def from_bits(cls, n: int, bits: str) -> "TruthTable":
        if len(bits) != 1 << n or set(bits) - {"0", "1"}:
            raise ValueError("bad truth-table bit string")
        return cls(n, np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0"))

    @classmethod
    def from_callable(cls, n: int, fn: Callable[[tuple[int, ...]], int]) -> "TruthTable":
        vals = [fn(tuple((i >> j) & 1 for j in range(n))) & 1 for i in range(1 << n)]
        return cls(n, vals)

    @classmethod
    def from_indices(cls, n: int, ones: Iterable[int]) -> "TruthTable":
        check_n(n)
        vals = np.zeros(1 << n, dtype=np.uint8)
        vals[_point_indices(n, ones)] = 1
        return cls(n, vals)

    def bits_string(self) -> str:
        return "".join("01"[v] for v in self.values)

    def __call__(self, x: Point | int) -> int:
        idx = x.index if isinstance(x, Point) else x
        if (isinstance(x, Point) and x.n != self.n) or not 0 <= idx < len(self.values):
            raise ValueError(f"{x!r} is not a point of the {self.n}-cube")
        return int(self.values[idx])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.n == other.n
            and bool(np.array_equal(self.values, other.values))
        )

    def __hash__(self):
        return hash((self.n, self.values.tobytes()))

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return TruthTable(self.n, self.values ^ other.values)

    def complement(self) -> "TruthTable":
        return TruthTable(self.n, 1 - self.values)

    def count_ones(self) -> int:
        return int(self.values.sum())

    def __repr__(self):
        if self.n <= 5:
            return f"TruthTable(n={self.n}, bits={self.bits_string()!r})"
        return f"TruthTable(n={self.n}, ones={self.count_ones()})"


@dataclass(frozen=True)
class IntegerFunction:
    """Integer-valued total function on the cube (multilinear coefficients,
    parity-rule extensions, ...)."""

    n: int
    values: np.ndarray  # int64, length 2^n

    def __post_init__(self):
        raw = np.asarray(self.values)
        if raw.shape != (1 << self.n,):
            raise ValueError("bad length")
        # check before casting: the int64 cast truncates 0.5 and overflows on 2**70
        if raw.dtype.kind not in "biu" or (
            raw.dtype.kind == "u" and raw.max(initial=0) > np.iinfo(np.int64).max
        ):
            raise ValueError("integer-function values must be integers in the int64 range")
        arr = raw.astype(np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def is_boolean(self) -> bool:
        return bool(np.isin(self.values, (0, 1)).all())

    def as_truth_table(self) -> TruthTable:
        if not self.is_boolean():
            raise ValueError("function is not 0/1-valued")
        return TruthTable(self.n, self.values.astype(np.uint8))

    def __eq__(self, other) -> bool:
        if isinstance(other, TruthTable):
            return self.n == other.n and bool(
                np.array_equal(self.values, other.values.astype(np.int64))
            )
        return (
            isinstance(other, IntegerFunction)
            and self.n == other.n
            and bool(np.array_equal(self.values, other.values))
        )


# ---------------------------------------------------------------------------
# neighborhood enumeration

def distances(n: int, center: int) -> np.ndarray:
    """wt(i ^ center) at every index i in [0, 2^n), as uint8.  Distance adds over
    the high and low halves of the bits, so this is an outer sum of two tables
    of about 2^(n/2) entries, with no 2^n-entry index array."""
    point(n, center)  # refuses n outside [1, MAX_N] and a center off the cube
    low = n // 2
    hi, lo = (np.bitwise_count(np.arange(1 << k, dtype=np.uint32) ^ np.uint32(c))
              for k, c in ((n - low, center >> low), (low, center & ((1 << low) - 1))))
    return np.add.outer(hi, lo).reshape(-1)


def lower_neighbors(x, k: int, center: int = 0):
    """Yield k neighbours of x one step nearer to center, for an index or a signed
    integer index array: x with the lowest, then the next lowest, ... set bit of
    x ^ center flipped (the lowest-set-bit walk, rest & -rest).  k must not
    exceed d(x, center)."""
    rest = x ^ center
    for _ in range(k):
        low = rest & -rest
        yield x ^ low
        rest ^= low


def all_set_bit_positions(n: int) -> np.ndarray:
    """table[x, j] = position of the j-th lowest set bit of x, as uint8 (255
    where x has at most j set bits), for every x of the n-cube: the bits that
    core.lower_neighbors clears in turn.  Built by doubling: bit k is the highest
    set bit of x | 2^k for x < 2^k, so rows [2^k, 2^(k+1)) are rows [0, 2^k) with
    k written at column wt(x)."""
    table = np.full((1 << n, n), 255, dtype=np.uint8)
    flat = table.reshape(-1)
    w = weights_vector(n)
    for k in range(n):
        h = 1 << k
        table[h : 2 * h] = table[:h]
        flat[np.arange(h, 2 * h, dtype=np.int64) * n + w[:h]] = k
    return table


def all_neighbors(x: Point) -> list[Point]:
    return [Point(x.n, x.index ^ (1 << i)) for i in range(x.n)]


def ball_indices(n: int, center: int, r: int) -> list[int]:
    """B(center, r), sorted by index."""
    if not 0 <= r <= n:
        raise ValueError(f"radius {r} out of range for n={n}")
    return np.flatnonzero(distances(n, center) <= r).tolist()


def ball_points(x: Point, r: int) -> list[Point]:
    """B(x, r), sorted by index."""
    return [Point(x.n, i) for i in ball_indices(x.n, x.index, r)]


def sphere_points(x: Point, r: int) -> list[Point]:
    """S(x, r): points at distance exactly r, sorted by index."""
    if not 0 <= r <= x.n:
        raise ValueError(f"radius {r} out of range")
    return [Point(x.n, i) for i in np.flatnonzero(distances(x.n, x.index) == r).tolist()]


def lower_shadow(x: Point, t: int) -> list[Point]:
    """D(x, t): points obtained by clearing exactly t one-coordinates of x."""
    if not 0 <= t <= weight(x):
        raise ValueError(f"t={t} exceeds weight {weight(x)}")
    ones = [i for i in range(x.n) if (x.index >> i) & 1]
    return [
        Point(x.n, x.index ^ sum(1 << p for p in pos)) for pos in combinations(ones, t)
    ]


# ---------------------------------------------------------------------------
# sensitivity

class SensResult(NamedTuple):
    s: int
    s0: int
    s1: int


def sensitivity_at(f: TruthTable, x: Point) -> int:
    idx, v = x.index, f(x)
    return int(sum(f.values[idx ^ (1 << i)] != v for i in range(f.n)))


def _coordinate_flips(values: np.ndarray, n: int):
    """For each coordinate i, the mask values != (values with bit i of the
    index flipped), over the last axis (length 2^n); leading axes are a
    batch of tables.  One gather per coordinate."""
    idx = np.arange(1 << n)
    for i in range(n):
        yield values != values[..., idx ^ (1 << i)]


# coordinates 1-3 move a point within its 8-point word: swap the bytes selected
# by the mask with the ones `shift` bytes up
_BYTE_SWAPS = (
    (np.uint64(0x00FF00FF00FF00FF), np.uint64(8)),
    (np.uint64(0x0000FFFF0000FFFF), np.uint64(16)),
    (np.uint64(0x00000000FFFFFFFF), np.uint64(32)),
)


def _sensitivity_counts(values: np.ndarray, n: int) -> np.ndarray:
    """Pointwise sensitivities over the last axis (length 2^n) of 0/1 tables,
    as a C-contiguous uint8 array of the same shape; leading axes are a batch.

    Counted eight points at a time: the table is read as uint64 words, one byte
    per point.  Coordinates 1-3 are byte swaps inside a word; coordinates >= 4
    pair whole words on the butterfly, and each stage adds d = lo ^ hi to the
    counts of both halves.  A count is at most n <= 24, so no byte carries into
    the next.  Tables with n < 3 are tiled to one word and sliced back."""
    size = values.shape[-1]
    if n < 3:
        values = np.tile(values, (1,) * (values.ndim - 1) + (8 >> n,))
    words = np.ascontiguousarray(values, dtype=np.uint8).view(np.uint64)
    # [0] holds the words, [1] their counts, so one butterfly pass updates both
    state = np.zeros((2,) + words.shape, dtype=np.uint64)
    state[0] = words
    for mask, shift in _BYTE_SWAPS[:n]:
        state[1] += words ^ (((words >> shift) & mask) | ((words & mask) << shift))

    def step(lo, hi, h):
        d = lo[0] ^ hi[0]
        lo[1] += d
        hi[1] += d

    counts = _butterfly(state, step)[1].view(np.uint8)
    return counts if n >= 3 else np.ascontiguousarray(counts[..., :size])


def pointwise_sensitivity(f: TruthTable) -> np.ndarray:
    """s(f, x) for every x at once (uint8 array of length 2^n)."""
    return _sensitivity_counts(f.values, f.n)


def sensitivity(f: TruthTable) -> SensResult:
    counts = pointwise_sensitivity(f)
    ones = f.values == 1
    s1 = int(counts[ones].max()) if ones.any() else 0
    s0 = int(counts[~ones].max()) if (~ones).any() else 0
    return SensResult(max(s0, s1), s0, s1)


# ---------------------------------------------------------------------------
# multilinear (Mobius) machinery

# One cache block of the butterfly's blocked schedule, all rows of its columns.
# large-n-kernels pass_s on a 2-vCPU VM (2 MiB L2 per core), seeds 11-16, median
# [range]: 2^18 2.49 [2.08-2.73] s, 2^19 2.21 [2.09-2.48] s, 2^20 2.22 [2.09-2.46] s;
# unblocked 3.30-3.36 s.  Per n = 22 call (best of 5, three rounds), the WHT takes
# 0.13-0.16 s at 2^18..2^20 against 0.29-0.34 s unblocked.
BLOCK_BYTES = 1 << 19
# Narrower blocks lose to the plain loop on tall batches.  int64 zeta, best of 5 on
# the same VM, blocked vs plain: 12648 x 16 (4-column blocks) 4.7 vs 1.9 ms; 2^18
# entries as 4096 x 64 (16 columns) 3.8 vs 3.2 ms, 2048 x 128 (32) 4.3 vs 3.1 ms,
# 1024 x 256 (64) 3.3 vs 3.7 ms, 512 x 512 (128) 3.1 vs 4.2 ms, 64 x 4096 (1024)
# 2.8 vs 4.5 ms.
MIN_BLOCK_COLUMNS = 64
# _batch_array holds a 2-D batch of this many rows or more point-major.  int64 parity
# extension on a 2-vCPU VM (best of 3-5), point-major vs row-major: n = 4, 64 rows
# 73 vs 108 us; n = 10, 64 rows 0.72 vs 2.27 ms; n = 16, 64 rows 152 vs 263 ms; but
# n = 16, 4 rows 9.0 vs 7.8 ms and n = 20, 8 rows 458 vs 372 ms (blocked schedule).
TALL_ROWS = 64


def _check_tables(tables, n: int) -> np.ndarray:
    """`tables` as an array, refused unless its last axis has length 2^n."""
    check_n(n)
    tables = np.asarray(tables)
    if tables.shape[-1:] != (1 << n,):
        raise ValueError(f"tables of shape {tables.shape} need a last axis of {1 << n} for n={n}")
    return tables


def _batch_array(tables: np.ndarray, dtype) -> np.ndarray:
    """A fresh copy of `tables` in `dtype`: point-major (the .T view of a C-contiguous
    (2^n, rows) array) for a 2-D batch of TALL_ROWS rows or more, else C-contiguous."""
    if tables.ndim == 2 and len(tables) >= TALL_ROWS:
        return np.array(tables.T, dtype=dtype, order="C").T
    return np.array(tables, dtype=dtype, order="C")


def _stages(x: np.ndarray, op, h: int, stop: int, tail: tuple[int, ...]) -> None:
    """Butterfly stages h, 2h, ... below `stop` over the axis of x that precedes
    the trailing axes `tail`; the axes before it are batch axes."""
    k = x.ndim - 1 - len(tail)
    lead, size = x.shape[:k], x.shape[k]
    rest = (slice(None),) * (1 + len(tail))
    while h < stop:
        pairs = x.reshape(lead + (size // (2 * h), 2, h) + tail)
        op(pairs[(..., 0) + rest], pairs[(..., 1) + rest], h)
        h <<= 1


def _butterfly(arr: np.ndarray, op: Callable[[np.ndarray, np.ndarray, int], object]) -> np.ndarray:
    """In-place Yates butterfly over the last axis (length 2^n); leading axes
    are batch axes.  Stage h = 1, 2, 4, ... calls op(lo, hi, h) on the views of
    the indices with bit h clear and set; op must update them in place,
    elementwise along every axis but the leading ones.

    The memory layout picks the schedule.  A point-major 2-D batch (see
    _batch_array) runs each stage once with the batch as the inner loop; its op
    must be elementwise along every axis.  A C-contiguous array is cache-blocked
    once the last axis is longer than one block: the most columns (a power of
    two) whose rows fit in BLOCK_BYTES, when that is at least MIN_BLOCK_COLUMNS.
    Block by block, the lower half of its bits runs on a transposed copy in a
    buffer (the low bits as a leading axis, so each inner loop is long instead
    of h elements); the copy is written back and the block's higher bits run in
    place while it is still in cache.  The stages with h >= block then run over
    the whole array.  Every element meets the same op at the same stage, and the
    stages of any one element run in the order h = 1, 2, 4, ..., so every
    output, float round-off included, is bit-identical to the plain
    stage-by-stage loop.  Any other layout is refused."""
    if not arr.flags.c_contiguous:
        if arr.ndim != 2 or not arr.flags.f_contiguous:
            raise ValueError("butterfly needs a C-contiguous array or a point-major 2-D batch")
        _stages(arr.T, op, 1, arr.shape[-1], arr.shape[:1])
        return arr
    lead, size = arr.shape[:-1], arr.shape[-1]
    cols = BLOCK_BYTES * size // max(arr.nbytes, 1)  # columns of all rows in one block
    block = 1 << (cols.bit_length() - 1) if cols >= MIN_BLOCK_COLUMNS else size
    h = 1
    if block < size:
        low = 1 << (block.bit_length() - 1) // 2
        blocks = arr.reshape(lead + (size // block, block // low, low))
        transposed = np.empty(lead + (low, block // low), dtype=arr.dtype)
        for j in range(size // block):
            view = blocks[..., j, :, :]
            np.copyto(transposed, view.swapaxes(-1, -2))
            _stages(transposed, op, 1, low, (block // low,))
            np.copyto(view, transposed.swapaxes(-1, -2))
            _stages(view.reshape(lead + (block,)), op, low, block, ())
        h = block
    _stages(arr, op, h, size, ())
    return arr


def _exact_int(bound: int) -> np.dtype:
    """The narrowest of int8, int16, int32 and int64 that holds [-bound, bound], and
    object (Python ints) beyond int64: the work dtype of an integer butterfly whose
    partial sums all stay within `bound`.  The bounds its callers pass:
      * Mobius of a 0/1 table: a partial sum is a Mobius coefficient of a
        restriction, so |c| <= 2^(n-1), met by parity;
      * zeta of c: a partial sum is a subset sum, so at most 2^n max|c|;
      * low-degree (parity) extension of entries |v| <= M: the Mobius pass stays
        within 2^n M, and the coefficients |c_S| <= 2^|S| M that survive sum to at
        most M 3^n (at n <= 4 the largest value over all 0/1 tables is 9, not 81);
      * integer noise step [[q-p, p], [p, q-p]] on a 0/1 table: at most q^n.
    A narrower dtype moves fewer bytes per stage: an n = 22 Mobius pass takes
    0.038-0.040 s in int32 against 0.070-0.075 s in int64 (2-vCPU VM, best and
    median of 7)."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(object)


def _mobius_int(arr: np.ndarray) -> np.ndarray:
    """In-place subset Mobius transform over the integers; arr length 2^n."""
    return _butterfly(arr, lambda lo, hi, h: np.subtract(hi, lo, out=hi))


def _zeta_int(arr: np.ndarray) -> np.ndarray:
    """In-place subset sum (zeta) transform; inverse of `_mobius_int`."""
    return _butterfly(arr, lambda lo, hi, h: np.add(hi, lo, out=hi))


def _zeta_f2(arr: np.ndarray) -> np.ndarray:
    """In-place subset transform mod 2 (self-inverse)."""
    return _butterfly(arr, lambda lo, hi, h: np.bitwise_xor(hi, lo, out=hi))


def mobius_coefficients(f: TruthTable) -> IntegerFunction:
    """Coefficients c_S (indexed by the set's bitmask) of the unique
    multilinear integer polynomial agreeing with f on {0,1}^n.  The butterfly runs in
    _exact_int(2^(n-1)) (int8 to n = 7, int16 to 15, int32 beyond); IntegerFunction
    widens the result to int64."""
    return IntegerFunction(f.n, _mobius_int(f.values.astype(_exact_int(1 << (f.n - 1)))))


def zeta_transform(c: IntegerFunction) -> IntegerFunction:
    """Evaluate a coefficient vector back into point values.  The butterfly runs in
    _exact_int(2^n max|c|), in Python ints past int64, and a value outside int64 is
    refused by IntegerFunction rather than wrapped."""
    top = max(int(c.values.max()), -int(c.values.min()))
    vals = _zeta_int(c.values.astype(_exact_int((1 << c.n) * top)))
    return IntegerFunction(c.n, vals if vals.dtype != object else np.array(vals.tolist()))


def mobius_coefficients_f2(f: TruthTable) -> TruthTable:
    return TruthTable(f.n, _zeta_f2(f.values.copy()))


def _degrees(tables, n: int, mod2: bool = False) -> np.ndarray:
    """deg(f), or deg over F2 with `mod2`, of every 0/1 table over the last axis
    (length 2^n) as uint8; leading axes are a batch.  A degree is the highest
    weight of a nonzero coefficient, 0 for the zero function.  Over the integers the
    butterfly runs in _exact_int(2^(n-1)), the Mobius bound of a 0/1 table."""
    tables = _check_tables(tables, n)
    coeffs = (_zeta_f2(_batch_array(tables, np.uint8)) if mod2
              else _mobius_int(_batch_array(tables, _exact_int(1 << (n - 1)))))
    return ((coeffs != 0) * weights_vector(n)).max(axis=-1, initial=0)


def degree(f: TruthTable) -> int:
    return int(_degrees(f.values, f.n))


def degree_f2(f: TruthTable) -> int:
    return int(_degrees(f.values, f.n, mod2=True))


# ---------------------------------------------------------------------------
# bias, subcubes, distances

def bias(f: TruthTable) -> tuple[Fraction, Fraction]:
    ones = f.count_ones()
    size = 1 << f.n
    return Fraction(size - ones, size), Fraction(ones, size)


def is_subcube(n: int, indices) -> bool:
    """True iff the point set equals the set of all points agreeing with one
    member on every coordinate where the set is constant."""
    idx = np.asarray(sorted(indices), dtype=np.int64)
    if len(idx) == 0:
        return False
    full = (1 << n) - 1
    and_all = int(np.bitwise_and.reduce(idx))
    or_all = int(np.bitwise_or.reduce(idx))
    fixed = full ^ (and_all ^ or_all)  # coordinates where all members agree
    free = n - popcount(fixed)
    return len(idx) == (1 << free)


@dataclass(frozen=True)
class BiasBoundReport:
    holds_0: bool
    holds_1: bool
    tight_0: bool
    tight_1: bool
    subcube_0: bool
    subcube_1: bool


def check_bias_bound(f: TruthTable) -> BiasBoundReport:
    """Per output value b: s_b(f) >= log2(1/mu_b(f)) whenever mu_b > 0, with
    equality exactly when the preimage is a subcube.  Integer arithmetic."""
    size = 1 << f.n
    sres = sensitivity(f)
    out = {}
    for b, s_b in ((0, sres.s0), (1, sres.s1)):
        members = np.nonzero(f.values == b)[0]
        count = len(members)
        if count == 0:
            out[b] = (True, False, False)
            continue
        holds = count * (1 << s_b) >= size
        tight = count * (1 << s_b) == size
        out[b] = (holds, tight, is_subcube(f.n, members))
    return BiasBoundReport(
        holds_0=out[0][0], holds_1=out[1][0],
        tight_0=out[0][1], tight_1=out[1][1],
        subcube_0=out[0][2], subcube_1=out[1][2],
    )


def relevant_variables(f: TruthTable) -> frozenset[int]:
    """1-based indices i such that f(x) != f(x ^ e_i) for some x."""
    return frozenset(i + 1 for i, flips in enumerate(_coordinate_flips(f.values, f.n)) if flips.any())


# ---------------------------------------------------------------------------
# ball advice

class BallAdvice:
    """Partial function: the values of some f on exactly B(center, radius), held
    as a read-only length-2^n uint8 table with 255 outside the ball."""

    __slots__ = ("n", "center", "radius", "values")

    def __init__(self, center: Point, radius: int, values: np.ndarray):
        n = center.n
        if not 0 <= radius <= n:
            raise ValueError(f"radius {radius} out of range")
        outside = distances(n, center.index) > radius  # refuses n and a center off the cube
        raw = np.asarray(values)  # a dict becomes a 0-d array, refused for its shape
        if raw.shape != (1 << n,):
            raise ValueError(f"expected a table of {1 << n} advice values for n={n}, got {raw.shape}")
        if raw.dtype.kind not in "iu":
            raise ValueError(f"advice values must be integers, not dtype {raw.dtype}")
        # checked before the uint8 cast, which would turn 256 into 0; points
        # outside the ball first, so a point moved out of the ball is named as such
        for bad, where, want in ((outside & (raw != 255), "outside", "255"),
                                 (~outside & ((raw < 0) | (raw > 1)), "inside", "0 or 1")):
            if bad.any():
                i = int(bad.argmax())
                raise ValueError(f"advice value {raw[i]} at point {i} {where} the ball, expected {want}")
        self.n, self.center, self.radius = n, center, radius
        self.values = raw.astype(np.uint8)
        self.values.setflags(write=False)

    def __getitem__(self, x: Point | int) -> int:
        idx = x.index if isinstance(x, Point) else x
        if idx not in self:
            raise KeyError(idx)
        return int(self.values[idx])

    def __contains__(self, x: Point | int) -> bool:
        idx = x.index if isinstance(x, Point) else x
        return 0 <= idx < len(self.values) and self.values[idx] != 255

    def __eq__(self, other):
        return (
            isinstance(other, BallAdvice)
            and (self.n, self.center, self.radius) == (other.n, other.center, other.radius)
            and bool(np.array_equal(self.values, other.values))
        )


def restrict_to_ball(f: TruthTable, x0: Point, r: int) -> BallAdvice:
    return BallAdvice(x0, r, np.where(distances(f.n, x0.index) <= r, f.values, np.uint8(255)))


# ---------------------------------------------------------------------------
# profile

@dataclass(frozen=True)
class ComplexityProfile:
    s: int
    s0: int
    s1: int
    deg: int
    deg2: int
    mu0: Fraction
    mu1: Fraction
    relevant: frozenset[int]


def profile(f: TruthTable) -> ComplexityProfile:
    sres = sensitivity(f)
    mu0, mu1 = bias(f)
    return ComplexityProfile(
        s=sres.s, s0=sres.s0, s1=sres.s1,
        deg=degree(f), deg2=degree_f2(f),
        mu0=mu0, mu1=mu1,
        relevant=relevant_variables(f),
    )


# ---------------------------------------------------------------------------
# seeding

def seeded_rng(seed: int, *labels) -> np.random.Generator:
    """Deterministic per-component stream: PCG64 keyed on
    [seed, crc32(label_1), crc32(label_2), ...]."""
    words = [seed & 0xFFFFFFFFFFFFFFFF]
    for lab in labels:
        if isinstance(lab, int):
            words.append(lab & 0xFFFFFFFF)
        else:
            words.append(zlib.crc32(str(lab).encode()))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))
