"""Named function-family generators.

Every generator returns a `TruthTable`; randomized families take an explicit
seed and are deterministic given it.
"""

from __future__ import annotations

import numpy as np

from .core import TruthTable, check_n, seeded_rng, weights_vector


def constant(n: int, value: int) -> TruthTable:
    check_n(n)
    if value not in (0, 1):
        raise ValueError("constant value must be 0 or 1")
    return TruthTable(n, np.full(1 << n, value, dtype=np.uint8))


def dictator(n: int, i: int = 1) -> TruthTable:
    """f(x) = x_i (1-based)."""
    check_n(n)
    if not 1 <= i <= n:
        raise ValueError(f"variable {i} out of range")
    idx = np.arange(1 << n)
    return TruthTable(n, ((idx >> (i - 1)) & 1).astype(np.uint8))


def or_fn(n: int) -> TruthTable:
    check_n(n)
    vals = np.ones(1 << n, dtype=np.uint8)
    vals[0] = 0
    return TruthTable(n, vals)


def and_fn(n: int) -> TruthTable:
    check_n(n)
    vals = np.zeros(1 << n, dtype=np.uint8)
    vals[-1] = 1
    return TruthTable(n, vals)


def parity(n: int, support: frozenset[int] | None = None) -> TruthTable:
    """XOR over the given 1-based variables (all of them by default)."""
    check_n(n)
    if support is None:
        support = frozenset(range(1, n + 1))
    if support and not all(1 <= i <= n for i in support):
        raise ValueError("support out of range")
    mask = sum(1 << (i - 1) for i in support)
    vals = np.bitwise_count(np.arange(1 << n) & mask).astype(np.uint8) & 1
    return TruthTable(n, vals)


def majority(n: int) -> TruthTable:
    check_n(n)
    if n % 2 == 0:
        raise ValueError("majority requires odd n")
    return TruthTable(n, (weights_vector(n) > n // 2).astype(np.uint8))


def tribes(s: int, n: int) -> TruthTable:
    """(n/s)-way OR of s-way ANDs over consecutive disjoint blocks."""
    check_n(n)
    if s < 1 or n % s != 0:
        raise ValueError(f"tribe size {s} must divide n={n}")
    idx = np.arange(1 << n)
    block = (1 << s) - 1
    vals = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n // s):
        vals |= ((idx >> (b * s)) & block) == block
    return TruthTable(n, vals)


def addressing(s: int, n: int, leaf_map: list[int] | None = None) -> TruthTable:
    """Decision tree reading s-1 address variables (x_1..x_{s-1}) and then one
    of the m = n-s+1 output variables; sensitivity is exactly s.

    `leaf_map[a]` gives the output variable (0-based within the m outputs)
    read at address a.  The default map sends address 0 to output 0 and every
    other address to a nonzero output, so flipping any single address bit at
    the witness point x = 0...0 1...1 0 changes the value.
    """
    check_n(n)
    if s < 1:
        raise ValueError("addressing needs s >= 1")
    if s > 1 and n < s + 1:
        raise ValueError(f"addressing needs n >= s+1 for s={s}")
    a_bits = s - 1
    m = n - a_bits
    if leaf_map is None:
        leaf_map = [0] + [1 + (j - 1) % (m - 1) if m > 1 else 0 for j in range(1, 1 << a_bits)]
    if len(leaf_map) != 1 << a_bits or any(not 0 <= v < m for v in leaf_map):
        raise ValueError("leaf map must assign an output variable to each address")
    idx = np.arange(1 << n)
    addr = idx & ((1 << a_bits) - 1)
    out_var = np.asarray(leaf_map, dtype=np.int64)[addr]
    vals = (idx >> (a_bits + out_var)) & 1
    return TruthTable(n, vals.astype(np.uint8))


def junta_lift(f: TruthTable, n: int, positions: list[int] | None = None) -> TruthTable:
    """Embed an m-variable function into n variables; `positions` lists the
    1-based target coordinate of each original variable (default 1..m)."""
    check_n(n)
    m = f.n
    if positions is None:
        positions = list(range(1, m + 1))
    if len(positions) != m or len(set(positions)) != m or not all(1 <= p <= n for p in positions):
        raise ValueError("positions must be m distinct coordinates in [1, n]")
    idx = np.arange(1 << n)
    sub = np.zeros(1 << n, dtype=np.int64)
    for j, p in enumerate(positions):
        sub |= ((idx >> (p - 1)) & 1) << j
    return TruthTable(n, f.values[sub])


def random_dt(n: int, depth: int, seed: int) -> TruthTable:
    """Uniform-ish random decision tree of the given depth (distinct
    variables along each path, random leaf bits); guarantees s(f) <= depth.

    The tree is drawn in pre-order (a node's variable, then its bit-0 subtree,
    then its bit-1 subtree, one bit per leaf), and each leaf writes its bit to
    its subcube through a strided view, so every entry is written once."""
    check_n(n)
    if not 0 <= depth <= n:
        raise ValueError(f"depth {depth} out of range")
    rng = seeded_rng(seed, "random-dt", n, depth)
    vals = np.zeros(1 << n, dtype=np.uint8)
    cube = vals.reshape((2,) * n)  # axis n - 1 - v holds variable v
    path: list = [slice(None)] * n

    def grow(d: int, avail: list[int]) -> None:
        if d == 0:
            cube[tuple(path)] = rng.integers(0, 2)
            return
        var = avail[rng.integers(len(avail))]
        rest = [v for v in avail if v != var]
        for bit in (0, 1):
            path[n - 1 - var] = bit
            grow(d - 1, rest)
        path[n - 1 - var] = slice(None)

    grow(depth, list(range(n)))
    return TruthTable(n, vals)


def random_function(n: int, seed: int) -> TruthTable:
    check_n(n)
    rng = seeded_rng(seed, "random", n)
    return TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))


def gen_family(kind: str, n: int, **kw) -> TruthTable:
    """String-keyed dispatcher used by the CLI `gen` subcommand."""
    def need(key: str):
        if kw.get(key) is None:
            raise ValueError(f"family {kind!r} needs the {key!r} parameter")
        return kw[key]

    if kind == "constant":
        return constant(n, need("value"))
    if kind == "dictator":
        return dictator(n, kw.get("var", 1))
    if kind == "or":
        return or_fn(n)
    if kind == "and":
        return and_fn(n)
    if kind == "parity":
        support = kw.get("support")
        return parity(n, frozenset(support) if support else None)
    if kind == "majority":
        return majority(n)
    if kind == "tribes":
        return tribes(need("s"), n)
    if kind == "addressing":
        return addressing(need("s"), n)
    if kind == "junta-lift":
        return junta_lift(need("inner"), n, kw.get("positions"))
    if kind == "random-dt":
        return random_dt(n, need("depth"), need("seed"))
    if kind == "random":
        return random_function(n, need("seed"))
    raise ValueError(f"unknown family {kind!r}")
