"""Readers/writers for the two on-disk formats.

Truth-table file (".tt"):
    line 1: `n=<k>`
    line 2: 2^k characters from {0,1}; position i (0-based) is f at index i.

Ball-advice file (".ball"):
    line 1: `n=<k> center=<k-char bitstring> radius=<r>` (coordinate 1 leftmost)
    then one line per point, `<bitstring> <0|1>`, in increasing index order,
    covering exactly the ball B(center, radius).
"""

from __future__ import annotations

import re
from math import comb
from pathlib import Path

import numpy as np

from .core import BallAdvice, Point, TruthTable, check_n


class FormatError(ValueError):
    pass


def write_truth_table(f: TruthTable, path: str | Path) -> None:
    Path(path).write_text(f"n={f.n}\n{f.bits_string()}\n")


def _read_lines(path: str | Path) -> list[str]:
    try:
        return Path(path).read_text().splitlines()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def read_truth_table(path: str | Path) -> TruthTable:
    lines = _read_lines(path)
    if len(lines) < 2:
        raise FormatError(f"{path}: expected a header line and a bits line")
    m = re.fullmatch(r"n=([0-9]+)", lines[0].strip())
    if not m:
        raise FormatError(f"{path}: bad header {lines[0]!r}")
    bits = lines[1].strip()
    try:
        n = int(m.group(1))  # raises past Python's 4300-digit limit
        check_n(n)
        return TruthTable.from_bits(n, bits)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e


def write_ball_advice(adv: BallAdvice, path: str | Path) -> None:
    out = [f"n={adv.n} center={adv.center.bits()} radius={adv.radius}"]
    idx = np.flatnonzero(adv.values != 255)
    # Point.bits, inline: the binary digits of an index in the ball, lowest first
    out += [f"{i:0{adv.n}b}"[::-1] + f" {v}" for i, v in zip(idx.tolist(), adv.values[idx].tolist())]
    Path(path).write_text("\n".join(out) + "\n")


def read_ball_advice(path: str | Path) -> BallAdvice:
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty file")
    m = re.fullmatch(r"n=([0-9]+) center=([01]+) radius=([0-9]+)", lines[0].strip())
    if not m:
        raise FormatError(f"{path}: bad header {lines[0]!r}")
    center_bits = m.group(2)
    try:
        n, radius = int(m.group(1)), int(m.group(3))
        check_n(n)
        if not 0 <= radius <= n:
            raise ValueError(f"radius {radius} out of range")
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e
    if len(center_bits) != n:
        raise FormatError(f"{path}: center has {len(center_bits)} bits, expected {n}")
    center = Point.from_bits(center_bits)
    # the count is checked before any 2^n allocation; BallAdvice then checks each point
    size = sum(comb(n, i) for i in range(radius + 1))
    if len(lines) - 1 != size:
        raise FormatError(f"{path}: advice domain is not exactly the ball: "
                          f"advice covers {len(lines) - 1} points, ball has {size}")
    table = np.full(1 << n, 255, dtype=np.uint8)
    last = -1
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or parts[1] not in ("0", "1"):
            raise FormatError(f"{path}: bad advice line {ln!r}")
        bits = parts[0]
        if len(bits) != n:
            raise FormatError(f"{path}: point {bits!r} has wrong length")
        # Point.from_bits, inline: n is checked once above, not per point
        if bits.strip("01"):
            raise ValueError(f"invalid bitstring {bits!r}")
        idx = int(bits[::-1], 2)
        if idx <= last:
            raise FormatError(f"{path}: duplicate point {bits!r}" if idx == last
                              else f"{path}: points not in increasing index order")
        table[idx], last = int(parts[1]), idx
    try:
        return BallAdvice(center, radius, table)
    except ValueError as e:
        raise FormatError(f"{path}: advice domain is not exactly the ball: {e}") from e
