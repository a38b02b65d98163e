"""Permutations of 1..n in one-line notation (tuples with values 1..n):
inverses, inversions, first right descents and 321-avoidance."""

from __future__ import annotations

import itertools


def perm_inverse(u: tuple) -> tuple:
    out = [0] * len(u)
    for i, v in enumerate(u, start=1):
        out[v - 1] = i
    return tuple(out)


def perm_length(u: tuple) -> int:
    """Number of inversions."""
    n = len(u)
    return sum(1 for a in range(n) for b in range(a + 1, n) if u[a] > u[b])


def apply_s(u: tuple, i: int) -> tuple:
    """Right multiplication by s_i (swap positions i, i+1)."""
    v = list(u)
    v[i - 1], v[i] = v[i], v[i - 1]
    return tuple(v)


def first_right_descent(u: tuple):
    """Smallest i with u(i) > u(i+1), so that u s_i < u; None at the
    identity."""
    for i in range(1, len(u)):
        if u[i - 1] > u[i]:
            return i
    return None


def is_321_avoiding(u: tuple) -> bool:
    n = len(u)
    for a in range(n):
        for b in range(a + 1, n):
            if u[a] > u[b]:
                for c in range(b + 1, n):
                    if u[b] > u[c]:
                        return False
    return True


def enumerate_321_avoiding(n: int):
    for u in itertools.permutations(range(1, n + 1)):
        if is_321_avoiding(u):
            yield u
