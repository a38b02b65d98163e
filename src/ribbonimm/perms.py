"""Permutations of 1..n in one-line notation (tuples with values 1..n):
products, inversions, signs, descents, reduced words and 321-avoidance."""

from __future__ import annotations

import itertools


def identity_perm(n) -> tuple:
    return tuple(range(1, n + 1))


def perm_mul(u: tuple, v: tuple) -> tuple:
    """Composition (u*v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(u)))


def perm_inverse(u: tuple) -> tuple:
    out = [0] * len(u)
    for i, v in enumerate(u, start=1):
        out[v - 1] = i
    return tuple(out)


def perm_length(u: tuple) -> int:
    """Number of inversions."""
    n = len(u)
    return sum(1 for a in range(n) for b in range(a + 1, n) if u[a] > u[b])


def perm_sign(u: tuple) -> int:
    return -1 if perm_length(u) % 2 else 1


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


def reduced_word(u: tuple) -> tuple:
    """Lexicographically smallest reduced word of u.

    Greedy: the smallest left descent i (value i + 1 stands before value
    i) comes first, then the word of s_i u, made by swapping the
    positions of the two values.  Only the descent at i - 1 can be new
    after the swap, so the search resumes there.
    """
    pos = list(perm_inverse(u))  # pos[v - 1]: the position of value v
    word, i = [], 1
    while i < len(pos):
        if pos[i] < pos[i - 1]:
            word.append(i)
            pos[i - 1], pos[i] = pos[i], pos[i - 1]
            i = max(i - 1, 1)
        else:
            i += 1
    return tuple(word)


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
