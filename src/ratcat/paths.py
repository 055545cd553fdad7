"""Lattice words in {N, E}: levels, Dyck tests, enumeration, area, runs,
cyclic shifts, the sweep map, and maj on classical Dyck words."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd

from .qt import exact_quotient


class SweepContractError(RuntimeError):
    """The sweep map produced a non-Dyck word; this would falsify a claimed
    property of the map, so it must never pass silently."""


def _validate_counts(word, a, b):
    n = word.count("N")
    e = word.count("E")
    if n != a or e != b or len(word) != a + b:
        raise ValueError(f"word {word!r} is not in R(N^{a} E^{b})")


@dataclass(frozen=True)
class DyckPath:
    """An (a,b)-Dyck path: a N's, b E's, all levels nonnegative."""

    word: str
    a: int
    b: int

    def __post_init__(self):
        _validate_counts(self.word, self.a, self.b)
        if min(levels(self.word, self.a, self.b)) < 0:
            raise ValueError(f"{self.word} dips below the ({self.a},{self.b}) diagonal")


def levels(word, a, b):
    """Levels l_0..l_len: +b per N step, -a per E step, starting at 0.

    The level of the lattice point (x, y) reached after a prefix is b*y - a*x.
    """
    out = [0]
    cur = 0
    for step in word:
        cur += b if step == "N" else -a
        out.append(cur)
    return out


def is_dyck(word, a, b):
    """True iff the word stays weakly above y = (a/b) x."""
    _validate_counts(word, a, b)
    return min(levels(word, a, b)) >= 0


def enumerate_dyck(a, b):
    """Yield every (a,b)-Dyck path once, in lex order of words with N < E."""
    buf = []

    def rec(n_left, e_left, level):
        if n_left == 0 and e_left == 0:
            yield DyckPath("".join(buf), a, b)
            return
        if n_left:
            buf.append("N")
            yield from rec(n_left - 1, e_left, level + b)
            buf.pop()
        if e_left and level - a >= 0:
            buf.append("E")
            yield from rec(n_left, e_left - 1, level - a)
            buf.pop()

    yield from rec(a, b, 0)


def count_dyck(a, b):
    """Bizley's count (a+b-1)!/(a! b!) for coprime a, b."""
    if gcd(a, b) != 1:
        raise ValueError("count formula requires gcd(a,b)=1")
    return factorial(a + b - 1) // (factorial(a) * factorial(b))


def east_counts(word):
    """x_j = number of E steps preceding the j-th N step, j = 1..a."""
    out = []
    easts = 0
    for step in word:
        if step == "N":
            out.append(easts)
        else:
            easts += 1
    return out


def area(d: DyckPath):
    """Boxes fully contained between the path and the diagonal.

    The cell in column i, row j lies between them iff i > x_j and
    a*i <= b*(j-1); for coprime frames the diagonal meets no interior
    lattice point, so "fully contained" is unambiguous.
    """
    a, b = d.a, d.b
    total = 0
    for j, xj in enumerate(east_counts(d.word), start=1):
        total += max(0, b * (j - 1) // a - xj)
    return total


def max_area(a, b):
    return (a - 1) * (b - 1) // 2


def run_structure(word):
    """Multiplicities (m_0, ..., m_a) of vertical-run lengths.

    A run of length i is a subword N^i E preceded by E or at the start, so
    the word must end in E; length-0 runs count toward m_0.
    """
    if not word or word[-1] != "E":
        raise ValueError("run structure needs a word ending in E")
    a = word.count("N")
    m = [0] * (a + 1)
    run = 0
    for step in word:
        if step == "N":
            run += 1
        else:
            m[run] += 1
            run = 0
    return tuple(m)


def count_by_runs(a, b, m):
    """(b-1)!/(m_0! m_1! ... m_a!): Dyck paths with the given run structure."""
    if gcd(a, b) != 1:
        raise ValueError("count_by_runs requires gcd(a,b)=1")
    if len(m) != a + 1 or sum(i * mi for i, mi in enumerate(m)) != a or sum(m) != b:
        raise ValueError(f"invalid run multiplicities {m} for frame ({a},{b})")
    denom = 1
    for mi in m:
        denom *= factorial(mi)
    return exact_quotient(factorial(b - 1), denom)


def cyclic_shift(word, k):
    """Rotate left by k (mod length)."""
    if not word:
        return word
    k %= len(word)
    return word[k:] + word[:k]


def sweep(d: DyckPath) -> DyckPath:
    """Sort the steps of d by ascending wand label (level of each step's
    starting point). Requires a coprime frame so the labels are distinct."""
    a, b = d.a, d.b
    if gcd(a, b) != 1:
        raise ValueError("sweep requires gcd(a,b)=1")
    lv = levels(d.word, a, b)
    labeled = sorted((lv[i], step) for i, step in enumerate(d.word))
    word = "".join(step for _, step in labeled)
    try:
        return DyckPath(word, a, b)
    except ValueError as exc:
        raise SweepContractError(
            f"sweep({d.word}) produced non-Dyck word {word} in frame ({a},{b})"
        ) from exc


def is_dyck_word(w):
    """Classical Dyck word over {0,1}: every prefix has #0 >= #1."""
    bal = 0
    for ch in w:
        if ch == "0":
            bal += 1
        elif ch == "1":
            bal -= 1
        else:
            return False
        if bal < 0:
            return False
    return bal == 0


def maj(w):
    """Major index of a classical Dyck word: sum of descent positions."""
    if not is_dyck_word(w):
        raise ValueError(f"{w!r} is not a Dyck word over {{0,1}}")
    return sum(i for i in range(1, len(w)) if w[i - 1] > w[i])


def enumerate_dyck_words(n):
    """All classical Dyck words of order n (n zeroes, n ones), lex order."""
    for d in enumerate_dyck(n, n):
        # N at level-raise plays the role of 0 here: prefix #0 >= #1
        yield d.word.replace("N", "0").replace("E", "1")
