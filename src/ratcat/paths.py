"""Lattice words in {N, E}: levels, Dyck tests, enumeration, area, runs,
the sweep map, and maj."""

from __future__ import annotations

from math import factorial, gcd

from .qt import Record, exact_quotient


class SweepContractError(RuntimeError):
    """The sweep map produced a non-Dyck word; this would falsify a claimed
    property of the map, so it must never pass silently."""


def _validate_counts(word, a, b):
    n = word.count("N")
    e = word.count("E")
    if n != a or e != b or len(word) != a + b:
        raise ValueError(f"word {word!r} is not in R(N^{a} E^{b})")


class DyckPath(Record):
    """An (a,b)-Dyck path: a N's, b E's, all levels nonnegative."""

    _fields = ("word", "a", "b")

    def __init__(self, word: str, a: int, b: int):
        self.__dict__.update(word=word, a=a, b=b)
        self.__post_init__()

    def __post_init__(self):
        _validate_counts(self.word, self.a, self.b)
        if min(levels(self.word, self.a, self.b)) < 0:
            raise ValueError(f"{self.word} dips below the ({self.a},{self.b}) diagonal")

    @classmethod
    def _trusted(cls, word, a, b):
        """Build from a word known to be an (a,b)-Dyck word; no checks."""
        d = object.__new__(cls)
        d.__dict__.update(word=word, a=a, b=b)
        return d


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


def enumerate_dyck(a, b):
    """Every (a,b)-Dyck path once, in lex order of words with N < E, as an
    iterator; negative counts raise ValueError at the call. The walk never
    lets a level go below 0, so its paths are built unchecked."""
    if a < 0 or b < 0:
        raise ValueError(f"step counts must be nonnegative, got ({a},{b})")
    return _dyck_walk(a, b)


def _dyck_walk(a, b):
    """The paths of enumerate_dyck: depth first on a stack of (prefix, N
    steps left, E steps left, level). Once the N steps are down, the level
    is a times the E steps left, so the prefix ends in those at once."""
    stack = [("", a, b, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        word, n, e, level = pop()
        if not n:
            yield DyckPath._trusted(word + "E" * e, a, b)
            continue
        if e and level >= a:  # pushed first, so the N child is walked first
            push((word + "E", n, e - 1, level - a))
        push((word + "N", n - 1, e, level + b))


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


def maj(d: DyckPath):
    """Major index of a Dyck path: the sum of the positions i (from 1) at
    which an E step is followed by an N step. On a classical (n,n) path,
    read N as 0 and E as 1, these are the descents of the Dyck word."""
    w = d.word
    return sum(i for i in range(1, len(w)) if w[i - 1] == "E" and w[i] == "N")
