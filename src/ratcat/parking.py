"""Classical and rational parking functions.

A parking function is a Dyck path plus north-step labels listed bottom to
top, strictly increasing within each vertical run. Classical objects live in
an n x n frame; rational objects in a coprime (a,b) frame. The public
constructor validates. The labelings of a path are walked as raw label
tuples (_label_tuples); labelings_of wraps each in the trusted constructor,
which skips the checks.

dinv has one formula here, read off per-path terms (dinv offset, dinv
bound, pairs, reading order): the offset plus the pairs (i, j) with
p_i < p_j. The q,t-series kernel in frob reads these terms once per path and
places the labels 1..a on it, carrying dinv and the descent set of the
reading word as it goes.

Rational dinv is read off the levels at the feet of the north steps, as
tdinv(P) - maxtdinv(D) + d(P) (Armstrong-Loehr-Warrington, section 5).
Classical dinv pairs rows by area-cell count (the g-vector).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .paths import DyckPath, area, east_counts, levels, sweep
from .qt import Record


class ParkingFunction(Record):
    """Labels on the north steps of an (a,b)-Dyck path; path, the DyckPath
    of word, is neither compared nor shown."""

    _fields = ("word", "labels", "a", "b")

    def __init__(self, word: str, labels: tuple, a: int, b: int):
        self.__dict__.update(word=word, labels=labels, a=a, b=b)
        self.__post_init__()

    def __post_init__(self):
        self.__dict__["path"] = DyckPath(self.word, self.a, self.b)
        if len(self.labels) != self.a:
            raise ValueError("one label per north step required")
        if sorted(self.labels) != list(range(1, self.a + 1)):
            raise ValueError(f"labels {self.labels} are not a permutation of 1..{self.a}")
        for run in _run_label_groups(self.word, self.labels):
            if any(run[i] >= run[i + 1] for i in range(len(run) - 1)):
                raise ValueError(f"labels {run} do not increase up a column")

    @classmethod
    def _trusted(cls, path, labels):
        """Build on a validated path from labels known to fit it; no checks."""
        pf = object.__new__(cls)
        pf.__dict__.update(word=path.word, labels=labels, a=path.a, b=path.b,
                           path=path)
        return pf

    def to_json(self):
        return {"word": self.word, "labels": list(self.labels), "frame": [self.a, self.b]}


def _run_label_groups(word, labels):
    """Labels grouped by maximal vertical run, bottom to top."""
    groups = []
    it = iter(labels)
    run = []
    for step in word:
        if step == "N":
            run.append(next(it))
        elif run:
            groups.append(run)
            run = []
    if run:
        groups.append(run)
    return groups


# -- classical encoding ----------------------------------------------------


class NotAParkingFunction(ValueError):
    pass


def from_preference_vector(v):
    """Build the labeled n x n Dyck path for a preference vector.

    Valid iff the increasing rearrangement b_1 <= ... <= b_n has b_i <= i.
    Car j labels vertical run i when v_j = i.
    """
    n = len(v)
    if any(not 1 <= x <= n for x in v):
        raise NotAParkingFunction(f"{v} has preferences outside 1..{n}")
    if any(x > i for i, x in enumerate(sorted(v), start=1)):
        raise NotAParkingFunction(f"{v} fails the rearrangement test")
    runs = [[] for _ in range(n)]
    for car, pref in enumerate(v, start=1):
        runs[pref - 1].append(car)
    word = "".join("N" * len(r) + "E" for r in runs)
    labels = tuple(itertools.chain.from_iterable(sorted(r) for r in runs))
    return ParkingFunction(word, labels, n, n)


def enumerate_pf(a, b):
    """All valid labelings of all (a,b)-Dyck paths."""
    from .paths import enumerate_dyck

    for d in enumerate_dyck(a, b):
        yield from labelings_of(d)


def labelings_of(d: DyckPath):
    """All parking functions with underlying path d."""
    for labels in _label_tuples(d):
        yield ParkingFunction._trusted(d, labels)


def _label_tuples(d: DyckPath):
    """The label tuples of the parking functions on d, bottom to top, in
    lexicographic order: each run takes a combination of the labels left
    over, and the last run takes the rest. Read by labelings_of and by
    verify's fixed-point counts."""
    sizes = [len(g) for g in _run_label_groups(d.word, range(d.a))]
    last = max(len(sizes) - 1, 0)

    def rec(prefix, pool, r):
        if r == last:
            yield prefix + pool
            return
        for chosen in itertools.combinations(pool, sizes[r]):
            yield from rec(prefix + chosen,
                           tuple(x for x in pool if x not in chosen), r + 1)

    return rec((), tuple(range(1, d.a + 1)), 0)


# -- classical statistics --------------------------------------------------


def _g_vector(d: DyckPath):
    if d.a != d.b:
        raise ValueError("gp vectors are defined for the classical frame")
    return tuple(i - x for i, x in enumerate(east_counts(d.word)))


@lru_cache(maxsize=1)
def _classical_terms(d: DyckPath):
    """(dinv offset, dinv bound, pairs, reading order) of an n x n path.

    With g_i the area cells of row i, dinv counts the rows i < j with
    g_i = g_j and p_i < p_j, or g_i = g_j + 1 and p_i > p_j: the pairs are
    (i, j) and (j, i) respectively, so dinv counts label-increasing pairs
    from offset 0. The diagonal reading order takes higher diagonals first,
    each scanned NE to SW.
    """
    g = _g_vector(d)
    n = len(g)
    pairs = tuple((i, j) if g[i] == g[j] else (j, i)
                  for i in range(n) for j in range(i + 1, n)
                  if g[i] == g[j] or g[i] == g[j] + 1)
    order = tuple(sorted(range(n), key=lambda i: (-g[i], -i)))
    return 0, len(pairs), pairs, order


def _dinv(labels, terms):
    """The offset plus the pairs (i, j) with labels[i] < labels[j]; a value
    outside 0..bound raises AssertionError, also under python -O."""
    offset, bound, pairs, _ = terms
    value = offset
    for i, j in pairs:
        if labels[i] < labels[j]:
            value += 1
    if not 0 <= value <= bound:
        raise AssertionError(f"dinv {value} outside 0..{bound} for labels {labels}")
    return value


def _ranks(order):
    """Position of each north step in the reading order."""
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    return rank


def dinv_classical(pf):
    """Pairs i < j with g_i = g_j, p_i < p_j or g_i = g_j + 1, p_i > p_j."""
    return _dinv(pf.labels, _classical_terms(pf.path))


def drw_classical(pf):
    """Diagonal reading word: higher diagonals first, each scanned NE to SW."""
    labels = pf.labels
    return tuple(labels[i] for i in _classical_terms(pf.path)[3])


# -- the zeta map ----------------------------------------------------------


class RootNotationPF(Record):
    """Classical parking function in root notation: path plus the permutation
    written along the diagonal y = x."""

    _fields = ("word", "diagonal_word")

    def __init__(self, word: str, diagonal_word: tuple):
        self.__dict__.update(word=word, diagonal_word=diagonal_word)
        self.__post_init__()

    def __post_init__(self):
        n = len(self.diagonal_word)
        DyckPath(self.word, n, n)
        for j, k in _left_turns(self.word):
            if self.diagonal_word[j - 1] >= self.diagonal_word[k - 1]:
                raise ValueError("left-turn square has a non-increasing label pair")


def _left_turns(word):
    """Squares (column, row) sitting above an E step and left of an N step."""
    out = []
    x = y = 0
    prev = None
    for step in word:
        if step == "N" and prev == "E":
            out.append((x, y + 1))
        if step == "N":
            y += 1
        else:
            x += 1
        prev = step
    return out


def zeta(pf) -> RootNotationPF:
    """Map coset notation to root notation.

    The diagonal word is the reverse of the diagonal reading word; the path
    is the unique Dyck path whose left-turn squares are the valley pairs
    (positions of vertically adjacent labels). Valley pairs are non-nesting,
    so the path exists; we rebuild and check the left-turn set regardless.
    """
    n = pf.a
    diag = tuple(reversed(drw_classical(pf)))
    pos = {x: i + 1 for i, x in enumerate(diag)}
    valleys = []
    for run in _run_label_groups(pf.word, pf.labels):
        for low, high in zip(run, run[1:]):
            valleys.append((pos[low], pos[high]))
    # valley square (column j, row k) forces an EN corner at vertex (j, k-1)
    verts = sorted((j, k - 1) for j, k in valleys)
    for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
        if x1 >= x2 or y1 >= y2:
            raise AssertionError(f"nested valley vertices {verts} for {pf}")
    word = []
    px = py = 0
    for x, y in verts:
        word.append("N" * (y - py) + "E" * (x - px))
        px, py = x, y
    word.append("N" * (n - py) + "E" * (n - px))
    word = "".join(word)
    if sorted(_left_turns(word)) != sorted((j, k) for j, k in ((x, y + 1) for x, y in verts)):
        raise AssertionError(f"rebuilt path {word} has wrong left-turn set")
    return RootNotationPF(word, diag)


def area_prime(r: RootNotationPF):
    """Boxes strictly between path and diagonal whose (column-label,
    row-label) pair increases."""
    n = len(r.diagonal_word)
    heights = []
    y = 0
    for step in r.word:
        if step == "N":
            y += 1
        else:
            heights.append(y)
    total = 0
    for p in range(1, n + 1):
        for k in range(p + 1, heights[p - 1] + 1):
            if r.diagonal_word[p - 1] < r.diagonal_word[k - 1]:
                total += 1
    return total


# -- rational dinv: the path levels ----------------------------------------


def d_stat(d: DyckPath):
    """d(P) = area(sweep(D))."""
    return area(sweep(d))


def _path_terms(d: DyckPath):
    """(d(P), maxtdinv(D), window pairs, reading order): what dinv and the
    reading word need of the path alone.

    L_i is the level at the foot of the i-th north step, bottom to top; the
    window pairs are the (i, j) with L_i < L_j < L_i + b, and maxtdinv(D)
    is their number: labels taken in level order put every pair in order,
    and that labeling fits d because the north steps of one run sit exactly
    b apart, outside each other's window. The reading order lists the north
    steps by increasing foot level.
    """
    lv = levels(d.word, d.a, d.b)
    feet = [lv[i] for i, step in enumerate(d.word) if step == "N"]
    pairs = tuple((i, j) for i, li in enumerate(feet)
                  for j, lj in enumerate(feet) if li < lj < li + d.b)
    order = tuple(sorted(range(len(feet)), key=feet.__getitem__))
    return d_stat(d), len(pairs), pairs, order


def _rational_terms(d: DyckPath, descending=False):
    """(dinv offset, dinv bound, window pairs, reading order) of an (a,b)
    path: dinv = d(P) - maxtdinv(D) + the label-increasing window pairs,
    within 0..d(P). descending=True reverses the reading order."""
    ds, m, pairs, order = _path_terms(d)
    return ds - m, ds, pairs, order[::-1] if descending else order
