"""Classical and rational parking functions.

A parking function is a Dyck path plus north-step labels listed bottom to
top, strictly increasing within each vertical run. Classical objects live in
an n x n frame; rational objects in a coprime (a,b) frame. The public
constructor validates. The labelings of a path are walked as raw label
tuples (_label_tuples); labelings_of wraps each in the trusted constructor,
which skips the checks, as does the stretch P'' below.

Each statistic has one formula here, read off per-path terms (dinv offset,
dinv bound, window pairs, reading order) computed once per path: dinv is the
offset plus the window pairs (i, j) with p_i < p_j, and IDes is read off the
label positions in reading order. The ParkingFunction statistics apply these
helpers to one parking function. The q,t-series kernel in frob reads the same
terms but computes both statistics a second way, incrementally as it places
the labels 1..a on a path; these per-PF statistics are the independent
reference that the kernel is tested against.

Rational dinv is read off the levels at the feet of the north steps, as
tdinv(P) - maxtdinv(D) + d(P) (Armstrong-Loehr-Warrington, section 5).
Classical dinv pairs rows by area-cell count (the g-vector). The Bezout
stretch P'', a classical parking function with multiset labels (exempt from
the permutation check), is the independent reference route for rational
dinv: dinv(P'') + d(P) - m(D) gives the same value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from .paths import DyckPath, area, east_counts, levels, sweep


@dataclass(frozen=True)
class ParkingFunction:
    word: str
    labels: tuple
    a: int
    b: int
    multiset: bool = False
    path: DyckPath = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "path", DyckPath(self.word, self.a, self.b))
        if len(self.labels) != self.a:
            raise ValueError("one label per north step required")
        if self.multiset:
            return
        if sorted(self.labels) != list(range(1, self.a + 1)):
            raise ValueError(f"labels {self.labels} are not a permutation of 1..{self.a}")
        for run in _run_label_groups(self.word, self.labels):
            if any(run[i] >= run[i + 1] for i in range(len(run) - 1)):
                raise ValueError(f"labels {run} do not increase up a column")

    @classmethod
    def _trusted(cls, path, labels, multiset=False):
        """Build on a validated path from labels known to fit it; no checks."""
        pf = object.__new__(cls)
        pf.__dict__.update(word=path.word, labels=labels, a=path.a, b=path.b,
                           multiset=multiset, path=path)
        return pf

    def area(self):
        return area(self.path)

    def to_json(self):
        return {"word": self.word, "labels": list(self.labels), "frame": [self.a, self.b]}

    @classmethod
    def from_json(cls, data):
        return cls(data["word"], tuple(data["labels"]), *data["frame"])


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


def to_preference_vector(pf):
    """Inverse of from_preference_vector (classical n x n frame only)."""
    if pf.a != pf.b:
        raise ValueError("preference vectors are defined for the classical frame")
    prefs = {}
    run_index = 1
    it = iter(pf.labels)
    for step in pf.word:
        if step == "N":
            prefs[next(it)] = run_index
        else:
            run_index += 1
    return tuple(prefs[j] for j in range(1, pf.a + 1))


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
    over, and the last run takes the rest. Read by labelings_of (so by the
    public per-PF statistics) and by verify's fixed-point counts."""
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


def _ides_mask(labels, rank):
    """IDes of the word with labels[i] at position rank[i], as a bitmask:
    bit j-1 is set iff j+1 sits left of j."""
    n = len(labels)
    pos = [0] * (n + 1)
    for r, x in zip(rank, labels):
        pos[x] = r
    mask = 0
    for j in range(1, n):
        if pos[j + 1] < pos[j]:
            mask |= 1 << (j - 1)
    return mask


def _reading_word(labels, order):
    return tuple(labels[i] for i in order)


def dinv_classical(pf):
    """Pairs i < j with g_i = g_j, p_i < p_j or g_i = g_j + 1, p_i > p_j."""
    return _dinv(pf.labels, _classical_terms(pf.path))


def drw_classical(pf):
    """Diagonal reading word: higher diagonals first, each scanned NE to SW."""
    return _reading_word(pf.labels, _classical_terms(pf.path)[3])


def drw_rational(pf):
    """Labels of north steps read by increasing level of bottom endpoints."""
    return _reading_word(pf.labels, _path_terms(pf.path)[3])


def ides(word):
    """Inverse descent set: j with j+1 left of j in the word."""
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"{word} is not a permutation word")
    mask = _ides_mask(word, range(n))
    return frozenset(j for j in range(1, n) if mask >> (j - 1) & 1)


# -- the zeta map ----------------------------------------------------------


@dataclass(frozen=True)
class RootNotationPF:
    """Classical parking function in root notation: path plus the permutation
    written along the diagonal y = x."""

    word: str
    diagonal_word: tuple

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


# -- rational dinv: the Bezout stretch (reference) and the path levels ----


def bezout_xy(a, b):
    """The solution of x*a + y*b = 1 with -b < x <= 0 and 0 <= y < a."""
    if gcd(a, b) != 1:
        raise ValueError("bezout_xy requires gcd(a,b)=1")
    if a == 1:
        raise ValueError("the window -b < x <= 0, 0 <= y < a is empty for a=1")
    x = pow(b, -1, a)  # y candidate: y*b = 1 (mod a)
    y = x % a
    x = (1 - y * b) // a
    if not (-b < x <= 0 and 0 <= y < a):
        raise AssertionError(f"window reduction failed for ({a},{b})")
    return x, y


def stretch_to_ppp(pf: ParkingFunction) -> ParkingFunction:
    """P'': stretch N steps |x|-fold and E steps y-fold, drop the final E.

    The result is a classical parking function on an n x n frame with
    n = |x|*a and multiset labels (each original label repeated |x| times,
    copies kept adjacent within their run).
    """
    x, y = bezout_xy(pf.a, pf.b)
    nx = -x
    word = []
    labels = []
    row = 0
    for step in pf.word:
        if step == "N":
            word.append("N" * nx)
            labels.extend([pf.labels[row]] * nx)
            row += 1
        else:
            word.append("E" * y)
    # drop the final E; DyckPath checks that P'' is a Dyck path
    n = nx * pf.a
    path = DyckPath("".join(word)[:-1], n, n)
    return ParkingFunction._trusted(path, tuple(labels), multiset=True)


def max_stretched_dinv(d: DyckPath):
    """m(D): maximum of dinv(P'') over all labelings of d."""
    return max(dinv_classical(stretch_to_ppp(pf)) for pf in labelings_of(d))


def d_stat(d: DyckPath):
    """d(P) = area(sweep(D))."""
    return area(sweep(d))


@lru_cache(maxsize=1)
def _path_terms(d: DyckPath):
    """(d(P), maxtdinv(D), window pairs, reading order): what dinv and the
    reading word need of the path alone.

    L_i is the level at the foot of the i-th north step, bottom to top; the
    window pairs are the (i, j) with L_i < L_j < L_i + b, and maxtdinv(D)
    is their number: labels taken in level order put every pair in order,
    and that labeling fits d because the north steps of one run sit exactly
    b apart, outside each other's window. The reading order lists the north
    steps by increasing foot level.

    One entry is kept: labelings_of yields the parking functions of a path
    one after another, so a frame computes each path once, and the cache
    does not grow with the frames a process visits.
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


def dinv_rational(pf: ParkingFunction):
    """dinv(P) = tdinv(P) - maxtdinv(D) + d(P); identically 0 when a = 1.

    tdinv(P) counts the window pairs (i, j) of the path whose labels
    increase, p_i < p_j (Armstrong-Loehr-Warrington, section 5). It equals
    dinv(P'') + d(P) - m(D) of the Bezout stretch, the route kept in
    stretch_to_ppp and max_stretched_dinv.
    """
    return _dinv(pf.labels, _rational_terms(pf.path))
