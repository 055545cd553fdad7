"""Partitions and the box/triangle statistics: arm, leg, h+, h-, frontiers,
minimum level, and cyclic-shift orbits."""

from __future__ import annotations

from math import factorial, gcd

from .paths import cyclic_shift, levels


def normalize(parts):
    """Canonical partition: weakly decreasing tuple, no trailing zeros."""
    parts = tuple(parts)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"{parts} is not weakly decreasing")
    if any(p < 0 for p in parts):
        raise ValueError("negative parts are not allowed")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def size(mu):
    return sum(mu)


def length(mu):
    return len(normalize(mu))


def conjugate(mu):
    mu = normalize(mu)
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p >= j) for j in range(1, mu[0] + 1))


def multiplicities(mu):
    """m_j(mu) for j = 1..max part, as a dict."""
    out = {}
    for p in normalize(mu):
        out[p] = out.get(p, 0) + 1
    return out


def z_lambda(mu):
    """Centralizer order prod_j j^{m_j} m_j!."""
    z = 1
    for j, mj in multiplicities(mu).items():
        z *= j ** mj * factorial(mj)
    return z


def partitions_of(n, max_part=None):
    """All partitions of n with parts bounded by max_part, reverse-lex order."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def enumerate_box(s, r):
    """All partitions with at most s parts, each at most r."""
    def rec(rows_left, max_part, prefix):
        yield prefix  # weakly decreasing positive parts by construction
        if rows_left == 0:
            return
        for part in range(max_part, 0, -1):
            yield from rec(rows_left - 1, part, prefix + (part,))

    yield from rec(s, r if s > 0 else 0, ())


def in_box(mu, s, r):
    mu = normalize(mu)
    return len(mu) <= s and (not mu or mu[0] <= r)


def in_triangle(mu, a, b):
    """mu fits under the staircase: a*mu_j <= b*(a-j) for each row j."""
    mu = normalize(mu)
    if not in_box(mu, a, b):
        return False
    return all(a * p <= b * (a - j) for j, p in enumerate(mu, start=1))


def enumerate_triangle(a, b):
    for mu in enumerate_box(a, b):
        if in_triangle(mu, a, b):
            yield mu


def frontier(mu, a, b):
    """Boundary path of mu in the a x b box, read from (0,0) to (b,a).

    Row j of mu is the j-th row from the top of the box; the north step at
    height y therefore sits at x = mu_{a-y}.
    """
    mu = normalize(mu)
    if not in_box(mu, a, b):
        raise ValueError(f"{mu} does not fit in the {a} x {b} box")
    return _frontier(mu, a, b)


def _frontier(mu, a, b):
    """frontier() of a canonical partition known to fit in the a x b box."""
    padded = mu + (0,) * (a - len(mu))
    steps = []
    x = 0
    for y in range(a):
        target = padded[a - 1 - y]
        steps.append("E" * (target - x))
        steps.append("N")
        x = target
    steps.append("E" * (b - x))
    return "".join(steps)


def partition_of_frontier(word, a, b):
    """Inverse of frontier: read off the north-step x-positions."""
    if word.count("N") != a or word.count("E") != b:
        raise ValueError(f"word {word!r} is not in R(N^{a} E^{b})")
    xs = []
    x = 0
    for step in word:
        if step == "N":
            xs.append(x)
        else:
            x += 1
    return normalize(tuple(reversed(xs)))


def arm_leg(mu, cell):
    """(arm, leg) of a cell: cells to the right in its row, below in its column."""
    mu = normalize(mu)
    i, j = cell
    if not (1 <= i <= len(mu) and 1 <= j <= mu[i - 1]):
        raise ValueError(f"cell {cell} not in diagram of {mu}")
    conj = conjugate(mu)
    return mu[i - 1] - j, conj[j - 1] - i


def h_plus(mu, a, b):
    """Cells with -a < a*arm - b*leg <= b."""
    return _h_pair(normalize(mu), a, b)[0]


def h_minus(mu, a, b):
    """Cells with -a <= a*arm - b*leg < b."""
    return _h_pair(normalize(mu), a, b)[1]


def _h_pair(mu, a, b):
    """(h+, h-) of a canonical partition from the arm/leg windows of its
    rows, added bottom-up; the route independent of the levels."""
    heights = [0] * max(mu, default=0)
    hp = hm = 0
    for p in reversed(mu):
        dp, dm = _row_pairs(heights, p, a, b)
        hp += dp
        hm += dm
        heights[:p] = [h + 1 for h in heights[:p]]
    return hp, hm


def _row_pairs(heights, x, a, b):
    """(h+, h-) cells of a row of length x put on columns of heights
    heights: column j has arm x-j and leg heights[j-1] (see h_plus)."""
    hp = hm = 0
    for arm, leg in zip(range(x - 1, -1, -1), heights):
        v = a * arm - b * leg
        if -a <= v <= b:
            if v != -a:
                hp += 1
            if v != b:
                hm += 1
    return hp, hm


def _north_pairs(easts, level, n):
    """(h+, h-) pairs of an N step that starts at level, with n = a+b, made
    with the E steps before it, given the levels easts those E steps start
    at: h+ counts the e with level < e <= level+n, h- those with
    level <= e < level+n."""
    hp = hm = 0
    top = level + n
    for e in easts:
        if level <= e <= top:
            if e != level:
                hp += 1
            if e != top:
                hm += 1
    return hp, hm


def _word_stats(word, a, b):
    """(|mu|, ml, h+, h-) of the partition whose frontier is word, in one
    pass over its steps.

    |mu| sums the x-positions of the N steps and ml is the minimum level.
    h+ counts pairs i < j with w_i = E, w_j = N, 1 <= l_{i-1} - l_{j-1} <= a+b;
    h- counts pairs with 1 <= l_j - l_i <= a+b. Since l_j - l_i = a+b -
    (l_{i-1} - l_{j-1}), both windows sit on e = l_{i-1} with l = l_{j-1}
    (see _north_pairs).
    """
    n = a + b
    x = size = level = low = hp = hm = 0
    easts = []  # l_{i-1} of each E step read so far
    for step in word:
        if step == "N":
            size += x
            dp, dm = _north_pairs(easts, level, n)
            hp += dp
            hm += dm
            level += b
        else:
            easts.append(level)
            x += 1
            level -= a
            if level < low:
                low = level
    return size, low, hp, hm


def frame_entries(a, b):
    """(frontier word, (|mu|, ml, h+, h-)) for every partition mu in the
    a x b box, the words in descending lexicographic order (N before E);
    mu itself is partition_of_frontier(word, a, b).

    A depth-first walk over the steps, on a stack of immutable prefix
    states. The E levels of a prefix are bits of one int: levels are
    multiples of g = gcd(a, b), at most g E steps start at one level, and
    the c-th of them is bit level + a*b + c. An N step at x adds x to |mu|
    and its pairs (as in _north_pairs), two bit counts. Once all a N steps
    are down, the E steps left change no statistic (the level falls to 0
    and ml <= 0), so the word is finished at once.
    """
    g, ab = gcd(a, b), a * b
    window, field = (1 << (a + b)) - 1, (1 << g) - 1
    # word, E level bits, x, N steps, |mu|, level + ab, ml, h+, h-
    stack = [("", 0, 0, 0, 0, ab, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        word, easts, x, rows, size, pos, low, hp, hm = pop()
        if rows == a:
            yield word + "E" * (b - x), (size, low, hp, hm)
            continue
        if x < b:  # pushed first, so the N child is walked first
            c = (easts >> pos & field).bit_count()
            down = pos - a - ab
            push((word + "E", easts | 1 << (pos + c), x + 1, rows, size,
                  pos - a, down if down < low else low, hp, hm))
        push((word + "N", easts, x, rows + 1, size + x, pos + b, low,
              hp + (easts >> (pos + g) & window).bit_count(),
              hm + (easts >> pos & window).bit_count()))


def min_level(mu, a, b):
    """Minimum level on the frontier of mu; zero iff mu is in the triangle."""
    return _word_stats(frontier(mu, a, b), a, b)[1]


def h_via_levels(mu, a, b, sign):
    """h+/h- computed from frontier levels instead of arm/leg windows.

    sign '+': pairs i < j with w_i = E, w_j = N, 1 <= l_{i-1} - l_{j-1} <= a+b.
    sign '-': pairs i < j with w_i = E, w_j = N, 1 <= l_j - l_i <= a+b.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return _word_stats(frontier(mu, a, b), a, b)[2 if sign == "+" else 3]


def cshift_partition(mu, a, b):
    """The partition whose frontier is the one-step cyclic shift of mu's."""
    return partition_of_frontier(cyclic_shift(frontier(mu, a, b), 1), a, b)


def orbit(mu0, a, b):
    """The a+b successive cyclic shifts of mu0, starting at mu0."""
    out = [normalize(mu0)]
    for _ in range(a + b - 1):
        out.append(cshift_partition(out[-1], a, b))
    return out


def orbit_decompose(a, b):
    """Partition the a x b box into cyclic-shift orbits, one triangle
    representative each; verifies sizes, coverage, and |mu0| = |mu| + ml."""
    if gcd(a, b) != 1:
        raise ValueError("orbit decomposition requires gcd(a,b)=1")
    seen = set()
    orbits = []
    for mu0 in enumerate_triangle(a, b):
        members = orbit(mu0, a, b)
        if len(set(members)) != a + b:
            raise AssertionError(f"orbit of {mu0} has repeated members")
        in_tri = [m for m in members if in_triangle(m, a, b)]
        if in_tri != [mu0]:
            raise AssertionError(f"orbit of {mu0} meets the triangle at {in_tri}")
        for m in members:
            if size(mu0) != size(m) + min_level(m, a, b):
                raise AssertionError(f"|mu0| != |mu| + ml for {m} in orbit of {mu0}")
        seen.update(members)
        orbits.append((mu0, members))
    box = set(enumerate_box(a, b))
    if seen != box:
        raise AssertionError("orbits do not cover the box")
    return orbits


def lem3_check(mu0, a, b):
    """Orbit h+ values are h+(mu0)+0..a+b-1, with the member of minimum level
    -i_k landing at offset k, where i_k are the sorted frontier levels of mu0."""
    mu0 = normalize(mu0)
    if not in_triangle(mu0, a, b):
        raise ValueError(f"{mu0} is not in the ({a},{b}) triangle")

    def stats(word):
        mu = partition_of_frontier(word, a, b)
        return min_level(mu, a, b), h_plus(mu, a, b)

    return _orbit_indexing_holds(frontier(mu0, a, b), a, b, stats)


def _orbit_indexing_holds(word0, a, b, stats):
    """The check of lem3_check on the orbit of the triangle word word0, with
    stats: frontier word -> (ml, h+) for the a+b cyclic shifts of word0."""
    n = a + b
    found = [stats(cyclic_shift(word0, k)) for k in range(n)]
    base = found[0][1]
    if sorted(h for _, h in found) != list(range(base, base + n)):
        return False
    sorted_levels = sorted(levels(word0, a, b)[:n])
    return all(h - base == sorted_levels.index(-ml) for ml, h in found)
