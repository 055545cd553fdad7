"""Partitions, and the a x b box read as frontier words: the walk
frame_entries gives |mu|, the minimum level ml and the h+, h- pair counts of
every word, and partition_of_frontier turns a word back into mu."""

from __future__ import annotations

from math import factorial, gcd


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


def partition_of_frontier(word, a, b):
    """The partition mu in the a x b box whose frontier is word.

    The frontier is the boundary path of mu read from (0,0) to (b,a), with
    row j of mu the j-th row from the top of the box: the north step at
    height y sits at x = mu_{a-y}, so mu is read off the north-step
    x-positions."""
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
    """(code, (|mu|, ml, h+, h-)) for every partition mu in the a x b box.
    code is the frontier word as an (a+b)-bit int, N = 1 and the first step
    highest; codes descend, as the words do lexicographically (N before E).

    A depth-first walk over the steps, on a stack of immutable prefix
    states. The E levels of a prefix are bits of one int: levels are
    multiples of g = gcd(a, b), at most g E steps start at one level, and
    the c-th of them is bit level + a*b + c. An N step at x adds x to |mu|
    and its pairs (as in _north_pairs), two bit counts. With a - 1 N steps
    down, one loop yields each place of the last: the E steps after it
    change no statistic (the level falls to 0 and ml <= 0).
    """
    if not a:
        yield 0, (0, 0, 0, 0)
        return
    g, ab = gcd(a, b), a * b
    window, field = (1 << (a + b)) - 1, (1 << g) - 1
    # code, E level bits, x, N steps, |mu|, level + ab, ml, h+, h-
    stack = [(0, 0, 0, 0, 0, ab, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        code, easts, x, rows, size, pos, low, hp, hm = pop()
        if rows == a - 1:
            code <<= b - x + 1
            for y in range(x, b + 1):  # the last N step, at y
                here = easts >> pos
                yield code | 1 << (b - y), (
                    size + y, low, hp + (here >> g & window).bit_count(),
                    hm + (here & window).bit_count())
                easts |= 1 << (pos + (here & field).bit_count())
                pos -= a
                if pos - ab < low:
                    low = pos - ab
            continue
        here = easts >> pos  # the E level bits from this level up
        if x < b:  # pushed first, so the N child is walked first
            down = pos - a - ab
            push((code << 1, easts | 1 << (pos + (here & field).bit_count()),
                  x + 1, rows, size, pos - a, down if down < low else low,
                  hp, hm))
        push((code << 1 | 1, easts, x, rows + 1, size + x, pos + b, low,
              hp + (here >> g & window).bit_count(),
              hm + (here & window).bit_count()))
