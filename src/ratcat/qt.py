"""Exact sparse Laurent polynomials in q and t, plus q-analogue constructors.

Values are immutable and hashable; every operation returns a new polynomial.
Coefficients are exact integers (Fractions appear only when a caller divides
by a scalar, e.g. in power-sum expansions). Equality of values is equality
of term maps, so every value is kept in one canonical form: no zero
coefficient is stored, and an integral Fraction is stored as an int.
`_canonical` is the only place that enforces that form and the only place
that makes a value: the constructor and every operation end in it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial quotient would leave a nonzero remainder."""


def exact_quotient(num, den):
    """num / den for integers that a closed formula says divide exactly;
    any remainder raises AssertionError, also under python -O."""
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"{num} is not divisible by {den}")
    return q


class Record:
    """Base of the immutable values of the modules that import this one
    (paths, parking functions, symmetric-function expansions). A subclass
    names its fields in _fields, fills them in __init__ with
    __dict__.update and then validates in __post_init__. Records of one
    class are equal when their fields are, hash as the field tuple and show
    as Class(field=value, ...); no attribute can be set or deleted, and
    pickle and copy restore __dict__ without __setattr__."""

    _fields = ()

    def _values(self):
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        fields = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _norm_coeff(c):
    """A scalar in canonical form: an integral Fraction as an int."""
    return int(c) if type(c) is Fraction and c.denominator == 1 else c


def _canonical(pairs, base=None):
    """The LaurentQT base + the sum of c q^qe t^te over pairs ((qe, te), c).

    Each key a pair reaches is summed with plain +, then dropped if zero or
    turned into an int if an integral Fraction; base, a canonical term map
    or None, is copied as it is. So adding a polynomial visits only the
    keys of the other, and a caller that sums colliding terms itself first,
    as a product does, has each key brought to the form once.
    """
    tm = {} if base is None else dict(base)
    get = tm.get
    for k, c in pairs:
        c = get(k, 0) + c
        if not c:
            tm.pop(k, None)
        # an exact type test: isinstance would go through the numbers ABCs
        elif type(c) is Fraction and c.denominator == 1:
            tm[k] = int(c)
        else:
            tm[k] = c
    out = LaurentQT.__new__(LaurentQT)
    out._terms = tm
    return out


class LaurentQT:
    """A Laurent polynomial in q and t with exact coefficients.

    Stored as a map (q_exponent, t_exponent) -> coefficient; exponents may be
    negative, which makes t -> 1/q substitutions ordinary arithmetic.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """terms: a map or an iterable of ((q_exp, t_exp), coeff) pairs;
        coefficients of a repeated key add up."""
        pairs = terms.items() if isinstance(terms, dict) else terms or ()
        self._terms = _canonical(((qe, te), c) for (qe, te), c in pairs)._terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, q_exp, t_exp, coeff=1):
        return cls({(q_exp, t_exp): coeff})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self._terms

    def coeff(self, q_exp, t_exp=0):
        return self._terms.get((q_exp, t_exp), 0)

    def terms(self):
        """Term triples (q_exp, t_exp, coeff) sorted by (q_exp, t_exp)."""
        return [(qe, te, self._terms[(qe, te)]) for qe, te in sorted(self._terms)]

    def __eq__(self, other):
        if isinstance(other, LaurentQT):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentQT.const(other)
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its coefficient, since it equals that number
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __getstate__(self):
        # (None, slots dict), the state protocols 2+ build for a slotted
        # value without this method, so they pickle the same bytes; protocols
        # 0 and 1 refuse __slots__ without it
        return None, {"_terms": self._terms}

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        return _canonical(self.coerce(other)._terms.items(), self._terms)

    __radd__ = __add__

    def __neg__(self):
        return _canonical((k, -c) for k, c in self._terms.items())

    def __sub__(self, other):
        negated = ((k, -c) for k, c in self.coerce(other)._terms.items())
        return _canonical(negated, self._terms)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __mul__(self, other):
        other = self.coerce(other)
        tm = {}
        get = tm.get
        for (q1, t1), c1 in self._terms.items():
            for (q2, t2), c2 in other._terms.items():
                k = (q1 + q2, t1 + t2)
                tm[k] = get(k, 0) + c1 * c2
        return _canonical(tm.items())

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers not supported")
        result = LaurentQT.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    @staticmethod
    def coerce(x):
        """x as a LaurentQT: a LaurentQT as it is, an int or Fraction as a
        constant; anything else raises TypeError."""
        if isinstance(x, LaurentQT):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentQT.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to LaurentQT")

    # -- division ----------------------------------------------------------

    def exact_divide(self, divisor):
        """Exact quotient self / divisor; ExactDivisionError if not exact.

        Iterated leading-term elimination in (q_exp, t_exp) lex order. For an
        exact quotient Q the extreme exponents satisfy ext(self) = ext(Q) +
        ext(divisor) in each variable, which bounds Q's support; leaving that
        box proves the division inexact, and the lex-decreasing leading term
        guarantees termination inside it.
        """
        divisor = self.coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentQT.zero()

        def spans(p):
            qs = [qe for qe, _ in p._terms]
            ts = [te for _, te in p._terms]
            return min(qs), max(qs), min(ts), max(ts)

        pq0, pq1, pt0, pt1 = spans(self)
        dq0, dq1, dt0, dt1 = spans(divisor)
        qlo, qhi = pq0 - dq0, pq1 - dq1
        tlo, thi = pt0 - dt0, pt1 - dt1

        d_lead = max(divisor._terms)
        d_lc = divisor._terms[d_lead]
        rem = dict(self._terms)
        quot = {}
        while rem:
            r_lead = max(rem)
            mono = (r_lead[0] - d_lead[0], r_lead[1] - d_lead[1])
            if not (qlo <= mono[0] <= qhi and tlo <= mono[1] <= thi):
                raise ExactDivisionError("nonzero remainder in exact_divide")
            c = _norm_coeff(Fraction(rem[r_lead]) / Fraction(d_lc))
            quot[mono] = c
            for (qe, te), dc in divisor._terms.items():
                k = (qe + mono[0], te + mono[1])
                cur = rem.get(k, 0) - c * dc
                if cur:
                    rem[k] = cur
                else:
                    rem.pop(k, None)
        return _canonical(quot.items())

    # -- specializations ---------------------------------------------------

    def evaluate(self, q=1, t=1):
        """Evaluate at numeric q, t (exact integer/Fraction arithmetic)."""
        total = 0
        for (qe, te), c in self._terms.items():
            qv = Fraction(q) ** qe if qe else 1
            tv = Fraction(t) ** te if te else 1
            total += c * qv * tv
        return _norm_coeff(Fraction(total))

    def swap_q_t(self):
        return _canonical(((te, qe), c) for (qe, te), c in self._terms.items())

    def specialize_t(self, t_as_q_power, q_shift=0):
        """Substitute t -> q**t_as_q_power, then multiply by q**q_shift."""
        return _canonical(((qe + te * t_as_q_power + q_shift, 0), c)
                          for (qe, te), c in self._terms.items())

    # -- serialization and display -----------------------------------------

    def to_json(self):
        """Canonical wire form: [[q_exp, t_exp, coeff-as-string], ...]."""
        return [[qe, te, str(c)] for qe, te, c in self.terms()]

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for qe, te, c in self.terms():
            factors = []
            if c != 1 or (qe == 0 and te == 0):
                factors.append(str(c))
            if qe:
                factors.append("q" if qe == 1 else f"q^{qe}")
            if te:
                factors.append("t" if te == 1 else f"t^{te}")
            parts.append("*".join(factors))
        return " + ".join(parts)


ZERO = LaurentQT.zero()
ONE = LaurentQT.const(1)


# -- q-analogues -----------------------------------------------------------
#
# The one-variable q-analogues are built densely: a polynomial in q is an int
# list indexed by the exponent of q, with no trailing zeros. Each public
# constructor converts to LaurentQT once, at the end. The q-binomial is built
# by exact divisions by [j]_q and never forms a q-factorial.


def _from_dense(coeffs):
    return _canonical(((e, 0), c) for e, c in enumerate(coeffs))


def _times_q_int(p, j):
    """p * [j]_q for j >= 1: coefficient e is the window sum p[e-j+1..e]."""
    out = []
    window = 0
    n = len(p)
    for e in range(n + j - 1):
        if e < n:
            window += p[e]
        if e >= j:
            window -= p[e - j]
        out.append(window)
    return out


def _divide_q_int(p, j):
    """p / [j]_q, j >= 1: as (1 - q)[j]_q = 1 - q^j, quot[e] = p[e] -
    p[e-1] + quot[e-j]. Multiplying back confirms it; a mismatch raises
    ExactDivisionError, also under python -O."""
    quot = []
    prev = 0
    for e in range(len(p) - j + 1):
        c = p[e] - prev + (quot[e - j] if e >= j else 0)
        prev = p[e]
        quot.append(c)
    if p and _times_q_int(quot, j) != p:
        raise ExactDivisionError("nonzero remainder in a q-analogue quotient")
    return quot


def _dense_q_binomial(n, k):
    """[n]!_q / ([k]!_q [n-k]!_q) as a coefficient list, built as the product
    over j = 1..k of [n-k+j]_q / [j]_q. The partial product after step j is
    the q-binomial [n-k+j, j], a polynomial, so every division is exact."""
    if not 0 <= k <= n:
        raise ValueError(f"q_binomial requires 0 <= k <= n, got ({n}, {k})")
    k = min(k, n - k)  # [n, k] = [n, n-k]; fewer steps
    p = [1]
    for j in range(1, k + 1):
        p = _divide_q_int(_times_q_int(p, n - k + j), j)
    return p


def q_int(n):
    """[n]_q = 1 + q + ... + q^(n-1); zero for n = 0."""
    if n < 0:
        raise ValueError("q_int requires n >= 0")
    return _from_dense([1] * n)


def q_binomial(n, k):
    """Gaussian binomial [n]!_q / ([k]!_q [n-k]!_q), built by exact
    divisions by [j]_q."""
    return _from_dense(_dense_q_binomial(n, k))


def rational_q_catalan(a, b):
    """Cat_{a,b}(q) = (1/[a+b]_q) * qbin(a+b, a) for coprime a, b."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if gcd(a, b) != 1:
        raise ValueError(f"rational_q_catalan requires gcd(a,b)=1, got ({a},{b})")
    return _from_dense(_divide_q_int(_dense_q_binomial(a + b, a), a + b))
