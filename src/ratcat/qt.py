"""Exact sparse Laurent polynomials in q and t, plus q-analogue constructors.

Values are immutable and hashable; every operation returns a new polynomial.
Coefficients are exact integers (Fractions appear only when a caller divides
by a scalar, e.g. in power-sum expansions) and zero coefficients are never
stored, so equality of term maps is equality of values.
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


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class LaurentQT:
    """A Laurent polynomial in q and t with exact coefficients.

    Stored as a map (q_exponent, t_exponent) -> coefficient; exponents may be
    negative, which makes t -> 1/q substitutions ordinary arithmetic.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        tm = {}
        if terms:
            for (qe, te), c in (terms.items() if isinstance(terms, dict) else terms):
                c = _norm_coeff(c)
                if c:
                    cur = tm.get((qe, te), 0) + c
                    cur = _norm_coeff(cur)
                    if cur:
                        tm[(qe, te)] = cur
                    else:
                        tm.pop((qe, te), None)
        self._terms = tm

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

    @classmethod
    def q(cls):
        return cls({(1, 0): 1})

    @classmethod
    def t(cls):
        return cls({(0, 1): 1})

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

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        tm = dict(self._terms)
        for k, c in other._terms.items():
            cur = _norm_coeff(tm.get(k, 0) + c)
            if cur:
                tm[k] = cur
            else:
                tm.pop(k, None)
        out = LaurentQT.__new__(LaurentQT)
        out._terms = tm
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentQT.__new__(LaurentQT)
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        tm = {}
        for (q1, t1), c1 in self._terms.items():
            for (q2, t2), c2 in other._terms.items():
                k = (q1 + q2, t1 + t2)
                cur = _norm_coeff(tm.get(k, 0) + c1 * c2)
                if cur:
                    tm[k] = cur
                else:
                    tm.pop(k, None)
        out = LaurentQT.__new__(LaurentQT)
        out._terms = tm
        return out

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
    def _coerce(x):
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
        divisor = self._coerce(divisor)
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
                cur = _norm_coeff(rem.get(k, 0) - c * dc)
                if cur:
                    rem[k] = cur
                else:
                    rem.pop(k, None)
        out = LaurentQT.__new__(LaurentQT)
        out._terms = quot
        return out

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
        return LaurentQT({(te, qe): c for (qe, te), c in self._terms.items()})

    def specialize_t(self, t_as_q_power, q_shift=0):
        """Substitute t -> q**t_as_q_power, then multiply by q**q_shift."""
        tm = {}
        for (qe, te), c in self._terms.items():
            k = (qe + te * t_as_q_power + q_shift, 0)
            cur = _norm_coeff(tm.get(k, 0) + c)
            if cur:
                tm[k] = cur
            else:
                tm.pop(k, None)
        out = LaurentQT.__new__(LaurentQT)
        out._terms = tm
        return out

    # -- serialization and display -----------------------------------------

    def to_json(self):
        """Canonical wire form: [[q_exp, t_exp, coeff-as-string], ...]."""
        return [[qe, te, str(c)] for qe, te, c in self.terms()]

    @classmethod
    def from_json(cls, data):
        terms = {}
        for qe, te, c in data:
            terms[(int(qe), int(te))] = Fraction(c)
        return cls(terms)

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

def q_int(n):
    """[n]_q = 1 + q + ... + q^(n-1); zero for n = 0."""
    if n < 0:
        raise ValueError("q_int requires n >= 0")
    return LaurentQT({(i, 0): 1 for i in range(n)})


def q_factorial(n):
    """[n]!_q = [1]_q [2]_q ... [n]_q."""
    result = ONE
    for j in range(1, n + 1):
        result = result * q_int(j)
    return result


def q_binomial(n, k):
    """Gaussian binomial [n]!_q / ([k]!_q [n-k]!_q), an exact quotient."""
    if not 0 <= k <= n:
        raise ValueError(f"q_binomial requires 0 <= k <= n, got ({n}, {k})")
    return q_factorial(n).exact_divide(q_factorial(k) * q_factorial(n - k))


def q_binomial_boxcount(s, r):
    """Sum of q^|mu| over partitions mu fitting in an s x r box.

    Enumerates the box directly, so it is an independent route from the
    q-factorial quotient in q_binomial.
    """
    if s < 0 or r < 0:
        raise ValueError("box dimensions must be nonnegative")
    counts = {}

    def rec(rows_left, max_part, weight):
        counts[weight] = counts.get(weight, 0) + 1
        if rows_left == 0:
            return
        for part in range(1, max_part + 1):
            rec(rows_left - 1, part, weight + part)

    rec(s, r if s else 0, 0)
    return LaurentQT({(w, 0): c for w, c in counts.items()})


def rational_q_catalan(a, b):
    """Cat_{a,b}(q) = (1/[a+b]_q) * qbin(a+b, a) for coprime a, b."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if gcd(a, b) != 1:
        raise ValueError(f"rational_q_catalan requires gcd(a,b)=1, got ({a},{b})")
    return q_binomial(a + b, a).exact_divide(q_int(a + b))
