"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a sparse map exponent -> integer numerator over one shared
positive denominator, (sum_k num[k] zeta^k) / den, with
gcd(den, *numerators) == 1 after every operation.  Exponents are reduced
mod N only, so the raw representation lives in Q[x]/(x^N - 1).  Phi_N is
monic with integer coefficients, so reducing x^k modulo it is an integer
table (`_power_reduction`); canonicalisation applies it lazily, at equality
tests and serialisation, and yields integer numerators over the same kind
of denominator.  `Fraction`s appear only at the edges: the constructor
accepts them, and `format_scalar` builds them for output.

A Cyc is never changed once built, so values are shared: `Cyc.root(n, k)`
is one object per order and exponent, made on first use, and `Cyc.one(n)`
is its k = 0.  A shared root carries k in `exp` (any other value has None),
so a product of two roots of one order is an addition of exponents and a
root's inverse is a root; a monomial product of value zeta^k returns that
root, and a product with a zero or an exact 1 (`{0: 1}` over 1) returns a
factor itself.  Nearly every other scalar is a rational times a root of unity, so
one-term elements take fast paths chosen by their number of terms: a
monomial product adds exponents, and a monomial inverse is
(v/d) x^k -> (d/v) x^(N-k), exact already in Q[x]/(x^N - 1) and so also mod
Phi_N.  A multi-term element is inverted through its field norm, the
product of its Galois conjugates.

There is deliberately no floating point anywhere: every identity the engine
checks is an exact equality in Q(zeta_N).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

_ONE = {0: 1}  # the numerators of an exact 1 in raw form (with den == 1)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Dense integer coefficient list of Phi_n, for n > 1 the power series
    prod (1 - x^d)^mu(n/d) mod x^(phi(n) + 1) over the d | n with n/d a product
    of distinct primes (mu(n/d) != 0): one shift-and-add per factor."""
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    factors = [(n, 1)]
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            factors += [(d // p, -mu) for d, mu in factors]
    deg = sum(d * mu for d, mu in factors)
    out = [1] + [0] * deg
    for d, mu in factors:
        # times 1 - x^d from the top down, or divided by it from the bottom up
        for i in range(deg, d - 1, -1) if mu == 1 else range(d, deg + 1):
            out[i] -= mu * out[i - d]
    return tuple(out) if n > 1 else (-1, 1)  # Phi_1 = x - 1 = -(1 - x)


@lru_cache(maxsize=None)
def _phi(n):
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _power_reduction(n, k):
    """x^k mod Phi_n as sparse ((i, c), ...) with integer c, i < phi(n), for k < n."""
    deg = _phi(n)
    sign = 1
    if n % 2 == 0 and k >= n // 2:
        # zeta^(n/2) = -1, and phi(n) <= n/2
        k, sign = k - n // 2, -1
    if k < deg:
        return ((k, sign),)
    phi = cyclotomic_polynomial(n)
    # x^deg = -(phi[0] + ... + phi[deg-1] x^(deg-1)); then x^(j+1) = x * x^j mod Phi_n
    out = [-sign * c for c in phi[:deg]]
    for _ in range(k - deg):
        top = out[-1]
        out = [0] + out[:-1]
        if top:
            for j in range(deg):
                out[j] -= top * phi[j]
    return tuple((i, c) for i, c in enumerate(out) if c)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


def _make(order, num, den, exp=None):
    """A Cyc from reduced numerators and denominator; exp is k for a shared root zeta^k."""
    c = object.__new__(Cyc)
    c.order = order
    c.num = num
    c.den = den
    c._canon = None
    c.exp = exp
    return c


@lru_cache(maxsize=None)
def _root(order, k):
    """The one shared zeta_order^k, 0 <= k < order; no Cyc is ever changed in place."""
    return _make(order, {k: 1}, 1, k)


def _normal(num, den):
    """Integer numerators over den > 0 with their common gcd divided out."""
    if not num:
        return num, 1
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
    return num, den


class Cyc:
    """An element of Q(zeta_order): sparse integer numerators over one denominator."""

    __slots__ = ("order", "num", "den", "_canon", "exp")

    def __init__(self, order, coeffs=None):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        num, den = {}, 1
        if coeffs:
            fracs = [(k % order, _as_fraction(q)) for k, q in coeffs.items()]
            den = lcm(*(q.denominator for _, q in fracs))
            for k, q in fracs:
                num[k] = num.get(k, 0) + q.numerator * (den // q.denominator)
            num = {k: v for k, v in num.items() if v}
        self.order = order
        self.num, self.den = _normal(num, den)
        self._canon = None
        self.exp = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(order):
        return Cyc.rational(0, order)

    @staticmethod
    def one(order):
        return Cyc.rational(1, order)

    @staticmethod
    def rational(q, order=1):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        if type(q) is not int:
            q = _as_fraction(q)
            if q.denominator != 1:
                return _make(order, {0: q.numerator}, q.denominator)
            q = q.numerator
        if q == 1:
            return _root(order, 0)
        return _make(order, {0: q} if q else {}, 1)

    @staticmethod
    def root(order, k=1):
        """zeta_order^k, the exact primitive root of unity power."""
        if order < 1:
            raise ValueError("root order must be >= 1")
        return _root(order, k % order)

    @staticmethod
    def i(order=4):
        if order % 4:
            raise ValueError("sqrt(-1) needs 4 | order")
        return Cyc.root(order, order // 4)

    # -- order handling ---------------------------------------------------

    def embed(self, order):
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        step = order // self.order
        return _make(order, {k * step: v for k, v in self.num.items()}, self.den)

    def _match(self, other):
        """(self, other) at one common order, or (None, None) for a foreign type."""
        if type(other) is not Cyc:
            if not isinstance(other, (int, Fraction)):
                return None, None
            return self, Cyc.rational(other, self.order)
        if self.order == other.order:
            return self, other
        m = lcm(self.order, other.order)
        return self.embed(m), other.embed(m)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if type(other) is Cyc and other.order == self.order:
            a, b = self, other
        else:
            a, b = self._match(other)
            if a is None:
                return NotImplemented
        if not b.num:
            return a
        if not a.num:
            return b
        da, db = a.den, b.den
        if da == db:
            out, add, den = dict(a.num), b.num, da
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            out = {k: v * fa for k, v in a.num.items()}
            add = {k: v * fb for k, v in b.num.items()}
            den = da * fa
        for k, v in add.items():
            w = out.get(k)
            if w is None:
                out[k] = v
            else:
                w += v
                if w:
                    out[k] = w
                else:
                    del out[k]
        return _make(a.order, *_normal(out, den))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, {k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other):
        a, b = self._match(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self.exp is not None and type(other) is Cyc and other.exp is not None \
                and other.order == self.order:
            return _root(self.order, (self.exp + other.exp) % self.order)
        if type(other) is not Cyc:
            if type(other) is int:
                if not other:
                    return _make(self.order, {}, 1)
                g = gcd(other, self.den)
                if g != 1:
                    other //= g
                return _make(self.order, {k: v * other for k, v in self.num.items()},
                             self.den // g)
            a, b = self._match(other)
            if a is None:
                return NotImplemented
        elif other.order == self.order:
            a, b = self, other
        else:
            a, b = self._match(other)
        an, bn = a.num, b.num
        n = a.order
        if not an or not bn:
            return a if not an else b
        if an == _ONE and a.den == 1:
            return b
        if bn == _ONE and b.den == 1:
            return a
        den = a.den * b.den
        if len(an) == 1 and len(bn) == 1:
            (k1, v1), = an.items()
            (k2, v2), = bn.items()
            k = k1 + k2
            if k >= n:
                k -= n
            v = v1 * v2
            if den != 1:
                g = gcd(v, den)
                if g != 1:
                    v //= g
                    den //= g
            if v == 1 and den == 1:
                return _root(n, k)
            return _make(n, {k: v}, den)
        out = {}
        for k1, v1 in an.items():
            for k2, v2 in bn.items():
                k = k1 + k2
                if k >= n:
                    k -= n
                w = out.get(k)
                if w is None:
                    out[k] = v1 * v2
                else:
                    w += v1 * v2
                    if w:
                        out[k] = w
                    else:
                        del out[k]
        return _make(n, *_normal(out, den))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: exact for monomials, else through the field norm."""
        n = self.order
        if self.exp is not None:
            return _root(n, -self.exp % n)
        if len(self.num) == 1:
            (k, v), = self.num.items()
            den = self.den
        else:
            can, den = self.canonical()
            if len(can) != 1:
                return self._norm_inverse()
            (k, v), = can
        # (v/den) x^k * (den/v) x^(n-k) = x^n = 1 already in Q[x]/(x^n - 1)
        if v < 0:
            v, den = -v, -den
        return _make(n, {(n - k) % n: den}, v)

    def _norm_inverse(self):
        """1/a = (product of the other Galois conjugates of a) / N(a).

        zeta -> zeta^j for j prime to the order permutes exponents, so each
        conjugate is exact in the raw representation; N(a), the product of
        all of them, is a nonzero rational exactly when a != 0.
        """
        n = self.order
        rest = Cyc.one(n)
        for j in range(2, n):
            if gcd(j, n) == 1:
                rest = rest * _make(n, {k * j % n: v for k, v in self.num.items()}, self.den)
        norm, den = (self * rest).canonical()
        if not norm:
            raise ZeroDivisionError("division by zero in Q(zeta)")
        (_, v), = norm
        return rest * Fraction(den, v)

    def __truediv__(self, other):
        if type(other) is not Cyc:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            q = _as_fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero in Q(zeta)")
            return self * Fraction(q.denominator, q.numerator)
        a, b = self._match(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyc.rational(other, self.order) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        """Complex conjugation zeta^k -> zeta^(order-k)."""
        n, num = self.order, self.num
        if self.exp is not None:
            return _root(n, -self.exp % n)
        if len(num) == 1 and 0 in num:
            return self
        return _make(n, {(n - k) % n: v for k, v in num.items()}, self.den)

    # -- canonical form ---------------------------------------------------

    def canonical(self):
        """(((exponent, numerator), ...), den) after reduction mod Phi_order.

        Exponents ascend and are < phi(order); den > 0 and the gcd of den
        and the numerators is 1, so equal elements have equal forms.
        """
        if self._canon is None:
            n = self.order
            deg = _phi(n)
            num = self.num
            if not num or max(num) < deg:
                self._canon = (tuple(sorted(num.items())), self.den)
                return self._canon
            acc = [0] * deg
            for k, v in num.items():
                if k < deg:
                    acc[k] += v
                else:
                    for i, c in _power_reduction(n, k):
                        acc[i] += v * c
            red, den = _normal({i: c for i, c in enumerate(acc) if c}, self.den)
            self._canon = (tuple(red.items()), den)
        return self._canon

    def is_zero(self):
        # v zeta^k with v != 0 is a unit, so a one-term value is never zero
        return not self.num if len(self.num) < 2 else not self.canonical()[0]

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Cyc:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyc.rational(other, self.order)
        if self.order != other.order:
            a, b = self._match(other)
            return a.canonical() == b.canonical()
        if self.den == other.den and self.num == other.num:
            return True
        return self.canonical() == other.canonical()

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        raise TypeError("Cyc is not hashable; compare canonical() tuples")

    def __repr__(self):
        return f"Cyc({self.order}, {format_scalar(self)!r})"


def format_scalar(c):
    """Canonical human/machine readable form, e.g. '1/2*zeta(12)^5 - 1'."""
    can, den = c.canonical()
    if not can:
        return "0"
    parts = []
    for k, v in can:
        q = Fraction(v, den)
        if k == 0:
            body = str(q)
        else:
            z = f"zeta({c.order})^{k}" if k != 1 else f"zeta({c.order})"
            if q == 1:
                body = z
            elif q == -1:
                body = f"-{z}"
            else:
                body = f"{q}*{z}"
        parts.append(body)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
