"""Exact scalar, polynomial, series and partial-fraction arithmetic over Q(i).

Everything downstream (trace spaces, degeneracy tests, Pade approximants,
module traces) runs on the types defined here.  All arithmetic is exact and
no operation in this module ever touches floating point.

A scalar, ``GaussianRational``, holds its real and imaginary parts as two
``fractions.Fraction``.  The hot loops do not run on it: they clear a run of
scalars to Gaussian-integer numerators over one least common denominator
(``_clear_denominators``), work on plain Python ints, and turn each result
back into a scalar once (``_from_numerators``).  The series recurrence
(``series_of_rational``), the local expansions of ``partial_fractions``, the
products of root factors (``_root_product``, behind
``FactoredPolynomial.expand``, ``quotient_poly`` and the denominator of
``PrincipalParts.to_rational``), and the integer paths of ``linalg``,
``tracespace`` and ``pade`` all go that way.

Serialization conventions shared across the package:

* scalars render as ``"p/q+r/si"`` with explicit denominators,
  e.g. ``"-3/2+0/1i"``;
* dense polynomials render as ascending coefficient arrays of scalar
  strings;
* factored polynomials render as ``[[root, multiplicity], ...]`` pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple


class GaussianRational:
    """An exact complex number re + im*i with rational re, im.

    Instances are immutable and hashable; arithmetic never rounds, so
    ``(a + b) - b == a`` holds for all values.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_string(cls, s: str) -> "GaussianRational":
        """Parse ``p/q+r/si`` and the obvious shorthands (``2``, ``-3/2``, ``i``)."""
        text = s.strip().replace(" ", "")
        if not text:
            raise ValueError("empty scalar string")
        try:
            if text.endswith("i") or text.endswith("I"):
                body = text[:-1]
                # split the imaginary tail off at the last top-level sign
                cut = max(body.rfind("+", 1), body.rfind("-", 1))
                if cut > 0 and body[cut - 1] != "/":
                    re_part, im_part = body[:cut], body[cut:]
                else:
                    re_part, im_part = "", body
                if im_part in ("", "+"):
                    im_part = "1"
                elif im_part == "-":
                    im_part = "-1"
                re_val = Fraction(re_part) if re_part else Fraction(0)
                return cls(re_val, Fraction(im_part))
            return cls(Fraction(text), 0)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {s!r}") from None

    def __str__(self) -> str:
        sign = "-" if self.im < 0 else "+"
        mag = -self.im if self.im < 0 else self.im
        return (
            f"{self.re.numerator}/{self.re.denominator}"
            f"{sign}{mag.numerator}/{mag.denominator}i"
        )

    def __repr__(self) -> str:
        return f"GaussianRational('{self}')"

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal values hash alike: a real scalar hashes as its int or Fraction
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return GR_ONE / self ** (-n)
        return _power(self, n, GR_ONE)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


def _power(base, n: int, one):
    """base ** n for n >= 0 by binary powering, with no multiply by one and
    no squaring past the top bit of n."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
_HALF = GaussianRational(Fraction(1, 2))

_Scalarish = (int, Fraction, GaussianRational)


def _as_scalar(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, str):
        return GaussianRational.from_string(value)
    raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")


def _clear_denominators(values):
    """(re, im, den): value k is (re[k] + im[k] i) / den, with integer lists
    re, im and den the least common denominator of every part."""
    values = tuple(values)
    den = lcm(*[v.re.denominator for v in values], *[v.im.denominator for v in values])
    return (
        [v.re.numerator * (den // v.re.denominator) for v in values],
        [v.im.numerator * (den // v.im.denominator) for v in values],
        den,
    )


def _from_numerators(re: int, im: int, den: int) -> GaussianRational:
    """The scalar (re + im i) / den, den a nonzero integer; the two parts are
    Fractions already, so the constructor's conversion is skipped."""
    out = object.__new__(GaussianRational)
    object.__setattr__(out, "re", Fraction(re, den))
    object.__setattr__(out, "im", Fraction(im, den))
    return out


def _series_numerators(num, den, N: int):
    """Coefficients 0..N of the power series num/den on Gaussian integers.

    ``num`` and ``den`` are (re, im, denominator) triples as returned by
    ``_clear_denominators``: the sequences a_n = A_n / F and b_j = B_j / E,
    with B_0 != 0.  The one normalization makes den monic:
    b_j / b_0 = s_j / d with s_j = B_j conj(B_0) / g, g the gcd of all their
    parts, and d = s_0 = |B_0|^2 / g; and a_n / b_0 is
    A_n h / (F g' d) with h = E conj(B_0) / k, g' = g / k, k = gcd(E conj(B_0), g).
    With c_n = X_n / (F g' d^(n+1)) the recurrence
    c_n = a_n / b_0 - sum_{j>=1} (s_j / d) c_{n-j} becomes
    X_n = A_n h d^n - sum_{j=1}^{n} s_j d^(j-1) X_{n-j}, all in integers.

    Returns (X_re, X_im, F g' d, d): c_n = (X_re[n] + X_im[n] i) / (F g' d^(n+1)).
    """
    a_re, a_im, a_den = num
    b_re, b_im, b_den = den
    c, e = b_re[0], -b_im[0]  # conj(B_0)
    s_re = [x * c - y * e for x, y in zip(b_re, b_im)]
    s_im = [x * e + y * c for x, y in zip(b_re, b_im)]
    g = gcd(*s_re, *s_im)  # s_0 = |B_0|^2 > 0, so g divides it
    s_re = [x // g for x in s_re]
    s_im = [x // g for x in s_im]
    d = s_re[0]
    k = gcd(b_den * c, b_den * e, g)
    h_re, h_im, g = b_den * c // k, b_den * e // k, g // k
    # w_j = s_j d^(j-1): the weight of X_{n-j} in X_n
    w_re, w_im, dj = [0], [0], 1
    for j in range(1, min(len(s_re), N + 1)):
        w_re.append(s_re[j] * dj)
        w_im.append(s_im[j] * dj)
        dj *= d
    x_re, x_im, dn = [], [], 1
    for n in range(N + 1):
        if n < len(a_re):
            p, q = a_re[n] * dn, a_im[n] * dn
            acc_re, acc_im = p * h_re - q * h_im, p * h_im + q * h_re
        else:
            acc_re = acc_im = 0
        for j in range(1, min(n + 1, len(w_re))):
            p, q = x_re[n - j], x_im[n - j]
            acc_re -= w_re[j] * p - w_im[j] * q
            acc_im -= w_re[j] * q + w_im[j] * p
        x_re.append(acc_re)
        x_im.append(acc_im)
        dn *= d
    return x_re, x_im, a_den * g * d, d


def _to_scalars(x_re, x_im, den: int, d: int) -> list:
    """The scalars (x_re[n] + x_im[n] i) / (den d^n)."""
    out = []
    for re, im in zip(x_re, x_im):
        out.append(_from_numerators(re, im, den))
        den *= d
    return out


class DensePolynomial:
    """A polynomial over Q(i), dense ascending coefficients, no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("DensePolynomial is immutable")

    @classmethod
    def zero(cls) -> "DensePolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "DensePolynomial":
        return cls((GR_ONE,))

    @classmethod
    def x(cls) -> "DensePolynomial":
        return cls((GR_ZERO, GR_ONE))

    @classmethod
    def constant(cls, c) -> "DensePolynomial":
        return cls((_as_scalar(c),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GR_ZERO

    def leading(self) -> GaussianRational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, DensePolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> "DensePolynomial":
        return DensePolynomial(-c for c in self.coeffs)

    def __add__(self, other):
        if isinstance(other, _Scalarish):
            other = DensePolynomial.constant(other)
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return DensePolynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Scalarish):
            other = DensePolynomial.constant(other)
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _Scalarish):
            c = _as_scalar(other)
            return DensePolynomial(ci * c for ci in self.coeffs)
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return DensePolynomial.zero()
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return DensePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DensePolynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n, DensePolynomial.one())

    def evaluate(self, x) -> GaussianRational:
        x = _as_scalar(x)
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, h) -> "DensePolynomial":
        """Return q with q(x) = p(x + h)."""
        h = _as_scalar(h)
        if not h:
            return self
        return self.compose(DensePolynomial((h, GR_ONE)))

    def compose(self, inner: "DensePolynomial") -> "DensePolynomial":
        acc = DensePolynomial.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def monic(self) -> "DensePolynomial":
        if not self.coeffs:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        if lead == GR_ONE:
            return self
        return DensePolynomial(c / lead for c in self.coeffs)

    def divmod(self, divisor: "DensePolynomial"):
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.coeffs[-1]
        quot = [GR_ZERO] * max(len(rem) - dd, 0)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if not c:
                continue
            factor = c / lead
            quot[k - dd] = factor
            for i, dc in enumerate(divisor.coeffs):
                rem[k - dd + i] = rem[k - dd + i] - factor * dc
        return DensePolynomial(quot), DensePolynomial(rem)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            parts.append(f"({c})" + ("*" + term if term else ""))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"DensePolynomial([{', '.join(str(c) for c in self.coeffs)}])"

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Iterable) -> "DensePolynomial":
        return cls(_as_scalar(c) for c in data)


def poly_gcd(a: DensePolynomial, b: DensePolynomial) -> DensePolynomial:
    """Monic gcd over Q(i) by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    if a.is_zero():
        return a
    return a.monic()


def _root_product(factors) -> DensePolynomial:
    """prod (x - a)^e over the pairs (a, e), on Gaussian-integer numerators.

    With every a = alpha / D over the roots' common denominator D, slot j
    of a partial product of degree d holds its x^j coefficient times
    D^(d - j), so each factor (x - a) is the integer step
    slot[j] <- slot[j - 1] - alpha * slot[j], and the coefficients become
    scalars once, at the end.
    """
    factors = [(a, e) for a, e in factors if e]
    if not factors:
        return DensePolynomial.one()
    a_re, a_im, D = _clear_denominators(a for a, _ in factors)
    re, im = [1], [0]
    for ar, ai, (_, e) in zip(a_re, a_im, factors):
        for _ in range(e):
            re.append(0)
            im.append(0)
            for j in range(len(re) - 1, 0, -1):
                x, y = re[j], im[j]
                re[j] = re[j - 1] - (ar * x - ai * y)
                im[j] = im[j - 1] - (ar * y + ai * x)
            x, y = re[0], im[0]
            re[0], im[0] = -(ar * x - ai * y), -(ar * y + ai * x)
    d = len(re) - 1
    powers = [1]
    for _ in range(d):
        powers.append(powers[-1] * D)
    return DensePolynomial(
        [_from_numerators(re[j], im[j], powers[d - j]) for j in range(d + 1)]
    )


class FactoredPolynomial:
    """A monic polynomial given by its distinct roots and multiplicities."""

    __slots__ = ("roots", "_expanded")

    def __init__(self, roots: Iterable = ()):
        seen = {}
        for root, mult in roots:
            root = _as_scalar(root)
            mult = int(mult)
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            if root in seen:
                raise ValueError(f"duplicate root {root}")
            seen[root] = mult
        ordered = sorted(seen.items(), key=lambda rm: (rm[0].re, rm[0].im))
        object.__setattr__(self, "roots", tuple(ordered))
        object.__setattr__(self, "_expanded", None)

    def __setattr__(self, name, value):
        raise AttributeError("FactoredPolynomial is immutable")

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.roots)

    def multiplicity(self, a) -> int:
        a = _as_scalar(a)
        for root, mult in self.roots:
            if root == a:
                return mult
        return 0

    def expand(self) -> DensePolynomial:
        if self._expanded is None:
            object.__setattr__(self, "_expanded", _root_product(self.roots))
        return self._expanded

    def evaluate(self, x) -> GaussianRational:
        x = _as_scalar(x)
        acc = GR_ONE
        for root, mult in self.roots:
            acc = acc * (x - root) ** mult
        return acc

    def quotient_poly(self, a, k: int) -> DensePolynomial:
        """Expand self / (x - a)^k; requires 0 <= k <= multiplicity of a."""
        if k < 0:
            raise ValueError(f"quotient needs k >= 0, got k = {k}")
        a = _as_scalar(a)
        if self.multiplicity(a) < k:
            raise ValueError(f"(x - {a})^{k} does not divide")
        return _root_product(
            (root, mult - k if root == a else mult) for root, mult in self.roots
        )

    def remove(self, other: "FactoredPolynomial") -> "FactoredPolynomial":
        """Divide out another factored polynomial, root by root."""
        left = dict(self.roots)
        for root, mult in other.roots:
            if left.get(root, 0) < mult:
                raise ValueError(f"{other} does not divide {self}")
            left[root] -= mult
        return FactoredPolynomial((r, m) for r, m in left.items() if m)

    def __mul__(self, other: "FactoredPolynomial") -> "FactoredPolynomial":
        merged = dict(self.roots)
        for root, mult in other.roots:
            merged[root] = merged.get(root, 0) + mult
        return FactoredPolynomial(merged.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, FactoredPolynomial):
            return self.roots == other.roots
        return NotImplemented

    def __hash__(self):
        return hash(self.roots)

    def __str__(self) -> str:
        if not self.roots:
            return "1"
        parts = []
        for root, mult in self.roots:
            base = f"(x - ({root}))"
            parts.append(base if mult == 1 else f"{base}^{mult}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"FactoredPolynomial({list(self.roots)!r})"

    def to_json(self) -> list:
        return [[str(root), mult] for root, mult in self.roots]

    @classmethod
    def from_json(cls, data: Iterable) -> "FactoredPolynomial":
        return cls((item[0], item[1]) for item in data)


class TruncatedSeries:
    """A truncated series sum_{n<=N} c_n x^{-n-1} in x^{-1} C[[x^{-1}]].

    ``_massey`` holds the series' Berlekamp-Massey pass, which ``pade``
    makes on first use and resumes on later reads.
    """

    __slots__ = ("coeffs", "_massey")

    def __init__(self, coeffs: Iterable):
        object.__setattr__(
            self, "coeffs", tuple(_as_scalar(c) for c in coeffs)
        )
        if not self.coeffs:
            raise ValueError("a truncated series needs at least one coefficient")
        object.__setattr__(self, "_massey", None)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> GaussianRational:
        return self.coeffs[n]

    def __iter__(self) -> Iterator[GaussianRational]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def truncate(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError(f"truncation order must be nonnegative, got n = {n}")
        if n > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: n + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries(
            self.coeffs[i] + other.coeffs[i] for i in range(n)
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries(
            self.coeffs[i] - other.coeffs[i] for i in range(n)
        )

    def scale(self, c) -> "TruncatedSeries":
        c = _as_scalar(c)
        return TruncatedSeries(c * ci for ci in self.coeffs)

    def first_nonzero(self):
        """Index of the first nonzero coefficient, or None if all vanish."""
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return None

    def __repr__(self) -> str:
        c = ", ".join(str(ci) for ci in self.coeffs)
        return f"TruncatedSeries([{c}])"

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]


def series_of_rational(
    R: DensePolynomial, S: DensePolynomial, N: int
) -> TruncatedSeries:
    """Expand R/S at infinity: coefficients c_0..c_N of sum c_n x^{-n-1}.

    Requires deg R < deg S = m.  In y = 1/x, R/S = y * R~(y)/S~(y) with the
    reversed coefficient lists R~_n = R_{m-1-n} and S~_j = S_{m-j}, so c is
    the power series R~/S~.  ``_series_numerators`` divides S by its leading
    coefficient once, which leaves integer numerators over one denominator
    d_S; then c_n = X_n / (g d_R d_S^(n+1)) with Gaussian-integer X_n, d_R
    the common denominator of R and g a constant of the normalization.
    Each c_n becomes a scalar only at the end.
    """
    if N < 0:
        raise ValueError(f"series order N must be nonnegative, got N = {N}")
    if S.is_zero():
        raise ValueError("denominator is zero")
    if not R.is_zero() and R.degree >= S.degree:
        raise ValueError("series expansion needs deg R < deg S")
    return TruncatedSeries(_to_scalars(*_series_at_infinity(R, S, N)))


def _series_at_infinity(R: DensePolynomial, S: DensePolynomial, N: int):
    """``_series_numerators`` of R/S at infinity, deg R < deg S = m."""
    m = S.degree
    return _series_numerators(
        _clear_denominators(R.coefficient(m - 1 - n) for n in range(m)),
        _clear_denominators(reversed(S.coeffs)),
        N,
    )


class PrincipalParts:
    """A finitely supported map pole -> coefficients [e^(1), ..., e^(m)].

    Represents the strictly proper rational function
    sum_a sum_k e_a^(k) / (x - a)^k; the top coefficient of every entry is
    nonzero.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        if isinstance(entries, dict):
            entries = entries.items()
        cleaned = {}
        for location, coeffs in entries:
            location = _as_scalar(location)
            cs = [_as_scalar(c) for c in coeffs]
            while cs and not cs[-1]:
                cs.pop()
            if cs:
                cleaned[location] = tuple(cs)
        ordered = sorted(
            cleaned.items(), key=lambda lc: (lc[0].re, lc[0].im)
        )
        object.__setattr__(self, "entries", dict(ordered))

    def __setattr__(self, name, value):
        raise AttributeError("PrincipalParts is immutable")

    def support(self):
        return tuple(self.entries)

    def order_at(self, a) -> int:
        return len(self.entries.get(_as_scalar(a), ()))

    def coefficient(self, a, k: int) -> GaussianRational:
        """The coefficient of 1/(x - a)^k (zero when absent)."""
        coeffs = self.entries.get(_as_scalar(a), ())
        if 1 <= k <= len(coeffs):
            return coeffs[k - 1]
        return GR_ZERO

    def max_order(self) -> int:
        return max((len(c) for c in self.entries.values()), default=0)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if isinstance(other, PrincipalParts):
            return self.entries == other.entries
        return NotImplemented

    def __iter__(self):
        return iter(self.entries.items())

    def to_rational(self):
        """Recombine into (R, S) with S = prod (x - a)^{m_a}, monic."""
        S = _root_product((a, len(coeffs)) for a, coeffs in self.entries.items())
        R = DensePolynomial.zero()
        for a, coeffs in self.entries.items():
            cof = S
            for _ in range(len(coeffs)):
                cof = cof.divmod(DensePolynomial((-a, GR_ONE)))[0]
            # cof = S/(x-a)^{m_a}; multiply back up order by order
            for k in range(len(coeffs), 0, -1):
                R = R + coeffs[k - 1] * cof
                if k > 1:
                    cof = cof * DensePolynomial((-a, GR_ONE))
        return R, S

    def series(self, N: int) -> TruncatedSeries:
        if N < 0:
            raise ValueError(f"series order N must be nonnegative, got N = {N}")
        R, S = self.to_rational()
        if S.degree == 0:
            return TruncatedSeries([GR_ZERO] * (N + 1))
        return series_of_rational(R, S, N)

    def __repr__(self) -> str:
        items = ", ".join(
            f"{a}: [{', '.join(str(c) for c in cs)}]"
            for a, cs in self.entries.items()
        )
        return f"PrincipalParts({{{items}}})"

    def to_json(self) -> dict:
        return {str(a): [str(c) for c in cs] for a, cs in self.entries.items()}


def partial_fractions(
    R: DensePolynomial, P: FactoredPolynomial
) -> PrincipalParts:
    """Principal-parts expansion of R/P over the roots of P.

    Requires deg R < deg P.  At a root a of multiplicity m write
    P = (x - a)^m B; the coefficient of 1/(x - a)^(m-i) is the i-th Taylor
    coefficient at a of R/B, for i < m.  The Taylor coefficients of a
    quotient to order m - 1 depend only on those of numerator and
    denominator to order m - 1, so only the first m of each are formed:

    * R(a + y): m synthetic divisions by (x - a), on the integer numerators
      of R over d_R, with a = alpha / D (D the common denominator of all
      roots).  Slot k holds its value times D^(deg R - k), so each pass is
      slot[k] += alpha * slot[k + 1];
    * B(a + y) = prod_{b != a} (y + a - b)^e, truncated at y^m, as
      D^(m - deg P) prod (D y + (alpha - beta))^e in integers.

    The quotient is one ``_series_numerators`` call, which normalizes B(a)
    once; each coefficient becomes a scalar only at the end.
    """
    if P.degree == 0:
        raise ValueError("denominator must be nonconstant")
    if R.is_zero():
        return PrincipalParts()
    if R.degree >= P.degree:
        raise ValueError("partial fractions need deg R < deg P")
    n = R.degree
    r_re, r_im, r_den = _clear_denominators(R.coeffs)
    roots_re, roots_im, D = _clear_denominators(root for root, _ in P.roots)
    powers = [D**k for k in range(n + 1)]
    entries = {}
    for idx, (a, m) in enumerate(P.roots):
        ar, ai = roots_re[idx], roots_im[idx]
        # R(a + y) to order m - 1, over r_den * D^n
        xr = [x * powers[n - k] for k, x in enumerate(r_re)]
        xi = [x * powers[n - k] for k, x in enumerate(r_im)]
        for j in range(min(m, n + 1)):
            for k in range(n - 1, j - 1, -1):
                p, q = xr[k + 1], xi[k + 1]
                xr[k] += ar * p - ai * q
                xi[k] += ar * q + ai * p
        loc_re = [xr[j] * powers[j] for j in range(min(m, n + 1))]
        loc_im = [xi[j] * powers[j] for j in range(min(m, n + 1))]
        # B(a + y) to order m - 1, over D^(deg P - m)
        br, bi = [1] + [0] * (m - 1), [0] * m
        for other, (_, e) in enumerate(P.roots):
            if other == idx:
                continue
            gr, gi = ar - roots_re[other], ai - roots_im[other]
            for _ in range(e):
                for j in range(m - 1, 0, -1):
                    br[j], bi[j] = (
                        gr * br[j] - gi * bi[j] + D * br[j - 1],
                        gr * bi[j] + gi * br[j] + D * bi[j - 1],
                    )
                br[0], bi[0] = gr * br[0] - gi * bi[0], gr * bi[0] + gi * br[0]
        c_re, c_im, den, d = _series_numerators(
            (loc_re, loc_im, r_den * powers[n]),
            (br, bi, D ** (P.degree - m)),
            m - 1,
        )
        taylor = _to_scalars(c_re, c_im, den, d)
        # c_i (x-a)^i / (x-a)^m contributes to order m - i
        entries[a] = tuple(reversed(taylor))
    return PrincipalParts(entries)


class CosetKey(NamedTuple):
    """Canonical label for a coset of Z inside Q(i).

    Two locations share a key exactly when their difference is an integer;
    the representative keeps the imaginary part and reduces the real part
    to its fractional part in [0, 1).
    """

    imag: Fraction
    real_frac: Fraction

    def representative(self) -> GaussianRational:
        return GaussianRational(self.real_frac, self.imag)

    def __str__(self) -> str:
        return (
            f"{self.real_frac.numerator}/{self.real_frac.denominator}/"
            f"{self.imag.numerator}/{self.imag.denominator}"
        )


def coset_key(a) -> CosetKey:
    """The coset of a modulo Z; keys agree iff a - a' is an integer."""
    a = _as_scalar(a)
    floor = a.re.numerator // a.re.denominator
    return CosetKey(imag=a.im, real_frac=a.re - floor)


def integer_offset(a, b) -> int | None:
    """Return the integer a - b if there is one, else None."""
    a = _as_scalar(a)
    b = _as_scalar(b)
    if a.im != b.im:
        return None
    diff = a.re - b.re
    if diff.denominator != 1:
        return None
    return diff.numerator


def parse_factored(text: str) -> FactoredPolynomial:
    """Parse a restricted factored expression: a product of (x - root)^mult.

    Accepted grammar, with optional ``*`` between factors:
    ``factor ::= 'x' | '(' 'x' (('+'|'-') scalar)? ')'`` followed by an
    optional ``'^' integer``.  Roots are Gaussian rationals written like
    ``1/2``, ``3``, or ``1/3+1/2i``.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial expression")
    roots: dict[GaussianRational, int] = {}
    pos = 0
    n = len(s)

    def parse_power(idx):
        if idx < n and s[idx] == "^":
            j = idx + 1
            start = j
            while j < n and s[j].isdigit():
                j += 1
            if start == j:
                raise ValueError(f"bad exponent at {idx} in {text!r}")
            return int(s[start:j]), j
        return 1, idx

    while pos < n:
        if s[pos] == "*":
            pos += 1
            continue
        if s[pos] == "x":
            mult, pos = parse_power(pos + 1)
            root = GR_ZERO
        elif s[pos] == "(":
            close = s.find(")", pos)
            if close < 0:
                raise ValueError(f"unbalanced parenthesis in {text!r}")
            inner = s[pos + 1 : close]
            if not inner.startswith("x"):
                raise ValueError(f"factor must start with x: {inner!r}")
            rest = inner[1:]
            if rest == "":
                root = GR_ZERO
            elif rest[0] in "+-":
                root = -GaussianRational.from_string(rest)
            else:
                raise ValueError(f"bad factor {inner!r}")
            mult, pos = parse_power(close + 1)
        else:
            raise ValueError(f"unexpected character {s[pos]!r} in {text!r}")
        roots[root] = roots.get(root, 0) + mult
    return FactoredPolynomial(roots.items())
