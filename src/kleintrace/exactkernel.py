"""Exact scalar, polynomial, series and partial-fraction arithmetic over Q(i).

Everything downstream (trace spaces, degeneracy tests, Pade approximants,
module traces) runs on the types defined here.  All arithmetic is exact and
no operation in this module ever touches floating point.

A scalar, ``GaussianRational``, holds its real and imaginary parts as two
``fractions.Fraction``.  The hot loops do not run on it: they clear a run of
scalars to Gaussian-integer numerators over one least common denominator
(``_clear_denominators``), work on plain Python ints, and turn each result
back into a scalar once (``_from_numerators``).  That is how the series
recurrence (``series_of_rational``), the rank of ``linalg`` and the
integer paths of ``tracespace``, ``pade`` and ``findim`` run.  A series
never leaves integers: ``solve_moments``, ``series_of_rational`` and
``findim.module_trace`` hand their numerators to
``TruncatedSeries._of_numerators``, which reduces them to the series' one
form, numerators over the least common denominator of every part
(``numerators()``).  Every moment reader works on that form, and a scalar
is made only when one is read, and not kept.  A polynomial keeps the form
its producer made, scalars or that integer form (``DensePolynomial``), so
the integer kernels hand polynomials to each other with no scalar made in
between.  Every quotient is by linear factors (below); coprimality, the
one gcd question, is a Hankel rank (``selftest._gcd_degree``).

Every product, shift, quotient and local expansion built from linear
factors (x - a) runs in one of two loops on one slot form.  With the roots
over their common denominator D, a = alpha / D, slot j of a polynomial of
degree d holds its x^j coefficient times D^(d - j), and (x - a) acts as
(y - alpha) on Gaussian integers.  ``_root_slots`` builds
prod (y - alpha)^e, truncated to a number of slots (``_root_product``, P's
kept expansion, the cofactors of ``partial_fractions``).  P keeps its
cleared roots apart from its expansion (``FactoredPolynomial``), so
``partial_fractions``, which reads only the roots, never expands P.  Over
the roots of P shifted by h, ``_root_product`` is P(x + h): whole for the
winding ladders of ``algebra``, and cut to its first k coefficients, the
Taylor coefficients of P at h, for the lowering entries of ``findim``'s
string and Jordan builders.  ``_divide_rounds`` runs synthetic-division
rounds by (y - alpha): k rounds leave the first k Taylor coefficients at
alpha in slots 0..k-1 and p / (y - alpha)^k in slots k..
(``DensePolynomial.shift``, ``partial_fractions``, ``_q_sums``).  Every
sum of c P/(x - a)^k, the Q of ``q_from_principal_parts``, of the
degenerate basis and of each component of a decomposition, is one
kernel, ``_q_sums``, which keeps each root's chain of quotients across
the terms and groups it is given.

The cosets a + Z of P's roots, and each root's integer offset, are one
walk over P's cleared roots, kept on P (``_roots_by_coset``).  No other
module reads a scalar's Fraction parts: it clears scalars here
(``_clear_denominators``), or prints and compares them whole.

Serialization conventions shared across the package:

* scalars render as ``"p/q+r/si"`` with explicit denominators,
  e.g. ``"-3/2+0/1i"``, read and printed on plain integers
  (``_read_part``, ``_scalar_text``);
* dense polynomials render as ascending coefficient arrays of scalar
  strings;
* factored polynomials render as ``[[root, multiplicity], ...]`` pairs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Iterator, NamedTuple


class GaussianRational:
    """An exact complex number re + im*i with rational re, im.

    Instances are immutable and hashable; arithmetic never rounds, so
    ``(a + b) - b == a`` holds for all values.  Only the public constructor
    converts and checks its parts: arithmetic, ``from_string`` and the
    integer kernels build their results with ``_of_parts`` and
    ``_from_numerators``.  Text crosses as integers: ``from_string`` reads
    each part with ``_read_part``, and ``str`` prints the reduced numerator
    and denominator of each part (``_scalar_text``).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, str):
            re = _read_part(re)
        if isinstance(im, str):
            im = _read_part(im)
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_string(cls, s: str) -> "GaussianRational":
        """Parse ``p/q+r/si`` and the obvious shorthands (``2``, ``-3/2``, ``i``).

        Exponent notation is refused: ``Fraction`` would read ``1e300000``
        as a 300001-digit integer.
        """
        return _read_scalar(s, 1)

    def __str__(self) -> str:
        re, im = self.re, self.im
        return _scalar_text(re.numerator, re.denominator, im.numerator, im.denominator)

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
        # equal values hash alike: a real scalar hashes as its int or
        # Fraction, an integer one straight from its numerator; only
        # scalars equal a non-real scalar, so its reduced parts do
        re, im = self.re, self.im
        if im:
            return hash((re.numerator, re.denominator, im.numerator, im.denominator))
        if re.denominator == 1:
            return hash(re.numerator)
        return hash(re)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __neg__(self) -> "GaussianRational":
        return _of_parts(-self.re, -self.im)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _of_parts(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _of_parts(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _of_parts(
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
        return _of_parts(
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

    def to_complex(self) -> complex:
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise ValueError(f"{_shown(str(self))} is out of double range") from None


def _shown(value) -> str:
    """repr(value) for an error message, or, past 40 characters, its first
    40 and its length, so that a message stays short whatever the input."""
    text = repr(value)
    if len(text) <= 40:
        return text
    return f"{text[:40]}... ({len(text)} characters)"


_FRACTION_ZERO = Fraction(0)


def _read_scalar(s: str, sign: int) -> GaussianRational:
    """``GaussianRational.from_string(s)`` times ``sign``, 1 or -1, with the
    sign put on each part as it is read, so that ``parse_factored`` makes
    the root a of (x - a) once from its text -a; errors name s."""
    text = s.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar string")
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in scalar {_shown(s)}")
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
            re_val = _read_part(re_part, sign) if re_part else _FRACTION_ZERO
            return _of_parts(re_val, _read_part(im_part, sign))
        return _of_parts(_read_part(text, sign), _FRACTION_ZERO)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {_shown(s)}") from None
    except ValueError as exc:
        # Fraction's own message quotes the whole text
        if _over_digit_limit(exc):
            raise
        raise ValueError(f"cannot read a scalar from {_shown(s)}") from None


def _read_part(part: str, sign: int = 1) -> Fraction:
    """One part of a scalar string as a Fraction: a plain ``[+-]digits`` or
    ``[+-]digits/digits`` by ``int()``, and any other spelling (decimals,
    underscores, whitespace) by ``Fraction(part)``, which accepts and
    refuses exactly what it did before.  A digit is a decimal digit of any
    script, as for ``int()`` and for the ``\\d`` of Fraction's pattern.  Both
    raise what ``Fraction(part)`` raises: ZeroDivisionError on a zero
    denominator, and Python's digit-limit ValueError on an integer past
    the limit.  ``sign`` -1 reads the negated part."""
    num, slash, den = part.partition("/")
    digits = num[1:] if num[:1] in "+-" else num
    if digits.isdecimal() and (not slash or den.isdecimal()):
        if sign < 0:
            num = digits if num[:1] == "-" else "-" + digits
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    value = Fraction(part)
    return value if sign > 0 else -value


def _scalar_text(re_num: int, re_den: int, im_num: int, im_den: int) -> str:
    """``p/q+r/si`` from the reduced parts (re_num / re_den) and
    (im_num / im_den), denominators positive; the sign comes from im_num."""
    if im_num < 0:
        return f"{re_num}/{re_den}-{-im_num}/{im_den}i"
    return f"{re_num}/{re_den}+{im_num}/{im_den}i"


def _numerator_text(re: int, im: int, den: int) -> str:
    """The text of the scalar (re + im i) / den, den positive, reduced by
    one gcd per part; it makes no scalar."""
    g, h = gcd(re, den), gcd(im, den)
    return _scalar_text(re // g, den // g, im // h, den // h)


def _over_digit_limit(exc: ValueError) -> bool:
    """Whether exc is Python's refusal to read an integer of more than
    ``sys.get_int_max_str_digits()`` digits."""
    return "integer string conversion:" in str(exc)


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
    # a list and one lcm per value, not tuple(values) and lcm(*parts): in a
    # long run those resized tuples filled CPython's tuple free lists, and
    # peak RSS rose with the number of calls
    values = list(values)
    den = 1
    for v in values:
        den = lcm(den, v.re.denominator, v.im.denominator)
    return (
        [v.re.numerator * (den // v.re.denominator) for v in values],
        [v.im.numerator * (den // v.im.denominator) for v in values],
        den,
    )


_set_re, _set_im = GaussianRational.re.__set__, GaussianRational.im.__set__


def _of_parts(re: Fraction, im: Fraction) -> GaussianRational:
    """The scalar re + im i from two Fractions, kept as they are: the one
    constructor that skips the public constructor's conversion."""
    out = object.__new__(GaussianRational)
    _set_re(out, re)
    _set_im(out, im)
    return out


def _from_numerators(re: int, im: int, den: int) -> GaussianRational:
    """The scalar (re + im i) / den, den a nonzero integer."""
    return _of_parts(Fraction(re, den), Fraction(im, den))


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


def _from_slots(re, im, den: int, D: int) -> "DensePolynomial":
    """The polynomial of degree d = len(re) - 1 whose x^j coefficient is
    (re[j] + im[j] i) / (den D^(d - j)), made of numerators over den D^d."""
    powers = [1]
    for _ in re[1:]:
        powers.append(powers[-1] * D)
    re, im = list(map(mul, re, powers)), list(map(mul, im, powers))
    return DensePolynomial._of_numerators(re, im, den * powers[-1])


def _top_down(p: "DensePolynomial", size: int):
    """(re, im, den) of p's x^(size - 1) .. x^0 coefficients, from the top:
    its numerators reversed, with zeros above its degree."""
    re, im, den = p._numerators()
    pad = [0] * (size - len(re))
    return (re + pad)[::-1], (im + pad)[::-1], den


def _root_slots(roots, size: int):
    """(re, im): the first ``size`` slots of prod (y - alpha)^e over the
    triples (alpha_re, alpha_im, e) of ``roots``, Gaussian integers:
    (y - alpha) takes slot[j] <- slot[j - 1] - alpha slot[j]."""
    re, im = [1], [0]
    for ar, ai, e in roots:
        for _ in range(e):
            if len(re) < size:
                re.append(0)
                im.append(0)
            for j in range(len(re) - 1, 0, -1):
                x, y = re[j], im[j]
                re[j] = re[j - 1] - (ar * x - ai * y)
                im[j] = im[j - 1] - (ar * y + ai * x)
            x, y = re[0], im[0]
            re[0], im[0] = -(ar * x - ai * y), -(ar * y + ai * x)
    return re, im


def _divide_rounds(re, im, ar: int, ai: int, first: int, last: int) -> None:
    """Rounds first..last - 1 of synthetic division of the slots by
    (y - alpha), alpha = ar + ai i, in place.  Round i divides slots i.. by
    (y - alpha): slot i keeps the remainder, which is final (the i-th
    Taylor coefficient at alpha), and slots i + 1.. the quotient."""
    n = len(re) - 1
    for i in range(first, last):
        for j in range(n - 1, i - 1, -1):
            x, y = re[j + 1], im[j + 1]
            re[j] += ar * x - ai * y
            im[j] += ar * y + ai * x


class DensePolynomial:
    """A polynomial over Q(i), dense ascending coefficients, no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree -1.

    It keeps the form its producer made, and makes the other on first read
    and keeps it: the scalars ``coeffs`` of the public constructor
    (``from_json``, the scalar arithmetic), or the integer form
    ``_numerators()``, ``_clear_denominators`` of the scalars, which the
    integer kernels (``shift``, ``_root_product``, ``expand``,
    ``_q_sums``, Pade's S and R, ``q_from_moments``) hand
    to ``_of_numerators``.  Only arithmetic and the scalar reads
    (``coeffs``, ``coefficient``, ``leading``) use the scalars; every other
    read takes the integers, so comparing, hashing and printing (one gcd
    per part) make no scalar.
    """

    __slots__ = ("_coeffs", "_num")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        _set_coeffs(self, tuple(cs))
        _set_num(self, None)

    @classmethod
    def _of_numerators(cls, re: list, im: list, den: int) -> "DensePolynomial":
        """The polynomial with x^j coefficient (re[j] + im[j] i) / den, den a
        positive integer, in its integer form: trailing zero pairs go, and
        den and every part are divided by their gcd, which leaves the least
        common denominator (see ``TruncatedSeries._of_numerators``).  When
        nothing changes, the lists are kept, not copied."""
        while re and not (re[-1] or im[-1]):
            re, im = re[:-1], im[:-1]
        g = gcd(den, *re, *im)
        if g > 1:
            re, im, den = [x // g for x in re], [y // g for y in im], den // g
        out = object.__new__(cls)
        _set_coeffs(out, None)
        _set_num(out, (re, im, den))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("DensePolynomial is immutable")

    @property
    def coeffs(self) -> tuple:
        """The scalar coefficients, made from the integers on first read."""
        if self._coeffs is None:
            re, im, den = self._num
            # a list first: tuples made from an iterator are resized, and
            # resized tuples piled up in CPython's tuple free lists
            _set_coeffs(self, tuple([*map(_from_numerators, re, im, repeat(den))]))
        return self._coeffs

    def _numerators(self) -> tuple:
        """(re, im, den), cleared from the scalars on first read; callers
        read the lists and do not change them."""
        if self._num is None:
            _set_num(self, _clear_denominators(self._coeffs))
        return self._num

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
        return len(self._coeffs if self._num is None else self._num[0]) - 1

    def is_zero(self) -> bool:
        return self.degree < 0

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
            return self._numerators() == other._numerators()
        return NotImplemented

    def __hash__(self):
        re, im, den = self._numerators()
        return hash((tuple(re), tuple(im), den))

    def __bool__(self) -> bool:
        return self.degree >= 0

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
        left, right = self.coeffs, other.coeffs
        if not left or not right:
            return DensePolynomial.zero()
        out = [GR_ZERO] * (len(left) + len(right) - 1)
        for i, a in enumerate(left):
            if not a:
                continue
            for j, b in enumerate(right):
                out[i + j] = out[i + j] + a * b
        return DensePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DensePolynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n, DensePolynomial.one())

    def shift(self, h) -> "DensePolynomial":
        """Return q with q(x) = p(x + h), by a Taylor shift on Gaussian
        integers (von zur Gathen and Gerhard 1997).

        With a_k = alpha_k / D and h = eta / E over their common
        denominators, A_k = alpha_k E^(n-k) are the coefficients of
        D E^n p(y / E).  Their shift sum_j B_j y^j = sum_k A_k (y + eta)^k
        takes the n rounds of ``_divide_rounds`` by (y - eta), and the x^j
        coefficient of p(x + h) is B_j / (D E^(n-j)).
        """
        h = _as_scalar(h)
        n = self.degree
        if n < 1 or not h:
            return self
        (er,), (ei,), E = _clear_denominators((h,))
        re, im, D = self._numerators()
        re, im = list(re), list(im)
        scale = 1
        for k in range(n, -1, -1):
            re[k] *= scale
            im[k] *= scale
            scale *= E
        _divide_rounds(re, im, er, ei, 0, n)
        return _from_slots(re, im, D, E)

    def _texts(self) -> list:
        """The text of each coefficient, printed from the numerators, so no
        scalar is made."""
        re, im, den = self._numerators()
        return list(map(_numerator_text, re, im, repeat(den)))

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self._texts()):
            if c == "0/1+0/1i":
                continue
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            parts.append(f"({c})" + ("*" + term if term else ""))
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"DensePolynomial([{', '.join(self._texts())}])"

    def to_json(self) -> list:
        return self._texts()

    @classmethod
    def from_json(cls, data: Iterable) -> "DensePolynomial":
        return cls(_as_scalar(c) for c in data)


_set_coeffs, _set_num = DensePolynomial._coeffs.__set__, DensePolynomial._num.__set__


def _root_product(factors, size=None) -> DensePolynomial:
    """prod (x - a)^e over the pairs (a, e), or its first ``size``
    coefficients, on Gaussian-integer numerators: with the roots
    a = alpha / D, slot j of the product holds its x^j coefficient times
    D^(d - j), d the degree, so the s slots kept sit over D^(d + 1 - s), and
    become scalars once."""
    factors = list(factors)
    a_re, a_im, D = _clear_denominators(a for a, _ in factors)
    exps = [e for _, e in factors]
    d = sum(exps)
    re, im = _root_slots(zip(a_re, a_im, exps), size or 1 + d)
    return _from_slots(re, im, D ** (1 + d - len(re)), D)


class FactoredPolynomial:
    """A monic polynomial given by its distinct roots and multiplicities."""

    __slots__ = ("roots", "_cleared", "_slots", "_expanded", "_cosets")

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
        self._hold(seen)

    def _hold(self, roots: dict) -> None:
        """Keep a dict of distinct scalar roots and their multiplicities,
        ints >= 1, as ``roots``, sorted by (re, im), with nothing checked."""
        ordered = sorted(roots.items(), key=lambda rm: (rm[0].re, rm[0].im))
        object.__setattr__(self, "roots", tuple(ordered))
        for name in ("_cleared", "_slots", "_expanded", "_cosets"):
            object.__setattr__(self, name, None)

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

    def _cleared_roots(self):
        """(a_re, a_im, D): the roots a = (a_re + a_im i) / D over their
        common denominator, the one clearing of P's roots, made on first
        use and kept."""
        if self._cleared is None:
            cleared = _clear_denominators(a for a, _ in self.roots)
            object.__setattr__(self, "_cleared", cleared)
        return self._cleared

    def _slot_form(self):
        """(re, im, D): P's expansion from its cleared roots, slot j holding
        the x^j coefficient times D^(d - j), d = deg P; made on first use
        and kept, like ``expand()``; callers copy before changing it."""
        if self._slots is None:
            a_re, a_im, D = self._cleared_roots()
            exps = [m for _, m in self.roots]
            re, im = _root_slots(zip(a_re, a_im, exps), 1 + self.degree)
            object.__setattr__(self, "_slots", (re, im, D))
        return self._slots

    def expand(self) -> DensePolynomial:
        if self._expanded is None:
            re, im, D = self._slot_form()
            object.__setattr__(self, "_expanded", _from_slots(re, im, 1, D))
        return self._expanded

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

    The series is its integer form, ``numerators()``: (re, im, den) with
    c_n = (re[n] + im[n] i) / den over the least common denominator den of
    every part, exactly ``_clear_denominators`` of the scalars.  Every
    producer hands over integers through ``_of_numerators``, which reduces
    them to that form, and the scalar constructor clears its scalars once.
    The moment readers (``trace_of_poly``, ``hankel_rank``,
    ``q_from_moments`` and the Berlekamp-Massey pass of ``pade``) read the
    integers; a scalar is made only when it is read (``coeffs``, indexing,
    iteration) and is never kept.  Printing (``repr``, ``to_json``) reads
    the numerators, one gcd per part, and makes no scalar.

    ``_massey`` holds the series' Berlekamp-Massey pass, which ``pade``
    makes on first use and resumes on later reads.  A truncation shares its
    parent's pass: the pass reads the terms in order, so what it holds
    through the first n + 1 terms is the pass of the first n + 1, and
    ``pade`` reads no further than the series it is given.
    """

    __slots__ = ("_re", "_im", "_den", "_massey")

    def __init__(self, coeffs: Iterable):
        self._hold(*_clear_denominators(_as_scalar(c) for c in coeffs))

    def _hold(self, re: list, im: list, den: int) -> None:
        if not re:
            raise ValueError("a truncated series needs at least one coefficient")
        for name, value in zip(self.__slots__, (re, im, den, None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of_numerators(cls, re: list, im: list, den: int, ratio: int = 1):
        """The series c_n = (re[n] + im[n] i) / (den ratio^n), n = 0..N, for
        positive integers den and ratio, in its one form.

        Every value is put over L = den ratio^N, its parts times
        ratio^(N - n), and L and every part are divided by g = gcd(L, every
        part).  That leaves the least common denominator L / g: a part x / L
        has denominator L / gcd(L, x) in lowest terms, and the lcm of those
        is L / gcd(L, every x), as d -> L / d turns gcd into lcm on the
        divisors of L.  When nothing changes, the lists are kept, not
        copied."""
        if ratio != 1:
            powers = [1]
            for _ in range(len(re) - 1):
                powers.append(powers[-1] * ratio)
            powers.reverse()
            re, im = list(map(mul, re, powers)), list(map(mul, im, powers))
            den *= powers[0]
        g = gcd(den, *re, *im)
        if g > 1:
            re, im, den = [x // g for x in re], [y // g for y in im], den // g
        out = object.__new__(cls)
        out._hold(re, im, den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def coeffs(self) -> tuple:
        """The scalars c_0..c_N, made on each read."""
        return tuple(self)

    def numerators(self) -> tuple:
        """(re, im, den); callers read the lists and do not change them."""
        return self._re, self._im, self._den

    @property
    def order(self) -> int:
        return len(self._re) - 1

    def __getitem__(self, n: int) -> GaussianRational:
        return _from_numerators(self._re[n], self._im[n], self._den)

    def __iter__(self) -> Iterator[GaussianRational]:
        return map(_from_numerators, self._re, self._im, repeat(self._den))

    def __len__(self) -> int:
        return len(self._re)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.numerators() == other.numerators()
        return NotImplemented

    def __hash__(self):
        re, im, den = self.numerators()
        return hash((tuple(re), tuple(im), den))

    def truncate(self, n: int) -> "TruncatedSeries":
        """c_0..c_n, sharing this series' Berlekamp-Massey pass."""
        if n < 0:
            raise ValueError(f"truncation order must be nonnegative, got n = {n}")
        if n > self.order:
            raise ValueError("cannot extend a truncated series")
        out = TruncatedSeries._of_numerators(
            self._re[: n + 1], self._im[: n + 1], self._den
        )
        object.__setattr__(out, "_massey", self._massey)
        return out

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(map(add, self, other))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return TruncatedSeries(map(sub, self, other))

    def scale(self, c) -> "TruncatedSeries":
        c = _as_scalar(c)
        return TruncatedSeries(c * ci for ci in self)

    def first_nonzero(self):
        """Index of the first nonzero coefficient, or None if all vanish."""
        return next((n for n, c in enumerate(zip(self._re, self._im)) if any(c)), None)

    def __repr__(self) -> str:
        return f"TruncatedSeries([{', '.join(self.to_json())}])"

    def to_json(self) -> list:
        """The text of each coefficient, printed from the numerators."""
        return list(map(_numerator_text, self._re, self._im, repeat(self._den)))


def series_of_rational(
    R: DensePolynomial, S: DensePolynomial, N: int
) -> TruncatedSeries:
    """Expand R/S at infinity: coefficients c_0..c_N of sum c_n x^{-n-1}.

    Requires deg R < deg S = m.  In y = 1/x, R/S = y * R~(y)/S~(y) with the
    reversed coefficient lists R~_n = R_{m-1-n} and S~_j = S_{m-j}, so c is
    the power series R~/S~.  ``_series_numerators`` divides S by its leading
    coefficient once, which leaves integer numerators over one denominator
    d_S; then c_n = X_n / (g d_R d_S^(n+1)) with Gaussian-integer X_n, d_R
    the common denominator of R and g a constant of the normalization, and
    the series reduces that to its one form.
    """
    if N < 0:
        raise ValueError(f"series order N must be nonnegative, got N = {N}")
    if S.is_zero():
        raise ValueError("denominator is zero")
    if not R.is_zero() and R.degree >= S.degree:
        raise ValueError("series expansion needs deg R < deg S")
    m = S.degree
    return TruncatedSeries._of_numerators(
        *_series_numerators(_top_down(R, m), _top_down(S, m + 1), N)
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
        """Recombine into (R, S) with S = prod (x - a)^{m_a}, monic, and
        R = ``q_from_principal_parts(S, self)``."""
        S = FactoredPolynomial((a, len(cs)) for a, cs in self.entries.items())
        return q_from_principal_parts(S, self), S.expand()

    def series(self, N: int) -> TruncatedSeries:
        return series_of_rational(*self.to_rational(), N)

    def __repr__(self) -> str:
        items = ", ".join(
            f"{a}: [{', '.join(str(c) for c in cs)}]"
            for a, cs in self.entries.items()
        )
        return f"PrincipalParts({{{items}}})"

    def to_json(self) -> dict:
        return {str(a): [str(c) for c in cs] for a, cs in self.entries.items()}


def _q_sums(P: FactoredPolynomial, groups) -> list:
    """Q = sum c P/(x - a)^k for each group, a list of (a, k, c) terms, of
    ``groups``: the one loop that builds such a Q.

    In P's kept slot form p = prod (y - alpha)^m, P/(x - a)^k is
    q_k = p / (y - alpha)^k over D^(d - k), d = deg P: k rounds of
    ``_divide_rounds`` on a copy of p, a's chain, leave it in slots k...
    With a group's c = gamma / E over one common denominator E, the x^j
    coefficient of its Q is X_j / (E D^(d - j)) for X = sum gamma D^k q_k.
    Each root's chain is kept across terms and groups, so a root read at
    orders rising to m costs m rounds in all; a term below its root's
    current order starts that chain again, so no result depends on the
    order of the terms.  A chain at its root's multiplicity can rise no
    further, and is let go when the next chain is started: the chains held
    are those still rising and those topped out since, not one per root.
    ``ValueError`` when some (x - a)^k with a nonzero coefficient does not
    divide P.
    """
    mult = dict(P.roots)
    p_re, p_im, D = P._slot_form()
    a_re, a_im, _ = P._cleared_roots()
    alpha = dict(zip(mult, zip(a_re, a_im)))
    chains = {}  # a -> [k, re, im], holding q_k in slots k..
    out = []
    for terms in groups:
        c_re, c_im, E = _clear_denominators(c for *_, c in terms)
        x_re, x_im = [0] * (len(p_re) - 1), [0] * (len(p_re) - 1)
        for (a, k, _), wr, wi in zip(terms, c_re, c_im):
            if not (wr or wi):
                continue
            if k > mult.get(a, 0):
                raise ValueError(f"(x - {a})^{k} does not divide")
            chain = chains.get(a)
            if chain is None or chain[0] > k:
                # let go of the chains at their root's multiplicity first
                for b in [b for b, (j, *_) in chains.items() if j == mult[b]]:
                    del chains[b]
                chain = chains[a] = [0, list(p_re), list(p_im)]
            done, re, im = chain
            _divide_rounds(re, im, *alpha[a], done, k)
            chain[0] = k
            wr, wi = wr * D**k, wi * D**k
            for j in range(len(x_re) + 1 - k):
                x, y = re[k + j], im[k + j]
                x_re[j] += wr * x - wi * y
                x_im[j] += wr * y + wi * x
        out.append(_from_slots(x_re, x_im, E * D, D))
    return out


def q_from_principal_parts(P: FactoredPolynomial, parts) -> DensePolynomial:
    """Q = sum_a sum_k c_a^(k) P/(x - a)^k for the principal parts c, the
    one group of ``_q_sums``.  ``ValueError`` when some (x - a)^k with a
    nonzero coefficient does not divide P.
    """
    terms = [(a, k, c) for a, cs in parts for k, c in enumerate(cs, 1)]
    return _q_sums(P, [terms])[0]


def partial_fractions(
    R: DensePolynomial, P: FactoredPolynomial
) -> PrincipalParts:
    """Principal-parts expansion of R/P over the roots of P.

    Requires deg R < deg P.  At a root a of multiplicity m write
    P = (x - a)^m B; the coefficient of 1/(x - a)^(m-i) is the i-th Taylor
    coefficient at a of R/B, for i < m, so only the first m Taylor
    coefficients of R and B at a are formed.  In u = D y, with D the roots'
    common denominator and a = alpha / D, from P's kept cleared roots, they
    are Gaussian integers: m rounds of ``_divide_rounds`` by (u - alpha) on
    R's slot form give R(a + y) over d_R D^(deg R), and ``_root_slots`` over
    the roots beta - alpha, truncated at m slots, gives B(a + y) =
    prod_{b != a} (y - (b - a))^e over D^(deg P - m).  The quotient is one
    ``_series_numerators`` call, which normalizes B(a) once; its u^j
    coefficient times D^j is the y^j one, and becomes a scalar at the end.
    """
    if P.degree == 0:
        raise ValueError("denominator must be nonconstant")
    if R.is_zero():
        return PrincipalParts()
    if R.degree >= P.degree:
        raise ValueError("partial fractions need deg R < deg P")
    n = R.degree
    r_re, r_im, r_den = R._numerators()
    roots_re, roots_im, D = P._cleared_roots()
    powers = [D**k for k in range(P.degree + 1)]
    entries = {}
    for idx, (a, m) in enumerate(P.roots):
        ar, ai = roots_re[idx], roots_im[idx]
        xr = [x * powers[n - k] for k, x in enumerate(r_re)]
        xi = [x * powers[n - k] for k, x in enumerate(r_im)]
        _divide_rounds(xr, xi, ar, ai, 0, m)
        others = [
            (roots_re[o] - ar, roots_im[o] - ai, e)
            for o, (_, e) in enumerate(P.roots)
            if o != idx
        ]
        br, bi = _root_slots(others, m)
        c_re, c_im, den, d = _series_numerators(
            (xr[:m], xi[:m], r_den * powers[n]), (br, bi, powers[P.degree - m]), m - 1
        )
        taylor = []
        for j, (x, y) in enumerate(zip(c_re, c_im)):
            taylor.append(_from_numerators(x * powers[j], y * powers[j], den))
            den *= d
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


def _roots_by_coset(P: FactoredPolynomial) -> tuple:
    """(coset key, k, ((root, offset), ...)) coset by coset and for k rising
    to the coset's top multiplicity: the roots of P in the coset with
    multiplicity >= k by ascending integer offset from the representative,
    walked once and kept on P.  A cleared root (a_re + a_im i) / D is in
    coset (a_re mod D, a_im) at offset a_re // D, the floor ``coset_key``
    takes; each coset's key is made once, from its first root."""
    if P._cosets is None:
        a_re, a_im, D = P._cleared_roots()
        cosets: dict[tuple, list] = {}
        for (root, mult), re, im in zip(P.roots, a_re, a_im):
            offset, rest = divmod(re, D)
            cosets.setdefault((rest, im), []).append((root, offset, mult))
        walk = []
        for roots in cosets.values():
            key = coset_key(roots[0][0])
            for k in range(1, max([m for *_, m in roots]) + 1):
                walk.append((key, k, tuple([(a, o) for a, o, m in roots if m >= k])))
        object.__setattr__(P, "_cosets", tuple(walk))
    return P._cosets


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
                raise ValueError(f"bad exponent at {idx} in {_shown(text)}")
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
                raise ValueError(f"unbalanced parenthesis in {_shown(text)}")
            inner = s[pos + 1 : close]
            if not inner.startswith("x"):
                raise ValueError(f"factor must start with x: {_shown(inner)}")
            rest = inner[1:]
            if rest == "":
                root = GR_ZERO
            elif rest[0] in "+-":
                root = _read_scalar(rest, -1)
            else:
                raise ValueError(f"bad factor {_shown(inner)}")
            mult, pos = parse_power(close + 1)
        else:
            raise ValueError(f"unexpected character {s[pos]!r} in {_shown(text)}")
        roots[root] = roots.get(root, 0) + mult
    if 0 in roots.values():  # a root only ever raised to the power 0
        raise ValueError("multiplicities must be >= 1")
    out = object.__new__(FactoredPolynomial)
    out._hold(roots)
    return out
