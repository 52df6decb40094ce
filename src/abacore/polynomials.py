"""Exact integer polynomial arithmetic: cyclotomic polynomials, cyclotomic
multiplicities and remainders, and the order and degree polynomials of the
finite general linear groups.

All coefficients are Python integers; any inexact division raises instead of
approximating, since an inexact division here always means a transcription
bug somewhere upstream.  The library multiplies and divides by x^h - 1
with the list kernels _times_binomial and _divide_binomial; IntPolynomial
has no product.  Long division skips the divisor's zero terms and takes
monic divisors only: it divides by cyclotomic polynomials alone.

generic_degree cancels each numerator factor x^i - 1 of the q-hook formula
against an equal hook length, multiplies out the factors left over and
divides by the hooks left over with running sums.  mod_cyclotomic folds f
modulo x^e - 1, which the e-th cyclotomic divides, and long-divides only the
fold.  phi_multiplicity (memoised) divides nothing: it counts the
derivatives of f that the cyclotomic divides, each tested by that fold.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .partitions import Partition, hook_lengths


class InexactDivisionError(ArithmeticError):
    """A polynomial division that should have been exact was not."""


class IntPolynomial:
    """A polynomial over the integers, as a dense coefficient tuple with the
    constant term first.  Trailing zeros are trimmed, so the zero polynomial
    has an empty tuple.  Not a tuple itself, so + does not concatenate.

    >>> IntPolynomial(-1, 0, 1)
    IntPolynomial('x^2 - 1')
    >>> IntPolynomial(-1, 0, 1) % IntPolynomial(-1, 1)
    IntPolynomial('0')
    """

    __slots__ = ("coeffs",)

    def __init__(self, *coeffs: int):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:end]))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: IntPolynomial is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.coeffs == other.coeffs if type(other) is IntPolynomial else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __reduce__(self):
        return IntPolynomial, self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __divmod__(self, d: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division by a monic divisor (ValueError for any other).

        The top index walks down over the remainder, and each step subtracts
        only the divisor's nonzero terms below its lead.
        """
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if d.coeffs[-1] != 1:
            raise ValueError(f"divisor {d} is not monic")
        deg = d.degree
        terms = [(i, c) for i, c in enumerate(d.coeffs[:-1]) if c]
        q = [0] * max(len(self.coeffs) - deg, 0)
        r = list(self.coeffs)
        for top in range(len(r) - 1, deg - 1, -1):
            t = r[top]
            if not t:
                continue
            shift = top - deg
            q[shift] = t
            for i, c in terms:
                r[shift + i] -= t * c
        return IntPolynomial(*q), IntPolynomial(*r[:deg])

    def __mod__(self, d: "IntPolynomial") -> "IntPolynomial":
        return divmod(self, d)[1]

    def exact_div(self, d: "IntPolynomial") -> "IntPolynomial":
        q, r = divmod(self, d)
        if not r.is_zero():
            raise InexactDivisionError(f"{self} is not divisible by {d}")
        return q

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            terms.append((sign, body))
        head_sign, head = terms[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in terms[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"IntPolynomial('{self}')"


def x_power_minus_one(k: int) -> IntPolynomial:
    """x^k - 1 for k >= 1.

    >>> x_power_minus_one(3)
    IntPolynomial('x^3 - 1')
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return IntPolynomial(-1, *([0] * (k - 1)), 1)


@lru_cache(maxsize=None)
def cyclotomic(e: int) -> IntPolynomial:
    """The e-th cyclotomic polynomial, by exact division of x^e - 1.

    >>> cyclotomic(6)
    IntPolynomial('x^2 - x + 1')
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    poly = x_power_minus_one(e)
    for d in range(1, e):
        if e % d == 0:
            poly = poly.exact_div(cyclotomic(d))
    return poly


@lru_cache(maxsize=None)
def _cofactor(e: int) -> IntPolynomial:
    """Psi_e = (x^e - 1) / Phi_e."""
    phi = cyclotomic(e)  # checks e before x_power_minus_one can
    return x_power_minus_one(e).exact_div(phi)


def _fold(coeffs, e: int) -> list[int]:
    """coeffs modulo x^e - 1: the sum of each residue class of exponents."""
    return [sum(coeffs[r::e]) for r in range(e)]


def _derivative(coeffs) -> list[int]:
    return [k * coeffs[k] for k in range(1, len(coeffs))]


@lru_cache(maxsize=None)
def phi_multiplicity(f: IntPolynomial, e: int) -> int:
    """The largest power k of the e-th cyclotomic polynomial Phi_e dividing f.

    Phi_e is irreducible with simple roots, so k is the number of derivatives
    f, f', ... that Phi_e divides.  Phi_e divides g iff g folded modulo
    x^e - 1 = Phi_e * Psi_e, times Psi_e, is 0 modulo x^e - 1.  The (deg f)-th
    derivative is a nonzero constant, so a test passing them all is wrong.

    >>> phi_multiplicity(gl_order(6), 3)
    2
    """
    psi = [(i, c) for i, c in enumerate(_cofactor(e).coeffs) if c]
    if f.is_zero():
        raise ValueError("multiplicity undefined for the zero polynomial")
    g = f.coeffs
    for count in range(len(g)):
        product = [0] * e
        for r, a in enumerate(_fold(g, e)):
            for i, c in psi:
                product[(r + i) % e] += a * c
        if any(product):
            return count
        g = _derivative(g)
    raise InexactDivisionError(f"every derivative of {f} tests divisible by Phi_{e}")


def mod_cyclotomic(f: IntPolynomial, e: int) -> IntPolynomial:
    """Remainder of f modulo the e-th cyclotomic polynomial.

    f is first folded modulo x^e - 1; the e-th cyclotomic divides x^e - 1,
    so dividing that folded polynomial leaves the same remainder.

    >>> mod_cyclotomic(IntPolynomial(0, 0, 0, 1, 1), 3)
    IntPolynomial('x + 1')
    """
    phi = cyclotomic(e)
    return IntPolynomial(*_fold(f.coeffs, e)) % phi


def _divide_binomial(coeffs, h: int) -> list[int]:
    """coeffs / (x^h - 1) by suffix sums in each class mod h, whose totals must be 0."""
    if any(_fold(coeffs, h)):
        raise InexactDivisionError(f"{IntPolynomial(*coeffs)} is not divisible by x^{h} - 1")
    q = list(coeffs[h:])
    for k in range(len(q) - h - 1, -1, -1):
        q[k] += q[k + h]
    return q


def _times_binomial(coeffs, h: int) -> list[int]:
    """coeffs * (x^h - 1): the coefficients moved up h places, less themselves."""
    return [a - b for a, b in zip([0] * h + list(coeffs), list(coeffs) + [0] * h)]


@lru_cache(maxsize=None)
def gl_order(n: int) -> IntPolynomial:
    """Order polynomial of GL_n: x^(n(n-1)/2) * prod_{i<=n} (x^i - 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    shift = n * (n - 1) // 2
    return IntPolynomial(*([0] * shift), *reduce(_times_binomial, range(1, n + 1), [1]))


@lru_cache(maxsize=None)
def generic_degree(p: Partition) -> IntPolynomial:
    """The unipotent character degree polynomial indexed by p.

    Computed by the q-analogue of the hook length formula:
    x^(sum (i-1) p_i) * prod_{i<=n} (x^i - 1) / prod_boxes (x^h - 1).
    Each numerator factor x^i - 1 first cancels against one hook of length
    i; only the factors left over are multiplied, and the hooks left over
    divided, each division exact-checked.  The power of x is prepended last.
    The full-row partition indexes the trivial character (degree 1) and the
    full-column partition the Steinberg character.

    >>> generic_degree(Partition((2, 1)))
    IntPolynomial('x^2 + x')
    """
    hooks = list(hook_lengths(p))
    coeffs = [1]
    for i in range(1, p.size + 1):
        if i in hooks:
            hooks.remove(i)
        else:
            coeffs = _times_binomial(coeffs, i)
    shift = sum(i * part for i, part in enumerate(p))
    return IntPolynomial(*([0] * shift), *reduce(_divide_binomial, hooks, coeffs))


def ennola_e(e: int) -> int:
    """The index pairing of cyclotomic polynomials under x -> -x.

    >>> [ennola_e(e) for e in (3, 4, 6)]
    [6, 4, 3]
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    if e % 2 == 1:
        return 2 * e
    if e % 4 == 0:
        return e
    return e // 2
