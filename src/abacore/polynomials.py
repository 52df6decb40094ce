"""Exact integer polynomial arithmetic: cyclotomic polynomials, cyclotomic
multiplicities and remainders, and the order and degree polynomials of the
finite general linear groups.

A polynomial, IntPolynomial, is its trimmed coefficient tuple, constant term
first; its one operation is long division by a monic divisor, exact over the
integers.  All coefficients are Python integers; any inexact division raises
instead of approximating, since an inexact division here always means a
transcription bug somewhere upstream.  cyclotomic (by Moebius inversion),
gl_order and generic_degree are quotients of binomials x^h - 1, each built by
_binomial_quotient with the list kernels _times_binomial and
_divide_binomial.  The one long division is mod_cyclotomic's: f folded
modulo x^e - 1, by the monic Phi_e.  phi_multiplicity divides nothing: it
tests each derivative of f by that fold and cyclic rotations.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .partitions import Partition, hook_lengths


class InexactDivisionError(ArithmeticError):
    """A polynomial division that should have been exact was not."""


class IntPolynomial(tuple):
    """A polynomial over the integers: its dense coefficient tuple, constant
    term first, with trailing zeros trimmed, so the zero polynomial is the
    empty tuple.  Its one operation is long division by a monic divisor;
    + and *, which would concatenate and repeat the tuple, are refused.

    >>> IntPolynomial(-1, 0, 1, 0)
    IntPolynomial(-1, 0, 1)
    >>> IntPolynomial(-1, 0, 1) % IntPolynomial(-1, 1)
    IntPolynomial()
    """

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = None

    def __new__(cls, *coeffs: int):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        return super().__new__(cls, coeffs[:end])

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"IntPolynomial({', '.join(map(str, self))})"

    def __divmod__(self, d: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division by a monic divisor (ValueError for any other).

        The top index walks down over the remainder, and each step subtracts
        only the divisor's nonzero terms below its lead.
        """
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        if d[-1] != 1:
            raise ValueError(f"divisor {d!r} is not monic")
        deg = len(d) - 1
        terms = [(i, c) for i, c in enumerate(d[:-1]) if c]
        q = [0] * max(len(self) - deg, 0)
        r = list(self)
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


def _prime_factors(e: int) -> list[int]:
    """The distinct primes of e, by trial division up to the square root.

    >>> _prime_factors(360), _prime_factors(1), _prime_factors(97)
    ([2, 3, 5], [], [97])
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    primes, p = [], 2
    while p * p <= e:
        if e % p == 0:
            primes.append(p)
            while e % p == 0:
                e //= p
        p += 1
    return primes + [e] if e > 1 else primes


@lru_cache(maxsize=None)
def cyclotomic(e: int) -> IntPolynomial:
    """The e-th cyclotomic polynomial prod_{d | e} (x^d - 1)^mu(e/d): each
    prime p of e adds x^(d/p) - 1 to the other side for each x^d - 1 so far.

    >>> cyclotomic(6)
    IntPolynomial(1, -1, 1)
    >>> cyclotomic(12) == IntPolynomial(*_binomial_quotient([12, 2], [6, 4]))
    True
    """
    ups, downs = [e], []
    for p in _prime_factors(e):
        ups, downs = ups + [d // p for d in downs], downs + [u // p for u in ups]
    return IntPolynomial(*_binomial_quotient(ups, downs))


def _fold(coeffs, e: int) -> list[int]:
    """coeffs modulo x^e - 1: the sum of each residue class of exponents."""
    return [sum(coeffs[r::e]) for r in range(e)]


def _derivative(coeffs) -> list[int]:
    return [k * coeffs[k] for k in range(1, len(coeffs))]


def phi_multiplicity(f: IntPolynomial, e: int) -> int:
    """The largest power k of the e-th cyclotomic polynomial Phi_e dividing f.

    Phi_e is irreducible with simple roots, so k is the number of derivatives
    f, f', ... that Phi_e divides.  Phi_e divides g iff g folded modulo
    x^e - 1 = Phi_e * Psi_e, times x^(e/p) - 1 for each prime p of e (a
    rotation by e/p less itself), is 0 modulo x^e - 1: Psi_e, the product of
    Phi_d over the proper divisors d of e, divides that product, as each d
    divides some e/p, and Phi_e is prime to it.  The (deg f)-th derivative
    is a nonzero constant, so a test passing them all is wrong.

    >>> phi_multiplicity(gl_order(6), 3)
    2
    """
    shifts = [e // p for p in _prime_factors(e)]  # checks e before f
    if not f:
        raise ValueError("multiplicity undefined for the zero polynomial")
    g = f
    for count in range(len(g)):
        h = _fold(g, e)
        for k in shifts:
            h = [a - b for a, b in zip(h[-k:] + h[:-k], h)]
        if any(h):
            return count
        g = _derivative(g)
    raise InexactDivisionError(f"every derivative of {f!r} tests divisible by Phi_{e}")


def mod_cyclotomic(f: IntPolynomial, e: int) -> IntPolynomial:
    """Remainder of f modulo the e-th cyclotomic polynomial.

    f is first folded modulo x^e - 1; the e-th cyclotomic divides x^e - 1,
    so dividing that folded polynomial leaves the same remainder.

    >>> mod_cyclotomic(IntPolynomial(0, 0, 0, 1, 1), 3)
    IntPolynomial(1, 1)
    """
    phi = cyclotomic(e)
    return IntPolynomial(*_fold(f, e)) % phi


def _divide_binomial(coeffs, h: int) -> list[int]:
    """coeffs / (x^h - 1) by suffix sums in each class mod h, whose totals must be 0."""
    if any(_fold(coeffs, h)):
        raise InexactDivisionError(f"{IntPolynomial(*coeffs)!r} is not divisible by x^{h} - 1")
    q = list(coeffs[h:])
    for k in range(len(q) - h - 1, -1, -1):
        q[k] += q[k + h]
    return q


def _times_binomial(coeffs, h: int) -> list[int]:
    """coeffs * (x^h - 1): the coefficients moved up h places, less themselves."""
    return [a - b for a, b in zip([0] * h + list(coeffs), list(coeffs) + [0] * h)]


def _binomial_quotient(ups, downs) -> list[int]:
    """prod (x^u - 1) / prod (x^d - 1), if a polynomial: each partial quotient
    is that polynomial times the binomials not yet divided, so it is exact."""
    return reduce(_divide_binomial, downs, reduce(_times_binomial, ups, [1]))


@lru_cache(maxsize=None)
def gl_order(n: int) -> IntPolynomial:
    """Order polynomial of GL_n: x^(n(n-1)/2) * prod_{i<=n} (x^i - 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    shift = n * (n - 1) // 2
    return IntPolynomial(*([0] * shift), *_binomial_quotient(range(1, n + 1), ()))


@lru_cache(maxsize=None)
def generic_degree(p: Partition) -> IntPolynomial:
    """The unipotent character degree polynomial indexed by p.

    Computed by the q-analogue of the hook length formula:
    x^(sum (i-1) p_i) * prod_{i<=n} (x^i - 1) / prod_boxes (x^h - 1).
    Each numerator factor x^i - 1 first cancels against one hook of length
    i, and _binomial_quotient takes the factors and the hooks left over.
    The power of x is prepended last.
    The full-row partition indexes the trivial character (degree 1) and the
    full-column partition the Steinberg character.

    >>> generic_degree(Partition((2, 1)))
    IntPolynomial(0, 1, 1)
    """
    hooks = list(hook_lengths(p))
    factors = []
    for i in range(1, p.size + 1):
        if i in hooks:
            hooks.remove(i)
        else:
            factors.append(i)
    shift = sum(i * part for i, part in enumerate(p))
    return IntPolynomial(*([0] * shift), *_binomial_quotient(factors, hooks))


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
