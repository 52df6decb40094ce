import re
from functools import reduce
from itertools import product

import pytest

from abacore import polynomials
from abacore.partitions import Partition, hook_lengths, partitions_of
from abacore.polynomials import (
    InexactDivisionError,
    IntPolynomial,
    cyclotomic,
    ennola_e,
    generic_degree,
    gl_order,
    mod_cyclotomic,
    phi_multiplicity,
)
from abacore.suites import _polynomial_text
from oracles import (
    ennola_substitute,
    evaluate,
    hooks_by_cells,
    naive_product,
    polynomial_text,
    schoolbook_cyclotomic,
    schoolbook_divmod,
    syt_by_recursion,
)

P = Partition


class TestIntPolynomial:
    def test_trims_to_its_coefficient_tuple(self):
        assert IntPolynomial(-1, 0, 1, 0) == (-1, 0, 1)
        assert hash(IntPolynomial(-1, 0, 1, 0)) == hash((-1, 0, 1))
        assert IntPolynomial(0, 0) == () and not IntPolynomial(0)

    def test_arithmetic(self):
        # (x + 1)(x - 1), through the one product the library has
        assert IntPolynomial(*polynomials._times_binomial([1, 1], 1)) == IntPolynomial(-1, 0, 1)

    def test_divmod_monic(self):
        f = IntPolynomial(-1, 0, 0, 1)
        q, r = divmod(f, IntPolynomial(-1, 1))
        assert q == IntPolynomial(1, 1, 1) and r == IntPolynomial()

    def test_evaluate(self):
        assert evaluate(IntPolynomial(1, -2, 1), 3) == 4
        assert evaluate(IntPolynomial(), 10) == 0

    def test_str_sparse_descending(self):
        # the degmod suite's text for a remainder
        assert _polynomial_text(IntPolynomial()) == "0"
        assert _polynomial_text(IntPolynomial(-3)) == "-3"
        assert _polynomial_text(IntPolynomial(1, -1, 1)) == "x^2 - x + 1"
        assert _polynomial_text(IntPolynomial(0, 0, 2)) == "2x^2"
        assert _polynomial_text(IntPolynomial(0, 1)) == "x"

    def test_text_against_oracle(self):
        # every tuple of length <= 5 over -3..3, trailing zeros included
        tuples = [t for n in range(6) for t in product(range(-3, 4), repeat=n)]
        assert len(tuples) == 19_608
        assert [t for t in tuples if _polynomial_text(t) != polynomial_text(t)] == []


COEFFS = (-2, -1, 0, 1, 3)


def _tuples(max_len):
    """Every coefficient tuple of length <= max_len over COEFFS."""
    for length in range(max_len + 1):
        yield from product(COEFFS, repeat=length)


def _product_mismatches():
    """(f, h), 1 <= h <= 5, where polynomials._times_binomial differs from the
    schoolbook product of f and x^h - 1, both trimmed, for every f of length
    <= 4 over COEFFS (the empty tuple and trailing zeros included)."""
    bad = []
    for h in range(1, 6):
        d = (-1,) + (0,) * (h - 1) + (1,)
        for f in _tuples(4):
            if IntPolynomial(*polynomials._times_binomial(f, h)) != naive_product(f, d):
                bad.append((f, h))
    return bad


class TestAgainstSchoolbook:
    # every f of length <= 4 against every divisor of length 1-3 with a
    # nonzero lead, trailing zeros and the empty tuple included
    FS = list(_tuples(4))
    DIVISORS = [d for d in _tuples(3) if d and d[-1]]

    def test_divmod(self):
        # monic divisors against the oracle; any other lead is refused at
        # entry, whatever the dividend
        cases = refused = 0
        for d in self.DIVISORS:
            dp = IntPolynomial(*d)
            monic = d[-1] == 1
            for f in self.FS:
                expected = schoolbook_divmod(f, d) if monic else f"divisor {dp!r} is not monic"
                try:
                    q, r = divmod(IntPolynomial(*f), dp)
                    got = (q, r)
                except ValueError as exc:
                    got = str(exc)
                    refused += 1
                assert got == expected, (f, d)
                cases += 1
        assert cases == 96_844
        assert refused == 93 * len(self.FS)

    def test_times_binomial(self):
        assert _product_mismatches() == []

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(IntPolynomial(1, 2), IntPolynomial())


class TestCyclotomic:
    def test_examples(self):
        assert cyclotomic(1) == IntPolynomial(-1, 1)
        assert cyclotomic(2) == IntPolynomial(1, 1)
        assert cyclotomic(6) == IntPolynomial(1, -1, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_product_over_divisors(self):
        for n in range(1, 31):
            prod = (1,)
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = naive_product(prod, cyclotomic(d))
            assert prod == (-1,) + (0,) * (n - 1) + (1,)

    def test_degree_is_totient(self):
        from math import gcd

        # up to 30030 = 2 * 3 * 5 * 7 * 11 * 13, with 64 binomials to multiply and divide
        for e in [*range(1, 25), 210, 2_310, 30_030]:
            totient = sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)
            assert len(cyclotomic(e)) - 1 == totient

    def test_prime_factors_against_sieve(self):
        # the sieve of Eratosthenes: strike the multiples of 2 to 31 from their squares
        composite = {k for p in range(2, 32) for k in range(p * p, 1000, p)}
        primes = [p for p in range(2, 1000) if p not in composite]
        for e in range(1, 1000):
            assert polynomials._prime_factors(e) == [p for p in primes if e % p == 0], e


class TestMultiplicityAndRemainder:
    def test_phi_multiplicity_examples(self):
        assert phi_multiplicity(IntPolynomial(-1, 0, 1), 2) == 1
        assert phi_multiplicity(gl_order(3), 2) == 1
        assert phi_multiplicity(gl_order(6), 3) == 2

    def test_phi_multiplicity_rejects_zero(self):
        with pytest.raises(ValueError):
            phi_multiplicity(IntPolynomial(), 2)

    def test_mod_cyclotomic_examples(self):
        assert mod_cyclotomic(IntPolynomial(0, 1, 1), 3) == IntPolynomial(-1)
        assert mod_cyclotomic(IntPolynomial(0, 1), 2) == IntPolynomial(-1)
        for e in (1, 2, 5, 12):
            assert mod_cyclotomic(IntPolynomial(1), e) == IntPolynomial(1)

    def test_gl_order_multiplicity_is_floor(self):
        # up to the CLI's --max-n bound, where derivative coefficients are largest
        for n in range(1, 17):
            for e in range(1, 17):
                assert phi_multiplicity(gl_order(n), e) == n // e

    def test_multiplicity_at_three_and_four_primes(self):
        # Phi_d times Phi_e^k for each d | e, where three or four rotations
        # must clear every Phi_d but Phi_e
        for e in (30, 42, 60, 210):
            phi = schoolbook_cyclotomic(e)
            for d in (d for d in range(1, e + 1) if e % d == 0):
                f = schoolbook_cyclotomic(d)
                for k in range(3):
                    assert phi_multiplicity(IntPolynomial(*f), e) == k + (d == e), (d, e)
                    f = naive_product(f, phi)

    def test_multiplicity_formula(self):
        for n in range(1, 11):
            for p in partitions_of(n):
                hooks = hook_lengths(p)
                for e in range(1, 11):
                    divisible = sum(1 for h in hooks if h % e == 0)
                    assert (
                        phi_multiplicity(generic_degree(p), e) == n // e - divisible
                    )

    @pytest.mark.parametrize("e", [0, -1, -5])
    @pytest.mark.parametrize("f", [IntPolynomial(), IntPolynomial(1), IntPolynomial(-1, 1, 0, 1)])
    def test_rejects_bad_level(self, f, e):
        # the level is checked by _prime_factors(e) before any fold and before
        # the zero polynomial is refused, so a zero step, an empty range of
        # residues or the zero check never gets to answer instead
        with pytest.raises(ValueError, match="e must be >= 1"):
            mod_cyclotomic(f, e)
        with pytest.raises(ValueError, match="e must be >= 1"):
            phi_multiplicity(f, e)


def _schoolbook_multiplicity(f, d):
    """How often d divides f, by repeated schoolbook division (f nonzero)."""
    count = 0
    while True:
        q, r = schoolbook_divmod(f, d)
        if r:
            return count
        f, count = q, count + 1


# every f with coefficients in {-1, 0, 1} of length <= 6, the zero
# polynomial included (shorter f as tuples with trailing zeros)
TERNARY = list(product((-1, 0, 1), repeat=6))
# nonzero f of length <= 4, each also taken times the cyclotomic and its
# square in the multiplicity check, so that every count up to 2 occurs
SMALL = [f for n in range(1, 5) for f in product((-1, 0, 1), repeat=n) if any(f)]


def _remainder_mismatches():
    """(f, e), 1 <= e <= 12, where polynomials.mod_cyclotomic differs from
    the schoolbook remainder by the schoolbook cyclotomic polynomial."""
    bad = []
    for e in range(1, 13):
        phi = schoolbook_cyclotomic(e)
        for f in TERNARY:
            expected = schoolbook_divmod(f, phi)[1]
            if polynomials.mod_cyclotomic(IntPolynomial(*f), e) != expected:
                bad.append((f, e))
    return bad


def _multiplicity_mismatches():
    """(g, e), 1 <= e <= 8, where phi_multiplicity differs from counting
    schoolbook divisions by the schoolbook cyclotomic polynomial, or raises
    instead."""
    bad = []
    for e in range(1, 9):
        phi = schoolbook_cyclotomic(e)
        for g in SMALL:
            for _ in range(3):
                try:
                    got = phi_multiplicity(IntPolynomial(*g), e)
                except InexactDivisionError:
                    got = None
                if got != _schoolbook_multiplicity(g, phi):
                    bad.append((g, e))
                g = naive_product(g, phi)
    return bad


# every f with coefficients in {-1, 0, 1} of length <= 7
TERNARY_7 = [f for n in range(8) for f in product((-1, 0, 1), repeat=n)]


def _binomial_mismatches():
    """(f, h), 1 <= h <= 7, where dividing f by x^h - 1 in
    polynomials._divide_binomial gives another quotient than schoolbook
    division when the remainder is 0, or does not raise when it is not."""
    bad = []
    for h in range(1, 8):
        d = (-1,) + (0,) * (h - 1) + (1,)
        for f in TERNARY_7:
            q, r = schoolbook_divmod(f, d)
            try:
                got = IntPolynomial(*polynomials._divide_binomial(f, h))
            except InexactDivisionError:
                got = None
            if got != (None if r else q):
                bad.append((f, h))
    return bad


# mutants of the pieces of phi_multiplicity and generic_degree, each made
# from the real one
def _largest_prime_dropped(real):
    return lambda e: real(e)[:-1]


def _unweighted_derivative(real):
    return lambda c: list(c[1:])


def _own_coefficient_quotient(real):
    return lambda c, h: [q + a for q, a in zip(real(c, h), c)]


def _plus_one_product(real):
    # c * (x^h + 1) = c * (x^h - 1) + 2c
    def mutant(c, h):
        p = real(c, h)
        return [q + 2 * a for q, a in zip(p, c)] + p[len(c) :]

    return mutant


class TestRemainderAgainstSchoolbook:
    def test_mod_cyclotomic(self):
        assert _remainder_mismatches() == []

    def test_phi_multiplicity(self):
        assert _multiplicity_mismatches() == []

    def test_fold_through_the_wrong_binomial_is_caught(self, monkeypatch):
        # folds modulo x^(e+1) - 1, which the e-th cyclotomic divides only at
        # e = 1.  Phi_e comes from the oracle: cyclotomic divides by binomials,
        # and a cold cache would send those divisions through the wrong fold
        real = polynomials._fold
        monkeypatch.setattr(polynomials, "_fold", lambda c, e: real(c, e + 1))
        monkeypatch.setattr(
            polynomials, "cyclotomic", lambda e: IntPolynomial(*schoolbook_cyclotomic(e))
        )
        # the cyclotomic divides x^2 - 1 at e = 1, and an f of degree <= 5
        # folds to itself modulo x^(e+1) - 1 from e = 5 on
        assert {e for _, e in _remainder_mismatches()} == {2, 3, 4}
        # at e = 1 there is no rotation, so the fold tests x^2 - 1 for x - 1;
        # the products in the check are long enough to reach every level
        assert {e for _, e in _multiplicity_mismatches()} == set(range(1, 9))

    def test_x_power_minus_one_division(self):
        assert _binomial_mismatches() == []

    @pytest.mark.parametrize(
        "name, mutant, mismatches, levels",
        [
            # some Phi_d, d a proper divisor of e, then leaves the product, and the
            # test asks f for it too; e = 1 has no prime to drop
            ("_prime_factors", _largest_prime_dropped, _multiplicity_mismatches, set(range(2, 9))),
            ("_derivative", _unweighted_derivative, _multiplicity_mismatches, set(range(1, 9))),
            # below length 8 only the zero polynomial is divisible by x^7 - 1
            ("_divide_binomial", _own_coefficient_quotient, _binomial_mismatches, set(range(1, 7))),
            # off by 2f, so every nonzero f is caught at every h
            ("_times_binomial", _plus_one_product, _product_mismatches, set(range(1, 6))),
        ],
    )
    def test_mutant_is_caught(self, monkeypatch, name, mutant, mismatches, levels):
        # cyclotomic is built from _prime_factors and the binomial kernels, so
        # its cache must neither answer for a mutant nor keep what one built
        polynomials.cyclotomic.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(polynomials, name, mutant(getattr(polynomials, name)))
                assert {level for _, level in mismatches()} == levels
        finally:
            polynomials.cyclotomic.cache_clear()

    def test_planted_zero_fold_raises(self, monkeypatch):
        # the (deg f)-th derivative is a nonzero constant, so a fold that
        # reads every derivative as divisible is wrong; the loop stops there
        folds = []
        monkeypatch.setattr(polynomials, "_fold", lambda c, e: folds.append(c) or [0] * e)
        f = gl_order(3)
        message = f"every derivative of {f!r} tests divisible by Phi_2"
        with pytest.raises(InexactDivisionError, match=re.escape(message)):
            phi_multiplicity(f, 2)
        assert len(folds) == len(f)


class TestGlOrder:
    def test_examples(self):
        assert gl_order(1) == IntPolynomial(-1, 1)
        expected2 = reduce(naive_product, [(0, 1), (-1, 1), (-1, 0, 1)])
        assert gl_order(2) == expected2
        expected3 = reduce(naive_product, [(0, 0, 0, 1), (-1, 1), (-1, 0, 1), (-1, 0, 0, 1)])
        assert gl_order(3) == expected3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gl_order(0)

    def test_value_is_group_order(self):
        # |GL_2(F_q)| = (q^2 - 1)(q^2 - q)
        for q in (2, 3, 5):
            assert evaluate(gl_order(2), q) == (q * q - 1) * (q * q - q)


class TestGenericDegree:
    def test_examples(self):
        for n in range(1, 7):
            assert generic_degree(P((n,))) == IntPolynomial(1)
        assert generic_degree(P((1, 1))) == IntPolynomial(0, 1)
        assert generic_degree(P((2, 1))) == IntPolynomial(0, 1, 1)

    def test_steinberg(self):
        for n in range(1, 8):
            deg = generic_degree(P((1,) * n))
            shift = n * (n - 1) // 2
            assert deg == IntPolynomial(*([0] * shift), 1)

    def test_value_at_one_counts_tableaux(self):
        for n in range(11):
            for p in partitions_of(n):
                assert evaluate(generic_degree(p), 1) == syt_by_recursion(p.parts)

    def test_value_divides_group_order(self):
        for q in (2, 3):
            for p in partitions_of(5):
                assert evaluate(gl_order(5), q) % evaluate(generic_degree(p), q) == 0

    def test_against_uncancelled_formula(self):
        # x^shift * prod_{i<=n} (x^i - 1) multiplied out in full, then divided
        # by every hook's x^h - 1 in schoolbook division, each step exact
        for n in range(11):
            for p in partitions_of(n):
                shift = sum(i * part for i, part in enumerate(p))
                poly = (0,) * shift + (1,)
                for i in range(1, n + 1):
                    poly = naive_product(poly, (-1,) + (0,) * (i - 1) + (1,))
                for h in hooks_by_cells(p.parts):
                    poly, rem = schoolbook_divmod(poly, (-1,) + (0,) * (h - 1) + (1,))
                    assert rem == ()
                assert generic_degree(p) == poly, p


class TestEnnola:
    def test_substitute_examples(self):
        assert ennola_substitute((0, 1, 1)) == (0, -1, 1)
        assert ennola_substitute((1,)) == (1,)
        assert ennola_substitute(cyclotomic(3)) == cyclotomic(6)

    def test_index_examples(self):
        assert ennola_e(3) == 6
        assert ennola_e(4) == 4
        assert ennola_e(6) == 3

    @pytest.mark.parametrize("e", [0, -3])
    def test_index_rejects_nonpositive_level(self, e):
        with pytest.raises(ValueError) as exc:
            ennola_e(e)
        assert str(exc.value) == "e must be >= 1"

    def test_involution(self):
        for e in range(1, 25):
            assert ennola_e(ennola_e(e)) == e

    def test_cyclotomic_pairing_with_sign(self):
        for e in range(1, 25):
            twisted = IntPolynomial(*ennola_substitute(cyclotomic(e)))
            partner = cyclotomic(ennola_e(e))
            if e in (1, 2):
                assert twisted == IntPolynomial(*(-c for c in partner))
            else:
                assert twisted == partner
