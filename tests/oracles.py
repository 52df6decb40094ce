"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's abacus machinery: cores are computed
by removing rim hooks from the Young diagram, the level-rank diagram on
explicit bead windows, tableau counts by recursive corner removal, hooks by
counting boxes in the raw cell set, and wreath degrees from those hooks.  The
exception is check_core_key_equivalence at the end, which reads the library's
e_core and series map afresh at every call: it is the reference for
content-prop, which computes each fact once per member.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod

from abacore import blocks, hc_series, partitions


class EquivalenceViolation(AssertionError):
    """Two block comparisons that must agree disagreed."""


def cells(parts):
    return {(i, j) for i, row in enumerate(parts, start=1) for j in range(1, row + 1)}


def hooks_by_cells(parts):
    """Hook lengths computed by counting boxes to the right and above."""
    cs = cells(parts)
    out = []
    for (i, j) in cs:
        arm = sum(1 for jj in range(j + 1, max(parts) + 1) if (i, jj) in cs)
        leg = sum(1 for ii in range(i + 1, len(parts) + 1) if (ii, j) in cs)
        out.append(arm + leg + 1)
    return sorted(out, reverse=True)


def _subpartitions(parts, total):
    """All partitions of the given total fitting under parts componentwise."""
    def gen(i, remaining, cap):
        if remaining == 0:
            yield ()
            return
        if i >= len(parts):
            return
        top = min(parts[i], cap, remaining)
        for v in range(top, 0, -1):
            for rest in gen(i + 1, remaining - v, v):
                yield (v,) + rest
    yield from gen(0, total, total if not parts else parts[0])


def _is_border_strip(outer, inner):
    """True iff outer/inner is connected and contains no 2x2 block."""
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    strip = {
        (i, j)
        for i, row in enumerate(outer, start=1)
        for j in range(inner[i - 1] + 1, row + 1)
    }
    if not strip:
        return False
    for (i, j) in strip:
        if {(i, j + 1), (i + 1, j), (i + 1, j + 1)} <= strip:
            return False
    seen = set()
    stack = [next(iter(strip))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        i, j = c
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in strip and nb not in seen:
                stack.append(nb)
    return seen == strip


def rim_hook_core(parts, e):
    """The partition left after greedily removing rim hooks of size e."""
    parts = tuple(parts)
    while True:
        n = sum(parts)
        if n < e:
            return parts
        found = None
        for mu in _subpartitions(parts, n - e):
            if _is_border_strip(parts, mu):
                found = mu
                break
        if found is None:
            return parts
        parts = found


@lru_cache(maxsize=None)
def syt_by_recursion(parts):
    """Standard Young tableaux counted by removing corners one at a time."""
    parts = tuple(parts)
    if not parts:
        return 1
    total = 0
    for i, row in enumerate(parts):
        if i + 1 < len(parts) and parts[i + 1] == row:
            continue
        smaller = parts[:i] + ((row - 1,) if row > 1 else ()) + parts[i + 1 :]
        total += syt_by_recursion(smaller)
    return total


def wreath_dim(mp):
    """Degree of the wreath-product irreducible indexed by the multipartition
    mp, by the quotient route: a! over the product of the hook lengths of all
    components, a being their total size, with hooks counted on the cells."""
    dim, rem = divmod(
        factorial(sum(p.size for p in mp)),
        prod(h for p in mp for h in hooks_by_cells(p.parts)),
    )
    if rem:
        raise ArithmeticError("hook formula did not divide evenly")
    return dim


def affine_perm_oracle(e, m, s):
    """The affine permutation correcting an e-abacus for levels e, m and
    charge s, as (perm, shifts): source component i goes to the b in
    range(e) with m*b + s = i mod e, found by search, so perm is the w with
    w((m*b + s) mod e) = b; a bead landing in b is shifted by shifts[b], the
    exact quotient (i - m*b - s) / e.  Raises ValueError unless every source
    has exactly one target, that is unless e and m are coprime."""
    perm, shifts = [], [None] * e
    for i in range(e):
        targets = [b for b in range(e) if (m * b + s - i) % e == 0]
        if len(targets) != 1:
            raise ValueError(f"levels {e}, {m} must be coprime")
        (b,) = targets
        perm.append(b)
        shifts[b] = (i - m * b - s) // e
    return tuple(perm), tuple(shifts)


def apply_affine_on_beads(perm, shifts, bead_sets):
    """Apply the affine permutation to explicit finite bead sets.

    bead_sets is a list of sets of integer positions; returns the permuted
    and shifted list of sets.
    """
    e = len(bead_sets)
    out = [set() for _ in range(e)]
    for i, beads in enumerate(bead_sets):
        j = perm[i]
        out[j] = {x + shifts[j] for x in beads}
    return out


def apply_affine_on_pairs(perm, shifts, pairs):
    """The affine permutation acting on a list of (parts, charge) without
    beads: component i moves to perm[i], keeping its parts, and its charge
    moves by the target's shift."""
    out = [None] * len(pairs)
    for (parts, charge), j in zip(pairs, perm):
        out[j] = (parts, charge + shifts[j])
    return out


def apply_affine_on_components(perm, shifts, cmp):
    """apply_affine_on_pairs on a charged multipartition."""
    pairs = apply_affine_on_pairs(perm, shifts, list(zip(cmp.components, cmp.charges)))
    return partitions.ChargedMultiPartition(*zip(*pairs))


def regroup_on_beads(components, m, index_offset=0):
    """The bead map (x, i) -> (e*q + i, r) with (q, r) = divmod(x, m), applied
    to explicit finite bead windows.

    components is an e-list of (parts, charge); returns the m-list of
    (parts, charge) read back from the image windows.  The window starts 2m
    below the lowest floor, so every image position below `edge` is a bead
    and every image position from `edge` up comes from a bead in the window.
    index_offset sends images to component (i + index_offset) % e instead of
    i; it is nonzero only in negative controls.
    """
    e = len(components)
    low = min(charge - len(parts) for parts, charge in components) - 2 * m
    images = [set() for _ in range(m)]
    for i, (parts, charge) in enumerate(components):
        beads = set(range(low, charge - len(parts)))
        beads.update(p - k + charge for k, p in enumerate(parts, start=1))
        for x in beads:
            q, r = divmod(x, m)
            images[r].add(e * q + (i + index_offset) % e)
    edge = e * (low // m + 1)
    out = []
    for image in images:
        above = sorted((y for y in image if y >= edge), reverse=True)
        charge = edge + len(above)
        parts = tuple(y + k - charge for k, y in enumerate(above, start=1))
        out.append((tuple(p for p in parts if p), charge))
    return out


def oracle_param(param):
    """The (argument, exponent) pair that root_key_oracle and classical_cases
    read for a HeckeParam sign * x^exponent: sign 1 is the argument 0 and
    sign -1 the argument 1/2, in full turns."""
    sign, exponent = param
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    return (Fraction(0) if sign == 1 else Fraction(1, 2)), exponent


def root_key_oracle(components, tau, sigma, at_root):
    """The root-of-unity block key, computed with Fractions in Q/Z.

    components is a list of part tuples; tau holds one (arg, exponent) pair
    per component and sigma the two symmetric (arg, exponent) pairs, each
    standing for exp(2 pi i arg) * x^exponent at x a primitive at_root-th
    root.  Returns the sorted (value, count) pairs of
    (content * omega + alpha_j) % 1 over the boxes of component j, where
    omega = sigma_1 + 1/2 and alpha_j is tau_j evaluated; returns None when
    omega is 0, and raises ValueError when sigma_0 does not evaluate to 0.
    """
    def evaluate(arg, exponent):
        return (arg + Fraction(exponent, at_root)) % 1

    if evaluate(*sigma[0]) != 0:
        raise ValueError("first symmetric parameter must evaluate to 1")
    omega = (evaluate(*sigma[1]) + Fraction(1, 2)) % 1
    if omega == 0:
        return None
    counts = {}
    for parts, (arg, exponent) in zip(components, tau):
        alpha = evaluate(arg, exponent)
        for i, row in enumerate(parts, start=1):
            for j in range(1, row + 1):
                v = ((j - i) * omega + alpha) % 1
                counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items()))


def residue_key_oracle(components, charges, e, m, index_offset=0):
    """The level-m block key of a charged e-multipartition, from raw parts.

    components is a list of part tuples and charges holds one integer per
    component.  Returns the sorted (residue, count) pairs of
    e * (content + s_j) + j mod m over the boxes of component j, the box in
    row i and column c having content c - i.  index_offset is added to j; it
    is nonzero only in negative controls.
    """
    counts = {}
    for j, (parts, s) in enumerate(zip(components, charges)):
        for i, row in enumerate(parts, start=1):
            for c in range(1, row + 1):
                v = (e * (c - i + s) + j + index_offset) % m
                counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items()))


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def schoolbook_divmod(f, d):
    """Dense long division of coefficient tuples (constant term first) by a
    monic d.  Returns the trimmed (quotient, remainder) pair.
    """
    q = [0] * max(len(f) - len(d) + 1, 0)
    r = list(f)
    while len(r) >= len(d):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(d):
            break
        t = r[-1]
        shift = len(r) - len(d)
        q[shift] = t
        for i, c in enumerate(d):
            r[shift + i] -= t * c
    return _trim(q), _trim(r)


@lru_cache(maxsize=None)
def schoolbook_cyclotomic(e):
    """The e-th cyclotomic polynomial as a coefficient tuple: x^e - 1 divided
    by the cyclotomic polynomial of each proper divisor of e, in schoolbook
    division, each step exact."""
    poly = (-1,) + (0,) * (e - 1) + (1,)
    for d in range(1, e):
        if e % d == 0:
            poly, rem = schoolbook_divmod(poly, schoolbook_cyclotomic(d))
            assert rem == ()
    return poly


def naive_product(f, g):
    """Product of coefficient tuples, every pair of terms multiplied."""
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim(out)


def evaluate(coeffs, x):
    """The polynomial with these coefficients (constant term first) at x, by
    Horner's rule."""
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def polynomial_text(coeffs):
    """coeffs (constant term first) written out highest power first, as
    "x^2 - x + 1": every nonzero term signed, listed from the constant term
    up and reversed, then the leading "+ " dropped or "- " closed up."""
    terms = []
    for k, c in enumerate(coeffs):
        if c:
            power = "" if k == 0 else "x" if k == 1 else "x^" + str(k)
            digits = "" if abs(c) == 1 and k else str(abs(c))
            terms.append(("+ " if c > 0 else "- ") + digits + power)
    text = " ".join(reversed(terms))
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def ennola_substitute(coeffs):
    """f(-x) for f given as a coefficient tuple (constant term first): every
    odd-degree coefficient changes sign."""
    return tuple(-c if k % 2 else c for k, c in enumerate(coeffs))


def classical_cases():
    """(case, pair, variant, tau ratio, sigma_1) for the known parameter
    cases, each parameter an (argument, exponent) pair as oracle_param reads
    a HeckeParam, the tau ratio tau_0/tau_1 (None where it is not checked)
    and sigma_1 the second symmetric parameter, the first being 1.

    - "GU ordinary series" (Lusztig, Invent. Math. 43, 1977: a Hecke algebra
      of type B_a with parameters q^(2t+1) and q^2): the pair at e = 2 over
      the staircase core (t, t-1, ..., 1), t <= 10 and 1 <= a <= 3, read as
      GU, has tau_0/tau_1 = -x^-(2t+1) and sigma = (1, -x^2).
    - "GL principal series" (Iwahori), e = 1 and n <= 5: sigma = (1, -x),
      the relation (T - x)(T + 1).
    - "GU Phi_2 principal series" (its Ennola image, Broue-Malle-Michel
      1993), e = 1 read as GU and n <= 5: sigma = (1, x), so the Hecke
      algebra is that of S_n at -x.
    """
    half = Fraction(1, 2)
    for t in range(11):
        core = partitions.Partition(tuple(range(t, 0, -1)))
        for a in range(1, 4):
            pair = hc_series.CuspidalPairGL(core.size + 2 * a, 2, a, core)
            yield "GU ordinary series", pair, hc_series.GU, (half, -(2 * t + 1)), (half, 2)
    for n in range(1, 6):
        (pair,) = hc_series.hc_pairs(n, 1)
        yield "GL principal series", pair, hc_series.GL, None, (half, 1)
        yield "GU Phi_2 principal series", pair, hc_series.GU, None, (0, 1)


def classical_case_mismatches(specialize):
    """(case, pair) for each of classical_cases() whose parameters, as
    specialize(pair, variant) gives them, are not the known ones."""
    found = []
    for case, pair, variant, ratio, sigma in classical_cases():
        sp = specialize(pair, variant)
        ok = [oracle_param(s) for s in sp.sigma_params] == [(0, 0), sigma]
        if ratio is not None:
            (arg0, exp0), (arg1, exp1) = map(oracle_param, sp.tau_params)
            ok = ok and ((arg0 - arg1) % 1, exp0 - exp1) == ratio
        if not ok:
            found.append((case, pair))
    return found


PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]


# ---------------------------------------------------------------------------
# per-call checks: each computes one partition's or one pair's facts afresh at
# every call, the reference for the suites that compute each fact once per
# member.  The thm2 checks read no kernel of the library; the content-prop
# check reads e_core and the series map, and looks them up at call time, so
# a test that patches one reaches it too

def check_uglov_diagram(p, e, m, s, t):
    """Commutation of the two routes from a partition to an m-multipartition,
    on explicit bead windows.

    Route one: split at charge s into e components, apply the (e, m, s)
    affine permutation on components, then the bead map to level m.  Route
    two: split at charge t into m components and apply the (m, e, t) affine
    permutation.  Raises ValueError unless e and m are coprime.
    """
    route_e = apply_affine_on_pairs(
        *affine_perm_oracle(e, m, s), regroup_on_beads([(p.parts, s)], e)
    )
    route_m = apply_affine_on_pairs(
        *affine_perm_oracle(m, e, t), regroup_on_beads([(p.parts, t)], m)
    )
    return regroup_on_beads(route_e, m) == route_m


@lru_cache(maxsize=None)
def series_charge(parts, e):
    """e + len(e-core), the core found by removing rim hooks (memoised)."""
    return e + len(rim_hook_core(parts, e))


def check_core_matched_diagram(p, e, m):
    """The diagram check at the series charges e + len(e-core) and
    m + len(m-core), the charges used by the series combinatorics, each
    core found by removing rim hooks."""
    return check_uglov_diagram(p, e, m, series_charge(p.parts, e), series_charge(p.parts, m))


def check_core_key_equivalence(p, r, e, m):
    """Assert that sharing an m-core and sharing a level-m residue key are
    equivalent for same-size partitions with the same e-core, and return the
    common truth value.  Each key is residue_key_oracle's over the member's
    series image, so no key kernel of the library is read.

    Raises EquivalenceViolation if the two sides disagree; requires e and m
    positive and coprime.
    """
    if e < 1 or m < 1:
        raise ValueError("levels must be >= 1")
    if gcd(e, m) != 1:
        raise ValueError("levels must be coprime")
    if p.size != r.size:
        raise ValueError("partitions must have the same size")
    if blocks.e_core(r, e) != blocks.e_core(p, e):
        raise ValueError("partitions must have the same e-core")

    def key(q):
        image = partitions.e_quotient_charged(q, e)
        parts = [c.parts for c in image.components]
        return residue_key_oracle(parts, image.charges, e, m)

    same_core = blocks.e_core(p, m) == blocks.e_core(r, m)
    same_key = key(p) == key(r)
    if same_core != same_key:
        raise EquivalenceViolation(
            f"core comparison {same_core} but key comparison {same_key}"
            f" for {p.parts}, {r.parts} at (e, m) = ({e}, {m})"
        )
    return same_core
