import copy
import pickle
import re
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abacore.partitions import (
    _EMPTY,
    AffinePerm,
    BetaSet,
    ChargedMultiPartition,
    Partition,
    _abaci,
    _charged,
    _contents,
    _join_emptied,
    _shift_pairs,
    affine_perm,
    core_exponents,
    e_core,
    e_quotient_charged,
    from_beta,
    hook_lengths,
    is_e_core,
    multipartitions_of,
    partitions_of,
    regroup,
    to_beta,
)
from abacore.hc_series import CuspidalPairGL, HeckeParam, HeckeSpecialization
from abacore.levelrank import uglov
from abacore.polynomials import IntPolynomial
from oracles import (
    PARTITION_COUNTS,
    cells,
    hooks_by_cells,
    regroup_on_beads,
    rim_hook_core,
)

P = Partition
CMP = ChargedMultiPartition


def CP(p, s):
    """The charged partition |p, s>: a charged multipartition of level 1."""
    return CMP((p,), (s,))


def betas(cmp):
    """The beta set of each component of a charged multipartition."""
    return tuple(to_beta(CP(p, s)) for p, s in zip(cmp.components, cmp.charges))


def all_partitions_up_to(n):
    for k in range(n + 1):
        yield from partitions_of(k)


partition_strategy = st.lists(st.integers(1, 8), max_size=8).map(
    lambda xs: P(tuple(sorted(xs, reverse=True)))
)


class TestPartitionBasics:
    def test_validation(self):
        with pytest.raises(ValueError) as exc:
            P((1, 2))
        assert str(exc.value) == "parts must be weakly decreasing: (1, 2)"
        with pytest.raises(ValueError) as exc:
            P((2, 0))
        assert str(exc.value) == "parts must be positive, got 0"

    @pytest.mark.parametrize(
        "parts, bad",
        [
            ((2.5, 1), "2.5"),
            (("3", "1"), "'3'"),
            ((True,), "True"),
            ((3, 1.0), "1.0"),
            # a later part is typed before it is compared with the one above
            ((3, "1"), "'1'"),
            ((3, 1, 2.5), "2.5"),
            ((Fraction(2), 1), "Fraction(2, 1)"),
            # the type is checked before the sign
            ((0.5,), "0.5"),
            ((False,), "False"),
        ],
    )
    def test_parts_must_be_integers(self, parts, bad):
        # bool is refused with every other non-int: a part counts boxes
        with pytest.raises(ValueError) as exc:
            P(parts)
        assert str(exc.value) == f"parts must be integers, got {bad}"

    def test_integer_parts_fail_their_first_check(self):
        # the sign of each part is checked before its order against the
        # part above, as when each part was compared with the one below
        def first_fault(parts):
            for i, p in enumerate(parts):
                if p < 1:
                    return f"parts must be positive, got {p}"
                if i + 1 < len(parts) and parts[i + 1] > p:
                    return f"parts must be weakly decreasing: {parts}"
            return None

        for parts in product(range(-1, 4), repeat=4):
            for k in range(5):
                expected = first_fault(parts[:k])
                if expected is None:
                    assert P(parts[:k]).parts == parts[:k]
                    continue
                with pytest.raises(ValueError) as exc:
                    P(parts[:k])
                assert str(exc.value) == expected

    def test_is_its_tuple_of_parts(self):
        ps = list(all_partitions_up_to(8))
        for p in ps:
            assert p == p.parts
            assert hash(p) == hash(p.parts)
            assert type(p.parts) is tuple
        assert sorted(ps) == sorted(ps, key=lambda q: q.parts)
        assert sorted(ps) != ps  # partitions_of lists each size in reverse

    def test_partitions_of_lists_the_reverse_of_sorted(self):
        # the series and the thm1 report walk it reversed instead of sorting
        for n in range(17):
            assert list(reversed(partitions_of(n))) == sorted(partitions_of(n))

    def test_repr_str_and_slots(self):
        assert repr(P((1, 1))) == "Partition(parts=(1, 1))"
        assert repr(P(())) == "Partition(parts=())"
        assert str(P((3, 1, 1))) == "3,1,1"
        assert P([2, 1]) == P(parts=(2, 1))
        assert not hasattr(P(()), "__dict__")

    def test_size_and_length(self):
        assert P((3, 1, 1)).size == 5
        assert len(P((3, 1, 1))) == 3
        assert P(()).size == 0

    def test_conjugate(self):
        assert P((3, 1)).conjugate() == P((2, 1, 1))
        assert P(()).conjugate() == P(())

    def test_hook_lengths_examples(self):
        assert hook_lengths(P((3,))) == (3, 2, 1)
        assert hook_lengths(P((2, 1))) == (3, 1, 1)
        assert hook_lengths(P((2, 2))) == (3, 2, 2, 1)

    def test_hook_lengths_against_cell_count(self):
        for p in all_partitions_up_to(9):
            assert list(hook_lengths(p)) == hooks_by_cells(p.parts)

    def test_hook_lengths_are_memoised_per_partition(self):
        # an equal partition built afresh hits the same immutable entry
        first = hook_lengths(P((4, 2, 1)))
        assert isinstance(first, tuple)
        hits = hook_lengths.cache_info().hits
        assert hook_lengths(P((4, 2, 1))) is first
        assert hook_lengths.cache_info().hits == hits + 1

    def test_contents_against_cells(self):
        assert _contents(P((3, 1))) == (0, 1, 2, -1)
        assert _contents(P(())) == ()
        for p in all_partitions_up_to(9):
            assert sorted(_contents(p)) == sorted(c - r for r, c in cells(p.parts))

    def test_partition_counts(self):
        for n, expected in enumerate(PARTITION_COUNTS):
            assert len(partitions_of(n)) == expected

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: is_e_core(P((2, 1)), 0), "e must be >= 1"),
            (lambda: partitions_of(-1), "n must be >= 0"),
            (lambda: multipartitions_of(0, 1), "e must be >= 1"),
            (lambda: multipartitions_of(1, -1), "a must be >= 0"),
        ],
        ids=["is_e_core", "partitions_of", "multipartitions_of-e", "multipartitions_of-a"],
    )
    def test_refusals(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    def test_multipartitions_are_listed_in_sorted_order(self):
        # the order blocks list their members in, so no caller sorts them
        for e in range(1, 5):
            for a in range(7):
                mps = multipartitions_of(e, a)
                assert list(mps) == sorted(set(mps))
        assert [tuple(q.parts for q in mp) for mp in multipartitions_of(2, 1)] == [
            ((), (1,)),
            ((1,), ()),
        ]

    def test_multipartition_counts(self):
        assert len(multipartitions_of(1, 4)) == 5
        assert len(multipartitions_of(2, 2)) == 5
        assert len(multipartitions_of(3, 2)) == 9
        assert len(multipartitions_of(2, 6)) == 65


class TestBetaSets:
    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            BetaSet(0, (0,))
        with pytest.raises(ValueError):
            BetaSet(0, (2, 3))

    def test_to_beta_examples(self):
        assert to_beta(CP(P(()), 0)) == BetaSet(0, ())
        assert to_beta(CP(P((2, 1)), 0)) == BetaSet(-2, (1, -1))
        assert to_beta(CP(P((3,)), 3)) == BetaSet(2, (5,))

    def test_from_beta_examples(self):
        assert from_beta(BetaSet(0, ())) == CP(P(()), 0)
        assert from_beta(BetaSet(-2, (1, -1))) == CP(P((2, 1)), 0)
        assert from_beta(BetaSet(2, (5,))) == CP(P((3,)), 3)

    def test_charge_equals_floor_plus_tail(self):
        assert BetaSet(-2, (1, -1)).charge == 0
        assert BetaSet(2, (5,)).charge == 3

    def test_membership(self):
        beta = to_beta(CP(P((2,)), 0))
        assert [k for k in range(-4, 2) if k in beta] == [-4, -3, -2, 1]
        assert [k for k in range(-3, 1) if k in BetaSet(0)] == [-3, -2, -1]

    def test_round_trip_exhaustive(self):
        for p in all_partitions_up_to(12):
            for s in range(-6, 7):
                cp = CP(p, s)
                beta = to_beta(cp)
                assert beta.charge == s
                assert from_beta(beta) == cp

    @settings(max_examples=200)
    @given(partition_strategy, st.integers(-20, 20))
    def test_round_trip_hypothesis(self, p, s):
        assert from_beta(to_beta(CP(p, s))) == CP(p, s)


# type name -> (a constructor call, the fields it sets, the repr it prints)
VALUE_TYPES = {
    "ChargedMultiPartition": (
        lambda: CMP((P((2, 1)), P(())), (0, 1)),
        {"components": (P((2, 1)), P(())), "charges": (0, 1)},
        "ChargedMultiPartition(components=(Partition(parts=(2, 1)), "
        "Partition(parts=())), charges=(0, 1))",
    ),
    "BetaSet": (
        lambda: BetaSet(-2, (1, -1)),
        {"floor": -2, "tail": (1, -1)},
        "BetaSet(floor=-2, tail=(1, -1))",
    ),
    "AffinePerm": (
        lambda: AffinePerm(3, (0, 2, 1), (0, -1, -1)),
        {"e": 3, "perm": (0, 2, 1), "shifts": (0, -1, -1)},
        "AffinePerm(e=3, perm=(0, 2, 1), shifts=(0, -1, -1))",
    ),
    "CuspidalPairGL": (
        lambda: CuspidalPairGL(3, 2, 1, P((1,))),
        {"n": 3, "e": 2, "a": 1, "core": P((1,))},
        "CuspidalPairGL(n=3, e=2, a=1, core=Partition(parts=(1,)))",
    ),
    "HeckeSpecialization": (
        lambda: HeckeSpecialization(
            (HeckeParam(-1, 1),),
            (HeckeParam(1, 0), HeckeParam(1, 2)),
        ),
        {
            "tau_params": (HeckeParam(-1, 1),),
            "sigma_params": (HeckeParam(1, 0), HeckeParam(1, 2)),
        },
        "HeckeSpecialization(tau_params=(HeckeParam(sign=-1, exponent=1),), "
        "sigma_params=(HeckeParam(sign=1, exponent=0), HeckeParam(sign=1, exponent=2)))",
    ),
    "IntPolynomial": (
        lambda: IntPolynomial(-1, 0, 1, 0),
        {"coeffs": (-1, 0, 1)},
        "IntPolynomial('x^2 - 1')",
    ),
}


class TestValueTypes:
    @pytest.mark.parametrize("name", sorted(VALUE_TYPES))
    def test_value_type_contract(self, name):
        make, fields, text = VALUE_TYPES[name]
        value = make()
        assert type(value).__name__ == name
        assert repr(value) == text
        assert {field: getattr(value, field) for field in fields} == fields
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, fields[field])
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.unknown_field = 0
        twin = make()
        assert twin is not value and twin == value and hash(twin) == hash(value)
        for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value) and copied == value
            assert repr(copied) == text

    @pytest.mark.parametrize("name", sorted(set(VALUE_TYPES) - {"IntPolynomial"}))
    def test_value_type_equals_its_field_tuple(self, name):
        make, fields, _ = VALUE_TYPES[name]
        assert make() == tuple(fields.values())

    def test_polynomials_do_not_add(self):
        with pytest.raises(TypeError):
            IntPolynomial(1) + IntPolynomial(1)
        with pytest.raises(TypeError):
            IntPolynomial(1) * IntPolynomial(1)

    @pytest.mark.parametrize(
        "make, message",
        [
            # an input that fails two checks pins which check runs first
            (lambda: CMP((), (0,)), "component and charge counts differ"),
            (lambda: CMP((P(()),), (0, 1)), "component and charge counts differ"),
            (lambda: CMP((), ()), "need at least one component"),
            (lambda: BetaSet(0, (0, 1)), "tail entries must exceed the floor"),
            (lambda: BetaSet(0, (2, 3)), "tail must be strictly decreasing"),
            (lambda: BetaSet(0.5, ()), "floor and tail entries must be integers, got 0.5"),
            (lambda: BetaSet(True, ()), "floor and tail entries must be integers, got True"),
            (lambda: BetaSet(0, (True,)), "floor and tail entries must be integers, got True"),
            (lambda: BetaSet(0, (-1.0,)), re.escape("entries must be integers, got -1.0")),
            (lambda: BetaSet(0, (2, "1")), "entries must be integers, got '1'"),
            (lambda: AffinePerm(2, (0, 0), (0, 0)), "inconsistent affine permutation data"),
            (lambda: AffinePerm(2, (1, 0), (0,)), "inconsistent affine permutation data"),
            (lambda: AffinePerm(1, (0,), (0.5,)), "inconsistent affine permutation data"),
            (lambda: AffinePerm(2, (1, 0), (0, True)), "inconsistent affine permutation data"),
            (lambda: AffinePerm(2, (1.0, 0), (0, 0)), "inconsistent affine permutation data"),
            (lambda: AffinePerm(2, (0, True), (0, 0)), "inconsistent affine permutation data"),
            (lambda: AffinePerm(2, (1, "0"), (0, 0)), "inconsistent affine permutation data"),
            (lambda: AffinePerm(True, (0,), (0,)), "inconsistent affine permutation data"),
            (lambda: AffinePerm(2.0, (1, 0), (0, 0)), "inconsistent affine permutation data"),
            (lambda: AffinePerm("1", (0,), (0,)), "inconsistent affine permutation data"),
            (
                lambda: CuspidalPairGL(3, 2, 0, P((2,))),
                "sizes of core and torus part do not add up",
            ),
            (
                lambda: CuspidalPairGL(1, 2, -1, P((3,))),
                "sizes of core and torus part do not add up",
            ),
            (lambda: CuspidalPairGL(4, 2, 1, P((2,))), re.escape("(2,) is not a 2-core")),
        ],
    )
    def test_constructor_messages(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize(
        "components, charges, message",
        [
            (((1, 3),), (0,), "components must be Partitions, got (1, 3)"),
            ((P((1,)), ()), (0, 0), "components must be Partitions, got ()"),
            ((P(()),), (0.5,), "charges must be integers, got 0.5"),
            ((P(()), P((1,))), (0, "1"), "charges must be integers, got '1'"),
            ((P(()),), (True,), "charges must be integers, got True"),
        ],
    )
    def test_charged_field_types(self, components, charges, message):
        with pytest.raises(ValueError) as exc:
            CMP(components, charges)
        assert str(exc.value) == message

    def test_uglov_input_is_checked_at_the_boundary(self):
        # an unsorted tuple component and a float charge were read as they
        # stood: the first split into ((1,), (1,)), the second failed in regroup
        with pytest.raises(ValueError, match="^components must be Partitions"):
            uglov(CMP(((1, 3),), (0,)), 2)
        with pytest.raises(ValueError, match="^charges must be integers, got 1.5$"):
            uglov(CMP((P((2,)),), (1.5,)), 2)
        with pytest.raises(ValueError, match="^charges must be integers"):
            CMP((P((1,)),), (0,))._replace(charges=(0.0,))

    def test_from_beta_input_is_checked_at_the_boundary(self):
        # from_beta hands its beta set to _charged, which does not check the
        # value it builds: a float floor would come back as a float charge
        message = "^floor and tail entries must be integers, got 0.5$"
        with pytest.raises(ValueError, match=message):
            from_beta(BetaSet(0.5, ()))
        with pytest.raises(ValueError, match=message):
            from_beta(BetaSet(-2, (1, -1))._replace(tail=(0.5,)))
        # a plain pair is no BetaSet and is not read as one
        with pytest.raises(AttributeError):
            from_beta((0.5, ()))
        image = from_beta(BetaSet(-2, [1, -1]))
        assert type(image) is CMP and image == CP(P((2, 1)), 0)
        assert type(image.charges[0]) is int

    def test_affine_input_is_checked_at_the_boundary(self):
        # the shifts reach the abaci that _shift_pairs returns: a float shift
        # of an empty component would come back as a float floor
        with pytest.raises(ValueError, match="^inconsistent affine permutation data$"):
            AffinePerm(1, (0,), (0.5,))
        with pytest.raises(ValueError, match="^inconsistent affine permutation data$"):
            AffinePerm(1, (0,), (0,))._replace(shifts=(True,))
        # a float perm entry failed in _shift_pairs with a bare TypeError
        with pytest.raises(ValueError, match="^inconsistent affine permutation data$"):
            AffinePerm(2, (1.0, 0), (0, 0))
        with pytest.raises(ValueError, match="^inconsistent affine permutation data$"):
            AffinePerm(2, (1, 0), (0, 0))._replace(perm=(1.0, 0))
        (image,) = _shift_pairs(AffinePerm(1, (0,), (2,)), _abaci((P(()),), (0,)))
        assert image == (2, ()) and type(image[0]) is int

    # a value built from lists, and the same value built from tuples
    FROM_LISTS = [
        (lambda: CMP([P((1,)), P(())], [0, 2]), lambda: CMP((P((1,)), P(())), (0, 2))),
        (lambda: BetaSet(0, [1]), lambda: BetaSet(0, (1,))),
        (lambda: AffinePerm(2, [1, 0], [0, -1]), lambda: AffinePerm(2, (1, 0), (0, -1))),
        (lambda: CMP._make([[P(())], [1]]), lambda: CMP((P(()),), (1,))),
        (lambda: CMP((P(()),), (0,))._replace(charges=[1]), lambda: CMP((P(()),), (1,))),
        (lambda: BetaSet(0)._replace(tail=[2, 1]), lambda: BetaSet(0, (2, 1))),
        (lambda: AffinePerm._make([1, [0], [3]]), lambda: AffinePerm(1, (0,), (3,))),
    ]

    @pytest.mark.parametrize("make, twin", FROM_LISTS)
    def test_sequence_fields_are_stored_as_tuples(self, make, twin):
        value, expected = make(), twin()
        assert type(value) is type(expected)
        assert value == expected and hash(value) == hash(expected)
        assert value == tuple(expected) and not any(type(f) is list for f in value)

    # each checked named tuple: a valid value, fields whose replacement its
    # constructor refuses, and the constructor's message
    CHECKED = {
        "BetaSet": (
            lambda: BetaSet(0, ()), {"tail": (0,)}, "tail entries must exceed the floor"
        ),
        "AffinePerm": (
            lambda: AffinePerm(2, (0, 1), (0, 0)),
            {"perm": (0, 0)},
            "inconsistent affine permutation data",
        ),
        "ChargedMultiPartition": (
            lambda: CMP((P(()), P((1,))), (0, 0)),
            {"components": (), "charges": ()},
            "need at least one component",
        ),
        "CuspidalPairGL": (
            lambda: CuspidalPairGL(5, 2, 2, P((1,))),
            {"a": 0, "core": P((5,))},
            re.escape("(5,) is not a 2-core"),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CHECKED))
    def test_make_and_replace_check_like_the_constructor(self, name):
        make, bad, message = self.CHECKED[name]
        value = make()
        for same in (value._replace(), type(value)._make(value)):
            assert type(same) is type(value) and same == value
        with pytest.raises(ValueError, match=message):
            value._replace(**bad)
        with pytest.raises(ValueError, match=message):
            type(value)._make({**value._asdict(), **bad}.values())


class TestSplitJoin:
    # a beta set splits into its e residue classes through uglov from level 1
    # and joins back through uglov to level 1
    def test_split_beta_examples(self):
        assert betas(uglov(from_beta(BetaSet(0)), 2)) == (BetaSet(0), BetaSet(0))
        assert betas(uglov(from_beta(BetaSet(2, (5,))), 3)) == (
            BetaSet(1),
            BetaSet(1),
            BetaSet(0, (1,)),
        )
        assert betas(uglov(from_beta(BetaSet(-1, (1,))), 2)) == (
            BetaSet(0),
            BetaSet(-1, (0,)),
        )

    def test_join_beta_examples(self):
        def join(*comps):
            level1 = [from_beta(c) for c in comps]
            parts = tuple(c.components[0] for c in level1)
            charges = tuple(c.charges[0] for c in level1)
            return to_beta(uglov(CMP(parts, charges), 1))

        assert join(BetaSet(0), BetaSet(0)) == BetaSet(0)
        assert join(BetaSet(1), BetaSet(1), BetaSet(0, (1,))) == BetaSet(2, (5,))
        assert join(BetaSet(0), BetaSet(-1, (0,))) == BetaSet(-1, (1,))

    def test_split_rejects_bad_level(self):
        with pytest.raises(ValueError):
            uglov(from_beta(BetaSet(0)), 0)
        with pytest.raises(ValueError):
            CMP((), ())

    def test_to_beta_rejects_higher_level(self):
        two = CMP((P((1,)), P(())), (0, 0))
        with pytest.raises(ValueError, match="got level 2"):
            to_beta(two)
        assert to_beta(uglov(two, 1)) == BetaSet(-2, (0, -1))

    def test_factorization_exhaustive(self):
        for p in all_partitions_up_to(12):
            for s in (-6, -2, 0, 1, 5, 6):
                beta = to_beta(CP(p, s))
                for e in range(1, 7):
                    comps = uglov(from_beta(beta), e)
                    assert to_beta(uglov(comps, 1)) == beta
                    assert sum(c.charge for c in betas(comps)) == beta.charge


class TestChargedSplit:
    # the charged core-quotient split is uglov from level 1, the join uglov
    # back to level 1
    def test_examples(self):
        for e in (1, 2, 5):
            empty = uglov(CP(P(()), 0), e)
            assert empty.components == (P(()),) * e
            assert empty.charges == (0,) * e
        assert uglov(CP(P((3,)), 3), 3) == CMP((P(()), P(()), P((1,))), (1, 1, 1))
        assert uglov(CP(P((2,)), 0), 2) == CMP((P(()), P((1,))), (0, 0))

    def test_join_inverts(self):
        assert uglov(CMP((P(()),) * 3, (0, 0, 0)), 1) == CP(P(()), 0)
        for p in all_partitions_up_to(10):
            for s in (-4, 0, 3):
                for e in (1, 2, 3, 5):
                    cmp = uglov(CP(p, s), e)
                    assert cmp.total_charge == s
                    assert uglov(cmp, 1) == CP(p, s)


class TestSharedEmptyComponent:
    # _charged emits one shared empty partition for every empty tail
    @staticmethod
    def _check_empties(mp):
        for c in mp:
            if not c:
                assert c is _EMPTY
                assert type(c) is P
                assert c == P(()) and hash(c) == hash(P(()))
        return sum(not c for c in mp)

    @staticmethod
    def _check_order(images):
        # the same order as the images rebuilt from fresh partitions
        rebuilt = [tuple(P(tuple(c)) for c in mp) for mp in images]
        assert rebuilt == images
        assert all(c is not _EMPTY for mp in rebuilt for c in mp if not c)
        order = sorted(range(len(images)), key=images.__getitem__)
        assert order == sorted(range(len(rebuilt)), key=rebuilt.__getitem__)

    def test_quotient_components(self):
        empties = 0
        for e in range(1, 7):
            images = [
                e_quotient_charged(p, e).components for p in all_partitions_up_to(10)
            ]
            empties += sum(self._check_empties(mp) for mp in images)
            self._check_order(images)
        assert empties == 2_110

    def test_uglov_components(self):
        empties = 0
        for p in all_partitions_up_to(8):
            for s in (-3, 0, 2):
                for e in (2, 3):
                    cmp = uglov(CP(p, s), e)
                    images = [uglov(cmp, m).components for m in range(1, 6)]
                    empties += sum(self._check_empties(mp) for mp in images)
                    self._check_order(images)
        assert empties == 3_810

    def test_nonempty_parts_still_validated(self):
        # a non-canonical abacus: floor 0 is a bead, giving a part of 0
        with pytest.raises(ValueError, match="parts must be positive, got 0"):
            _charged(((0, (0,)),))
        assert _charged(((0, ()), (-1, (1,)))) == ((_EMPTY, P((2,))), (0, 0))


def charged_listed(abaci):
    """Mutant of _charged: the value holds the lists it was built from."""
    value = _charged(abaci)
    return tuple.__new__(CMP, (list(value.components), list(value.charges)))


def charged_float_charges(abaci):
    """Mutant of _charged: each charge is a float of the right value."""
    value = _charged(abaci)
    return tuple.__new__(CMP, (value.components, tuple(c + 0.0 for c in value.charges)))


class TestUncheckedBuild:
    """_charged builds its ChargedMultiPartition without the constructor's
    checks; on every abacus a bead map makes, the value must be the one the
    checked constructor builds from the same fields."""

    @staticmethod
    def abaci():
        # each charged partition of size <= 8 split at levels 1..6, and each
        # split moved by the affine permutations of its level and charge
        for p in all_partitions_up_to(8):
            for s in range(-3, 4):
                for e in range(1, 7):
                    split = regroup(_abaci((p,), (s,)), e)
                    yield split
                    for m in range(1, 7):
                        if gcd(e, m) == 1:
                            yield _shift_pairs(affine_perm(e, m, s), split)

    @classmethod
    def disagreements(cls, charged):
        cases = list(cls.abaci())
        missed = 0
        for ab in cases:
            value = charged(ab)
            try:
                checked = CMP(*value)
                agrees = type(value) is CMP and value == checked
                agrees = agrees and hash(value) == hash(checked)
            except (TypeError, ValueError):
                agrees = False
            with pytest.raises(ValueError, match="^charges must be integers"):
                value._replace(charges=(0.5,) * len(ab))
            missed += not agrees
        return missed, len(cases)

    def test_agrees_with_the_checked_constructor(self):
        # 67 partitions x 7 charges x (6 levels + 23 coprime level pairs)
        assert self.disagreements(_charged) == (0, 13_601)

    @pytest.mark.parametrize("mutant", [charged_listed, charged_float_charges])
    def test_mutants_are_caught(self, mutant):
        assert self.disagreements(mutant) == (13_601, 13_601)


class TestCoreQuotient:
    def test_e_core_examples(self):
        assert e_core(P((3,)), 3) == P(())
        assert e_core(P((2, 1)), 2) == P((2, 1))
        assert e_core(P((2, 1, 1)), 2) == P(())

    def test_quotient_examples(self):
        assert e_quotient_charged(P(()), 2) == ChargedMultiPartition(
            (P(()), P(())), (1, 1)
        )
        assert e_quotient_charged(P((3,)), 3) == ChargedMultiPartition(
            (P(()), P(()), P((1,))), (1, 1, 1)
        )
        assert e_quotient_charged(P((2, 1)), 3) == ChargedMultiPartition(
            (P(()), P((1,)), P(())), (1, 1, 1)
        )

    def test_is_e_core_examples(self):
        assert is_e_core(P((2, 1)), 2)
        assert not is_e_core(P((3,)), 3)
        assert is_e_core(P(()), 1)
        assert is_e_core(P(()), 7)

    def test_core_against_rim_hook_oracle(self):
        # every level up to 12 at every size up to 12, from cleared caches,
        # so each core joined once per charge vector is first joined here
        for cache in (e_core, e_quotient_charged, _join_emptied):
            cache.cache_clear()
        for p in all_partitions_up_to(12):
            for e in range(1, 13):
                assert e_core(p, e).parts == rim_hook_core(p.parts, e)

    def test_core_criterion_three_ways(self):
        for p in all_partitions_up_to(12):
            for e in range(1, 7):
                no_div_hook = all(h % e != 0 for h in hook_lengths(p))
                quotient_empty = all(
                    q.size == 0 for q in e_quotient_charged(p, e).components
                )
                assert is_e_core(p, e) == no_div_hook == quotient_empty
                assert is_e_core(p, e) == (e_core(p, e) == p)

    def test_size_law(self):
        for p in all_partitions_up_to(12):
            for e in range(1, 7):
                for s in (-3, 0, 4):
                    quotient = uglov(CP(p, e + s), e)
                    total = sum(q.size for q in quotient.components)
                    assert p.size == e_core(p, e).size + e * total

    def test_series_map_contract(self):
        # e_quotient_charged is the series map: uglov from level 1 at charge
        # e + len(e-core), whose charges are those of the core itself
        for p in all_partitions_up_to(10):
            for e in range(1, 7):
                core = e_core(p, e)
                image = e_quotient_charged(p, e)
                assert image == uglov(CP(p, e + len(core)), e)
                assert image.charges == e_quotient_charged(core, e).charges
                assert image.total_charge == e + len(core)

    def test_idempotence(self):
        for p in all_partitions_up_to(10):
            for e in range(1, 7):
                core = e_core(p, e)
                assert e_core(core, e) == core

    def test_charge_independence(self):
        for p in all_partitions_up_to(8):
            for e in (2, 3, 5):
                sizes = None
                for s in range(-6, 7):
                    cmp = uglov(CP(p, s), e)
                    multiset = tuple(sorted(q.size for q in cmp.components))
                    if sizes is None:
                        sizes = multiset
                    assert multiset == sizes
                    emptied = CMP((P(()),) * e, cmp.charges)
                    assert uglov(emptied, 1) == CP(e_core(p, e), s)


def rotated_off_by_one_split(p, level):
    """Mutant of e_quotient_charged: each charged component of the charge-0
    split lands one component too far."""
    components, charges = _charged(regroup(_abaci((p,), (0,)), level))
    s = level - min(level * c + r for r, c in enumerate(charges))
    rotated = [None] * level
    for r, (q, c) in enumerate(zip(components, charges)):
        c, j = divmod(level * c + r + s, level)
        rotated[(j + 1) % level] = (q, c)
    return CMP(*map(tuple, zip(*rotated)))


def residue_blind_split(p, level):
    """Mutant of e_quotient_charged: the core length is read as
    -min(level*c_r), without the residue r of the lowest empty position."""
    components, charges = _charged(regroup(_abaci((p,), (0,)), level))
    s = level - min(level * c for c in charges)
    rotated = [None] * level
    for r, (q, c) in enumerate(zip(components, charges)):
        c, j = divmod(level * c + r + s, level)
        rotated[j] = (q, c)
    return CMP(*map(tuple, zip(*rotated)))


def charge_zero_split(p, level):
    """p's split at charge 0 into level components, and its series charge
    read off the split as e_quotient_charged reads it."""
    split = regroup(_abaci((p,), (0,)), level)
    return split, level - min(level * (f + len(t)) + r for r, (f, t) in enumerate(split))


def sign_flipped_correction(p, level):
    """Mutant of e_quotient_charged: the charge-0 split is corrected by
    affine_perm(level, 1, s), with the sign of the charge flipped."""
    split, s = charge_zero_split(p, level)
    return _charged(_shift_pairs(affine_perm(level, 1, s), split))


def charge_off_by_one_correction(p, level):
    """Mutant of e_quotient_charged: the charge-0 split is corrected for
    charge s + 1, by affine_perm(level, 1, -(s + 1))."""
    split, s = charge_zero_split(p, level)
    return _charged(_shift_pairs(affine_perm(level, 1, -(s + 1)), split))


class TestCoreMatchedSplit:
    """e_quotient_charged against an oracle that never runs regroup: the
    series charge from the rim-hook core, the split from explicit beads."""

    @staticmethod
    def mismatches(series_map):
        cases = [(p, level) for p in all_partitions_up_to(12) for level in range(1, 13)]
        missed = []
        for p, level in cases:
            s = level + len(rim_hook_core(p.parts, level))
            expected = regroup_on_beads([(p.parts, s)], level)
            image = series_map(p, level)
            got = list(zip(image.components, image.charges))
            if (image.total_charge, got) != (s, expected):
                missed.append((p, level))
        return missed, len(cases)

    def test_against_oracle(self):
        # 272 partitions of size <= 12, levels 1..12
        assert self.mismatches(e_quotient_charged) == ([], 3264)

    @pytest.mark.parametrize(
        "mutant, missed, lowest",
        [
            (rotated_off_by_one_split, 2974, 2),
            (residue_blind_split, 2437, 2),
            (sign_flipped_correction, 3264, 1),
            (charge_off_by_one_correction, 3264, 1),
        ],
    )
    def test_mutants_are_caught(self, mutant, missed, lowest):
        # at level 1 there is one component and r = 0, so the first two
        # mutants are the real split there and miss cases at every level from
        # 2 up; a wrong correction charge moves the total charge off s, so the
        # last two miss every case at every level
        cases, _ = self.mismatches(mutant)
        assert len(cases) == missed
        assert {level for _, level in cases} == set(range(lowest, 13))

    @pytest.mark.parametrize("level", [0, -1])
    def test_rejects_nonpositive_level(self, level):
        for call in (e_quotient_charged, e_core):
            with pytest.raises(ValueError, match="^e must be >= 1$"):
                call(P((2, 1)), level)


class TestCoreExponents:
    def test_examples(self):
        assert core_exponents(P(()), 1) == (1,)
        assert core_exponents(P(()), 2) == (2, 3)
        assert core_exponents(P((1,)), 2) == (2, 5)

    def test_rejects_non_core(self):
        with pytest.raises(ValueError):
            core_exponents(P((3,)), 3)

    def test_residues_cover_all_classes(self):
        # the exponent vector always hits each residue class mod e once
        for core in all_partitions_up_to(7):
            for e in range(1, 6):
                if not is_e_core(core, e):
                    continue
                exps = core_exponents(core, e)
                assert sorted(a % e for a in exps) == list(range(e))
