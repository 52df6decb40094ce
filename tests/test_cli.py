import hashlib
import json
import operator
import os
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

import abacore
from abacore import blocks, cli, hc_series, levelrank, partitions, suites
from abacore.cli import (
    main,
    parse_charges,
    parse_multipartition,
    parse_partition,
    render_multipartition,
)
from abacore.partitions import ChargedMultiPartition, Partition, _abaci, partitions_of
from abacore.polynomials import generic_degree
from abacore.suites import run_suite
from oracles import (
    PARTITION_COUNTS,
    EquivalenceViolation,
    check_core_key_equivalence,
    check_core_matched_diagram,
)

P = Partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def add_charges(cmp, delta):
    """cmp with delta added to its leading charges."""
    head = tuple(c + d for c, d in zip(cmp.charges, delta))
    return ChargedMultiPartition(cmp.components, head + cmp.charges[len(delta):])


def _wrong_two_core(p, k):
    # e_core with (2, 1) given the 2-core (1) instead of itself
    return Partition((1,)) if (p.parts, k) == ((2, 1), 2) else partitions.e_core(p, k)


# mutants of the names the roundtrip suite calls, each made from the real one
def _beta_charge_mutant(real):
    # a nonempty partition read back one charge too high
    return lambda b: add_charges(real(b), (1,)) if b.tail else real(b)


def _split_mutant(real):
    # a split from level 1 that moves one unit of charge between components
    def broken(cmp, m):
        image = real(cmp, m)
        return add_charges(image, (1, -1)) if cmp.level == 1 and m > 1 else image

    return broken


def _charge_mutant(real):
    # a map between levels above 1 that adds one to the total charge
    def broken(cmp, m):
        image = real(cmp, m)
        return add_charges(image, (1,)) if cmp.level > 1 and m > 1 else image

    return broken


def _index_mutant(real):
    # the index map one step off for a negative first argument; the suite's
    # forward map and its inverse (the levels swapped) both call it
    return lambda q, r, e, m: real(q + (q < 0), r, e, m)


class TestCore:
    def test_examples(self, capsys):
        code, out, _ = run(capsys, "core", "--partition", "3", "--e", "3")
        assert code == 0
        assert out == '{"charges": [1, 1, 1], "core": "", "quotient": [";;1"]}\n'

        code, out, _ = run(capsys, "core", "--partition", "", "--e", "2")
        assert code == 0
        assert out == '{"charges": [1, 1], "core": "", "quotient": [";"]}\n'

        code, out, _ = run(capsys, "core", "--partition", "2,1", "--e", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["core"] == "2,1"
        assert doc["quotient"] == [";"]

    def test_malformed_partition(self, capsys):
        code, out, err = run(capsys, "core", "--partition", "1,3", "--e", "2")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_bad_level(self, capsys):
        code, out, err = run(capsys, "core", "--partition", "2", "--e", "0")
        assert (code, out, err) == (2, "", "error: e must be >= 1\n")


class TestUglov:
    def test_examples(self, capsys):
        code, out, _ = run(
            capsys, "uglov", "--mp", ";", "--charges", "1,0", "--e", "2", "--m", "3"
        )
        assert code == 0
        assert out == '{"charges": [1, 0, 0], "mp": ";;"}\n'

        code, out, _ = run(
            capsys, "uglov", "--mp", "", "--charges", "0", "--e", "1", "--m", "2"
        )
        assert code == 0
        assert out == '{"charges": [0, 0], "mp": ";"}\n'

    def test_round_trip_through_cli(self, capsys):
        code, out, _ = run(
            capsys, "uglov", "--mp", "2,1;", "--charges", "0,1", "--e", "2", "--m", "5"
        )
        assert code == 0
        doc = json.loads(out)
        code, out2, _ = run(
            capsys,
            "uglov",
            "--mp",
            doc["mp"],
            "--charges",
            ",".join(str(c) for c in doc["charges"]),
            "--e",
            "5",
            "--m",
            "2",
        )
        assert code == 0
        assert json.loads(out2) == {"mp": "2,1;", "charges": [0, 1]}

    def test_count_mismatch(self, capsys):
        code, _, err = run(
            capsys, "uglov", "--mp", ";", "--charges", "1", "--e", "2", "--m", "3"
        )
        assert code == 2
        assert "error" in err

    def test_negative_leading_charge_needs_equals(self, capsys):
        # argparse reads "-1,0" after a space as an option, so the README and
        # the help text ask for --charges=-1,0
        code, out, _ = run(
            capsys, "uglov", "--mp", ";", "--charges=-1,0", "--e", "2", "--m", "3"
        )
        assert code == 0
        assert out == '{"charges": [0, 0, -1], "mp": ";;1"}\n'

        with pytest.raises(SystemExit) as exc:
            main(["uglov", "--mp", ";", "--charges", "-1,0", "--e", "2", "--m", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--charges: expected one argument" in captured.err


class TestSeriesCommand:
    def test_shape_and_fields(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "3", "--e", "2")
        assert code == 0
        doc = json.loads(out)
        assert [entry["core"] for entry in doc["series"]] == ["1", "2,1"]
        entry = doc["series"][0]
        assert set(entry) == {"n", "e", "a", "core", "members", "quotients", "charges"}
        assert entry["members"] == ["1,1,1", "3"]
        assert entry["quotients"] == ["1;", ";1"]
        assert entry["charges"] == [1, 2]

    def test_members_and_quotients_align(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "5", "--e", "3")
        assert code == 0
        doc = json.loads(out)
        total = sum(len(entry["members"]) for entry in doc["series"])
        assert total == 7  # partitions of 5
        for entry in doc["series"]:
            assert len(entry["members"]) == len(entry["quotients"])
            assert len(entry["charges"]) == 3


    @pytest.mark.parametrize("n, e", [(0, 2), (3, 0)])
    def test_bad_sizes(self, capsys, n, e):
        code, out, err = run(capsys, "series", "--n", str(n), "--e", str(e))
        assert (code, out, err) == (2, "", "error: n and e must be >= 1\n")


class TestBlocksCommand:
    def test_basic_shape(self, capsys):
        code, out, _ = run(capsys, "blocks", "--n", "2", "--e", "1", "--m", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["variant"] == "gl"
        assert doc["series"] == [{"core": "", "a": 2, "blocks": [["1,1", "2"]]}]

    def test_gu_variant_matches_gl_partition(self, capsys):
        code, out, _ = run(capsys, "blocks", "--n", "4", "--e", "2", "--m", "3")
        assert code == 0
        gl_doc = json.loads(out)
        code, out, _ = run(
            capsys, "blocks", "--n", "4", "--e", "2", "--m", "3", "--variant", "gu"
        )
        assert code == 0
        gu_doc = json.loads(out)
        assert gl_doc["series"] == gu_doc["series"]

    def test_omega_one_is_input_error(self, capsys):
        code, _, err = run(capsys, "blocks", "--n", "2", "--e", "2", "--m", "2")
        assert code == 2
        assert err == "error: level 2 blocks are undefined at level e=2\n"
        # GU refuses where GL does, m | e, m = 1 included, and says GU
        # whatever series comes first: at n = 1 it is the singleton (1) at
        # a = 0, which needs no key
        for n, e, m in ((6, 3, 3), (2, 2, 1), (6, 4, 2), (1, 2, 2)):
            code, out, err = run(
                capsys, "blocks", "--n", str(n), "--e", str(e), "--m", str(m),
                "--variant", "gu",
            )
            assert (code, out) == (2, "")
            assert err == f"error: level {m} GU blocks are undefined at level e={e}\n"

    def test_unknown_core(self, capsys):
        code, _, _ = run(
            capsys, "blocks", "--n", "2", "--e", "2", "--m", "3", "--core", "3,1"
        )
        assert code == 2


class TestVerify:
    def test_thm2_tiny(self, capsys):
        code, out, _ = run(capsys, "verify", "thm2", "--max-n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["cases_checked"] == 45  # 45 coprime pairs, one partition

    def test_thm1_single_pair_counts_partitions(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm1", "--max-n", "12", "--e", "2", "--m", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["cases_checked"] == sum(PARTITION_COUNTS[1:13])

    def test_thm1_cases_print_the_report(self):
        # each case is one block_match_report tuple, its partitions rendered
        cases = []
        run_suite("thm1", cases.append, max_n=6)
        assert all(
            set(case) == {
                "n", "e", "m", "coreE", "coreM", "members",
                "blockE_sizes", "blockM_sizes", "pass",
            }
            for case in cases
        )
        assert cases == [
            {
                "n": n, "e": e, "m": m,
                "coreE": str(core_e), "coreM": str(core_m),
                "members": [str(p) for p in members],
                "blockE_sizes": sizes_e, "blockM_sizes": sizes_m, "pass": ok,
            }
            for n in range(1, 7)
            for e, m in suites._coprime_pairs(None, None)
            for core_e, core_m, members, sizes_e, sizes_m, ok in blocks.block_match_report(n, e, m)
        ]

    def test_options_are_the_suite_flags(self):
        # one declaration: the verify options are the SUITES flags, in order
        verify = next(
            action for action in cli.build_parser()._actions if action.dest == "command"
        ).choices["verify"]
        options = [o for action in verify._actions for o in action.option_strings]
        flags = ["--" + flag.replace("_", "-") for flag in cli.VERIFY_FLAGS]
        assert options == ["-h", "--help", *flags, "--stream"]
        assert cli.VERIFY_FLAGS == ("max_n", "e", "m", "seed", "trials")

    def test_rejects_non_coprime_pair(self, capsys):
        code, _, err = run(
            capsys, "verify", "thm1", "--max-n", "2", "--e", "2", "--m", "2"
        )
        assert code == 2
        assert "coprime" in err

    @pytest.mark.parametrize("suite", ["thm1", "thm2"])
    def test_rejects_equal_levels(self, capsys, suite):
        # (1, 1) is coprime but compares level 1 with itself, which would
        # pass whatever the code does
        code, out, err = run(
            capsys, "verify", suite, "--max-n", "4", "--e", "1", "--m", "1", "--stream"
        )
        assert code == 2
        assert out == ""
        assert "compare a level with itself" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("thm1", "--max-n", "-3"),
            ("thm1", "--max-n", "0"),
            ("roundtrip", "--trials", "-5"),
        ],
    )
    def test_refuses_to_pass_vacuously(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--stream")
        assert code == 2
        assert out == ""
        assert "no cases to check" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("cuspidal", "--e", "3"), "--e"),
            (("roundtrip", "--max-n", "5"), "--max-n"),
            (("thm1", "--seed", "4"), "--seed"),
            (("thm2", "--trials", "9"), "--trials"),
        ],
    )
    def test_rejects_flags_the_suite_does_not_read(self, capsys, argv, flag):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert f"does not take {flag}" in err

    @pytest.mark.parametrize(
        "suite, flag",
        [
            (suite, flag)
            for suite, (_, reads) in suites.SUITES.items()
            for flag in cli.VERIFY_FLAGS
            if flag not in reads
        ],
    )
    def test_refuses_an_unread_flag_before_its_bound(self, capsys, suite, flag):
        # a value above every bound: the unread flag, not its size, is the error
        bounds = [
            bound
            for _, reads in suites.SUITES.values()
            for _, bound in reads.values()
            if bound is not None
        ]
        over = max(bounds) + 1
        option = "--" + flag.replace("_", "-")
        code, out, err = run(capsys, "verify", suite, option, str(over))
        assert code == 2
        assert out == ""
        assert f"does not take {option}" in err

    def test_an_unread_flag_is_refused_before_a_bound_is_applied(self, capsys):
        # one pass over the given flags, in the parser's order: --max-n,
        # which roundtrip does not read, comes before --trials
        argv = ("verify", "roundtrip", "--max-n", "5", "--trials", "999999")
        assert run(capsys, *argv) == (
            2, "", "error: verify roundtrip does not take --max-n\n"
        )

    def test_thm2_reports_a_planted_failure(self, capsys, monkeypatch):
        # negative control: one broken (partition, e, m) case must surface
        # as exactly one failure and a nonzero exit.  The suite compares
        # routes from charge-0 (charge, split) facts; a split at level 2
        # determines its partition, so it picks out (2, 1).
        real = suites._routes_agree
        target = (0, partitions.regroup(_abaci((Partition((2, 1)),), (0,)), 2))

        def broken(e, m, split_e, split_m):
            if (e, m, split_e) == (2, 3, target):
                return False
            return real(e, m, split_e, split_m)

        monkeypatch.setattr(suites, "_routes_agree", broken)
        _, cases, failures = run_suite("thm2", max_n=3)
        assert cases == 45 * 6  # partitions of 1..3
        assert failures == [
            {"n": 3, "e": 2, "m": 3, "partition": "2,1", "pass": False}
        ]
        code, out, _ = run(capsys, "verify", "thm2", "--max-n", "3")
        assert code == 1
        assert json.loads(out)["failures"] == failures

    def test_thm2_corrupt_split_fails_the_pairs_of_its_level(self, monkeypatch):
        # negative control: (2, 1) is given the level-3 charge-0 split of
        # (3,).  Both routes are bijections, so every pair with level 3
        # fails for (2, 1), and only those: a split is a fact of one
        # partition at one level, not of a pair, a size or another partition
        real = suites.regroup
        target = _abaci((Partition((2, 1)),), (0,))
        wrong = _abaci((Partition((3,)),), (0,))

        def corrupt(abaci, level):
            return real(wrong if (abaci, level) == (target, 3) else abaci, level)

        monkeypatch.setattr(suites, "regroup", corrupt)
        _, cases, failures = run_suite("thm2", max_n=3)
        assert cases == 45 * 6
        level_3_pairs = [pair for pair in suites._coprime_pairs(None, None) if 3 in pair]
        assert len(level_3_pairs) == 8  # m = 3 with e = 1, 2; e = 3 with 6 m
        assert failures == [
            {"n": 3, "e": e, "m": m, "partition": "2,1", "pass": False}
            for e, m in level_3_pairs
        ]

    def test_thm2_fails_with_splits_labelled_charge_1(self, capsys, monkeypatch):
        # negative control for the charge-0 route: the suite's e-side split,
        # made at charge 0, is labelled charge 1, so _routes_agree corrects
        # it by _shift_pairs(abaci, m, 1) and every case of every pair fails;
        # unpatched, every case passes
        real = suites._routes_agree

        def mislabelled(e, m, split_e, split_m):
            assert split_e[0] == split_m[0] == 0
            return real(e, m, (1, split_e[1]), split_m)

        monkeypatch.setattr(suites, "_routes_agree", mislabelled)
        _, cases, failures = run_suite("thm2", max_n=4)
        assert (cases, len(failures)) == (45 * 11, 495)  # partitions of 1..4
        code, _, _ = run(capsys, "verify", "thm2", "--max-n", "4")
        assert code == 1
        monkeypatch.undo()
        assert run_suite("thm2", max_n=4)[1:] == (495, [])
        code, _, _ = run(capsys, "verify", "thm2", "--max-n", "4")
        assert code == 0

    @pytest.mark.parametrize(
        "name, first_arg, wrong",
        [
            ("phi_multiplicity", generic_degree, lambda value: value + 1),
            ("is_e_core", lambda p: p, operator.not_),
        ],
        ids=["phi_multiplicity", "is_e_core"],
    )
    def test_cuspidal_reports_a_planted_failure(
        self, capsys, monkeypatch, name, first_arg, wrong
    ):
        # negative control: one (partition, e) gone wrong must surface as
        # exactly one failure.  The patch sits on the name the suite calls,
        # so every call the suite makes meets it.
        real = getattr(suites, name)
        target = (first_arg(Partition((2, 1))), 3)

        def broken(x, e):
            value = real(x, e)
            return wrong(value) if (x, e) == target else value

        with monkeypatch.context() as patch:
            patch.setattr(suites, name, broken)
            _, cases, failures = run_suite("cuspidal", max_n=4)
            assert cases == 12 * 10  # partitions of 0..4, e = 1..10
            assert failures == [{"partition": "2,1", "e": 3, "pass": False}]
            code, out, _ = run(capsys, "verify", "cuspidal", "--max-n", "4")
            assert code == 1
            assert json.loads(out)["failures"] == failures
        assert getattr(suites, name) is real
        assert run_suite("cuspidal", max_n=4)[2] == []

    def test_content_prop_reports_a_planted_failure(self, capsys, monkeypatch):
        # negative control: (2, 1) is given the 2-core (1) instead of itself,
        # so every pair with it at m = 2 shares an m-core but not a key.  As
        # a 2-core it is alone in its e-core class at e = 2, where the wrong
        # value would be read as its e-core.
        with monkeypatch.context() as patch:
            patch.setattr(suites, "e_core", _wrong_two_core)
            _, cases, failures = run_suite("content-prop", max_n=4)
            assert cases == 162
            assert [(f["e"], f["m"], f["p"], f["r"]) for f in failures] == [
                (1, 2, "1,1,1", "2,1"),
                (1, 2, "2,1", "3"),
                (3, 2, "1,1,1", "2,1"),
                (3, 2, "2,1", "3"),
            ]
            assert all(
                f["n"] == 3 and "core comparison True but key comparison False"
                in f["error"]
                for f in failures
            )
            code, out, _ = run(capsys, "verify", "content-prop", "--max-n", "4")
            assert code == 1
            assert json.loads(out)["failures"] == failures
        assert run_suite("content-prop", max_n=4)[2] == []

    def test_content_prop_corrupt_key_fails_the_pairs_of_its_member(
        self, monkeypatch
    ):
        # negative control: (2, 2)'s image gets a block number of its own at
        # (e, m) = (2, 1) alone, in a copy of the memoised one-block table.
        # At m = 1 every member of a class shares its m-core and its key, so
        # exactly the pairs with (2, 2) in its class at n = 4 must fail: a
        # key is a fact of one member at one (e, m), not of a pair or a size
        real = suites._side_blocks
        target = hc_series.CuspidalPairGL(4, 2, 2, P(()))
        image = partitions.e_quotient_charged(P((2, 2)), 2).components

        def wrong(pair, m):
            sizes, numbers, gu_ok = real(pair, m)
            if (pair, m) == (target, 1):
                numbers = {**numbers, image: -1}
            return sizes, numbers, gu_ok

        monkeypatch.setattr(suites, "_side_blocks", wrong)
        _, cases, failures = run_suite("content-prop", max_n=5)
        assert cases == 413
        # the 2-core class of (2, 2) at n = 4: 1,1,1,1  2,1,1  2,2  3,1  4
        pairs = [("1,1,1,1", "2,2"), ("2,1,1", "2,2"), ("2,2", "3,1"), ("2,2", "4")]
        assert [(f["n"], f["e"], f["m"], f["p"], f["r"]) for f in failures] == [
            (4, 2, 1, p, r) for p, r in pairs
        ]
        assert all(
            "core comparison True but key comparison False" in f["error"]
            for f in failures
        )

    def test_content_lemma_reports_a_planted_failure(self, capsys, monkeypatch):
        # negative control: (2, 1) is given the 2-core (1) instead of itself,
        # so the second identity fails for it at e = 2 and every charge
        with monkeypatch.context() as patch:
            patch.setattr(blocks, "e_core", _wrong_two_core)
            _, cases, failures = run_suite("content-lemma", max_n=3)
            assert cases == 7 * 9 * 5  # partitions of 0..3, s = -4..4, e = 1..5
            assert failures == [
                {"partition": "2,1", "s": s, "e": 2, "window": 10 + abs(s), "pass": False}
                for s in range(-4, 5)
            ]
            code, out, _ = run(capsys, "verify", "content-lemma", "--max-n", "3")
            assert code == 1
            assert json.loads(out)["failures"] == failures
        assert run_suite("content-lemma", max_n=3)[2] == []

    @pytest.mark.parametrize(
        "name, breaks, labels",
        [
            ("from_beta", _beta_charge_mutant, {"beta round trip": 180}),
            (
                "uglov",
                _split_mutant,
                {"charged split round trip": 176, "level-rank round trip": 80},
            ),
            (
                "uglov",
                _charge_mutant,
                {"charge conservation": 113, "level-rank round trip": 113},
            ),
            ("qr_em", _index_mutant, {"index bijection": 102}),
        ],
        ids=["from_beta", "split", "charge", "index"],
    )
    def test_roundtrip_reports_a_planted_failure(
        self, capsys, monkeypatch, name, breaks, labels
    ):
        # negative control: between them the mutants make every problem
        # label appear, each in a pinned number of the 200 trials at seed 7
        with monkeypatch.context() as patch:
            patch.setattr(suites, name, breaks(getattr(suites, name)))
            _, cases, failures = run_suite("roundtrip", trials=200, seed=7)
            assert cases == 200
            found = Counter(label for f in failures for label in f["problems"])
            assert found == labels
            code, out, _ = run(
                capsys, "verify", "roundtrip", "--trials", "200", "--seed", "7"
            )
            assert code == 1
            assert json.loads(out)["failures"] == failures
        assert run_suite("roundtrip", trials=200, seed=7)[2] == []

    def test_roundtrip_deterministic(self, capsys):
        args = ("verify", "roundtrip", "--trials", "200", "--seed", "7")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["cases_checked"] == 200
        assert doc["parameters"]["seed"] == 7

    def test_roundtrip_seed_changes_nothing_but_is_recorded(self, capsys):
        code, out, _ = run(capsys, "verify", "roundtrip", "--trials", "50", "--seed", "99")
        assert code == 0
        assert json.loads(out)["parameters"] == {
            "suite": "roundtrip",
            "seed": 99,
            "trials": 50,
        }

    def test_stream_emits_case_lines_then_summary(self, capsys):
        code, out, _ = run(
            capsys, "verify", "roundtrip", "--trials", "5", "--stream"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        for line in lines[:-1]:
            case = json.loads(line)
            assert case["pass"] is True
        summary = json.loads(lines[-1])
        assert summary["cases_checked"] == 5

    def test_content_lemma_small(self, capsys):
        code, out, _ = run(capsys, "verify", "content-lemma", "--max-n", "3")
        assert code == 0
        doc = json.loads(out)
        # sizes 0..3 give 1+1+2+3 partitions, times 9 charges and 5 levels
        assert doc["cases_checked"] == 7 * 45

    def test_degmod_reports_failures_honestly(self, capsys):
        # the constant-remainder property fails beyond toral series; the
        # suite must say so and exit nonzero
        code, out, _ = run(capsys, "verify", "degmod", "--max-n", "5")
        assert code == 1
        doc = json.loads(out)
        assert doc["pass"] is False
        failing = {(f["partition"], f["e"]) for f in doc["failures"]}
        assert ("2,1", 2) in failing
        assert ("4,1", 3) in failing

    def test_degmod_fails_on_wrong_hook_data(self, monkeypatch):
        # negative control: wreath_degree reads the degree off p's
        # hooks, so one extra hook of length 1 must fail every e = 1 case,
        # all of which pass unpatched, and leave the e > 1 verdicts alone
        _, cases, failures = run_suite("degmod", max_n=7)
        assert (cases, len(failures)) == (240, 85)
        assert all(f["e"] > 1 for f in failures)
        real = hc_series.hook_lengths
        with monkeypatch.context() as patch:
            patch.setattr(hc_series, "hook_lengths", lambda p: real(p) + (1,))
            _, cases, mutant = run_suite("degmod", max_n=7)
        # 85 plus one e = 1 case for each of the 44 partitions of 1..7
        assert (cases, len(mutant)) == (240, 129)
        assert [f for f in mutant if f["e"] > 1] == failures

    def test_cuspidal_small(self, capsys):
        code, out, _ = run(capsys, "verify", "cuspidal", "--max-n", "6")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_content_prop_small(self, capsys):
        code, out, _ = run(capsys, "verify", "content-prop", "--max-n", "6")
        assert code == 0
        assert json.loads(out)["pass"] is True


def _content_prop_oracle_cases(max_n):
    """The content-prop cases built pair by pair with the per-call oracle,
    in the suite's order: n, then e, then m, then each e-core class in
    first-member order, then each pair of its sorted members."""
    for n in range(1, max_n + 1):
        for e in range(1, 7):
            classes = {}
            for p in partitions_of(n):
                classes.setdefault(partitions.e_core(p, e), []).append(p)
            for m in range(1, 7):
                if gcd(e, m) != 1:
                    continue
                for members in classes.values():
                    members = sorted(members)
                    for i, p in enumerate(members):
                        for r in members[i + 1:]:
                            case = {"n": n, "e": e, "m": m, "p": str(p), "r": str(r)}
                            try:
                                case["same"] = check_core_key_equivalence(p, r, e, m)
                                case["pass"] = True
                            except EquivalenceViolation as exc:
                                case["pass"] = False
                                case["error"] = str(exc)
                            yield case


class TestPerMemberFacts:
    """The suites compute each per-member fact once per member; every case
    must equal the one the per-call oracles compute for it alone."""

    @pytest.mark.parametrize(
        "levels, mutant, expected",
        [
            ({}, None, (True, 0, 0)),
            ({"e": 5, "m": 2}, None, (True, 0, 0)),
            ({"e": 3, "m": 4}, None, (True, 0, 0)),
            ({}, "lowered_zero", (False, 3320, 0)),
        ],
        ids=["real", "e5-m2", "e3-m4", "lowered_zero"],
    )
    def test_thm2_cases_match_the_per_call_oracle(self, monkeypatch, levels, mutant, expected):
        # with one pair given, the suite must split at its two levels alone;
        # the oracle splits at the series charges, the suite at charge 0.
        # The lowered-zero kernel lowers target component 0 of every
        # correction one step too far: the suite corrects through it and the
        # oracle by affine_perm_oracle on bead windows, so only the suite
        # sees it.  expected: (suite cases equal the oracle's, suite
        # failures, oracle failures)
        real = suites.regroup
        split_at = set()

        def spy(abaci, level):
            split_at.add(level)
            return real(abaci, level)

        monkeypatch.setattr(suites, "regroup", spy)
        if mutant == "lowered_zero":
            real_shift = levelrank._shift_pairs

            def lowered_zero(abaci, m, s):
                (floor, tail), *rest = real_shift(abaci, m, s)
                return ((floor - 1, tuple(x - 1 for x in tail)), *rest)

            monkeypatch.setattr(levelrank, "_shift_pairs", lowered_zero)
        cases = []
        run_suite("thm2", cases.append, max_n=9, **levels)
        pairs = suites._coprime_pairs(levels.get("e"), levels.get("m"))
        oracle = [
            {
                "n": n,
                "e": e,
                "m": m,
                "partition": str(p),
                "pass": check_core_matched_diagram(p, e, m),
            }
            for n in range(1, 10)
            for e, m in pairs
            for p in partitions_of(n)
        ]
        assert (
            cases == oracle,
            sum(not case["pass"] for case in cases),
            sum(not case["pass"] for case in oracle),
        ) == expected
        assert split_at == {level for pair in pairs for level in pair}

    @pytest.mark.parametrize(
        "mutant, expected",
        [(None, (True, 0, 0)), ("e_core", (True, 4, 4)), ("alpha_blind", (False, 769, 0))],
        ids=["real", "mutant", "alpha_blind"],
    )
    def test_content_prop_cases_match_the_per_call_oracle(
        self, monkeypatch, mutant, expected
    ):
        # the e_core mutant makes the suite and the oracle raise, so the error
        # text is compared as well as same and pass.  The alpha-blind kernel
        # reads every alpha_j as 0: the suite keys members through it and the
        # oracle through residue_key_oracle, so only the suite sees it.
        # expected: (suite cases equal the oracle's, suite errors, oracle errors)
        if mutant == "e_core":
            for module in (blocks, suites):
                monkeypatch.setattr(module, "e_core", _wrong_two_core)
        if mutant == "alpha_blind":
            real = blocks._root_counts
            monkeypatch.setattr(
                blocks, "_root_counts",
                lambda mp, d, omega, alphas: real(mp, d, omega, (0,) * len(alphas)),
            )
        cases = []
        run_suite("content-prop", cases.append, max_n=8)
        oracle = list(_content_prop_oracle_cases(8))
        assert (
            cases == oracle,
            sum("error" in case for case in cases),
            sum("error" in case for case in oracle),
        ) == expected

    @staticmethod
    def regroup_calls(monkeypatch, suite, **given):
        """(cases, regroup calls, series quotients cached) of one run of the
        suite.  e_core and the series quotients it reads are cached and made
        with regroup, so the run starts from none cached and leaves none made
        under the spy."""
        real = partitions.regroup
        calls = 0
        cases = []

        def spy(abaci, m):
            nonlocal calls
            calls += 1
            return real(abaci, m)

        caches = (partitions.e_core, partitions.e_quotient_charged)
        for cached in caches:
            cached.cache_clear()
        try:
            for module in (partitions, levelrank, suites):
                monkeypatch.setattr(module, "regroup", spy)
            run_suite(suite, cases.append, **given)
            filled = partitions.e_quotient_charged.cache_info().currsize
        finally:
            for cached in caches:
                cached.cache_clear()
        return cases, calls, filled

    def test_thm2_splits_each_partition_once_per_level(self, monkeypatch):
        # regroup runs once per case (the one multi-component map) and once
        # per (partition, level) split at charge 0: no series charge and no
        # e_core is made
        cases, calls, _ = self.regroup_calls(monkeypatch, "thm2", max_n=8)
        members = sum(PARTITION_COUNTS[1:9])  # 66 partitions, levels 1..12
        assert len(cases) == 45 * members
        assert calls == len(cases) + 12 * members == 3762

    def test_degmod_makes_no_bead_map(self, monkeypatch):
        # wreath_degree reads the degree off p's hooks: from cold caches
        # degmod makes no regroup call and caches no series quotient
        cases, calls, filled = self.regroup_calls(monkeypatch, "degmod", max_n=8)
        assert len(cases) == sum(n * PARTITION_COUNTS[n] for n in range(1, 9))
        assert (calls, filled) == (0, 0)

    def test_content_prop_reads_one_side_table_per_class_and_level(self, monkeypatch):
        # one _side_blocks per (n, e, e-core class of two or more members, m);
        # each member's image is then looked up, never keyed again
        real = suites._side_blocks
        calls = 0

        def spy(pair, m):
            nonlocal calls
            calls += 1
            return real(pair, m)

        monkeypatch.setattr(suites, "_side_blocks", spy)
        _, cases, _ = run_suite("content-prop", max_n=8)
        assert (cases, calls) == (5045, 186)


# (argv, exit code, sha256 of stdout).  Each digest was recorded before a
# change that had to keep stdout byte-identical; CHANGES.md names the change.
# The first rows run every verify suite at its defaults; degmod exits 1
# because criterion 6 fails.  thm1 --max-n 14 is the blocks-sweep benchmark's
# reference and degmod --max-n 12 degmod's size in the degree-sweep one.
OUTPUT_DIGESTS = [
    (("verify", "thm1", "--stream"), 0,
     "308717137dc7f17b6251f56fb00c4dd5abcef71571044ba3e3ce0dcbec935fe3"),
    (("verify", "thm2", "--stream"), 0,
     "0d03ffb1a8b283df237b689a79463e54be74e85501f64ef2da4ec39fa7565ea5"),
    (("verify", "content-lemma", "--stream"), 0,
     "5c06e966675862f117234e8fdd88568b6cde5909cba00142ed0a12a299ef64ec"),
    (("verify", "content-prop", "--stream"), 0,
     "24642c044d87db8910925a2f2904264273791b389b64cf9458e8ec8fb47ddb85"),
    (("verify", "cuspidal", "--stream"), 0,
     "37053a7ce70a0b102c1a9abd27c569cedb4bac6b5f1e8dc034bc861de12f9e84"),
    (("verify", "degmod", "--stream"), 1,
     "e3539847c99ee15ac54e7ee906e640e8f3eba43bb211223e716ba8968db7e4c5"),
    (("verify", "roundtrip", "--stream"), 0,
     "4729bb7bc4af100392aa178596874ef848d6c9f157c71f710df99ef04c419955"),
    (("verify", "thm1", "--max-n", "8", "--stream"), 0,
     "1655698859fb61c6c48827fdf2eee11540bca85c7dc95f10241971d85a1cfd05"),
    (("verify", "thm1", "--max-n", "14", "--stream"), 0,
     "456004112cbca466909bae159019dec1b5b37e183d63d10b14c7d7780a466c82"),
    (("verify", "thm1", "--max-n", "16", "--stream"), 0,
     "a12f6499b161aee4fb8230fd0389def36c1bcc8a4f2421aec987131f3641afb1"),
    (("verify", "thm2", "--max-n", "8", "--stream"), 0,
     "9761216fd4a8b79b2d56d9683e0ef7a5afe3570d48194aeb6b2f78c9caf37ce5"),
    (("verify", "thm2", "--max-n", "16", "--stream"), 0,
     "41135825308f340a39e61def70c934e64e27fef2e050bd3cefc0cad4340c788c"),
    (("verify", "content-lemma", "--max-n", "6", "--stream"), 0,
     "52aa09de272a8cb69e05971260ca474cc9d7dac4430933ce66abc4b7645c9d92"),
    (("verify", "content-lemma", "--max-n", "9", "--stream"), 0,
     "bbd01205dd4033d3e05f5c969b49c30506b2e0cedabbc802138879df4c0f1c6e"),
    (("verify", "content-lemma", "--max-n", "16", "--stream"), 0,
     "6a92c2d16fda4fec9747ae401917ebd39f95f912195e08cb712ab95483967330"),
    (("verify", "content-prop", "--max-n", "7", "--stream"), 0,
     "8c0965ed85808c11a3d9653f6e9c6381bd881137a8d0eda338ca507f73646762"),
    (("verify", "content-prop", "--max-n", "16", "--stream"), 0,
     "991fb6a0102defc7d7568cd255b2ee1aab11f52f25ec6ce7ad14a0119ba4ba8c"),
    (("verify", "cuspidal", "--max-n", "8", "--stream"), 0,
     "a0a556963420c91ba0ac722f4b04b1edb6224eeea5fb6afb8c3c4f5ca8daec22"),
    (("verify", "cuspidal", "--max-n", "16", "--stream"), 0,
     "92d682d3f4db01201352154459b8a414c538ec3d4202648c0566f9f5efe21a30"),
    (("verify", "degmod", "--max-n", "7", "--stream"), 1,
     "cba3ecd78eabd61b8c4e8922923fcb8f64d10257e1938b7b0c6fbe2e31810a93"),
    (("verify", "degmod", "--max-n", "12", "--stream"), 1,
     "fcfecd833d4511ba73ffac9a969b15aaf6461ffca8d4c3de7f4434dfd253bd7b"),
    (("verify", "degmod", "--max-n", "16", "--stream"), 1,
     "83a9d4fc73c1d71b35cebb2da0836b653b217a02df689d800551f253c7a705dc"),
    (("verify", "roundtrip", "--trials", "200", "--seed", "7", "--stream"), 0,
     "3df37c5080a3fa717895737ca2de03bc041f8dc0fc2cd7c903c077561aee57ac"),
    # the series map's charges and quotient as core prints them: a level-5
    # shift, a series charge far above e = 2, and parts at the input bound
    (("core", "--partition", "9,7,7,4,2,2,1", "--e", "5"), 0,
     "a6fc013ad53e961353a2dd6cea8cdc73b7529fc23814ef4b3c13d4e3a3bd00bb"),
    (("core", "--partition", "5,5,5,5,5,4,4,3,3,2,1,1,1", "--e", "2"), 0,
     "424fec1f66c158930c1f42efa552f4730d4148122fb7acb77ae744cfc5166232"),
    (("core", "--partition", "600,300,99", "--e", "1000"), 0,
     "e5ad70f0d3f32835cb7774f0d6d139de21551f433ec0096294bc8c75d2b7aed5"),
    (("series", "--n", "14", "--e", "3"), 0,
     "4278bf63b027989b810d173ef924e5bfa48e9e7f4c7c1e20b3733963102c9349"),
    (("series", "--n", "16", "--e", "10"), 0,
     "9a2ceafb9ddf97169982314d19ac653ebf0f7f9acc28ddbd72ecbd6988c7b79e"),
    (("series", "--n", "18", "--e", "4"), 0,
     "2b36b739158949a4690cde90e3413cdc2f32e1e7db1e9b2419f9163118d04b84"),
    (("blocks", "--n", "8", "--e", "2", "--m", "3", "--variant", "gu"), 0,
     "f02c66198e073c934e3f62fc165ede0f8b8de309f7d1773cb83de3961a9fd689"),
    (("blocks", "--n", "9", "--e", "2", "--m", "3", "--core", "2,1", "--variant", "gu"), 0,
     "fa1dd7031a6c398c0a3ceaaea1f6c07394ebd97d1151a1ca3d040a2769be85f3"),
    (("blocks", "--n", "10", "--e", "3", "--m", "2", "--core", "1"), 0,
     "4adc4e6e49f2c27f41a319a16ab23e68d030131e3164e0ae66f5669230a455c6"),
    (("blocks", "--n", "10", "--e", "3", "--m", "4"), 0,
     "8715e76f1e8e512bdd54015b7dc1f05f7a86b44efa1e254959091724355bab94"),
    (("blocks", "--n", "16", "--e", "3", "--m", "4"), 0,
     "467e08f2d93af0bbdef2f49cc0a6db4b86de9b0bfc851dd640346a62dde9660b"),
    (("blocks", "--n", "16", "--e", "2", "--m", "5", "--variant", "gu"), 0,
     "00c04c79e90621e8c324a7f49d6cf32cf15296353de72c3639efb5fa10018698"),
    # the README's uglov examples
    (("uglov", "--mp", ";", "--charges", "1,0", "--e", "2", "--m", "3"), 0,
     "1198ef758c85ac607c3b316a96b2c2531e6549228be6d1dcc0521a89abcd2ea1"),
    (("uglov", "--mp", ";", "--charges=-1,0", "--e", "2", "--m", "3"), 0,
     "b6a62253f5e04f877b915a5e52e94f86791840aeaa99698e10a5ee2aa43ba8b3"),
]


class TestOutputBytes:
    @pytest.mark.parametrize(
        "argv, exit_code, digest",
        OUTPUT_DIGESTS,
        ids=[" ".join(argv) for argv, _, _ in OUTPUT_DIGESTS],
    )
    def test_stdout_digest(self, capsys, argv, exit_code, digest):
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_every_suite_has_a_default_row(self):
        defaults = [argv[1] for argv, _, _ in OUTPUT_DIGESTS if argv[2:] == ("--stream",)]
        assert defaults == list(suites.SUITES)


def _child_command(*argv):
    """`python -m abacore argv` and an environment in which the child imports
    the same abacore as this process, installed or not."""
    src = Path(abacore.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    return [sys.executable, "-m", "abacore", *argv], env


class TestSubprocessDeterminism:
    def test_byte_identical_runs(self):
        cmd, env = _child_command("verify", "cuspidal", "--max-n", "4")
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")
        assert b"\r" not in first.stdout

    def test_cases_do_not_depend_on_the_hash_seed(self):
        # every SUITES row at a small size, in one child per PYTHONHASHSEED:
        # no set or hash order may reach a case, in any suite added later too
        script = (
            "import json\n"
            "from abacore.suites import SUITES, run_suite\n"
            "for suite, (_, flags) in SUITES.items():\n"
            "    small = {'max_n': 6 if suite == 'content-lemma' else 8, 'trials': 500}\n"
            "    given = {flag: v for flag, v in small.items() if flag in flags}\n"
            "    emit = lambda case: print(json.dumps(case, sort_keys=True))\n"
            "    _, cases, failures = run_suite(suite, emit, **given)\n"
            "    print(json.dumps([suite, cases, len(failures)]))\n"
        )
        outputs = []
        for seed in ("1", "977"):
            _, env = _child_command()
            env["PYTHONHASHSEED"] = seed
            child = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, env=env
            )
            assert child.returncode == 0 and child.stderr == b"", child.stderr
            outputs.append(child.stdout)
        assert outputs[0] == outputs[1]
        summaries = [
            json.loads(line) for line in outputs[0].splitlines() if line.startswith(b"[")
        ]
        assert [suite for suite, _, _ in summaries] == list(suites.SUITES)
        assert all(cases > 0 for _, cases, _ in summaries)

    def test_unbuffered_stdout_writes_the_same_bytes(self):
        # PYTHONUNBUFFERED makes stdout write through: each write is a syscall
        cmd, env = _child_command("verify", "thm2", "--max-n", "8", "--stream")
        env.pop("PYTHONUNBUFFERED", None)
        buffered = subprocess.run(cmd, capture_output=True, env=env)
        unbuffered = subprocess.run(
            cmd, capture_output=True, env={**env, "PYTHONUNBUFFERED": "1"}
        )
        assert buffered.returncode == unbuffered.returncode == 0
        assert buffered.stderr == unbuffered.stderr == b""
        assert buffered.stdout == unbuffered.stdout
        # every pair of levels for every partition of 1..8, then the summary
        assert buffered.stdout.count(b"\n") == 45 * 66 + 1

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize(
        "argv, read",
        [
            # `| head -1`: far more than a pipe holds, so the child is writing
            (("thm2", "--max-n", "10"), 1),
            # `| true`: a few lines, which meet the closed pipe at the flush
            (("roundtrip", "--trials", "3"), 0),
        ],
    )
    def test_closed_stdout_exits_141_quietly(self, argv, read, unbuffered):
        cmd, env = _child_command("verify", *argv, "--stream")
        env["PYTHONUNBUFFERED"] = unbuffered
        child = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        lines = [json.loads(child.stdout.readline()) for _ in range(read)]
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        assert lines == [
            {"e": 1, "m": 2, "n": 1, "partition": "1", "pass": True}
        ][:read]
        assert child.returncode == 141
        assert err == b""


class TestStreamWriter:
    """Every stdout line of a command goes through one writer, which joins
    the lines of a block into one write and flushes on every exit path."""

    SMALL = {
        "thm1": {"max_n": 4},
        "thm2": {"max_n": 5},
        "content-lemma": {"max_n": 3},
        "content-prop": {"max_n": 5},
        "cuspidal": {"max_n": 4},
        "degmod": {"max_n": 5},
        "roundtrip": {"trials": 20},
    }

    @pytest.mark.parametrize("suite", SMALL)
    def test_reused_encoder_is_json_dumps(self, capsys, monkeypatch, suite):
        cases = []
        run_suite(suite, cases.append, **self.SMALL[suite])
        # each object the writer encodes, recorded as it goes by
        seen = []
        real = cli._iterencode
        monkeypatch.setattr(
            cli, "_iterencode", lambda obj, level: seen.append(obj) or real(obj, level)
        )
        argv = [f"--{k.replace('_', '-')}={v}" for k, v in self.SMALL[suite].items()]
        code, out, _ = run(capsys, "verify", suite, *argv, "--stream")
        assert code == (1 if suite == "degmod" else 0)
        assert seen[:-1] == cases
        assert seen[-1]["command"] == f"verify {suite}"
        expected = [json.dumps(obj, sort_keys=True) for obj in seen]
        assert out.splitlines() == expected
        # the pure-Python encoder used where the C accelerator is missing
        assert ["".join(cli._ENCODER.iterencode(obj, 0)) for obj in seen] == expected

    def test_each_block_is_one_write(self, monkeypatch):
        writes = []
        stdout = SimpleNamespace(write=writes.append, flush=lambda: None)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["verify", "thm2", "--max-n", "5", "--stream"]) == 0
        # 18 partitions of 1..5 at 45 pairs of levels, and the summary
        assert [chunk.count("\n") for chunk in writes] == [cli.BLOCK_LINES, 299]
        assert all(chunk.endswith("\n") for chunk in writes)

    @pytest.mark.parametrize("block_lines", [1, 2, 5, 6, 7])
    def test_block_size_does_not_change_the_bytes(
        self, capsys, monkeypatch, block_lines
    ):
        # roundtrip --trials 5 prints 6 lines: blocks that divide them or not
        argv = ("verify", "roundtrip", "--trials", "5", "--stream")
        _, expected, _ = run(capsys, *argv)
        monkeypatch.setattr(cli, "BLOCK_LINES", block_lines)
        assert run(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("error", [RuntimeError, ValueError])
    def test_lines_before_an_error_reach_stdout(self, capsys, monkeypatch, error):
        def three_then_fail(trials, seed):
            for trial in range(3):
                yield 1, {"trial": trial, "pass": True}
            raise error("planted")

        suite = (three_then_fail, {"trials": (9, None), "seed": (0, None)})
        monkeypatch.setitem(suites.SUITES, "roundtrip", suite)
        if error is ValueError:
            code, out, err = run(capsys, "verify", "roundtrip", "--stream")
            assert (code, err) == (2, "error: planted\n")
        else:
            with pytest.raises(RuntimeError, match="planted"):
                main(["verify", "roundtrip", "--stream"])
            out = capsys.readouterr().out
        assert out.splitlines() == [
            json.dumps({"pass": True, "trial": trial}) for trial in range(3)
        ]


class TestTextFormats:
    def test_partition_round_trip(self):
        for text in ("", "3,1,1", "5"):
            assert str(parse_partition(text)) == text

    def test_multipartition_round_trip(self):
        for text in (";1", "", ";;", "2,1;;3"):
            assert render_multipartition(parse_multipartition(text)) == text
        assert parse_multipartition(";1") == (P(()), P((1,)))

    def test_charges(self):
        assert parse_charges("1,0,-2") == (1, 0, -2)
        with pytest.raises(ValueError):
            parse_charges("")
        with pytest.raises(ValueError):
            parse_charges("1,x")

    def test_bad_partition_text(self):
        with pytest.raises(ValueError):
            parse_partition("1,3")
        with pytest.raises(ValueError):
            parse_partition("a,b")
        with pytest.raises(ValueError):
            parse_partition("3,0")


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_window_flag_is_gone(self, capsys):
        # content-lemma compares every exponent; its window is only reported
        with pytest.raises(SystemExit) as exc:
            main(["verify", "content-lemma", "--max-n", "2", "--window", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("core", "--partition", "1,,2", "--e", "2"), "bad partition text '1,,2'"),
            (("core", "--partition", "2,x", "--e", "2"), "bad partition text '2,x'"),
            (
                ("uglov", "--mp", "1", "--charges", "x", "--e", "1", "--m", "2"),
                "bad charge text 'x'",
            ),
            (
                ("uglov", "--mp", "1", "--charges=", "--e", "1", "--m", "2"),
                "empty charge list",
            ),
        ],
        ids=["empty-part", "non-integer-part", "non-integer-charge", "no-charges"],
    )
    def test_parse_errors(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "thm1", "--e", "3"), "give both --e and --m, or neither"),
            (("verify", "thm2", "--e", "0", "--m", "1"), "levels must be >= 1"),
            (
                ("uglov", "--mp", ";", "--charges=0,0", "--e", "0", "--m", "1"),
                "levels must be >= 1",
            ),
            (("blocks", "--n", "0", "--e", "1", "--m", "1"), "n, e, m must be >= 1"),
        ],
        ids=["thm1-one-level", "thm2-level-0", "uglov-level-0", "blocks-n-0"],
    )
    def test_refusals(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("series", "--n", "41", "--e", "2"),
            ("blocks", "--n", "41", "--e", "2", "--m", "3"),
            ("core", "--partition", "1", "--e", "3000000"),
            ("core", "--partition", "1001", "--e", "2"),
            ("uglov", "--mp", "1", "--charges", "0", "--e", "1", "--m", "3000000"),
            ("uglov", "--mp", "1", "--charges", "0", "--e", "3000000", "--m", "2"),
            ("uglov", "--mp", ";", "--charges", "0,3000000", "--e", "2", "--m", "1"),
            ("uglov", "--mp", ";", "--charges=-1001,0", "--e", "2", "--m", "1"),
            ("uglov", "--mp", "1001;", "--charges", "0,0", "--e", "2", "--m", "3"),
            ("verify", "content-prop", "--max-n", "17"),
            ("verify", "thm2", "--max-n", "1000000", "--e", "2", "--m", "3"),
            ("verify", "roundtrip", "--trials", "100001"),
            ("series", "--n", "3", "--e", "41"),
            ("blocks", "--n", "2", "--e", "1000", "--m", "3"),
            ("blocks", "--n", "2", "--e", "3", "--m", "41", "--variant", "gu"),
            ("verify", "thm1", "--e", "1000", "--m", "1001", "--max-n", "3"),
            ("verify", "thm2", "--e", "1000", "--m", "1001", "--max-n", "3"),
            ("verify", "thm1", "--e", "2", "--m", "41", "--max-n", "3"),
        ],
    )
    def test_size_guard(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        flag = argv[2] if argv[0] == "verify" else argv[0]
        # series and blocks bound --n and the levels alike at 40
        bound = {"series": 40, "blocks": 40, "--max-n": 16, "--trials": 100000, "--e": 40}
        assert f"at most {bound.get(flag, 1000)}" in err

    @pytest.mark.parametrize(
        "suite, flag, bound",
        [
            (suite, flag, bound)
            for suite, (_, reads) in suites.SUITES.items()
            for flag, (_, bound) in reads.items()
            if bound is not None
        ],
    )
    def test_every_row_bound(self, capsys, suite, flag, bound):
        assert bound == {"max_n": 16, "e": 40, "m": 40, "trials": 100_000}[flag]
        option = "--" + flag.replace("_", "-")
        code, out, err = run(capsys, "verify", suite, option, str(bound + 1))
        assert (code, out) == (2, "")
        assert err == f"error: {option} {bound + 1} is too large; at most {bound} is supported\n"

        # at the bound the suite starts: stop it at its first case
        class Started(Exception):
            pass

        def stop(case):
            raise Started

        given = {"e": 39, "m": 39} if flag in ("e", "m") else {}
        with pytest.raises(Started):
            run_suite(suite, stop, **{**given, flag: bound})

    def test_size_guard_admits_the_bound(self, capsys):
        code, out, _ = run(capsys, "core", "--partition", "1000", "--e", "1000")
        assert code == 0
        assert json.loads(out)["core"] == ""
        code, out, _ = run(
            capsys, "uglov", "--mp", "1000;", "--charges=-1000,1000",
            "--e", "2", "--m", "1000",
        )
        assert code == 0
        charges = json.loads(out)["charges"]
        assert (len(charges), sum(charges)) == (1000, 0)
        code, out, _ = run(
            capsys, "blocks", "--n", "3", "--e", "40", "--m", "39", "--variant", "gu"
        )
        assert code == 0
        assert [entry["a"] for entry in json.loads(out)["series"]] == [0, 0, 0]
        code, out, _ = run(capsys, "verify", "thm1", "--max-n", "3", "--e", "39", "--m", "40")
        assert code == 0
        assert json.loads(out)["pass"] is True
