import doctest
import re
import shlex
from pathlib import Path

import abacore.blocks
import abacore.cli
import abacore.hc_series
import abacore.levelrank
import abacore.partitions
import abacore.polynomials
import abacore.suites
from abacore.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_doctests():
    for module in (
        abacore.partitions,
        abacore.levelrank,
        abacore.polynomials,
        abacore.hc_series,
        abacore.blocks,
        abacore.cli,
        abacore.suites,
    ):
        failures, _ = doctest.testmod(module)
        assert failures == 0, f"doctest failures in {module.__name__}"


def _fenced(language):
    """Bodies of the README code blocks in the given language, without the
    fences, so that a closing fence is not read as expected output."""
    return [body for tag, body in FENCE.findall(README.read_text()) if tag == language]


def test_readme_examples():
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for i, body in enumerate(_fenced("python")):
        runner.run(parser.get_doctest(body, {}, f"README.md[{i}]", str(README), 0))
    failures, tried = runner.summarize(verbose=False)
    assert (failures, tried) == (0, 3)


def test_readme_cli_examples(capsys):
    # every `abacore ...` line followed by a `# {...}` line prints that JSON
    checked = 0
    for body in _fenced("sh"):
        lines = body.splitlines()
        for command, comment in zip(lines, lines[1:]):
            if command.startswith("abacore ") and comment.startswith("# {"):
                assert main(shlex.split(command, comments=True)[1:]) == 0
                assert capsys.readouterr().out == comment[2:] + "\n"
                checked += 1
    assert checked == 3
