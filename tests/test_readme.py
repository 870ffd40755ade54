"""The CLI transcript of README.md, replayed in-process.

The README's demo files (code blocks whose first line is ``# /tmp/<name>``)
are written to a temporary directory, and each ``$ coheyting ...`` example
is run through ``cli.main`` with its paths moved there.  It must exit 0
and print the lines that follow it up to the next ``$`` line, blank lines
between examples dropped.  The seconds of a ``verify`` line are
normalised, and an expected block that ends in ``...`` is a prefix.
"""

import re
import shlex
from pathlib import Path

import pytest

from coheyting import cli

README = Path(__file__).resolve().parent.parent / "README.md"
_SECONDS = re.compile(r"cases, \d+\.\d+s\)")


def transcript(text: str) -> tuple[dict[str, str], list[tuple[list[str], str]]]:
    """The demo files, path to body, and the examples, argv and output."""
    files: dict[str, str] = {}
    examples: list[tuple[list[str], list[str]]] = []
    for block in re.findall(r"```[a-z]*\n(.*?)```", text, re.S):
        head, _, body = block.partition("\n")
        if head.startswith("# /") and "$ " not in block:
            files[head[2:].strip()] = body
            continue
        for line in block.splitlines():
            if line.startswith("$ coheyting "):
                examples.append((shlex.split(line[len("$ coheyting "):]), []))
            elif examples and line.strip():
                examples[-1][1].append(line)
    return files, [(argv, "\n".join(out) + "\n") for argv, out in examples]


FILES, EXAMPLES = transcript(README.read_text())


def test_transcript_is_read_whole():
    assert sorted(FILES) == ["/tmp/demo.model", "/tmp/demo.poset"]
    assert len(EXAMPLES) == 14
    assert sum(expected.endswith("...\n") for _, expected in EXAMPLES) == 1


def _name(argv: list[str]) -> str:
    """The command words of an example, its arguments left out."""
    return " ".join(a for a in argv[:2] if a.replace("-", "").isalnum())


@pytest.mark.parametrize(
    "argv, expected", EXAMPLES, ids=[_name(argv) for argv, _ in EXAMPLES]
)
def test_readme_example(argv, expected, tmp_path, capsys):
    for path, body in FILES.items():
        (tmp_path / Path(path).name).write_text(body)
    argv = [str(tmp_path / Path(a).name) if a in FILES else a for a in argv]
    assert cli.main(argv) == 0
    out = _SECONDS.sub("cases, Ns)", capsys.readouterr().out)
    if expected.endswith("...\n"):
        assert out.startswith(expected[:-len("...\n")])
    else:
        assert out == _SECONDS.sub("cases, Ns)", expected)
