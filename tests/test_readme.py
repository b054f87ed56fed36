"""The README's examples still hold.

Every expression statement of the "Library usage" block carries its value
as a trailing comment, and every `$ zetapoly ...` line of a shell block is
followed by the command's exact stdout.  A `$ cat FILE` line is followed
by the file's contents, which the commands after it read.
"""

import ast
import io
import re
import shlex
from pathlib import Path

import pytest

from zetapoly import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _sessions():
    # (files, argv, stdout) for each `$ zetapoly` line of the shell blocks,
    # files holding what the block's earlier `$ cat` lines showed
    sessions = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        files: dict[str, str] = {}
        for step in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = step.partition("\n")
            words = shlex.split(command)
            if words[0] == "cat":
                files[words[1]] = output
            else:
                assert words[0] == "zetapoly", command
                sessions.append((dict(files), words[1:], output))
    return sessions


SESSIONS = _sessions()


def test_every_command_example_is_found():
    commands = {argv[0] for _, argv, _ in SESSIONS}
    assert commands == {"lpoly", "classnumber", "defect2", "compositions", "pper"}


@pytest.mark.parametrize(
    "files,argv,expected", SESSIONS, ids=[" ".join(argv[:2]) for _, argv, _ in SESSIONS]
)
def test_command_example(tmp_path, monkeypatch, files, argv, expected):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(argv, stdout=out, stderr=err) == cli.EXIT_OK
    assert out.getvalue() == expected
    assert err.getvalue() == ""


def test_library_usage_values():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        comment = lines[node.lineno - 1][len(code):].strip()
        assert comment.startswith("# "), f"{code} has no value comment"
        assert repr(eval(code, namespace)) == comment[2:], code
        checked += 1
    assert checked >= 10
