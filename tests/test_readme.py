"""The README's examples run against the code.

Every expression statement in the Quick start block carries a ``# value``
comment, which must be the str() of its value, or that text followed by a
colon and an explanation.  The Command line section's ``verify`` pipeline
must print the first and last lines its ``# ->`` comment shows.
"""

import ast
import io
import re
from pathlib import Path

import twosquare_gaps.cli as cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def section(title: str) -> str:
    # the text from a "## title" heading to the next heading of that level
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else None]


def code_block(text: str, lang: str) -> str:
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


def test_quick_start_values():
    source = code_block(section("Quick start"), "python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        text = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(text, namespace)
            continue
        _, sep, comment = lines[stmt.end_lineno - 1].partition("#")
        assert sep, f"no value comment: {text}"
        value = str(eval(text, namespace))
        comment = comment.strip()
        assert comment == value or comment.startswith(value + ":"), (comment, value)
        checked.append(value)
    assert checked == [
        "Member(x=3, y=4)",
        "NonMember(certificate=OddValuation(p=3, k=1))",
        "35",
        "True",
        "(63369480, 63369489)",
        "False",
    ]


def run_cli(argv: list[str], stdin: str, monkeypatch, capsys) -> str:
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_command_line_verify_report(monkeypatch, capsys):
    block = code_block(section("Command line"), "sh")
    match = re.search(r"^(twosquare-gaps richards .*)\n# -> (.*)$", block, re.M)
    first, _, last = match.group(2).partition(" ... ")
    text = ""
    for command in match.group(1).split("|"):
        argv = command.split()
        assert argv[0] == "twosquare-gaps"
        text = run_cli(argv[1:], text, monkeypatch, capsys)
    lines = text.splitlines()
    assert (lines[0], lines[-1]) == (first, last)
    assert (first, last) == ("offset 1: odd p=3 k=1", "covered: 10/10")
