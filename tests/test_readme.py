"""README examples: every `$ batchpay ...` line runs and prints what README shows.

Every `$` line in a fenced block must be a `batchpay` command, so an
example that points at some other program fails here. Each block runs in
its own temporary directory, its commands in order, so a later command
can read what an earlier one wrote. Config paths are relative to the
repository root. A command may end in `| grep -E PATTERN`, which keeps
the output lines the pattern matches. In the expected output, a token
ending in `...` is truncated: it matches any token that starts with what
precedes the ellipsis.

The tables of docs/formats.md are checked the same way against the code
they describe: the field kinds against ``wire.KINDS``, the fields of every
record and state row against the layout its annotations declare, the report's
fields and rows against ``ScenarioReport`` and the report's row table, and
the config keys against the loader's sections.
"""

from __future__ import annotations

import itertools
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from batchpay import state
from batchpay.chainlog import RECORD_TYPES
from batchpay.cli import main
from batchpay.merkle import MerkleProof
from batchpay.sim.config import _SECTIONS
from batchpay.sim.report import _ROWS, ScenarioReport
from batchpay.wire import KINDS, layout

REPO = Path(__file__).resolve().parent.parent


def _examples() -> list[list[tuple[str, list[str]]]]:
    """The README's fenced blocks as lists of (command, expected lines)."""
    text = (REPO / "README.md").read_text()
    blocks = []
    for body in re.findall(r"^```\n(.*?)^```$", text, re.M | re.S):
        steps = []
        for line in body.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            elif steps:
                steps[-1][1].append(line)
        if steps:
            blocks.append(steps)
    return blocks


EXAMPLES = _examples()


def _run(command: str, capsys) -> list[str]:
    command, _, pipe = command.partition(" | ")
    program, *args = shlex.split(command)
    assert program == "batchpay", f"not a batchpay command: {command}"
    argv = [str(REPO / arg) if arg.startswith("configs/") else arg for arg in args]
    assert main(argv) == 0, command
    lines = capsys.readouterr().out.splitlines()
    if pipe:
        grep, flag, pattern = shlex.split(pipe)
        assert (grep, flag) == ("grep", "-E"), f"unsupported pipe: {pipe}"
        lines = [line for line in lines if re.search(pattern, line)]
    return lines


def _matches(expected: str, actual: str) -> bool:
    pattern = re.escape(expected).replace(re.escape("..."), r"\S*")
    return re.fullmatch(pattern, actual) is not None


def test_readme_has_examples():
    commands = [command for block in EXAMPLES for command, _ in block]
    assert any(command.startswith("batchpay cost ") for command in commands)
    assert any(command.startswith("batchpay run ") for command in commands)
    assert any(command.startswith("batchpay replay ") for command in commands)


@pytest.mark.parametrize("block", EXAMPLES, ids=[block[0][0][:60] for block in EXAMPLES])
def test_readme_example(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, expected in block:
        actual = _run(command, capsys)
        assert len(actual) == len(expected), (command, actual)
        for want, got in zip(expected, actual):
            assert _matches(want, got), (command, want, got)


FORMATS = (REPO / "docs" / "formats.md").read_text()


def _table_rows(heading: str) -> list[list[str]]:
    """The cells of each body row of the first table after ``heading``."""
    lines = FORMATS[FORMATS.index(heading):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _fields(cell: str) -> list[tuple[str, str]]:
    return re.findall(r"(\w+) `([\w?]+)`", cell)


def test_formats_doc_names_exactly_the_kinds_of_the_kind_table():
    documented = {kind for row in _table_rows("Field kinds:") for kind in re.findall(r"`([\w?]+)`", row[0])}
    base = {kind for kind in KINDS if not kind.endswith("?")}
    assert set(KINDS) == base | {f"{kind}?" for kind in base}
    assert documented == base | {"k?"}


def test_formats_doc_lists_every_record_as_declared():
    documented = {row[1]: _fields(row[2]) for row in _table_rows("Records (gas op")}
    assert documented == {cls.__name__: layout(cls, "") for cls in RECORD_TYPES.values()}


def test_formats_doc_lists_the_merkle_proof_as_declared():
    documented = [(row[0], row[1].strip("`")) for row in _table_rows("## Bulk registration proofs")]
    assert documented == layout(MerkleProof, "")


def test_formats_doc_lists_every_state_row_as_declared():
    rows = (
        state.Params, state.External, state.Account, state.Payment, state.BulkRegistration,
        state.CollectSlot,
    )
    documented = {row[0]: _fields(row[1]) for row in _table_rows("## State digest")}
    assert documented == {cls.__name__: layout(cls, "") for cls in rows}


def test_formats_doc_lists_the_report_fields_in_order():
    text = FORMATS[FORMATS.index("Top-level fields:"):]
    documented = re.findall(r"`(\w+)`", text[:text.index("\n\n")])
    assert documented == [f.name for f in fields(ScenarioReport)]


def test_formats_doc_lists_the_report_rows_as_declared():
    rows = _table_rows("`--format lines`")
    assert [row[0].strip("`") for row in rows] == ["meta", *(kind for _, kind, _, _ in _ROWS)]
    documented = [tuple(cell.strip("`") or None for cell in row[1:]) for row in rows[1:]]
    assert documented == [(name, key, value) for name, _, key, value in _ROWS]


def test_formats_doc_names_every_config_key_under_its_section():
    text = FORMATS[FORMATS.index("## Scenario configs"):]
    block = re.search(r"^```\n(.*?)^```$", text, re.M | re.S).group(1)
    sections = dict(re.findall(r"^\[(\w+)\]\s+(.*?)(?=^\[|\Z)", block, re.M | re.S))
    assert list(sections) == list(_SECTIONS)
    for section, keys in _SECTIONS.items():
        # "payees_min/max" names payees_min and payees_max
        named = set(re.findall(r"\w+", re.sub(r"(\w+)_min/max", r"\1_min \1_max", sections[section])))
        assert set(keys) <= named, section
