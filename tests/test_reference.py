"""docs/FORMATS.md's layouts are the reference codec's rows, and the
reference (``tests/reference.py``) is the only test code that writes or
reads a proof field by field."""

import ast
import re
from pathlib import Path

import pytest

from entmesh import node, wire

import reference

ROOT = Path(__file__).resolve().parent.parent
FORMATS = (ROOT / "docs" / "FORMATS.md").read_text()
BOUNDS = {name: value for module in (wire, node) for name, value in vars(module).items() if name.startswith("MAX_")}
_KIND = re.compile(r"(?P<kind>[^()]+?)(?:\((?P<bound>\w+)\))?(?P<count>\[[^\]]+\])?")


def layouts(text: str) -> dict:
    """Each layout block's rows, by the record the paragraph before it names
    in bold last, when that is a record of the reference.  Lines indented
    past a block's rows go on with a comment."""
    found, paragraph = {}, ""
    for chunk in re.split(r"\n\s*\n", text):
        lines = chunk.strip("\n").splitlines()
        if not all(line.startswith("    ") for line in lines):
            paragraph = chunk
            continue
        names = re.findall(r"\*\*(\w+)\*\*", paragraph)
        if not names or names[-1] not in reference.RECORDS:
            continue
        assert names[-1] not in found, f"two layout blocks for {names[-1]}"
        found[names[-1]] = tuple(row(line) for line in lines if not line.startswith("     "))
    return found


def row(line: str) -> tuple:
    """A layout row's kind, without its bound, its name and the bound's value if it has one."""
    kind, name, *_ = line.split()
    parts = _KIND.fullmatch(kind).groupdict()
    return (parts["kind"] + (parts["count"] or ""), name, *[BOUNDS[b] for b in [parts["bound"]] if b])


def test_every_record_has_a_layout_block():
    assert sorted(layouts(FORMATS)) == sorted(reference.RECORDS)


@pytest.mark.parametrize("record", sorted(reference.RECORDS))
def test_layout_block_is_the_references_rows(record):
    assert layouts(FORMATS)[record] == reference.RECORDS[record].rows


def test_kind_byte_table_is_the_references():
    table = re.findall(r"^\| \w+ +\| `0x(\w\w)` \| (\w+) +\|$", FORMATS, re.MULTILINE)
    assert {int(byte, 16): name for byte, name in table} == reference.PROOF_KINDS


_FIELD_METHODS = {"u8", "u32", "u64", "digest", "digests", "blob"}  # a class with two writes or reads field by field


def field_by_field_code(path: Path) -> list:
    """Where ``path`` packs or unpacks bytes with ``struct``, or holds a
    Writer-like or Reader-like class, as ``file:line`` strings."""
    return [
        f"{path.name}:{n.lineno}"
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Name) and n.id == "struct"
        or isinstance(n, ast.alias) and n.name == "struct"
        or isinstance(n, ast.ImportFrom) and n.module == "struct"
        or isinstance(n, ast.ClassDef) and len(_FIELD_METHODS & {f.name for f in n.body if isinstance(f, ast.FunctionDef)}) >= 2
    ]


def test_only_the_reference_writes_fields():
    tests = sorted(path for path in (ROOT / "tests").glob("*.py") if path.name != "reference.py")
    assert [where for path in tests for where in field_by_field_code(path)] == []
    assert field_by_field_code(ROOT / "tests" / "reference.py")  # the scan sees the reference's own
