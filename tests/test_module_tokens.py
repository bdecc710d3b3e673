"""Source size of the package modules, in parser tokens."""

import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_ladders"


def parser_tokens(path: Path) -> int:
    with path.open(encoding="utf-8") as f:
        return sum(1 for t in tokenize.generate_tokens(f.readline)
                   if t.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_stays_within_4096_tokens(name):
    # Compiling a source with no bytecode cache sizes the parser's token buffer in powers
    # of two, so a module one token past 4,096 costs every such process about 0.25 MiB.
    assert parser_tokens(PACKAGE / name) <= 4096
