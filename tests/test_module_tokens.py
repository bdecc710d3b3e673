"""Source size of the package modules, in parser tokens."""

import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "padic_ladders"
# series.py is past 4,096 already.  Its tokens raise peak RSS throughout, not only at the
# 4,096 boundary, so it is held to its present count, not to the next buffer size.
EXEMPT = {"series.py": 6135}


def parser_tokens(path: Path) -> int:
    with path.open(encoding="utf-8") as f:
        return sum(1 for t in tokenize.generate_tokens(f.readline)
                   if t.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name not in EXEMPT))
def test_module_stays_within_4096_tokens(name):
    # Compiling a source with no bytecode cache sizes the parser's token buffer in powers
    # of two, so a module one token past 4,096 costs every such process about 0.25 MiB.
    assert parser_tokens(PACKAGE / name) <= 4096


@pytest.mark.parametrize("name", sorted(EXEMPT))
def test_exempt_module_stays_within_its_buffer(name):
    assert parser_tokens(PACKAGE / name) <= EXEMPT[name]
