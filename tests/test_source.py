import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spwebs"


def test_no_assert_statements_in_package():
    # python -O strips assert, so self-checks must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found
