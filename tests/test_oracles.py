import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_import_nothing_from_the_package():
    """The oracles share no code with ``src/``: no import of ``ngramstitch``
    and no relative import."""
    offending = []
    for node in ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        offending += [
            f"line {node.lineno}: {name}" for name in names
            if name.startswith(".") or name.split(".")[0] == "ngramstitch"
        ]
    assert not offending, offending
