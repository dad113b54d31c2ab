"""`quadfold.config` is the one table of numeric bounds.

No other module of the package writes a tolerance-sized float literal,
every float constant of the table decides something elsewhere, and README's
"Numerical contract" lists each one with its value.
"""

import ast
import math
import re
from pathlib import Path

from quadfold import config

PACKAGE = Path(config.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _modules():
    """(path, tree) of every module of the package but config.py."""
    return [(path, ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "config.py"]


def _float_constants() -> dict:
    """Name -> value of every float constant config.py defines."""
    return {name: value for name, value in vars(config).items()
            if type(value) is float}


def _is_bound(x: float) -> bool:
    """A float literal of a tolerance's or a safety factor's size."""
    return 0.0 < abs(x) < 1e-3 or abs(x) >= 1e3


def test_no_bound_is_written_outside_config():
    found = [f"{path.name}:{node.lineno}: {node.value!r}"
             for path, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) is float
             and _is_bound(node.value)]
    assert found == []


def test_every_config_bound_is_read():
    """Each float constant of config.py is read by another module of the
    package, or enters the expression of a config constant that is (as
    PI_MARGIN enters PROBE_LIMIT)."""
    read = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    derived = {}
    for node in ast.parse(Path(config.__file__).read_text()).body:
        if isinstance(node, ast.Assign):
            names = {n.id for n in ast.walk(node.value)
                     if isinstance(n, ast.Name)}
            for target in node.targets:
                derived[target.id] = names
    pending = list(read)
    while pending:
        for name in derived.get(pending.pop(), ()):
            if name not in read:
                read.add(name)
                pending.append(name)
    assert sorted(set(_float_constants()) - read) == []


def _readme_table() -> dict:
    """Name -> value of each row of the table that opens README's
    "Numerical contract"; every row also says what the bound decides."""
    text = README.read_text().split("## Numerical contract\n", 1)[1]
    section = text.split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `(\w+)` \| `([^`]+)` \| .+ \|$", section,
                           re.MULTILINE))


def test_readme_tabulates_every_config_bound():
    table = _readme_table()
    constants = _float_constants()
    assert sorted(set(constants) - set(table)) == []
    assert sorted(set(table) - set(constants)) == []
    namespace = {"math": math, **constants}
    for name, value in table.items():
        assert eval(value, namespace) == constants[name], name
