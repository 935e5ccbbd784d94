"""A command's settings are its arguments and its config file: no module of
the package reads or writes the process environment. Its warnings are
lines printed to stderr: no module of the package imports `logging`."""
import ast
from pathlib import Path

import sumedit

PACKAGE = Path(sumedit.__file__).parent
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_uses(path):
    """`os.<name>` attributes and `from os import <name>` imports of the
    environment in one source file, as (line, name)."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                uses.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            uses += [(node.lineno, f"from os import {a.name}") for a in node.names if a.name in ENVIRONMENT]
    return sorted(uses)


def test_no_module_reads_the_environment():
    sources = sorted(PACKAGE.glob("*.py"))
    assert {path.name for path in sources} >= {"cli.py", "config.py", "oracle.py"}
    found = [f"{path.name}:{line}: {name}" for path in sources for line, name in environment_uses(path)]
    assert found == []


def test_the_scan_finds_each_form(tmp_path):
    path = tmp_path / "uses.py"
    path.write_text(
        "import os\n"
        "from os import environ, getenv as read\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('X')\n"
        "os.putenv('X', '1')\n"
        "c = os.path.join('x')\n"
    )
    assert environment_uses(path) == [
        (2, "from os import environ"), (2, "from os import getenv"), (3, "os.environ"), (4, "os.getenv"),
        (5, "os.putenv"),
    ]


def logging_imports(path):
    """Lines of one source file that import `logging` or one of its
    submodules, in any form, as (line, module)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "logging"]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "logging":
            found.append((node.lineno, node.module))
    return sorted(found)


def test_no_module_imports_logging():
    sources = sorted(PACKAGE.glob("*.py"))
    found = [f"{path.name}:{line}: {name}" for path in sources for line, name in logging_imports(path)]
    assert found == []


def test_the_logging_scan_finds_each_form(tmp_path):
    path = tmp_path / "uses.py"
    path.write_text(
        "import logging\n"
        "def f():\n"
        "    import os, logging.handlers as h\n"
        "    from logging import getLogger\n"
        "from . import logging_free\n"
        "from .logging import x\n"
    )
    assert logging_imports(path) == [(1, "logging"), (3, "logging.handlers"), (4, "logging")]
