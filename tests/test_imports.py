"""One import path per name: each public name is imported from the module that defines it.

A module that imports a name from a sibling and never uses it re-exports it,
giving the name a second import path that every rename must then keep.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import csym

SRC = Path(csym.__file__).parent

#: (module, name) sibling imports kept unused, each with the reason
KEPT = {
    ("photon", "conjugation_constraint_rows"):
        "perfbench/micro.py calls photon.conjugation_constraint_rows, and the benchmark "
        "is not edited together with the library",
}


def _unused_sibling_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_sibling_import_is_used():
    unused = {(path.stem, name)
              for path in sorted(SRC.glob("*.py")) for name in _unused_sibling_imports(path)}
    assert unused == KEPT.keys()


def test_package_import_loads_no_module():
    """The package holds only its module map; `import csym` imports none of the modules."""
    code = "import sys, csym; print(sorted(m for m in sys.modules if m.startswith('csym.')))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout == "[]\n"
