"""The package has no runtime dependencies: it imports only the standard
library and itself (numpy, sympy and networkx may be installed, but a
user's environment need not have them)."""

import ast
import sys
from pathlib import Path

import murlab


def test_imports_are_standard_library_or_murlab():
    for path in sorted(Path(murlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names or root == "murlab", (
                    f"{path.name}:{node.lineno} imports {root}"
                )
