"""Layout guard: no public function of the package lives only for the tests.

A public module-level function of `src/weilreg/*.py` must be exported by
`weilreg/__init__.py` or named by the program: by its own module, by another
module, by a demo or by the benchmark (whose span tables name functions as
dotted strings such as "ideals.reduce_full").  A helper that only the tests
call restates an existing call; the tests should make that call instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weilreg"

# kept on purpose although only the tests call them, each with its reason
TEST_ONLY = {
    "action_point_defined": "the acceptance gate checks the paper's pointwise definability with it",
    "strip_timing": "the golden comparisons zero the timing fields of a parsed report with it",
}


def _names(path: Path) -> set:
    """Every identifier the file's code names: variables, attributes,
    imported names and the parts of dotted-name string constants."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.replace(".", "").replace("_", "").isalnum():
                found.update(node.value.split("."))
    return found


def _unnamed_public_functions():
    named = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        named |= _names(path)
    return sorted(node.name for path in PACKAGE.glob("*.py")
                  for node in ast.parse(path.read_text(encoding="utf-8")).body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and node.name not in named)


def test_every_public_function_is_exported_or_named_by_the_program():
    assert _unnamed_public_functions() == sorted(TEST_ONLY)
