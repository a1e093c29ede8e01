import ast
import subprocess
import sys
from pathlib import Path

import pytest

import bcgames

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, src_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=src_env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_public_api_is_what_the_demos_import():
    imported = set()
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "bcgames":
                imported.update(alias.name for alias in node.names)
    assert sorted(imported) == sorted(bcgames.__all__)
    assert all(hasattr(bcgames, name) for name in bcgames.__all__)


def test_library_imports_only_the_standard_library():
    allowed = {"bcgames"} | sys.stdlib_module_names
    for module in Path(bcgames.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, (module.name, name)
