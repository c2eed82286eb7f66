"""Two promises of the runtime: it needs nothing beyond the standard
library, and importing it computes nothing."""

import ast
import os
import pathlib
import subprocess
import sys

import drinfeldforms

PACKAGE = pathlib.Path(drinfeldforms.__file__).resolve().parent


def test_runtime_imports_only_the_standard_library():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert "functools" in imported
    assert {name.partition(".")[0] for name in imported} <= set(sys.stdlib_module_names)


def test_importing_the_command_line_fills_no_cache():
    # each cache fills on first use: an entry after the import alone is a
    # field table or a phi chain built before any command asked for it
    probe = ("import drinfeldforms.cli\n"
             "from drinfeldforms import fields, series\n"
             "print([f.cache_info().currsize for f in (fields._cached_field,"
             " fields.canonical_modulus, fields._extension_data, series._phi_theta_power)])\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0]\n"
