"""scripts/check_imports.py: flags imported-but-unused names, and
counts re-exports, ``__all__`` and string annotations as uses."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_imports.py"


@pytest.fixture(scope="module")
def check_imports():
    spec = importlib.util.spec_from_file_location("check_imports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_planted_unused_import_is_flagged(check_imports, tmp_path, capsys):
    module = tmp_path / "planted.py"
    module.write_text(
        "import json\n"
        "import os.path\n"
        "from typing import Dict, List as Seq\n"
        "\n"
        "def f() -> Dict:\n"
        "    from collections import OrderedDict\n"
        "    return os.path.sep\n"
    )
    assert check_imports.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"{module}:1: 'json' imported but unused",
        f"{module}:3: 'Seq' imported but unused",
        f"{module}:6: 'OrderedDict' imported but unused",
    ]


def test_reexports_all_and_string_annotations_count_as_used(
    check_imports, tmp_path, capsys
):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from json import dumps, loads\n")
    (package / "mod.py").write_text(
        "from __future__ import annotations\n"
        "from json import JSONDecoder, dumps\n"
        "from typing import Optional\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Optional[JSONDecoder]') -> None:\n"
        "    return None\n"
    )
    assert check_imports.main([str(package)]) == 0
    assert capsys.readouterr().out == ""

