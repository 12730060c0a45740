"""``tools/code_lines.py``, the line count the package's size is judged by."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring

over three lines."""

import os  # a comment after code


def join(x):
    """A function docstring."""

    # a comment on its own line
    return os.path.join(x,
                        "y")
'''


def test_count_skips_docstrings_comments_and_blank_lines():
    """13 lines; code starts on 4 of them: the import, the def and both
    lines of the return, whose second holds a token of its own."""
    assert load_tool().count(SOURCE) == (13, 4)

