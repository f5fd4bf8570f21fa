"""The tooling in ``tests/mutants.py``: the line census's choice of lines."""

from mutants import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import os


def outer(x):
    """Outer docstring."""

    def inner(y):
        return y + 1

    return inner(x)


class Box:
    """Box docstring."""

    size = 3

    def get(self):
        return self.size
'''


def test_census_checks_function_and_class_bodies_but_not_first_lines_or_docstrings():
    # 10 and 21 run in the enclosing body; the module's own lines 4, 7 and 16
    # run on import
    assert code_lines(SOURCE) == {10, 11, 13, 19, 21, 22}
