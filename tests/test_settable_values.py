"""Tests for the settable-value count tool tools/settable_values.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("settable_values",
                                               ROOT / "tools" / "settable_values.py")
settable_values = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(settable_values)

# eight settable values, each marked; C is no dataclass, so its default is none
SOURCE = '''
import dataclasses
from dataclasses import dataclass, field


def f(a, b=1, *, c=2, d):  # 2
    g = lambda x, y=3: x  # 1
    return g(a, b, c, d)


async def h(x=None):  # 1
    return x


@dataclass(frozen=True)
class A:
    x: int
    y: int = 0  # 1
    z: list = field(default_factory=list)  # 1

    def m(self, k=1):  # 1
        return k


@dataclasses.dataclass
class B:
    w: float = 1.0  # 1


class C:
    v: int = 5
'''


def test_count_of_an_inline_source():
    assert settable_values.count(SOURCE) == 8
    assert settable_values.count("def f(a, b):\n    return a\n") == 0


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "one.py").write_text(SOURCE)
    (tmp_path / "two.py").write_text("def f(x=1):\n    return x\n")
    assert settable_values.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["one 8", "two 1", "total 9"]


# The count of src/conespec.  A change that adds a settable value raises this
# bound in the same diff and says why in CHANGES.md.
MAX_SETTABLE = 45


def test_the_library_stays_within_its_count():
    total = sum(settable_values.count(path.read_text())
                for path in (ROOT / "src" / "conespec").glob("*.py"))
    assert total <= MAX_SETTABLE
