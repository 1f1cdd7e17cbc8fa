"""Package surface: lazy imports, the public names, and record semantics.

The import checks run in fresh interpreters and compare against a bare
`python -c pass`, so whatever `site` loads on a machine does not count.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import termirial
from termirial import fractal, loopnest, oracle
from termirial.budget import record

PACKAGE = Path(termirial.__file__).parent
SUBMODULES = {f"termirial.{path.stem}" for path in PACKAGE.glob("*.py")} - {"termirial.__init__"}
CLI_UNUSED = {"termirial.oracle", "termirial.loopnest", "termirial.fractal", "fractions", "json"}


def _loaded(code: str) -> set[str]:
    """Names in sys.modules after a fresh interpreter runs code, listed on stderr."""
    script = f"{code}\nimport sys\nsys.stderr.write(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, check=True)
    return set(proc.stderr.split())


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return _loaded("pass")


@pytest.mark.parametrize(
    "code, unloaded",
    [
        ("import termirial", SUBMODULES),
        ("import termirial.core", {"dataclasses", "fractions", "termirial.fractal", "termirial.loopnest", "termirial.oracle"}),
        ("from termirial import subsets", {"termirial.core", "termirial.fractal", "termirial.loopnest"}),
        ("from termirial import loopnest", {"termirial.oracle", "termirial.fractal"}),
        ("from termirial import cli; cli.main(['eval', '5', '2'])", CLI_UNUSED),
        ("from termirial import cli; cli.main(['check', 'pascal'])", CLI_UNUSED),
        ("from termirial import cli; cli.main(['fractal', '4', '2'])", {"fractions", "decimal"}),
        ("from termirial import fractal; fractal.render(fractal.build(4, 2), 'svg')", {"fractions", "decimal"}),
    ],
)
def test_imports_load_only_what_they_use(code, unloaded, bare):
    assert (_loaded(code) - bare) & unloaded == set()


def test_no_module_imports_dataclasses():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_public_names_resolve_and_are_listed():
    listed = dir(termirial)
    for name in termirial.__all__:
        assert getattr(termirial, name) is not None
        assert name in listed
    assert termirial.fractal is fractal and termirial.loopnest is loopnest
    assert termirial.subsets is oracle.subsets
    star: dict = {}
    exec("from termirial import *", star)
    assert set(termirial.__all__) <= set(star)
    with pytest.raises(AttributeError):
        termirial.no_such_name


_PROGRAM = "n = 2\nfor i = 1 to n\nfor j = 1 to i\n"

# each public record, built twice, with its repr as the dataclass it replaced printed it
RECORDS = {
    "Loop": (lambda: loopnest.Loop(index="i", bound="n"), "Loop(index='i', bound='n')"),
    "LoopNestProgram": (
        lambda: loopnest.parse(_PROGRAM),
        "LoopNestProgram(param_name='n', param_value=2, loops=(Loop(index='i', bound='n'), Loop(index='j', bound='i')))",
    ),
    "AnalysisResult": (
        lambda: loopnest.analyze(loopnest.parse(_PROGRAM)),
        "AnalysisResult(depth=2, order=1, param_name='n', param_value=2, exact_count=3, theta_exponent=2)",
    ),
    "FractalFigure": (lambda: fractal.build(3, 1), "FractalFigure(n=3, p=1, rows=(1, 2, 3))"),
    "SurfaceReport": (
        lambda: fractal.surface_report(3, 1),
        "SurfaceReport(n=3, p=1, ratio=Fraction(8, 1), dimension_estimate=3.0, measured=True)",
    ),
    "Decomposition": (
        lambda: oracle.decompose_by_leading(4, 2),
        "Decomposition(n=4, p=2, groups=((1, 3), (2, 2), (3, 1)))",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    make, text = RECORDS[name]
    value, copy = make(), make()
    assert value is not copy
    assert value == copy and not value != copy
    assert hash(value) == hash(copy)
    assert type(value)(**value._asdict()) == value
    fields = tuple(value)
    assert value != fields and fields != value
    assert not value == fields
    for other, (make_other, _) in RECORDS.items():
        if other != name:
            assert value != make_other()
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert repr(value) == text


def test_records_of_different_classes_differ_with_equal_fields():
    class A(record("A", "x y")):
        __slots__ = ()

    class B(record("B", "x y")):
        __slots__ = ()

    assert A(1, 2) == A(x=1, y=2)
    assert A(1, 2) != B(1, 2) and B(1, 2) != A(1, 2)
    assert len({A(1, 2), A(1, 2), B(1, 2)}) == 2
