"""Checks of the package source: it parses as the Python version that
pyproject.toml declares (``requires-python >= 3.10``), every imported name
is read, every private module-level name is read by package code and
every public one by package code or ``__all__``, no module defines a
private ``_x`` beside a public ``x``, every field and method of a package
class is read by package or benchmark code, every
dataclass is frozen and every value type of the pipeline
refuses a field assignment, so a value is complete when it is built, no
function takes a fact of M (``graph``, ``labels``, ``poly``) as an
optional argument,
``import endperiodic`` loads neither the figure nor the warm-up code until
a name of theirs is read, nor ``dataclasses`` and ``inspect``, the
construction takes no settings beyond the four it has, and every package
call of the benchmark's traced pass still binds."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import endperiodic
from endperiodic import (
    DEFAULT_TOL,
    ClassCensus,
    IntMatrix,
    block_lift,
    build_record,
    char_poly,
    corner_selection,
    determinant,
    facts,
    perron_eigendata,
    run_pipeline,
)
from endperiodic.record import _config_dict
from endperiodic.spectral import _analyse

from conftest import RUNNING_ROWS

SOURCES = sorted(Path(endperiodic.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


def _unread_imports(tree: ast.Module) -> list[str]:
    """The names that the imports of ``tree`` bind and that no expression
    of the module reads; ``from __future__`` imports bind nothing."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_every_imported_name_is_read(path):
    # __init__.py imports names to re-export them, which is their use
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unread_imports(tree) == []


def _definitions(tree: ast.Module) -> list[str]:
    """The names that ``tree`` binds at module level: functions, classes
    and assigned constants (dunder names such as ``__all__`` are the
    interpreter's)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("__")]


def _package_reads() -> set[str]:
    """Every name that package code reads: a ``Name`` load, an attribute,
    or a name imported from a module."""
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _module_definitions(private: bool) -> list[tuple[str, str]]:
    """(file name, name) of each private or each public module-level name
    of the package."""
    return [
        (path.name, name)
        for path in SOURCES
        for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name.startswith("_") == private
    ]


def test_every_private_name_is_read():
    # a private helper, type or constant that no package code reads is
    # left over from a refactor; tests may not be its only reader
    defined = _module_definitions(private=True)
    assert len(defined) > 80
    read = _package_reads()
    assert [d for d in defined if d[1] not in read] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_twin_of_a_public_name(path):
    # a stage reads the facts of M off the one value ``facts(M)`` that a
    # caller may already hold; a private ``_x`` beside a public ``x`` is a
    # second copy of one function
    names = set(_definitions(ast.parse(path.read_text(encoding="utf-8"))))
    assert sorted(n for n in names if n.startswith("_") and n[1:] in names) == []


#: the facts of M that ``MatrixFacts`` holds, by attribute name
FACTS = ("graph", "labels", "poly")


def _optional_facts(sources) -> list[tuple[str, str, str]]:
    """(file name, function, parameter) of each parameter of a function in
    ``sources`` that is named after a fact of M and has a default."""
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            ]
            found += [
                (path.name, node.name, a.arg)
                for a in defaulted if a.arg in FACTS
            ]
    return found


def test_no_stage_takes_an_optional_fact():
    # a stage reads the facts of M off ``facts(M)``; an optional ``graph``,
    # ``labels`` or ``poly`` is a claim about M that nothing checks
    assert _optional_facts(SOURCES) == []


def test_a_fact_of_another_matrix_cannot_be_passed(running_matrix):
    # the first three once took a fact of B for A without a typed error:
    # a wrong determinant (-1, not -2), a bare IndexError, permutations
    # built on B's labels
    B = IntMatrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    A = running_matrix
    with pytest.raises(TypeError):
        determinant(A, char_poly(B))
    with pytest.raises(TypeError):
        corner_selection(A, graph=_analyse(B))
    with pytest.raises(TypeError):
        corner_selection(A, labels=facts(B).labels)
    with pytest.raises(TypeError):
        perron_eigendata(A, poly=char_poly(B))
    assert determinant(A) == -2


def test_one_tolerance_search_in_gluing():
    # the edge tables and the strip levels that may merge take the least
    # id within COORD_TOL by one windowed search, ``_least_within``; a
    # second bisection would be a second copy of that rule
    tree = ast.parse((SOURCES[0].parent / "gluing.py").read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "bisect_left" in {
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        }
    ]
    assert len(calls) == 1


def _window_readers(sources) -> list[str]:
    """The file names among ``sources`` that load the attribute
    ``pair_states``."""
    return sorted({
        path.name
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "pair_states"
        and isinstance(node.ctx, ast.Load)
    })


def test_only_render_reads_the_window():
    # ``GeneratorTrace.pair_states`` steps every side to depth_cap on each
    # read; the record and the census read the sides and the strip
    # levels, so only the figure, which draws every depth, may ask for it
    assert _window_readers(SOURCES) == ["render.py"]


#: public names that only the benchmark reads: ``bench/run.py`` writes its
#: traced record's periodic points with ``census_json``; only a change to
#: the benchmark edits ``bench/``, and the next one (ROADMAP item 5) drops it
BENCHMARK_ONLY = {("edgemaps.py", "census_json")}


def test_every_public_name_is_read_or_exported():
    # a public function, type or constant is part of the package's API
    # (``__all__``) or read by package code; one that tests alone read is
    # test code kept in the package
    defined = _module_definitions(private=False)
    assert len(defined) > 80
    used = _package_reads() | set(endperiodic.__all__)
    assert [d for d in defined if d[1] not in used] == sorted(BENCHMARK_ONLY)


BENCH_SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "bench").glob("*.py")
)


def _class_members() -> list[tuple[str, str]]:
    """(class, member) of each annotated field and each non-dunder method
    of every class defined in a package module."""
    members = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    members.append((node.name, item.target.id))
                elif isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    members.append((node.name, item.name))
    return members


def test_every_class_member_is_read():
    # a field that is built and never read, or a method that nothing
    # calls, is a data structure that nothing reads. The check matches
    # names only: a member whose name is read on another type (``apply``,
    # ``index``, ``lam``) passes it unread, so it catches fewer than it
    # could, never a member that is read
    members = _class_members()
    assert len(members) > 150
    read = {
        node.attr
        for path in SOURCES + BENCH_SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert [m for m in members if m[1] not in read] == []


def _frozen_flag(decorator) -> bool | None:
    """True or False for a ``@dataclass`` decorator by its ``frozen``
    argument; None for any other decorator."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = getattr(target, "id", None) or getattr(target, "attr", None)
    if name != "dataclass":
        return None
    return any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in (call.keywords if call else ())
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_dataclass_is_frozen(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    mutable = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for dec in node.decorator_list
        if _frozen_flag(dec) is False
    ]
    assert mutable == []


@pytest.fixture(scope="module")
def running_values():
    """One value of each type that is built once and never changed, with
    one of its fields."""
    M = IntMatrix.from_rows(RUNNING_ROWS)
    record, result = build_record(M)
    return [
        (M, "entries"),
        (char_poly(M), "coefficients"),
        (result.points["L"][0], "period"),
        (result.census, "finite_pairs"),
        (record, "created_at"),
        (result.decomposition.facts, "matrix"),
    ]


def test_values_refuse_field_assignment(running_values):
    for value, name in running_values:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is not None


def test_census_equality_ignores_the_registry(running_values):
    census = running_values[3][0]
    other = ClassCensus(
        census.finite_singletons, census.finite_pairs,
        census.oversized_finite, census.infinite_summaries,
        nodes=[], parent=[], infinite_roots=set(),
    )
    assert other == census
    assert repr(other) == repr(census)
    assert "nodes" not in repr(census)
    changed = ClassCensus(
        census.finite_singletons + 1, census.finite_pairs,
        census.oversized_finite, census.infinite_summaries,
        census.nodes, census.parent, census.infinite_roots,
    )
    assert changed != census


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = Path(endperiodic.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


#: the names that ``endperiodic`` binds on first use, by defining submodule
LAZY_NAMES = {
    "render": ["DIAGRAM_KINDS", "DiagramSpec", "render", "strip_color"],
    "warmup": ["IntegerCase", "build_integer_case", "cross_validate",
               "f0_integer"],
}


def test_import_loads_neither_render_nor_warmup():
    out = _run_fresh(
        "import sys, endperiodic; "
        "print(sorted(m for m in ('endperiodic.render', 'endperiodic.warmup', "
        "'endperiodic.cli', 'fractions', 'dataclasses', 'inspect') "
        "if m in sys.modules)); "
        f"lazy = {LAZY_NAMES!r}; "
        "import importlib; "
        "print(all(getattr(endperiodic, name) is getattr(importlib.import_module("
        "'endperiodic.' + module), name) for module, names in lazy.items() "
        "for name in names))"
    )
    assert out.split() == ["[]", "True"]


def test_lazy_names_are_listed_and_unknown_names_raise():
    lazy = {name for names in LAZY_NAMES.values() for name in names}
    assert lazy <= set(endperiodic.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        endperiodic.no_such_name


def test_render_stays_the_function_after_a_lazy_import():
    out = _run_fresh(
        "import endperiodic; from endperiodic import DiagramSpec; "
        "print(callable(endperiodic.render), "
        "endperiodic.render.__module__)"
    )
    assert out.split() == ["True", "endperiodic.render"]


def test_construct_without_fig_does_not_load_render(tmp_path):
    out = _run_fresh(
        "import sys; from endperiodic.cli import main; "
        f"code = main(['construct', '--integer', '2', '--out', {str(tmp_path)!r}]); "
        "print(code, 'endperiodic.render' in sys.modules)"
    )
    assert out.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("function", [run_pipeline, build_record],
                         ids=lambda f: f.__name__)
def test_construction_takes_only_its_four_parameters(function):
    # the eigendata residual, the corner selection and the double are fixed
    assert list(inspect.signature(function).parameters) == [
        "M", "depth_cap", "insert_genus", "weak_perron_k"
    ]


@pytest.mark.parametrize(
    "rows, k", [(RUNNING_ROWS, None), ([[2]], 4)], ids=["running", "lift4"]
)
def test_config_of_the_fixed_settings(rows, k):
    # bench/run.py writes the config of its stage-by-stage record by this
    # positional call, and its traced record must equal build_record's
    M = IntMatrix.from_rows(rows)
    if k is not None:
        M = block_lift(M, k)
    expected = build_record(M, weak_perron_k=k)[0].config
    assert _config_dict(M, DEFAULT_TOL, None, True, False, k, True) == expected


BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _traced_calls() -> list[tuple[str, str, int, tuple[str, ...]]]:
    """(module, name, positional argument count, keyword names) of each
    call of a package name in ``traced_certify`` of ``bench/run.py``:
    direct calls, and the function of each ``tr.span(name, case, fn,
    *args, **kwargs)`` with the arguments after it."""
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    traced = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "traced_certify"
    )
    imported = {
        alias.asname or alias.name: node.module
        for node in ast.walk(traced) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    calls = []
    for node in ast.walk(traced):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "span":
            target, args = node.args[2], node.args[3:]
        else:
            target, args = node.func, node.args
        if isinstance(target, ast.Name) and target.id in imported:
            keywords = tuple(k.arg for k in node.keywords)
            calls.append((imported[target.id], target.id, len(args), keywords))
    return calls


TRACED_CALLS = _traced_calls()


@pytest.mark.parametrize(
    "module, name, positional, keywords", TRACED_CALLS,
    ids=[f"{name}-{n}-{'-'.join(kw)}" for _, name, n, kw in TRACED_CALLS],
)
def test_benchmark_traced_call_binds(module, name, positional, keywords):
    # bench/run.py calls the stage functions one by one; a signature change
    # that breaks it fails here, with the call named
    function = getattr(importlib.import_module(module), name)
    inspect.signature(function).bind(
        *[None] * positional, **dict.fromkeys(keywords)
    )


def test_benchmark_traced_calls_are_pinned():
    assert {
        ("endperiodic", "perron_eigendata", 1, ("tol",)),
        ("endperiodic", "verify_stretch", 2, ("tol",)),
        ("endperiodic", "assemble_surface", 3, ("weak_perron_k",)),
        ("endperiodic.record", "_config_dict", 7, ()),
    } <= set(TRACED_CALLS)
