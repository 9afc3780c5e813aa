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
``import endperiodic`` loads neither the figure, the warm-up code nor the
window's derivation until a name of theirs is read, nor ``dataclasses``
and ``inspect``, the window's derivation imports no module of the
construction, the construction takes no settings beyond the three it
has, every default of an exported callable is set by some package or
benchmark call, every package call of the benchmark's traced pass still
binds, the fixed config settings are stated once, and gluing reads no
coordinate tolerance nor classify a coordinate."""

import ast
import importlib
import inspect
import math
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
    classify_classes,
    corner_selection,
    determinant,
    facts,
    perron_eigendata,
    run_pipeline,
)
from endperiodic import gluing
from endperiodic.edgemaps import EdgeBranch
from endperiodic.record import _config_dict
from endperiodic.spectral import _analyse

from conftest import RUNNING_ROWS, SPARSE7

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


def test_gluing_reads_no_coordinate_tolerance():
    # classify names its nodes exactly, so gluing neither merges within a
    # coordinate tolerance nor bisects sorted positions, and no package
    # module defines or reads the coarse COORD_TOL that it once did
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {
            name
            for node in ast.walk(tree)
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "name", None))
        }
        assert "COORD_TOL" not in names, path.name
        if path.name == "gluing.py":
            assert "bisect_left" not in names
    assert not hasattr(endperiodic, "COORD_TOL")


def test_edge_map_branches_are_the_one_reader_of_the_piece_map():
    # where each rectangle edge goes is said once, by the edge-map branch
    # (``edgemaps._side_branch``), which keeps its target strip and offset
    # alone; gluing reads those branches, never the piece-map indexes
    tree = ast.parse(Path(gluing.__file__).read_text(encoding="utf-8"))
    names = {
        name
        for node in ast.walk(tree)
        for name in (getattr(node, "attr", None), getattr(node, "value", None))
    }
    assert names.isdisjoint({"source_index", "target_index"})
    assert EdgeBranch._fields == ("target", "offset0")


@pytest.mark.parametrize(
    "rows, k", [(RUNNING_ROWS, None), (SPARSE7, None), ([[2]], 4)],
    ids=["running", "sparse7", "lift4"],
)
def test_classify_reads_no_coordinate(rows, k):
    # the census is the same when every float that classify could reach
    # through ``ext`` is NaN: each strip's base, each edge-map branch's
    # offset0, each piece-map branch's x0 and y0, the strip boundaries and
    # each periodic point's offset. Classify reads the generator ids, the
    # entry depths and strips and the combinatorics of the construction,
    # not a coordinate
    M = IntMatrix.from_rows(rows)
    if k is not None:
        M = block_lift(M, k)
    result = run_pipeline(M, weak_perron_k=k)
    nan = math.nan
    ext, D = result.extended, result.decomposition
    D = D._replace(
        vertical_offsets={r: (nan,) * len(v) for r, v in D.vertical_offsets.items()},
        horizontal_offsets={r: (nan,) * len(v)
                            for r, v in D.horizontal_offsets.items()},
    )
    P = ext.system.piece_map
    P = P._replace(decomposition=D, **{
        index: {label: br._replace(x0=nan, y0=nan)
                for label, br in getattr(P, index).items()}
        for index in ("source_index", "target_index")
    })
    maps = {
        kind: E._replace(branches={
            rect: br._replace(offset0=nan) for rect, br in E.branches.items()
        })
        for kind, E in ext.system.maps.items()
    }
    ext = ext._replace(
        system=ext.system._replace(piece_map=P, maps=maps),
        strips={key: strip._replace(lo=nan, hi=nan)
                for key, strip in ext.strips.items()},
        points={kind: [pt._replace(offset=nan) for pt in points]
                for kind, points in ext.points.items()},
    )
    assert ext.system.decomposition is D
    schema = result.schema._replace(generators=tuple(
        gen._replace(ext=ext) for gen in result.schema.generators
    ))
    census = classify_classes(schema, ext)
    assert census == result.census
    assert census.nodes == result.census.nodes
    assert census.parent == result.census.parent


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
    # ``GeneratorTrace.pair_states`` derives the whole window from the
    # run's sections on each read (``endperiodic.window``); the record
    # and the census read the entry depths and strips and the strip
    # levels, so only the figure, which draws every depth, may ask for it
    assert _window_readers(SOURCES) == ["render.py"]


#: the modules of the construction, which the window's derivation from a
#: record must not import: it reads the record, not the builder
BUILDER_MODULES = {"spectral", "decomposition", "edgemaps", "gluing",
                   "markov", "record"}


def test_window_imports_no_builder_module():
    tree = ast.parse(
        (Path(endperiodic.__file__).parent / "window.py").read_text(encoding="utf-8")
    )
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            imported.add(name if node.level == 0 else f".{name}")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert ".errors" in imported
    assert not any(
        name.lstrip(".").split(".")[-1] in BUILDER_MODULES
        or name.startswith("endperiodic")
        or name == "."
        for name in imported
    ), sorted(imported)


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


def test_census_equality_ignores_the_node_tables(running_values):
    census = running_values[3][0]
    other = ClassCensus(
        census.finite_singletons, census.finite_pairs,
        census.infinite_summaries, decode=list, parent=[],
        infinite_roots=set(),
    )
    assert other == census
    assert repr(other) == repr(census)
    assert "nodes" not in repr(census)
    changed = ClassCensus(
        census.finite_singletons + 1, census.finite_pairs,
        census.infinite_summaries, census.decode, census.parent,
        census.infinite_roots,
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
    "render": ["DIAGRAM_KINDS", "render", "strip_color"],
    "warmup": ["IntegerCase", "build_integer_case", "cross_validate",
               "f0_integer"],
    "window": ["derive_window"],
}


def test_import_loads_neither_render_nor_warmup():
    out = _run_fresh(
        "import sys, endperiodic; "
        "print(sorted(m for m in ('endperiodic.render', 'endperiodic.warmup', "
        "'endperiodic.window', 'endperiodic.cli', 'fractions', 'dataclasses', "
        "'inspect') "
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
        "import endperiodic; from endperiodic import strip_color; "
        "print(callable(endperiodic.render), "
        "endperiodic.render.__module__)"
    )
    assert out.split() == ["True", "endperiodic.render"]


def test_construct_without_fig_does_not_load_render(tmp_path):
    out = _run_fresh(
        "import sys; from endperiodic.cli import main; "
        f"code = main(['construct', '--integer', '2', '--out', {str(tmp_path)!r}]); "
        "print(code, 'endperiodic.render' in sys.modules, "
        "'endperiodic.window' in sys.modules)"
    )
    assert out.splitlines()[-1] == "0 False False"


@pytest.mark.parametrize("function", [run_pipeline, build_record],
                         ids=lambda f: f.__name__)
def test_construction_takes_only_its_two_parameters(function):
    # the eigendata residual, the corner selection, the genus insertion,
    # the window and the double are fixed
    assert list(inspect.signature(function).parameters) == [
        "M", "weak_perron_k"
    ]
    for setting in ({"insert_genus": True}, {"depth_cap": 5}):
        with pytest.raises(TypeError):
            function(IntMatrix.from_rows([[2]]), **setting)


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


def test_the_fixed_settings_are_stated_once():
    # ``record._config`` is the one statement of the settings a record
    # holds: build_record writes it and load_record compares a stored
    # config with it, so no second table of the fixed values exists
    calls = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_config_dict"
    ]
    assert calls == ["record.py"]
    record = importlib.import_module("endperiodic.record")
    assert not hasattr(record, "_FIXED_CONFIG")
    assert not hasattr(record, "_check_config_values")


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


#: defaulted parameters of exported callables that no package or
#: benchmark call sets, each with the reason it stays
UNSET_DEFAULTS = {
    ("incidence_matrix", "doubled"):
        "the tests' oracle diag(M, M), which acceptance criterion 6 builds",
    ("f0_integer", "k"):
        "part of the input point (the strip a boundary point's limit is "
        "taken from), not a setting",
}


def _exported_defaults() -> list[tuple[str, str, int | None]]:
    """(name, parameter, position) of each defaulted parameter of a
    callable that ``endperiodic`` exports, lazy names too; the position
    is None for a keyword-only parameter."""
    lazy = {name: module for module, names in LAZY_NAMES.items() for name in names}
    out = []
    for name in endperiodic.__all__:
        module = "endperiodic." + lazy[name] if name in lazy else "endperiodic"
        obj = getattr(importlib.import_module(module), name)
        if not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters.values()
        except ValueError:  # an exception class without an __init__ of its own
            continue
        for i, p in enumerate(parameters):
            if p.default is not p.empty:
                out.append(
                    (name, p.name, i if p.kind is p.POSITIONAL_OR_KEYWORD else None)
                )
    return out


def _package_calls() -> list[tuple[str, int, tuple[str, ...]]]:
    """(name, positional argument count, keyword names) of every call in
    the package and the benchmark (not its tests), by the name it calls,
    and of each function that the benchmark's ``tr.span`` calls."""
    calls = []
    for path in SOURCES + BENCH_SOURCES:
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(
                    node.func, "attr", None
                )
                keywords = tuple(k.arg for k in node.keywords)
                calls.append((name, len(node.args), keywords))
    calls += [(name, n, keywords) for _, name, n, keywords in TRACED_CALLS]
    return calls


def test_every_default_is_set_by_a_package_call():
    # a default that only tests override is a configuration the
    # certificate never runs; the check matches names, like the others
    defaults = _exported_defaults()
    assert len(defaults) > 10
    calls = _package_calls()
    unset = [
        (name, parameter)
        for name, parameter, position in defaults
        if not any(
            called == name and (
                parameter in keywords
                or position is not None and positional > position
            )
            for called, positional, keywords in calls
        )
    ]
    assert sorted(unset) == sorted(UNSET_DEFAULTS)


def test_signatures_of_the_one_configuration():
    def parameters(function):
        return inspect.signature(function).parameters

    render = importlib.import_module("endperiodic.render").render
    cross_validate = importlib.import_module("endperiodic.warmup").cross_validate
    assert list(parameters(endperiodic.largest_real_root)) == ["poly"]
    assert all(
        p.default is p.empty
        for p in parameters(endperiodic.build_decomposition).values()
    )
    assert list(parameters(cross_validate)) == ["d"]
    assert list(parameters(render)) == ["kind", "result"]
    assert len(parameters(endperiodic.ConstructionRecord)) == 3
