"""The import structure of the package and of the tests' reference layer,
read from their source with ``ast``.

Nothing here imports ``asmkit``: each module's import statements are parsed,
including those inside functions.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "asmkit"
BENCH = TESTS.parent / "bench"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
# The isomorphism search, and its ``Renaming`` view that the package exports.
SEARCH = {"isomorphism_maps", "isomorphisms_between"}


def _imports(module: str, directory: Path = PACKAGE) -> list[tuple[str, tuple[str, ...]]]:
    """(source, names) for each import in the module, with relative sources
    written absolutely (``.kernel`` as ``asmkit.kernel``); ``import x`` has
    no names."""
    tree = ast.parse((directory / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                source = f"asmkit.{source}" if source else "asmkit"
            found.append((source, tuple(alias.name for alias in node.names)))
    return found


def _internal(source: str) -> bool:
    return source == "asmkit" or source.startswith("asmkit.")


def test_modules_are_found():
    assert {"generate", "harness", "kernel", "postulates", "symmetry"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_crosses_modules(module):
    private = [
        (source, name)
        for source, names in _imports(module)
        if _internal(source)
        for name in names
        if name.startswith("_")
    ]
    assert private == []


def test_generate_reads_no_checker():
    sources = {source for source, _ in _imports("generate") if _internal(source)}
    assert sources <= {"asmkit.kernel", "asmkit.symmetry", "asmkit.transition"}


@pytest.mark.parametrize("module", MODULES)
def test_only_symmetry_imports_the_search(module):
    # Every other caller goes through ``symmetry``; the package's
    # ``__init__`` only exports the public view.
    imported = {
        name for source, names in _imports(module) if source in ("asmkit", "asmkit.kernel") for name in names
    }
    allowed = {"symmetry": SEARCH, "__init__": {"isomorphisms_between"}}.get(module, set())
    assert imported & SEARCH <= allowed


def test_symmetry_reads_only_the_kernel():
    assert {source for source, _ in _imports("symmetry") if _internal(source)} == {"asmkit.kernel"}


def test_harness_takes_only_the_suite_from_generate():
    imports = _imports("harness")
    assert [source for source, _ in imports if source.split(".")[0] == "random"] == []
    from_generate = {name for source, names in imports if source == "asmkit.generate" for name in names}
    assert from_generate == {"GeneratorConfig", "generate_algorithm_suite"}


def test_only_the_map_classes_read_their_element_maps():
    # ``kernel`` defines ``Renaming``, the one map class; every other module
    # computes on raw element maps and never reads a ``Renaming``'s ``_map``.
    readers = {
        module
        for module in MODULES
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_map"
    }
    assert readers <= {"kernel"}


def _defined(statement: ast.stmt) -> set[str]:
    """The public names a top-level statement defines: a function, a class
    or a constant."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {statement.name}
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = {target.id for target in targets if isinstance(target, ast.Name)}
    else:
        names = set()
    return {name for name in names if not name.startswith("_")}


def _read(node: ast.AST) -> set[str]:
    """The names read under ``node``: identifiers loaded, attributes and imports."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            found.update(alias.name for alias in sub.names)
    return found


def _named_in_bench() -> set[str]:
    """The names ``bench/`` reads, and the function names ``spans.TRACED``
    looks up by string."""
    named = set()
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named |= _read(tree)
        for statement in tree.body:
            if isinstance(statement, ast.Assign) and "TRACED" in _defined(statement):
                named |= {c.value for c in ast.walk(statement.value) if isinstance(c, ast.Constant)}
    return named


def test_every_public_name_is_reached():
    # A public top-level name of a module is read by another top-level
    # statement of the package, or named by the benchmark; ``__init__``'s
    # re-export alone does not count, so what only the tests run lives in
    # ``tests/``.
    statements = [
        (module, statement)
        for module in MODULES
        if module != "__init__"
        for statement in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body
    ]
    reads = [_read(statement) for _, statement in statements]
    named = _named_in_bench()
    unreached = [
        f"{module}.{name}"
        for k, (module, statement) in enumerate(statements)
        for name in sorted(_defined(statement))
        if name not in named and not any(name in read for j, read in enumerate(reads) if j != k)
    ]
    assert unreached == []


def _attributes_read(directory: Path) -> set[str]:
    """The attribute names read anywhere in the directory's modules."""
    return {
        node.attr
        for path in directory.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }


def test_every_public_method_is_reached():
    # A public method or property of a public class of the package is read
    # as an attribute somewhere in the package or the benchmark, as a
    # public name must be reached; what only the tests call lives in
    # ``tests/``.
    read = _attributes_read(PACKAGE) | _attributes_read(BENCH)
    unreached = [
        f"{module}.{cls.name}.{method.name}"
        for module in MODULES
        for cls in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not method.name.startswith("_")
        and method.name not in read
    ]
    assert unreached == []


def test_reference_reads_no_checker():
    # The oracles read the kernel, the similarity primitives and the step,
    # never a checker's reduction, and not the package root that exports one.
    internal = [(source, names) for source, names in _imports("reference", TESTS) if _internal(source)]
    sources = {source.removeprefix("asmkit.") for source, _ in internal}
    assert sources <= {"kernel", "errors", "similarity", "transition"}
    assert {name for source, names in internal if source == "asmkit.transition" for name in names} <= {
        "Algorithm", "Update", "step", "update_set", "apply_rule", "apply_updates", "table_diff", "canonical_step",
        "lift_update",
    }


MEMOS = {"cache", "lru_cache"}


def _memo_uses(module: str) -> tuple[int, set[str]]:
    """How often the module names ``functools.cache`` or ``lru_cache``, and
    the functions they decorate."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))

    def is_memo(node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            node = node.func
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in MEMOS
        )

    uses = sum(is_memo(node) for node in ast.walk(tree) if not isinstance(node, ast.Call))
    decorated = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(is_memo, node.decorator_list))
    }
    return uses, decorated


def test_the_only_memoised_function_is_the_cli_parser():
    # Every other cache lives on the object it describes and dies with it; a
    # module-level memo would keep algorithms, states or reports alive.
    uses = {module: _memo_uses(module) for module in MODULES}
    assert {module: found for module, found in uses.items() if found[0]} == {"cli": (1, {"build_parser"})}
    # Only through the ``functools`` name, which the count above sees.
    for module in MODULES:
        for source, names in _imports(module):
            assert source != "functools" or not MEMOS & set(names)
