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
    assert sources <= {"asmkit.kernel", "asmkit.similarity", "asmkit.symmetry", "asmkit.transition"}


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
    # ``kernel`` and ``similarity`` define ``InjectiveMap`` and its views;
    # every other module computes on raw element maps and never reads a
    # view's ``_map``.
    readers = {
        module
        for module in MODULES
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_map"
    }
    assert readers <= {"kernel", "similarity"}


def test_harness_does_not_import_the_similarity_view():
    assert [names for _, names in _imports("harness") if "SimilarityFunction" in names] == []


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
