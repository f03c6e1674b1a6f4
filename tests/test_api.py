"""The package's public names are pinned, so an export change is deliberate, and
no module imports a name it never reads."""

import ast
from pathlib import Path

import binomsums

PUBLIC = [
    "CongruenceReport",
    "FactorialTables",
    "IdentityRecord",
    "PrimeContext",
    "QuadraticRepresentation",
    "__version__",
    "all_ids",
    "check",
    "coefficient_closed_form",
    "coefficient_table",
    "default_ids",
    "is_prime",
    "iter_suite",
    "legendre_symbol",
    "mod_inverse",
    "primes_in_range",
    "registry",
    "represent",
    "run_identity_suite",
    "run_suite",
    "sqrt_mod",
]


def test_public_api_is_pinned():
    assert sorted(binomsums.__all__) == PUBLIC
    missing = [name for name in binomsums.__all__ if not hasattr(binomsums, name)]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads, besides those its ``__all__`` lists."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports its re-exports only to list them in __all__
    modules = sorted(Path(binomsums.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    assert [unused for path in modules for unused in _unused_imports(path)] == []
