"""Guard sweep: does tier-1 fail when one guard is replaced by `pass`?

Usage, from any directory:

    python3 tests/guard_sweep.py [--jobs N] TARGET [TARGET ...]

A TARGET is a module of the package (``fileio``) or a function in one
(``obstruction:ObstructionCertificate.verify``).  A guard is a ``raise``,
a ``_require(...)`` call, a ``return False`` (alone or heading a tuple), or
a statement of an ``except`` body.  Each worker copies the repository to a
temporary directory, and for one guard at a time replaces the statement by
``pass`` (keeping every line number), runs the tier-1 suite with ``-x``,
and puts the file back.  A guard whose mutant passes the suite is a
survivor: no test reaches it.  A mutant that runs past TIMEOUT seconds
counts as caught.  Survivors are printed as ``path:line: source``; the
exit status is 1 when any guard survives.  The file name keeps the sweep
out of pytest's collection.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "nervecert"
TIMEOUT = 900  # a mutant that loops runs past this; the whole suite takes under a minute
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def _is_guard(node: ast.stmt, in_handler: bool) -> bool:
    if in_handler or isinstance(node, ast.Raise):
        return True
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        return getattr(node.value.func, "id", None) == "_require"
    if isinstance(node, ast.Return) and node.value is not None:
        value = node.value.elts[0] if isinstance(node.value, ast.Tuple) else node.value
        return isinstance(value, ast.Constant) and value.value is False
    return False


def _scope(tree: ast.Module, qualname: str | None) -> ast.AST:
    node: ast.AST = tree
    for name in qualname.split(".") if qualname else ():
        node = next(
            child for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == name
        )
    return node


def guards(target: str) -> list[tuple[Path, int, int]]:
    """(file, first line, last line) of every guard of TARGET, in line order."""
    module, _, qualname = target.partition(":")
    path = PACKAGE / f"{module}.py"
    found: dict[int, int] = {}

    def visit(node: ast.AST, in_handler: bool) -> None:
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, field, ()):
                if isinstance(child, ast.ExceptHandler):
                    visit(child, True)
                    continue
                if _is_guard(child, in_handler and field == "body"):
                    found.setdefault(child.lineno, child.end_lineno)
                visit(child, False)

    visit(_scope(ast.parse((REPO / path).read_text()), qualname or None), False)
    return [(path, first, last) for first, last in sorted(found.items())]


def _mutant(text: str, first: int, last: int) -> str:
    lines = text.splitlines(keepends=True)
    indent = lines[first - 1][: len(lines[first - 1]) - len(lines[first - 1].lstrip())]
    lines[first - 1] = f"{indent}pass\n"
    for i in range(first, last):
        lines[i] = "\n"
    return "".join(lines)


def _caught(copy: Path, path: Path, first: int, last: int) -> bool:
    original = (copy / path).read_text()
    (copy / path).write_text(_mutant(original, first, last))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
        return done.returncode != 0
    except subprocess.TimeoutExpired:
        return True
    finally:
        (copy / path).write_text(original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", help="module or module:Qualified.name")
    parser.add_argument("--jobs", type=int, default=2, help="copies tested at once (default 2)")
    args = parser.parse_args(argv)
    todo = [g for target in args.targets for g in guards(target)]
    print(f"{len(todo)} guards in {', '.join(args.targets)}", flush=True)
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")
    with tempfile.TemporaryDirectory(prefix="guard-sweep-") as tmp:
        copies: Queue[Path] = Queue()
        for i in range(max(1, args.jobs)):
            copies.put(Path(shutil.copytree(REPO, Path(tmp) / str(i), ignore=ignore)))

        def sweep(guard: tuple[Path, int, int]) -> bool:
            copy = copies.get()
            try:
                return _caught(copy, *guard)
            finally:
                copies.put(copy)

        with ThreadPoolExecutor(max(1, args.jobs)) as pool:
            caught = list(pool.map(sweep, todo))
    survivors = [g for g, ok in zip(todo, caught) if not ok]
    for path, first, _ in survivors:
        source = (REPO / path).read_text().splitlines()[first - 1].strip()
        print(f"{path}:{first}: {source}")
    print(f"{len(survivors)} of {len(todo)} guards survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
