"""Line counts of ``src/repro``, per package and in total.

Prints two numbers for each package (each directory directly under
``src/repro``; the top-level modules count as ``repro``) and their sum:

* **raw** — every line of every ``.py`` file;
* **code** — lines that carry code: no blank lines, no comment-only
  lines and no docstrings (the first string statement of a module,
  class or function). A line a multi-line expression spans counts
  once.

``--against REV`` also reads the ``.py`` files under ``src/repro`` at
git revision ``REV`` (with ``git show``; files added or removed since
count on their own side only) and prints the change from ``REV`` to the
working tree::

    python3 benchmarks/count_lines.py
    python3 benchmarks/count_lines.py --against HEAD~1
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = "src/repro"

#: Tokens that carry no code on their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """``(raw, code)`` line counts of one Python source text."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def package_of(path: str) -> str:
    """The package a path under ``src/repro`` counts toward."""
    parts = pathlib.PurePosixPath(path).relative_to(SRC).parts
    return parts[0] if len(parts) > 1 else "repro"


def tally(sources: dict[str, str]) -> dict[str, tuple[int, int]]:
    """Path -> source, summed into package -> (raw, code)."""
    totals: dict[str, tuple[int, int]] = {}
    for path, source in sources.items():
        raw, code = count(source)
        old_raw, old_code = totals.get(package_of(path), (0, 0))
        totals[package_of(path)] = (old_raw + raw, old_code + code)
    return totals


def tree_sources() -> dict[str, str]:
    """The working tree's ``.py`` files under ``src/repro``."""
    return {p.relative_to(ROOT).as_posix(): p.read_text()
            for p in sorted((ROOT / SRC).rglob("*.py"))}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def rev_sources(rev: str) -> dict[str, str]:
    """The ``.py`` files under ``src/repro`` at git revision ``rev``."""
    paths = _git("ls-tree", "-r", "--name-only", rev, "--", SRC).split()
    return {p: _git("show", f"{rev}:{p}") for p in paths if p.endswith(".py")}


def report(now: dict[str, tuple[int, int]],
           then: dict[str, tuple[int, int]] | None = None) -> list[str]:
    """The table: one row per package, then the total."""
    before = then or {}
    names = sorted(set(now) | set(before))
    rows = [(name, now.get(name, (0, 0)), before.get(name, (0, 0)))
            for name in names]
    rows.append(("total", _sum(now.values()), _sum(before.values())))
    lines = [f"{'package':<12}{'raw':>8}{'code':>8}"
             + (f"{'raw +/-':>10}{'code +/-':>10}" if then is not None else "")]
    for name, (raw, code), (old_raw, old_code) in rows:
        line = f"{name:<12}{raw:>8}{code:>8}"
        if then is not None:
            line += f"{raw - old_raw:>+10}{code - old_code:>+10}"
        lines.append(line)
    return lines


def _sum(counts) -> tuple[int, int]:
    return (sum(raw for raw, _ in counts), sum(code for _, code in counts))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also print the change since git revision REV")
    args = parser.parse_args(argv)
    then = tally(rev_sources(args.against)) if args.against else None
    print("\n".join(report(tally(tree_sources()), then)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
