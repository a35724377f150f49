"""Per-package table of the function lines of ``src/repro`` a run reached.

    export REPRO_CENSUS_DIR=/tmp/census-out          # any empty directory
    PYTHONPATH=docs/perf/pr-24/census python3 benchmarks/e2e/run.py --smoke
    python3 docs/perf/pr-24/census/report.py src/repro $REPRO_CENSUS_DIR

``sitecustomize.py`` wrote one ``reached-<pid>.json`` per process: the
``(file, name, first line)`` of every code object called.  Here every
``def`` under the source root is a span ``def`` line .. last line (decorators
excluded, docstring included; a nested ``def`` is a span of its own *and* part
of its parent's, which is how ROADMAP's 13,599-line denominator was counted),
and a span is *reached* when a dumped triple names its
file and name and falls on its ``def`` line or one of its decorator lines
(``co_firstlineno`` of a decorated function is its first decorator).
Triples match on line numbers, so report on the tree the run executed.
Lambdas, comprehensions and class bodies are not functions: their lines
belong to whatever ``def`` encloses them, or to none.

Prints one row per package, one per module of ``--modules``, and the total.
``before.txt`` / ``after.txt`` beside this file are its output on the parent
commit (``654fe94``) and on PR 24.
"""

from __future__ import annotations

import argparse
import ast
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

Span = Tuple[str, Set[int], int]  # name, candidate first lines, lines in the span


def function_spans(path: Path) -> Iterator[Span]:
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first_lines = {node.lineno} | {decorator.lineno for decorator in node.decorator_list}
            yield node.name, first_lines, node.end_lineno - node.lineno + 1


def reached_triples(dump_dir: Path) -> Tuple[Set[Tuple[str, str, int]], int]:
    """Every dumped triple, and how many processes dumped."""
    triples: Set[Tuple[str, str, int]] = set()
    dumps = sorted(dump_dir.glob("reached-*.json"))
    if not dumps:
        raise SystemExit(f"no reached-*.json under {dump_dir}")
    for dump in dumps:
        for file, name, line in json.loads(dump.read_text())["reached"]:
            triples.add((file.replace("\\", "/"), name, int(line)))
    return triples, len(dumps)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("source_root", type=Path, help="e.g. src/repro")
    parser.add_argument("dump_dir", type=Path, help="the REPRO_CENSUS_DIR of the run")
    parser.add_argument(
        "--modules", nargs="*", default=[],
        help="modules to list on their own rows, e.g. store/replicas.py",
    )
    args = parser.parse_args()

    triples, processes = reached_triples(args.dump_dir)
    by_file: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for path in sorted(args.source_root.rglob("*.py")):
        relative = path.relative_to(args.source_root).as_posix()
        for name, first_lines, lines in function_spans(path):
            row = by_file[relative]
            hit = any((relative, name, line) in triples for line in first_lines)
            row[0] += 1
            row[1] += hit
            row[2] += lines
            row[3] += lines if hit else 0

    def package_of(relative: str) -> str:
        return relative.split("/", 1)[0] if "/" in relative else "(top level)"

    by_package: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for relative, row in by_file.items():
        for index, value in enumerate(row):
            by_package[package_of(relative)][index] += value
    total = [sum(row[index] for row in by_file.values()) for index in range(4)]

    def line(label: str, row: List[int]) -> str:
        functions, called, lines, reached = row
        share = reached / lines if lines else 0.0
        return f"{label:<28} {called:>5} / {functions:<5} {reached:>6} / {lines:<6} {share:.3f}"

    print(f"# {processes} processes, {len(triples)} distinct (file, name, line) triples")
    print(f"{'package':<28} {'functions called':>13} {'function lines reached':>15} share")
    for package in sorted(by_package):
        print(line(package, by_package[package]))
    for module in args.modules:
        print(line(module, by_file[module]) if module in by_file else f"{module:<28} absent")
    print(line("src/repro", total))


if __name__ == "__main__":
    main()
