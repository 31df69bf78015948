"""What one cold ncresidue request compiles, module by module.

    python3 tools/cold_cost.py -- --dim 4 --format json

Runs the command line with the arguments after `--` in a fresh interpreter
(this checkout's src/ first on the path, no bytecode written) and lists the
ncresidue modules the request loaded.  For each it prints the source lines,
the code lines and the median milliseconds of compile() over REPEAT runs in
this process, then the totals.  Code lines are the lines that carry an AST
node, docstrings excluded; a statement with a body counts only its header.
Under the benchmark's protocol (no __pycache__) every cold request compiles
every module it loads, at a cost that follows code lines, not text.
"""

from __future__ import annotations

import ast
import json
import os
import statistics
import subprocess
import sys
import time

REPEAT = 9
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# run in the child: the request, then the engine modules it loaded
_CHILD = """
import contextlib, io, json, sys
from ncresidue.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
modules = {name: mod.__file__ for name, mod in sys.modules.items()
           if name == "ncresidue" or name.startswith("ncresidue.")}
print(json.dumps({"exit": code, "modules": modules}))
"""


def loaded_modules(argv):
    """(exit code, {module name: file}) of one request in a fresh interpreter."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                         capture_output=True, text=True, check=True)
    data = json.loads(out.stdout)
    return data["exit"], data["modules"]


def code_lines(source):
    """The lines that carry an AST node, docstrings excluded."""
    tree = ast.parse(source)
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for node in ast.walk(tree):
        if not hasattr(node, "lineno"):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list):  # a compound statement: its header
            lines.update(range(node.lineno, max(body[0].lineno, node.lineno + 1)))
        else:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return len(lines - docs)


def compile_ms(source, path):
    """Median milliseconds of compile() of source over REPEAT runs."""
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        compile(source, path, "exec", dont_inherit=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main(argv):
    if "--" in argv:
        argv = argv[argv.index("--") + 1:]
    code, modules = loaded_modules(argv)
    print(f"request: ncresidue {' '.join(argv)} (exit {code})")
    print(f"{'module':<24}{'source':>8}{'code':>8}{'compile ms':>12}")
    totals = [0, 0, 0.0]
    for name in sorted(modules):
        with open(modules[name], encoding="utf-8") as fh:
            source = fh.read()
        row = [len(source.splitlines()), code_lines(source), compile_ms(source, modules[name])]
        totals = [t + r for t, r in zip(totals, row)]
        print(f"{name:<24}{row[0]:>8}{row[1]:>8}{row[2]:>12.2f}")
    print(f"{'total':<24}{totals[0]:>8}{totals[1]:>8}{totals[2]:>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
