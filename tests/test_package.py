"""The package boundary: what ``import gfda`` and a command load, the public
names, the runtime/reference split, and the README's code blocks."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import gfda
from gfda import cli

ROOT = Path(__file__).resolve().parent.parent
RUNTIME = ("cli", "classify", "data", "fisher", "linalg", "subspace")


def run_python(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_submodule():
    run_python("import sys, gfda\n"
               "loaded = [m for m in sys.modules if m.startswith('gfda.')]\n"
               "assert not loaded, loaded")


def test_eval_leaves_checks_synth_and_reference_unloaded(tmp_path):
    train = tmp_path / "train.csv"
    assert cli.main(["synth", "--kind", "mixture-set1", "--classes", "3",
                     "--dim", "12", "--count", "6", "--seed", "4",
                     "--out", str(train)]) == 0
    for method in ("gfda-linear", "gds", "regLDA"):
        argv = ["eval", "--train", str(train), "--method", method,
                "--train-count", "3", "--repetitions", "2",
                "--out", str(tmp_path / f"eval_{method}.csv")]
        run_python("import sys\nfrom gfda import cli\n"
                   f"assert cli.main({argv!r}) == 0\n"
                   "loaded = {'gfda.checks', 'gfda.synth', 'gfda.reference'}"
                   " & set(sys.modules)\n"
                   "assert not loaded, loaded")


def test_every_public_name_resolves():
    assert len(set(gfda.__all__)) == len(gfda.__all__)
    for name in gfda.__all__:
        value = getattr(gfda, name)
        assert value.__module__.startswith("gfda."), name


def test_runtime_modules_do_not_import_reference():
    for name in RUNTIME:
        tree = ast.parse((ROOT / "src" / "gfda" / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            else:
                continue
            assert not any(m.split(".")[-1] == "reference"
                           for m in imported), (name, imported)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md")
                        .read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
