"""Check that each mutant in mutants.json is killed by the tests named for it.

A mutant replaces one text, which must occur exactly once, in a file under
src/. The runner first runs every named test on src/ as it is, where each
must pass. Then, per mutant, it applies the mutant to a temporary copy of
src/ and runs each of its tests with pytest against that copy; the mutant
is killed when every one of them fails. Run from anywhere:

    python tests/run_mutants.py

Exits 0 when every mutant is killed, 1 when one survives, and 2 when a
mutant cannot be applied or a test cannot run as named.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
PASSED, FAILED = 0, 1  # pytest's exit codes; any other means the test did not run


def pytest_exit(node: str, src: Path) -> int:
    """pytest's exit code for the test `node`, importing the package from `src`."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node]
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode not in (PASSED, FAILED):
        print(proc.stdout.decode(errors="replace")[-2000:])
    return proc.returncode


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    for node in dict.fromkeys(node for mutant in mutants for node in mutant["tests"]):
        if (code := pytest_exit(node, ROOT / "src")) != PASSED:
            print(f"error: {node} exits {code} on src/ as it is")
            return 2
    survivors = 0
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as work:
            src = Path(work) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            path = Path(work) / mutant["file"]
            text = path.read_text(encoding="utf-8")
            if text.count(mutant["old"]) != 1:
                print(f"error: {mutant['name']}: its old text is not once in {mutant['file']}")
                return 2
            path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
            codes = {node: pytest_exit(node, src) for node in mutant["tests"]}
        if any(code not in (PASSED, FAILED) for code in codes.values()):
            print(f"error: {mutant['name']}: a test did not run: {codes}")
            return 2
        passed = [node for node, code in codes.items() if code == PASSED]
        survivors += bool(passed)
        print(f"{'SURVIVED' if passed else 'killed'}: {mutant['name']}")
        for node in passed:
            print(f"  passes: {node}")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
