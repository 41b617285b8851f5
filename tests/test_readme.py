"""The README's library example runs against the current API."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block of the README's "Library use" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_example(), "README.md (Library use)", "exec"), namespace)
    assert capsys.readouterr().out.startswith("RunSummary(")
    assert len(namespace["conserved_ids"]) == namespace["outcome"].summary.sites_conserved > 0
