"""The README's examples run against the current API and command line."""
import re
import shlex
from pathlib import Path

from deferauction.cli import EXIT_OK, build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The text of the README section headed `## {title}`."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The python block of the README's "Library use" section."""
    return re.search(r"```python\n(.*?)```", section("Library use"), re.DOTALL).group(1)


def commands() -> list[list[str]]:
    """The arguments of each `deferauction` command in the "Command line" block."""
    block = re.search(r"```\n(.*?)```", section("Command line"), re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("deferauction ")]


def test_library_example_runs(capsys):
    namespace: dict = {}
    exec(compile(library_example(), "README.md (Library use)", "exec"), namespace)
    assert capsys.readouterr().out.startswith("RunSummary(")
    assert len(namespace["conserved_ids"]) == namespace["outcome"].summary.sites_conserved > 0


def test_command_line_examples_parse():
    parser = build_parser()
    names = [parser.parse_args(argv).command for argv in commands()]
    assert names == ["run", "sweep", "sweep", "gen-data", "validate", "extrapolate"]


def test_run_and_sweep_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text('{"dataset": {"synthetic": {"n_sites": 30}}}', "utf-8")
    argvs = [argv for argv in commands() if argv[0] in ("run", "sweep")]
    assert [argv[0] for argv in argvs] == ["run", "sweep", "sweep"]
    assert [main(argv) for argv in argvs] == [EXIT_OK] * 3
    assert capsys.readouterr().out.endswith("sweep: 36 points -> runs/sweep-2/sweep.csv\n")
    assert (tmp_path / "runs" / "base" / "summary.json").exists()
    assert (tmp_path / "runs" / "sweep-2" / "point_0035" / "manifest.json").exists()


def test_data_and_extrapolate_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argvs = [argv for argv in commands() if argv[0] in ("gen-data", "validate", "extrapolate")]
    assert [argv[0] for argv in argvs] == ["gen-data", "validate", "extrapolate"]
    assert [main(argv) for argv in argvs] == [EXIT_OK] * 3
    assert "Conserving 54,000 ha" in capsys.readouterr().out
