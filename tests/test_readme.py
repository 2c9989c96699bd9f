"""The README's examples run as written."""
import re
import shlex
from pathlib import Path

from dustmie.cli import run

README = (Path(__file__).parent.parent / "README.md").read_text()


def block(heading, lang):
    """The first fenced `lang` block under the `## heading` section."""
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_examples_run(tmp_path, monkeypatch):
    exec(block("Library example", "python"), {})
    monkeypatch.chdir(tmp_path)
    # the altitude profile the pathloss example reads: altitude_m dB_per_km
    Path("kabs.txt").write_text("0 0.5\n1000 0.2\n")
    commands = block("CLI examples", "sh").replace("\\\n", " ")
    argvs = [shlex.split(line) for line in commands.splitlines()
             if line and not line.startswith("#")]
    assert [argv[:2] for argv in argvs] == [
        ["dustmie", "qext"], ["dustmie", "spectrum"],
        ["dustmie", "attenuation"], ["dustmie", "pathloss"]]
    for argv in argvs:
        assert run(argv[1:]) == 0, argv
    assert Path("qext.csv").exists()
