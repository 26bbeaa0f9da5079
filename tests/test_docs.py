import contextlib
import io
import pathlib
import re
import shlex

from spnexplain.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert capsys.readouterr().out


def test_cli_block_runs(tmp_path, monkeypatch):
    # every command of the CLI block, in order, in one directory: a flag
    # that the docs name but the CLI no longer has fails here
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n"):]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("spnexplain ")]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for command in commands:
        for code in re.findall(r"\$\(python3 -c '(.*?)'\)", command):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                exec(code, {})
            command = command.replace(f"$(python3 -c '{code}')", out.getvalue().strip())
        assert main(shlex.split(command)[1:]) == 0, command
