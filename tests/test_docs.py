import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert capsys.readouterr().out
