import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_comments():
    # the one python block runs as written, and each print line's output is
    # the value its comment names
    block, = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    expected = [str(ast.literal_eval(line.split("#", 1)[1].strip()))
                for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["II-B", "True", "4"]
    assert out.getvalue().splitlines() == expected
