"""Every python code block in README.md runs as written."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2  # the library sketch and the LSTM loop


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a block that writes files writes here
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "readme"})
