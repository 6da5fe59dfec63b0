import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
assert BLOCKS, "README.md has no ```python block"


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs_as_a_script(tmp_path, block):
    # each block runs on its own, as a script file in an empty directory, so
    # a block that starts workers by spawn (macOS, Windows) is imported again
    # from that file
    script = tmp_path / "block.py"
    script.write_text(block, encoding="utf-8")
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
