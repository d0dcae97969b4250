"""The README's Library example runs as written."""

import re
from pathlib import Path

from adoforge import verify_output

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    library = README.read_text().split("## Library", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", library.split("\n## ", 1)[0], re.S)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    # under -O the block's own assert is stripped, so check its result here
    assert names["rep"].space_dim == 4
    assert verify_output(names["h3"], names["rep"]).ok
    assert names["cert"].steps[-1]["kind"] == "verified"
