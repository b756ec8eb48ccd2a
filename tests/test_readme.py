from __future__ import annotations

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_example() -> str:
    """The first Python block of the README's Library section."""
    text = open(README, encoding="utf-8").read()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_is_reproducible(capsys):
    code = compile(library_example(), "README.md", "exec")
    runs = []
    for _ in range(2):
        namespace: dict = {}
        exec(code, namespace)
        out2 = namespace["out2"]
        assert out2.graph is namespace["g"] and namespace["moves"]
        runs.append(out2.member_list())
    assert runs[0] == runs[1]
    capsys.readouterr()  # the example prints its run's best weight
