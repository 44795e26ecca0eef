"""The README's examples run: every JSON config parses, and the library
example executes as written."""

import json
import re
from pathlib import Path

from rodwave import parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_every_json_block_is_an_accepted_config():
    blocks = _blocks(README, "json")
    assert blocks
    for block in blocks:
        parse_config(json.loads(block))


def test_library_use_example_runs():
    section = README.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = _blocks(section, "python")
    exec(compile(block, "README.md (Library use)", "exec"), {})
