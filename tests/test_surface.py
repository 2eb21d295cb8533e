"""The package exports only what README documents."""

import re
from pathlib import Path

import quatu11

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_is_documented():
    text = README.read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", text, re.S))
    missing = [name for name in quatu11.__all__
               if not re.search(rf"(?<![\w.]){re.escape(name)}\b", code)]
    assert missing == []
