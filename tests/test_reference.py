"""reference.py stays the one home of the plain references: each of its
public names is imported by some test module, and no other test module
defines a reference of its own (a ref_*, frozen_*, _frozen_* or
_reference* function), so that copies of a kernel do not grow back."""

import pathlib
import re

TESTS = pathlib.Path(__file__).parent


def test_every_reference_is_used_and_none_is_defined_elsewhere():
    sources = {path.stem: path.read_text() for path in TESTS.glob("*.py")}
    public = set(re.findall(r"^def ([a-z]\w*)", sources.pop("reference"),
                            re.M))
    imported = set()
    for text in sources.values():
        for group in re.findall(r"^from reference import (\([^)]*\)|.*)$",
                                text, re.M):
            imported.update(re.findall(r"\w+", group))
    assert public and public <= imported, sorted(public - imported)
    defined = [f"{name}.{fn}" for name, text in sources.items()
               for fn in re.findall(
                   r"^\s*def ((?:ref_|frozen_|_frozen_|_reference)\w*)",
                   text, re.M)]
    assert not defined
