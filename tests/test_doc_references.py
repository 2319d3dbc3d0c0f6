"""Every code reference in README.md and DESIGN.md names something that exists.

Checked references are inline code spans (fenced blocks are skipped)
without whitespace that are a dotted ``repro.`` name, a ``src/`` path,
or a ``.py`` path with an optional ``::Name`` suffix.  A relative ``.py``
path resolves against the repository root or ``src/repro``.  A deletion
or rename that leaves a stale name in the docs fails here.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md")
FENCE = re.compile(r"^```.*?^```", re.S | re.M)
SPAN = re.compile(r"`([^`\s]+)`")


def _references(doc):
    text = FENCE.sub("", (ROOT / doc).read_text(encoding="utf-8"))
    return sorted(
        {
            token
            for token in SPAN.findall(text)
            if token.startswith(("repro.", "src/")) or re.search(r"\.py(::\w+)?$", token)
        }
    )


def _resolves(token):
    if token.startswith("repro."):
        parts = token.split(".")
        for split in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            for attr in parts[split:]:
                if not hasattr(obj, attr):
                    return False
                obj = getattr(obj, attr)
            return True
        return False
    path, _, name = token.partition("::")
    for base in (ROOT, ROOT / "src" / "repro"):
        target = base / path
        if target.exists():
            if not name:
                return True
            return re.search(rf"^\s*(class|def) {name}\b", target.read_text(), re.M) is not None
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_doc_references_resolve(doc):
    references = _references(doc)
    assert len(references) >= 10, f"{doc}: too few references found; is the scan broken?"
    stale = [token for token in references if not _resolves(token)]
    assert not stale, f"{doc} names what does not exist: {stale}"


def test_stale_references_are_caught():
    assert _resolves("repro.core.slack.WeightPolicy")
    assert _resolves("tests/test_doc_references.py::test_stale_references_are_caught")
    for stale in (
        "repro.core.slack.NoSuchPolicy",
        "repro.no_such_module",
        "src/repro/no_such_dir/",
        "core/no_such_module.py",
        "tests/test_doc_references.py::NoSuchClass",
    ):
        assert not _resolves(stale), stale
