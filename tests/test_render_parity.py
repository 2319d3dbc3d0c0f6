"""Text and markdown carry the same facts.

Every line and every table cell that ``--format text`` prints for
``report``, ``explain`` and ``diff`` must also appear in their
``--format markdown`` output.  Tables are read back cell by cell from
the dashed rule under their header, which marks each column's span.
"""

import json

import pytest

from repro.cli import main

#: a ledger with a grid cell, a fault plan, two runs of one command and a
#: failure whose traceback ends in a line its error field does not repeat.
LEDGER = [
    {"type": "run_started", "run_id": "r1", "t": 1.7e9, "command": "table1", "argv": ["table1"]},
    {"type": "phase", "run_id": "r1", "name": "cell", "tag": "encoder[akiyo]:eas",
     "scheduler": "eas", "benchmark": "encoder[akiyo]", "runtime_seconds": 0.5},
    {"type": "phase", "run_id": "r1", "name": "fault_plan", "tag": "p", "kind": "pe",
     "recovered": True, "survived": False, "energy_delta": 1.5},
    {"type": "run_finished", "run_id": "r1", "t": 1.7e9, "wall_seconds": 0.7,
     "top_phases": [{"name": "eas", "count": 2, "self_seconds": 0.5}],
     "metrics": {"eas.cache_hits": 3, "eas.evaluations": 4}},
    {"type": "run_started", "run_id": "r2", "command": "table1", "argv": ["table1"]},
    {"type": "run_finished", "run_id": "r2", "wall_seconds": 0.6,
     "metrics": {"eas.cache_hits": 5, "eas.evaluations": 4}},
    {"type": "run_started", "run_id": "r3", "command": "schedule", "argv": ["schedule"]},
    {"type": "run_failed", "run_id": "r3", "t": 1.7e9, "error": "CTGError: n_tasks must be >= 1",
     "traceback": "Traceback (most recent call last):\n  File \"cli.py\", line 1, in _run\n"
                  "repro.errors.CTGError: n_tasks must be >= 1\n"},
]

COMMANDS = {
    "report": [],
    "explain": ["--system", "random", "--category", "2", "--index", "5",
                "--n-tasks", "40", "--algorithm", "eas-base"],
    "diff": ["algorithm=eas", "algorithm=edf", "--system", "encoder", "--clip", "foreman"],
}

#: a fact of each view the markdown rendering once dropped.
DROPPED = {
    "report": ["encoder[akiyo]:eas", "repro.errors.CTGError: n_tasks must be >= 1"],
    "explain": ["chain split"],
    "diff": [],
}


def text_facts(text):
    """Every heading, plain line and table cell of a text rendering."""
    facts = []
    spans = None  # the column spans of the table being read
    lines = text.splitlines()
    for line, following in zip(lines, lines[1:] + [""]):
        stripped = line.strip()
        if not stripped:
            spans = None  # a blank line ends a table
            continue
        if _column_spans(line) is not None:  # the rule under a header
            continue
        spans = _column_spans(following) or spans
        if spans is not None:
            facts.extend(line[start:end].strip() for start, end in spans)
        elif stripped.startswith("== ") and stripped.endswith(" =="):
            facts.append(stripped[3:-3])
        else:
            facts.append(stripped)
    return [fact for fact in facts if fact]


def _column_spans(rule):
    """The ``[start, end)`` of each dash group of a table rule, or None."""
    if "-" not in rule or set(rule) != {"-", " "}:
        return None
    spans, start = [], None
    for position, char in enumerate(rule + " "):
        if char == "-" and start is None:
            start = position
        elif char != "-" and start is not None:
            spans.append((start, position))
            start = None
    return spans


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_markdown_carries_every_text_fact(command, tmp_path, capsys):
    outputs = {}
    for fmt in ("text", "markdown"):
        argv = [command, *COMMANDS[command], "--format", fmt]
        if command == "report":
            ledger = tmp_path / f"{fmt}.jsonl"
            ledger.write_text("".join(json.dumps(record) + "\n" for record in LEDGER))
            argv += ["--ledger", str(ledger)]
        assert main(argv) == 0
        outputs[fmt] = capsys.readouterr().out
    text, markdown = outputs["text"], outputs["markdown"]
    for fact in DROPPED[command]:
        assert fact in text
        assert fact in markdown
    # Case-blind: markdown capitalises the first word of a heading.
    missing = [fact for fact in text_facts(text) if fact.lower() not in markdown.lower()]
    assert missing == []
