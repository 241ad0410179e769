"""Every pinned regbench query still gives its pinned exit code and answer
(tests/data/answers.json, written by `python tests/pin_answers.py --write`).

A change that alters answers on purpose rewrites the file and lists each
changed query, and why, in CHANGES.md."""

import json
import os
import sys

from regdyn.cli import run

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from pin_answers import ANSWERS, answer  # noqa: E402


def test_every_pinned_query_gives_its_pinned_answer():
    with open(ANSWERS) as fh:
        pinned = json.load(fh)
    assert len(pinned) == 1527
    changed, first = [], None
    for row in pinned:
        code, digest, doc = answer(run, row["argv"])
        if (code, digest) != (row["code"], row["digest"]):
            changed.append(f"{row['argv']}: exit {row['code']} -> {code}, "
                           f"{row['digest']} -> {digest}")
            first = first or json.dumps(doc, indent=2)
    assert not changed, (f"{len(changed)} changed answers:\n" + "\n".join(changed)
                         + f"\nthe first changed document:\n{first}")
