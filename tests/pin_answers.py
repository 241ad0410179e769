"""Pin today's answers to the regbench queries in tests/data/answers.json.

    python tests/pin_answers.py --write

runs heights seeds 1-3 (3 blocks each) and normal-forms and curves seeds
1-3 (5 blocks each) through `regdyn.cli.run` in one process, and writes,
for each query, its argv, its exit code and a 16-hex digest of its
document minus `timing` (sha256 of `json.dumps(doc, sort_keys=True)`).
The file stores the argv, not the seeds, so `tests/test_answers.py` needs
no `regbench` import and a change to the query generators cannot change
the pinned set.  This is no oracle: it pins the answers as they are.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ANSWERS = os.path.join(ROOT, "tests", "data", "answers.json")
# (workload, seeds, blocks per seed)
PINNED = (("heights", (1, 2, 3), 3), ("normal-forms", (1, 2, 3), 5),
          ("curves", (1, 2, 3), 5))


def answer(run, argv) -> tuple:
    """The exit code, the digest and the document (minus `timing`) of one
    query run in-process by `run`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    doc = json.loads(out.getvalue())
    doc.pop("timing", None)
    text = json.dumps(doc, sort_keys=True)
    return code, hashlib.sha256(text.encode()).hexdigest()[:16], doc


def pinned_queries() -> list:
    from regbench.workloads import blocks
    argvs = []
    for workload, seeds, n in PINNED:
        for seed in seeds:
            stream = blocks(workload, seed)
            for _ in range(n):
                argvs += [q.argv for q in next(stream)]
    return argvs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args != ["--write"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from regdyn.cli import run
    rows = []
    for q in pinned_queries():
        code, digest, _ = answer(run, q)
        rows.append({"argv": q, "code": code, "digest": digest})
    os.makedirs(os.path.dirname(ANSWERS), exist_ok=True)
    with open(ANSWERS, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} answers to {os.path.relpath(ANSWERS, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
