"""Pinned answers of stable-manifold queries past the workload's reach.

The regbench normal-forms queries stop at order 14, where the numerators of
the series stay small, and draw degree-2 maps only.  These are the CI
contract's deeper cases, whose numerators run to hundreds of digits, and two
parabolic cases it has that the workload lacks (mu != 0, and k = 2 on a
degree-4 map): each must keep its exit code and the digest of its document
minus `timing` (`pin_answers.answer`).  About 2 s."""

import os
import sys

import pytest

from regdyn.cli import run

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from pin_answers import answer  # noqa: E402

SADDLE = ["stable-manifold", "--map", "2*z^2+w, w^2", "--point", "2"]
PARABOLIC = ["stable-manifold", "--map", "z^2 + w^2 + w + 1/2, z*w + w^2 + 1/2*z",
             "--point", "0"]


@pytest.mark.parametrize("argv, digest", [
    (SADDLE + ["--order", "32"], "4461bff740f27353"),
    (SADDLE + ["--order", "48"], "fbb97c26d76cc36a"),
    (PARABOLIC + ["--order", "32"], "f17661fcdf956cf1"),
    (["stable-manifold", "--map", "z^2 + w^2 - w + 1, z*w - w^2 - z", "--point", "0",
      "--order", "12"], "d188f8a80895b7a0"),  # parabolic, mu != 0
    (["stable-manifold", "--map", "z^4 + w, z^3*w + z*w^3 + w^4 + z", "--point", "0",
      "--order", "12"], "5e9bae2a8b3ed0cc"),  # parabolic, k = 2
])
def test_deep_stable_manifold_keeps_its_answer(argv, digest):
    assert answer(run, argv)[:2] == (0, digest)
