"""The demos print exactly what they printed when their output was frozen."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordpoly

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of each demo's stdout.
STDOUT_SHA256 = {
    "four_ways_to_h.py": "cecab0bb50743de44a5d2aafe0650941ad59393866604201a66670ba871d5728",
    "multiplex_tour.py": "0526824afa6a55473be5983a979e4b2d6bf21fdeb2c64c26b77b20cfb484c597",
    "new_face_census.py": "f5a5481cdfb93760a2e4cc3524237d924083ed07e4e59d1f81d7e571d346a3a6",
    "shelling_walkthrough.py": "c9ccb053faca011fd1acba18ea10927f80377d34da9e898f5695f283748fab0b",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(name):
    src = os.path.dirname(os.path.dirname(ordpoly.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], env=env, capture_output=True, check=True
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
