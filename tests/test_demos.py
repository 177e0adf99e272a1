"""Each demo script runs to completion and prints the same bytes as
before: its stdout is pinned by SHA-256."""

import glob
import hashlib
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")
DEMOS = sorted(glob.glob(os.path.join(HERE, os.pardir, "demos", "*.py")))

STDOUT_SHA256 = {
    "01_finite_sets.py": "8130d0e2ab0ef0676cd5258553273e96ee482784bd09a56849e8eec758d618de",
    "02_monoids_and_groups.py": "53624ce1049ae1ca88c00e5cb66938a234da25f0944fc9f0f13a7ecea70cbef6",
    "03_actions_and_adjunctions.py":
        "08054c08016ccbaa88c4cb8d254eb79f2256077b5421869d0333ae271e32430f",
    "04_invariants_and_stabilizers.py":
        "3139928d70bcc968bbdf2438aa819385bcc0b17dc97840760b05a7b5a63ebc33",
    "05_reconstruction.py": "49fa438ad3ba2b11dc440663942ad4b8615562882cec0b29b046e7103beae158",
    "06_galois_correspondence.py":
        "f15c556147975565a86a329768fa54664173657aa18eba1699c959e55d0b072f",
}


def test_every_demo_is_pinned():
    assert sorted(map(os.path.basename, DEMOS)) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, path], capture_output=True, env=env)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[os.path.basename(path)]
