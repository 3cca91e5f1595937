"""Golden artifacts: the exact bytes `cli.run` writes for fixed invocations.

A refactor that keeps every verdict must also keep these hashes.  A change
that moves one on purpose says which one and why.
"""

import hashlib

import pytest

from shearkit.cli import EXIT_OK, run

GOLDEN = [
    (
        ["closure", "--shear-family", "4", "--monomial-targets", "4", "-D", "4"],
        {"-o": "86ae85f266187309db5a079b2ed1448ac76d3d664ab8b59768eae5495e015713"},
    ),
    (
        ["compat", "--d1", "[1;0;0]", "--d2", "[0;0;1]", "-d", "4"],
        {"-o": "e6343ab163bf1c3eb674d38e190f86db27b1cd6e180a644d37fcd42bde0ec4b3"},
    ),
    (
        ["codim2", "--gens", "x1", "x2", "-n", "3", "-d", "3"],
        {"-o": "216b5ac4a3201168ce43a67d479f13d3bf55ebef853e8650bafacb6c0dc2c3cb"},
    ),
    (
        ["decompose", "--field", "[x1*x2; x2^2]"],
        {"-o": "993fa5a6b9b5cefb12cc7179f653be5a37b691b8b2475e2e99a4211c73c68efa"},
    ),
    (
        ["basin", "--builtin", "attracting-shears", "--nu", "50", "--nv", "50"],
        {
            "--csv": "1e9a1276d5be3e089134506df592bb6c9f7da7d4189882954c3885776755d005",
            "--pgm": "79d59b1cdda1861638ab2f435b206ba6aefde74d7f3963e36a441abe22ff6b2f",
        },
    ),
]


@pytest.mark.parametrize("argv, outputs", GOLDEN, ids=[case[0][0] for case in GOLDEN])
def test_artifact_bytes_are_pinned(tmp_path, argv, outputs):
    paths = {flag: tmp_path / f"out{i}" for i, flag in enumerate(outputs)}
    extra = [part for flag, path in paths.items() for part in (flag, str(path))]
    assert run(argv + extra) == EXIT_OK
    digests = {
        flag: hashlib.sha256(path.read_bytes()).hexdigest() for flag, path in paths.items()
    }
    assert digests == outputs
