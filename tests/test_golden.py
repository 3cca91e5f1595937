"""Golden artifacts: the exact bytes `cli.run` writes for fixed invocations.

A refactor that keeps every verdict must also keep these hashes.  A change
that moves one on purpose says which one and why.  An argument containing
``{work}`` names a file in the test's directory; the 3-variable shear family
at degree 3 is written there as ``shear3-D3.txt``.
"""

import hashlib

import pytest

from shearkit.cli import EXIT_OK, run
from shearkit.density import shear_generator_family
from shearkit.fields import format_vector_field

GOLDEN = [
    pytest.param(
        ["closure", "--shear-family", "4", "--monomial-targets", "4", "-D", "4"],
        {"-o": "86ae85f266187309db5a079b2ed1448ac76d3d664ab8b59768eae5495e015713"},
        id="closure",
    ),
    pytest.param(
        ["compat", "--d1", "[1;0;0]", "--d2", "[0;0;1]", "-d", "4"],
        {"-o": "e6343ab163bf1c3eb674d38e190f86db27b1cd6e180a644d37fcd42bde0ec4b3"},
        id="compat",
    ),
    pytest.param(
        ["codim2", "--gens", "x1", "x2", "-n", "3", "-d", "3"],
        {"-o": "216b5ac4a3201168ce43a67d479f13d3bf55ebef853e8650bafacb6c0dc2c3cb"},
        id="codim2",
    ),
    pytest.param(
        ["decompose", "--field", "[x1*x2; x2^2]"],
        {"-o": "993fa5a6b9b5cefb12cc7179f653be5a37b691b8b2475e2e99a4211c73c68efa"},
        id="decompose",
    ),
    pytest.param(
        ["basin", "--builtin", "attracting-shears", "--nu", "50", "--nv", "50"],
        {
            "--csv": "1e9a1276d5be3e089134506df592bb6c9f7da7d4189882954c3885776755d005",
            "--pgm": "79d59b1cdda1861638ab2f435b206ba6aefde74d7f3963e36a441abe22ff6b2f",
        },
        id="basin",
    ),
    # a generator family that is not weight-homogeneous (x2 - x3^2)
    pytest.param(
        ["codim2", "--gens", "x1", "x2-x3^2", "-n", "3", "-d", "3"],
        {"-o": "c26801d687b4e65e3dca30cf63a0cab2b533e8d1fff7794f043c27060de3a676"},
        id="codim2-parabola-d3",
    ),
    pytest.param(
        ["closure", "--generators", "{work}/shear3-D3.txt", "--monomial-targets", "3", "-D", "3"],
        {"-o": "c8a989ffacddc70957a6ee36b7d6484ca562a977f06bc069e323783c167fd773"},
        id="closure-shear3-D3",
    ),
    pytest.param(
        ["codim2", "--gens", "x1", "x2", "-n", "3", "-d", "4"],
        {"-o": "795c7558f3861b378282c876a8df7f5f8dadd613f9e3a583143044caabc17dff"},
        id="codim2-axis-d4",
    ),
    pytest.param(
        ["verify-identity", "andersen-lempert", "--f1", "x2", "--f2", "x1", "-n", "2"],
        {"-o": "283b51eceeb359e121f2521a9d2c5bbae6012ad980e5deb4af5ffbe25d39b5bc"},
        id="identity-andersen-lempert",
    ),
    # the alias keeps its own name in "identity" and the full name as the check label
    pytest.param(
        ["verify-identity", "al", "--f1", "x2", "--f2", "x1", "-n", "2"],
        {"-o": "be7ee3b0459ce18a5816744c80478d6e1e5c66592d9ef98f8953f5c99b45831f"},
        id="identity-al",
    ),
    pytest.param(
        ["verify-identity", "compat-pair", "--d1", "[1;0]", "--d2", "[0;1]", "--a", "x1",
         "--f1", "x2^2", "--f2", "x1", "-n", "2"],
        {"-o": "fd0d53d4574c8d8d8e6582afac8317a307e9be3101943c7099e6a14409c5b11c"},
        id="identity-compat-pair",
    ),
    pytest.param(
        ["verify-identity", "codim2-pair", "--f1", "1", "--h1", "x2", "--f2", "1", "--h2", "x1",
         "-n", "3"],
        {"-o": "100616a87851b11a6f2870a268866cc8f3dc239efad44eb6ac03bc6708031636"},
        id="identity-codim2-pair",
    ),
    pytest.param(
        ["verify-identity", "local-triple", "--r", "x2^2", "--h", "1", "-s", "0", "--f", "x3",
         "--g", "x3", "-n", "3"],
        {"-o": "7787439494ffdb882d3db025c1c609b397d6865e1568c085184810b03aaab25c"},
        id="identity-local-triple",
    ),
    pytest.param(
        ["sl-demo", "-n", "3", "--trials", "5"],
        {"-o": "c5f92725d9b941b11ebe50794f30947d4baa06fdb2a2bcaa31e2d623cf21fb0c"},
        id="sl-demo-n3",
    ),
]


@pytest.mark.parametrize("argv, outputs", GOLDEN)
def test_artifact_bytes_are_pinned(tmp_path, argv, outputs):
    family = [format_vector_field(g) for g in shear_generator_family(3, 3)]
    (tmp_path / "shear3-D3.txt").write_text("\n".join(family) + "\n", encoding="utf-8")
    argv = [part.replace("{work}", str(tmp_path)) for part in argv]
    paths = {flag: tmp_path / f"out{i}" for i, flag in enumerate(outputs)}
    extra = [part for flag, path in paths.items() for part in (flag, str(path))]
    assert run(argv + extra) == EXIT_OK
    digests = {
        flag: hashlib.sha256(path.read_bytes()).hexdigest() for flag, path in paths.items()
    }
    assert digests == outputs
