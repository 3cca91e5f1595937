"""Golden artifacts: the exact bytes `cli.run` writes for fixed invocations.

A refactor that keeps every verdict must also keep these hashes.  A change
that moves one on purpose says which one and why.  An argument containing
``{work}`` names a file in the test's directory: the 3-variable shear family
at degree 3 is written there as ``shear3-D3.txt``, the fields of `MIXED` and
`MIXED_TARGETS` as ``mixed.txt`` and ``mixed-targets.txt``, the map of `MAP` as
``map.json`` and the isotopy of `ISOTOPY` as ``iso.json``.
"""

import hashlib
import json

import pytest

from shearkit.cli import EXIT_OK, run
from shearkit.density import shear_generator_family
from shearkit.fields import format_vector_field

# a diagonal, a shear with an exponent 3 and an overshear: 901 points attracted, 288 escaped
MAP = {
    "nvars": 2,
    "elements": [
        {"kind": "diagonal", "weights": [1, 1], "factor": [0.5, 0.0]},
        {"kind": "shear", "axis": 2, "coeff": "x1^3", "time": [1.0, 0.0]},
        {"kind": "overshear", "axis": 1, "coeff": "x2", "time": [0.5, 0.0]},
    ],
}
ISOTOPY = {"fields": ["[0; x2^2]", "[x2; 0]"]}
# generators with terms of different weights (x2 and x2^2), and targets that their
# brackets of depth 1 and 2 reach
MIXED = ["[x2 + x2^2; 0]", "[0; x1]"]
MIXED_TARGETS = [
    "[-2*x1*x2 - x1; x2^2 + x2]", "[-2*x1^2; 4*x1*x2 + 2*x1]", "[2*x2^3 + 3*x2^2 + x2; 0]"
]

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
        ["codim2", "--gens", "x1", "x2-x3^2", "-n", "3", "-d", "4"],
        {"-o": "b263f93b1a3043067c8ef0d5e7037f78ea693f759acf629c5ad9de21b1bcdc67"},
        id="codim2-parabola-d4",
    ),
    pytest.param(
        ["codim2", "--gens", "x1", "x2-x3^2", "-n", "3", "-d", "5"],
        {"-o": "178d0f19366a7d6fd9d68a07e980c31640816906e3a3934db103a62c6ca56631"},
        id="codim2-parabola-d5",
    ),
    # the twisted cubic, a second graph x1 = x3^2, x2 = x3^3 over one free coordinate
    pytest.param(
        ["codim2", "--gens", "x1-x3^2", "x2-x3^3", "-n", "3", "-d", "4"],
        {"-o": "5b1cdb16aa340c6434015d8e19237df0545c15e631f9c6bd71286448b74d542f"},
        id="codim2-twisted-cubic-d4",
    ),
    pytest.param(
        ["closure", "--generators", "{work}/mixed.txt", "--targets", "{work}/mixed-targets.txt",
         "-D", "4"],
        {"-o": "e71c1cd89bcf8401e244c4cfb22364f98d3ffc4b6c415dff1e14471091d46613"},
        id="closure-mixed-weights-D4",
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
    # past the benchmark's sizes: codim2 stops at d=3 there, closure at D=7 with 7 targets
    pytest.param(
        ["codim2", "--gens", "x1", "x2", "-n", "3", "-d", "5"],
        {"-o": "abb154bb1c75275cf5fa3f20074d00ceeb8e150e254eb657f8cc543fbff445d0"},
        id="codim2-axis-d5",
    ),
    # a proper monomial ideal (x1*x2, x3), a non-reduced one (x1^2, x2) and a nonempty set
    # of components that vanish in every generator (d/dx3 and d/dx4 on the axis in C^4)
    pytest.param(
        ["codim2", "--gens", "x1*x2", "x3", "-n", "3", "-d", "4"],
        {"-o": "af0cdd192aebdb6ee9a7e32d27e01dfd10a4423e306cd9d5c4a70d455bf88088"},
        id="codim2-monomial-ideal-d4",
    ),
    pytest.param(
        ["codim2", "--gens", "x1^2", "x2", "-n", "3", "-d", "4"],
        {"-o": "934c8fdf29561273a7daa0d98d33b77e051e0e09656ede90ede77d7a2af859ac"},
        id="codim2-square-d4",
    ),
    pytest.param(
        ["codim2", "--gens", "x1", "x2", "-n", "4", "-d", "3"],
        {"-o": "68d0bfab7283263bf283be918d75229b9cb09d2e2fc0a8ce02da79d23f5c053b"},
        id="codim2-axis-c4-d3",
    ),
    pytest.param(
        ["closure", "--shear-family", "7", "--monomial-targets", "7", "-D", "7"],
        {"-o": "7eb45f309db69479ef635e2fda0de5eea1509a3b868c3f37106312ae681bcba7"},
        id="closure-D7",
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
    pytest.param(
        ["sl-demo", "-n", "6", "--trials", "2"],
        {"-o": "dabb1e0f193f90bfae5609116f6772b5706186c36c18630c0a6843006eb84583"},
        id="sl-demo-n6",
    ),
    # the default 50 trials
    pytest.param(
        ["sl-demo", "-n", "2"],
        {"-o": "1b918139be6eb136a490460347f2112ac9b488890ca665185ada9e6373de13d0"},
        id="sl-demo-n2",
    ),
    # a non-square grid under the only diagonal-only builtin map
    pytest.param(
        ["basin", "--builtin", "radial-contraction", "--nu", "37", "--nv", "23"],
        {
            "--csv": "a944b5d31ce52f9c42169123dadb2548d52d8a8498184b5f041c28aff0375563",
            "--pgm": "cf90563e302b6c3e4e0b295f8a60bbacc58e53f4295536036bef2eb0445c4baa",
        },
        id="basin-radial-37x23",
    ),
    pytest.param(
        ["basin", "--map", "{work}/map.json", "--nu", "41", "--nv", "29"],
        {
            "--csv": "a52aef79d01375e49c24f166d0c5f9bd9d112a4aa89b81e248ae6112f2d80b78",
            "--pgm": "b90acd3b68c22c408c5719eee143da1c34094d1ecfd6f6c0576d30dde5af29b5",
        },
        id="basin-map-file",
    ),
    pytest.param(
        ["approx", "--field", "[x1*x2; x2^2]", "--substeps", "4,8,16", "--points", "10"],
        {"-o": "2e59aec22734ffa4a1d08019e2428a61ad2649e8664c89c333e2a5d745ce7dd5"},
        id="approx-field",
    ),
    pytest.param(
        ["approx", "--isotopy", "{work}/iso.json", "--steps", "2", "--substeps", "4,8,16",
         "--points", "10"],
        {"-o": "4621ef53e1cb841e54513b53c9785b7e1ecdde30d393b8f702e928a6666704c9"},
        id="approx-isotopy",
    ),
    # non-unit rational coefficients in both components
    pytest.param(
        ["approx", "--field", "[(1/2)*x1*x2; 3*x2^2]", "--substeps", "4,8,16", "--points", "10"],
        {"-o": "40e9e57692d63e6fd856519614b504ce4f680a7e602f42660ea88b9f5416e4ba"},
        id="approx-rational-coefficients",
    ),
    # linear components decompose into overshears; the plain splitting scheme
    pytest.param(
        ["approx", "--field", "[x1; -x2]", "--scheme", "plain", "--substeps", "4,8,16",
         "--points", "10"],
        {"-o": "9cfb06a480101a80a01e13f9bc89de6d54b6edef14c178e9d722f2e163c06c05"},
        id="approx-overshear-plain",
    ),
    # the oracle's slowest point settles at 128 steps, an even level, so its last
    # round runs one step count alone; no benchmark entry settles there
    pytest.param(
        ["approx", "--field", "[0; x2^2]", "--substeps", "2,4,8,16", "--points", "50",
         "-T", "0.8"],
        {"-o": "00433153da3ea7a55b9c441e1cfae0abc1258abf6e019dcb8b55a8806302bf6a"},
        id="approx-even-settling-level",
    ),
    # a constant complex coefficient, and substep counts out of order
    pytest.param(
        ["approx", "--field", "[2+i; 3*x1]", "--scheme", "plain", "--substeps", "9,3,5",
         "--points", "6"],
        {"-o": "ec65d196803850cf404f9250d0bd47cc9d76174125fbbc14f704d747c412edb1"},
        id="approx-constant-coefficient-unsorted",
    ),
    # one point, whose overshear rows are updated out of place as in a batch
    pytest.param(
        ["approx", "--field", "[x1*x2; x2^2]", "--substeps", "4,8,16", "--points", "1"],
        {"-o": "fab674ffd8706ca52d4fa43917c01e633f9290eadb5dafab52b04a6e2735f7cd"},
        id="approx-one-point",
    ),
    # three equal slices, split as one run and integrated by one oracle call
    pytest.param(
        ["approx", "--field", "[x1*x2; x2^2]", "--substeps", "4,8,16", "--points", "10",
         "--steps", "3"],
        {"-o": "b69dc6057fb8d1e57853033c5c9ee8dd51679c3f209d96794bb447afb897331a"},
        id="approx-field-three-steps",
    ),
]


@pytest.mark.parametrize("argv, outputs", GOLDEN)
def test_artifact_bytes_are_pinned(tmp_path, argv, outputs):
    family = [format_vector_field(g) for g in shear_generator_family(3, 3)]
    (tmp_path / "shear3-D3.txt").write_text("\n".join(family) + "\n", encoding="utf-8")
    (tmp_path / "mixed.txt").write_text("\n".join(MIXED) + "\n", encoding="utf-8")
    (tmp_path / "mixed-targets.txt").write_text("\n".join(MIXED_TARGETS) + "\n", encoding="utf-8")
    (tmp_path / "map.json").write_text(json.dumps(MAP), encoding="utf-8")
    (tmp_path / "iso.json").write_text(json.dumps(ISOTOPY), encoding="utf-8")
    argv = [part.replace("{work}", str(tmp_path)) for part in argv]
    paths = {flag: tmp_path / f"out{i}" for i, flag in enumerate(outputs)}
    extra = [part for flag, path in paths.items() for part in (flag, str(path))]
    assert run(argv + extra) == EXIT_OK
    digests = {
        flag: hashlib.sha256(path.read_bytes()).hexdigest() for flag, path in paths.items()
    }
    assert digests == outputs
