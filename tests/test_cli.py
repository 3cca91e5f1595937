import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import shearkit
from shearkit.cli import (
    EXIT_NOT_ESTABLISHED, EXIT_OK, EXIT_USAGE, SL_DEMO_MAX_WORK, build_parser, run,
)
from shearkit.errors import PreconditionError


def run_cli(*argv):
    return run(list(argv))


class TestVerifyIdentity:
    def test_established_shear_identity(self, capsys):
        code = run_cli(
            "verify-identity", "andersen-lempert", "--f1", "x2", "--f2", "x1", "-n", "2"
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["established"] is True

    def test_compat_pair_identity(self):
        code = run_cli(
            "verify-identity", "compat-pair",
            "--d1", "[1;0]", "--d2", "[0;1]", "--a", "x1",
            "--f1", "1", "--f2", "1", "-n", "2",
        )
        assert code == EXIT_OK

    def test_codim2_identity(self):
        code = run_cli(
            "verify-identity", "codim2-pair",
            "--f1", "1", "--h1", "x2", "--f2", "1", "--h2", "x1", "-n", "3",
        )
        assert code == EXIT_OK

    def test_local_triple(self):
        code = run_cli(
            "verify-identity", "local-triple",
            "--r", "x2^2", "--h", "1", "-s", "0", "--f", "x3", "--g", "x3", "-n", "3",
        )
        assert code == EXIT_OK

    def test_precondition_violation_is_usage_error(self):
        code = run_cli(
            "verify-identity", "andersen-lempert", "--f1", "x1", "--f2", "x1", "-n", "2"
        )
        assert code == EXIT_USAGE

    def test_parse_error_is_usage_error(self):
        code = run_cli(
            "verify-identity", "andersen-lempert", "--f1", "x9", "--f2", "x1", "-n", "2"
        )
        assert code == EXIT_USAGE

    def test_missing_operands_are_a_usage_error(self, capsys):
        code = run_cli("verify-identity", "local-triple", "--r", "x2", "-n", "3")
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: identity 'local-triple' needs --h, --f, --g\n"

    # h^s has at most N = C(s + t - 1, s) terms for the t terms of h: 1 for h = 1,
    # s + 1 for h = x3 + x4 and C(s + 2, 2) for x3 + x4 + x5.  s * N <= 100,000 ends at
    # s = 100,000 and s = 315, and N^2 <= 30,000, the bracket products' bound, at s = 172
    # and s = 17; x3 + x4 + x5 at s = 40, which s * N admits, ran for 28 s before that.
    # Coefficient bits raise each product's cost: the last two ran for 15 and 17 s at s = 172,
    # where x3 + x4 takes under 1 s
    @pytest.mark.parametrize(
        "h, s, code",
        [
            ("1", 10**20, EXIT_USAGE),
            ("1", 100_001, EXIT_USAGE),
            ("1", 100_000, EXIT_OK),
            ("x3 + x4", 10**20, EXIT_USAGE),
            ("x3 + x4", 316, EXIT_USAGE),
            ("x3 + x4", 173, EXIT_USAGE),
            ("x3 + x4", 20, EXIT_OK),
            ("x3 + x4 + x5", 40, EXIT_USAGE),
            ("123456789*x3 + 987654321*x4", 172, EXIT_USAGE),
            ("(2/3+i)*x3 + (5/7)*x4", 172, EXIT_USAGE),
        ],
    )
    def test_local_triple_exponent_is_bounded_by_the_work_of_h_to_the_s(self, capsys, h, s, code):
        argv = ["verify-identity", "local-triple", "-n", "5", "--r", "0", "--h", h,
                "-s", str(s), "--f", "1", "--g", "1"]
        assert run_cli(*argv) == code
        err = capsys.readouterr().err.splitlines()
        if code == EXIT_USAGE:
            assert len(err) == 1 and err[0].startswith(f"error: exponent s = {s} is over budget")


class TestCompat:
    def test_coordinate_pair(self, capsys):
        code = run_cli("compat", "--d1", "[1;0]", "--d2", "[0;1]", "-d", "4")
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["condition_one"]["kind"] == "full-span"
        assert payload["condition_two"]["a"] == "x1"

    def test_negative_pair_exits_nonzero(self):
        code = run_cli("compat", "--d1", "[1;0]", "--d2", "[x1;0]", "-d", "2")
        assert code == EXIT_NOT_ESTABLISHED


class TestClosure:
    def test_builtin_family(self, capsys, tmp_path):
        out = tmp_path / "closure.json"
        code = run_cli(
            "closure", "--shear-family", "4", "--monomial-targets", "4",
            "-D", "4", "-o", str(out),
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["span_dimension"] == 30

    def test_generators_file_not_established(self, tmp_path):
        gens = tmp_path / "gens.txt"
        gens.write_text("[1; 0]\n")
        targets = tmp_path / "targets.txt"
        targets.write_text("[x1; 0]\n")
        code = run_cli(
            "closure", "--generators", str(gens), "--targets", str(targets), "-D", "2"
        )
        assert code == EXIT_NOT_ESTABLISHED

    def test_missing_input_is_usage_error(self):
        assert run_cli("closure", "-D", "2") == EXIT_USAGE


class TestCodim2:
    def test_inline_generators(self, capsys):
        code = run_cli("codim2", "--gens", "x1", "x2", "-n", "3", "-d", "2")
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["h1"] == "x2"
        assert payload["h2"] == "x1"

    def test_ideal_file(self, tmp_path, capsys):
        ideal = tmp_path / "ideal.json"
        ideal.write_text(
            json.dumps({"nvars": 2, "generators": ["x1", "x2"], "schema_version": 1})
        )
        code = run_cli("codim2", "--ideal", str(ideal), "-d", "2")
        assert code == EXIT_OK

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_both_eliminants_names_the_cap_and_their_degrees(self, capsys, cap):
        code = run_cli("codim2", "--gens", "x1", "x2", "-n", "3", "-d", "2", "-D", cap)
        assert code == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "--degree-cap" in lines[0] and f" {cap} " in lines[0]
        assert "h1 = x2 (1)" in lines[0] and "h2 = x1 (1)" in lines[0]


class TestSlDemo:
    def test_default_run(self, capsys):
        code = run_cli("sl-demo", "-n", "2", "--trials", "50")
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["points_tested"] == 50
        assert payload["tangency_symbolic"] is True


class TestDecompose:
    def test_listing(self, capsys):
        code = run_cli("decompose", "--field", "[x2^2; x2^2]")
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        kinds = [p["kind"] for p in payload["primitives"]]
        assert kinds == ["shear", "bracket-pair"]


class TestApprox:
    def test_report(self, capsys):
        code = run_cli(
            "approx", "--field", "[0; x2^2]", "-T", "0.5",
            "--substeps", "8,16,32", "--points", "10",
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["order"] >= 0.8

    def test_isotopy_file_and_saved_sequence(self, tmp_path, capsys):
        isotopy = tmp_path / "isotopy.json"
        isotopy.write_text(json.dumps({"fields": ["[1; 0]", "[0; 1]"]}))
        saved = tmp_path / "sequence.json"
        code = run_cli(
            "approx", "--isotopy", str(isotopy), "-T", "1.0",
            "--substeps", "2,4,8", "--points", "5",
            "--save-sequence", str(saved),
        )
        assert code == EXIT_OK
        from shearkit.dynamics import autoseq_from_json_dict

        seq = autoseq_from_json_dict(json.loads(saved.read_text()))
        end = seq.apply((0, 0))
        assert abs(end[0] - 0.5) < 1e-9 and abs(end[1] - 0.5) < 1e-9

    def test_isotopy_steps_equal_to_its_field_count_change_nothing(self, tmp_path):
        isotopy = tmp_path / "isotopy.json"
        isotopy.write_text(json.dumps({"fields": ["[1; 0]", "[0; 1]"]}))
        argv = ("approx", "--isotopy", str(isotopy), "--substeps", "2,4,8", "--points", "5")
        written = []
        for extra in ((), ("--steps", "2")):
            out = tmp_path / f"run-{len(written)}.json"
            assert run_cli(*argv, *extra, "-o", str(out)) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_isotopy_fields_with_different_variable_counts_are_refused_up_front(
        self, tmp_path, monkeypatch, capsys
    ):
        from shearkit import dynamics

        isotopy = tmp_path / "isotopy.json"
        isotopy.write_text(json.dumps({"fields": ["[0; x2^2]", "[x1*x2; x2^2; 0]"]}))
        calls = []
        monkeypatch.setattr(dynamics, "integrate_flow", lambda *args: calls.append(args))
        code = run_cli("approx", "--isotopy", str(isotopy), "--substeps", "2,4,8", "--points", "2")
        assert code == EXIT_USAGE
        assert calls == []
        assert capsys.readouterr().err == (
            "error: isotopy fields disagree on their variable count: 2, 3\n"
        )

    @pytest.mark.parametrize("substeps", ["8,8,8", "2048,4096"], ids=["repeated", "two"])
    def test_unfittable_substeps_are_refused_before_any_flow(self, monkeypatch, capsys, substeps):
        from shearkit import dynamics

        counts = [int(m) for m in substeps.split(",")]
        with pytest.raises(PreconditionError) as fit:
            dynamics.fit_loglog_slope(counts, [1.0] * len(counts))
        calls = []
        monkeypatch.setattr(dynamics, "integrate_flow", lambda *args: calls.append(args))
        code = run_cli("approx", "--field", "[0; x2^2]", "--substeps", substeps)
        assert code == EXIT_USAGE
        assert calls == []
        # the message the slope fit itself gives
        assert capsys.readouterr().err == f"error: {fit.value}\n"


class TestBasin:
    def test_builtin_map_artifacts(self, tmp_path, capsys):
        csv = tmp_path / "basin.csv"
        pgm = tmp_path / "basin.pgm"
        code = run_cli(
            "basin", "--builtin", "attracting-shears",
            "--nu", "20", "--nv", "20", "--csv", str(csv), "--pgm", str(pgm),
        )
        assert code == EXIT_OK
        assert csv.read_text().startswith("row,col,re,im,class,iters")
        assert pgm.read_bytes().startswith(b"P5\n20 20\n255\n")

    def test_map_file(self, tmp_path):
        from shearkit.dynamics import autoseq_to_json_dict, radial_contraction

        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(autoseq_to_json_dict(radial_contraction(2))))
        csv = tmp_path / "b.csv"
        code = run_cli(
            "basin", "--map", str(map_path), "--nu", "5", "--nv", "5", "--csv", str(csv)
        )
        assert code == EXIT_OK


class TestDeterminism:
    def test_identical_jobs_produce_identical_artifacts(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            code = run_cli(
                "closure", "--shear-family", "3", "--monomial-targets", "3",
                "-D", "3", "-o", str(out),
            )
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_sl_demo_seeded(self, capsys):
        payloads = []
        for _ in range(2):
            assert run_cli("sl-demo", "-n", "2", "--trials", "10", "--seed", "5") == EXIT_OK
            payloads.append(capsys.readouterr().out)
        assert payloads[0] == payloads[1]


def test_usage_error_exit_code():
    assert run_cli("no-such-command") == EXIT_USAGE
    assert run_cli("compat", "--d1", "[1;0]") == EXIT_USAGE


def _lone_run(argv, output):
    """Run one command as the first and only call of a fresh interpreter."""
    paths = [str(Path(shearkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-m", "shearkit.cli", *argv, "-o", str(output)],
        env=env, capture_output=True, check=False,
    )
    return done.returncode, output.read_bytes()


def test_reused_parser_carries_nothing_between_runs(tmp_path):
    # the parser is built once per process; --candidate appends to a list
    # default, so a leak would turn the second run's verdict into ideal-found
    first = ["compat", "--d1", "[0;x1]", "--d2", "[x1;-x2]", "-d", "3",
             "--candidate", "x1", "--candidate", "x1^2"]
    second = first[:7]
    usage_error = ["compat", "--d1", "[0;x1]", "--candidate", "x1", "-d", "3"]
    lone = {
        "first": _lone_run(first, tmp_path / "lone-first.json"),
        "second": _lone_run(second, tmp_path / "lone-second.json"),
    }
    assert lone["first"] != lone["second"]
    for step, (name, argv) in enumerate(
        [("first", first), ("second", second), (None, usage_error), ("first", first)]
    ):
        out = tmp_path / f"step-{step}.json"
        code = run_cli(*argv, "-o", str(out))
        if name is None:
            assert code == EXIT_USAGE and not out.exists()
        else:
            assert (code, out.read_bytes()) == lone[name]
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "argv, document",
    [
        (["codim2", "-d", "2", "--ideal"], {}),
        (["codim2", "-d", "2", "--ideal"], [1, 2]),
        (["codim2", "-d", "2", "--ideal"], {"nvars": "3", "generators": ["x1"]}),
        (["approx", "--isotopy"], {}),
        (["basin", "--builtin", "attracting-shears", "--grid"], {}),
        (["basin", "--map"], {}),
        (["basin", "--map"], {"nvars": 2, "elements": [{"kind": "twist"}]}),
        (["basin", "--map"], {"nvars": 2, "elements": [
            {"kind": "diagonal", "weights": [1], "factor": [0.5, 0]}]}),
        (["basin", "--map"], {"nvars": 2, "elements": [
            {"kind": "diagonal", "weights": [1, 1, 1], "factor": [0.5, 0]}]}),
    ],
    ids=["ideal-empty", "ideal-list", "ideal-nvars-text", "isotopy-empty",
         "grid-empty", "map-empty", "map-unknown-kind", "map-diagonal-too-few-weights",
         "map-diagonal-too-many-weights"],
)
def test_malformed_json_input_is_usage_error(tmp_path, capsys, argv, document):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    extra = ["--csv", str(tmp_path / "out.csv")] if argv[0] == "basin" else []
    assert run_cli(*argv, str(path), *extra) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


_GRID = {"origin": [[0, 0], [0, 0]], "axis_u": [[1, 0], [0, 0]], "axis_v": [[0, 0], [1, 0]],
         "nu": 3, "nv": 3, "u_range": [-1, 1], "v_range": [-1, 1]}


@pytest.mark.parametrize(
    "argv, document",
    [
        (["approx", "--field", "[0; x2^2]", "--radius", "nan"], None),
        (["approx", "--field", "[0; x2^2]", "--radius", "0"], None),
        (["approx", "--field", "[0; x2^2]", "--radius", "-0.5"], None),
        (["approx", "--field", "[0; x2^2]", "-T", "inf"], None),
        (["approx", "--field", "[0; x2^2]", "-T", "nan"], None),
        (["approx", "--field", "[x1*x2; x2^2]", "--radius", "3", "--substeps", "2,4,8",
          "--points", "5"], None),
        # one distinct step count leaves the fitted order undefined
        (["approx", "--field", "[0; x2^2]", "--substeps", "8,8,8"], None),
        (["basin", "--builtin", "radial-contraction", "--attract-radius", "nan"], None),
        (["basin", "--builtin", "radial-contraction", "--escape-radius", "inf"], None),
        (["basin", "--builtin", "radial-contraction", "--escape-radius", "-1"], None),
        (["basin", "--builtin", "radial-contraction", "--u", "nan", "1"], None),
        (["basin", "--builtin", "radial-contraction", "--v", "-1", "inf"], None),
        (["basin", "--builtin", "radial-contraction", "--grid"], {**_GRID, "u_range": [float("nan"), 1]}),
        (["basin", "--builtin", "radial-contraction", "--grid"],
         {**_GRID, "origin": [[0, float("inf")], [0, 0]]}),
        (["basin", "--map"], {"nvars": 2, "elements": [
            {"kind": "diagonal", "weights": [1, 1], "factor": [float("inf"), 0]}]}),
        (["basin", "--map"], {"nvars": 2, "elements": [
            {"kind": "shear", "axis": 1, "coeff": "x2", "time": [float("nan"), 0]}]}),
        # counts past the int64 range
        (["basin", "--builtin", "radial-contraction", "--max-iter", str(10**20)], None),
        (["approx", "--field", "[0; x2^2]", "--substeps", str(10**23), "--points", "2"], None),
        (["basin", "--builtin", "radial-contraction", "--nu", str(10**20)], None),
        # sizes past the monomial-basis budget, before anything is allocated
        (["approx", "--field", "[0; x2^2]", "--steps", str(10**20), "--substeps", "4,8,16",
          "--points", "2"], None),
        (["approx", "--field", "[0; x2^2]", "--substeps", "4,8,16", "--points", str(10**20)],
         None),
        # an isotopy file fixes the time slices
        (["approx", "--steps", "3", "--substeps", "2,4,8", "--points", "2", "--isotopy"],
         {"fields": ["[1; 0]", "[0; 1]"]}),
        # degrees below zero, which a monomial basis refuses
        (["closure", "--shear-family", "-1", "-D", "2"], None),
        (["closure", "--shear-family", "3", "-D", "3", "--monomial-targets", "-1"], None),
        # a sample past the monomial-basis budget, which would run until killed
        (["sl-demo", "-n", "2", "--trials", str(10**20)], None),
        # trials x (n + 2)^4 past the sl-demo work budget, which would run for about three
        # minutes at n = 8 and for 20 s at n = 4
        (["sl-demo", "-n", "8", "--trials", "100000"], None),
        (["sl-demo", "-n", "4", "--trials", "100000"], None),
    ],
    ids=["approx-radius-nan", "approx-radius-zero", "approx-radius-negative", "approx-time-inf",
         "approx-time-nan", "approx-values-overflow", "approx-substeps-repeated",
         "basin-attract-nan", "basin-escape-inf", "basin-escape-negative",
         "basin-u-nan", "basin-v-inf", "grid-u-range-nan", "grid-origin-inf",
         "map-factor-inf", "map-time-nan", "basin-max-iter-huge", "approx-substeps-huge",
         "basin-nu-huge", "approx-steps-huge", "approx-points-huge",
         "approx-isotopy-steps-mismatch", "closure-shear-family-negative",
         "closure-monomial-targets-negative", "sl-demo-trials-huge", "sl-demo-work-huge",
         "sl-demo-work-huge-small-n"],
)
def test_non_finite_or_non_positive_input_is_usage_error(tmp_path, capsys, argv, document):
    # json.dumps writes NaN and Infinity, which json.loads reads back as floats
    if document is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        argv = argv + [str(path)]
    if argv[0] == "basin":
        # a small default grid, which a case's own --nu or --nv overrides
        argv = [argv[0], "--nu", "3", "--nv", "3", *argv[1:], "--csv", str(tmp_path / "out.csv")]
    assert run_cli(*argv) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["closure", "--generators", "{gens}", "-D", "1000000"],
        ["closure", "--generators", "{gens}", "--monomial-targets", "1000000", "-D", "2"],
        ["closure", "--shear-family", "1000000", "-D", "1000000"],
        ["codim2", "--gens", "x1", "x2", "-n", "3", "-d", "1000000"],
        ["compat", "--d1", "[1;0;0]", "--d2", "[0;0;1]", "-d", "1000000"],
    ],
    ids=["closure-cap", "closure-targets", "closure-shear-family", "codim2", "compat"],
)
def test_oversized_monomial_basis_is_refused_before_allocation(tmp_path, capsys, argv):
    gens = tmp_path / "gens.txt"
    gens.write_text("[1; 0; 0]\n[0; x1; 0]\n[0; 0; x2]\n")
    argv = [part.replace("{gens}", str(gens)) for part in argv]
    tracemalloc.start()
    try:
        code = run_cli(*argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "monomials" in lines[0]
    # the basis would hold at least 5 * 10**11 exponent tuples
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "argv", [["-n", "9"], ["-n", "12", "--trials", "1"]], ids=["n9", "n12-one-trial"]
)
def test_sl_demo_runs_where_the_determinant_is_refused(capsys, argv):
    # tangency comes from tr A, so no n!-term determinant caps n
    assert run_cli("sl-demo", *argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] and payload["tangency_symbolic"] and payload["tangency_on_samples"]
    assert payload["points_tested"] == build_parser().parse_args(["sl-demo", *argv]).trials


def test_sl_demo_refuses_more_work_than_the_budget(capsys):
    # 100,000 trials x (n + 2)^4, refused before any point is drawn
    for n, work in [(8, 1_000_000_000), (4, 129_600_000)]:
        tracemalloc.start()
        try:
            code = run_cli("sl-demo", "-n", str(n), "--trials", "100000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(work) in lines[0] and str(SL_DEMO_MAX_WORK) in lines[0]
        assert peak < 2_000_000


def test_sl_demo_default_trials_at_n8_fit_the_work_budget():
    trials = build_parser().parse_args(["sl-demo", "-n", "8"]).trials
    assert trials * (8 + 2) ** 4 <= SL_DEMO_MAX_WORK


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-identity", "al", "--f1", "x2", "--f2", "x1", "-n", "2"],
        ["compat", "--d1", "[1;0]", "--d2", "[0;1]", "-d", "2"],
        ["closure", "--shear-family", "3", "-D", "3"],
        ["codim2", "--gens", "x1", "x2", "-n", "3", "-d", "2"],
        ["decompose", "--field", "[x2^2; 0]"],
        ["basin", "--builtin", "radial-contraction", "--nu", "3", "--nv", "3", "--csv", "{csv}"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_refused_where_nothing_samples(tmp_path, capsys, argv):
    argv = [part.replace("{csv}", str(tmp_path / "out.csv")) for part in argv]
    assert run_cli(*argv, "-o", str(tmp_path / "out.json")) == EXIT_OK
    capsys.readouterr()
    assert run_cli(*argv, "--seed", "1") == EXIT_USAGE
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sl-demo", "-n", "2", "--trials", "5"],
        ["approx", "--field", "[0; x2^2]", "--substeps", "4,8,16", "--points", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_read_where_points_are_sampled(tmp_path, argv):
    written = {}
    for seed in ((), ("--seed", "1729"), ("--seed", "7")):
        out = tmp_path / f"run-{len(written)}.json"
        assert run_cli(*argv, *seed, "-o", str(out)) == EXIT_OK
        written[seed] = json.loads(out.read_bytes())
    # the default seed is 1729, and the artifact names the seed it sampled with
    assert written[()] == written[("--seed", "1729")]
    seeds = [doc.get("seed", doc.get("report", {}).get("seed")) for doc in written.values()]
    assert seeds == [1729, 1729, 7]


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["closure", "--generators", "{gens}", "--shear-family", "3", "-D", "3"],
         ("--generators", "--shear-family")),
        (["closure", "--shear-family", "3", "--targets", "{gens}", "--monomial-targets", "3",
          "-D", "3"], ("--targets", "--monomial-targets")),
        (["codim2", "--ideal", "{ideal}", "--gens", "x1", "x2", "-n", "3", "-d", "2"],
         ("--ideal", "--gens")),
        (["approx", "--isotopy", "{isotopy}", "--field", "[0; x2^2]", "--substeps", "2,4,8",
          "--points", "2"], ("--isotopy", "--field")),
        (["basin", "--map", "{map}", "--builtin", "radial-contraction", "--nu", "3", "--nv", "3",
          "--csv", "{csv}"], ("--map", "--builtin")),
    ],
    ids=["closure-generators", "closure-targets", "codim2", "approx", "basin"],
)
def test_two_sources_of_one_input_are_refused(tmp_path, capsys, argv, flags):
    from shearkit.dynamics import autoseq_to_json_dict, radial_contraction

    files = {
        "gens": "[1; 0]\n",
        "ideal": json.dumps({"nvars": 3, "generators": ["x1", "x2"]}),
        "isotopy": json.dumps({"fields": ["[1; 0]", "[0; 1]"]}),
        "map": json.dumps(autoseq_to_json_dict(radial_contraction(2))),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [part.replace("{csv}", str(tmp_path / "out.csv")) for part in argv]
    argv = [part.format(**{name: tmp_path / name for name in files}) for part in argv]
    # each source alone is a valid input
    for flag in flags:
        at = argv.index(flag)
        end = next((i for i in range(at + 1, len(argv)) if argv[i].startswith("-")), len(argv))
        alone = argv[:at] + argv[end:]
        assert run_cli(*alone, "-o", str(tmp_path / "out.json")) in (EXIT_OK, EXIT_NOT_ESTABLISHED)
    (tmp_path / "out.csv").unlink(missing_ok=True)
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(flag in lines[0] for flag in flags)
    assert not (tmp_path / "out.csv").exists()


# superscripts and other scripts' digits pass str.isdigit; each must be one usage error
@pytest.mark.parametrize("text", ["x\u00b2", "x1^\u00b2", "1/\u00b2", "12\u00b2", "\u0663*x1"])
@pytest.mark.parametrize("argv", [
    ["codim2", "--gens", "{}", "x2", "-n", "3", "-d", "2"],
    ["compat", "--d1", "[1; 0]", "--d2", "[0; {}]", "-d", "2"],
    ["compat", "--d1", "[1; 0]", "--d2", "[0; 1]", "-d", "2", "--candidate", "{}"],
], ids=["codim2-gens", "compat-field", "compat-candidate"])
def test_non_ascii_digits_in_a_polynomial_are_a_usage_error(capsys, argv, text):
    assert run_cli(*[arg.format(text) for arg in argv]) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
