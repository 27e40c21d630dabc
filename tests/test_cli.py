import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import exczero
from exczero.cli import main

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
CURVE11 = os.path.join(DATA, "11a1.txt")
CURVE15 = os.path.join(DATA, "15a1.txt")


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["tree", "--p", "3", "--frobnicate"])
    assert exc.value.code == 2


def test_tree_check(capsys):
    code, out = run(["tree", "--p", "3", "--radius", "2", "--check"], capsys)
    assert code == 0
    assert out.startswith("PASS")
    assert "vertices=17" in out


def test_gauss_json(capsys):
    code, out = run(["--format", "json", "gauss", "--p", "5",
                     "--conductor-exp", "1", "--char-spec", "1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "PASS"
    assert abs(float(obj["abs2"]) - 5) < 1e-9


def test_local_integral(capsys):
    code, out = run(["local-integral", "--p", "3", "--alpha", "-1",
                     "--t", "2"], capsys)
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("argv,target", [
    (["--p", "5", "--alpha", "2", "--t", "2"], "target=3.7500000000+0.0000"),
    (["--p", "3", "--alpha=1/1000", "--t=1/1000"],
     "target=-999999.3333331111+0.0000"),
])
def test_local_integral_at_the_pole_of_L(argv, target, capsys):
    # chi(p) = alpha: the zero of e(alpha, chi) cancels the pole of L
    code, out = run(["local-integral", *argv], capsys)
    assert code == 0 and out.startswith("PASS") and target in out


HEIGHTS = ["1000000", "-1000000", "1/1000000", "-1/1000000"]


@pytest.mark.parametrize("p,f", [("3", "0"), ("3", "1"), ("3", "4"),
                                 ("13", "0"), ("13", "1")])
def test_local_integral_at_the_height_cap(p, f, capsys):
    # t and alpha at the corners of MAX_HEIGHT: a PASS line, or exit 2
    # exactly when the integral diverges, |t alpha| >= p
    for t in HEIGHTS:
        for alpha in HEIGHTS:
            argv = ["local-integral", "--p", p, "--char-f", f, f"--t={t}",
                    f"--alpha={alpha}"]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            capsys.readouterr()
            diverges = abs(Fraction(t) * Fraction(alpha)) >= int(p)
            assert code == (2 if diverges else 0), argv


def test_local_integral_at_a_large_ramified_target(capsys):
    # |target| is about 1.7e14, past any absolute float tolerance: PASS
    # reads the exact equality
    code, out = run(["local-integral", "--p", "13", "--char-f", "4",
                     "--alpha=-1/1000"], capsys)
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("argv,want", [
    (["--p", "2", "--alpha", "sqrt", "--t", "1/2"], -0.6407544820),
    (["--p", "5", "--alpha", "sqrt", "--char-f", "1", "--char-k", "1"],
     -0.5257311121 + 0.8506508084j),
])
def test_local_integral_at_exact_sqrt(argv, want, capsys):
    # alpha = sqrt(q) is exact; value and target are the known numbers
    code, out = run(["--format", "json", "local-integral", *argv], capsys)
    obj = json.loads(out)
    assert code == 0 and obj["status"] == "PASS"
    for key in ("value", "target"):
        assert abs(complex(obj[key]) - want) <= 1e-10


def test_lp_roundtrip(tmp_path, capsys):
    from exczero.measures import dirac, save_measure
    mu = dirac(5, 3, 2)
    path = tmp_path / "mu.txt"
    save_measure(mu, path)
    code, out = run(["lp", "--measure", str(path), "--s", "5",
                     "--level", "2"], capsys)
    assert code == 0 and out.startswith("PASS")
    code, out = run(["lp", "--measure", str(path), "--moments", "1",
                     "--level", "2"], capsys)
    assert code == 0 and "moment1" in out


def test_lp_status_follows_distribution_check(tmp_path, capsys):
    from exczero.measures import BallMeasure, dirac, save_measure
    levels = [level[:] for level in dirac(5, 3, 2).levels]
    levels[3][7] = 1  # a second point at level 3 only
    path = tmp_path / "bad.txt"
    save_measure(BallMeasure(5, levels), path)
    for extra in (["--s", "5"], ["--moments", "1"]):
        code, out = run(["lp", "--measure", str(path), "--level", "2",
                         *extra], capsys)
        assert code == 1 and out.startswith("FAIL")


def test_lp_bad_input_exits_2(tmp_path):
    from exczero.measures import dirac, save_measure
    good = tmp_path / "mu.txt"
    save_measure(dirac(5, 3, 2), good)
    malformed = tmp_path / "bad.txt"
    malformed.write_text("5 3 0\n1 2 one\n")
    huge = tmp_path / "huge.txt"
    huge.write_text("13 12 0\n")  # 13^12 balls at its top level
    for argv in (["--measure", str(tmp_path / "missing.txt")],
                 ["--measure", str(malformed)],
                 ["--measure", str(huge)],
                 ["--measure", str(good), "--level", "0"],
                 ["--measure", str(good), "--level", "4"],
                 ["--measure", str(good), "--moments", "5"],
                 ["--measure", str(good), "--s", "x"],
                 ["--measure", str(good), "--s", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["lp", *argv])
        assert exc.value.code == 2, argv


def test_ezero_report(capsys):
    code, out = run(["ezero", "--curve", CURVE11, "--p", "11",
                     "--level", "2", "--prec", "8"], capsys)
    assert code == 0
    assert out.startswith("PASS")
    assert "lp_at_0=0" in out


def test_ezero_json_carries_stage_timings(capsys):
    code, out = run(["--format", "json", "ezero", "--curve", CURVE11,
                     "--p", "11", "--level", "2", "--prec", "8"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "PASS" and rep["lp_at_0"] == "0"
    stages = rep["stage_s"]
    assert set(stages) == {"symbol_space", "measure", "check", "moment",
                           "l_invariant"}
    assert rep["lam_walks"] == 3 + 28   # one per class {+-x, +-1/x}
    assert rep["fe_sign"] == -1 and list(rep)[-2:] == ["lam_walks", "fe_sign"]
    assert all(isinstance(t, float) and t >= 0 for t in stages.values())


@pytest.mark.parametrize("curve, p, walks, sign", [
    (CURVE11, "3", 1 + 3, None), (CURVE15, "5", 1 + 5, -1)],
    ids=["good", "split"])
def test_interp_json_carries_stage_timings(curve, p, walks, sign, capsys):
    code, out = run(["--format", "json", "interp", "--curve", curve,
                     "--p", p, "--level", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "PASS"
    stages = rep["stage_s"]
    assert set(stages) == {"symbol_space", "measure", "check"}
    assert rep["lam_walks"] == walks and rep["fe_sign"] == sign
    assert all(isinstance(t, float) and t >= 0 for t in stages.values())


def test_import_leaves_out_dataclasses_inspect_and_typing():
    # -S: no site, whose .pth files may import typing themselves
    src = os.path.dirname(os.path.dirname(exczero.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, exczero.cli; print(sorted(m for m in sys.modules if m"
         " in ('dataclasses', 'inspect', 'typing')))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout
    assert out == "[]\n"


def test_ezero_rejects_nonsplit():
    with pytest.raises(SystemExit) as exc:
        main(["ezero", "--curve", CURVE15, "--p", "3", "--level", "2"])
    assert exc.value.code == 2


def test_interp_nonsplit_control(capsys):
    code, out = run(["interp", "--curve", CURVE15, "--p", "3",
                     "--level", "2"], capsys)
    assert code == 0 and "kind=nonsplit" in out and "predicted=2" in out


def test_gauss_line_stays_short(capsys):
    # the exact tau lives at level 13^3 * 12; its repr is a summary
    code, out = run(["gauss", "--p", "13", "--conductor-exp", "3"], capsys)
    assert code == 0 and len(out.encode()) < 1024
    assert "tau_float=-27.302559+38.099479j" in out
    assert " tau_exact=Cyclotomic(level=" in out


@pytest.mark.parametrize("argv,line", [
    (["gauss", "--p", "13", "--conductor-exp", "2"],
     "PASS p=13 conductor_exp=2 tau_exact=Cyclotomic(level=2028, terms=144,"
     " approx=12.6598288738+2.95444290637j) tau_float=12.659829+2.954443j"
     " abs2=169.000000\n"),
    (["local-integral", "--p", "5", "--alpha", "sqrt", "--char-f", "1"],
     "PASS p=5 alpha=sqrt conductor_exp=1 value=-0.5257311121+0.8506508084j"
     " target=-0.5257311121+0.8506508084j\n"),
])
def test_output_line_is_pinned(argv, line, capsys):
    # the exact value's repr and the float digits derived from it
    assert run(argv, capsys) == (0, line)


def test_desk_caps():
    for argv in (["interp", "--curve", CURVE11, "--p", "3", "--level", "6"],
                 ["linv", "--curve", CURVE11, "--p", "17"],
                 ["tree", "--p", "17"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# 11a1's and 27a1's models with a conductor they cannot have, 3^60 past
# the desk cap, and 27a1 itself, additive at 3 (the interp run below);
# test_bad_input_exits_2 writes each to a file under its name
BAD_CURVES = {f"11a1_N{N}.txt": f"11a1 {N} 0 -1 1 -10 -20\n"
              for N in (0, 1, 13, 22, 121)} | {
              f"27a1_N{N}.txt": f"27a1 {N} 0 0 1 0 -7\n"
              for N in (1, 9, 27, 3 ** 60)}

BAD_INPUT = [
    ["gauss", "--p", "2"],
    ["gauss", "--p", "3", "--conductor-exp", "-1"],
    ["gauss", "--p", "3", "--conductor-exp", "9"],
    ["local-integral", "--p", "2", "--alpha", "1", "--char-f", "1"],
    ["local-integral", "--p", "3", "--alpha", "1", "--char-f", "-1"],
    ["local-integral", "--p", "3", "--alpha", "1", "--t", "0"],
    ["local-integral", "--p", "3", "--alpha", "1", "--t", "x"],
    ["local-integral", "--p", "3", "--alpha", "0"],
    ["local-integral", "--p", "3", "--alpha", "1", "--t", "5"],
    ["local-integral", "--p", "3", "--alpha", "1", "--t=1/1000001"],
    ["local-integral", "--p", "3", "--alpha=1/1000001"],
    ["local-integral", "--p", "3", "--alpha", "1", "--n-max", "-1"],
    ["local-integral", "--p", "3", "--alpha", "1", "--n-max", "5"],
    ["linv", "--curve", CURVE11, "--p", "11", "--prec", "0"],
    ["linv", "--curve", CURVE11, "--p", "11", "--prec", "201"],
    ["interp", "--curve", CURVE11, "--p", "3", "--level", "0"],
    ["interp", "--curve", CURVE11, "--p", "3", "--prec", "0"],
    ["interp", "--curve", CURVE11, "--p", "3", "--prec", "201"],
    ["ezero", "--curve", CURVE11, "--p", "11", "--level", "0"],
    ["ezero", "--curve", CURVE11, "--p", "11", "--prec", "0"],
    ["ezero", "--curve", CURVE11, "--p", "11", "--prec", "201"],
    ["tree", "--p", "13", "--radius", "4"],
    ["tree", "--p", "3", "--radius", "-1"],
    ["tree-rep", "--p", "3", "--radius", "0"],
    ["tree-rep", "--p", "3", "--radius", "4"],
    ["tree-rep", "--p", "3", "--trials", "0"],
    ["tree-rep", "--p", "3", "--suite"],
    ["steinberg", "--p", "3", "--trials", "0"],
    ["steinberg", "--p", "5", "--suite"],
    ["detcheck", "--trials", "0"],
    ["detcheck", "--kmax", "0"],
    ["detcheck", "--kmax", "5", "--mmax", "4"],
    ["detcheck", "--mmax", "7"],
    # no measure at p = 2, nor at a supersingular p (27a1 at 5)
    ["interp", "--curve", CURVE11, "--p", "2", "--level", "2"],
    ["interp", "--curve", "27a1_N27.txt", "--p", "5", "--level", "2"],
] + [["interp", "--curve", name, "--p", "3", "--level", "2"]
     for name in BAD_CURVES]


@pytest.mark.parametrize(
    "argv", BAD_INPUT,
    ids=lambda argv: " ".join(os.path.basename(a) for a in argv))
def test_bad_input_exits_2(argv, tmp_path):
    for name, text in BAD_CURVES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in BAD_CURVES else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("curve, p", [("11a1.txt", "2"), ("27a1.txt", "3"),
                                      ("27a1.txt", "5")],
                         ids=["two", "additive", "supersingular"])
def test_interp_rejects_p_before_building_the_space(curve, p, tmp_path,
                                                     monkeypatch):
    from exczero import pipeline
    built = []

    def space(E):
        built.append(E)
        raise AssertionError("the symbol space was built")
    monkeypatch.setattr(pipeline, "ModularSymbolSpace", space)
    path = CURVE11 if curve == "11a1.txt" else tmp_path / curve
    (tmp_path / "27a1.txt").write_text("27a1 27 0 0 1 0 -7\n")
    with pytest.raises(SystemExit) as exc:
        main(["interp", "--curve", str(path), "--p", p, "--level", "2"])
    assert exc.value.code == 2 and built == []


@pytest.mark.parametrize("command", ["tree-rep", "steinberg"])
@pytest.mark.parametrize("p", ["2", "3"])
def test_identity_suites_pass_and_follow_the_seed(command, p, capsys):
    argv = ["--seed", "5", command, "--p", p, "--trials", "6"]
    code, out = run(argv, capsys)
    assert code == 0 and out.startswith("PASS") and "failures=0" in out
    assert run(argv, capsys) == (code, out)


def test_steinberg_checks_a_cocycle_pair_at_one_trial(capsys):
    code, out = run(["steinberg", "--p", "5", "--trials", "1"], capsys)
    assert (code, out) == (0, "PASS p=5 failures=0 coboundary_trials=2 "
                              "cocycle_pairs=2\n")


def test_suite_json_times_each_criterion_to_a_tenth_of_a_millisecond(
        capsys):
    # a quick criterion takes milliseconds: at 0.01 s each would read 0.0
    code, out = run(["--format", "json", "suite", "--quick"], capsys)
    times = [json.loads(line)["elapsed"] for line in out.splitlines()]
    assert code == 0 and len(times) == 10
    assert all(type(t) is float and round(t, 4) == t for t in times)
    assert any(round(t, 2) != t for t in times)
    code, out = run(["suite", "--quick"], capsys)
    assert all(re.search(r" elapsed=\d+\.\d\d ", line)
               for line in out.splitlines())


def test_seed_determinism(capsys):
    _, out1 = run(["--seed", "7", "detcheck", "--trials", "50"], capsys)
    _, out2 = run(["--seed", "7", "detcheck", "--trials", "50"], capsys)
    assert out1 == out2


@pytest.mark.parametrize("command", ["ezero", "interp"])
def test_rank_one_curve_exits_2(command, tmp_path, capsys):
    # y^2 + y = x^3 + x^2 - 7x + 5 has rank one: L(E, 1) = 0, so lam(0) = 0
    # and the reports' ratios are undefined; 7 is a split prime for it
    curve = tmp_path / "91a1.txt"
    curve.write_text("91a1 91 0 1 1 -7 5\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--curve", str(curve), "--p", "7", "--level", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "lam(0) = 0 for 91a1" in err


@pytest.mark.parametrize("command", ["ezero", "linv"])
def test_p_two_exits_2_without_a_traceback(command, tmp_path, capsys):
    # 14a1 has multiplicative reduction at 2; the measure and the p-adic
    # logarithm need an odd p, so p = 2 is refused before either
    curve = tmp_path / "14a1.txt"
    curve.write_text("14a1 14 1 0 1 4 -6\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--curve", str(curve), "--p", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.endswith("error: --p must be odd\n")
