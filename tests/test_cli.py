import ast
import glob
import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from weilforms.cli import main


@pytest.fixture()
def gram_file(tmp_path):
    def make(name, rows):
        path = tmp_path / name
        path.write_text(json.dumps({"gram": rows}))
        return str(path)
    return make


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_command(gram_file, capsys):
    g5 = gram_file("g5.json", [[-2, -1], [-1, 2]])
    code, out, err = run_cli(capsys, ["dim", "--gram", g5, "--weight", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["dim_s"] == 1 and data["dim_m"] == 1


def test_hurwitz_command(capsys):
    code, out, _ = run_cli(capsys, ["hurwitz", "--d", "12"])
    assert code == 0
    assert json.loads(out)["h"] == "4/3"


def test_remark12_command(capsys):
    code, out, _ = run_cli(capsys, ["class-identity", "--remark12",
                                    "--n-max", "10"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 10
    assert all(row["equal"] for row in rows)


def test_prop10_command(capsys):
    code, out, _ = run_cli(capsys, ["class-identity", "--prop10", "i",
                                    "--n-max", "3"])
    assert code == 0
    rows = json.loads(out)
    assert rows[-1] == {"n": 3, "lhs": "-8/15", "rhs": "-8/15", "equal": True}


def test_fqm_info_table(gram_file, capsys):
    g2 = gram_file("g2.json", [[-4]])
    code, out, _ = run_cli(capsys, ["--format", "table", "fqm-info",
                                    "--gram", g2])
    assert code == 0
    assert "gamma" in out and "7/8" in out


def test_r_series_round_trip_and_determinism(gram_file, capsys, tmp_path):
    g2 = gram_file("g2.json", [[-4]])
    argv = ["r-series", "--gram", g2, "--weight", "11/2", "--m", "1/8",
            "--beta", "3", "--prec", "4"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    data = json.loads(out1)
    coeffs = {(tuple(e["gamma"]), e["n"]): e["c"] for e in data["coeffs"]}
    assert coeffs[((3,), "1/8")] == "1/1"
    assert coeffs[((3,), "9/8")] == "237/1"

    # lift the saved expansion: exercises the file interface end to end
    qexp_path = tmp_path / "form.json"
    qexp_path.write_text(out1)
    g_lift = gram_file("s2.json", [[4]])
    code, out, _ = run_cli(capsys, ["theta-lift", "--gram", g_lift,
                                    "--input", str(qexp_path), "--weight", "5",
                                    "--bound", "5", "--format", "scalar"])
    assert code == 0
    lifted = {e["n"]: e["c"] for e in json.loads(out)["scalar"]}
    assert lifted == {1: "1/1", 2: "16/1", 3: "-156/1", 4: "256/1", 5: "870/1"}


def test_beta_as_dual_vector(gram_file, capsys):
    g5 = gram_file("g5.json", [[-2, -1], [-1, 2]])
    code, out, _ = run_cli(capsys, ["r-series", "--gram", g5, "--weight", "5",
                                    "--m", "1/5", "--beta", "2/5,1/5",
                                    "--prec", "2"])
    assert code == 0
    data = json.loads(out)
    assert any(e["n"] == "1/5" and e["c"] == "1/1" for e in data["coeffs"])


def test_weight3_command(capsys):
    code, out, _ = run_cli(capsys, ["weight3", "--n", "5", "--prec", "4"])
    assert code == 0
    assert json.loads(out)["coeffs"] == []


def test_stdout_pinned_for_paths_the_benchmark_never_runs(gram_file, capsys):
    # SHA-256 of stdout recorded at commit 6a99a4e, with the class-number
    # layer still in Fraction arithmetic; the cusp-basis ones at 6892454,
    # when every picked series was computed a second time; the [[-502]]
    # series, 251 L-values over 131 characters of conductor up to 993, at
    # dcc2632, when each L-value was summed afresh with kronecker at every a;
    # fqm-info and dim at dee712e, before elements were coordinate tuples;
    # cusp-basis [[-12]] at prec 9 at 44f8bfc, when the picked series were
    # built again above the working precision
    m12 = gram_file("m12.json", [[-12]])
    det16 = gram_file("det16.json", [[0, 0, 2], [0, -4, 0], [2, 0, 0]])
    m118 = gram_file("m118.json", [[-118]])
    b8 = gram_file("b8.json", [[2, 1], [1, -8]])
    m6 = gram_file("m6.json", [[-6]])
    m502 = gram_file("m502.json", [[-502]])
    pinned = {
        "eisenstein --gram %s --weight 5/2 --prec 1" % m502:
            "76eaca8e1323ce689621c391f4890debfa47566ed7e7872e7fdc1b1bce857fc9",
        "cusp-basis --gram %s --weight 15/2" % m12:
            "a8d7f485d5c5f577e1ee60b3fa828981283f5b8787b846cb6af96c1e500c08f1",
        "cusp-basis --gram %s --weight 5" % b8:
            "169b19a3a7e2f62348ad2703c88b78e0fefa5f6a913ffd1f00f72ba880a315b0",
        "cusp-basis --gram %s --weight 19/2" % m6:
            "c38e0e564e6229f2de5d2d8b9c6d59169208caae1c4465f81aec7e152f92205f",
        "cusp-basis --gram %s --weight 15/2 --prec 2" % m12:
            "46bcd480328639259a7147dbcee6b216e1b518a19cf871eaf0f4b26a665a33dc",
        "cusp-basis --gram %s --weight 15/2 --prec 9" % m12:
            "e22f75951e7d5d64debea267dd5c0660b172601cd508f7185acf2f430210e147",
        "class-identity --prop10 ii --n-max 100":
            "145ec86371acad12b67173a50e6807cf67227d3a7711645a44b1b5e74e1056ae",
        "weight3 --n 25 --prec 10":
            "186a7195594cffe73f3126254fcd977331571654f9de322405e649c605220d75",
        "--format table class-identity --remark12 --n-max 50":
            "c5a29e5848f07b24d22ec485956fc4507d307c17b3f0ed81eaf9bd5a0cd1b9ac",
        "fqm-info --gram %s" % det16:
            "f27210cf5d9333267126afc2b63334aefbcdf9757c3f85b42ff09fd8ed80fd10",
        "dim --gram %s --weight 15/2" % m118:
            "4f2f488dd85a5e1a49a5d8de0a1889d802b86beaa99f8289b8ea086573ea32af",
    }
    for argv, digest in pinned.items():
        code, out, _ = run_cli(capsys, argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_cusp_basis_command(gram_file, capsys):
    g5 = gram_file("g5.json", [[-2, -1], [-1, 2]])
    code, out, _ = run_cli(capsys, ["cusp-basis", "--gram", g5,
                                    "--weight", "5", "--prec", "3"])
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1 and data[0]["m"] == "1/5"


def test_doi_naganuma_command(gram_file, capsys, tmp_path):
    g5 = gram_file("g5.json", [[-2, -1], [-1, 2]])
    code, out, _ = run_cli(capsys, ["r-series", "--gram", g5, "--weight", "5",
                                    "--m", "1/5", "--beta", "2/5,1/5",
                                    "--prec", "8"])
    assert code == 0
    path = tmp_path / "d5.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, ["doi-naganuma", "--d", "5",
                                    "--input", str(path), "--bound", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["hilbert"]
    assert any(e["c"] == "1/1" for e in data["hilbert"])


def test_rank3_theta_lift_pinned(gram_file, capsys, tmp_path):
    # an O(2, 3) lift, whose cone is enumerated in rank 3: SHA-256 of the
    # r-series stdout recorded at 53669bf; the lift has two coefficients,
    # +-25920/8831 at r = (1, 1, -+1/4)
    neg = gram_file("neg.json", [[0, -1, 0], [-1, 0, 0], [0, 0, 4]])
    s = gram_file("s.json", [[0, 1, 0], [1, 0, 0], [0, 0, -4]])
    forms = []
    for prec in ("8", "4"):
        code, out, _ = run_cli(capsys, ["r-series", "--gram", neg, "--weight",
                                        "21/2", "--m", "7/8", "--beta", "1",
                                        "--prec", prec])
        assert code == 0
        forms.append(tmp_path / ("form%s.json" % prec))
        forms[-1].write_text(out)
    assert hashlib.sha256(forms[0].read_bytes()).hexdigest() == \
        "5c1ba6de62b5fbe42e4cb171ad7bc20eed78f20078f688a8944de6abd890b19b"
    lift = ["theta-lift", "--gram", s, "--weight", "11", "--seed", "1,1,0"]
    code, out, _ = run_cli(capsys, lift + ["--input", str(forms[0]),
                                           "--bound", "2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "c2f87c85e5a830cb2f037f11c5c5b58ee68a191ed90555e48c7982a1e699d2b7"
    code, out, err = run_cli(capsys, lift + ["--input", str(forms[1]),
                                             "--bound", "4"])
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "PrecisionError"


def test_exit_codes(gram_file, capsys, tmp_path):
    # 2: input errors
    code, _, err = run_cli(capsys, ["dim", "--gram", "/nonexistent.json",
                                    "--weight", "5"])
    assert code == 2
    assert json.loads(err)["error"] == "InputError"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, ["dim", "--gram", str(bad), "--weight", "5"])
    assert code == 2
    # 3: mathematical invariant violations
    g5 = gram_file("g5.json", [[-2, -1], [-1, 2]])
    code, _, err = run_cli(capsys, ["dim", "--gram", g5, "--weight", "4"])
    assert code == 3
    assert json.loads(err)["error"] == "WrongParityError"
    # 4: precision exhaustion
    g2 = gram_file("g2.json", [[-4]])
    code, out, _ = run_cli(capsys, ["r-series", "--gram", g2, "--weight",
                                    "11/2", "--m", "1/8", "--beta", "3",
                                    "--prec", "2"])
    form = tmp_path / "short.json"
    form.write_text(out)
    s2 = gram_file("s2.json", [[4]])
    code, _, err = run_cli(capsys, ["theta-lift", "--gram", s2, "--input",
                                    str(form), "--weight", "5", "--bound", "8"])
    assert code == 4
    assert json.loads(err)["error"] == "PrecisionError"
    # 2: a Hilbert index or a cone seed that does not fit a rank-1 lattice
    for extra in (["--format", "hilbert"], ["--seed", "1,2,7"]):
        code, _, err = run_cli(capsys, ["theta-lift", "--gram", s2, "--input",
                                        str(form), "--weight", "5",
                                        "--bound", "1"] + extra)
        assert code == 2
        assert json.loads(err)["error"] == "InputError"
    # 2: a lift input that is missing or is not a q-expansion
    no_gram = tmp_path / "no_gram.json"
    no_gram.write_text(json.dumps({"weight": "5/1", "prec": "2/1",
                                   "coeffs": []}))
    for argv in (["theta-lift", "--gram", s2, "--input", "/nonexistent.json",
                  "--weight", "5", "--bound", "8"],
                 ["theta-lift", "--gram", s2, "--input", str(no_gram),
                  "--weight", "5", "--bound", "8"],
                 ["doi-naganuma", "--d", "5", "--input", "/nonexistent.json",
                  "--bound", "8"],
                 ["doi-naganuma", "--d", "5", "--input", str(no_gram),
                  "--bound", "8"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert json.loads(err)["error"] == "InputError"
    # 2: a gamma outside the discriminant group of the lift input
    bad_gamma = tmp_path / "bad_gamma.json"
    bad_gamma.write_text(json.dumps({"gram": [[-4]], "weight": "11/2",
                                     "prec": "2/1", "coeffs": [
                                         {"gamma": [5], "n": "1/8", "c": "1/1"}]}))
    code, _, err = run_cli(capsys, ["theta-lift", "--gram", s2, "--input",
                                    str(bad_gamma), "--weight", "5",
                                    "--bound", "8"])
    assert code == 2
    assert json.loads(err)["error"] == "InputError"
    # 2: a bool coefficient in the lift input, which Fraction reads as 1
    bool_c = tmp_path / "bool_c.json"
    bool_c.write_text(json.dumps({"gram": [[-4]], "weight": "11/2",
                                  "prec": "2/1", "coeffs": [
                                      {"gamma": [3], "n": "1/8", "c": True}]}))
    code, _, err = run_cli(capsys, ["theta-lift", "--gram", s2, "--input",
                                    str(bool_c), "--weight", "5", "--bound", "8"])
    assert code == 2
    assert json.loads(err)["error"] == "InputError"
    # 2: a --beta of the wrong length, as a dual vector or as coordinates
    for beta in ("1/2,1/2", "1,2"):
        code, _, err = run_cli(capsys, ["r-series", "--gram", g2, "--weight",
                                        "11/2", "--m", "1/8", "--beta", beta,
                                        "--prec", "2"])
        assert code == 2
        assert json.loads(err)["error"] == "InputError"
    # 2: an Infinity in the lift input (json reads it as a float)
    inf_c = tmp_path / "inf_c.json"
    inf_c.write_text('{"gram": [[-4]], "weight": "11/2", "prec": "2/1", '
                     '"coeffs": [{"gamma": [3], "n": "1/8", "c": Infinity}]}')
    code, _, err = run_cli(capsys, ["theta-lift", "--gram", s2, "--input",
                                    str(inf_c), "--weight", "5", "--bound", "8"])
    assert code == 2
    assert json.loads(err)["error"] == "InputError"
    # 2: a cyclic weight-3 family with N < 1
    for n_disc in ("-3", "0"):
        code, _, err = run_cli(capsys, ["weight3", "--n", n_disc, "--prec", "4"])
        assert code == 2
        assert json.loads(err)["error"] == "InputError"
    # 2: a negative precision; 0 is an empty series
    g1 = gram_file("g1.json", [[-2]])
    for argv in (["eisenstein", "--gram", g1, "--weight", "5/2"],
                 ["r-series", "--gram", g2, "--weight", "11/2", "--m", "1/8",
                  "--beta", "3"],
                 ["cusp-basis", "--gram", g5, "--weight", "5"],
                 ["weight3", "--n", "5"]):
        code, _, err = run_cli(capsys, argv + ["--prec", "-1"])
        assert code == 2
        assert json.loads(err)["error"] == "InputError"
        code, out, _ = run_cli(capsys, argv + ["--prec", "0"])
        assert code == 0
    # 2: a Gram entry that is not an integer, as --gram or in a lift input
    for rows in ([[2.5]], [["2"]]):
        code, _, err = run_cli(capsys, ["eisenstein", "--gram",
                                        gram_file("frac.json", rows),
                                        "--weight", "5/2", "--prec", "2"])
        assert code == 2
        assert json.loads(err)["error"] == "InputError"
        frac_form = tmp_path / "frac_form.json"
        frac_form.write_text(json.dumps({"gram": rows, "weight": "11/2",
                                         "prec": "2/1", "coeffs": []}))
        code, _, err = run_cli(capsys, ["theta-lift", "--gram", s2, "--input",
                                        str(frac_form), "--weight", "5",
                                        "--bound", "8"])
        assert code == 2
        assert json.loads(err)["error"] == "InputError"
    # 2: arguments argparse rejects ("-1/8" reads as an option); --help exits 0
    for argv in (["r-series", "--gram", g2, "--weight", "11/2", "--m", "-1/8",
                  "--beta", "3", "--prec", "2"],
                 ["hurwitz", "--d", "x"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InputError"
    with pytest.raises(SystemExit) as exc:
        main(["hurwitz", "--help"])
    assert exc.value.code == 0


def test_import_leaves_numpy_out():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    probe = subprocess.run(
        [sys.executable, "-c",
         "import weilforms, weilforms.cli, sys; assert 'numpy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=os.path.normpath(src)),
        capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr


def _unused_imports(path):
    """Names a module imports and never reads; names in __all__ count as read."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted("%s:%d %s" % (os.path.basename(path), line, name)
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    paths = sorted(glob.glob(os.path.join(root, "src", "weilforms", "*.py"))
                   + glob.glob(os.path.join(root, "tests", "*.py")))
    assert len(paths) > 20
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert not unused, unused


def test_no_dead_private_helpers():
    # every private function, class or method of the package is referenced
    # somewhere in it, as a name or as an attribute
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    defined, referenced = {}, set()
    for path in sorted(glob.glob(os.path.join(root, "src", "weilforms", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined[name] = "%s:%d" % (os.path.basename(path), node.lineno)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert len(defined) > 40
    dead = sorted("%s %s" % (where, name) for name, where in defined.items()
                  if name not in referenced)
    assert not dead, dead


def test_cache_cold_and_warm_identical(gram_file, capsys, tmp_path):
    g5 = gram_file("g5.json", [[-2, -1], [-1, 2]])
    cache = str(tmp_path / "cache")
    argv = ["--cache-dir", cache, "r-series", "--gram", g5, "--weight", "5",
            "--m", "1/5", "--beta", "2/5,1/5", "--prec", "3"]
    code, cold, _ = run_cli(capsys, argv)
    assert code == 0
    assert os.path.isdir(cache) and os.listdir(cache)
    code, warm, _ = run_cli(capsys, argv)
    assert cold == warm


_ENTRY = st.integers(-8, 8)
_DIAG = st.one_of(st.integers(-4, 4).map(lambda x: 2 * x), _ENTRY)
_GRAM = st.one_of(
    st.just([]),
    st.builds(lambda a: [[a]], _DIAG),
    st.builds(lambda a, b, c: [[a, b], [b, c]], _DIAG, _ENTRY, _DIAG))
_WEIGHT = st.sampled_from(["2", "5/2", "3", "7/2", "4", "9/2", "5", "11/2", "w"])
_PREC = st.sampled_from(["-1", "0", "1/2", "1", "3/2", "2"])
_FLAGS = st.sampled_from([[], [], ["--format", "table"], ["--parallel", "2"]])


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["fqm-info", "dim", "eisenstein", "r-series"]))
    argv = [cmd, "--gram", None]
    if cmd == "dim":
        # a valid weight whose floats overflow without the period-12 reduction
        argv += ["--weight", draw(_WEIGHT | st.just("1e400"))]
    elif cmd != "fqm-info":
        argv += ["--weight", draw(_WEIGHT)]
    if cmd == "r-series":
        argv += ["--m", draw(st.sampled_from(["1/4", "1/8", "1", "0"])),
                 "--beta", draw(st.sampled_from(["0", "1", "1,1", "1/2"]))]
    if cmd in ("eisenstein", "r-series"):
        argv += ["--prec", draw(_PREC)]
    return draw(_FLAGS) + argv


@settings(max_examples=150, deadline=5000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gram=_GRAM, argv=_argv())
def test_main_ends_in_a_result_or_one_json_error(gram_file, capsys, gram, argv):
    # every bounded input ends in exit 0, or in exit 2, 3 or 4 with exactly
    # one JSON object on stderr that names the same code; --parallel is
    # not an option, so it exits 2
    argv[argv.index(None)] = gram_file("fuzz.json", gram)
    code, out, err = run_cli(capsys, argv)
    assert code in (0, 2, 3, 4)
    if "--parallel" in argv:
        assert code == 2
    if code:
        assert out == ""
        assert json.loads(err)["exit_code"] == code
    else:
        assert err == "" and out
