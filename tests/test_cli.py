import ast
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ctmkit
from ctmkit.cli import main
from ctmkit.harness import CSV_HEADER


def _simulate_args(out, **extra):
    args = {
        "--seed": "42",
        "--horizon": "10",
        "--reps": "3",
        "--alt": "changepoint:0.5,0.9,0.2",
        "--measure": "identity",
        "--bettor": "bayes_kelly",
        "--out": str(out),
    }
    args.update(extra)
    flat = []
    for key, value in args.items():
        flat.extend([key, value])
    return flat


class TestSimulateCommand:
    def test_runs_and_writes_contract_files(self, tmp_path, capsys):
        code = main(["simulate", *_simulate_args(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert "audit ok" in out
        csv_path = tmp_path / "run" / "trajectory.csv"
        assert csv_path.read_text().splitlines()[0] == CSV_HEADER
        assert (tmp_path / "run" / "summary.json").exists()

    def test_flags_override_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "seed": 42,
                    "horizon": 4,
                    "reps": 2,
                    "alt": "changepoint:0.5,0.9,0.2",
                    "measure": "identity",
                    "bettor": "bayes_kelly",
                    "out": str(tmp_path / "from_config"),
                }
            ),
            encoding="utf-8",
        )
        code = main(
            ["simulate", "--config", str(config), "--horizon", "6",
             "--out", str(tmp_path / "overridden")]
        )
        assert code == 0
        rows = (tmp_path / "overridden" / "trajectory.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 2 * 6  # horizon flag won over the config value

    def test_config_integers_are_not_truncated(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        for horizon in (12.7, True):
            config.write_text(json.dumps({"horizon": horizon}), encoding="utf-8")
            argv = ["simulate", "--config", str(config), "--seed", "1",
                    "--out", str(tmp_path / "run")]
            assert main(argv) == 1
            assert (f"config error: horizon: must be an integer, got {horizon!r}"
                    in capsys.readouterr().err)
            assert not (tmp_path / "run").exists()
        config.write_text(json.dumps({"horizon": 12.0, "reps": 1}), encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--seed", "1",
                     "--out", str(tmp_path / "run")]) == 0
        rows = (tmp_path / "run" / "trajectory.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 12

    def test_config_specs_must_be_strings_and_bettors_take_no_suffix(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        runs = [
            ({"alt": 5}, "alt: must be a string, got 5"),
            ({"tau_mode": 0.5}, "tau_mode: must be a string, got 0.5"),
            ({"bettor": "bayes_kelly:oops"}, "bettor: must be bayes_kelly, constant or "
                                             "density:<path>, got 'bayes_kelly:oops'"),
            ({"bettor": "constant:0.5"}, "bettor: must be bayes_kelly, constant or "
                                         "density:<path>, got 'constant:0.5'"),
        ]
        for mapping, message in runs:
            config.write_text(json.dumps({"horizon": 3, **mapping}), encoding="utf-8")
            argv = ["simulate", "--config", str(config), "--seed", "1",
                    "--out", str(tmp_path / "run")]
            assert main(argv) == 1
            assert f"config error: {message}\n" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_config_model_symbols_and_alphabet_are_not_truncated(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        config = tmp_path / "config.json"
        runs = [
            ({"alphabet_size": 2.7, "conditionals": {"": [0.5, 0.5]}},
             "alphabet_size must be an integer, got 2.7"),
            ({"alphabet_size": True, "conditionals": {"": [0.5, 0.5]}},
             "alphabet_size must be an integer, got True"),
            ({"alphabet_size": "abc", "conditionals": {"": [0.5, 0.5]}},
             "alphabet_size must be an integer, got 'abc'"),
            ({"alphabet_size": 2, "conditionals": {"": [0.5, 0.5], "0.5": [0.9, 0.1]}},
             "conditionals['0.5'] symbols must be in range(2), got '0.5' at position 0"),
            ("pointmass:1,-1", "point-mass symbols must be in range(2), got -1 at position 1"),
        ]
        for model, message in runs:
            alt = model
            if isinstance(model, dict):
                table.write_text(json.dumps(model), encoding="utf-8")
                alt = f"table:{table}"
            config.write_text(json.dumps({"horizon": 3, "reps": 2, "alt": alt, "dgp": "alt"}),
                              encoding="utf-8")
            argv = ["simulate", "--config", str(config), "--seed", "1",
                    "--out", str(tmp_path / "run")]
            assert main(argv) == 1
            assert f"config error: alt: {message}\n" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()
        for size in (2, 2.0, "2"):
            table.write_text(json.dumps({"alphabet_size": size, "conditionals": {"": [0.25, 0.75]}}),
                             encoding="utf-8")
            config.write_text(json.dumps({"horizon": 3, "reps": 2, "alt": f"table:{table}",
                                          "dgp": "alt", "out": str(tmp_path / f"run{size}")}),
                              encoding="utf-8")
            assert main(["simulate", "--config", str(config), "--seed", "1"]) == 0
        assert (tmp_path / "run2" / "summary.json").read_bytes() == (
            tmp_path / "run2.0" / "summary.json").read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        assert main(["simulate", *_simulate_args(tmp_path / "a")]) == 0
        assert main(["simulate", *_simulate_args(tmp_path / "b")]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestExitCodes:
    def test_statistical_failure_is_two(self, tmp_path):
        code = main(
            [
                "validate",
                "--seed", "42",
                "--horizon", "40",
                "--reps", "25",
                "--null", "bernoulli:0.3",
                "--alt", "changepoint:0.5,0.9,0.2",
                "--measure", "identity",
                "--bettor", "bayes_kelly",
                "--tau-mode", "constant:0.5",
                "--out", str(tmp_path / "misuse"),
            ]
        )
        assert code == 2

    def test_non_normalized_density_table_is_one(self, tmp_path, capsys):
        bad = tmp_path / "family.json"
        bad.write_text(json.dumps({"1": [1.5], "2": [1.0, 1.0]}), encoding="utf-8")
        code = main(
            ["simulate", *_simulate_args(tmp_path / "run", **{"--bettor": f"density:{bad}"})]
        )
        assert code == 1
        assert "density" in capsys.readouterr().err
        assert not (tmp_path / "run" / "trajectory.csv").exists()

    def test_data_bettor_mismatch_is_one_and_writes_nothing(self, tmp_path, capsys):
        runs = [
            ({"--null": "normal"}, "bayes_kelly betting needs finite-alphabet integer "
                                   "observations; got real-valued data"),
            ({"--null": "categorical:0.2,0.3,0.5"},
             "observations outside the alternative's alphabet [0, 2)"),
        ]
        for flags, message in runs:
            argv = _simulate_args(tmp_path / "run", **{"--seed": "1", "--horizon": "5",
                                                       "--reps": "2", **flags})
            assert main(["simulate", *argv]) == 1
            assert f"config error: {message}" in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_bad_input_file_is_one_and_writes_nothing(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5\nnot-a-number\n", encoding="utf-8")
        short = tmp_path / "short.txt"
        short.write_text("1\n0\n", encoding="utf-8")
        reals = tmp_path / "reals.txt"
        reals.write_text("1\n0\n0.5\n" + "1\n" * 7, encoding="utf-8")
        runs = [
            ("dgp", ["simulate", *_simulate_args(tmp_path / "run", **{"--dgp": "file:/missing"})]),
            ("dgp", ["simulate", *_simulate_args(tmp_path / "run", **{"--dgp": f"file:{short}"})]),
            ("dgp", ["eprocess", *_simulate_args(tmp_path / "run", **{"--dgp": f"file:{short}"})]),
            # the e-process blames the input its faulty data came from
            ("dgp", ["eprocess", *_simulate_args(tmp_path / "run", **{"--dgp": f"file:{reals}"})]),
            ("null", ["eprocess", *_simulate_args(tmp_path / "run", **{
                "--null": "categorical:0.2,0.3,0.5"})]),
            ("example1", ["eprocess", *_simulate_args(tmp_path / "run", **{
                "--alt": "iid:0.5", "--example1": f"file:{bad}"})]),
        ]
        for field, argv in runs:
            assert main(argv) == 1
            assert f"config error: {field}: " in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_non_finite_law_is_one(self, tmp_path, capsys):
        for flags in ({"--alt": "iid:nan,0.5", "--dgp": "alt"},
                      {"--alt": "iid:0.2,0.3,0.5", "--null": "categorical:nan,0.5,0.5"}):
            code = main(["simulate", *_simulate_args(tmp_path / "run", **flags)])
            assert code == 1
            assert "finite" in capsys.readouterr().err

    def test_a_law_off_by_5e_10_is_one_for_the_null_as_for_the_alternative(self, tmp_path,
                                                                             capsys):
        # the null and the alternative share one law rule, a sum within 1e-12 of 1
        for flags, field in (({"--null": "categorical:0.5,0.5000000005"}, "null"),
                             ({"--alt": "iid:0.5,0.5000000005", "--dgp": "alt"}, "alt")):
            assert main(["simulate", *_simulate_args(tmp_path / "run", **flags)]) == 1
            assert f"config error: {field}: " in capsys.readouterr().err
            assert not (tmp_path / "run").exists()

    def test_usage_error_is_one(self, capsys):
        assert main(["simulate", "--seed", "notanint"]) == 1
        assert main(["frobnicate"]) == 1
        assert main([]) == 1

    def test_missing_seed_is_one(self, tmp_path, capsys):
        code = main(["simulate", "--horizon", "5", "--reps", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_bad_config_file_is_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["simulate", "--config", str(missing)]) == 1
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        assert main(["simulate", "--config", str(broken)]) == 1

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["simulate", "--help"]) == 0


@pytest.mark.parametrize("command", ["simulate", "eprocess"])
def test_integral_float_data_reads_as_symbols(tmp_path, monkeypatch, command):
    # a --dgp file: stream is read by the fold's symbol rule, so 1.0 is the symbol 1
    bits = [1, 0, 0, 1, 1, 0, 1, 1, 1, 0]
    written = []
    for name, text in (("ints", "{}\n"), ("floats", "{}.0\n")):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # the reports record the --dgp path as given
        Path("bits.txt").write_text("".join(text.format(z) for z in bits), encoding="utf-8")
        assert main([command, *_simulate_args("run", **{"--dgp": "file:bits.txt"})]) == 0
        written.append({path.name: path.read_bytes() for path in Path("run").iterdir()})
    assert written[0] == written[1]


class TestOtherCommands:
    def test_optimality_command(self, tmp_path, capsys):
        code = main(
            [
                "optimality",
                "--seed", "7",
                "--horizon", "4",
                "--reps", "1",
                "--alt", "markov:0.1,0.1",
                "--measure", "identity",
                "--bettor", "bayes_kelly",
                "--rivals", "25",
                "--out", str(tmp_path / "cert"),
            ]
        )
        assert code == 0
        assert (tmp_path / "cert" / "certificate.json").exists()

    def test_eprocess_command(self, tmp_path):
        code = main(
            [
                "eprocess",
                "--seed", "7",
                "--horizon", "6",
                "--reps", "1",
                "--null", "bernoulli:0.5",
                "--alt", "iid:0.5",
                "--measure", "identity",
                "--bettor", "bayes_kelly",
                "--out", str(tmp_path / "ep"),
            ]
        )
        assert code == 0
        out_dir = tmp_path / "ep"
        for name in ("eprocess_trajectory.csv", "evar_table.csv", "eprocess.json"):
            assert (out_dir / name).exists()


# A depth-3 binary conditional table, as the pinned runs below read it.
_TABLE3 = {"alphabet_size": 2, "conditionals": {
    "": [0.25, 0.75], "0": [0.5, 0.5], "1": [0.9, 0.1], "0,0": [0.125, 0.875],
    "0,1": [0.6, 0.4], "1,0": [0.3, 0.7], "1,1": [0.8, 0.2]}}

# sha256 of every file that point-mass and table: runs write at seed 3, which
# no bench digest covers; recorded before PointMassModel became a TableModel.
_PINNED = {
    "pointmass_simulate": (
        ["simulate", "--alt", "pointmass:1,0,1,1,0", "--dgp", "alt", "--horizon", "30",
         "--reps", "5"],
        {"summary.json": "ac0209f9c98c4e410adf3227f745d0b58a8d44a1f4522a7e74a91e350c173c97",
         "trajectory.csv": "fbb9d0690281837b879eeae011b170f167a8b7eb5ac8049d413d185e6a6e4203"}),
    "pointmass_ternary_distmean": (
        ["simulate", "--alt", "pointmass:2,0,1", "--null", "categorical:0.2,0.3,0.5",
         "--measure", "distmean", "--horizon", "20", "--reps", "5"],
        {"summary.json": "3d2d647c55b44c61ee52b15500901c4c7fa571dfcd54729d1fe3d291080d9865",
         "trajectory.csv": "97f171fd717a5fb1f69c3b3f93eaa4892f1d251e257b448deb7e5fcc35b5e550"}),
    "pointmass_optimality": (
        ["optimality", "--alt", "pointmass:1,0,1", "--horizon", "5"],
        {"certificate.json": "0b6bad06b17ae37a90ad6c46c950ba0d1fd8b6dab84f4e13e1da32caa8da4625"}),
    "pointmass_eprocess": (
        ["eprocess", "--alt", "pointmass:1,0,1,1", "--dgp", "alt", "--horizon", "14"],
        {"eprocess.json": "86e6dd530cdfca56a49fc68d758f8deac7540ba4657ca8ee82078757a29083fc",
         "eprocess_trajectory.csv":
             "db049af289b5859ddcdcf5cbc059da7de595b6793811cb1452c283e922b6527f",
         "evar_table.csv": "2ed28da38cdb8a7118ca7a5abc994b307b6101f538a6f1c0e8715cb3d794c067"}),
    "table_simulate": (
        ["simulate", "--alt", "table:table3.json", "--dgp", "alt", "--horizon", "10",
         "--reps", "5"],
        {"summary.json": "45e3d0dbc553735b7f79dc828c24bbb66fbd4c4ada005c946d8be262a68757ba",
         "trajectory.csv": "53fdf73ffd5fb65ab492c9eae96551039e9832d74980abf5177d5bd0390d66bd"}),
    "table_eprocess": (
        ["eprocess", "--alt", "table:table3.json", "--dgp", "alt", "--horizon", "10"],
        {"eprocess.json": "318ede1c9116659ba10fcc8b3cfcd5e919f6a54e26981dcaf198a9c69a7e5f78",
         "eprocess_trajectory.csv":
             "de2b3fe5d24ed1fe1bb7fb8a3b8d5a374e3bc3f1b35f1b0405901e10dfe5bed0",
         "evar_table.csv": "08b9c1190c4fdde44a0e456f360daa234ef00b70c835b46aadc9c52259b6b254"}),
    # real observations through repr, and a constant tie-breaking draw
    "normal_constant_tau": (
        ["simulate", "--null", "normal:0,1", "--measure", "distmean", "--bettor", "constant",
         "--tau-mode", "constant:0.25", "--horizon", "12", "--reps", "3"],
        {"summary.json": "4ccc75f5257c6f09a74639da21d36a11bb8d92f55ba889c6919939a9801b891d",
         "trajectory.csv": "09feeed52f671f11be5d498c67ed76ed1e37b2582d0cdc2004c2373a86276185"}),
    # a mixed int/float stream: integral floats are written as ints
    "file_mixed_floats": (
        ["simulate", "--dgp", "file:obs.txt", "--measure", "distmean", "--bettor", "constant",
         "--horizon", "6", "--reps", "2"],
        {"summary.json": "19278ba27003519e3fbd02a06b24f5acb80ca19fc7767d4b12915455a53ab82e",
         "trajectory.csv": "c52ab0793e300b74153e3223322c273ce1b92e3061b2cab35c00deebca209645"}),
}


@pytest.mark.parametrize("name", _PINNED)
def test_model_runs_write_pinned_bytes(tmp_path, monkeypatch, capsys, name):
    argv, digests = _PINNED[name]
    monkeypatch.chdir(tmp_path)  # eprocess.json records the table path as given
    Path("table3.json").write_text(json.dumps(_TABLE3), encoding="utf-8")
    Path("obs.txt").write_text("1\n2.0\n-0.5\n3\n0\n1e-3\n", encoding="utf-8")
    assert main([*argv, "--seed", "3", "--out", "run"]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in Path("run").iterdir()}
    assert written == digests


def _run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's ctmkit."""
    src = str(Path(ctmkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


# The bench's mc_validate workload at seed 1.
_MC_VALIDATE = ["validate", "--horizon", "50", "--reps", "600", "--null", "bernoulli:0.3",
                "--alt", "changepoint:0.5,0.9,0.2", "--measure", "identity",
                "--bettor", "bayes_kelly", "--seed", "1"]

_WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was not refused")
from ctmkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestStartup:
    def test_cli_import_is_lean(self):
        result = _run_python(
            "import sys, ctmkit.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_simulate_leaves_numpy_ma_unloaded(self, tmp_path):
        result = _run_python(
            "import sys\n"
            "from ctmkit.harness import ExperimentConfig, run_simulate\n"
            "cfg = ExperimentConfig.from_mapping(\n"
            "    {'seed': 1, 'horizon': 20, 'reps': 3, 'out': sys.argv[1]})\n"
            "run_simulate(cfg)\n"
            "print('numpy.ma' in sys.modules)",
            str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
        assert (tmp_path / "summary.json").exists()

    def test_validate_runs_without_scipy(self, tmp_path):
        blocked = _run_python(_WITHOUT_SCIPY, *_MC_VALIDATE, "--out", str(tmp_path / "blocked"))
        assert blocked.returncode == 0, blocked.stderr
        assert main([*_MC_VALIDATE, "--out", str(tmp_path / "free")]) == 0
        assert ((tmp_path / "blocked" / "validity.json").read_bytes()
                == (tmp_path / "free" / "validity.json").read_bytes())


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        modules = [ctmkit] + [importlib.import_module(f"ctmkit.{info.name}")
                              for info in pkgutil.iter_modules(ctmkit.__path__)]
        for module in modules:
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_no_module_imports_a_private_name_of_another(self):
        # a name with a leading underscore stays in its own module: no
        # ``from .sibling import _name`` (nor ``from ctmkit.sibling import _name``)
        found = []
        for path in sorted(Path(ctmkit.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (
                        node.level or (node.module or "").split(".")[0] == "ctmkit"):
                    found += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
        assert found == []
