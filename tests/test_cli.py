"""Command-line interface: exit codes, envelopes, output formats."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from heckezero import cli, quadfield
from heckezero.acceptance import CriterionResult
from heckezero.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

LVALUE_ARGS = ["lvalue", "--d", "5", "--delta", "3,1,2",
               "--chi", "q=3;gens=2:1"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args, capsys)
    return code, json.loads(out)


class TestExitCodes:
    def test_success(self, capsys):
        code, _ = run_cli(["field", "--d", "5"], capsys)
        assert code == 0

    def test_validation_error(self, capsys):
        code, _ = run_cli(["field", "--d", "12"], capsys)
        assert code == 2

    def test_selftest_failure_is_invariant_error(self, monkeypatch, capsys):
        failing = CriterionResult(1, "stub", False, "forced failure", 0.0)
        monkeypatch.setattr(cli, "run_all", lambda: [failing])
        code, doc = run_json(["selftest"], capsys)
        assert code == 3
        assert doc["results"]["all_passed"] is False


class TestBoundary:
    """Bad input exits 2 with one JSON error object on stderr."""

    def run_error(self, args, capsys, error=None):
        code = main(args)
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(lines) == 1
        doc = json.loads(lines[0])
        assert set(doc) == {"error", "message"}
        assert error is None or doc["error"] == error
        return doc["message"]

    def test_chi_modulus_zero(self, capsys):
        msg = self.run_error(["lvalue", "--d", "5", "--delta", "3,1,2",
                              "--chi", "q=0;gens="], capsys)
        assert "q = 0" in msg

    def test_delta_zero_denominator(self, capsys):
        msg = self.run_error(["lvalue", "--d", "5", "--delta", "3,1,0",
                              "--chi", "q=3;gens=2:1"], capsys)
        assert "denominator" in msg

    @pytest.mark.parametrize("d,delta", [("5", "3,1,1"), ("13", "4,1,1")])
    def test_non_ideal_delta(self, d, delta, capsys):
        # [1, delta] is an order of index 2, not an ideal of the maximal
        # order, so b = [1, delta]^{-1} does not exist
        self.run_error(["lvalue", "--d", d, "--delta", delta,
                        "--chi", "q=3;gens=2:1"], capsys, "IncompatiblePair")

    def test_huge_radicand_refused(self, capsys):
        # rho would need about 2^30 steps for the factor 2^61 - 1
        t0 = time.monotonic()
        self.run_error(["field", "--d", str((2**61 - 1) * (2**89 - 1))],
                       capsys, "BoundExceeded")
        assert time.monotonic() - t0 < 1.0

    def test_lvalue_work_budget(self, capsys):
        # q^2 * m = 10007^2 * 2 kernel steps, twice the budget
        t0 = time.monotonic()
        msg = self.run_error(["lvalue", "--d", "2", "--delta", "2,1,1",
                              "--chi", "q=10007;gens=5:1"],
                             capsys, "BoundExceeded")
        assert time.monotonic() - t0 < 1.0
        assert "200280098" in msg

    def test_field_d_zero(self, capsys):
        msg = self.run_error(["field", "--d", "0"], capsys)
        assert "must be > 1" in msg and "divisible" not in msg

    def test_lvalue_q_option_removed(self, capsys):
        with pytest.raises(SystemExit):
            main(LVALUE_ARGS + ["--q", "7"])
        capsys.readouterr()

    def test_lvalue_ideal_option_removed(self, capsys):
        with pytest.raises(SystemExit):
            main(LVALUE_ARGS + ["--ideal", "1,0,1,1"])
        capsys.readouterr()


class TestEnvelope:
    def test_fields(self, capsys):
        code, doc = run_json(["field", "--d", "5"], capsys)
        assert code == 0
        assert doc["tool"] == "hecke-zero"
        assert doc["subcommand"] == "field"
        assert "elapsed_s" in doc
        assert doc["inputs"]["d"] == 5
        assert "threads" not in doc

    def test_inputs_sorted(self, capsys):
        _, doc = run_json(LVALUE_ARGS, capsys)
        keys = list(doc["inputs"].keys())
        assert keys == sorted(keys)


class TestField:
    def test_d3(self, capsys):
        _, doc = run_json(["field", "--d", "3"], capsys)
        res = doc["results"]
        assert res["class_number"] == 1
        assert res["narrow_class_number"] == 2
        assert res["fundamental_unit"] == {"a": 2, "b": 1, "c": 1, "d": 3}

    def test_d79(self, capsys):
        _, doc = run_json(["field", "--d", "79"], capsys)
        assert doc["results"]["class_number"] == 3
        assert doc["results"]["narrow_class_number"] == 6

    def test_field_built_once(self, monkeypatch, capsys):
        calls = []
        make_field = quadfield.make_field

        def counted(d):
            calls.append(d)
            return make_field(d)
        monkeypatch.setattr(quadfield, "make_field", counted)
        monkeypatch.setattr(cli, "make_field", counted)
        code, _ = run_cli(["field", "--d", "229"], capsys)
        assert code == 0 and calls == [229]

    def test_rebound_command_runs(self, monkeypatch, capsys):
        # the parser is built once; the subcommand is looked up per call
        run_cli(["field", "--d", "5"], capsys)
        monkeypatch.setattr(cli, "cmd_field", lambda args: {"d": -args.d})
        code, doc = run_json(["field", "--d", "5"], capsys)
        assert code == 0 and doc["results"] == {"d": -5}


class TestLValue:
    def test_oracle(self, capsys):
        code, doc = run_json(LVALUE_ARGS, capsys)
        assert code == 0
        assert doc["results"]["value"]["value"] == "2/3"

    def test_decimal_display(self, capsys):
        _, doc = run_json(LVALUE_ARGS, capsys)
        approx = doc["results"]["value"]["display_decimal_approx"]
        assert approx.startswith("0.6666666666")


class TestCF:
    def test_convert(self, capsys):
        _, doc = run_json(["cf", "convert", "--plus", "2,3"], capsys)
        res = doc["results"]
        assert res["minus_period"] == [4, 2, 2]
        assert res["special_positions"] == [0]

    def test_determinism(self, capsys):
        _, a = run_cli(["cf", "convert", "--plus", "2,3"], capsys)
        _, b = run_cli(["cf", "convert", "--plus", "2,3"], capsys)
        ja, jb = json.loads(a), json.loads(b)
        ja.pop("elapsed_s"), jb.pop("elapsed_s")
        assert ja == jb


class TestLinearity:
    def test_verify(self, capsys):
        code, doc = run_json(["linearity", "verify", "--family", "yokoi",
                              "--chi", "q=3;gens=2:1", "--r", "1",
                              "--k", "0,1,2,3,4,5,6,7"], capsys)
        assert code == 0
        v = doc["results"]["verdicts"]
        assert v["affine_exact"] and v["closed_form_match"]

    def test_closed_form_cells(self, capsys):
        code, doc = run_json(["linearity", "closed-form", "--family", "yokoi",
                              "--chi", "q=3;gens=2:1", "--r", "1"], capsys)
        assert code == 0
        cells = doc["results"]["cells"]
        assert len(cells) == 9
        assert cells[0] == {"C": 1, "D": 1, "A_CD": "-4/3", "B_CD": "-4"}


class TestBiro:
    def test_search(self, capsys):
        code, doc = run_json(["biro", "search", "--q-max", "5",
                              "--p-max", "5"], capsys)
        assert code == 0
        pairs = doc["results"]["pairs"]
        assert len(pairs) == 2
        assert all(p["q"] == 5 and p["p"] == 5 for p in pairs)

    def test_oracle(self, capsys):
        code, doc = run_json(["biro", "oracle", "--family", "yokoi",
                              "--n", "1", "--chi", "q=3;gens=2:1"], capsys)
        assert code == 0
        assert doc["results"]["equal"] is True


class TestOutputOptions:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(["field", "--d", "5", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(target.read_text().splitlines()[0])
        assert doc["results"]["class_number"] == 1

    def test_global_flags_before_subcommand(self, tmp_path, capsys):
        target = tmp_path / "o.json"
        code = main(["--out", str(target), "field", "--d", "5"])
        capsys.readouterr()
        assert code == 0
        assert target.exists()

    def test_csv(self, capsys):
        code, out = run_cli(["biro", "search", "--q-max", "5", "--p-max", "5",
                             "--format", "csv"], capsys)
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        assert len(lines) == 3          # header + two pairs
        assert "q" in lines[0]


class TestFamilyFile:
    def test_json_family(self, tmp_path, capsys):
        spec = {
            "name": "yokoi-file",
            "f_coeffs": [4, 0, 1],
            "delta": {"u_coeffs": [2, 1], "v_coeffs": [1], "w": 2},
            "acf": [{"alpha": 1, "beta": 0}],
            "n_constraints": {"parity": "odd", "forbidden_residues": []},
        }
        f = tmp_path / "fam.json"
        f.write_text(json.dumps(spec))
        code, doc = run_json(["linearity", "verify", "--family", str(f),
                              "--chi", "q=3;gens=2:1", "--r", "1",
                              "--k", "0,1,2,3,4,5,6,7"], capsys)
        assert code == 0
        assert doc["results"]["verdicts"]["affine_exact"]

    def test_malformed_family(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"name": "x"}')
        code, _ = run_cli(["linearity", "verify", "--family", str(f),
                           "--chi", "q=3;gens=2:1", "--r", "1",
                           "--k", "0,1,2,3,4,5,6,7"], capsys)
        assert code == 2


def test_console_script_selftest():
    # run out of process so the entry point itself is exercised
    proc = subprocess.run([sys.executable, "-m", "heckezero.cli", "selftest"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "criterion 1" in proc.stderr


def test_cli_import_stays_pure_python():
    # a fresh `import heckezero.cli` is the benchmark's setup cost: it must
    # load no NumPy and no compiled heckezero module
    probe = (
        "import sys, heckezero.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "for name, mod in sys.modules.items():\n"
        "    if name.startswith('heckezero.'):\n"
        "        assert mod.__file__.endswith('.py'), mod.__file__\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
