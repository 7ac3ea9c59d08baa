"""Command-line interface: exit codes, envelopes, output formats."""

import contextlib
import decimal
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckezero import (acceptance, biro, cli, commands, linearity,
                       quadfield, shintani)
from heckezero.acceptance import CriterionResult
from heckezero.biro import yokoi_intro_ab
from heckezero.characters import (DirichletCharacter, chi_sum,
                                  cyclo_to_dict)
from heckezero.cli import main
from heckezero.errors import DeltaOutOfRange
from heckezero.exact import rational_to_str, square_prime
from oracles import condition_star_search_reference
from test_linearity import EVEN_FAMILY_FILE, PAPER_FAMILY_FILES

SRC = Path(__file__).resolve().parents[1] / "src"

LVALUE_ARGS = ["lvalue", "--d", "5", "--delta", "3,1,2",
               "--chi", "q=3;gens=2:1"]
NO_TABLE = {"error": "ValidationError",
            "message": "this payload has no flat table to export as csv"}
YOKOI_FILE = {"name": "yokoi-file", "f_coeffs": [4, 0, 1],
              "delta": {"u_coeffs": [2, 1], "v_coeffs": [1], "w": 2},
              "acf": [{"alpha": 1, "beta": 0}],
              "n_constraints": {"parity": "odd", "forbidden_residues": []}}


def replaced(path, value) -> bytes:
    """YOKOI_FILE as JSON with the field at path (keys and indices, empty
    for the whole document) replaced by value."""
    doc = json.loads(json.dumps(YOKOI_FILE))
    if not path:
        return json.dumps(value).encode()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc).encode()


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
        monkeypatch.setattr(acceptance, "run_all", lambda: [failing])
        code, doc = run_json(["selftest"], capsys)
        assert code == 3
        assert doc["results"]["all_passed"] is False


class TestBoundary:
    """Bad input exits 2 with one JSON error object on stderr."""

    def run_error(self, args, capsys, error=None):
        code = main(args)
        out, err = capsys.readouterr()
        lines = err.strip().splitlines()
        assert code == 2 and len(lines) == 1 and out == ""
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
        # q^2 * m = 9973^2 * 2 kernel steps, twice the budget; 9973 is the
        # largest prime modulus the character parser accepts
        t0 = time.monotonic()
        msg = self.run_error(["lvalue", "--d", "2", "--delta", "2,1,1",
                              "--chi", "q=9973;gens=11:1"],
                             capsys, "BoundExceeded")
        assert time.monotonic() - t0 < 1.0
        assert "198921458" in msg

    @pytest.mark.parametrize("args", [
        ["search", "--q-max", "3", "--p-max", "1000000000"],
        ["search", "--q-max", "100001", "--p-max", "3"],
        ["residues", "--family", "yokoi", "--q-max", "3",
         "--p-max", "1000000000"],
        ["residues", "--family", "yokoi", "--q-max", "100001",
         "--p-max", "3"],
        # a search this size is cheap, the closed-form tables of the
        # moduli it finds are not: 31,857,066 steps, priced from its pairs
        ["residues", "--family", "yokoi", "--q-max", "61", "--p-max", "61"],
    ], ids=["search-p", "search-q", "residues-p", "residues-q",
            "residues-tables"])
    def test_sieve_work_budget(self, args, capsys):
        t0 = time.monotonic()
        msg = self.run_error(["biro", *args], capsys, "BoundExceeded")
        assert time.monotonic() - t0 < 1.0
        assert "sieve steps" in msg

    @pytest.mark.parametrize("args", [
        ["lvalue", "--d", "5", "--delta", "3,1,2",
         "--chi", "q=200003;gens=2:1"],
        ["lvalue", "--d", "5", "--delta", "3,1,2",
         "--chi", "q=1000000007;gens=5:1"],
        # its 1,018,081 cells, over CELL_BOUND, before any member is built;
        # its one block's q^2 steps are in budget
        ["linearity", "closed-form", "--family", "yokoi",
         "--chi", "q=1009;gens=11:1", "--r", "1007"],
        # its 502,681 cells are just over CELL_BOUND
        ["linearity", "closed-form", "--family", "yokoi",
         "--chi", "q=709;gens=", "--r", "1"],
        # radicands over CLASS_NUMBER_BOUND, refused before the unit
        ["field", "--d", "1000000000039"],
        ["field", "--d", "10000000019"],
        # a minus word of 10^7 digits, refused before it is allocated
        ["cf", "convert", "--plus", "10000000"],
        # each L-value is in budget, the 1000 samples together are not
        ["linearity", "verify", "--family", "yokoi",
         "--chi", "q=11;gens=2:1", "--r", "1",
         "--k", ",".join(map(str, range(1000)))],
    ], ids=["lvalue-q200003", "lvalue-q1000000007", "closed-form-q1009",
            "closed-form-q709", "field-d1e12", "field-d1e10",
            "convert-long-word", "verify-k1000"])
    def test_modulus_and_table_budgets(self, args, capsys):
        t0 = time.monotonic()
        self.run_error(args, capsys, "BoundExceeded")
        assert time.monotonic() - t0 < 1.0

    def test_walk_digit_bound(self, capsys):
        # the minus expansion of sqrt(2)/10^7 has tens of millions of
        # digits; the walk stops at WALK_DIGIT_BOUND = 10^6 of them
        msg = self.run_error(["cf", "expand", "--d", "2", "--surd",
                              "0,1,10000000", "--kind", "minus"],
                             capsys, "BoundExceeded")
        assert "past 1000000 digits" in msg

    def test_long_minus_word_refused_before_walk(self, capsys):
        # Yokoi's member n = 1000001: delta - 1 has the plus period (n,),
        # so its minus word of n digits is refused from one plus digit,
        # before any minus digit is walked
        n = 1000001
        t0 = time.monotonic()
        msg = self.run_error(["lvalue", "--d", str(n * n + 4), "--delta",
                              f"{n + 2},1,2", "--chi", "q=1;gens="],
                             capsys, "BoundExceeded")
        assert time.monotonic() - t0 < 1.0
        assert msg == "the minus word has 1000001 digits, over 1000000"

    def test_walk_refusal_memory(self):
        # the walk remembers one state besides its digits, so refusing at
        # WALK_DIGIT_BOUND peaks under 64 MiB.  The probe reads its own
        # VmHWM (KiB): on Linux, exec carries the peak of the process that
        # started it into ru_maxrss, and pytest's peak is near 64 MiB
        probe = (
            "from heckezero.cli import main\n"
            "code = main(['cf', 'expand', '--d', '2', '--surd',"
            " '0,1,10000000', '--kind', 'minus'])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(code, next(line.split()[1] for line in fh"
            " if line.startswith('VmHWM:')))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-W", "error", "-c", probe],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        code, peak_kib = map(int, proc.stdout.split())
        assert code == 2 and "BoundExceeded" in proc.stderr
        assert peak_kib < 64 * 1024

    def test_inconsistent_family_file(self, tmp_path, capsys):
        # Yokoi's delta with its digits declared as 2n: delta(1) - 1 = [[1]]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({
            "name": "yokoi-2n", "f_coeffs": [4, 0, 1],
            "delta": {"u_coeffs": [2, 1], "v_coeffs": [1], "w": 2},
            "acf": [{"alpha": 2, "beta": 0}],
            "n_constraints": {"parity": "odd"}}))
        t0 = time.monotonic()
        msg = self.run_error(["linearity", "verify", "--family", str(f),
                              "--chi", "q=3;gens=2:1", "--r", "1",
                              "--k", "0,1,2,3"], capsys, "SpecInconsistent")
        assert time.monotonic() - t0 < 1.0
        assert "delta(1)-1" in msg and "(2,)" in msg

    @pytest.mark.parametrize("contents,text", [
        (replaced((), [1, 2]), "a family description must be an object"),
        (replaced((), None), "a family description must be an object"),
        (replaced(("n_constraints",), []), "n_constraints must be an object"),
        (replaced(("f_coeffs",), ["4", 0, 1]),
         "f_coeffs must be an integer, got '4'"),
        (replaced(("f_coeffs",), [4.5, 0, 1]),
         "f_coeffs must be an integer, got 4.5"),
        (replaced(("delta", "w"), 2.0), "w must be an integer, got 2.0"),
        (replaced(("n_constraints", "forbidden_residues"), [[0, 1]]),
         "modulus m >= 1"),
        (None, "Is a directory"),
        (b'{"name": "\xff"}', "not UTF-8 text"),
        (replaced(("acf",), [[1, 0]]), "an acf entry must be an object"),
        (replaced(("n_constraints", "parity"), "od"),
         'parity must be "odd" or "even"'),
        (replaced(("f_coeffs",), [True, 0, 1]),
         "f_coeffs must be an integer, got True"),
        # past the recursion limit of json's scanner on 3.10 to 3.13
        (b"[" * 10 ** 4 + b"]" * 10 ** 4, "unreadable JSON"),
        (b'{"name": ' + b"1" * 5000 + b"}", "unreadable JSON"),
        (replaced(("f_coeffs",), [[1] * 1000]),
         "f_coeffs must be an integer, got [1, 1, 1, 1, 1, 1, ...]"),
        # a misspelled optional key would drop the constraint it names
        (replaced(("n_constraint",), {"parity": "odd"}),
         "unknown key 'n_constraint' in a family description"),
        (replaced(("delta", "w_coeffs"), [2]),
         "unknown key 'w_coeffs' in delta"),
        (replaced(("acf", 0, "gamma"), 1),
         "unknown key 'gamma' in an acf entry"),
        (replaced(("n_constraints", "forbiden_residues"), [[5, 0]]),
         "unknown key 'forbiden_residues' in n_constraints"),
    ], ids=["top-list", "top-null", "nc-list", "coeff-str", "coeff-float",
            "w-float", "forbidden-m0", "directory", "not-utf8", "acf-pair",
            "parity-typo", "coeff-bool", "deep-nesting", "long-integer",
            "long-value", "top-unknown-key", "delta-unknown-key",
            "acf-unknown-key", "nc-unknown-key"])
    def test_malformed_family_file(self, contents, text, tmp_path, capsys):
        path = tmp_path / "family.json"
        if contents is None:
            path.mkdir()
        else:
            path.write_bytes(contents)
        msg = self.run_error(["linearity", "hypothesis", "--family",
                              str(path), "--chi", "q=3;gens=2:1", "--r", "1"],
                             capsys, "ParseError")
        assert text in msg and len(msg) < 500

    @pytest.mark.parametrize("target", ["adir", "no/such/dir/x.jsonl"],
                             ids=["out-directory", "out-missing-dir"])
    def test_out_not_appendable(self, target, tmp_path, monkeypatch, capsys):
        (tmp_path / "adir").mkdir()
        monkeypatch.chdir(tmp_path)
        msg = self.run_error(["field", "--d", "5", "--out", target], capsys,
                             "ParseError")
        assert repr(target) in msg

    def test_field_d_zero(self, capsys):
        msg = self.run_error(["field", "--d", "0"], capsys)
        assert "must be > 1" in msg and "divisible" not in msg

    def test_lvalue_q_option_removed(self, capsys):
        msg = self.run_error(LVALUE_ARGS + ["--q", "7"], capsys, "ParseError")
        assert "--q" in msg

    def test_lvalue_ideal_option_removed(self, capsys):
        msg = self.run_error(LVALUE_ARGS + ["--ideal", "1,0,1,1"], capsys,
                             "ParseError")
        assert "--ideal" in msg

    def test_bad_int_argument(self, capsys):
        msg = self.run_error(["lvalue", "--d", "x", "--delta", "1,1",
                              "--chi", "q=3;gens=2:1"], capsys, "ParseError")
        assert "invalid int value: 'x'" in msg

    @pytest.mark.parametrize("args,error,text", [
        (["cf", "expand", "--d", "-3", "--surd", "1,1"], "NotSquarefree",
         "-3"),
        (["cf", "eval", "--word", ","], "ParseError", "','"),
        (["cf", "expand", "--d", "5", "--surd", "x,1"], "ParseError",
         "'x,1'"),
        (["cf", "eval", "--word", "-1,2"], "ParseError",
         "periodic minus digits must be >= 2"),
        (["cf", "convert", "--plus", "0,1"], "ParseError",
         "periodic plus digits must be >= 1"),
        (["linearity", "hypothesis", "--family", "w0.json",
          "--chi", "q=3;gens=2:1", "--r", "1"], "ParseError",
         "w must be a positive integer"),
        (["biro", "search", "--q-max", "2", "--p-max", "5"], "ParseError",
         "bounds must be at least 3"),
        # the double sums run over Yokoi's norm form only
        (["biro", "oracle", "--family", "rd-n2p1", "--n", "1",
          "--chi", "q=3;gens=2:1", "--intro-ab"], "ParseError", "yokoi"),
        (LVALUE_ARGS[:-1] + ["q=3;gens=2:1,2:0"], "ParseError",
         "generator 2 is named twice"),
        (LVALUE_ARGS[:-1] + ["q=3;gens=2"], "ParseError",
         "bad character identifier 'q=3;gens=2'"),
        (LVALUE_ARGS[:-1] + ["q=3;gens=2:1:5"], "ParseError",
         "bad character identifier 'q=3;gens=2:1:5'"),
        # the hypothesis is proven for the whole class, not sampled at k
        (["linearity", "hypothesis", "--family", "yokoi",
          "--chi", "q=3;gens=2:1", "--r", "1", "--k", "0"],
         "ParseError", "--k"),
    ], ids=["radicand", "empty-digits", "bad-digit", "minus-digit",
            "plus-digit", "family-w0", "search-bounds", "intro-ab-family",
            "chi-generator-twice", "chi-pair-short", "chi-pair-long",
            "hypothesis-one-k"])
    def test_named_input_errors(self, args, error, text, tmp_path,
                                monkeypatch, capsys):
        # w0.json is Yokoi's family with the denominator w = 0
        (tmp_path / "w0.json").write_text(json.dumps({
            "name": "w0", "f_coeffs": [4, 0, 1],
            "delta": {"u_coeffs": [2, 1], "v_coeffs": [1], "w": 0},
            "acf": [{"alpha": 1, "beta": 0}]}))
        monkeypatch.chdir(tmp_path)
        assert text in self.run_error(args, capsys, error)

    @pytest.mark.parametrize("args", [["--help"], ["biro", "oracle", "-h"]])
    def test_help_exits_zero(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert "usage: hecke-zero" in capsys.readouterr().out


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
        # the handler of a command is looked up per call
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

    def test_caller_decimal_context_unchanged(self, capsys):
        with decimal.localcontext() as ctx:
            ctx.prec = 28
            run_json(LVALUE_ARGS, capsys)
            assert decimal.getcontext().prec == 28

    def test_norm_not_prime_to_q(self, capsys):
        # b = [3, 1+sqrt79] has norm 3, the modulus of chi
        code, doc = run_json(["lvalue", "--d", "79", "--delta", "11,1,3",
                              "--chi", "q=3;gens=2:1"], capsys)
        assert code == 0
        assert doc["results"]["value"]["value"] == "0"


class TestCF:
    def test_convert(self, capsys):
        _, doc = run_json(["cf", "convert", "--plus", "2,3"], capsys)
        res = doc["results"]
        assert res["minus_period"] == [4, 2, 2]
        assert res["special_positions"] == [0]

    @pytest.mark.parametrize("plus", [
        "8,7,4,3,5,4,8,3,5,6,9,5,3,7,6,3,9,9,8,9,"
        "3,7,9,7,5,1,4,6,9,9,5,8,3,8,5,1,7,4,8,7",
        ",".join(str(i % 9 + 1) for i in range(121))], ids=["s40", "s121"])
    def test_convert_long_word(self, plus, capsys):
        # the certificate compares the two folds' quadratics on integers
        # and factors neither discriminant (60 and 157 digits for the plus
        # folds), which rho may fail to split
        code, doc = run_json(["cf", "convert", "--plus", plus], capsys)
        a = [int(x) for x in plus.split(",")]
        assert code == 0
        assert len(doc["results"]["minus_period"]) == (
            sum(a) if len(a) % 2 else sum(a[1::2]))

    @pytest.mark.parametrize("d,surd,preperiod,period", [
        ("5", "3,1,2", [2], [1]), ("7", "0,1", [2], [1, 1, 1, 4])])
    def test_expand_plus(self, d, surd, preperiod, period, capsys):
        code, doc = run_json(["cf", "expand", "--d", d, "--surd", surd,
                              "--kind", "plus"], capsys)
        assert code == 0
        assert doc["results"] == {"kind": "plus", "preperiod": preperiod,
                                  "period": period}

    def test_determinism(self, capsys):
        _, a = run_cli(["cf", "convert", "--plus", "2,3"], capsys)
        _, b = run_cli(["cf", "convert", "--plus", "2,3"], capsys)
        ja, jb = json.loads(a), json.loads(b)
        ja.pop("elapsed_s"), jb.pop("elapsed_s")
        assert ja == jb


@pytest.mark.parametrize("words,option,value", [
    (["cf", "expand", "--d", "5"], "--surd", "-1,1"),
    (["linearity", "verify", "--family", "yokoi", "--chi", "q=3;gens=2:1",
      "--r", "1"], "--k", "-1,2,4,6,8"),
], ids=["surd", "k"])
def test_negative_comma_list(words, option, value, capsys):
    # a comma list that starts with a minus sign is a value, not an option
    code, spaced = run_json(words + [option, value], capsys)
    _, joined = run_json(words + [f"{option}={value}"], capsys)
    assert code == 0
    assert spaced["results"] == joined["results"]
    assert spaced["inputs"] == joined["inputs"]


# one argv per command path, each with its required options only, and the
# inputs its envelope echoes: both words, every option by its dest, and
# the defaults of the options left out (kind, intro_ab)
ECHOES = [
    (["field", "--d", "5"], {"command": "field", "d": 5}),
    (["cf", "expand", "--d", "5", "--surd", "3,1,2"],
     {"cf_cmd": "expand", "command": "cf", "d": 5, "kind": "minus",
      "surd": "3,1,2"}),
    (["cf", "convert", "--plus", "2,3"],
     {"cf_cmd": "convert", "command": "cf", "plus": "2,3"}),
    (["cf", "eval", "--word", "3"],
     {"cf_cmd": "eval", "command": "cf", "kind": "minus", "word": "3"}),
    (LVALUE_ARGS, {"chi": "q=3;gens=2:1", "command": "lvalue", "d": 5,
                   "delta": "3,1,2"}),
    (["linearity", "verify", "--family", "yokoi", "--chi", "q=3;gens=2:1",
      "--r", "1", "--k", "0,1"],
     {"chi": "q=3;gens=2:1", "command": "linearity", "family": "yokoi",
      "k": "0,1", "lin_cmd": "verify", "r": 1}),
    (["linearity", "closed-form", "--family", "yokoi", "--chi",
      "q=5;gens=2:1", "--r", "1"],
     {"chi": "q=5;gens=2:1", "command": "linearity", "family": "yokoi",
      "lin_cmd": "closed-form", "r": 1}),
    (["linearity", "hypothesis", "--family", "rd-n2p1", "--chi",
      "q=3;gens=2:1", "--r", "2"],
     {"chi": "q=3;gens=2:1", "command": "linearity", "family": "rd-n2p1",
      "lin_cmd": "hypothesis", "r": 2}),
    (["biro", "search", "--q-max", "7", "--p-max", "13"],
     {"biro_cmd": "search", "command": "biro", "p_max": 13, "q_max": 7}),
    (["biro", "residues", "--family", "yokoi", "--q-max", "7", "--p-max",
      "13"],
     {"biro_cmd": "residues", "command": "biro", "family": "yokoi",
      "p_max": 13, "q_max": 7}),
    (["biro", "oracle", "--family", "yokoi", "--n", "1", "--chi",
      "q=3;gens=2:1"],
     {"biro_cmd": "oracle", "chi": "q=3;gens=2:1", "command": "biro",
      "family": "yokoi", "intro_ab": False, "n": 1}),
    (["selftest"], {"command": "selftest"}),
]


def _joined(argv):
    """argv with every option and its value written as --name=value."""
    out, it = [], iter(argv)
    for word in it:
        out.append(f"{word}={next(it)}" if word.startswith("--") else word)
    return out


class TestParse:
    @pytest.fixture
    def echo(self, monkeypatch, capsys):
        """main on argv with every handler replaced by one that computes
        nothing: the envelope's inputs, in their printed order."""
        for module, name in [(cli, "cmd_field"), (cli, "cmd_cf"),
                             (cli, "cmd_lvalue"), (commands, "cmd_linearity"),
                             (commands, "cmd_biro"),
                             (commands, "cmd_selftest")]:
            monkeypatch.setattr(module, name,
                                lambda args: {"all_passed": True})

        def run(argv):
            code, doc = run_json(argv, capsys)
            assert code == 0
            return list(doc["inputs"].items())
        return run

    def test_one_argv_per_path(self):
        assert [tuple(echo[k] for k in ("command", "cf_cmd", "lin_cmd",
                                        "biro_cmd") if k in echo)
                for _, echo in ECHOES] == list(cli.COMMANDS)

    @pytest.mark.parametrize("argv,inputs", ECHOES,
                             ids=["-".join(w for w in a[:2] if w[0] != "-")
                                  for a, _ in ECHOES])
    def test_inputs_echo(self, argv, inputs, echo, tmp_path):
        # the same echo with --name=value and with --out and --format
        # before the words, where the --out line is appended as well
        target = tmp_path / "o.jsonl"
        assert echo(argv) == sorted(inputs.items())
        assert echo(_joined(argv)) == sorted(inputs.items())
        assert echo(["--out", str(target), "--format=json"] + argv) \
            == sorted(inputs.items())
        assert json.loads(target.read_text())["inputs"] == inputs

    def test_negative_r(self, echo):
        argv = ["linearity", "closed-form", "--family", "yokoi", "--chi",
                "q=3;gens=2:1", "--r"]
        assert ("r", -1000000000) in echo(argv + ["-1000000000"])
        assert ("r", -1) in echo(argv[:-1] + ["--r=-1"])

    @pytest.mark.parametrize("path", list(cli.COMMANDS), ids="-".join)
    def test_help_on_every_path(self, path, capsys):
        # the path's one usage line, which names each of its options
        with pytest.raises(SystemExit) as exc:
            main([*path, "-h"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        [line] = out.splitlines()
        assert line.startswith(" ".join(("usage: hecke-zero",) + path) + " ")
        assert err == "" and all(name in line for name in cli.COMMANDS[path])

    @pytest.mark.parametrize("argv,message", [
        (["biro", "search", "--q-m", "5", "--p-max", "5"],
         "hecke-zero biro search: unrecognized arguments: --q-m"),
        (["field", "--d", "5", "--form", "csv"],
         "hecke-zero field: unrecognized arguments: --form"),
        (["--fo", "csv", "field", "--d", "5"],
         "hecke-zero: unrecognized arguments: --fo"),
        (["lvalue", "--del=3,1,2", "--d", "5", "--chi", "q=3;gens=2:1"],
         "hecke-zero lvalue: unrecognized arguments: --del=3,1,2"),
    ], ids=["q-m", "form", "fo-first", "del"])
    def test_prefix_refused(self, argv, message, capsys):
        # an abbreviation names no option, however unique
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {"error": "ParseError",
                                                 "message": message}


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

    def test_closed_form_far_below_zero(self, capsys):
        # r = 2 - 3j, j = (10^25 + 2)/3, past any machine-sized count of k:
        # the members are those of r = 2, at k + j
        j = (10 ** 25 + 2) // 3
        args = ["linearity", "closed-form", "--family", "yokoi",
                "--chi", "q=3;gens=2:1", "--r"]
        near = run_json(args + ["2"], capsys)[1]["results"]
        code, doc = run_json(args + [str(2 - 3 * j)], capsys)
        assert code == 0
        far = doc["results"]
        assert far["B_chi"] == near["B_chi"]
        assert int(far["A_chi"]["value"]) == \
            int(near["A_chi"]["value"]) - j * int(near["B_chi"]["value"])

    def test_verify_q11_member_builds(self, monkeypatch, capsys):
        # 10 samples and the closed forms' walk to the smallest admissible
        # n = 2 mod 11 (n = 2 is even, n = 13 is the member); the norm
        # forms of the rest of the class take no build
        orig = linearity.family_instance
        calls = []

        def counted(spec, n):
            calls.append(n)
            return orig(spec, n)

        monkeypatch.setattr(linearity, "family_instance", counted)
        code, doc = run_json(["linearity", "verify", "--family", "yokoi",
                              "--chi", "q=11;gens=2:1", "--r", "2",
                              "--k", "0,1,2,3,4,5,6,7,8,9"], capsys)
        assert code == 0 and doc["results"]["verdicts"]["closed_form_match"]
        assert calls == [2 + 11 * k for k in range(10)] + [2, 13]

    def test_hypothesis(self, capsys):
        code, doc = run_json(["linearity", "hypothesis", "--family", "yokoi",
                              "--chi", "q=3;gens=2:1", "--r", "1"], capsys)
        assert code == 0
        assert doc["results"] == {"family": "yokoi", "q": 3, "r": 1,
                                  "hypothesis_holds": True}

    def test_hypothesis_failure(self, tmp_path, monkeypatch, capsys):
        # n^2 + 1 at even n, delta(n) = (n + 1 + sqrt f)/2 and delta - 1 =
        # [[n - 1, 1, 1]]: the norm form (1, n + 1, n/2) moves mod 4 with k
        # at n = 4k + r and at n = 8k + 2, so no closed form holds; the
        # even k at r = 0, or k = 0 .. 3 at q = 8, share one form
        (tmp_path / "even.json").write_text(json.dumps(EVEN_FAMILY_FILE))
        monkeypatch.chdir(tmp_path)
        for chi, r in (("q=4;gens=3:1", "0"), ("q=4;gens=3:1", "2"),
                       ("q=8;gens=7:1,5:1", "2")):
            args = ["--family", "even.json", "--chi", chi, "--r", r]
            assert main(["linearity", "closed-form", *args]) == 2
            out, err = capsys.readouterr()
            assert out == "" and \
                json.loads(err)["error"] == "HypothesisFailed"
            code, doc = run_json(["linearity", "hypothesis", *args], capsys)
            assert code == 0
            assert doc["results"]["hypothesis_holds"] is False
        # 9n^2 - 3 at even n, delta(n) = (3n + 1 + sqrt f)/2 and delta - 1 =
        # [[3n - 1, 2, n - 1, 2]]: its digits reach q = 2, so verify gets as
        # far as the closed forms, which refuse the class n = 2k
        (tmp_path / "n9m3.json").write_text(json.dumps({
            "name": "9n2m3-even", "f_coeffs": [-3, 0, 9],
            "delta": {"u_coeffs": [1, 3], "v_coeffs": [1], "w": 2},
            "acf": [{"alpha": a, "beta": b}
                    for a, b in ((3, -1), (0, 2), (1, -1), (0, 2))],
            "n_constraints": {"parity": "even"}}))
        assert main(["linearity", "verify", "--family", "n9m3.json",
                     "--chi", "q=2;gens=", "--r", "0",
                     "--k", "0,1,2,3,4,5,6,7"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "HypothesisFailed"


class TestBiro:
    def test_search(self, capsys):
        code, doc = run_json(["biro", "search", "--q-max", "5",
                              "--p-max", "5"], capsys)
        assert code == 0
        pairs = doc["results"]["pairs"]
        assert len(pairs) == 2
        assert all(p["q"] == 5 and p["p"] == 5 for p in pairs)

    def test_search_payload_matches_reference(self, capsys):
        # the payload, key order included, of the pairs of one image per
        # realization
        code, doc = run_json(["biro", "search", "--q-max", "45",
                              "--p-max", "61"], capsys)
        assert code == 0
        want = {"q_max": 45, "p_max": 61, "pairs": [
            {"q": pair.q, "p": pair.p, "chi": pair.chi.identifier(),
             "zeta_image": pair.realization.zeta_image,
             "witness": pair.witness}
            for pair in condition_star_search_reference(45, 61)]}
        assert len(want["pairs"]) == 1050
        assert json.dumps(doc["results"]) == json.dumps(want)

    def test_residues_name_each_character_once(self, monkeypatch, capsys):
        # the payload names each character of the reports once, not once
        # per report; the identifier calls of the search's sort are not
        # counted
        calls = []
        reports = biro.residue_reports
        identifier = DirichletCharacter.identifier

        def counted_reports(*args):
            out = reports(*args)
            calls.clear()
            return out

        def counted(chi):
            calls.append(chi)
            return identifier(chi)
        monkeypatch.setattr(biro, "residue_reports", counted_reports)
        monkeypatch.setattr(DirichletCharacter, "identifier", counted)
        code, doc = run_json(["biro", "residues", "--family", "yokoi",
                              "--q-max", "7", "--p-max", "13"], capsys)
        assert code == 0
        names = [rep["chi"] for rep in doc["results"]["reports"]]
        assert len(calls) == len(set(names)) < len(names)

    @pytest.mark.parametrize("family", ["yokoi", "rd-n2p1"])
    def test_residues_determined(self, family, capsys):
        # the first run whose sieve decides: every class of one pair at
        # (q, p) = (47, 5) gets a determined residue, and the Yokoi members
        # with h = h+ = 1 obey every report of their class
        code, doc = run_json(["biro", "residues", "--family", family,
                              "--q-max", "47", "--p-max", "5"], capsys)
        assert code == 0
        reports = doc["results"]["reports"]
        determined = [rep for rep in reports if rep["status"] == "determined"]
        assert (len(reports), len(determined)) == (215, 47)
        assert {(rep["q"], rep["p"]) for rep in determined} == {(47, 5)}
        if family != "yokoi":
            return
        for rep in reports:
            for n in (1, 3, 5, 7, 13, 17):
                if n % rep["q"] == rep["r"]:
                    assert rep["status"] != "vacuous", (rep, n)
                    assert rep["status"] != "determined" or \
                        rep["residue"] == n % rep["p"], (rep, n)

    def test_oracle(self, capsys):
        code, doc = run_json(["biro", "oracle", "--family", "yokoi",
                              "--n", "1", "--chi", "q=3;gens=2:1"], capsys)
        assert code == 0
        assert doc["results"]["equal"] is True

    def test_oracle_intro_ab(self, capsys):
        chi = DirichletCharacter.from_identifier("q=5;gens=2:1")
        code, doc = run_json(["biro", "oracle", "--family", "yokoi",
                              "--n", "7", "--chi", chi.identifier(),
                              "--intro-ab"], capsys)
        assert code == 0
        A, B, rho = yokoi_intro_ab(chi, 7 % 5)
        res = doc["results"]
        # order-4 values carry no rational "value" field
        assert res["intro_A"] == cyclo_to_dict(A)
        assert res["intro_B"] == cyclo_to_dict(B)
        assert res["intro_proportionality"] == rational_to_str(rho)


class TestOutputOptions:
    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(["field", "--d", "5", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(target.read_text().splitlines()[0])
        assert doc["results"]["class_number"] == 1

    def test_stdout_is_the_out_line(self, tmp_path, capsys):
        # one compact encoding, printed and appended byte for byte
        target = tmp_path / "out.jsonl"
        code, out = run_cli(["biro", "search", "--q-max", "11",
                             "--p-max", "23", "--out", str(target)], capsys)
        assert code == 0
        assert out == target.read_text()
        assert out.count("\n") == 1 and ", " not in out and ": " not in out

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

    def test_csv_refused_before_the_command_runs(self, monkeypatch, capsys):
        # an lvalue payload has no table, so the engine never runs
        def engine(*args):
            raise AssertionError("the L-value was computed")
        monkeypatch.setattr(shintani, "partial_hecke_L_zero", engine)
        assert main(LVALUE_ARGS + ["--format", "csv"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == NO_TABLE

    def test_csv_of_an_empty_table_refused(self, capsys):
        # biro search has a table, but no pair below these bounds
        assert main(["biro", "search", "--q-max", "3", "--p-max", "3",
                     "--format", "csv"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == NO_TABLE


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

    @pytest.mark.parametrize("name", list(PAPER_FAMILY_FILES))
    def test_paper_family_file(self, name, tmp_path, capsys):
        # chowla's period at n = 1 is (1, 1, 1), a power of (1), and n2m2's
        # at n = 2 is (2, 1, 0, 1): neither n is a member, so the file loads
        obj = PAPER_FAMILY_FILES[name]
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(obj))
        chi = "q=5;gens=2:1"
        code, doc = run_json(["linearity", "closed-form", "--family", str(f),
                              "--chi", chi, "--r", "1"], capsys)
        assert code == 0
        table = linearity.closed_form_table(
            linearity.family_spec_from_dict(obj), 5, 1)
        character = DirichletCharacter.from_identifier(chi)
        for key, t in (("A_chi", table.A), ("B_chi", table.B)):
            want = chi_sum(character, t)
            assert doc["results"][key] == cyclo_to_dict(want)

    @pytest.mark.parametrize("name,n", [("chowla", 1), ("n2m2", 2)])
    def test_degenerate_period_not_a_member(self, name, n):
        spec = linearity.family_spec_from_dict(PAPER_FAMILY_FILES[name])
        with pytest.raises(DeltaOutOfRange, match="not a member"):
            linearity.family_instance(spec, n)

    def test_empty_family_refused_unfactored(self, tmp_path, capsys):
        # 4 divides f(n) = 4n^2 + 4 at every n, which four values of n show
        # before the walk over n <= N_SEARCH_LIMIT factors any radicand
        f = tmp_path / "square.json"
        f.write_text(json.dumps(dict(YOKOI_FILE, f_coeffs=[4, 0, 4])))
        square_prime.cache_clear()
        code = main(["linearity", "closed-form", "--family", str(f),
                     "--chi", "q=3;gens=2:1", "--r", "1"])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "NoAdmissibleN",
            "message": "no admissible n = 1k + 0: 2^2 divides f(n) for "
                       "every such n"}
        assert square_prime.cache_info().misses == 0

    @pytest.mark.parametrize("argv,n", [
        (["linearity", "closed-form", "--chi", "q=3;gens=2:1", "--r", "2"], 5),
        (["linearity", "hypothesis", "--chi", "q=3;gens=2:1", "--r", "1"], 7),
        (["linearity", "verify", "--chi", "q=3;gens=2:1", "--r", "1",
          "--k", "0,2,4,6"], 7),
        (["biro", "oracle", "--chi", "q=3;gens=2:1", "--n", "7"], 7)],
        ids=["closed-form", "hypothesis", "verify", "oracle"])
    def test_mismatching_member_refused(self, argv, n, tmp_path, capsys):
        # Yokoi's f and delta with the constant digit 1, which delta(n) - 1
        # = [[n]] matches at n = 1 only: the file loads, and the first other
        # member a command meets stops it
        f = tmp_path / "const.json"
        f.write_text(json.dumps(dict(YOKOI_FILE,
                                     acf=[{"alpha": 0, "beta": 1}])))
        square_prime.cache_clear()
        code = main(argv[:2] + ["--family", str(f)] + argv[2:])
        assert code == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "SpecInconsistent"
        assert doc["message"].startswith(f"delta({n})-1 expands to")
        # f(1), f(2) and f(5) for closed-form: no walk over the class
        assert square_prime.cache_info().misses <= 5

    def test_malformed_family(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"name": "x"}')
        code, _ = run_cli(["linearity", "verify", "--family", str(f),
                           "--chi", "q=3;gens=2:1", "--r", "1",
                           "--k", "0,1,2,3,4,5,6,7"], capsys)
        assert code == 2


def _options(**values):
    """argv fragments: every --option, each left out about one time in six
    (a left-out required option is a parse error); None is a bare flag."""
    dropped = st.sampled_from([False] * 5 + [True])
    return st.tuples(*(
        st.tuples(st.just("--" + name.replace("_", "-")), dropped, v)
        for name, v in values.items()
    )).map(lambda opts: [t for flag, drop, v in opts if not drop
                         for t in (flag,) + (() if v is None else (v,))])


_INT = st.sampled_from([str(i) for i in range(-3, 61)] + ["x", "", "1.5"])
_D = st.sampled_from(["2", "3", "5", "13"]) | _INT
_WORD = st.lists(st.integers(-1, 9).map(str), max_size=4).map(",".join) \
    | st.sampled_from(["a,b", "2,1,1", "3,1,2", "5,1,2", "7,1,1"])
_CHI = st.one_of(
    st.sampled_from(["q=3;gens=2:1", "q=4;gens=3:1", "q=5;gens=2:1",
                     "q=7;gens=3:2", "q=11;gens=2:1"]),
    st.integers(1, 12).map("q={};gens=".format),
    st.builds("q={};gens={}:{}".format, st.integers(1, 12),
              st.integers(0, 12), st.integers(-2, 12)),
    st.sampled_from(["q=x;gens=", "q=3", "chi"]))
# family files with one field replaced by a wrongly typed or out-of-range
# value; bytes stand for a file that the test writes first
_FAMILY_FIELDS = [(), ("name",), ("f_coeffs",), ("f_coeffs", 1), ("delta",),
                  ("delta", "u_coeffs"), ("delta", "v_coeffs"),
                  ("delta", "w"), ("acf",), ("acf", 0), ("acf", 0, "alpha"),
                  ("acf", 0, "beta"), ("n_constraints",),
                  ("n_constraints", "parity"),
                  ("n_constraints", "forbidden_residues")]
_BAD_VALUES = [None, True, 2.0, "4", 0, -1, {}, [[0, 1]], [1.5], "od"]
_FAMILY = st.sampled_from(["yokoi", "rd-n2p1"] * 3 + ["no/such/family.json"]) \
    | st.builds(replaced, st.sampled_from(_FAMILY_FIELDS),
                st.sampled_from(_BAD_VALUES))
_R = st.integers(-2, 12).map(str)
_KS = st.lists(st.integers(0, 9).map(str), max_size=5).map(",".join)
_KIND = st.sampled_from(["plus", "minus", "neither"])
_QMAX = st.integers(-1, 9).map(str)
_PMAX = st.integers(-1, 30).map(str)

_COMMANDS = st.one_of(
    st.tuples(st.just(["field"]), _options(d=_D)),
    st.tuples(st.just(["cf", "expand"]),
              _options(d=_D, surd=_WORD, kind=_KIND)),
    st.tuples(st.just(["cf", "convert"]), _options(plus=_WORD)),
    st.tuples(st.just(["cf", "eval"]), _options(word=_WORD, kind=_KIND)),
    st.tuples(st.just(["lvalue"]), _options(d=_D, delta=_WORD, chi=_CHI)),
    st.tuples(st.sampled_from([["linearity", name] for name in
                               ("verify", "closed-form", "hypothesis")]),
              _options(family=_FAMILY, chi=_CHI, r=_R, k=_KS)),
    st.tuples(st.just(["biro", "search"]),
              _options(q_max=_QMAX, p_max=_PMAX)),
    st.tuples(st.just(["biro", "residues"]),
              _options(family=_FAMILY, q_max=_QMAX, p_max=_PMAX)),
    st.tuples(st.just(["biro", "oracle"]),
              _options(family=_FAMILY, n=_INT, chi=_CHI, intro_ab=st.none())),
    st.tuples(st.sampled_from([[], ["biro"], ["bogus"]]), st.just([])))


@settings(deadline=None, max_examples=150)
@given(command=_COMMANDS,
       extra=st.sampled_from([[], ["--format", "csv"], ["--format", "xml"],
                              ["--bogus"]]))
def test_fuzz_argument_fragments(command, extra):
    words, options = command
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        argv = []
        for i, word in enumerate(words + options + extra):
            if isinstance(word, bytes):
                path = Path(tmp) / f"family{i}.json"
                path.write_bytes(word)
                word = str(path)
            argv.append(word)
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


def test_console_script_selftest():
    # run out of process so the entry point itself is exercised
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "heckezero.cli",
                           "selftest"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "criterion 1" in proc.stderr


def test_cli_import_stays_pure_python():
    # a fresh `import heckezero.cli` is the benchmark's setup cost: it must
    # load no NumPy, no argument parser (argparse, with its gettext) and no
    # compiled heckezero module
    probe = (
        "import sys, heckezero.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "assert not {'argparse', 'gettext'} & set(sys.modules)\n"
        "for name, mod in sys.modules.items():\n"
        "    if name.startswith('heckezero.'):\n"
        "        assert mod.__file__.endswith('.py'), mod.__file__\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", probe],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# the modules field, cf and lvalue all run, which `import heckezero.cli`
# loads, and those each command imports only when it runs
SHARED = {"heckezero", "heckezero.cli", "heckezero.errors", "heckezero.exact",
          "heckezero.cfrac", "heckezero.quadfield"}
DEFERRED = {"csv", "heckezero.characters", "heckezero.kernels",
            "heckezero.shintani", "heckezero.linearity", "heckezero.biro",
            "heckezero.acceptance", "heckezero.commands"}
# rational arithmetic: field and cf run on integers and surds and never load
# it; it comes with the chi-values of characters and their decimal display
RATIONAL = {"fractions", "decimal"}


def test_cli_import_generates_no_code():
    # every command pays for this import: it generates no dataclass methods
    # (loads neither dataclasses nor inspect), it loads no rational
    # arithmetic, and it loads none of the modules a command imports for
    # itself (test_console_script_selftest runs the one that loads the
    # acceptance suite).  Some interpreters load inspect at start-up, so
    # only what the import adds counts.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import heckezero.cli\n"
        "print(*(set(sys.modules) - before))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", probe],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "heckezero.cli" in added
    assert added & ({"dataclasses", "inspect"} | RATIONAL | DEFERRED) == set()


@pytest.mark.parametrize("argv, extra", [
    (["field", "--d", "5"], set()),
    (["cf", "expand", "--d", "5", "--surd", "1,1,2"], set()),
    (["cf", "convert", "--plus", "1,2"], set()),
    (["cf", "eval", "--word", "3"], set()),
    (LVALUE_ARGS, {"heckezero.characters", "heckezero.kernels",
                   "heckezero.shintani"} | RATIONAL),
    (["linearity", "verify", "--family", "yokoi", "--chi", "q=3;gens=2:1",
      "--r", "1", "--k", "0,1,2,3,4,5,6,7"],
     {"heckezero.characters", "heckezero.kernels", "heckezero.shintani",
      "heckezero.linearity", "heckezero.commands"} | RATIONAL),
    (["biro", "search", "--q-max", "7", "--p-max", "13"],
     {"heckezero.characters", "heckezero.kernels", "heckezero.shintani",
      "heckezero.linearity", "heckezero.biro", "heckezero.commands"}
     | RATIONAL),
], ids=["field", "cf-expand", "cf-convert", "cf-eval", "lvalue",
        "linearity-verify", "biro-search"])
def test_command_loads_only_what_it_runs(argv, extra):
    # out of process, so no other test has loaded a module first: field and
    # cf run on the shared modules alone, with no rational arithmetic, and
    # lvalue adds the character layer, with fractions and the decimal
    # display of its rational value, and the cone kernel, but neither
    # linearity nor biro; linearity and biro add their handlers' module,
    # commands, and their own layers, but not the acceptance suite
    probe = (
        "import sys\n"
        "from heckezero.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0]"
        " in ('heckezero', 'csv', 'fractions', 'decimal')))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", probe, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0" and set(loaded) == SHARED | extra
