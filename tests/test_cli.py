"""Command-line interface: every subcommand, its output, and its exit
codes (0 success / yes, 1 no / failure, 2 undecided, 3 usage error)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from strata import alpha_eq, parse
from strata.cli import main

from conftest import DELTA, ID, OMEGA_LOOP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3

    def test_parse_error_exits_3(self, capsys):
        code, out, err = run(capsys, "parse", r"\x.")
        assert code == 3 and "error:" in err

    def test_bad_level_exits_3(self, capsys):
        code, _, err = run(capsys, "reduce", "x", "--level", "pi")
        assert code == 3 and "error:" in err


class TestParse:
    def test_echoes_canonical_form(self, capsys):
        code, out, _ = run(capsys, "parse", r"\foo. foo bar")
        assert code == 0 and out.strip() == r"\x0.x0 bar"

    def test_context_mode_keeps_the_hole(self, capsys):
        code, out, _ = run(capsys, "parse", "--context", r"x @")
        assert code == 0 and "@" in out

    def test_echo_does_not_capture(self, capsys):
        code, out, _ = run(capsys, "parse", r"\x1.\x0.x1")
        assert code == 0 and alpha_eq(parse(out.strip()), parse(r"\x1.\x0.x1"))


class TestFreshProcess:
    """A new process has made no fresh names yet: answers must not
    depend on how many an earlier computation made."""

    TERM = r"(\x.\y.\y1. x y) y"

    @staticmethod
    def strata(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "strata.cli", *argv],
                               capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": path})

    def test_reduce_renames_without_capture(self):
        done = self.strata("reduce", self.TERM, "--calculus", "cbn", "--level", "omega")
        lines = done.stdout.splitlines()
        assert done.returncode == 0 and lines[-1] == "outcome: normal"
        final = lines[-2].split("--> ")[1]
        assert alpha_eq(parse(final), parse(r"\a.\b. y a"))

    def test_judge_finds_the_terms_convertible(self):
        done = self.strata("judge", self.TERM, r"\a.\b. y a", "--calculus", "cbn")
        assert done.returncode == 0
        assert done.stdout.startswith("conversion: equal")


class TestReduce:
    def test_trace_to_normal_form(self, capsys):
        code, out, _ = run(capsys, "reduce", rf"({ID}) ({ID})")
        assert code == 0
        assert "outcome: normal" in out and "dB" in out

    def test_cycle_is_reported_and_still_exit_0(self, capsys):
        code, out, _ = run(capsys, "reduce", OMEGA_LOOP)
        assert code == 0 and "outcome: cycle" in out

    def test_fuel_exhaustion_exits_2(self, capsys):
        code, out, _ = run(capsys, "reduce", r"(\x.x x x) (\x.x x x)",
                           "--fuel", "10")
        assert code == 2 and "outcome: fuel" in out

    def test_json_trace(self, capsys):
        code, out, _ = run(capsys, "reduce", rf"({ID}) y", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["outcome"] == "normal" and len(blob["steps"]) == 2

    def test_level_gates_the_reduction(self, capsys):
        t = rf"\x.({ID}) x"
        code0, out0, _ = run(capsys, "reduce", t, "--level", "0")
        codew, outw, _ = run(capsys, "reduce", t, "--level", "omega")
        assert code0 == 0 and codew == 0
        assert "dB" not in out0 and "dB" in outw


class TestNfCheckAndEq:
    def test_normal_form_sort_is_printed(self, capsys):
        code, out, _ = run(capsys, "nf-check", "x y")
        assert code == 0 and out.strip() == "ne"

    def test_reducible_term_exits_1(self, capsys):
        code, out, _ = run(capsys, "nf-check", rf"({ID}) y")
        assert code == 1 and out.strip() == "not-nf"

    def test_eq_distinguishes_levels(self, capsys):
        a, b = r"\x.x ({}) z".format(OMEGA_LOOP), r"\x.x y z"
        code1, out1, _ = run(capsys, "eq", a, b, "--level", "0",
                             "--calculus", "cbn")
        code2, out2, _ = run(capsys, "eq", a, b, "--level", "omega",
                             "--calculus", "cbn")
        assert (code1, out1.strip()) == (0, "equal")
        assert (code2, out2.strip()) == (1, "different")


class TestMeaning:
    def test_meaningful_exits_0(self, capsys):
        assert run(capsys, "meaning", ID)[0] == 0

    def test_meaningless_exits_1(self, capsys):
        code, out, _ = run(capsys, "meaning", OMEGA_LOOP)
        assert code == 1 and "meaningless" in out

    def test_undecided_exits_2(self, capsys):
        code, out, _ = run(capsys, "meaning", r"(\x.x x x) (\x.x x x)",
                           "--fuel", "10")
        assert code == 2 and "unknown" in out

    def test_annotations_decide_the_undecidable(self, capsys, tmp_path):
        f = tmp_path / "mute.txt"
        f.write_text(r"(\x.x x x) (\x.x x x)" + "\n")
        code, out, _ = run(capsys, "meaning", r"(\x.x x x) (\x.x x x)",
                           "--fuel", "10", "--annotations", str(f))
        assert code == 1 and "asserted" in out

    def test_missing_annotations_file_exits_3(self, capsys, tmp_path):
        code, out, err = run(capsys, "meaning", ID, "--annotations",
                             str(tmp_path / "missing.txt"))
        assert code == 3 and out == "" and "error:" in err


class TestApproximant:
    def test_collapse_to_bot(self, capsys):
        code, out, _ = run(capsys, "approximant", OMEGA_LOOP)
        assert code == 0 and out.strip() == "bot"

    def test_pruned_shape(self, capsys):
        code, out, _ = run(capsys, "approximant", rf"x (\y.{OMEGA_LOOP})")
        assert code == 0 and out.strip() == r"x (\x0.bot)"

    def test_undetermined_exits_2(self, capsys):
        code, out, _ = run(capsys, "approximant", r"\y.(\x.x x x) (\x.x x x)",
                           "--fuel", "10")
        assert code == 2 and "undetermined" in out


class TestTypes:
    def test_infer_then_check_round_trip(self, capsys, tmp_path):
        f = tmp_path / "deriv.json"
        code, out, _ = run(capsys, "type-infer", rf"({ID}) ({ID})",
                           "--dump", str(f))
        assert code == 0 and "|-" in out
        code, out, _ = run(capsys, "type-check", str(f))
        assert code == 0 and out.strip() == "valid"

    def test_untypable_exits_1(self, capsys):
        code, out, _ = run(capsys, "type-infer", OMEGA_LOOP)
        assert code == 1 and out.strip() == "untypable"

    def test_undecided_exits_2(self, capsys):
        code, out, _ = run(capsys, "type-infer", r"(\x.x x x) (\x.x x x)",
                           "--fuel", "10")
        assert code == 2

    def test_missing_derivation_file_exits_3(self, capsys, tmp_path):
        code, out, err = run(capsys, "type-check", str(tmp_path / "missing.json"))
        assert code == 3 and out == "" and "error:" in err

    def test_tampered_derivation_exits_1(self, capsys, tmp_path):
        f = tmp_path / "deriv.json"
        run(capsys, "type-infer", ID, "--dump", str(f))
        blob = json.loads(f.read_text())
        blob["env"] = {"x": "[a]"}
        f.write_text(json.dumps(blob))
        code, out, _ = run(capsys, "type-check", str(f))
        assert code == 1 and out.strip() != "valid"


class TestGenericityAndJudge:
    def test_genericity_ok_over_default_probes(self, capsys):
        code, out, _ = run(capsys, "genericity", OMEGA_LOOP,
                           "--context", rf"(\y.{ID}) (\z.@)",
                           "--level", "0")
        assert code == 0 and out.count("ok") >= 5

    def test_genericity_meaningful_seed_exits_1(self, capsys):
        code, out, _ = run(capsys, "genericity", ID,
                           "--context", "@", "--probe", "x")
        assert code == 1 and "violated" in out

    def test_judge_prints_all_three_theories(self, capsys):
        code, out, _ = run(capsys, "judge", OMEGA_LOOP, rf"(x x)[x\{DELTA}]")
        assert code == 0
        for th in ("conversion", "mute", "observational"):
            assert th in out

    def test_judge_theory_selects_the_exit_code(self, capsys):
        args = ("judge", ID, r"\x.\y.x y")
        assert run(capsys, *args, "--theory", "mute")[0] == 1
        assert run(capsys, *args, "--theory", "observational")[0] == 2


class TestAxioms:
    def test_small_campaign(self, capsys):
        code, out, _ = run(capsys, "axioms", "-n", "50", "--seed", "1")
        assert code == 0 and "ok" in out
