"""Command-line interface: every subcommand, its output, and its exit
codes (0 success / yes, 1 no / failure, 2 undecided, 3 usage error,
4 internal error)."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from strata import alpha_eq, parse, show
from strata import cli, genericity
from strata.cli import main
from strata.theories import NO_WITNESS

from conftest import DELTA, ID, OMEGA_LOOP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strata_process(*argv):
    """Run the CLI in a new process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "strata.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


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

    def test_an_unknown_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["meaning", "x", "--annotations", "f"])
        assert exc.value.code == 3


def readme_commands():
    """The strata lines of the README's "Command line" block, split as
    a shell would, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("strata ")]


# the exit code of each README example, in the README's order
README_EXIT_CODES = [("parse", 0), ("reduce", 0), ("nf-check", 0), ("eq", 0),
                     ("meaning", 1), ("approximant", 0), ("type-infer", 0),
                     ("type-check", 0), ("genericity", 0), ("genericity", 0),
                     ("judge", 1), ("axioms", 0)]


def test_the_readme_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # type-infer --dump d.json, then type-check d.json
    codes = [(argv[0], main(argv)) for argv in readme_commands()]
    capsys.readouterr()
    assert codes == README_EXIT_CODES


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


# a chain of 1,200 binders and a spine of 1,200 arguments: parse and
# show each read them in a loop, deeper than the recursion limit
NESTED_BINDERS = "".join(rf"\x{i}." for i in range(1200)) + "x0"
LONG_SPINE = "f " + " ".join(["x"] * 1200)


class TestDeepInput:
    def assert_echoes(self, capsys, text):
        code, out, err = run(capsys, "parse", text)
        assert code == 0, err
        # show renames binders canonically: equal prints are alpha-equal terms
        assert out.strip() == show(parse(text)) == show(parse(out.strip()))

    def test_parse_echoes_a_chain_of_binders(self, capsys):
        self.assert_echoes(capsys, NESTED_BINDERS)

    def test_parse_echoes_a_long_application_spine(self, capsys):
        self.assert_echoes(capsys, LONG_SPINE)

    @pytest.mark.parametrize("command,answer", [("judge", "conversion: equal"),
                                                ("eq", "equal")])
    def test_two_long_spines_are_compared_in_a_loop(self, command, answer):
        # 5,000 arguments, in a new process at the default recursion limit
        spine = "f" + " x" * 5000
        done = strata_process(command, spine, spine)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(answer)

    @pytest.mark.parametrize("calculus", ["cbv", "cbn"])
    def test_two_different_long_spines_are_substituted_in_a_loop(self, calculus):
        # in a new process at the default recursion limit: the Böhm-out
        # substitutes a selector for f down the whole spine
        done = strata_process("judge", LONG_SPINE, LONG_SPINE + " y", "--calculus", calculus)
        assert done.returncode == 2, done.stderr
        assert done.stdout.splitlines() == [
            "conversion: not-equal (the terms have distinct normal forms)",
            "mute: not-equal (the terms have distinct normal forms)",
            f"observational: unknown ({NO_WITNESS})",
        ]

    @pytest.mark.parametrize("calculus", ["cbv", "cbn"])
    @pytest.mark.parametrize("command,last", [("meaning", "meaningful"),
                                              ("reduce", "outcome: normal")])
    def test_a_chain_of_binders_is_substituted_in_a_loop(self, command, last, calculus):
        # in a new process at the default recursion limit: the
        # substitution step carries z for y down the whole chain
        done = strata_process(command, rf"(\y.{NESTED_BINDERS[:-2]}y) z", "--calculus", calculus)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == last

    @pytest.mark.parametrize("calculus", ["cbv", "cbn"])
    @pytest.mark.parametrize("text,sort", [(LONG_SPINE, "ne"), (NESTED_BINDERS, "no")],
                             ids=["spine", "chain"])
    def test_nf_check_reads_spines_and_chains_in_loops(self, text, sort, calculus):
        # in a new process at the default recursion limit; at level
        # omega the whole chain of binders is read by value too
        done = strata_process("nf-check", text, "--calculus", calculus, "--level", "omega")
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{sort}\n"

    @pytest.mark.parametrize("text,calculus,typing", [
        (LONG_SPINE, "cbv", "f: " + "[[] -> " * 1200 + "[]" + "]" * 1200 + " |- {} : []"),
        (LONG_SPINE, "cbn", "f: [" + "[] -> " * 1200 + "a0] |- {} : a0"),
        (NESTED_BINDERS, "cbv", ". |- {} : []"),
        (NESTED_BINDERS, "cbn", ". |- {} : [a0] -> " + "[] -> " * 1199 + "a0"),
    ], ids=["spine-cbv", "spine-cbn", "chain-cbv", "chain-cbn"])
    def test_type_infer_reads_spines_and_chains_in_loops(self, text, calculus, typing):
        # in a new process at the default recursion limit: synthesis
        # walks the head path, the chain and the spine in loops, and a
        # type 1,200 arrows deep is printed and built without recursion
        done = strata_process("type-infer", text, "--calculus", calculus)
        assert done.returncode == 0, done.stderr
        assert done.stdout == typing.format(show(parse(text), rename=False)) + "\n"


class TestFreshProcess:
    """A new process has made no fresh names yet: answers must not
    depend on how many an earlier computation made."""

    TERM = r"(\x.\y.\y1. x y) y"

    def test_reduce_renames_without_capture(self):
        done = strata_process("reduce", self.TERM, "--calculus", "cbn", "--level", "omega")
        lines = done.stdout.splitlines()
        assert done.returncode == 0 and lines[-1] == "outcome: normal"
        final = lines[-2].split("--> ")[1]
        assert alpha_eq(parse(final), parse(r"\a.\b. y a"))

    def test_judge_finds_the_terms_convertible(self):
        done = strata_process("judge", self.TERM, r"\a.\b. y a", "--calculus", "cbn")
        assert done.returncode == 0
        assert done.stdout.startswith("conversion: equal")


class TestInternalError:
    """A failure of the machinery exits 4, which no verdict uses."""

    def test_an_unexpected_exception_exits_4(self, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_dispatch", crash)
        code, out, err = run(capsys, "parse", "x")
        assert code == 4 and out == ""
        assert err == "internal error: RuntimeError: boom\n"

    # deep enough to exhaust the default recursion limit
    SPINE = "f" + " x" * 1200
    NESTED = "\\x." * 1200 + "x"

    @pytest.mark.parametrize("argv", [
        ("parse", SPINE),
        ("type-infer", SPINE, "--calculus", "cbn"),
        ("parse", NESTED),
    ])
    def test_a_deep_term_is_never_a_verdict(self, argv):
        done = strata_process(*argv)
        assert done.returncode in (0, 4), done.stderr
        if done.returncode == 4:
            assert done.stderr.startswith("internal error: ")


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

    # a bot at level 0 of a surface normal form makes it meaningless, as
    # it makes it untypable: neither type system has a rule for bot
    @pytest.mark.parametrize("calculus, term, meaning, typing", [
        ("cbv", "bot", 1, 1), ("cbv", "x bot", 1, 1), ("cbv", r"(\x.x) bot", 1, 1),
        ("cbv", r"\y.bot", 0, 0),
        ("cbn", "bot", 1, 1), ("cbn", r"(\x.x) bot", 1, 1), ("cbn", r"\y.bot", 1, 1),
        ("cbn", "x bot", 0, 0),
    ])
    def test_meaning_agrees_with_type_infer_on_partial_terms(self, capsys, calculus, term,
                                                             meaning, typing):
        assert run(capsys, "meaning", term, "--calculus", calculus)[0] == meaning
        assert run(capsys, "type-infer", term, "--calculus", calculus)[0] == typing

    @pytest.mark.parametrize("term, calculus", [
        (LONG_SPINE + " bot", "cbv"),
        ("\\x." * 1200 + "bot", "cbn"),
    ], ids=["spine-cbv", "binders-cbn"])
    def test_a_deep_level_0_bot_is_found(self, term, calculus):
        done = strata_process("meaning", term, "--calculus", calculus)
        assert done.returncode == 1, done.stderr


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

    @pytest.mark.parametrize("blob", [
        {},  # no rule, term or type
        [],  # not an object
        {"rule": "var", "env": {}, "term": "x", "type": "[]", "premises": [5]},
        {"rule": "var", "env": {}, "term": "x", "type": "[]", "premises": {}},
        {"rule": "var", "env": {"x": 5}, "term": "x", "type": "[]"},
    ])
    def test_malformed_derivation_file_exits_3(self, capsys, tmp_path, blob):
        f = tmp_path / "deriv.json"
        f.write_text(json.dumps(blob))
        code, out, err = run(capsys, "type-check", str(f))
        assert code == 3 and out == "" and err.startswith("error:")


class TestGenericityAndJudge:
    def test_genericity_ok_over_default_probes(self, capsys):
        code, out, _ = run(capsys, "genericity", OMEGA_LOOP,
                           "--context", rf"(\y.{ID}) (\z.@)",
                           "--level", "0")
        assert code == 0 and out.count("ok") >= 5

    def test_genericity_meaningful_seed_exits_3(self, capsys):
        code, out, _ = run(capsys, "genericity", ID,
                           "--context", rf"(\y.{ID}) (\z.@)")
        assert code == 3 and out.count(": inapplicable") == 5 and "violated" not in out

    def test_genericity_all_vacuous_exits_0(self, capsys):
        # C<t> has no normal form at level 0: the theorem holds trivially
        code, out, _ = run(capsys, "genericity", OMEGA_LOOP,
                           "--context", rf"(\y.{ID}) @", "--level", "0")
        assert code == 0 and out.count(": vacuous") == 5

    # meaningless fillers made of meaningful parts: their approximant is
    # bot, so the hole sits under a bot of A(C<t>)
    @pytest.mark.parametrize("term, context, calculus", [
        (rf"({ID}) ({OMEGA_LOOP})", "z @", "cbn"),
        (rf"(\x.x ({OMEGA_LOOP})) (\y.{OMEGA_LOOP})", r"\a.@", "cbv"),
    ])
    def test_genericity_holds_for_meaningless_applications(self, capsys, term, context,
                                                           calculus):
        code, out, _ = run(capsys, "genericity", term, "--context", context,
                           "--level", "0", "--calculus", calculus)
        assert code == 0 and "violated" not in out and out.count(": ok") == 5

    def test_genericity_violated_exits_1(self, capsys, monkeypatch):
        # a wrong partial-normal-form check makes every probe violated
        monkeypatch.setattr(genericity, "is_bno", lambda *args: False)
        code, out, _ = run(capsys, "genericity", OMEGA_LOOP,
                           "--context", r"(\y.\i.i) (\z.@)", "--level", "0")
        assert code == 1 and out.count(": violated (partial endpoint is not") == 5

    def test_genericity_unknown_exits_2(self, capsys):
        code, out, _ = run(capsys, "genericity", r"(\x.x x x) (\x.x x x)",
                           "--context", "@", "--fuel", "10")
        assert code == 2 and out.count(": unknown") == 5

    def test_judge_prints_all_three_theories(self, capsys):
        code, out, _ = run(capsys, "judge", OMEGA_LOOP, rf"(x x)[x\{DELTA}]")
        assert code == 0
        for th in ("conversion", "mute", "observational"):
            assert th in out

    def test_judge_prints_the_separating_context(self, capsys):
        code, out, _ = run(capsys, "judge", r"\z.(\w.w w) (\w.w w)", r"\z.z")
        assert code == 1
        assert "observational: not-equal (a context separates the terms' " \
               "meaningfulness: @ v0)" in out.splitlines()

    def test_judge_says_why_a_verdict_stayed_unknown(self, capsys):
        code, out, _ = run(capsys, "judge", ID, r"\x.\y.x y")
        assert code == 2
        lines = out.splitlines()
        assert "mute: not-equal (the terms have distinct normal forms)" in lines
        assert ("observational: unknown (Böhm-out from the normal forms built no separating context)"
                in lines)

    def test_judge_theory_selects_the_exit_code(self, capsys):
        args = ("judge", ID, r"\x.\y.x y")
        assert run(capsys, *args, "--theory", "mute")[0] == 1
        assert run(capsys, *args, "--theory", "observational")[0] == 2

    def test_judge_has_no_context_size_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["judge", "x", "y", "--context-size", "4"])
        assert exc.value.code == 3


class TestAxioms:
    def test_small_campaign(self, capsys):
        code, out, _ = run(capsys, "axioms", "-n", "50", "--seed", "1")
        assert code == 0 and "ok" in out

    def test_a_violation_is_printed_and_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(genericity, "is_bno", lambda *args: False)
        code, out, _ = run(capsys, "axioms", "-n", "50", "--seed", "1")
        lines = out.splitlines()
        assert code == 1 and lines[0].startswith("checked: ") and lines[-1] == "failed"
        assert lines[1:-1] and all(line.startswith("violation: {'kind': 'bno'")
                                   for line in lines[1:-1])

    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_a_count_below_one_is_a_usage_error(self, capsys, count):
        """A campaign of no checks would pass having checked nothing."""
        with pytest.raises(SystemExit) as exc:
            main(["axioms", "-n", count])
        assert exc.value.code == 3
        assert "count must be a positive integer" in capsys.readouterr().err
