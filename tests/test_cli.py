"""Command-line behavior: exit codes, file outputs, report text."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sensynth import cli, sat
from sensynth.bench import (GridSpec, gen_det_hallway, gen_fig1, gen_hallway,
                            gen_rocksample)
from sensynth.model import parse_pomdp, print_pomdp
from sensynth.synth import EncoderFault, parse_result
from test_acceptance import SPLIT

SRC = str(Path(cli.__file__).resolve().parent.parent)


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.pomdp"
    path.write_text(print_pomdp(gen_fig1()))
    return str(path)


@pytest.fixture
def hallway_file(tmp_path):
    path = tmp_path / "dh.pomdp"
    path.write_text(print_pomdp(gen_det_hallway()))
    return str(path)


class TestSynthExitCodes:
    def test_realizable(self, fig1_file):
        assert cli.main(["synth", fig1_file, "--mu", "3", "--nu", "1"]) == 0

    def test_unrealizable(self, fig1_file):
        assert cli.main(["synth", fig1_file, "--mu", "2", "--nu", "1"]) == 1

    def test_report_lines(self, fig1_file, capsys):
        cli.main(["synth", fig1_file, "--mu", "3", "--nu", "1"])
        out = capsys.readouterr().out
        assert out.startswith("verdict: Realizable (mu=3 nu=1)\n")  # no path bound
        assert "stats: vars=" in out
        assert "action m0" in out  # document printed when no --result

    def test_unknown(self, hallway_file, tmp_path, capsys):
        # a conflict budget that runs out: exit 2, a report and a document
        # that say why, and nothing for verify to check (exit 3)
        res = tmp_path / "dh.result"
        assert cli.main(["synth", hallway_file, "--mu", "3", "--nu", "2",
                         "--max-conflicts", "1", "--result", str(res)]) == 2
        assert "\nreason: budget exhausted\n" in capsys.readouterr().out
        text = res.read_text()
        assert text.startswith("verdict: Unknown\n") and "\nreason: budget exhausted\n" in text
        doc = parse_result(text, gen_det_hallway())
        assert (doc.verdict, doc.reason, doc.stats.conflicts) == ("Unknown", "budget exhausted", 1)
        assert cli.main(["verify", hallway_file, str(res)]) == 3
        assert "nothing to verify" in capsys.readouterr().err

    def test_quiet(self, fig1_file, capsys):
        assert cli.main(["synth", fig1_file, "--mu", "3", "--nu", "1",
                         "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_result_file(self, fig1_file, tmp_path, capsys):
        res = str(tmp_path / "out.result")
        cli.main(["synth", fig1_file, "--mu", "3", "--nu", "1", "--result", res])
        out = capsys.readouterr().out
        assert "action m0" not in out  # document went to the file instead
        text = (tmp_path / "out.result").read_text()
        assert text.startswith("verdict: Realizable")
        assert "action m0" in text

    def test_render_grid(self, hallway_file, capsys):
        code = cli.main(["synth", hallway_file, "--mu", "3", "--nu", "3",
                         "--render-grid", "--result", "/dev/null"])
        assert code == 0
        grid = capsys.readouterr().out.splitlines()[-4:]
        assert all(len(line) == 5 for line in grid)
        assert grid[0][0] == "#" and grid[3][2] == "#"  # wall, trap hole

    def test_render_grid_skipped_when_unrealizable(self, hallway_file):
        assert cli.main(["synth", hallway_file, "--mu", "1", "--nu", "1",
                         "--render-grid"]) == 1


class TestVerifyCommand:
    def _result(self, tmp_path, fig1_file, mu="3", nu="1"):
        res = str(tmp_path / "doc.result")
        cli.main(["synth", fig1_file, "--mu", mu, "--nu", nu, "--result", res,
                  "--quiet"])
        return res

    def test_round_trip(self, tmp_path, fig1_file, capsys):
        res = self._result(tmp_path, fig1_file)
        assert cli.main(["verify", fig1_file, res]) == 0
        assert "almost-sure: yes" in capsys.readouterr().out

    def test_tampered_policy_fails(self, tmp_path, fig1_file, capsys):
        res = self._result(tmp_path, fig1_file)
        doc = (tmp_path / "doc.result").read_text()
        (tmp_path / "doc.result").write_text(
            doc.replace("move-right", "move-left"))
        assert cli.main(["verify", fig1_file, res]) == 1
        assert "almost-sure: no" in capsys.readouterr().out

    def test_truncated_document(self, tmp_path, fig1_file):
        res = self._result(tmp_path, fig1_file)
        doc = (tmp_path / "doc.result").read_text()
        keep = [l for l in doc.splitlines() if not l.startswith("action")]
        (tmp_path / "doc.result").write_text("\n".join(keep))
        assert cli.main(["verify", fig1_file, res]) == 3

    def test_nothing_to_verify(self, tmp_path, fig1_file):
        res = self._result(tmp_path, fig1_file, mu="2")  # Unrealizable
        assert cli.main(["verify", fig1_file, res]) == 3

    @pytest.mark.parametrize("old, new", [
        ("\nmemory: 3\n", "\n"),
        ("\nmu: 3\n", "\nmu: x\n"),
        ("\nstats: ", "\nstats: vars\n# "),
        ("\nobs cell0 -> @0 1\n", "\nobs cell0 -> @0 abc\n"),
        ("\nobs cell0 -> @0 1\n", "\nobs cell0 -> @0 1/0\n"),
        ("\nobs cell0 -> @0 1\n", "\nobs cell0 -> @0 -1\n"),
        ("\nobs cell0 -> @0 1\n", "\nobs cell0 -> @0 1/2\n"),
        ("\naction m0 -> ", "\naction m0 -> move-left\naction m0 -> "),
        ("\nmu: 3\n", "\nmu: 3\nmu: 3\n"),
        ("\nnu: 1\n", "\nnu: 1\ncolour: blue\n"),
        ("\nmemory: 3\n", "\nmemory: 0\n"),
        ("\nupdate m0 ", "\n# update m0 "),
        ("\nmemory: 3\n", "\nmemory: 1000000000\n"),
    ], ids=["no-memory", "mu-not-integer", "stats-malformed", "weight-not-a-number",
            "weight-over-zero", "weight-negative", "row-sums-to-half", "repeated-action",
            "repeated-header", "unknown-header", "memory-zero", "played-update-missing",
            "memory-beyond-action-lines"])
    def test_malformed_document(self, tmp_path, fig1_file, capsys, old, new):
        res = self._result(tmp_path, fig1_file)
        doc = (tmp_path / "doc.result").read_text()
        assert old in doc
        (tmp_path / "doc.result").write_text(doc.replace(old, new))
        capsys.readouterr()
        assert cli.main(["verify", fig1_file, res]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("old, new", [
        ("\nnew: 2\n", "\nnew: 7\n"),
        ("\nnew: 2\n", "\nnew: -1\n"),
        ("\nobservations: @0 @1\n", "\nobservations: @0 @1 @0\n"),
    ], ids=["new-7", "new-negative", "repeated-name"])
    def test_alphabet_headers_disagree(self, tmp_path, fig1_file, capsys, old, new):
        res = self._result(tmp_path, fig1_file, mu="2", nu="2")
        doc = (tmp_path / "doc.result").read_text()
        assert old in doc
        (tmp_path / "doc.result").write_text(doc.replace(old, new))
        capsys.readouterr()
        assert cli.main(["verify", fig1_file, res]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: header '") and len(err.splitlines()) == 1

    def test_base_names_swapped(self, tmp_path, capsys):
        # swapping z0 and z1 keeps the product (the update columns swap too)
        # but reads the fully defined rows as the other symbol
        model = tmp_path / "split.pomdp"
        model.write_text(SPLIT)
        res = str(tmp_path / "doc.result")
        assert cli.main(["synth", str(model), "--mu", "3", "--nu", "1", "--strict",
                         "--result", res, "--quiet"]) == 0
        doc = (tmp_path / "doc.result").read_text()
        assert "\nobservations: z0 z1 @0\n" in doc
        assert cli.main(["verify", str(model), res, "--quiet"]) == 0
        (tmp_path / "doc.result").write_text(doc.replace("observations: z0 z1 @0",
                                                         "observations: z1 z0 @0"))
        capsys.readouterr()
        assert cli.main(["verify", str(model), res]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: header 'observations' does not start with the model's")

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_is_not_an_error(self, tmp_path, fig1_file, monkeypatch, unbuffered):
        # the reader is gone before the first write, whether that write is
        # the print itself or the exit-time flush
        res = self._result(tmp_path, fig1_file)
        monkeypatch.setenv("PYTHONPATH", SRC)
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "sensynth.cli", "verify", fig1_file, res],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, "")  # 128 + SIGPIPE


class TestUsageErrors:
    def test_bad_mu(self, fig1_file):
        assert cli.main(["synth", fig1_file, "--mu", "0"]) == 4

    def test_k_out_of_range(self, fig1_file, capsys):
        # there is no path bound option: every cell answers at its completeness bound
        for cmd in ("synth", "sweep", "export-dimacs"):
            for k in ("0", "2", "99"):
                assert cli.main([cmd, fig1_file, "--mu", "2", "--nu", "1", "--k", k]) == 4
                assert "unrecognized arguments: --k" in capsys.readouterr().err

    def test_empty_sweep_range(self, fig1_file):
        assert cli.main(["sweep", fig1_file, "--mu-range", "3..1"]) == 4

    @pytest.mark.parametrize("text", ["x..y", "2..", "..3"])
    def test_garbage_range(self, fig1_file, text):
        assert cli.main(["sweep", fig1_file, "--mu-range", text]) == 4
        assert cli.main(["sweep", fig1_file, "--nu-range", text]) == 4

    @pytest.mark.parametrize("cmd, flag, value, message", [
        pytest.param("sweep", "--mu-range", "0..1", "--mu-range", id="--mu-range-0..1"),
        pytest.param("sweep", "--nu-range", "-1..0", "--nu-range", id="--nu-range--1..0"),
        pytest.param("sweep", "--max-seconds", "-1", "--max-seconds", id="sweep---max-seconds--1"),
        # an external solver's run cannot wait longer than 2**31 - 1 ms
        pytest.param("synth", "--max-seconds", "inf", "--max-seconds",
                     id="synth---max-seconds-inf"),
        pytest.param("sweep", "--max-seconds", "1e7", "--max-seconds",
                     id="sweep---max-seconds-1e7"),
        pytest.param("synth", "--max-conflicts", "-3", "--max-conflicts",
                     id="synth---max-conflicts--3"),
        # export-dimacs runs no search, so it has no budget flags
        pytest.param("export-dimacs", "--max-conflicts", "5",
                     "unrecognized arguments: --max-conflicts",
                     id="export-dimacs---max-conflicts-5"),
    ])
    def test_sweep_range_below_minimum(self, fig1_file, capsys, cmd, flag, value, message):
        assert cli.main([cmd, fig1_file, f"{flag}={value}"]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {message}") and len(err.splitlines()) == 1

    def test_hallway_needs_layout(self):
        assert cli.main(["gen", "hallway"]) == 4

    def test_empty_hallway_layout(self, tmp_path, capsys):
        layout = tmp_path / "empty.txt"
        layout.write_text("")
        assert cli.main(["gen", "hallway", "--layout", str(layout)]) == 4
        assert capsys.readouterr().err == "usage error: the grid layout is empty\n"

    def test_bad_generator_size(self):
        assert cli.main(["gen", "escape", "--n", "1"]) == 4

    def test_bad_p_fail(self, tmp_path):
        layout = tmp_path / "grid.txt"
        layout.write_text("g.+")
        assert cli.main(["gen", "hallway", "--layout", str(layout),
                         "--p-fail", "eleven"]) == 4

    def test_unknown_subcommand(self):
        assert cli.main(["paint"]) == 4

    def test_no_subcommand(self):
        assert cli.main([]) == 4


class TestRuntimeErrors:
    def test_missing_model(self):
        assert cli.main(["synth", "/nonexistent/model.pomdp"]) == 3

    def test_malformed_model(self, tmp_path):
        bad = tmp_path / "bad.pomdp"
        bad.write_text("states: a b\nnot a section\n")
        assert cli.main(["synth", str(bad)]) == 3

    def test_bad_constraints_file(self, fig1_file, tmp_path):
        con = tmp_path / "con.txt"
        con.write_text("same cell0 nowhere\n")
        assert cli.main(["synth", fig1_file, "--constraints", str(con)]) == 3

    def test_sensor_value_not_a_name(self, tmp_path, capsys):
        # 'a,b' would pair into z:a,b, which a result document cannot name
        model = tmp_path / "twogoal.pomdp"
        model.write_text(print_pomdp(gen_hallway(GridSpec.from_ascii("#+#+#\n#.#.#\n#.#.#\ng.x.g"))))
        con = tmp_path / "con.txt"
        con.write_text("sensor C a,b c\n")
        assert cli.main(["synth", str(model), "--mu", "2", "--constraints", str(con)]) == 3
        assert "a,b: bad sensor name or value (line 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["synth", "--mu", "30000", "--nu", "1"],
        ["sweep", "--mu-range", "30000", "--nu", "1"],
        ["export-dimacs", "--mu", "30000", "--nu", "1"],
    ], ids=lambda argv: argv[0])
    def test_formula_past_the_literal_space(self, fig1_file, argv, capsys):
        # fig1 at mu = 30000 needs 2 700 210 004 variables, past 2**31 - 1
        assert cli.main([argv[0], fig1_file] + argv[1:]) == 3
        err = capsys.readouterr().err
        assert err == "error: variable count 2700210004 overflows the 31-bit literal space\n"

    def test_broken_external_solver(self, fig1_file):
        assert cli.main(["synth", fig1_file, "--mu", "3", "--nu", "1",
                         "--solver", "/nonexistent/solver {input}"]) == 3

    def test_external_solver_non_integer_value(self, fig1_file, tmp_path, capsys):
        stub = tmp_path / "stub.sh"
        stub.write_text("#!/bin/sh\necho 's SATISFIABLE'\necho 'v 1 x 0'\n")
        stub.chmod(0o755)
        solver = f"{stub} {{input}}"
        assert cli.main(["synth", fig1_file, "--mu", "3", "--nu", "1", "--solver", solver]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'x'" in err and "Traceback" not in err
        assert cli.main(["sweep", fig1_file, "--mu-range", "2..3", "--nu", "1",
                         "--solver", solver]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["Unknown", "Unknown"]

    def test_malformed_model_with_exit_20_is_no_refutation(self, fig1_file, tmp_path, capsys):
        # the exit code stands in only for a missing `s` line; (3, 1) is Realizable
        stub = tmp_path / "stub.sh"
        stub.write_text("#!/bin/sh\necho 's SATISFIABLE'\necho 'v 1 x 0'\nexit 20\n")
        stub.chmod(0o755)
        solver = f"{stub} {{input}}"
        assert cli.main(["synth", fig1_file, "--mu", "3", "--nu", "1", "--solver", solver]) == 3
        assert "'x'" in capsys.readouterr().err
        assert cli.main(["sweep", fig1_file, "--mu-range", "1..3", "--nu-range", "1..2",
                         "--solver", solver]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["Unknown"] * 6

    def test_solver_template_that_cannot_be_split(self, fig1_file, capsys):
        # a runtime error (exit 3), not a traceback's exit 1, which reads as Unrealizable
        assert cli.main(["synth", fig1_file, "--mu", "3", "--nu", "1",
                         "--solver", "'x {input}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: command template") and "cannot be split" in err

    def test_env_solver_picked_up(self, fig1_file, monkeypatch):
        monkeypatch.setenv("SENSYNTH_SOLVER", "/nonexistent/solver {input}")
        assert cli.main(["synth", fig1_file, "--mu", "3", "--nu", "1"]) == 3
        monkeypatch.setenv("SENSYNTH_SOLVER", "embedded")
        assert cli.main(["synth", fig1_file, "--mu", "3", "--nu", "1",
                         "--quiet"]) == 0


class TestSweepCommand:
    def test_stdout_csv(self, fig1_file, capsys):
        code = cli.main(["sweep", fig1_file, "--mu-range", "2..3",
                         "--nu-range", "1..2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mu,nu,verdict,vars,clauses,time_ms,conflicts"
        assert len(lines) == 5
        assert lines[1].startswith("2,1,Unrealizable,")

    def test_csv_file_and_report(self, fig1_file, tmp_path, capsys):
        csv = tmp_path / "frontier.csv"
        code = cli.main(["sweep", fig1_file, "--mu-range", "2..3",
                         "--nu", "1", "--csv", str(csv)])
        assert code == 0
        assert csv.read_text().startswith("mu,nu,verdict,")
        out = capsys.readouterr().out
        assert "mu=2 nu=1 Unrealizable" in out
        assert "mu=3 nu=1 Realizable" in out

    @pytest.mark.parametrize("fault", [EncoderFault("decoded pair fails almost-sure verification"),
                                       AssertionError("solver returned a non-model")])
    def test_fault_exits_3(self, fig1_file, monkeypatch, capsys, fault):
        def raise_fault(*args, **kwargs):
            raise fault
        monkeypatch.setattr(sat, "evaluate", raise_fault)
        assert cli.main(["sweep", fig1_file, "--mu-range", "2..3", "--nu", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"internal error: {type(fault).__name__}")
        assert len(captured.err.splitlines()) == 1

    def test_single_cell_defaults(self, fig1_file, capsys):
        code = cli.main(["sweep", fig1_file, "--mu", "3", "--nu", "1"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2


class TestGenCommand:
    def test_stdout_round_trip(self, capsys):
        assert cli.main(["gen", "fig1"]) == 0
        assert parse_pomdp(capsys.readouterr().out) == gen_fig1()

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "dh.pomdp"
        assert cli.main(["gen", "det-hallway", "--out", str(out)]) == 0
        assert parse_pomdp(out.read_text()) == gen_det_hallway()
        assert "13 states" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,n_states", [
        (["gen", "escape", "--n", "2"], 10),
        (["gen", "rocksample", "--n", "1"], 20),
    ])
    def test_sized_families(self, argv, n_states, capsys):
        assert cli.main(argv) == 0
        assert parse_pomdp(capsys.readouterr().out).n_states == n_states

    def test_hallway_layout(self, tmp_path, capsys):
        layout = tmp_path / "grid.txt"
        layout.write_text("g.+")
        argv = ["gen", "hallway", "--layout", str(layout), "--p-fail", "1/2",
                "--oriented", "--heading", "W"]
        assert cli.main(argv) == 0
        from fractions import Fraction
        want = gen_hallway(GridSpec.from_ascii("g.+", p_fail=Fraction(1, 2),
                                               oriented=True, heading="W"))
        assert parse_pomdp(capsys.readouterr().out) == want


class TestExportDimacs:
    def test_default_paths(self, fig1_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["export-dimacs", fig1_file, "--mu", "1", "--nu", "1"])
        assert code == 0
        cnf = (tmp_path / "fig1.cnf").read_text()
        assert cnf.startswith("p cnf ")
        mapping = (tmp_path / "fig1.cnf.map").read_text().splitlines()
        # 3 A + 3 M + 4 O + 4 C and no P: C and O cover the region, which
        # leaves out the sink 'lose' (its row is a fill, not a variable)
        assert len(mapping) == 14
        assert mapping[0] == "1 A(m0,move-left)"
        assert not any(" P(" in line for line in mapping)
        assert not any("lose" in line for line in mapping)
        assert "-> fig1.cnf" in capsys.readouterr().out

    def test_out_override_and_map_names(self, fig1_file, tmp_path):
        out = str(tmp_path / "phi.cnf")
        cli.main(["export-dimacs", fig1_file, "--mu", "2", "--nu", "1",
                  "--out", out, "--quiet"])
        mapping = (tmp_path / "phi.cnf.map").read_text().splitlines()
        from sensynth.encode import SideConstraints, VarMap, mdp_prepass, row_fills
        p = gen_fig1()
        region = mdp_prepass(p)
        vm = VarMap(p, 2, 1, None, region, row_fills(p, SideConstraints(), region))  # no P
        assert len(mapping) == vm.n_semantic
        for line in mapping:
            v, name = line.split(" ", 1)
            assert vm.var_name(int(v)) == name
        names = {line.split(" ", 1)[1] for line in mapping}
        for s in range(p.n_states):
            assert (f"C({p.states[s]},m1)" in names) == (s in region)
            assert (f"O({p.states[s]},@0)" in names) == (s in region)
        assert not any(name.startswith("P(") for name in names)

    def test_refutation_exports_the_cuts(self, fig1_file, tmp_path, monkeypatch):
        # (2, 1) is Unrealizable: the export runs the rounds, keeps their cuts
        # and declares the edge literals they define
        out = tmp_path / "phi.cnf"
        assert cli.main(["export-dimacs", fig1_file, "--mu", "2", "--nu", "1",
                         "--out", str(out), "--quiet"]) == 0
        header, *body = out.read_text().splitlines()
        declared = int(header.split()[2])
        assert declared == max(abs(int(tok)) for line in body for tok in line.split())
        monkeypatch.setenv("PYTHONPATH", SRC)
        done = subprocess.run([sys.executable, "-m", "sensynth.sat", str(out)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 20

    def test_sensor_mode_exports_refined_formula(self, tmp_path):
        model = tmp_path / "chain.pomdp"
        model.write_text("states: s0 g\nactions: a\nobservations: z0\n"
                         "initial: s0\ngoal: g\ndelta s0 a -> g 1\n"
                         "delta g a -> g 1\nobs s0 -> z0 1\nobs g -> z0 1\n")
        con = tmp_path / "con.txt"
        con.write_text("sensor C lo hi\n")
        out = tmp_path / "phi.cnf"
        assert cli.main(["export-dimacs", str(model), "--constraints", str(con),
                         "--out", str(out), "--quiet"]) == 0
        names = [line.split(" ", 1)[1] for line in
                 (tmp_path / "phi.cnf.map").read_text().splitlines()]
        assert "O(s0,z0:lo)" in names and "O(g,z0:hi)" in names

    def test_sensor_mode_rejected_model(self, fig1_file, tmp_path, capsys):
        # fig1 declares no observations, so no state has a base symbol
        con = tmp_path / "con.txt"
        con.write_text("sensor C on off\n")
        out = tmp_path / "phi.cnf"
        assert cli.main(["export-dimacs", fig1_file, "--constraints", str(con),
                         "--out", str(out)]) == 3
        assert "sensor mode" in capsys.readouterr().err
        assert not out.exists()

    def test_prepass_refutation_writes_nothing(self, tmp_path, capsys):
        model = tmp_path / "rock1.pomdp"
        model.write_text(print_pomdp(gen_rocksample(1)))
        out = tmp_path / "phi.cnf"
        assert cli.main(["export-dimacs", str(model), "--nu", "1",
                         "--out", str(out)]) == 1
        assert "no formula" in capsys.readouterr().out
        assert not out.exists() and not (tmp_path / "phi.cnf.map").exists()

    def test_empty_alphabet_writes_nothing(self, fig1_file, tmp_path, monkeypatch, capsys):
        # fig1 declares no observations, so nu = 0 leaves no symbol to emit
        monkeypatch.chdir(tmp_path)
        assert cli.main(["synth", fig1_file, "--mu", "1", "--nu", "0"]) == 1
        capsys.readouterr()
        assert cli.main(["export-dimacs", fig1_file, "--mu", "1", "--nu", "0"]) == 1
        assert "no formula" in capsys.readouterr().out
        assert [f.name for f in tmp_path.iterdir()] == ["fig1.pomdp"]
