import gc
import importlib.util
import io
import json
import re
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavebp import FractionalPacking, Instance, Packing, cli, generators, serialize
from concavebp.cli import ALGORITHMS, main
from concavebp.exact import exact_opt
from concavebp.fractional import fnfi
from concavebp.heuristics import next_fit
from concavebp.core import Verdict, Violation, eval_cost, eval_fractional_cost
from concavebp.errors import InfeasibleMasterError, NumericalFailureError
from concavebp.serialize import (
    ParseError,
    instance_digest,
    parse_cost_spec,
    read_instance,
    read_solution,
    write_instance,
    write_solution,
)


def _write_instance(tmp_path, name, sizes):
    inst = Instance.from_values(sizes)
    path = tmp_path / name
    with open(path, "w") as fh:
        write_instance(inst, fh)
    return path, inst


def _assert_input_error(capsys, code):
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.out + captured.err


def _break_invariant(monkeypatch):
    monkeypatch.setattr(
        "concavebp.afptas.verify_packing",
        lambda inst, p: Verdict(False, (Violation("overfull", 0, "simulated"),)),
    )


def _break_lp(monkeypatch, error):
    # every master solve fails, whether the simplex runs or the seed vertex
    # would be certified without it
    def failing_solve_master(*args, **kwargs):
        raise error("simulated LP failure")

    monkeypatch.setattr("concavebp.lp.solve_master", failing_solve_master)


class TestSerialization:
    def test_instance_round_trip(self):
        inst = Instance.from_values(["3/4", "1/16", "1/3", "0"])
        buf = io.StringIO()
        write_instance(inst, buf)
        buf.seek(0)
        back = read_instance(buf)
        assert back == inst

    def test_solution_round_trip_fractional(self):
        from concavebp import fnfi

        inst = Instance.from_values(["3/5"] * 3)
        p = fnfi(inst)
        buf = io.StringIO()
        write_solution(p, inst, "fnfi", "fq:1", 2.0, buf)
        buf.seek(0)
        sol = read_solution(buf)
        assert sol["packing"].bins == p.bins
        assert sol["cost"] == 2.0
        # the README's example digest: a change of digest text or format
        # would strand every solution file written before it
        assert sol["digest"] == instance_digest(inst) == "51b91b15c34855e8"

    def test_malformed_instance_rejected(self):
        with pytest.raises(ParseError):
            read_instance(io.StringIO("format: nope\n"))
        with pytest.raises(ParseError):
            read_instance(
                io.StringIO("format: concavebp-instance-v1\nn: 2\nsizes: 1/2\n")
            )

    def test_long_exponent_is_refused_before_fraction_expands_it(self, monkeypatch):
        # Fraction("1e-1000000") alone builds a 3.3-million-bit denominator
        expanded = []
        monkeypatch.setattr("concavebp.serialize.Fraction", expanded.append)
        text = "format: concavebp-instance-v1\nn: 1\nsizes: 1e-1000000\n"
        with pytest.raises(ParseError, match="exponent exceeds"):
            read_instance(io.StringIO(text))
        assert expanded == []

    @pytest.mark.parametrize("interpreter", ["no-limit", "no-function"])
    def test_long_exponent_is_refused_without_a_digit_limit(
        self, tmp_path, capsys, monkeypatch, interpreter
    ):
        # with no limit set (PYTHONINTMAXSTRDIGITS=0), or on an interpreter
        # without the function, the exponent is capped at CPython's default
        # 4300; uncapped, Fraction would build 10**(10**300) and never return
        if interpreter == "no-limit":
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        else:
            monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        path = tmp_path / "x.inst"
        path.write_text(f"format: concavebp-instance-v1\nn: 2\nsizes: 1e{'9' * 300} 1/2\n")
        start = time.perf_counter()
        code = main(["solve", str(path), "--alg", "ff-inc", "--cost", "fq:3"])
        assert time.perf_counter() - start < 1.0
        _assert_input_error(capsys, code)

    def test_digit_limit_boundary(self):
        # 10**(limit - 1) still prints; 10**limit has one digit too many,
        # though its exponent alone is within the limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("no int-to-string digit limit in this interpreter")
        text = "format: concavebp-instance-v1\nn: 1\nsizes: 1e-{}\n"
        assert read_instance(io.StringIO(text.format(limit - 1))).n == 1
        with pytest.raises(ParseError, match="Exceeds the limit"):
            read_instance(io.StringIO(text.format(limit)))

    def test_one_parse_per_distinct_token(self, monkeypatch):
        parsed = []
        plain = serialize._fraction
        monkeypatch.setattr(serialize, "_fraction", lambda tok: parsed.append(tok) or plain(tok))
        text = "format: concavebp-instance-v1\nn: 6\nsizes: 1/2 1/3 1/2 0.5 1/3 1/2\n"
        inst = read_instance(io.StringIO(text))
        assert parsed == ["1/2", "1/3", "0.5"]
        assert inst.sizes == (Fraction(1, 2),) * 4 + (Fraction(1, 3),) * 2
        assert len({id(s) for s in inst.sizes}) == 2
        parsed.clear()
        text = (
            f"format: concavebp-solution-v1\ninstance_digest: {instance_digest(inst)}\n"
            "algorithm: fnfi\ncost_spec: fq:1\nkind: fractional\ncost: 3.0\nbins: 2\n"
            "bin: 0=1/2 1=1/2 2\nbin: 0=1/2 1=1/2 3=1\n"
        )
        sol = read_solution(io.StringIO(text))
        assert parsed == ["1/2", "1", "1"]  # a bare index is a part of 1
        assert sol["packing"].bins[1] == ((0, Fraction(1, 2)), (1, Fraction(1, 2)), (3, 1))

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ("1/2 1/2 1/3 1/2 x/y", "Invalid literal for Fraction: 'x/y'"),
            ("1/3 1/3 1/0 1/3 y", "Fraction(1, 0)"),
            ("1/4 1/4 1/4 0.5e99999 x", "an exponent exceeds the {limit}-digit limit"),
        ],
    )
    def test_bad_token_after_repeated_good_ones(self, sizes, message):
        # the first bad token in file order is reported, as with one parse per token
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or serialize.DEFAULT_DIGIT_LIMIT
        text = f"format: concavebp-instance-v1\nn: 5\nsizes: {sizes}\n"
        with pytest.raises(ParseError) as exc:
            read_instance(io.StringIO(text))
        assert str(exc.value) == "bad instance file: " + message.format(limit=limit)

    def test_cost_spec_parsing(self):
        f = parse_cost_spec("fq:3", 5)
        assert f.values == (0.0, 1.0, 2.0, 3.0, 3.0, 3.0)
        g = parse_cost_spec("table:0,1,1.5", 4)
        assert g.values == (0.0, 1.0, 1.5, 1.5, 1.5)
        with pytest.raises(ParseError):
            parse_cost_spec("fq:x", 5)
        with pytest.raises(ParseError):
            parse_cost_spec("splines", 5)


class TestGen:
    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.inst", tmp_path / "b.inst"
        assert main(["gen", "uniform_random", "--param", "n=10", "--seed", "7",
                     "--out", str(out1)]) == 0
        assert main(["gen", "uniform_random", "--param", "n=10", "--seed", "7",
                     "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_adversarial_family_contents(self, tmp_path):
        out = tmp_path / "k4.inst"
        assert main(["gen", "sec2_single_large", "--param", "K=4",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            inst = read_instance(fh)
        assert inst.sizes[0] == Fraction(3, 4)
        assert inst.sizes[1:] == (Fraction(1, 16),) * 8

    def test_missing_param_is_input_error(self, tmp_path):
        assert main(["gen", "sec2_single_large", "--out", str(tmp_path / "x")]) == 2

    # per family: valid parameters, and the accepted names as listed
    GEN_PARAMS = {
        "sec2_single_large": (["K=4"], "K"),
        "sec2_many_large": (["K=4"], "K"),
        "mh_tight": (["N=8", "K=2"], "N, K"),
        "uniform_random": (["n=10"], "n, denominator"),
        "clustered_random": (["n=10"], "n, clusters, denominator"),
        "mixed": (["n=10"], "n, denominator"),
    }

    @pytest.mark.parametrize("family", GEN_PARAMS)
    @pytest.mark.parametrize("extra", ["denom=1000000", "=5"])
    def test_unknown_param_is_input_error(self, tmp_path, capsys, family, extra):
        params, accepted = self.GEN_PARAMS[family]
        out = tmp_path / "x"
        argv = ["gen", family, "--out", str(out)]
        for kv in params + [extra]:
            argv += ["--param", kv]
        assert main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert err[0].endswith(f"takes {accepted}")

    def test_clustered_denominator_is_checked(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["gen", "clustered_random", "--param", "n=5", "--param", "denominator=0",
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: need n >= 0, clusters >= 1 and denominator >= 1"]

    def test_empty_random_instance(self, tmp_path):
        out = tmp_path / "e.inst"
        assert main(["gen", "uniform_random", "--param", "n=0", "--out", str(out)]) == 0
        with open(out) as fh:
            assert read_instance(fh).n == 0

    def test_mixed_family_draws_as_the_benchmark(self):
        # perfbench keeps its own copy of the family; both draw the same sizes
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for n, seed in ((0, 1), (4, 3), (100, 1011), (1500, 7)):
            want = workloads.mixed(Instance, n, seed).sizes
            assert generators.mixed(n, seed).sizes == want
            assert generators.generate("mixed", {"n": n}, seed).sizes == want

    def test_fine_mixed_family(self, tmp_path):
        out = tmp_path / "fine.inst"
        assert main(["gen", "mixed", "--param", "n=500", "--param", "denominator=1000000",
                     "--seed", "7", "--out", str(out)]) == 0
        with open(out) as fh:
            inst = read_instance(fh)
        assert inst.sizes == generators.mixed(500, 7, 10**6).sizes
        assert all(Fraction(2, 5) <= v <= 1 for v in inst.sizes[:100])
        assert all(0 < v <= Fraction(1, 5) for v in inst.sizes[100:])
        assert len(set(inst.sizes[100:])) > 390  # almost every small size distinct
        assert main(["gen", "mixed", "--param", "n=5", "--param", "denominator=4",
                     "--out", str(tmp_path / "x")]) == 2

    def test_matching_family_contents(self, tmp_path):
        out = tmp_path / "mh.inst"
        assert main(["gen", "mh_tight", "--param", "N=8", "--param", "K=2",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            inst = read_instance(fh)
        assert inst.sizes[:8] == (Fraction(3, 4),) * 8
        assert inst.sizes[8:] == (Fraction(1, 4),) * 8


class TestSolve:
    def test_nfd_on_adversarial_fixture(self, tmp_path, capsys):
        path, _ = _write_instance(
            tmp_path, "k4.inst", [Fraction(3, 4)] + [Fraction(1, 16)] * 8
        )
        out = tmp_path / "k4.sol"
        code = main(["solve", str(path), "--alg", "nf-dec", "--cost", "fq:4",
                     "--out", str(out)])
        assert code == 0
        assert "cost: 8.0" in capsys.readouterr().out
        with open(out) as fh:
            sol = read_solution(fh)
        assert sol["cost"] == 8.0

    def test_exact_single_item(self, tmp_path, capsys):
        path, _ = _write_instance(tmp_path, "one.inst", [Fraction(1, 2)])
        assert main(["solve", str(path), "--alg", "exact", "--cost", "fq:1",
                     "--out", str(tmp_path / "one.sol")]) == 0
        assert "cost: 1.0" in capsys.readouterr().out

    def test_exact_limit_exit_code(self, tmp_path):
        path, _ = _write_instance(tmp_path, "big.inst", [Fraction(1, 2)] * 20)
        assert main(["solve", str(path), "--alg", "exact", "--cost", "fq:1",
                     "--out", str(tmp_path / "big.sol")]) == 4

    def test_afptas_writes_provenance(self, tmp_path):
        import random

        rng = random.Random(5)
        path, inst = _write_instance(
            tmp_path, "r.inst", [Fraction(rng.randint(1, 64), 64) for _ in range(24)]
        )
        out = tmp_path / "r.sol"
        prov = tmp_path / "r.prov.json"
        code = main(["solve", str(path), "--alg", "afptas", "--cost", "fq:3",
                     "--eps", "1/3", "--out", str(out), "--provenance-out", str(prov)])
        assert code == 0
        report = json.loads(prov.read_text())
        assert report["n"] == 24
        assert report["eps"] == "1/3"
        assert main(["verify", str(path), str(out)]) == 0

    def test_afptas_requires_eps(self, tmp_path):
        path, _ = _write_instance(tmp_path, "x.inst", [Fraction(1, 2)] * 6)
        assert main(["solve", str(path), "--alg", "afptas", "--cost", "fq:1",
                     "--out", str(tmp_path / "x.sol")]) == 2

    def test_bad_eps_strings(self, tmp_path):
        path, _ = _write_instance(tmp_path, "y.inst", [Fraction(1, 2)] * 6)
        for bad in ("0.33", "1/2", "2/6", "1/0"):
            assert main(["solve", str(path), "--alg", "afptas", "--cost", "fq:1",
                         "--eps", bad, "--out", str(tmp_path / "y.sol")]) == 2

    def test_fnfi_solution_verifies(self, tmp_path):
        path, _ = _write_instance(tmp_path, "f.inst", [Fraction(3, 5)] * 3)
        out = tmp_path / "f.sol"
        assert main(["solve", str(path), "--alg", "fnfi", "--cost", "fq:1",
                     "--out", str(out)]) == 0
        assert main(["verify", str(path), str(out)]) == 0

    def test_removed_aliases_rejected(self, tmp_path):
        path, _ = _write_instance(tmp_path, "x.inst", [Fraction(1, 2)] * 3)
        for alias in ("nfd", "nfi"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", str(path), "--alg", alias, "--cost", "fq:1"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("spec", ["fq:0", "fq:-2", "table:0,1,nan", "table:0,nan,1"])
    def test_bad_cost_spec_is_input_error(self, tmp_path, capsys, spec):
        path, _ = _write_instance(tmp_path, "x.inst", [Fraction(1, 2)] * 3)
        code = main(["solve", str(path), "--alg", "nf-dec", "--cost", spec,
                     "--out", str(tmp_path / "x.sol")])
        _assert_input_error(capsys, code)
        assert not (tmp_path / "x.sol").exists()
        out = tmp_path / "r.json"
        assert main(["compare", "--instances", str(path), "--algs", "nf-dec",
                     "--costs", spec, "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1 and rows[0]["error"]

    @pytest.mark.parametrize(
        "spec, message",
        [("table:0,1,nan", "cost table values must be finite"),
         ("table:0,1,2,3,1", "cost table decreases at 4")],
    )
    def test_table_spec_is_checked_whole(self, tmp_path, capsys, spec, message):
        # the listed values past n + 1 are checked too, whatever n is
        paths = []
        for n in (1, 3):
            path, _ = _write_instance(tmp_path, f"n{n}.inst", [Fraction(1, 4)] * n)
            code = main(["solve", str(path), "--alg", "nf-dec", "--cost", spec,
                         "--out", str(tmp_path / f"n{n}.sol")])
            assert capsys.readouterr().err == f"error: {message}\n"
            assert code == 2 and not (tmp_path / f"n{n}.sol").exists()
            paths.append(str(path))
        out = tmp_path / "r.json"
        assert main(["compare", "--instances", *paths, "--algs", "nf-dec,fnfi,exact",
                     "--costs", f"fq:2,{spec}", "--format", "json",
                     "--out", str(out)]) == 0
        rows = [r for r in json.loads(out.read_text()) if r["cost_spec"] == spec]
        assert len(rows) == 6
        assert all(r["error"] == message and "cost" not in r for r in rows)

    def test_cost_is_in_units_of_f1(self, tmp_path, capsys):
        path, _ = _write_instance(
            tmp_path, "x.inst", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
        )
        assert main(["solve", str(path), "--alg", "nf-dec", "--cost", "table:0,2,3,4",
                     "--out", str(tmp_path / "x.sol")]) == 0
        assert "cost: 2.5\n" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["table:0,0,0", "table:0,0"])
    def test_all_zero_table_is_input_error_for_afptas(self, tmp_path, capsys, spec):
        path, _ = _write_instance(tmp_path, "x.inst", [Fraction(1, 2)] * 6)
        code = main(["solve", str(path), "--alg", "afptas", "--cost", spec, "--eps", "1/3",
                     "--out", str(tmp_path / "x.sol")])
        _assert_input_error(capsys, code)
        assert not (tmp_path / "x.sol").exists()
        out = tmp_path / "r.json"
        assert main(["compare", "--instances", str(path), "--algs", "afptas",
                     "--costs", spec, "--eps", "1/3", "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["error"] == "cost table must be normalized (f(1) = 1)"

    @pytest.mark.parametrize("kind", ["zero-denominator", "directory"])
    def test_unreadable_instance_is_input_error(self, tmp_path, capsys, kind):
        path = tmp_path / "x.inst"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_text("format: concavebp-instance-v1\nn: 2\nsizes: 1/2 1/0\n")
        code = main(["solve", str(path), "--alg", "nf-dec", "--cost", "fq:1",
                     "--out", str(tmp_path / "x.sol")])
        _assert_input_error(capsys, code)

    @pytest.mark.parametrize("error", [NumericalFailureError, InfeasibleMasterError])
    def test_lp_failure_exit_code(self, tmp_path, capsys, monkeypatch, error):
        _break_lp(monkeypatch, error)
        path, _ = _write_instance(tmp_path, "x.inst", [Fraction(1, 2)] * 6)
        code = main(["solve", str(path), "--alg", "afptas", "--cost", "fq:3",
                     "--eps", "1/3", "--out", str(tmp_path / "x.sol")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.splitlines() == ["solver failure: simulated LP failure"]
        assert "Traceback" not in captured.out + captured.err

    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        _break_lp(monkeypatch, MemoryError)
        path, _ = _write_instance(tmp_path, "x.inst", [Fraction(1, 2)] * 6)
        code = main(["solve", str(path), "--alg", "afptas", "--cost", "fq:3",
                     "--eps", "1/3", "--out", str(tmp_path / "x.sol")])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.splitlines() == [
            "solver limit: out of memory: simulated LP failure"
        ]
        assert "Traceback" not in captured.out + captured.err

    def test_broken_invariant_exit_code(self, tmp_path, capsys, monkeypatch):
        _break_invariant(monkeypatch)
        path, _ = _write_instance(tmp_path, "x.inst", [Fraction(1, 2)] * 6)
        code = main(["solve", str(path), "--alg", "afptas", "--cost", "fq:3",
                     "--eps", "1/3", "--out", str(tmp_path / "x.sol")])
        captured = capsys.readouterr()
        assert code == 3
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("solver failure: scheme produced an invalid packing")
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "x.sol").exists()

    def test_oversized_number_is_input_error(self, tmp_path, capsys):
        # 1e-5000 has a 5001-digit denominator, past Python's int-to-string
        # limit, so the size could never be printed into the instance digest
        path = tmp_path / "x.inst"
        path.write_text("format: concavebp-instance-v1\nn: 3\nsizes: 1e-5000 1/2 1/3\n")
        code = main(["solve", str(path), "--alg", "ff-inc", "--cost", "fq:3",
                     "--out", str(tmp_path / "x.sol")])
        _assert_input_error(capsys, code)
        assert not (tmp_path / "x.sol").exists()

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_nonpositive_config_budget_is_input_error(self, tmp_path, capsys, budget):
        path, _ = _write_instance(tmp_path, "x.inst", [Fraction(1, 2)] * 6)
        code = main(["solve", str(path), "--alg", "afptas", "--cost", "fq:3",
                     "--eps", "1/3", "--config-budget", budget,
                     "--out", str(tmp_path / "x.sol")])
        _assert_input_error(capsys, code)
        assert not (tmp_path / "x.sol").exists()

    def test_unverified_solver_output_is_reported_on_stderr(
        self, tmp_path, capsys, monkeypatch
    ):
        # a packer that drops an item must be caught before anything is written
        monkeypatch.setattr(
            "concavebp.cli.next_fit",
            lambda inst, order: Packing.from_bins([[0]], range(inst.n)),
        )
        path, _ = _write_instance(tmp_path, "x.inst", [Fraction(1, 2)] * 3)
        code = main(["solve", str(path), "--alg", "nf-dec", "--cost", "fq:1",
                     "--out", str(tmp_path / "x.sol")])
        captured = capsys.readouterr()
        assert code == 3
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("internal error: solver output failed verification")
        assert captured.out == ""
        assert not (tmp_path / "x.sol").exists()


    def test_undeclared_missing_item_is_caught(self, tmp_path, capsys, monkeypatch):
        # the packing declares only the item it packed; solve must still
        # check it against every item of the instance
        monkeypatch.setattr(
            "concavebp.cli.next_fit", lambda inst, order: Packing.from_bins([[0]])
        )
        path, _ = _write_instance(tmp_path, "x.inst", [Fraction(1, 2)] * 3)
        code = main(["solve", str(path), "--alg", "nf-dec", "--cost", "fq:1",
                     "--out", str(tmp_path / "x.sol")])
        captured = capsys.readouterr()
        assert code == 3
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("internal error: ")
        assert "missing" in captured.err
        assert "missing: item 1 in no bin; missing: item 2 in no bin" in captured.err
        assert "Violation(" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x.sol").exists()

    def test_negative_exact_limit_is_input_error(self, tmp_path, capsys):
        path, _ = _write_instance(tmp_path, "x.inst", [Fraction(1, 2)] * 3)
        code = main(["solve", str(path), "--alg", "exact", "--cost", "fq:1",
                     "--exact-limit", "-1", "--out", str(tmp_path / "x.sol")])
        _assert_input_error(capsys, code)
        assert not (tmp_path / "x.sol").exists()


class TestVerify:
    def _solved(self, tmp_path):
        path, inst = _write_instance(
            tmp_path, "v.inst", [Fraction(3, 4)] + [Fraction(1, 16)] * 8
        )
        out = tmp_path / "v.sol"
        main(["solve", str(path), "--alg", "nf-dec", "--cost", "fq:4", "--out", str(out)])
        return path, out

    def test_valid_pair_passes(self, tmp_path):
        path, out = self._solved(tmp_path)
        assert main(["verify", str(path), str(out)]) == 0

    def test_overfull_bin_rejected(self, tmp_path, capsys):
        path, out = self._solved(tmp_path)
        text = out.read_text().replace("bins: 2", "bins: 2")
        lines = text.splitlines()
        # move every item into the first bin: overfull and duplicates gone wrong
        bin_lines = [l for l in lines if l.startswith("bin: ")]
        merged = "bin: " + " ".join(l[5:] for l in bin_lines)
        rest = [l for l in lines if not l.startswith("bin: ")]
        rest = [l.replace("bins: 2", "bins: 1") for l in rest]
        out.write_text("\n".join(rest + [merged]) + "\n")
        capsys.readouterr()
        assert main(["verify", str(path), str(out)]) == 3
        captured = capsys.readouterr()
        assert "overfull" in captured.err
        assert captured.out == ""

    def test_tampered_cost_rejected(self, tmp_path, capsys):
        path, out = self._solved(tmp_path)
        out.write_text(out.read_text().replace("cost: 8.0", "cost: 7.0"))
        capsys.readouterr()
        assert main(["verify", str(path), str(out)]) == 3
        captured = capsys.readouterr()
        assert "recomputed" in captured.err
        assert captured.out == ""

    def test_nan_claimed_cost_rejected(self, tmp_path, capsys):
        path, out = self._solved(tmp_path)
        out.write_text(out.read_text().replace("cost: 8.0", "cost: nan"))
        capsys.readouterr()
        assert main(["verify", str(path), str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "verification failed: claimed cost nan but recomputed 8.0"
        ]
        assert captured.out == ""

    def test_digest_mismatch_rejected(self, tmp_path, capsys):
        path, out = self._solved(tmp_path)
        other, _ = _write_instance(tmp_path, "other.inst", [Fraction(1, 2)] * 9)
        capsys.readouterr()
        assert main(["verify", str(other), str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["verification failed: instance digest mismatch"]
        assert captured.out == ""

    def test_missing_file_is_input_error(self, tmp_path):
        path, out = self._solved(tmp_path)
        assert main(["verify", str(path), str(tmp_path / "nope.sol")]) == 2

    def test_oversized_number_is_input_error(self, tmp_path, capsys):
        # a fractional part of 1e-5000 could not be printed in any message
        path, out = self._solved(tmp_path)
        text = out.read_text().replace("kind: integral", "kind: fractional")
        out.write_text(re.sub(r"^bin: (\d+)", r"bin: \1=1e-5000", text, count=1, flags=re.M))
        capsys.readouterr()
        _assert_input_error(capsys, main(["verify", str(path), str(out)]))

    def test_negative_fraction_is_a_violation_not_a_cost(self, tmp_path, capsys):
        # the packing is verified before it is priced: a negative part has
        # no cost, so pricing it first would raise out of main
        path, _ = _write_instance(tmp_path, "v.inst", [Fraction(1, 1000)])
        out = tmp_path / "v.sol"
        main(["solve", str(path), "--alg", "fnfi", "--cost", "fq:1", "--out", str(out)])
        out.write_text(out.read_text().replace("bin: 0=1\n", "bin: 0=-1/2\n"))
        capsys.readouterr()
        assert main(["verify", str(path), str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("violation: bad-fraction")
        assert captured.out == ""


class TestCompare:
    def test_csv_report(self, tmp_path):
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(3, 4)] + [Fraction(1, 16)] * 8)
        p2, _ = _write_instance(tmp_path, "b.inst", [Fraction(1, 2)] * 30)
        out = tmp_path / "report.csv"
        code = main(["compare", "--instances", str(p1), str(p2),
                     "--algs", "nf-dec,nf-inc,mh", "--costs", "fq:1,fq:4",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("instance,algorithm,cost_spec")
        # 12 result rows plus mean/max aggregate rows per (algorithm, cost)
        assert len(lines) == 1 + 2 * 3 * 2 + 2 * 3 * 2
        assert any("exact" in l for l in lines[1:])  # small instance gets a ratio
        assert sum("(aggregate)" in l for l in lines) == 12

    def test_aggregate_ratio_values(self, tmp_path):
        # the adversarial fixture pins the nfd aggregate at exactly 8/5
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(3, 4)] + [Fraction(1, 16)] * 8)
        out = tmp_path / "r.json"
        main(["compare", "--instances", str(p1), "--algs", "nf-dec", "--costs", "fq:4",
              "--format", "json", "--out", str(out)])
        rows = json.loads(out.read_text())
        agg = [r for r in rows if r["instance"] == "(aggregate)"]
        assert len(agg) == 2
        assert agg[0]["ratio"] == 1.6 and agg[1]["ratio"] == 1.6

    def test_json_report_with_partial_failure(self, tmp_path):
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 2)] * 25)
        out = tmp_path / "report.json"
        code = main(["compare", "--instances", str(p1), str(tmp_path / "missing.inst"),
                     "--algs", "nf-inc", "--costs", "fq:2", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 4  # one result, one failure, two aggregate rows
        assert "error" in rows[1]
        assert rows[0]["baseline"] == "overflowed-lower-bound"
        assert rows[0]["ratio"] >= 1.0
        assert {r["instance"] for r in rows[2:]} == {"(aggregate)"}

    def test_table_spec_with_commas(self, tmp_path):
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 2), Fraction(1, 3)] * 3)
        out = tmp_path / "r.json"
        code = main(["compare", "--instances", str(p1), "--algs", "nf-inc,mh",
                     "--costs", "fq:3,table:0,1,1.6,2.0", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        rows = [r for r in json.loads(out.read_text()) if r["instance"] != "(aggregate)"]
        assert [r["cost_spec"] for r in rows] == ["fq:3", "table:0,1,1.6,2.0"] * 2
        assert not any("error" in r for r in rows)

    def test_tolerance_is_relative_to_f1(self, tmp_path):
        # a convex table of tiny values passed the absolute tolerance and was
        # then normalized to (0, 1, 3, 6, 10): nf-dec and fnfi read ratio 2.5
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 4)] * 4)
        out = tmp_path / "r.json"
        spec = "table:0,1e-12,3e-12,6e-12,10e-12"
        assert main(["compare", "--instances", str(p1), "--algs", "nf-dec,fnfi,exact,afptas",
                     "--costs", spec, "--eps", "1/3", "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [r["algorithm"] for r in rows] == ["nf-dec", "fnfi", "exact", "afptas"]
        for row in rows:
            assert row["error"] == "cost table not concave at 1"
            assert "cost" not in row and "ratio" not in row

    def test_lp_failure_becomes_row_error(self, tmp_path, monkeypatch):
        _break_lp(monkeypatch, NumericalFailureError)
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 2)] * 6)
        out = tmp_path / "r.json"
        code = main(["compare", "--instances", str(p1), "--algs", "afptas,nf-inc",
                     "--costs", "fq:3", "--eps", "1/3", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["error"] == "simulated LP failure"
        assert "error" not in rows[1] and rows[1]["ratio"] >= 1.0

    def test_out_of_memory_becomes_row_error(self, tmp_path, monkeypatch):
        _break_lp(monkeypatch, MemoryError)
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 2)] * 6)
        out = tmp_path / "r.json"
        code = main(["compare", "--instances", str(p1), "--algs", "afptas,nf-inc",
                     "--costs", "fq:3", "--eps", "1/3", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["error"] == "out of memory: simulated LP failure"
        assert "error" not in rows[1] and rows[1]["ratio"] >= 1.0

    def test_broken_invariant_becomes_row_error(self, tmp_path, monkeypatch):
        _break_invariant(monkeypatch)
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 2)] * 6)
        out = tmp_path / "r.json"
        code = main(["compare", "--instances", str(p1), "--algs", "afptas,nf-inc",
                     "--costs", "fq:3", "--eps", "1/3", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["error"].startswith("scheme produced an invalid packing")
        assert "error" not in rows[1] and rows[1]["ratio"] >= 1.0

    def test_one_cost_table_per_instance_and_spec(self, tmp_path, monkeypatch):
        # 2 instances x 3 specs, whatever the number of algorithms; a spec
        # that does not parse fails every row of it with one message
        calls = []

        def counting(spec, n):
            calls.append((spec, n))
            return parse_cost_spec(spec, n)

        monkeypatch.setattr("concavebp.cli.parse_cost_spec", counting)
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 2)] * 4)
        p2, _ = _write_instance(tmp_path, "b.inst", [Fraction(1, 3)] * 5)
        out = tmp_path / "r.json"
        assert main(["compare", "--instances", str(p1), str(p2),
                     "--algs", "nf-inc,ff-dec,mh,fnfi,exact", "--costs", "fq:1,fq:0,fq:3",
                     "--format", "json", "--out", str(out)]) == 0
        assert sorted(calls) == sorted((s, n) for n in (4, 5) for s in ("fq:1", "fq:0", "fq:3"))
        rows = [r for r in json.loads(out.read_text()) if r["instance"] != "(aggregate)"]
        assert len(rows) == 2 * 5 * 3
        bad = [r for r in rows if r["cost_spec"] == "fq:0"]
        assert len(bad) == 10
        assert {r["error"] for r in bad} == {"bad cost spec 'fq:0': q must be >= 1"}
        assert not any("error" in r for r in rows if r["cost_spec"] != "fq:0")

    def test_each_packing_is_made_and_verified_once(self, tmp_path, monkeypatch):
        # a cost-oblivious packer runs once per instance and serves every
        # spec; exact and afptas read the cost table, so run once per spec
        calls = []

        def counting(name):
            packer = getattr(cli, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return packer(*args, **kwargs)

            return wrapped

        names = ("next_fit", "first_fit", "best_fit", "match_half", "fnfi",
                 "exact_opt", "run_afptas", "verify_packing")
        for name in names:
            monkeypatch.setattr(cli, name, counting(name))
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 2), Fraction(1, 3)] * 4)
        p2, _ = _write_instance(tmp_path, "b.inst", [Fraction(2, 5)] * 7)
        out = tmp_path / "r.json"
        assert main(["compare", "--instances", str(p1), str(p2),
                     "--algs", TestCompareExactOnce.ALGS, "--costs", "fq:2,table:0,1,1.5",
                     "--eps", "1/3", "--format", "json", "--out", str(out)]) == 0
        per_instance = {"next_fit": 2, "first_fit": 2, "best_fit": 2, "match_half": 1,
                        "fnfi": 1, "exact_opt": 2, "run_afptas": 2, "verify_packing": 12}
        assert {name: calls.count(name) for name in names} == {
            name: 2 * count for name, count in per_instance.items()
        }
        rows = [r for r in json.loads(out.read_text()) if r["instance"] != "(aggregate)"]
        assert len(rows) == 2 * 10 * 2 and not any("error" in r for r in rows)
        for path in (p1, p2):
            for alg in ("nf-inc", "nf-dec", "ff-inc", "ff-dec", "bf-inc", "bf-dec", "mh", "fnfi"):
                mine = [r for r in rows if r["instance"] == str(path) and r["algorithm"] == alg]
                assert mine[0]["runtime_s"] == mine[1]["runtime_s"]

    def test_parser_leaves_no_cyclic_garbage(self, tmp_path):
        # the parser's groups, actions and formatters form cycles: it is
        # built once per process, not once per call
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 2)] * 4)
        argv = ["compare", "--instances", str(p1), "--algs", "nf-inc,exact",
                "--costs", "fq:1", "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0
            gc.collect()
            from_argparse = [o for o in gc.garbage if type(o).__module__ == "argparse"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert from_argparse == []

    def test_rows_follow_input_order(self, tmp_path):
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 2)] * 4)
        p2, _ = _write_instance(tmp_path, "b.inst", [Fraction(1, 3)] * 4)
        out = tmp_path / "r.csv"
        main(["compare", "--instances", str(p2), str(p1), "--algs", "nf-inc",
              "--costs", "fq:1", "--out", str(out)])
        lines = out.read_text().strip().splitlines()[1:]
        assert "b.inst" in lines[0] and "a.inst" in lines[1]

    def test_negative_exact_limit_is_input_error(self, tmp_path, capsys):
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 2)] * 4)
        code = main(["compare", "--instances", str(p1), "--algs", "nf-inc,exact",
                     "--costs", "fq:1", "--exact-limit", "-5"])
        _assert_input_error(capsys, code)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("eps", ["1/2", "2/3", "1/x"])
    def test_malformed_eps_is_input_error(self, tmp_path, capsys, eps):
        # eps is checked once, before any row, even when no row reads it
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(1, 2)] * 4)
        out = tmp_path / "table.csv"
        code = main(["compare", "--instances", str(p1), "--algs", "mh,fnfi,afptas",
                     "--costs", "fq:1", "--eps", eps, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not out.exists()
        assert captured.err.startswith("error: eps must") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("alg", ["nf-inc", "fnfi"])
    def test_dropped_item_becomes_row_error(self, tmp_path, monkeypatch, alg):
        # each packer drops its last bin and declares only what it packed
        monkeypatch.setattr(
            "concavebp.cli.next_fit",
            lambda inst, order: Packing.from_bins(
                next_fit(inst, order).bins[:-1]
            ),
        )
        monkeypatch.setattr(
            "concavebp.cli.fnfi",
            lambda inst: FractionalPacking.from_bins(fnfi(inst).bins[:-1]),
        )
        p1, _ = _write_instance(tmp_path, "a.inst", [Fraction(2, 3)] * 3)
        out = tmp_path / "r.json"
        code = main(["compare", "--instances", str(p1), "--algs", f"{alg},mh",
                     "--costs", "fq:2", "--format", "json", "--out", str(out)])
        assert code == 0
        broken, healthy = json.loads(out.read_text())[:2]
        assert broken["error"].startswith("solver output failed verification")
        assert "missing" in broken["error"] or "fraction-sum" in broken["error"]
        # the verify-style "kind (bin i): detail" lines, not dataclass reprs
        expected = {
            "nf-inc": "failed verification: missing: item 0 in no bin",
            "fnfi": "failed verification: fraction-sum: item 0 fractions sum to 0, not 1; "
            "fraction-sum: item 1 fractions sum to 1/2, not 1",
        }
        assert expected[alg] in broken["error"]
        assert "Violation(" not in broken["error"]
        assert "cost" not in broken and "ratio" not in broken
        assert "error" not in healthy and healthy["ratio"] >= 1.0


class TestCompareExactOnce:
    ALGS = "nf-inc,nf-dec,ff-inc,ff-dec,bf-inc,bf-dec,mh,fnfi,exact,afptas"

    def _compare(self, tmp_path, monkeypatch, sizes, costs, *extra):
        calls = []

        def counting_exact_opt(inst, f, limit_n):
            calls.append(limit_n)
            return exact_opt(inst, f, limit_n)

        monkeypatch.setattr("concavebp.cli.exact_opt", counting_exact_opt)
        path, inst = _write_instance(tmp_path, "a.inst", sizes)
        out = tmp_path / "r.json"
        code = main(["compare", "--instances", str(path), "--algs", self.ALGS,
                     "--costs", costs, "--eps", "1/3", "--format", "json",
                     "--out", str(out), *extra])
        assert code == 0
        rows = [r for r in json.loads(out.read_text()) if r["instance"] != "(aggregate)"]
        return inst, rows, calls

    def _sizes(self, n, seed):
        import random

        rng = random.Random(seed)
        return [Fraction(rng.randint(1, 60), 100) for _ in range(n)]

    def test_one_solve_per_spec_feeds_every_ratio(self, tmp_path, monkeypatch):
        inst, rows, calls = self._compare(
            tmp_path, monkeypatch, self._sizes(9, 5), "fq:1,fq:3,fq:10"
        )
        assert len(calls) == 3
        for row in rows:
            assert "error" not in row, row
            f = parse_cost_spec(row["cost_spec"], inst.n)
            _, optimum = exact_opt(inst, f)
            assert row["baseline"] == "exact"
            assert row["ratio"] == row["cost"] / optimum
            if row["algorithm"] == "exact":
                assert row["cost"] == optimum
                assert row["runtime_s"] > 0

    def test_bad_spec_stays_a_row_error(self, tmp_path, monkeypatch):
        _, rows, calls = self._compare(
            tmp_path, monkeypatch, self._sizes(6, 6), "fq:0,fq:2"
        )
        assert len(calls) == 1
        for row in rows:
            if row["cost_spec"] == "fq:0":
                assert row["error"].startswith("bad cost spec 'fq:0'")
                assert "cost" not in row
            else:
                assert "error" not in row and row["baseline"] == "exact"

    def test_over_the_limit_falls_back(self, tmp_path, monkeypatch):
        _, rows, _ = self._compare(
            tmp_path, monkeypatch, self._sizes(8, 7), "fq:2,table:0,1,1.5",
            "--exact-limit", "5",
        )
        for row in rows:
            if row["algorithm"] == "exact":
                assert row["error"] == "exact solver limited to 5 items, got 8"
                assert "cost" not in row
            elif row["cost_spec"] == "fq:2":
                assert "error" not in row
                assert row["baseline"] == "overflowed-lower-bound"
                assert row["ratio"] >= 1.0 or row["algorithm"] == "fnfi"
            else:
                assert "error" not in row
                assert "baseline" not in row and "ratio" not in row

    def test_limit_above_the_solver_cap_falls_back(self, tmp_path, monkeypatch):
        # --exact-limit 30 lets a 25-item instance past the limit check, but
        # the exact solver stops at 22 items: fq: rows still take the
        # overflowed-partition baseline and only the exact row errs
        inst = generators.generate("uniform_random", {"n": 25}, 3)
        _, rows, calls = self._compare(
            tmp_path, monkeypatch, list(inst.sizes), "fq:2,table:0,1,1.5",
            "--exact-limit", "30",
        )
        assert len(rows) == 20
        for row in rows:
            if row["algorithm"] == "exact":
                assert row["error"] == "exact solver limited to 22 items, got 25"
                assert "cost" not in row
            elif row["cost_spec"] == "fq:2":
                assert "error" not in row, row
                assert row["baseline"] == "overflowed-lower-bound"
                assert row["ratio"] >= 1.0 or row["algorithm"] == "fnfi"
            else:
                assert "error" not in row, row
                assert "baseline" not in row and "ratio" not in row
        assert calls == [30, 30]  # one failed solve per spec, from the exact rows


# -- fuzzing: malformed and extreme input never escapes as a traceback --------
# instances keep n <= 12, so that no run starts a large solve

def _digits(k: int, d: str) -> str:
    return d * k


NUMBER_TOKENS = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 40), st.integers(-2, 40)),
    st.sampled_from(["1", "0", "-1/2", "0.25", "1.0", "2", "nan", "inf", "1/0", "1_0/3_1"]),
    # exponents from small to about 10**4 digits, on either side of the
    # int-to-string digit limit
    st.builds(
        "{}e{}{}".format,
        st.sampled_from(["1", "5", "0.5", "-1", "1/2"]),
        st.sampled_from(["", "-", "+"]),
        st.one_of(
            st.integers(0, 6000).map(str),
            st.builds(_digits, st.integers(1, 10**4), st.sampled_from("0149")),
        ),
    ),
    st.text(max_size=6),
)


SIZES = st.fractions(Fraction(1, 1000), 1, max_denominator=1000).map(str)


@st.composite
def instance_texts(draw):
    """An instance file, well formed or broken in one place."""
    tokens = draw(st.lists(SIZES, max_size=12))
    n, header = str(len(tokens)), "format: concavebp-instance-v1"
    broken = draw(st.sampled_from(["nothing"] * 4 + ["token", "token", "n", "header"]))
    if broken == "token" and tokens:
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(NUMBER_TOKENS)
    elif broken == "n":
        n = draw(st.one_of(st.integers(-1, 13).map(str), st.text(max_size=3)))
    elif broken == "header":
        header = draw(st.sampled_from(["format: other", "", "n", "format:"]))
    return f"{header}\nn: {n}\nsizes: {' '.join(tokens)}\n"


VALID_COSTS = st.sampled_from(["fq:1", "fq:3", "table:0,1,1.6,2.0,2.3,2.5"])
COST_SPECS = st.one_of(
    st.integers(-2, 10**12).map("fq:{}".format),
    st.builds(
        lambda vals: "table:" + ",".join(vals),
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True).map(repr),
                st.sampled_from(["0", "1", "1.6", "2", "2.5", "1e308", "x", ""]),
            ),
            max_size=14,
        ),
    ),
    st.sampled_from(["fq:3", "table:0,1,1.6,2.0,2.3,2.5", "table:0,0,0", "fq:", "fq:x"]),
    st.text(max_size=8),
)

# each option is mostly valid, so that runs get past it and reach the solvers
EPS = (
    st.sampled_from([None, "1/3", "1/4", "1/6"]),
    st.one_of(
        st.sampled_from(["1/2", "2/3", "1/x", "", "1/0", "1/\u00b2", "1/03", "-1/3"]),
        st.integers(0, 10**12).map("1/{}".format),
        st.builds(lambda k, d: "1/" + _digits(k, d), st.integers(1, 10**4), st.sampled_from("19")),
        st.text(max_size=8),
    ),
)

EXTREME_INTS = st.one_of(
    st.integers(-3, 10**30).map(str),
    st.builds(_digits, st.integers(1, 10**4), st.just("9")),
    st.text(max_size=5),
)


def _options(draw, options):
    """``--name=value`` per (name, (valid, extreme)) option; one in four
    draws is extreme, a valid None leaves the option out."""
    argv = []
    for name, (valid, extreme) in options:
        value = draw(extreme if draw(st.integers(0, 3)) == 0 else valid)
        if value is not None:
            argv.append(f"--{name}={value}")
    return argv


def _run(argv):
    """(exit code, stdout + stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue() + err.getvalue()


def _assert_handled(argv):
    code, text = _run(argv)
    assert code in (0, 2, 3, 4), (code, text[-2000:])
    assert "Traceback" not in text


def _solution_text(draw, instance_text):
    """A solution file for the instance (for one item of size 1/2 when the
    instance does not parse), well formed or broken in one line."""
    try:
        inst = read_instance(io.StringIO(instance_text))
    except ParseError:
        inst = Instance.from_values([Fraction(1, 2)])
    f = parse_cost_spec("fq:3", inst.n)
    if draw(st.booleans()):
        packing = fnfi(inst)
        cost = eval_fractional_cost(f, packing)
    else:
        packing = next_fit(inst, "increasing")
        cost = eval_cost(f, packing)
    buf = io.StringIO()
    write_solution(packing, inst, "fuzz", "fq:3", cost, buf)
    lines = buf.getvalue().splitlines()
    broken = draw(st.integers(-len(lines), len(lines) - 1))  # half of them unbroken
    if broken >= 0:
        key = lines[broken].partition(":")[0]
        if key == "bin":
            part = st.one_of(
                st.integers(-1, 13).map(str),
                st.builds("{}={}".format, st.integers(-1, 13), NUMBER_TOKENS),
            )
            value = " ".join(draw(st.lists(part, max_size=6)))
        else:
            value = draw(st.one_of(NUMBER_TOKENS, COST_SPECS))
        lines[broken] = f"{key}: {value}"
    return "\n".join(lines) + "\n"


def _fuzz_dir():
    # hypothesis runs many examples per test, so no function-scoped tmp_path
    return tempfile.TemporaryDirectory(prefix="concavebp-fuzz-")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), instance=instance_texts(), alg=st.sampled_from(ALGORITHMS))
def test_fuzz_solve(data, instance, alg):
    with _fuzz_dir() as tmp:
        path = Path(tmp) / "f.inst"
        path.write_text(instance)
        argv = ["solve", str(path), "--alg", alg, "--out", str(Path(tmp) / "f.sol")]
        argv += _options(
            data.draw,
            [
                ("cost", (VALID_COSTS, COST_SPECS)),
                ("eps", EPS),
                ("exact-limit", (st.sampled_from([None, "0", "12"]), EXTREME_INTS)),
                ("config-budget", (st.sampled_from([None, "1", "500"]), EXTREME_INTS)),
            ],
        )
        _assert_handled(argv)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), instance=instance_texts())
def test_fuzz_verify(data, instance):
    with _fuzz_dir() as tmp:
        path, sol = Path(tmp) / "f.inst", Path(tmp) / "f.sol"
        path.write_text(instance)
        sol.write_text(_solution_text(data.draw, instance))
        argv = ["verify", str(path), str(sol)]
        argv += _options(data.draw, [("cost", (st.none(), COST_SPECS))])
        _assert_handled(argv)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), instances=st.lists(instance_texts(), min_size=1, max_size=2))
def test_fuzz_compare(data, instances):
    with _fuzz_dir() as tmp:
        paths = []
        for i, text in enumerate(instances):
            paths.append(Path(tmp) / f"f{i}.inst")
            paths[-1].write_text(text)
        algs = data.draw(
            st.one_of(
                st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=4).map(",".join),
                st.text(max_size=8),
            )
        )
        specs = st.one_of(VALID_COSTS, VALID_COSTS, VALID_COSTS, COST_SPECS)
        costs = ",".join(data.draw(st.lists(specs, min_size=1, max_size=2)))
        argv = ["compare", "--instances", *map(str, paths), f"--algs={algs}", f"--costs={costs}"]
        argv += _options(
            data.draw,
            [
                ("eps", EPS),
                ("exact-limit", (st.sampled_from([None, "0", "12"]), EXTREME_INTS)),
                ("format", (st.none(), st.just("json"))),
            ],
        )
        _assert_handled(argv)
