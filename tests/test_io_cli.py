"""File formats and the command-line workflows, end to end through real
files."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from markovfilter import (
    FileFormatError,
    FilterMatrix,
    StateSpace,
    FilteredChain,
    apply_filter,
    e_step,
    io,
    m_step,
    run_em,
)
from markovfilter.cli import (
    EXIT_CONSISTENCY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNIDENTIFIABLE,
    main,
)
from conftest import BENCH_FILTER, BENCH_PROBS, WORKED_CHAIN_DIGITS, WORKED_FILTER


def write(path, text):
    path.write_text(text)
    return str(path)


def estimate_on_support(tmp_path, capsys, probs, seed, n=3000, filter_bits=BENCH_FILTER):
    """(exit code, report, matrix file) of ``estimate --support`` on a chain
    of ``n`` transitions simulated from ``probs`` with ``seed``, filtered by
    ``filter_bits``; the support is where ``probs`` is positive."""
    p_file, f_file, s_file = tmp_path / "p.csv", tmp_path / "f.csv", tmp_path / "s.csv"
    io.write_matrix_csv(p_file, probs)
    io.write_matrix_csv(f_file, filter_bits)
    io.write_matrix_csv(s_file, probs > 0)
    chain, y_file = tmp_path / "chain.txt", tmp_path / "y.txt"
    main(["simulate", str(p_file), "--initial", "1", "--n", str(n), "--seed", str(seed), "--out", str(chain)])
    main(["filter", str(chain), str(f_file), "--out", str(y_file)])
    capsys.readouterr()
    report = tmp_path / "report.kv"
    code = main(["estimate", str(y_file), str(f_file), "--support", str(s_file), "--out", str(report)])
    return code, report, p_file


@pytest.fixture
def bench_files(tmp_path):
    p_file = tmp_path / "probs.csv"
    io.write_matrix_csv(p_file, BENCH_PROBS)
    f_file = tmp_path / "filter.csv"
    io.write_matrix_csv(f_file, BENCH_FILTER)
    return str(p_file), str(f_file)


class TestIoRoundTrips:
    def test_chain_round_trip(self, tmp_path, worked_chain):
        path = tmp_path / "chain.txt"
        io.write_chain(path, worked_chain)
        back = io.read_chain(path, 3)
        assert back.states == worked_chain.states

    def test_filtered_chain_round_trip(self, tmp_path):
        y = FilteredChain((1, None, 2, None), StateSpace(3))
        path = tmp_path / "filtered.txt"
        io.write_filtered_chain(path, y, blank_token="?")
        back = io.read_filtered_chain(path, 3, blank_token="?")
        assert back.symbols == y.symbols

    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, BENCH_PROBS)
        np.testing.assert_allclose(io.read_matrix_csv(path), BENCH_PROBS, atol=1e-12)

    def test_kv_report_round_trip(self, tmp_path):
        path = tmp_path / "report.kv"
        io.write_kv_report(path, {"a.b.1": 0.25, "a.flag": True, "a.n": 7})
        back = io.read_kv_report(path)
        assert back == {"a.b.1": "0.25", "a.flag": "true", "a.n": "7"}

    def test_bad_cell_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "0.5,0.5\n0.4,oops\n")
        with pytest.raises(FileFormatError) as err:
            io.read_matrix_csv(path)
        assert err.value.line == 2
        assert err.value.column == 2

    def test_chain_rejects_alien_token(self, tmp_path):
        path = tmp_path / "chain.txt"
        write(path, "1 2 x 1\n")
        with pytest.raises(FileFormatError):
            io.read_chain(path, 3)

    def test_filter_rejects_fraction(self, tmp_path):
        path = tmp_path / "f.csv"
        write(path, "0.5,1\n0,1\n")
        with pytest.raises(FileFormatError):
            io.read_filter_csv(path)

    @pytest.mark.parametrize("reader, what", [(io.read_filter_csv, "filter"), (io.read_support_csv, "support")])
    def test_non_binary_entries_name_the_file(self, tmp_path, reader, what):
        path = tmp_path / "m.csv"
        write(path, "1,2\n0,1\n")
        args = (path, 2) if what == "support" else (path,)  # the support reader also takes k
        with pytest.raises(FileFormatError) as err:
            reader(*args)
        assert str(err.value) == f"{path}: {what} entries must be 0 or 1"

    def test_filtered_chain_must_start_observed(self, tmp_path):
        path = tmp_path / "y.txt"
        write(path, "- 1 2\n")
        with pytest.raises(FileFormatError):
            io.read_filtered_chain(path, 3)


class TestReadFilteredChain:
    """Messages and results of the filtered-chain reader, token by token."""

    @pytest.mark.parametrize(
        "text, blank, message",
        [
            ("1 x 2", "-", "token 2 ('x') is neither a state nor '-'"),
            ("1 0 2", "-", "token 2: state 0 outside 1..3"),
            ("1 -1 2", "-", "token 2: state -1 outside 1..3"),
            ("1 2 4", "-", "token 3: state 4 outside 1..3"),
            ("1 2 99999999999999999999999", "-", "token 3: state 99999999999999999999999 outside 1..3"),
            ("2 1 - 3", "1", "token 3 ('-') is neither a state nor '1'"),
            ("1 2 1 3", "1", "the initial state must be observed"),
            ("", "-", "empty filtered chain"),
            ("1", "-", "a filtered chain needs at least two symbols"),
            ("- 1 2", "-", "the initial state must be observed"),
        ],
    )
    def test_messages(self, tmp_path, text, blank, message):
        path = tmp_path / "y.txt"
        write(path, text)
        with pytest.raises(FileFormatError) as err:
            io.read_filtered_chain(path, 3, blank_token=blank)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, blank, symbols",
        [
            ("01 2 - +3", "-", (1, 2, None, 3)),  # any int() spelling of a label
            ("2 1 3\n1", "1", (2, None, 3, None)),  # the blank token wins over a label
            ("3\t-\n\n2 -", "-", (3, None, 2, None)),
        ],
    )
    def test_accepted_spellings(self, tmp_path, text, blank, symbols):
        path = tmp_path / "y.txt"
        write(path, text)
        y = io.read_filtered_chain(path, 3, blank_token=blank)
        assert y.symbols == symbols
        assert y.codes.dtype == np.uint8

    @pytest.mark.parametrize(
        "text, k, blank, codes",
        [
            (" 1 - 2\t3\r\n-\x0b9\x0c", 9, "-", [1, 0, 2, 3, 0, 9]),
            ("2 1 3\n1", 3, "1", [2, 0, 3, 0]),
            ("1 2", 3, None, [1, 2]),
            ("1 - 2", 3, " ", None),  # a blank token the split never yields
            ("1 -- 2", 3, "-", None),  # tokens of two bytes
            ("01 2", 3, "-", None),
            ("1 10", 12, "-", None),
            ("1 NA 2", 3, "NA", None),
            ("1 4", 3, "-", None),  # a digit that is no label
            ("1\x1c2", 3, "-", None),  # a separator only for str.split
            ("1\xa02", 3, "-", None),  # not ASCII
        ],
    )
    def test_byte_table_takes_only_one_byte_tokens(self, text, k, blank, codes):
        got = io._byte_codes(text.encode(io._encoding()), k, blank)
        assert got is None if codes is None else got.tolist() == codes

    def test_chain_reader_names_the_token(self, tmp_path):
        path = tmp_path / "chain.txt"
        write(path, "1 2 - 1\n")
        with pytest.raises(FileFormatError) as err:
            io.read_chain(path, 3)
        assert str(err.value) == f"{path}: token 3 ('-') is not a state label"


def test_failure_exit_codes_are_distinct():
    from markovfilter.cli import EXIT_NUMERICAL

    codes = {EXIT_PARSE, EXIT_CONSISTENCY, EXIT_NUMERICAL, EXIT_UNIDENTIFIABLE}
    assert len(codes) == 4
    assert EXIT_OK not in codes


class TestFileErrors:
    """A file that cannot be read or written exits 3 with one error line
    naming it, never a traceback."""

    @pytest.mark.parametrize("command", [["estimate", "none.txt", "none.csv"], ["check-filter", "none.csv"]])
    def test_missing_input_exits_parse(self, tmp_path, capsys, command):
        # estimate reads the filter first
        assert main(command[:1] + [str(tmp_path / name) for name in command[1:]]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "none.csv") in err and err.count("\n") == 1

    def test_report_into_a_missing_directory_exits_parse(self, tmp_path, bench_files, capsys):
        p_file, f_file = bench_files
        chain, y_file = tmp_path / "chain.txt", tmp_path / "y.txt"
        main(["simulate", p_file, "--initial", "1", "--n", "300", "--seed", "1", "--out", str(chain)])
        main(["filter", str(chain), f_file, "--out", str(y_file)])
        capsys.readouterr()
        out = str(tmp_path / "missing" / "report.kv")
        assert main(["estimate", str(y_file), f_file, "--skip-sem", "--out", out]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,1,1\n1,1,1\n", "support mask must be 3 x 3, got shape (2, 3)"),
            ("1,1,0\n1,1,0\n1,1,0\n", "support must allow a transition in every row and column"),
        ],
        ids=["shape", "empty-column"],
    )
    @pytest.mark.parametrize("command", ["check-filter", "estimate"])
    def test_bad_support_names_the_file(self, tmp_path, bench_files, capsys, command, text, message):
        _, f_file = bench_files
        s_file = write(tmp_path / "s.csv", text)
        inputs = [write(tmp_path / "y.txt", "1 2 1 1 2 1\n")] if command == "estimate" else []
        assert main([command, *inputs, f_file, "--support", s_file]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {s_file}: {message}\n"


class TestSimulateCommand:
    def test_writes_n_plus_one_tokens(self, tmp_path, bench_files):
        p_file, _ = bench_files
        out = tmp_path / "chain.txt"
        code = main(
            ["simulate", p_file, "--initial", "1", "--n", "1000", "--seed", "4", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert len(out.read_text().split()) == 1001

    def test_single_transition(self, tmp_path, bench_files):
        p_file, _ = bench_files
        out = tmp_path / "c.txt"
        assert main(["simulate", p_file, "--initial", "2", "--n", "1", "--seed", "0", "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().split()) == 2

    def test_malformed_matrix_exits_parse(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "0.5,0.5\nnope,1\n")
        code = main(["simulate", bad, "--initial", "1", "--n", "5", "--out", str(tmp_path / "c.txt")])
        assert code == EXIT_PARSE
        assert "bad.csv" in capsys.readouterr().err

    def test_nan_matrix_exits_parse(self, tmp_path, capsys):
        bad = write(tmp_path / "nan.csv", "nan,nan\n0.5,0.5\n")
        out = tmp_path / "c.txt"
        assert main(["simulate", bad, "--initial", "1", "--n", "5", "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {bad}: non-finite transition probability\n"
        assert not out.exists()

    def test_warns_on_unrealized_transition(self, tmp_path, capsys):
        p = write(tmp_path / "p.csv", "1,0\n0.5,0.5\n")
        out = tmp_path / "c.txt"
        assert main(["simulate", p, "--initial", "1", "--n", "50", "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert "never occurred" in capsys.readouterr().out


class TestFilterCommand:
    def test_worked_example_tokens(self, tmp_path, capsys):
        chain = write(tmp_path / "chain.txt", " ".join(WORKED_CHAIN_DIGITS))
        f_file = tmp_path / "f.csv"
        io.write_matrix_csv(f_file, WORKED_FILTER)
        out = tmp_path / "y.txt"
        assert main(["filter", chain, str(f_file), "--out", str(out)]) == EXIT_OK
        assert out.read_text().split() == "1 1 - 3 1 2 2 3 2 - - - - 3 1 1 - - - 3 1".split()
        printed = capsys.readouterr().out
        assert "reduction fraction" in printed

    def test_all_ones_reduces_nothing(self, tmp_path, capsys):
        chain = write(tmp_path / "chain.txt", "1 2 1 2")
        f_file = tmp_path / "f.csv"
        io.write_matrix_csv(f_file, np.ones((2, 2), dtype=bool))
        out = tmp_path / "y.txt"
        assert main(["filter", chain, str(f_file), "--out", str(out)]) == EXIT_OK
        assert "reduction fraction = 0" in capsys.readouterr().out

    def test_round_trip_through_files(self, tmp_path, bench_files):
        p_file, f_file = bench_files
        chain_file = tmp_path / "chain.txt"
        main(["simulate", p_file, "--initial", "1", "--n", "200", "--seed", "9", "--out", str(chain_file)])
        out = tmp_path / "y.txt"
        main(["filter", str(chain_file), f_file, "--out", str(out)])
        y = io.read_filtered_chain(out, 3)
        from markovfilter import apply_filter

        chain = io.read_chain(chain_file, 3)
        assert y.symbols == apply_filter(chain, FilterMatrix(BENCH_FILTER)).symbols


class TestBlankToken:
    """The writer refuses a blank token that would not read back as a blank."""

    @pytest.mark.parametrize("blank", ["2", "", " ", "a b", "-\t", "\x1c"])
    def test_writer_refuses(self, tmp_path, blank):
        y = FilteredChain((1, None, 2, 3), StateSpace(3))
        path = tmp_path / "y.txt"
        with pytest.raises(ValueError, match="blank token"):
            io.write_filtered_chain(path, y, blank)
        assert not path.exists()

    @pytest.fixture
    def chain_file(self, tmp_path, bench_files):
        p_file, _ = bench_files
        chain = tmp_path / "chain.txt"
        main(["simulate", p_file, "--initial", "1", "--n", "50", "--seed", "0", "--out", str(chain)])
        return chain

    @pytest.mark.parametrize("blank", ["2", ""])
    def test_filter_command_exits_3(self, tmp_path, bench_files, chain_file, capsys, blank):
        out = tmp_path / "y.txt"
        code = main(["filter", str(chain_file), bench_files[1], "--blank-token", blank, "--out", str(out)])
        assert code == EXIT_PARSE
        assert "blank token" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("blank", ["0", "NA", "02", "-"])
    def test_round_trip(self, tmp_path, bench_files, chain_file, blank):
        out = tmp_path / "y.txt"
        assert main(["filter", str(chain_file), bench_files[1], "--blank-token", blank, "--out", str(out)]) == EXIT_OK
        expected = apply_filter(io.read_chain(chain_file, 3), FilterMatrix(BENCH_FILTER))
        assert None in expected.symbols
        assert io.read_filtered_chain(out, 3, blank) == expected


class TestCheckFilterCommand:
    def test_bench_filter_is_approved(self, bench_files, capsys):
        _, f_file = bench_files
        assert main(["check-filter", f_file]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "sufficient-identifiable" in printed
        assert "closure witness" in printed

    def test_sparse_large_filter_unknown(self, tmp_path):
        bits = np.zeros((10, 10), dtype=bool)
        bits[0, 0] = True
        f_file = tmp_path / "f.csv"
        io.write_matrix_csv(f_file, bits)
        assert main(["check-filter", str(f_file)]) == EXIT_UNIDENTIFIABLE

    def test_non_square_filter_names_the_file(self, tmp_path, capsys):
        f_file = write(tmp_path / "f.csv", "0,1,1\n1,0,1\n")
        assert main(["check-filter", f_file]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"error: {f_file}: filter must be square of size >= 2, got (2, 3)\n"

    def test_support_changes_the_verdict(self, tmp_path, bench_files):
        _, f_file = bench_files
        support = np.array([[1, 0, 0], [1, 1, 1], [1, 1, 1]])
        s_file = tmp_path / "s.csv"
        io.write_matrix_csv(s_file, support.astype(float))
        assert main(["check-filter", f_file, "--support", str(s_file)]) == EXIT_UNIDENTIFIABLE

    def test_all_ones_support_keeps_the_verdict(self, tmp_path, bench_files, capsys):
        # restriction R applies only when the support has a structural zero
        _, f_file = bench_files
        s_file = tmp_path / "s.csv"
        io.write_matrix_csv(s_file, np.ones((3, 3), dtype=bool))
        assert main(["check-filter", f_file]) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(["check-filter", f_file, "--support", str(s_file)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "records an allowed transition per row: True" in lines
        assert [ln for ln in lines if not ln.startswith("records ")] == plain.splitlines()


class TestEstimateCommand:
    def test_full_observation_recovers_mle(self, tmp_path, capsys):
        chain = write(tmp_path / "chain.txt", " ".join(WORKED_CHAIN_DIGITS))
        ones = tmp_path / "ones.csv"
        io.write_matrix_csv(ones, np.ones((3, 3), dtype=bool))
        y_file = tmp_path / "y.txt"
        main(["filter", chain, str(ones), "--out", str(y_file)])
        capsys.readouterr()
        report = tmp_path / "report.kv"
        code = main(["estimate", str(y_file), str(ones), "--out", str(report)])
        assert code == EXIT_OK
        entries = io.read_kv_report(report)
        assert float(entries["estimate.theta.1.1"]) == pytest.approx(2 / 7)
        assert float(entries["estimate.theta.1.2"]) == pytest.approx(4 / 7)
        d = 6
        delta = np.array(
            [
                [float(entries[f"estimate.delta_v.{a + 1}.{b + 1}"]) for b in range(d)]
                for a in range(d)
            ]
        )
        assert np.all(delta == 0.0)

    def test_inconsistent_pattern_exits_consistency(self, tmp_path, capsys):
        y_file = write(tmp_path / "y.txt", "1 2\n")
        f_file = tmp_path / "f.csv"
        io.write_matrix_csv(f_file, np.eye(2).astype(bool))
        code = main(["estimate", str(y_file), str(f_file)])
        assert code == EXIT_CONSISTENCY
        assert "hint" in capsys.readouterr().err

    def test_unrevealed_observed_state_exits_consistency(self, tmp_path, capsys):
        # under the diagonal filter the gap 1 -> 2 -> 1 is unrecorded, so no
        # chain reveals the last 1
        y_file = write(tmp_path / "y.txt", "1 - 1\n")
        f_file = tmp_path / "f.csv"
        io.write_matrix_csv(f_file, np.eye(2).astype(bool))
        assert main(["estimate", str(y_file), str(f_file)]) == EXIT_CONSISTENCY
        assert "position 2" in capsys.readouterr().err

    def test_bench_run_produces_finite_report(self, tmp_path, bench_files, capsys):
        p_file, f_file = bench_files
        chain_file = tmp_path / "chain.txt"
        main(["simulate", p_file, "--initial", "1", "--n", "500", "--seed", "3", "--out", str(chain_file)])
        y_file = tmp_path / "y.txt"
        main(["filter", str(chain_file), f_file, "--out", str(y_file)])
        capsys.readouterr()
        report = tmp_path / "report.kv"
        assert main(["estimate", str(y_file), f_file, "--out", str(report)]) == EXIT_OK
        entries = io.read_kv_report(report)
        assert entries["estimate.converged"] == "true"
        sym = float(entries["estimate.symmetry"])
        assert np.isfinite(sym) and sym < 1e-4
        for key in ("estimate.se.1.1", "estimate.ci.lo.1.1", "estimate.v_obs.1.1", "estimate.m1.1.1"):
            assert np.isfinite(float(entries[key]))

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--tol", "0"], "tolerances must be positive"),
            (["--alpha", "1.5"], "alpha must lie strictly between 0 and 1"),
            (["--max-iter", "0"], "--max-iter must be at least 1"),
            (["--max-iter", "-1"], "--max-iter must be at least 1"),
            (["--tol", "nan"], "tolerances must be positive"),
        ],
    )
    def test_bad_settings_exit_parse(self, tmp_path, bench_files, capsys, option, message):
        _, f_file = bench_files
        y_file = write(tmp_path / "y.txt", "1 2 1\n")
        assert main(["estimate", y_file, f_file, *option]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_structural_zero_gets_no_variance(self, tmp_path, capsys):
        probs = np.array([[0.0, 0.375, 0.625], [0.8, 0.1, 0.1], [0.7, 0.1, 0.2]])
        code, report, p_file = estimate_on_support(tmp_path, capsys, probs, seed=1)
        assert code == EXIT_OK
        assert "p_11       0               (fixed)" in capsys.readouterr().out
        entries = io.read_kv_report(report)
        assert np.isnan(float(entries["estimate.se.1.1"]))
        assert not any(key.startswith("estimate.ci.") and key.endswith(".1.1") for key in entries)
        assert np.isfinite(float(entries["estimate.se.1.2"]))
        for a in range(1, 7):
            for name in ("v_com", "v_obs"):
                assert float(entries[f"estimate.{name}.1.{a}"]) == 0.0
                assert float(entries[f"estimate.{name}.{a}.1"]) == 0.0
        assert main(["test", str(report), str(p_file)]) == EXIT_OK
        assert "degrees of freedom   = 5" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [0, 5])
    def test_fast_converging_fit_gets_the_exact_jacobian(self, tmp_path, capsys, seed):
        # EM converges here within a few dozen steps, so forced SEM iterations
        # froze rows of M1 on rounding noise (an eigenvalue of 1.67 and a
        # V_obs that was not positive definite); the complex step is exact
        probs = np.array([[0.0, 0.375, 0.625], [0.8, 0.1, 0.1], [0.7, 0.1, 0.2]])
        code, report, p_file = estimate_on_support(tmp_path, capsys, probs, seed)
        assert code == EXIT_OK
        entries = io.read_kv_report(report)

        def matrix(name):
            return np.array([[float(entries[f"estimate.{name}.{a}.{b}"]) for b in range(1, 7)] for a in range(1, 7)])

        v, m1 = matrix("v_obs"), matrix("m1")
        free = np.diag(v) != 0.0  # p_11 is fixed at zero
        assert free.sum() == 5
        assert np.all(np.linalg.eigvalsh(v[np.ix_(free, free)]) > 0.0)
        assert float(entries["estimate.symmetry"]) < 1e-12

        F = FilterMatrix(BENCH_FILTER)
        y = io.read_filtered_chain(tmp_path / "y.txt", 3)
        theta = run_em(y, F, support=probs > 0).theta_hat.theta

        def em_map(t):
            return m_step(e_step(y, t, F)).theta

        h, p31 = 1e-6, 4
        up, down = theta.copy(), theta.copy()
        up[p31] += h
        down[p31] -= h
        np.testing.assert_allclose(m1[p31], (em_map(up) - em_map(down)) / (2 * h), rtol=0, atol=1e-6)
        assert main(["test", str(report), str(p_file)]) == EXIT_OK

    def test_zero_in_the_last_column_ties_the_row(self, tmp_path, capsys):
        # row 1 = (p_11, 1 - p_11, 0): its reference column is 2, so p_11 and
        # p_12 share one variance and are perfectly anticorrelated
        probs = np.array([[0.4, 0.6, 0.0], [0.8, 0.1, 0.1], [0.7, 0.1, 0.2]])
        code, report, p_file = estimate_on_support(tmp_path, capsys, probs, seed=1)
        assert code == EXIT_OK
        entries = io.read_kv_report(report)
        se_11, se_12 = float(entries["estimate.se.1.1"]), float(entries["estimate.se.1.2"])
        assert np.isfinite(se_11) and se_12 == pytest.approx(se_11, rel=1e-9)
        var = float(entries["estimate.v_obs.1.1"])
        assert float(entries["estimate.v_obs.1.2"]) == pytest.approx(-var, rel=1e-9)
        assert main(["test", str(report), str(p_file)]) == EXIT_OK
        assert "degrees of freedom   = 5" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [10, 19, 36, 38])
    def test_saddle_point_exits_numerical(self, tmp_path, capsys, seed):
        # from the uniform start EM stops at p_11 = p_22, where M1 has an
        # eigenvalue above 1 and V_obs a negative one
        from markovfilter.cli import EXIT_NUMERICAL

        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        F = np.array([[0, 0], [1, 0]])  # records only 2 -> 1
        code, _, _ = estimate_on_support(tmp_path, capsys, probs, seed, n=500, filter_bits=F)
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "not a local maximum" in err
        assert "the estimate itself is fine" not in err

    def test_report_carries_the_convergence_rate_and_conditioning(self, tmp_path, bench_files):
        p_file, f_file = bench_files
        chain_file, y_file = tmp_path / "chain.txt", tmp_path / "y.txt"
        main(["simulate", p_file, "--initial", "1", "--n", "500", "--seed", "3", "--out", str(chain_file)])
        main(["filter", str(chain_file), f_file, "--out", str(y_file)])
        report = tmp_path / "report.kv"
        assert main(["estimate", str(y_file), f_file, "--out", str(report)]) == EXIT_OK
        entries = io.read_kv_report(report)
        m1 = np.array([[float(entries[f"estimate.m1.{a}.{b}"]) for b in range(1, 7)] for a in range(1, 7)])
        radius = float(entries["estimate.spectral_radius"])
        assert 0.0 < radius < 1.0
        assert radius == pytest.approx(np.max(np.abs(np.linalg.eigvals(m1))), rel=1e-9)
        assert float(entries["estimate.cond"]) == pytest.approx(np.linalg.cond(np.eye(6) - m1), rel=1e-9)

    def test_report_and_stdout_carry_the_e_steps_and_em_error(self, tmp_path, bench_files, capsys):
        p_file, f_file = bench_files
        chain_file, y_file = tmp_path / "chain.txt", tmp_path / "y.txt"
        main(["simulate", p_file, "--initial", "1", "--n", "500", "--seed", "3", "--out", str(chain_file)])
        main(["filter", str(chain_file), f_file, "--out", str(y_file)])
        capsys.readouterr()
        report = tmp_path / "report.kv"
        assert main(["estimate", str(y_file), f_file, "--out", str(report)]) == EXIT_OK
        entries = io.read_kv_report(report)
        iterations, e_steps = int(entries["estimate.iterations"]), int(entries["estimate.e_steps"])
        assert iterations < e_steps
        line = f"EM converged: True after {iterations} iterations ({e_steps} E-steps)"
        assert capsys.readouterr().out.splitlines()[0] == line
        assert 0.0 <= float(entries["estimate.em_error"]) < 1e-9

    def test_sem_failure_hints_at_skip_sem(self, tmp_path, capsys):
        # EM stops at a saddle point here (as in the test above), where the
        # covariance does not exist; the estimate is still reported without it
        from markovfilter.cli import EXIT_NUMERICAL

        probs = np.array([[0.7, 0.3], [0.4, 0.6]])
        F = np.array([[0, 0], [1, 0]])
        code, _, _ = estimate_on_support(tmp_path, capsys, probs, 10, n=500, filter_bits=F)
        assert code == EXIT_NUMERICAL
        assert "--skip-sem" in capsys.readouterr().err
        assert main(["estimate", str(tmp_path / "y.txt"), str(tmp_path / "f.csv"), "--skip-sem"]) == EXIT_OK

    def test_support_of_the_wrong_size_names_the_shape(self, tmp_path, bench_files, capsys):
        _, f_file = bench_files
        y_file = write(tmp_path / "y.txt", "1 2 1 1 2 1\n")
        s_file = tmp_path / "s.csv"
        io.write_matrix_csv(s_file, np.ones((2, 2), dtype=bool))
        assert main(["estimate", y_file, f_file, "--support", str(s_file)]) == EXIT_PARSE
        assert "3 x 3" in capsys.readouterr().err

    def test_exact_zero_in_the_last_column(self, tmp_path, capsys):
        # 1 -> 4 never occurs; the M-step's exact zero is reported as 0, not
        # as 1 minus the row's other entries
        y_file = write(tmp_path / "y.txt", "1 1 2 1 2 1 2 1 2 1 3 4 3 2 4 1\n")
        ones = tmp_path / "ones.csv"
        io.write_matrix_csv(ones, np.ones((4, 4), dtype=bool))
        report = tmp_path / "report.kv"
        assert main(["estimate", y_file, str(ones), "--out", str(report)]) == EXIT_OK
        assert io.read_kv_report(report)["estimate.theta.1.4"] == "0"

    def test_printed_report_equals_the_written_one(self, tmp_path, capsys):
        y_file = write(tmp_path / "y.txt", "1 2 1 1 2 1 1 2 2 1\n")
        ones = tmp_path / "ones.csv"
        io.write_matrix_csv(ones, np.ones((2, 2), dtype=bool))
        report = tmp_path / "report.kv"
        assert main(["estimate", y_file, str(ones), "--out", str(report)]) == EXIT_OK
        capsys.readouterr()
        assert main(["estimate", y_file, str(ones)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        written = report.read_text().splitlines()
        assert "estimate.converged = true" in written
        assert printed[printed.index("report:") + 1 :] == written

    def test_skip_sem_omits_covariances(self, tmp_path, capsys):
        chain = write(tmp_path / "chain.txt", "1 2 1 2 2 1")
        ones = tmp_path / "ones.csv"
        io.write_matrix_csv(ones, np.ones((2, 2), dtype=bool))
        y_file = tmp_path / "y.txt"
        main(["filter", chain, str(ones), "--out", str(y_file)])
        capsys.readouterr()
        report = tmp_path / "report.kv"
        assert main(["estimate", str(y_file), str(ones), "--skip-sem", "--out", str(report)]) == EXIT_OK
        entries = io.read_kv_report(report)
        assert "estimate.v_obs.1.1" not in entries
        assert "estimate.theta.1.1" in entries


class TestTestCommand:
    @pytest.fixture
    def fitted_report(self, tmp_path, bench_files):
        p_file, f_file = bench_files
        chain_file = tmp_path / "chain.txt"
        main(["simulate", p_file, "--initial", "1", "--n", "800", "--seed", "21", "--out", str(chain_file)])
        y_file = tmp_path / "y.txt"
        main(["filter", str(chain_file), f_file, "--out", str(y_file)])
        report = tmp_path / "report.kv"
        main(["estimate", str(y_file), f_file, "--out", str(report)])
        return report

    def test_null_at_the_estimate_scores_zero(self, tmp_path, fitted_report, capsys):
        entries = io.read_kv_report(fitted_report)
        k = int(entries["estimate.k"])
        probs = np.array(
            [[float(entries[f"estimate.theta.{i + 1}.{j + 1}"]) for j in range(k)] for i in range(k)]
        )
        probs /= probs.sum(axis=1, keepdims=True)
        null_file = tmp_path / "null.csv"
        io.write_matrix_csv(null_file, probs)
        capsys.readouterr()
        assert main(["test", str(fitted_report), str(null_file)]) == EXIT_OK
        printed = capsys.readouterr().out
        stat = float(printed.split("chi-square statistic = ")[1].splitlines()[0])
        assert stat == pytest.approx(0.0, abs=1e-10)
        assert "fail to reject" in printed

    def test_truth_is_not_rejected(self, tmp_path, fitted_report, bench_files, capsys):
        p_file, _ = bench_files
        capsys.readouterr()
        assert main(["test", str(fitted_report), p_file]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "per-parameter z tests" in printed
        assert "degrees of freedom   = 6" in printed

    @pytest.mark.parametrize("alpha", ["2", "1", "0", "-0.5"])
    def test_bad_alpha_exits_parse(self, fitted_report, bench_files, capsys, alpha):
        p_file, _ = bench_files
        capsys.readouterr()
        assert main(["test", str(fitted_report), p_file, "--alpha", alpha]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == "error: alpha must lie strictly between 0 and 1\n"
        assert captured.out == ""

    def test_nan_null_exits_parse(self, tmp_path, fitted_report, capsys):
        null_file = write(tmp_path / "null.csv", "nan,nan,nan\n0.8,0.1,0.1\n0.7,0.1,0.2\n")
        capsys.readouterr()
        assert main(["test", str(fitted_report), null_file]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == f"error: {null_file}: non-finite transition probability\n"
        assert captured.out == ""

    def test_missing_key_exits_parse(self, tmp_path, bench_files):
        p_file, _ = bench_files
        broken = write(tmp_path / "broken.kv", "estimate.k = 3\n")
        assert main(["test", broken, p_file]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("estimate.theta.1.1", "abc", "estimate.theta.1.1 = abc is not a number"),
            ("estimate.v_obs.2.3", "1.0.0", "estimate.v_obs.2.3 = 1.0.0 is not a number"),
            ("estimate.k", "three", "estimate.k = three is not an integer"),
            ("estimate.k", "1", "estimate.k = 1 is not a state count (at least 2)"),
        ],
        ids=["theta-cell", "v_obs-cell", "k-word", "k-one"],
    )
    def test_bad_report_value_names_the_report(self, fitted_report, bench_files, capsys, key, value, message):
        p_file, _ = bench_files
        entries = io.read_kv_report(fitted_report)
        assert key in entries
        entries[key] = value
        io.write_kv_report(fitted_report, entries)
        capsys.readouterr()
        assert main(["test", str(fitted_report), p_file]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == f"error: {fitted_report}: {message}\n"
        assert captured.out == ""

    def test_rank_deficient_covariance_exits_numerical(self, tmp_path, capsys):
        from markovfilter.cli import EXIT_NUMERICAL

        entries = {"estimate.k": 2}
        probs = [[0.6, 0.4], [0.3, 0.7]]
        for i in range(2):
            for j in range(2):
                entries[f"estimate.theta.{i + 1}.{j + 1}"] = probs[i][j]
        for a in range(2):
            for b in range(2):
                entries[f"estimate.v_obs.{a + 1}.{b + 1}"] = 1.0  # rank one
        report = tmp_path / "report.kv"
        io.write_kv_report(report, entries)
        null_file = tmp_path / "null.csv"
        io.write_matrix_csv(null_file, np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert main(["test", str(report), str(null_file)]) == EXIT_NUMERICAL
        assert "positive definite" in capsys.readouterr().err

    def test_negative_variance_is_not_dropped(self, tmp_path, capsys):
        from markovfilter.cli import EXIT_NUMERICAL

        entries = {"estimate.k": 2}
        for i, row in enumerate([[0.6, 0.4], [0.3, 0.7]]):
            for j, p in enumerate(row):
                entries[f"estimate.theta.{i + 1}.{j + 1}"] = p
        for a, b, value in ((1, 1, 0.01), (1, 2, 0.0), (2, 1, 0.0), (2, 2, -0.01)):
            entries[f"estimate.v_obs.{a}.{b}"] = value
        report = tmp_path / "report.kv"
        io.write_kv_report(report, entries)
        null_file = tmp_path / "null.csv"
        io.write_matrix_csv(null_file, np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert main(["test", str(report), str(null_file)]) == EXIT_NUMERICAL
        assert "positive definite" in capsys.readouterr().err


class TestEmbedCommand:
    def test_small_embed(self, tmp_path, capsys):
        chain = write(tmp_path / "chain.txt", "1 2 2 1")
        out = tmp_path / "emb.txt"
        support = tmp_path / "support.csv"
        code = main(
            ["embed", chain, "--states", "2", "--order", "2", "--out", str(out), "--support-out", str(support)]
        )
        assert code == EXIT_OK
        assert len(out.read_text().split()) == 3
        mask = io.read_support_csv(support, 4)
        assert mask.sum() == 2**3

    def test_chain_too_short(self, tmp_path, capsys):
        chain = write(tmp_path / "chain.txt", "1 2")
        code = main(
            [
                "embed",
                chain,
                "--states",
                "2",
                "--order",
                "3",
                "--out",
                str(tmp_path / "e.txt"),
                "--support-out",
                str(tmp_path / "s.csv"),
            ]
        )
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == "error: chain of length 2 too short for order 3 (need 4)\n"

    def test_embedded_standard_errors(self, tmp_path, capsys):
        # order 2 over two states: each tuple row allows two successors, p
        # and 1 - p, so a row's two entries share one standard error and
        # the chi-square has one degree of freedom per tuple row
        rng = np.random.default_rng(11)
        states = [1, 2]
        for _ in range(600):
            older = states[-2]
            states.append(older if rng.random() < (0.8 if older == 1 else 0.3) else 3 - older)
        chain = write(tmp_path / "chain.txt", " ".join(map(str, states)))
        emb, support = tmp_path / "emb.txt", tmp_path / "support.csv"
        main(["embed", chain, "--states", "2", "--order", "2", "--out", str(emb), "--support-out", str(support)])
        f_file, y_file = tmp_path / "f.csv", tmp_path / "y.txt"
        io.write_matrix_csv(f_file, np.array([[1, 0, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]]))
        main(["filter", str(emb), str(f_file), "--out", str(y_file)])
        report = tmp_path / "report.kv"
        args = ["estimate", str(y_file), str(f_file), "--support", str(support), "--out", str(report)]
        assert main(args) == EXIT_OK
        entries = io.read_kv_report(report)
        for row in (1, 3):  # tuples (1, 1) and (2, 1) move to (1, 1) or (1, 2)
            se = float(entries[f"estimate.se.{row}.1"])
            assert np.isfinite(se) and float(entries[f"estimate.se.{row}.2"]) == pytest.approx(se, rel=1e-9)
            var = float(entries[f"estimate.v_obs.{3 * row - 2}.{3 * row - 2}"])
            assert float(entries[f"estimate.v_obs.{3 * row - 2}.{3 * row - 1}"]) == pytest.approx(-var, rel=1e-9)
        probs = np.array([[float(entries[f"estimate.theta.{i}.{j}"]) for j in range(1, 5)] for i in range(1, 5)])
        null_file = tmp_path / "null.csv"
        io.write_matrix_csv(null_file, probs / probs.sum(axis=1, keepdims=True))
        capsys.readouterr()
        assert main(["test", str(report), str(null_file)]) == EXIT_OK
        assert "degrees of freedom   = 4" in capsys.readouterr().out

    def test_embedded_estimate_workflow(self, tmp_path, capsys):
        # order-2 workflow: embed, filter the tuple chain, estimate with the
        # embedded support (SEM skipped: most tuple parameters are fixed)
        rng = np.random.default_rng(10)
        states = [1]
        for _ in range(300):
            states.append(int(rng.integers(1, 3)))
        chain = write(tmp_path / "chain.txt", " ".join(map(str, states)))
        emb = tmp_path / "emb.txt"
        support = tmp_path / "support.csv"
        main(["embed", chain, "--states", "2", "--order", "2", "--out", str(emb), "--support-out", str(support)])
        f_file = tmp_path / "f.csv"
        io.write_matrix_csv(f_file, np.ones((4, 4), dtype=bool))
        y_file = tmp_path / "y.txt"
        main(["filter", str(emb), str(f_file), "--out", str(y_file)])
        capsys.readouterr()
        report = tmp_path / "report.kv"
        code = main(
            [
                "estimate",
                str(y_file),
                str(f_file),
                "--support",
                str(support),
                "--skip-sem",
                "--out",
                str(report),
            ]
        )
        assert code == EXIT_OK
        entries = io.read_kv_report(report)
        # off-support tuple transitions carry no estimated mass
        assert float(entries["estimate.theta.1.3"]) == 0.0


# Every subcommand in one fresh interpreter: other tests import scipy into
# this one, so only a new process can show that the CLI never does.
SCIPY_FREE_SESSION = r'''
import contextlib, sys
from io import StringIO
from pathlib import Path
import numpy as np
from markovfilter import FilterMatrix, TransitionMatrix, apply_filter, io
from markovfilter.cli import main
P = TransitionMatrix.from_probs([[0.2, 0.3, 0.5], [0.8, 0.1, 0.1], [0.7, 0.1, 0.2]])
F = FilterMatrix([[0, 1, 0], [1, 1, 0], [1, 0, 0]])
d = Path(sys.argv[1])
io.write_matrix_csv(d / "p.csv", P.probs)
io.write_matrix_csv(d / "f.csv", F.bits)
assert main(["simulate", str(d / "p.csv"), "--initial", "1", "--n", "1000", "--seed", "0", "--out", str(d / "x.txt")]) == 0
assert main(["filter", str(d / "x.txt"), str(d / "f.csv"), "--out", str(d / "y.txt")]) == 0
assert main(["estimate", str(d / "y.txt"), str(d / "f.csv"), "--out", str(d / "r.kv")]) == 0
assert main(["test", str(d / "r.kv"), str(d / "p.csv")]) == 0
# one corrupted cell: exit 3, and the error names the report
(d / "bad.kv").write_text((d / "r.kv").read_text().replace("estimate.theta.1.1 = ", "estimate.theta.1.1 = x"))
with contextlib.redirect_stderr(StringIO()) as err:
    assert main(["test", str(d / "bad.kv"), str(d / "p.csv")]) == 3
assert err.getvalue().startswith(f"error: {d / 'bad.kv'}: estimate.theta.1.1 = x"), err.getvalue()
io.write_matrix_csv(d / "s.csv", P.support)  # all ones: no structural zero
assert main(["check-filter", str(d / "f.csv"), "--support", str(d / "s.csv")]) == 0
assert main(["estimate", str(d / "y.txt"), str(d / "f.csv"), "--support", str(d / "s.csv")]) == 0
assert main(["embed", str(d / "x.txt"), "--states", "3", "--order", "2", "--out", str(d / "e.txt"), "--support-out", str(d / "es.csv")]) == 0
# 12 states: two-byte labels, a two-byte blank, and the writers' padding drop across three block edges
shift = (np.arange(12) - np.arange(12)[:, None]) % 12
F12 = FilterMatrix(np.random.default_rng(0).random((12, 12)) < 0.3)
io.write_matrix_csv(d / "p12.csv", np.where(shift < 8, 0.125, 0.0))
io.write_matrix_csv(d / "f12.csv", F12.bits)
assert main(["simulate", str(d / "p12.csv"), "--initial", "1", "--n", "200000", "--seed", "0", "--out", str(d / "x12.txt")]) == 0
assert main(["filter", str(d / "x12.txt"), str(d / "f12.csv"), "--blank-token", "NA", "--out", str(d / "y12.txt")]) == 0
assert io.read_filtered_chain(d / "y12.txt", 12, "NA") == apply_filter(io.read_chain(d / "x12.txt", 12), F12)
assert "scipy" not in sys.modules, "a subcommand imported scipy"
'''


def test_every_subcommand_runs_without_importing_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SESSION, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
