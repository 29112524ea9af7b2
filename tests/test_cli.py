import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import groupmcdm
from groupmcdm import aggregation, cli, clustering, credal
from groupmcdm.cli import (
    COMMANDS,
    Report,
    RunConfig,
    _build_parser,
    _config_from_args,
    load_priorities,
    main,
)
from groupmcdm.errors import (
    InputError,
    NonPositiveEntry,
    NumericError,
    ParseError,
    RaggedRow,
)

from conftest import EXAMPLE_W


def report_of(config):
    """The Report that ``main`` renders for ``config``: load, command, echo."""
    W, notes = load_priorities(config.input, config.zero_policy, config.zero_eps)
    results = COMMANDS[config.command](W, config, notes)
    return Report(config=dataclasses.asdict(config), results=results, warnings=notes)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# malformed files and the line their ParseError names
MALFORMED = [
    ("a,b\nx,0.5\n", 2),
    ("a,b\n0.5,0.5\n0.5,nan\n", 3),
    ("a,b\ninf,0.5\n", 2),
    ("a,b\n0.5,-inf\n", 2),
    ("a,b,a\n0.2,0.3,0.5\n", 1),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLoadPriorities:
    def test_example_file(self, example_csv, tmp_path):
        with_bom = tmp_path / "bom.csv"
        with_bom.write_text(Path(example_csv).read_text(), encoding="utf-8-sig")
        for path in (example_csv, str(with_bom)):
            W, notes = load_priorities(path)
            np.testing.assert_allclose(W.values, EXAMPLE_W, atol=1e-15)
            assert W.labels == ("c1", "c2", "c3", "c4")
            assert notes == []

    def test_row_not_summing_to_one_is_renormalized(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b\n0.599,0.4\n0.5,0.5\n")
        W, notes = load_priorities(path)
        assert len(notes) == 1 and "re-normalized" in notes[0]
        np.testing.assert_allclose(W.values.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_rejected_by_default(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b\n0.5,0.5\n0.0,1.0\n")
        with pytest.raises(NonPositiveEntry) as exc:
            load_priorities(path)
        assert exc.value.line == 3
        assert exc.value.index == 0

    def test_zero_replaced_under_policy(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b\n0.5,0.5\n0.0,1.0\n")
        W, notes = load_priorities(path, zero_policy="replace", zero_eps=1e-6)
        assert any("replaced 1 zero" in n for n in notes)
        assert W.values[1, 0] > 0

    def test_negative_always_rejected(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b\n0.5,0.5\n-0.2,1.2\n")
        with pytest.raises(NonPositiveEntry):
            load_priorities(path, zero_policy="replace")

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b,c\n0.5,0.3,0.2\n0.5,0.5\n")
        with pytest.raises(RaggedRow) as exc:
            load_priorities(path)
        assert exc.value.line == 3

    def test_non_numeric_cell(self, tmp_path):
        for text, line in MALFORMED:
            path = write_csv(tmp_path / "w.csv", text)
            with pytest.raises(ParseError) as exc:
                load_priorities(path)
            assert exc.value.line == line
            if line > 1:
                assert "column" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_priorities(str(tmp_path / "nope.csv"))

    def test_no_data_rows(self, tmp_path):
        path = write_csv(tmp_path / "w.csv", "a,b\n")
        with pytest.raises(ParseError):
            load_priorities(path)


class TestAggregateCommand:
    def test_gmm_json(self, capsys, example_csv):
        code, out, err = run_cli(
            capsys, "aggregate", "--input", example_csv, "--method", "gmm"
        )
        assert code == 0
        report = json.loads(out)
        np.testing.assert_allclose(
            report["results"]["weights"]["values"],
            [0.260, 0.405, 0.269, 0.066],
            atol=1e-3,
        )
        assert report["config"]["method"] == "gmm"

    def test_awgmm_flags_deviant_dm(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, "aggregate", "--input", example_csv, "--method", "awgmm"
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["deviants"] == [3]
        assert any("DM3" in w for w in report["warnings"])
        np.testing.assert_allclose(
            report["results"]["weights"]["values"],
            [0.225, 0.410, 0.319, 0.046],
            atol=1e-3,
        )

    def test_amm_carries_fallacy_warning(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, "aggregate", "--input", example_csv, "--method", "amm"
        )
        assert code == 0
        report = json.loads(out)
        assert any("should be avoided" in w for w in report["warnings"])

    def test_single_dm_any_method(self, tmp_path, capsys):
        path = write_csv(tmp_path / "w.csv", "a,b,c\n0.5,0.3,0.2\n")
        results = {}
        for method in ("amm", "gmm", "awgmm"):
            code, out, _ = run_cli(
                capsys, "aggregate", "--input", path, "--method", method
            )
            assert code == 0
            results[method] = json.loads(out)["results"]
            np.testing.assert_allclose(
                results[method]["weights"]["values"], [0.5, 0.3, 0.2], atol=1e-12
            )
        # AWGMM's own answer for a panel whose DMs all agree
        awgmm = results["awgmm"]
        assert awgmm["weights"] == results["gmm"]["weights"]
        assert (awgmm["dm_weights"], awgmm["iterations"], awgmm["converged"]) == ([1.0], 1, True)

    def test_not_converged_is_numeric_failure(self, capsys, example_csv):
        code, out, err = run_cli(
            capsys,
            "aggregate", "--input", example_csv, "--method", "awgmm",
            "--max-iter", "1", "--tol", "1e-30",
        )
        assert code == 3
        assert "converge" in err

    def test_text_format(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys,
            "aggregate", "--input", example_csv, "--method", "gmm",
            "--format", "text",
        )
        assert code == 0
        assert "weights:" in out and "c2=0.406" in out

    def test_many_criteria_few_dms(self, tmp_path, capsys):
        # every Welsch kernel value exp(-d_k / sigma^2) underflows here unless
        # the distances are shifted by their minimum
        rng = np.random.default_rng(0)
        values = rng.dirichlet(np.full(100, 5.0), size=5)
        lines = [",".join(f"c{i}" for i in range(100))]
        lines += [",".join(f"{v:.17g}" for v in row) for row in values]
        path = write_csv(tmp_path / "w.csv", "\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "aggregate", "--input", path, "--method", "awgmm")
        assert code == 0, err
        results = json.loads(out)["results"]
        assert np.all(np.isfinite(results["weights"]["values"]))
        assert sum(results["dm_weights"]) == pytest.approx(1.0, abs=1e-12)
        code, out, err = run_cli(capsys, "describe", "--input", path)
        assert code == 0, err
        awgmm = json.loads(out)["results"]["ad_arrays"]["awgmm"]
        assert np.all(np.isfinite(awgmm["xi"])) and np.all(np.isfinite(awgmm["tau"]))


class TestDescribeCommand:
    def test_three_arrays_emitted(self, capsys, example_csv):
        code, out, _ = run_cli(capsys, "describe", "--input", example_csv)
        assert code == 0
        arrays = json.loads(out)["results"]["ad_arrays"]
        assert set(arrays) == {"mean", "median", "awgmm"}
        combined = np.array(arrays["mean"]["combined"])
        assert combined[0][1] == pytest.approx(-0.4474, abs=1e-3)
        assert combined[1][0] == pytest.approx(0.3522, abs=1e-3)

    def test_identical_rows_zero_lower_triangle(self, tmp_path, capsys):
        rows = "c1,c2,c3\n" + "0.5,0.3,0.2\n" * 4
        path = write_csv(tmp_path / "w.csv", rows)
        code, out, _ = run_cli(capsys, "describe", "--input", path)
        assert code == 0
        arrays = json.loads(out)["results"]["ad_arrays"]
        for name in ("mean", "median", "awgmm"):
            tau = np.array(arrays[name]["tau"])
            np.testing.assert_allclose(tau, 0.0, atol=1e-12)

    def test_text_layout_mentions_orientation(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, "describe", "--input", example_csv, "--format", "text"
        )
        assert code == 0
        assert "averages above diagonal" in out

    def test_unconverged_awgmm_exits_3_as_aggregate_does(self, tmp_path, capsys):
        # AWGMM converges on this panel at iteration 502, past the default 500
        path = write_csv(tmp_path / "w.csv", "c1,c2,c3\n0.6903,0.1918,0.1179\n"
                         "0.6092,0.01309,0.3777\n0.2379,0.5797,0.1824\n")
        expected = (3, "", "error: AWGMM did not converge within 500 iterations\n")
        for argv in (["aggregate", "--method", "awgmm"], ["describe"]):
            assert run_cli(capsys, *argv, "--input", path) == expected

    def test_awgmm_options_come_from_the_config(self, example_csv):
        # describe builds its AWGMM knobs from the config it echoes, as
        # aggregate does: one iteration stops short of convergence
        config = RunConfig(command="describe", input=example_csv, max_iter=1)
        with pytest.raises(NumericError, match="within 1 iterations"):
            report_of(config)

    def test_text_cells_stay_apart(self, tmp_path, capsys):
        # log-ratios near -736 format wider than the column labels
        path = write_csv(tmp_path / "w.csv", csv_text([*SUBNORMAL_ROWS, [2e-320, 0.6, 0.4]]))
        code, out, _ = run_cli(capsys, "describe", "--input", path, "--format", "text")
        assert code == 0
        labels = ["c1", "c2", "c3"]
        # a header line starts with blanks; a row line with its label
        rows = [line.split() for line in out.splitlines() if line[:2] in labels]
        assert len(rows) == 9  # three rows in each of the three tables
        for tokens in rows:
            assert len(tokens) == len(labels) + 1
            assert all(math.isfinite(float(cell)) for cell in tokens[1:])

    def test_random_file_matches_module_oracles(self, tmp_path, capsys):
        from groupmcdm import PriorityMatrix, average_deviation_array

        rng = np.random.default_rng(61)
        values = rng.dirichlet(np.ones(4), size=7)
        lines = ["a,b,c,d"] + [",".join(f"{v:.17g}" for v in row) for row in values]
        path = write_csv(tmp_path / "w.csv", "\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "describe", "--input", path)
        assert code == 0
        arrays = json.loads(out)["results"]["ad_arrays"]
        W = PriorityMatrix(values)
        for estimator in ("mean", "median", "awgmm"):
            ad = average_deviation_array(W, estimator)
            np.testing.assert_allclose(arrays[estimator]["xi"], ad.xi, atol=1e-12)
            np.testing.assert_allclose(arrays[estimator]["tau"], ad.tau, atol=1e-12)


class TestRankCommand:
    def test_dot_output_two_criteria(self, capsys, two_criteria_csv):
        code, out, _ = run_cli(
            capsys,
            "rank", "--input", two_criteria_csv, "--seed", "11", "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph credal {")
        assert '"c2" -> "c1"' in out
        label = float(out.split('label="')[1].split('"')[0])
        assert label > 0.95

    def test_uniform_two_criteria_dashed_arc(self, tmp_path, capsys):
        path = write_csv(tmp_path / "w.csv", "x,y\n0.5,0.5\n0.5,0.5\n")
        code, out, _ = run_cli(
            capsys, "rank", "--input", path, "--seed", "3", "--format", "dot"
        )
        assert code == 0
        assert 'label="0.50"' in out
        assert "style=dashed" in out

    def test_dot_labels_escaped(self, tmp_path, capsys):
        path = write_csv(tmp_path / "w.csv", 'x"y,b\\c\n0.4,0.6\n0.3,0.7\n')
        code, out, _ = run_cli(
            capsys, "rank", "--input", path, "--test", "sign", "--format", "dot"
        )
        assert code == 0
        assert '  "x\\"y";\n' in out
        assert '  "b\\\\c";\n' in out
        assert '"b\\\\c" -> "x\\"y"' in out

    def test_seed_required_for_bayes(self, capsys, two_criteria_csv):
        code, _, err = run_cli(capsys, "rank", "--input", two_criteria_csv)
        assert code == 2
        assert "--seed" in err

    def test_sign_test_needs_no_seed(self, capsys, two_criteria_csv):
        code, out, _ = run_cli(
            capsys, "rank", "--input", two_criteria_csv, "--test", "sign"
        )
        assert code == 0
        orderings = json.loads(out)["results"]["orderings"]
        assert orderings[0]["relation"] == "<"
        assert orderings[0]["p_greater"] == pytest.approx(697 / 65536, abs=1e-12)

    @pytest.mark.parametrize("fmt", ["json", "text", "dot"])
    def test_output_does_not_depend_on_the_draw_chunk(self, monkeypatch, capsys, example_csv, fmt):
        argv = ["rank", "--input", example_csv, "--seed", "77", "--mc-samples", "2000",
                "--format", fmt]
        assert main(list(argv)) == 0
        default = capsys.readouterr().out
        monkeypatch.setattr(credal, "_DRAW_BLOCK", 1)  # one draw per chunk
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == default

    def test_json_does_not_depend_on_blas_threads(self, tmp_path):
        # 30 DMs x 40 criteria: 780 pairs in several sign tiles of the matrix
        # form, whose products are large enough for OpenBLAS to use threads
        values = np.random.default_rng(43).dirichlet(np.ones(40), size=30)
        path = write_csv(tmp_path / "w.csv", csv_text(values.tolist()))
        argv = [sys.executable, "-m", "groupmcdm.cli", "rank", "--input", path,
                "--seed", "3", "--mc-samples", "1000"]
        assert 40 * 39 // 2 > 2 * credal._PAIR_TILE  # three tiles or more
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            outputs.add(subprocess.run(argv, capture_output=True, env=env, check=True).stdout)
        assert len(outputs) == 1

    def test_json_lists_all_pairs(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, "rank", "--input", example_csv, "--seed", "5",
            "--mc-samples", "1000",
        )
        assert code == 0
        orderings = json.loads(out)["results"]["orderings"]
        assert len(orderings) == 6


class TestClusterCommand:
    def test_centroid_sums_reported(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys,
            "cluster", "--input", example_csv, "--clusters", "2", "--seed", "4",
            "--with-baseline",
        )
        assert code == 0
        results = json.loads(out)["results"]
        np.testing.assert_allclose(
            results["compositional"]["centroid_sums"], 1.0, atol=1e-12
        )
        assert results["baseline"]["fallacious_baseline"] is True

    def test_own_cluster_zero_inertia(self, capsys, example_csv):
        code, out, _ = run_cli(
            capsys, "cluster", "--input", example_csv, "--clusters", "5",
            "--seed", "4",
        )
        assert code == 0
        assert json.loads(out)["results"]["compositional"]["inertia"] == 0.0

    def test_seed_required(self, capsys, example_csv):
        code, _, err = run_cli(
            capsys, "cluster", "--input", example_csv, "--clusters", "2"
        )
        assert code == 2

    def test_two_blob_file_fully_separated(self, tmp_path, capsys):
        from test_clustering import two_blobs

        rng = np.random.default_rng(62)
        W, truth, _ = two_blobs(rng, per_blob=10)
        lines = ["a,b,c,d"] + [
            ",".join(f"{v:.17g}" for v in row) for row in W.values
        ]
        path = write_csv(tmp_path / "blobs.csv", "\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, "cluster", "--input", path, "--clusters", "2", "--seed", "3"
        )
        assert code == 0
        assignments = np.array(json.loads(out)["results"]["compositional"]["assignments"])
        assert len(set(assignments[truth == 0])) == 1
        assert len(set(assignments[truth == 1])) == 1
        assert set(assignments) == {0, 1}

    def test_too_many_clusters_is_input_error(self, capsys, example_csv):
        code, _, err = run_cli(
            capsys, "cluster", "--input", example_csv, "--clusters", "12",
            "--seed", "4",
        )
        assert code == 2

    def test_reseeds_noted_once_per_model(self, tmp_path, capsys):
        path = write_csv(
            tmp_path / "w.csv", "a,b,c\n" + "0.7,0.2,0.1\n" * 3 + "0.1,0.2,0.7\n"
        )
        argv = ["cluster", "--input", path, "--clusters", "3", "--seed", "1",
                "--with-baseline"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        report = json.loads(out)
        results = report["results"]
        assert [results[key]["reseeded_clusters"] for key in ("compositional", "baseline")] == [2, 2]
        assert [w for w in report["warnings"] if "re-seeded" in w] == [
            "compositional K-means re-seeded 2 empty cluster(s)",
            "baseline K-means re-seeded 2 empty cluster(s)",
        ]
        code, out, err = run_cli(capsys, *argv, "--format", "text")
        assert code == 0 and err == ""
        assert out.count("re-seeded") == 2

    def test_iteration_and_restart_counts_validated(self, capsys, example_csv):
        for flag in ("--max-iter", "--restarts"):
            code, out, err = run_cli(
                capsys, "cluster", "--input", example_csv, "--clusters", "2",
                "--seed", "1", flag, "0",
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "must be at least 1" in err


class TestExitCodesAndDeterminism:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        for text, line in MALFORMED:
            path = write_csv(tmp_path / "w.csv", text)
            code, _, err = run_cli(capsys, "aggregate", "--input", path)
            assert code == 2
            assert f"error: line {line}:" in err

    def test_zero_policy_flag(self, tmp_path, capsys):
        path = write_csv(tmp_path / "w.csv", "a,b\n0,1\n0.4,0.6\n")
        code, _, err = run_cli(capsys, "aggregate", "--input", path)
        assert code == 2
        code, out, _ = run_cli(
            capsys,
            "aggregate", "--input", path, "--zero-policy", "replace:1e-5",
        )
        assert code == 0
        assert json.loads(out)["config"]["zero_eps"] == 1e-5

    def test_bad_zero_policy(self, tmp_path, capsys):
        path = write_csv(tmp_path / "w.csv", "a,b\n0.5,0.5\n")
        code, _, err = run_cli(
            capsys, "aggregate", "--input", path, "--zero-policy", "drop"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "option",
        [
            ["aggregate", "--deviant-threshold", "nan"],
            ["aggregate", "--deviant-threshold", "inf"],
            ["aggregate", "--deviant-threshold", "1.5"],
            ["aggregate", "--deviant-threshold", "-0.1"],
            ["aggregate", "--tol", "inf"],
            ["aggregate", "--zero-policy", "replace:inf"],
            ["rank", "--prior-weight", "inf"],
            ["rank", "--prior-a", "inf"],
            ["rank", "--prior-b", "nan"],
        ],
    )
    def test_non_finite_options_rejected(self, capsys, example_csv, option):
        command, *flags = option
        argv = [command, "--input", example_csv, "--seed", "1", *flags]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flags[0] in err

    @pytest.mark.parametrize(
        "rows, flags",
        [
            ("0.5,0.3,0.2\n", []),  # one DM: InsufficientSamples
            ("0.5,0.3,0.2\n0.2,0.3,0.5\n", ["--mc-samples", "999"]),
            ("0.5,0.3,0.2\n0.2,0.3,0.5\n", ["--prior-weight", "0"]),
            ("0.5,0.3,0.2\n0.2,0.3,0.5\n", ["--test", "t-test"]),
        ],
    )
    def test_invalid_rank_input_exits_2(self, tmp_path, capsys, rows, flags):
        path = write_csv(tmp_path / "w.csv", "a,b,c\n" + rows)
        try:
            code, out, err = run_cli(capsys, "rank", "--input", path, "--seed", "1", *flags)
        except SystemExit as exc:  # argparse rejects an unknown --test choice
            code, out, err = exc.code, "", capsys.readouterr().err
        assert code == 2
        assert out == ""
        assert "error: " in err

    @pytest.mark.parametrize("row, code", [("1e308,1e308,1", 0), ("1e-300,1e300,1", 2)])
    def test_rows_at_the_floating_point_limits(self, tmp_path, capsys, row, code):
        # a row whose sum overflows is still closed; one with a part that
        # underflows to zero is an input error naming the row
        path = write_csv(tmp_path / "w.csv", f"a,b,c\n0.2,0.3,0.5\n0.5,0.3,0.2\n{row}\n")
        for argv in (
            ["aggregate", "--method", "amm"],
            ["aggregate", "--method", "gmm"],
            ["aggregate", "--method", "awgmm"],
            ["describe"],
            ["rank", "--seed", "1", "--mc-samples", "1000"],
            ["rank", "--test", "sign"],
            ["cluster", "--clusters", "2", "--seed", "1", "--with-baseline"],
        ):
            got, out, err = run_cli(capsys, *argv, "--input", path)
            assert got == code, (argv, err)
            if code == 0:
                assert "NaN" not in out and "Infinity" not in out
                results = json.loads(out)["results"]
                if results.get("method") == "amm":
                    # the third DM counts, closed to (0.5, 0.5, 5e-309)
                    np.testing.assert_allclose(
                        results["weights"]["values"], [0.4, 1.1 / 3, 0.7 / 3], atol=1e-15
                    )
                if "compositional" in results:
                    assert len(results["compositional"]["assignments"]) == 3
            else:
                assert err.startswith("error: weight at row 3, column 1 underflows to 0")

    def test_rank_byte_identical(self, capsys, example_csv):
        argv = [
            "rank", "--input", example_csv, "--seed", "123",
            "--mc-samples", "2000",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_cluster_byte_identical(self, capsys, example_csv):
        argv = ["cluster", "--input", example_csv, "--clusters", "2", "--seed", "9"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["aggregate", "--method", "amm"],
        ["aggregate", "--method", "gmm"],
        ["aggregate", "--method", "awgmm"],
        ["describe"],
        ["rank", "--seed", "3", "--mc-samples", "1000"],
        ["rank", "--test", "sign"],
        ["cluster", "--clusters", "2", "--seed", "1"],
        ["cluster", "--clusters", "2", "--seed", "1", "--distance", "madc",
         "--with-baseline"],
    ],
)
def test_json_layout_matches_dataclass_dump(argv, example_csv):
    # the compact dump of the whole dataclass, on one line: the C encoder's layout
    args = _build_parser().parse_args([*argv, "--input", example_csv])
    report = report_of(_config_from_args(args))
    expected = json.dumps(dataclasses.asdict(report), sort_keys=True,
                          separators=(",", ":")) + "\n"
    out = report.to_json()
    assert out == expected
    assert out.endswith("\n") and out.count("\n") == 1


ZEROS = "a,b,c\n0,0.5,0.5\n0.2,0.3,0.5\n0.4,0.4,0.2\n"
EXAMPLE = (Path(__file__).resolve().parent.parent / "data" / "example_priorities.csv").read_text()


@pytest.mark.parametrize(
    "text, argv, code, expected",
    [
        (ZEROS, ["aggregate", "--zero-policy", "replace"], 0,
         ["replaced 1 zero weight(s) with 1e-06"]),
        (ZEROS, ["aggregate", "--zero-policy", "replace:abc"], 2,
         ["error: bad zero policy 'replace:abc'"]),
        (ZEROS, ["aggregate", "--zero-policy", "replace:0"], 2,
         ["error: zero replacement eps must be positive"]),
        (ZEROS, ["aggregate", "--zero-policy", "replace", "--seed", "-1"], 2,
         ["error: --seed must be non-negative"]),
        ("", ["aggregate"], 2, ["error: empty file"]),
        ("a\n1\n", ["aggregate"], 2,
         ["error: line 1: header must name at least two criteria"]),
        (EXAMPLE, ["aggregate", "--method", "awgmm", "--format", "text"], 0,
         ["\ndm_weights: DM1=0.256  DM2=0.263  DM3=0.000  DM4=0.233  DM5=0.249\n",
          "\niterations: 11\n", "\ndeviants: DM3\n"]),
        (EXAMPLE, ["cluster", "--clusters", "2", "--seed", "1", "--format", "text"], 0,
         ["\ncompositional K-means (aitchison), inertia 0.341369:\n",
          "\nassignments: 0 0 1 0 0\n"]),
    ],
    ids=["replace", "replace-not-a-number", "replace-zero", "negative-seed", "empty-file",
         "one-label", "awgmm-text", "cluster-text"],
)
def test_cli_branches(tmp_path, text, argv, code, expected):
    path = write_csv(tmp_path / "w.csv", text)
    got, out, err = run_in_process([*argv, "--input", path])
    assert got == code
    for part in expected:
        assert part in (out if code == 0 else err)
    assert (err if code == 0 else out) == ""


def _nan_in_xi(results):
    results["ad_arrays"]["mean"]["xi"][0][1] = math.nan


def _nan_in_combined(results):
    results["ad_arrays"]["mean"]["combined"][0][1] = math.nan


def _nan_in_ordering(results):
    results["orderings"][0].update(p_greater=math.nan, confidence=math.nan)


def test_non_finite_result_exits_3_with_nothing_on_stdout(monkeypatch, example_csv):
    # one rule for every format, checked before any renderer runs
    for argv, poison in (
        (["describe"], _nan_in_xi),
        (["describe", "--format", "text"], _nan_in_combined),
        (["rank", "--test", "sign", "--format", "dot"], _nan_in_ordering),
    ):
        command = COMMANDS[argv[0]]

        def with_nan(W, config, notes, command=command, poison=poison):
            results = command(W, config, notes)
            poison(results)
            return results

        monkeypatch.setitem(COMMANDS, argv[0], with_nan)
        code, out, err = run_in_process([*argv, "--input", example_csv])
        assert (code, out, err) == (3, "", "error: non-finite value in the report\n"), argv


def test_sign_test_priors_beyond_betainc_exit_3_naming_them(example_csv):
    # scipy's betainc is NaN with both beta parameters near 1e16
    argv = ["rank", "--test", "sign", "--prior-a", "1e16", "--prior-b", "1e16"]
    code, out, err = run_in_process([*argv, "--input", example_csv])
    assert (code, out) == (3, "")
    assert err == ("error: sign test posterior is not finite at beta priors"
                   " prior_a=1e+16, prior_b=1e+16\n")


ONE_DM = "a,b,c\n0.5,0.3,0.2\n"


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (ONE_DM, ["aggregate", "--method", "awgmm", "--max-iter", "0"],
         "max_iter must be at least 1"),
        (EXAMPLE, ["aggregate", "--method", "gmm", "--max-iter", "-3", "--tol", "-1"],
         "max_iter must be at least 1"),
        (EXAMPLE, ["rank", "--test", "sign", "--mc-samples", "-5"],
         "mc_samples must be at least 1000"),
        (EXAMPLE, ["rank", "--seed", "1", "--prior-a", "0"],
         "beta prior parameters must be positive"),
        (EXAMPLE, ["cluster", "--seed", "1", "--clusters", "0"], "need 1 to 5 clusters, got 0"),
        (EXAMPLE, ["cluster", "--seed", "1", "--clusters", "6"], "need 1 to 5 clusters, got 6"),
    ],
    ids=["one-dm-awgmm-max-iter-0", "gmm-unused-awgmm-knobs", "sign-unused-mc-samples",
         "bayes-unused-prior-a", "zero-clusters", "clusters-past-k"],
)
def test_option_out_of_range_exits_2(tmp_path, text, argv, message):
    path = write_csv(tmp_path / "w.csv", text)
    code, out, err = run_in_process([*argv, "--input", path])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "content",
    [b"caf\xe9,b\n0.5,0.5\n", b"a,b\n" + b"1" * 131_073 + b",0.5\n"],
    ids=["header-not-utf8", "field-past-csv-limit"],
)
def test_unreadable_csv_exits_2(tmp_path, content):
    path = tmp_path / "w.csv"
    path.write_bytes(content)
    with pytest.raises(ParseError):
        load_priorities(str(path))
    code, out, err = run_in_process(["aggregate", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse ")


def minimal_config(command, path):
    """The config of the shortest argv that runs ``command``."""
    needs = {"rank": ["--seed", "1"], "cluster": ["--clusters", "2", "--seed", "1"]}
    args = _build_parser().parse_args([command, "--input", path, *needs.get(command, [])])
    return _config_from_args(args)


@pytest.mark.parametrize(
    "command, given",
    [
        ("aggregate", {}),
        ("describe", {}),
        ("rank", {"seed": 1}),
        ("cluster", {"clusters": 2, "seed": 1, "max_iter": 300}),
    ],
)
def test_minimal_argv_takes_every_default_from_runconfig(example_csv, command, given):
    # cluster's --max-iter (Lloyd's cap) is the one default the parser holds
    assert minimal_config(command, example_csv) == RunConfig(command, example_csv, **given)


def test_runconfig_defaults_are_the_library_defaults(example_csv):
    config = RunConfig("aggregate", example_csv)
    awgmm = aggregation.AwgmmOptions()
    assert (config.max_iter, config.tol) == (awgmm.max_iter, awgmm.tol)
    ranking = inspect.signature(credal.credal_ranking).parameters
    for name in ("test", "mc_samples", "prior_weight", "prior_a", "prior_b"):
        assert getattr(config, name) == ranking[name].default, name
    cluster = minimal_config("cluster", example_csv)
    kmeans = inspect.signature(clustering.kmeans_compositional).parameters
    for name in ("distance", "restarts", "max_iter"):
        assert getattr(cluster, name) == kmeans[name].default, name


@pytest.mark.parametrize(
    "given, argv",
    [
        ({"command": "aggregate", "tol": math.nan}, ["aggregate", "--tol", "nan"]),
        ({"command": "rank", "prior_a": math.inf, "test": credal.SIGN_TEST},
         ["rank", "--prior-a", "inf", "--test", "sign"]),
        ({"command": "aggregate", "deviant_threshold": 2.0},
         ["aggregate", "--deviant-threshold", "2"]),
        ({"command": "aggregate", "seed": -1}, ["aggregate", "--seed", "-1"]),
        ({"command": "rank"}, ["rank"]),
        ({"command": "cluster"}, ["cluster", "--clusters", "2"]),
    ],
    ids=["nan-float", "inf-float", "threshold-range", "negative-seed", "rank-seed",
         "cluster-seed"],
)
def test_config_built_in_code_is_checked_as_argv_is(example_csv, given, argv):
    with pytest.raises(InputError) as built:
        RunConfig(input=example_csv, **given)
    code, out, err = run_in_process([*argv, "--input", example_csv])
    assert (code, out, err) == (2, "", f"error: {built.value}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["aggregate", "--method", "awgmm", "--max-iter", "700", "--tol", "1e-9"],
        ["aggregate", "--method", "amm"],
        ["describe"],
        ["rank", "--seed", "1", "--prior-weight", "0.5", "--mc-samples", "2000"],
        ["rank", "--test", "sign", "--prior-a", "2"],
        ["cluster", "--clusters", "2", "--seed", "1", "--distance", "madc", "--with-baseline",
         "--restarts", "4"],
        ["aggregate", "--zero-policy", "replace:1e-5"],
    ],
    ids=["awgmm", "amm", "describe", "bayes", "sign", "cluster", "zero-policy"],
)
def test_echoed_config_replays(capsys, example_csv, argv):
    # the config a JSON report echoes rebuilds the run that wrote it, byte for byte
    code, out, err = run_cli(capsys, *argv, "--input", example_csv)
    assert code == 0, err
    config = RunConfig(**json.loads(out)["config"])
    assert report_of(config).to_json() == out


def test_retired_sigma_denominator_is_a_usage_error(capsys, example_csv):
    # AWGMM's scale has one rule, sigma^2 = sum_k d_k / n^2
    with pytest.raises(SystemExit) as exc:
        main(["aggregate", "--input", example_csv, "--sigma-denominator", "80"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --sigma-denominator 80" in captured.err


@pytest.mark.parametrize("command", [[], ["aggregate"], ["describe"], ["rank"], ["cluster"]])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: groupmcdm", *command]))


def test_import_does_not_load_scipy(example_csv):
    # scipy is imported only by the sign test; loading it costs more than the
    # rest of a CLI run. Every other subcommand runs before the modules are listed.
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = [
        ["aggregate", "--method", "awgmm"],
        ["describe"],
        ["rank", "--seed", "1", "--mc-samples", "1000"],
        ["cluster", "--clusters", "2", "--seed", "1"],
    ]
    code = (
        "import contextlib, io, sys, groupmcdm\n"
        "from groupmcdm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main([*argv, '--input', {example_csv!r}]) for argv in {runs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    assert result.stdout.strip() == "[0, 0, 0, 0] []"


@pytest.mark.parametrize("argv, runs, unloaded", [
    (["rank", "--seed", "1", "--mc-samples", "1000"], "credal",
     {"aggregation", "clustering", "dispersion"}),
    (["aggregate", "--method", "awgmm"], "aggregation", {"credal", "clustering"}),
    (["aggregate", "--method", "amm"], "aggregation", {"credal", "clustering"}),
    (["aggregate", "--method", "gmm"], "aggregation", {"credal", "clustering"}),
    (["describe"], "dispersion", {"credal", "clustering"}),
    (["cluster", "--clusters", "2", "--seed", "1", "--distance", "madc", "--with-baseline"],
     "clustering", {"aggregation", "credal", "dispersion"}),
])
def test_command_loads_only_its_modules(example_csv, argv, runs, unloaded):
    # the package and the parser import no estimator module, each command its own:
    # every start compiles what it imports when no bytecode cache is written.
    # None loads numpy.ma (about 10 ms), which np.median's NaN check imports;
    # only `rank --test sign` does, through scipy.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import contextlib, io, json, sys, groupmcdm\n"
        "from groupmcdm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main([*{argv!r}, '--input', {example_csv!r}])\n"
        "print(json.dumps([code, [m.split('.')[1] for m in sys.modules if m.startswith('groupmcdm.')],\n"
        "                  [m for m in sys.modules if m.startswith('numpy.')]]))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True)
    code, loaded, numpy_loaded = json.loads(result.stdout)
    assert code == 0 and runs in loaded
    assert unloaded.isdisjoint(loaded), loaded
    assert "numpy.ma" not in numpy_loaded


def test_option_names_are_the_library_names():
    # the CLI keeps copies, so that parsing argv imports no estimator module
    assert cli._METHODS == (aggregation.AMM, aggregation.GMM, aggregation.AWGMM)
    assert cli._TESTS == (credal.BAYES_WILCOXON, credal.SIGN_TEST)
    assert cli._DISTANCES == (clustering.AITCHISON, clustering.MADC)
    assert (RunConfig.method, RunConfig.test, RunConfig.distance) == (
        aggregation.GMM, credal.BAYES_WILCOXON, clustering.AITCHISON)


def test_package_names_load_on_first_use():
    for name in groupmcdm.__all__:
        assert getattr(groupmcdm, name) is not None, name
    assert groupmcdm.credal_ranking is credal.credal_ranking
    assert groupmcdm.credal is credal
    with pytest.raises(AttributeError):
        groupmcdm.not_a_name


# two DMs whose first weight is subnormal: every readout must shift before exp
SUBNORMAL_ROWS = [[1e-320, 0.5, 0.5], [1e-320, 0.3, 0.7]]
SUBCOMMANDS = [
    ["aggregate", "--method", "amm"],
    ["aggregate", "--method", "gmm"],
    ["aggregate", "--method", "awgmm"],
    ["describe"],
    ["rank", "--seed", "1", "--mc-samples", "1000"],
    ["rank", "--test", "sign"],
    ["cluster", "--clusters", "2", "--seed", "1", "--with-baseline"],
    ["cluster", "--clusters", "2", "--seed", "1", "--distance", "madc"],
]


def csv_text(rows):
    lines = [",".join(f"c{i + 1}" for i in range(len(rows[0])))]
    lines += [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", SUBCOMMANDS)
def test_subnormal_weights_accepted_by_every_subcommand(argv, tmp_path):
    path = write_csv(tmp_path / "subnormal.csv", csv_text(SUBNORMAL_ROWS))
    code, out, err = run_in_process([*argv, "--input", path])
    assert (code, err) == (0, "")
    if argv[0] == "aggregate":
        weights = json.loads(out)["results"]["weights"]["values"]
        assert 0.0 < weights[0] < 1e-300 and sum(weights) == pytest.approx(1.0)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


FORMATS = {"aggregate": ("json", "text"), "describe": ("json", "text"),
           "rank": ("json", "text", "dot"), "cluster": ("json", "text")}
# few distinct values per panel, so ties and duplicate rows are common
WEIGHTS = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-320, 1e-6, 1.0, 1e300]),
    st.floats(min_value=1e-320, max_value=1e300, allow_subnormal=True),
)
PRIORS = st.sampled_from(["0.5", "1", "3"])


@st.composite
def cli_cases(draw):
    n = draw(st.integers(2, 8))
    pool = draw(st.lists(WEIGHTS, min_size=1, max_size=6))
    cells = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    rows = draw(st.lists(cells, min_size=1, max_size=6))
    command = draw(st.sampled_from(sorted(FORMATS)))
    argv = [command, "--format", draw(st.sampled_from(FORMATS[command])),
            "--zero-policy", draw(st.sampled_from(["reject", "replace:1e-6"]))]
    if command == "aggregate":
        argv += ["--method", draw(st.sampled_from(["amm", "gmm", "awgmm"]))]
    elif command == "rank" and draw(st.booleans()):
        argv += ["--test", "sign", "--prior-a", draw(PRIORS), "--prior-b", draw(PRIORS)]
    elif command == "rank":
        argv += ["--seed", "0", "--mc-samples", "1000"]
    elif command == "cluster":
        argv += ["--clusters", str(draw(st.integers(1, 3))), "--seed", "0",
                 "--restarts", "2", "--distance", draw(st.sampled_from(["aitchison", "madc"]))]
        if draw(st.booleans()):
            argv.append("--with-baseline")
    return rows, argv


@given(case=cli_cases(), exits=st.just((0, 2, 3)))
@example(case=(SUBNORMAL_ROWS, ["aggregate", "--method", "gmm"]), exits=(0,))
@example(case=(SUBNORMAL_ROWS, ["aggregate", "--method", "awgmm"]), exits=(0,))
@example(case=(SUBNORMAL_ROWS, ["describe"]), exits=(0,))
@settings(max_examples=120, deadline=None)
def test_cli_contract(case, exits, tmp_path_factory):
    # a report on stdout and nothing on stderr, or an error line and exit 2 or 3
    rows, argv = case
    path = write_csv(tmp_path_factory.mktemp("contract") / "panel.csv", csv_text(rows))
    code, out, err = run_in_process([*argv, "--input", path])
    assert code in exits
    if code != 0:
        assert err.startswith("error:") and out == ""
    elif "dot" in argv:
        assert out.startswith("digraph credal {") and err == ""
        assert not re.search(r"\b(nan|inf)\b", out)
    elif "text" in argv:
        assert out.startswith(f"command: {argv[0]}\n") and err == ""
        assert not re.search(r"\b(nan|inf)\b", out)
    else:
        json.loads(out, parse_constant=_reject_constant)
        assert err == ""
