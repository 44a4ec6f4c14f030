import contextlib
import csv
import hashlib
import io
import itertools
import json
import re
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grasspack.cli
from grasspack.cli import _write_csv, main
from grasspack.codebooks import load_codebook, proposed_codebook_4_2, save_codebook
from grasspack.grassmann import Codebook
from grasspack.wavesim import WaveformConfig, ccdf, constellation_samples, papr_experiment, row_sparse_precoder


def run(args):
    return main([str(a) for a in args])


def reference_csv(path, header, rows):
    """The CSV of ``header`` and ``rows`` through ``csv.writer``, each float
    cell as ``format(v, ".17g")`` and every other cell as ``str``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])


def test_write_csv_matches_csv_writer(tmp_path):
    rows = [
        [1, np.int64(-7), 2.5, np.float64(0.1), 1.0 / 3.0],
        [float("inf"), -float("inf"), float("nan"), -0.0, 5e-324, 1.7976931348623157e308],
        (3, np.float64(-2e-300)),
        [4, "", 0.5],
        ['dir/a,b"c.json', 22, 1.0, 1, 2],
        [""],
        [True, np.float32(0.1)],
        [],
    ]
    header = ["rank", "x,y", 'say "z"']
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _write_csv(got, header, iter(rows))
    reference_csv(want, header, rows)
    assert got.read_bytes() == want.read_bytes()


# SHA-256 of the CSVs the commands below write, as csv.writer wrote them with
# one format(v, ".17g") per float cell
CSV_SHA256 = {
    "rate.csv": "72ede3d3dd61f818a12db286589f131b5e4ddb2d08d70fc6e41c705ba1694553",
    "papr.csv": "2f7ffecb3b6d7ae4bff5ded78a0ec3881fcecbe3d77ab338471553b14687df12",
    "scatter.csv": "f25b5a53ce9a8c65461bdbd48de3cd3f9069313869af2a0d5c92b39d35535d6f",
    "mcd.csv": "2a90478b21ec6b5b5214262a0a1376da343cd7c5a19b547a36e8947383635099",
    "audit.csv": "a7afbf0a23309f744740b0854449f31f87cde7fb65c5b76502897933afc42ce1",
}

# rate.csv's rate, difference and standard error columns as the complex 2 x 2
# eigvalsh wrote them; the real symmetric route moves them by rounding only
RATE_CSV_COMPLEX_EIGVALSH = [
    [5.1782023190222732, 5.1870453714384421, 0.0088430524161705829, 0.0066287412362975237],
    [8.1291576212621592, 8.1394186126243877, 0.010260991362227474, 0.0075463564006371048],
    [11.321732175395308, 11.332553843783062, 0.010821668387754831, 0.007911370848678545],
]


def test_csv_outputs_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["design", "--method", "prop42", "--out", "p.json"]) == 0
    assert run(["design", "--method", "nr42", "--out", "n.json"]) == 0
    (tmp_path / 'a,b"c.json').write_bytes((tmp_path / "p.json").read_bytes())
    commands = [
        ["rate", "--codebooks", "n.json", "p.json", "-N", 8, "--snr-db", "0:10:5", "--trials", 60, "--seed", 3,
         "--out", "rate.csv"],
        ["papr", "--codebooks", "p.json", "--row-sparse", "4,2,1", "--subcarriers", 16, "--fft", 32,
         "--oversample", 2, "--trials", 20, "--seed", 4, "--thresholds", "3:9:1", "--scatter", "scatter.csv",
         "--scatter-frames", 2, "--out", "papr.csv"],
        # a path that csv quoting must escape, and blank cells where T != 2M
        ["mcd", 'a,b"c.json', "n.json", "--out", "mcd.csv"],
        ["audit", "-T", 6, "-M", 2, "--sweep", "4,8", "--out", "audit.csv"],
    ]
    for argv in commands:
        assert run(argv) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in CSV_SHA256}
    assert got == CSV_SHA256
    with open(tmp_path / "rate.csv", newline="", encoding="utf-8") as fh:
        rows = [[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]]
    np.testing.assert_allclose(rows, RATE_CSV_COMPLEX_EIGVALSH, rtol=1e-13, atol=0)


class TestDesign:
    def test_prop42_matches_embedded_constant(self, tmp_path, capsys):
        out = tmp_path / "prop.json"
        assert run(["design", "--method", "prop42", "--out", out]) == 0
        assert "mcd=1.000000000000" in capsys.readouterr().out
        loaded = load_codebook(out)
        assert np.array_equal(loaded.stack(), proposed_codebook_4_2().stack())

    def test_design_file_equals_direct_save(self, tmp_path):
        out = tmp_path / "prop.json"
        run(["design", "--method", "prop42", "--out", out])
        direct = tmp_path / "direct.json"
        save_codebook(proposed_codebook_4_2(), direct)
        assert out.read_bytes() == direct.read_bytes()

    def test_sparse2m_quarter_grid_mcd_one(self, tmp_path, capsys):
        out = tmp_path / "sp.json"
        assert run(
            ["design", "--method", "sparse2m", "-M", 2, "--size", 22, "--grid", "quarter", "--out", out]
        ) == 0
        assert "mcd=1.000000000000" in capsys.readouterr().out

    def test_size_zero_usage_error(self, tmp_path, capsys):
        code = run(["design", "--method", "sparse2m", "-M", 2, "--size", 0, "--out", tmp_path / "x.json"])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_indices_subset(self, tmp_path):
        out = tmp_path / "nr8.json"
        run(["design", "--method", "nr42", "--indices", "15-22", "--out", out])
        book = load_codebook(out)
        assert len(book) == 8
        nr_full = tmp_path / "nr.json"
        run(["design", "--method", "nr42", "--out", nr_full])
        full = load_codebook(nr_full)
        assert np.array_equal(book[0], full[14])

    @pytest.mark.parametrize("indices", ["0-2", "22-23", "3-1"])
    def test_indices_out_of_range_usage_error(self, tmp_path, capsys, indices):
        out = tmp_path / "nr.json"
        assert run(["design", "--method", "nr42", "--indices", indices, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_manifest_written(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "e.json"
        run(["design", "--method", "expmap", "-T", 4, "-M", 2, "--size", 4, "--out", out])
        manifest = json.loads((tmp_path / "e.json.manifest.json").read_text())
        assert manifest["command"] == "design"
        assert manifest["outputs"] == [str(out)]
        assert manifest["seed"] == 0
        assert manifest["parameters"]["size"] == 4
        assert manifest["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert manifest["thread_env"] == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None}

    def test_manifest_wall_time_ignores_clock_steps(self, tmp_path, monkeypatch):
        # a wall clock stepped back an hour at every reading, as an NTP correction might
        wall, steps = time.time, itertools.count()
        monkeypatch.setattr(time, "time", lambda: wall() - 3600.0 * next(steps))
        out = tmp_path / "e.json"
        assert run(["design", "--method", "expmap", "-T", 4, "-M", 2, "--size", 4, "--out", out]) == 0
        assert json.loads((tmp_path / "e.json.manifest.json").read_text())["wall_time_s"] >= 0

    def test_manifest_checksums_match_outputs(self, tmp_path):
        out, scatter = tmp_path / "p.csv", tmp_path / "s.csv"
        assert run(
            ["papr", "--row-sparse", "4,2,1", "--thetas", "0.5,1", "--waveform", "ofdm", "--subcarriers", 12,
             "--fft", 16, "--trials", 3, "--scatter", scatter, "--scatter-frames", 2, "--out", out]
        ) == 0
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["outputs_sha256"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, scatter)
        }


class TestMcd:
    def test_csv_row_per_file(self, tmp_path):
        prop, nr = tmp_path / "p.json", tmp_path / "n.json"
        run(["design", "--method", "prop42", "--out", prop])
        run(["design", "--method", "nr42", "--out", nr])
        out = tmp_path / "mcd.csv"
        assert run(["mcd", prop, nr, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "file,size,mcd,argmin_i,argmin_j"
        assert lines[1].endswith(",22,1,1,2")
        assert lines[2].endswith(",22,0,15,16")

    def test_stdout_matches_out_file(self, tmp_path, monkeypatch, capfdbinary):
        # a path that csv quoting must escape prints as --out writes it
        monkeypatch.chdir(tmp_path)
        run(["design", "--method", "prop42", "--out", 'a,b"c.json'])
        run(["design", "--method", "nr42", "--out", "n.json"])
        capfdbinary.readouterr()
        assert run(["mcd", 'a,b"c.json', "n.json"]) == 0
        printed = capfdbinary.readouterr().out
        assert run(["mcd", 'a,b"c.json', "n.json", "--out", "mcd.csv"]) == 0
        assert printed == (tmp_path / "mcd.csv").read_bytes()
        assert printed.splitlines()[1] == b'"a,b""c.json",22,1,1,2'

    def test_single_codeword_file_errors(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        run(["design", "--method", "nr42", "--indices", "1", "--out", one])
        assert run(["mcd", one]) != 0

    def test_missing_file_errors(self, tmp_path):
        assert run(["mcd", tmp_path / "nope.json"]) != 0


class TestRate:
    def test_identical_codebooks_zero_diff(self, tmp_path):
        prop, copy = tmp_path / "p.json", tmp_path / "q.json"
        run(["design", "--method", "prop42", "--out", prop])
        copy.write_bytes(prop.read_bytes())
        out = tmp_path / "rate.csv"
        assert run(
            ["rate", "--codebooks", prop, copy, "-N", 8, "--snr-db", "10:10:1",
             "--trials", 50, "--seed", 1, "--out", out]
        ) == 0
        header, row = out.read_text().splitlines()
        assert header.startswith("snr_db,rate_p,rate_q,diff_q_vs_p")
        assert row.split(",")[3] == "0"

    def test_rerun_byte_identical(self, tmp_path):
        prop, nr = tmp_path / "p.json", tmp_path / "n.json"
        run(["design", "--method", "prop42", "--out", prop])
        run(["design", "--method", "nr42", "--out", nr])
        o1, o2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = ["rate", "--codebooks", nr, prop, "-N", 8, "--snr-db", "0:10:5",
                "--trials", 60, "--seed", 3]
        run(args + ["--out", o1])
        run(args + ["--out", o2])
        assert o1.read_bytes() == o2.read_bytes()

    def test_zero_trials_usage_error(self, tmp_path, capsys):
        prop = tmp_path / "p.json"
        run(["design", "--method", "prop42", "--out", prop])
        assert run(["rate", "--codebooks", prop, "--trials", 0, "--out", tmp_path / "r.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestGainCdf:
    def test_duplicate_codebook_identical_columns(self, tmp_path):
        prop, copy = tmp_path / "p.json", tmp_path / "q.json"
        run(["design", "--method", "prop42", "--out", prop])
        copy.write_bytes(prop.read_bytes())
        out = tmp_path / "gain.csv"
        assert run(
            ["gain-cdf", "--codebooks", prop, copy, "-N", 4, "--k-factors", "0,inf",
             "--trials", 40, "--seed", 2, "--out", out]
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for row in rows:
            assert row[1] == row[2] and row[3] == row[4]

    def test_k_tags_are_shortest_round_trip_text(self, tmp_path):
        prop = tmp_path / "p.json"
        run(["design", "--method", "prop42", "--out", prop])
        out = tmp_path / "gain.csv"
        assert run(
            ["gain-cdf", "--codebooks", prop, "-N", 2, "--k-factors", "0.1,2.5,1,inf",
             "--trials", 5, "--out", out]
        ) == 0
        header = out.read_text().splitlines()[0]
        assert header == "rank,gain_p_K0p1,gain_p_K2p5,gain_p_K1,gain_p_Kinf"
        # -0 is the factor 0 and is named so
        assert run(["gain-cdf", "--codebooks", prop, "-N", 2, "--k-factors=-0,inf", "--trials", 5, "--out", out]) == 0
        assert out.read_text().splitlines()[0] == "rank,gain_p_K0,gain_p_Kinf"

    def test_zero_trials_usage_error(self, tmp_path, capsys):
        prop = tmp_path / "p.json"
        run(["design", "--method", "prop42", "--out", prop])
        assert run(["gain-cdf", "--codebooks", prop, "--trials", 0, "--out", tmp_path / "g.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_mixed_antenna_counts_usage_error(self, tmp_path, capsys):
        prop, sp = tmp_path / "p.json", tmp_path / "s.json"
        run(["design", "--method", "prop42", "--out", prop])
        run(["design", "--method", "sparse2m", "-M", 3, "--size", 5, "--grid", "quarter", "--out", sp])
        capsys.readouterr()
        assert run(["gain-cdf", "--codebooks", prop, sp, "--trials", 10, "--out", tmp_path / "g.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestPapr:
    def test_row_sparse_sweep_and_scatter(self, tmp_path):
        out = tmp_path / "papr.csv"
        scatter = tmp_path / "scatter.csv"
        assert run(
            ["papr", "--row-sparse", "8,4,1", "8,4,4", "--thetas", "1.91,-2.21,-1.71,0.636",
             "--waveform", "dft-s-ofdm", "--subcarriers", 128, "--fft", 128,
             "--oversample", 4, "--trials", 30, "--thresholds", "4:10:1",
             "--scatter", scatter, "--scatter-frames", 2, "--out", out, "--seed", 4]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold_db,ccdf_rows_T8M4l1_dftsofdm,ccdf_rows_T8M4l4_dftsofdm"
        assert len(lines) == 8
        scatter_lines = scatter.read_text().splitlines()
        assert scatter_lines[0] == "re,im"
        assert len(scatter_lines) == 1 + 2 * 128

    def test_codebook_scheme_scatter(self, tmp_path):
        # a codebook first scheme once ended the scatter dump in a TypeError
        prop = tmp_path / "p.json"
        run(["design", "--method", "prop42", "--out", prop])
        out, scatter = tmp_path / "papr.csv", tmp_path / "scatter.csv"
        assert run(
            ["papr", "--codebooks", prop, "--waveform", "ofdm", "--subcarriers", 12, "--fft", 16,
             "--trials", 3, "--scatter", scatter, "--scatter-frames", 2, "--out", out, "--seed", 6]
        ) == 0
        cfg = WaveformConfig(n_used=12, n_fft=16, waveform="ofdm")
        pts = constellation_samples(load_codebook(prop), cfg, 2, seed=6)
        lines = scatter.read_text().splitlines()
        assert lines[0] == "re,im" and len(lines) == 1 + 2 * 16
        np.testing.assert_array_equal([complex(*map(float, line.split(","))) for line in lines[1:]], pts)

    @pytest.mark.parametrize("thetas", ["nan", "0.5,inf"])
    def test_non_finite_thetas_usage_error(self, tmp_path, capsys, thetas):
        out = tmp_path / "y.csv"
        assert run(["papr", "--row-sparse", "4,2,1", "--thetas", thetas, "--trials", 2, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: thetas must be finite") and "Traceback" not in err
        assert not out.exists()

    def test_non_finite_thresholds_rejected_before_any_frame(self, tmp_path, capsys, monkeypatch):
        def no_frames(*args, **kwargs):
            raise AssertionError("papr_experiment ran")

        monkeypatch.setattr(grasspack.cli, "papr_experiment", no_frames)
        out = tmp_path / "y.csv"
        assert run(["papr", "--row-sparse", "4,2,1", "--thresholds", "2,nan", "--trials", 2, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: PAPR thresholds must be finite, got [2.0, nan]")
        assert not out.exists()

    def test_antenna_mean_columns_match_the_library(self, tmp_path):
        out = tmp_path / "papr.csv"
        assert run(
            ["papr", "--row-sparse", "4,2,1", "4,2,2", "--antenna-mean", "--subcarriers", 12, "--fft", 16,
             "--oversample", 2, "--trials", 25, "--thresholds", "0:6:0.5", "--seed", 8, "--out", out]
        ) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        columns = np.array(rows, dtype=float).T
        thresholds = np.arange(13) * 0.5
        np.testing.assert_array_equal(columns[0], thresholds)
        sources = [row_sparse_precoder(4, 2, ell, seed=8) for ell in (1, 2)]
        want = []
        for waveform in ("ofdm", "dft-s-ofdm"):
            cfg = WaveformConfig(12, 16, 2, waveform)
            for ell, samples in zip((1, 2), papr_experiment(sources, cfg, 25, 8, antenna_mean=True)):
                assert samples.size == 25  # one average per frame, not one sample per antenna
                want.append((f"ccdf_rows_T4M2l{ell}_{waveform.replace('-', '')}", ccdf(samples, thresholds)))
        assert header[1:] == [name for name, _ in want]
        for got, (_, expected) in zip(columns[1:], want):
            np.testing.assert_array_equal(got, expected)

    def test_requires_some_scheme(self, tmp_path, capsys):
        assert run(["papr", "--out", tmp_path / "x.csv"]) != 0

    def test_ccdf_columns_nonincreasing(self, tmp_path):
        out = tmp_path / "papr.csv"
        run(
            ["papr", "--row-sparse", "4,2,2", "--waveform", "ofdm", "--subcarriers", 64,
             "--fft", 64, "--oversample", 2, "--trials", 40, "--thresholds", "2:12:0.5",
             "--out", out, "--seed", 5]
        )
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        probs = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(probs, probs[1:]))


@pytest.mark.parametrize(
    "argv",
    [
        ["gain-cdf", "--k-factors", "abc"],
        ["gain-cdf", "-N", "-1"],
        ["gain-cdf", "-N", "0"],
        ["rate", "-N", "0"],
        ["rate", "--snr-db", "0:10:0"],
        ["rate", "--snr-db", "10:0:1"],
        ["rate", "--snr-db", "a:b:c"],
        ["rate", "--snr-db", "nan,inf"],
        ["rate", "--snr-db", "4000"],
        ["design", "--method", "nr42", "--indices", "x"],
        ["design", "--method", "sparse2m", "-M", "2", "--size", "4", "--grid", "x"],
        ["papr", "--row-sparse", "4,2"],
        ["papr", "--row-sparse", "4,2,1", "--thetas", "a,b"],
        ["papr", "--row-sparse", "0,2,1"],
        ["papr", "--row-sparse=-1,2,1"],
        # flags that once wrote a different book: a T = 4 book, and a dense book off the grid
        ["design", "--method", "sparse2m", "-T", "7", "-M", "2", "--size", "8"],
        ["design", "--method", "manopt", "-T", "4", "-M", "2", "--size", "4", "--grid", "quarter"],
        ["design", "--method", "sparse2m", "-M", "2", "--size", "4", "--grid", "nan"],
        ["audit", "-T", "4", "-M", "2", "--sweep", "nan"],
        ["audit", "-T", "4", "-M", "2", "--sweep", "inf"],
        ["audit", "-T", "4", "-M", "2", "--sweep", "1.5,2"],
        ["audit", "-T", "0", "-M", "0"],
        ["audit", "-T", "4", "-M", "2", "--size", "-1"],
        ["audit", "-T", "2", "-M", "3"],
        ["mcd", "DIR"],
        ["design", "--method", "nr42", "--out", "DIR"],
        ["design", "--method", "sparse2m", "-M", "2"],
        ["design", "--method", "sparse-general", "-T", "4", "-M", "2", "--size", "4"],
        ["design", "--method", "manopt", "-T", "4", "--size", "4"],
        ["design", "--method", "expmap", "-M", "2", "--size", "4"],
    ],
    ids=" ".join,
)
def test_bad_argument_exits_2_without_traceback(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    argv = [tmp_path if a == "DIR" else a for a in argv]
    if argv[0] in ("rate", "gain-cdf", "papr"):
        prop = tmp_path / "p.json"
        run(["design", "--method", "prop42", "--out", prop])
        argv = argv + ["--codebooks", prop, "--trials", 5]
    if "--out" not in argv:
        argv = argv + ["--out", out]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


# two inputs that give one scheme name would write two CSV columns of that name
@pytest.mark.parametrize(
    "argv, inputs",
    [
        (["rate", "--codebooks", "d1/b.json", "d2/b.json"], ("d1/b.json", "d2/b.json")),
        (["gain-cdf", "--codebooks", "d1/b.json", "d2/b.json"], ("d1/b.json", "d2/b.json")),
        # Rician factors with one column tag
        (["gain-cdf", "--codebooks", "a-b.json", "--k-factors", "0,0"], ("0", "0")),
        (["gain-cdf", "--codebooks", "a-b.json", "--k-factors", "1,1.0"], ("1", "1.0")),
        (["gain-cdf", "--codebooks", "a-b.json", "--k-factors=-0,0"], ("-0", "0")),
        (["rate", "--codebooks", "a-b.json", "a_b.json"], ("a-b.json", "a_b.json")),
        (["papr", "--codebooks", "d1/b.json", "a-b.json", "d2/b.json"], ("d1/b.json", "d2/b.json")),
        (["papr", "--row-sparse", "4,2,1", "4,2,2", "4,2,1"], ("4,2,1", "4,2,1")),
        (["papr", "--codebooks", "rows_T4M2l1.json", "--row-sparse", "4,2,1"], ("rows_T4M2l1.json", "4,2,1")),
    ],
    ids=["rate", "gain-cdf", "k-0,0", "k-1,1.0", "k--0,0", "stem", "papr-codebooks", "papr-row-sparse", "papr-mixed"],
)
def test_colliding_scheme_names_exit_2_before_any_trial(tmp_path, capsys, monkeypatch, argv, inputs):
    def no_trials(*args, **kwargs):
        raise AssertionError("a sweep ran")

    for name in ("rate_curve", "gain_cdf", "papr_experiment", "constellation_samples"):
        monkeypatch.setattr(grasspack.cli, name, no_trials)
    monkeypatch.chdir(tmp_path)
    for path in ("d1/b.json", "d2/b.json", "a-b.json", "a_b.json", "rows_T4M2l1.json"):
        (tmp_path / path).parent.mkdir(exist_ok=True)
        save_codebook(proposed_codebook_4_2(), tmp_path / path)
    assert run(argv + ["--trials", 5, "--out", "out.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(repr(given) in err for given in inputs)
    assert not (tmp_path / "out.csv").exists()


# refused before the result array or the axis list is built
@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--snr-db", "0:1e6:1", "--trials", "5"],
        ["rate", "--trials", "1000000000000"],
        ["gain-cdf", "--trials", "1000000000000"],
        ["papr", "--subcarriers", "4", "--fft", "4", "--oversample", "1", "--trials", "2",
         "--scatter", "scatter.csv", "--scatter-frames", "1000000000000"],
        ["papr", "--row-sparse", "4,2,1", "--trials", "1000000000000"],
        # one row's spectrum, and the (T, M) row-sparse matrix
        ["papr", "--subcarriers", "4", "--fft", "2147483648", "--oversample", "1", "--trials", "1"],
        ["papr", "--row-sparse", "2000000000,1,1", "--trials", "1"],
        # one trial's (2, N, T) channel draws; refused before the chunk buffer
        ["rate", "-N", "100000000", "--trials", "1", "--snr-db", "0"],
        ["gain-cdf", "-N", "100000000", "--trials", "1"],
        # two unit vectors in T = 20000: one trial's (T, T) channel Gram; refused before the draw
        ["rate", "-N", "1", "--trials", "1", "--snr-db", "0", "--codebooks", "wide.json"],
        ["gain-cdf", "-N", "1", "--trials", "1", "--codebooks", "wide.json"],
    ],
    ids=" ".join,
)
def test_oversized_request_exits_2_without_traceback(tmp_path, capsys, argv):
    out, prop = tmp_path / "out.csv", tmp_path / "p.json"
    if "--codebooks" in argv:
        save_codebook(Codebook(np.eye(20000, 2).T[:, :, None]), tmp_path / "wide.json")
    else:
        run(["design", "--method", "prop42", "--out", prop])
        argv = argv + ["--codebooks", "p.json"]
    argv = [tmp_path / a if a.endswith((".csv", ".json")) else a for a in argv]
    start = time.perf_counter()
    assert run(argv + ["--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "scatter.csv").exists()


# 62 distinct phases: sparse2m's grid search would take the pairwise differences of all 62^4 points
GRID_62 = ",".join(repr(float(v)) for v in np.linspace(-3.0, 3.0, 62))


# refused before the pairwise products are built, which once raised numpy's memory error
@pytest.mark.parametrize(
    "argv",
    [
        ["--method", "manopt", "-T", "4", "-M", "2", "--size", "100000"],
        ["--method", "sparse-general", "-T", "4", "-M", "2", "-s", "4", "--size", "100000"],
        ["--method", "sparse2m", "-M", "4", "--size", "14", f"--grid={GRID_62}"],
        ["--method", "sparse2m", "-M", "2", "--size", "100000"],
        ["--method", "expmap", "-T", "8", "-M", "4", "--size", "20000"],
        # the (T, T) expmap generator
        ["--method", "expmap", "-T", "20000", "-M", "1", "--size", "2"],
        # the (size, T, M) manopt stack
        ["--method", "manopt", "-T", "2000000000", "-M", "1", "--size", "2"],
    ],
    ids=["manopt", "sparse-general", "sparse2m-grid", "sparse2m-continuous", "expmap",
         "expmap-generator", "manopt-stack"],
)
def test_oversized_design_exits_2_without_traceback(tmp_path, capsys, argv):
    out = tmp_path / "book.json"
    start = time.perf_counter()
    assert run(["design", *argv, "--restarts", 1, "--iters", 1, "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


# (size, T, T) projectors would take 11.9 GiB here; the surrogate works from the (size M)^2 Gram blocks
def test_long_manopt_codewords_are_designed(tmp_path):
    out = tmp_path / "book.json"
    argv = ["--method", "manopt", "-T", 20000, "-M", 1, "--size", 2, "--restarts", 1, "--iters", 1]
    assert run(["design", *argv, "--out", out]) == 0
    book = load_codebook(out)
    assert (len(book), book.T, book.M) == (2, 20000, 1)


# stop is inclusive; a rounded point count once took 0:14:4 on to 16 and 0:6:4 to 8
@pytest.mark.parametrize(
    "text, count, last",
    [
        ("0:14:4", 4, 12.0),
        ("0:6:4", 2, 4.0),
        ("0:20:2", 11, 20.0),
        ("4:13:0.25", 37, 13.0),
        ("0:1:0.1", 11, 1.0),
        ("10:0:-4", 3, 2.0),
        ("0:0.3:0.1", 4, 0.3),
    ],
)
def test_axis_never_passes_stop(text, count, last):
    axis = grasspack.cli._parse_axis(text)
    assert len(axis) == count and axis[-1] == pytest.approx(last, rel=1e-12)


# the axis text is the last argument; an infinite step once gave a [nan] axis
@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--snr-db", "0:10:inf"],
        ["rate", "--snr-db", "nan:10:1"],
        ["papr", "--row-sparse", "4,2,1", "--thresholds", "0:6:inf"],
        ["papr", "--row-sparse", "4,2,1", "--thresholds", "0:6:nan"],
        ["papr", "--row-sparse", "4,2,1", "--thresholds", "0:inf:1"],
    ],
    ids=" ".join,
)
def test_non_finite_axis_named_in_error(tmp_path, capsys, argv):
    out, text = tmp_path / "out.csv", argv[-1]
    if argv[0] == "rate":
        prop = tmp_path / "p.json"
        run(["design", "--method", "prop42", "--out", prop])
        argv = argv + ["--codebooks", prop]
    assert run(argv + ["--trials", 2, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: axis must be start:stop:step") and repr(text) in err
    assert "Traceback" not in err and not out.exists()


class TestAudit:
    def test_json_report(self, tmp_path):
        out = tmp_path / "audit.json"
        assert run(["audit", "-T", 4, "-M", 2, "-N", 32, "--size", 22, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["gram_mults"] == {"dense": 384, "sparse": 256}
        assert doc["real_variables"] == {"manopt": 176, "proposed2m": 16}

    def test_sweep_matches_formula(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["audit", "-T", 4, "-M", 2, "--sweep", "4,64,1024", "--out", out]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for size_s, manopt_s, prop_s in rows:
            size = int(size_s)
            assert int(manopt_s) == 2 * size * 2 * (4 - 2)
            assert int(prop_s) == -(-size // 3) * 2

    def test_bad_method_errors(self):
        with pytest.raises(SystemExit):
            run(["design", "--method", "fancy"])


def test_scale_flag_is_refused(capsys):
    # the exp-map spread is a constant of build_expmap, so argparse refuses the flag
    with pytest.raises(SystemExit) as exc:
        run(["design", "--method", "expmap", "-T", 4, "-M", 2, "--size", 3, "--scale", 0.5])
    assert exc.value.code == 2
    assert "unrecognized arguments: --scale 0.5" in capsys.readouterr().err


# one small valid command per subcommand (and per design method); BOOK is a
# codebook file written next to the outputs
FUZZ_COMMANDS = (
    ("design", "--method", "sparse2m", "-M", "2", "--size", "4", "--iters", "2", "--restarts", "1", "--grid", "quarter"),
    ("design", "--method", "sparse-general", "-T", "4", "-M", "2", "-s", "4", "--size", "3", "--iters", "2", "--restarts", "1"),
    ("design", "--method", "manopt", "-T", "4", "-M", "2", "--size", "3", "--iters", "2", "--restarts", "1", "--seed", "1"),
    ("design", "--method", "expmap", "-T", "4", "-M", "2", "--size", "3"),
    ("design", "--method", "nr42", "--indices", "15-22", "--out", "nr.json"),
    ("mcd", "BOOK", "--out", "mcd.csv"),
    ("rate", "--codebooks", "BOOK", "-N", "2", "--snr-db", "0:10:5", "--trials", "4", "--seed", "1", "--out", "r.csv"),
    ("gain-cdf", "--codebooks", "BOOK", "-N", "2", "--k-factors", "0,inf", "--trials", "4", "--out", "g.csv"),
    ("papr", "--codebooks", "BOOK", "--waveform", "dft-s-ofdm", "--subcarriers", "12", "--fft", "16",
     "--trials", "2", "--out", "p.csv"),
    ("papr", "--row-sparse", "4,2,1", "--thetas", "0.5,1", "--waveform", "ofdm", "--subcarriers", "12",
     "--fft", "16", "--oversample", "2", "--trials", "2", "--thresholds", "0:6:3", "--scatter", "s.csv",
     "--scatter-frames", "2", "--out", "p.csv"),
    ("audit", "-T", "4", "-M", "2", "-N", "8", "--size", "6", "--out", "a.json"),
    ("audit", "-T", "4", "-M", "2", "--sweep", "2:8:2", "--out", "s.csv"),
)
FUZZ_VALUES = ("0", "-1", "nan", "inf", "", "abc")


@st.composite
def mutated_argv(draw):
    """A fuzz command with one argument value, or one comma or colon field of
    it, replaced by a value from FUZZ_VALUES."""
    argv = list(draw(st.sampled_from(FUZZ_COMMANDS)))
    pieces = []
    for i, tok in enumerate(argv[1:], 1):
        if not tok.startswith("-"):
            fields = len(re.split("[,:]", tok))
            pieces += [(i, None)] + ([(i, f) for f in range(fields)] if fields > 1 else [])
    i, field = draw(st.sampled_from(pieces))
    value = draw(st.sampled_from(FUZZ_VALUES))
    if field is None:
        argv[i] = value
    else:
        parts = re.split("([,:])", argv[i])  # separators at the odd positions
        parts[2 * field] = value
        argv[i] = "".join(parts)
    return argv


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(mutated_argv())
# once tracebacks: a zero antenna count, a NaN sweep size
@example(["papr", "--row-sparse", "0,2,1", "--subcarriers", "12", "--fft", "16", "--trials", "2", "--out", "p.csv"])
@example(["audit", "-T", "4", "-M", "2", "--sweep", "nan", "--out", "s.csv"])
def test_fuzzed_argument_exits_0_or_2_without_traceback(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        save_codebook(proposed_codebook_4_2(), "BOOK")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the argument
                code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
