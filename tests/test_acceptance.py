"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
live). The heavy Monte Carlo criteria reuse shared codebooks built once per
session; all randomness is seeded, so the suite is exactly reproducible.
"""

import itertools
import math

import numpy as np
import pytest

from grasspack.audit import effective_gram, gram_mult_count, real_variable_count
from grasspack.codebooks import (
    OptimizerConfig,
    build_expmap,
    build_sparse_2M,
    nr_codebook_4_2,
    optimize_manopt,
    proposed_codebook_4_2,
)
from grasspack.grassmann import (
    chordal_distance,
    min_chordal_distance,
    projector_distance,
    validate_stiefel,
)
from grasspack.linalg import random_stiefel
from grasspack.linksim import gain_cdf, rate_curve
from grasspack.schubert import count_patterns, matching_patterns, pair_codeword
from grasspack.wavesim import (
    WaveformConfig,
    ccdf_threshold_db,
    papr_experiment,
    row_sparse_precoder,
)


def check(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def manopt_22():
    return optimize_manopt(4, 2, 22, OptimizerConfig(seed=0))


@pytest.fixture(scope="module")
def manopt_8():
    return optimize_manopt(4, 2, 8, OptimizerConfig(seed=0))


def test_criterion_01_closed_form_distance_laws():
    rng = np.random.default_rng(100)
    worst_cross = worst_same = 0.0
    for m in (2, 3, 4):
        patterns = matching_patterns(m)
        for _ in range(200):
            ta = rng.uniform(-np.pi, np.pi, m)
            tb = rng.uniform(-np.pi, np.pi, m)
            pa, pb = rng.choice(len(patterns), size=2, replace=False)
            cross = chordal_distance(
                pair_codeword(patterns[pa], ta), pair_codeword(patterns[pb], tb)
            )
            worst_cross = max(worst_cross, abs(cross - math.sqrt(m / 2)))
            same = chordal_distance(
                pair_codeword(patterns[pa], ta), pair_codeword(patterns[pa], tb)
            )
            law = math.sqrt(np.sum(np.sin((ta - tb) / 2.0) ** 2))
            worst_same = max(worst_same, abs(same - law))
    check(
        1,
        "cross-pattern distance sqrt(M/2) within 1e-12, same-pattern phase law within 1e-10",
        worst_cross <= 1e-12 and worst_same <= 1e-10,
        f"max errors {worst_cross:.2e} / {worst_same:.2e}",
    )


def test_criterion_02_dual_form_chordal_distance():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(2, 9))
        m = int(rng.integers(1, t))
        a, b = random_stiefel(t, m, rng), random_stiefel(t, m, rng)
        worst = max(
            worst, abs(chordal_distance(a, b) - projector_distance(a, b) / math.sqrt(2))
        )
    check(2, "both distance forms agree within 1e-9 on 1000 random pairs", worst <= 1e-9,
          f"max gap {worst:.2e}")


def brute_force_pattern_count(t, m, s):
    found = set()
    for rows in itertools.combinations(range(1, t + 1), s):
        for labels in itertools.product(range(m), repeat=s):
            if len(set(labels)) != m:
                continue
            found.add(frozenset(frozenset(r for r, l in zip(rows, labels) if l == b) for b in range(m)))
    return len(found)


def test_criterion_03_pattern_counting():
    ok = True
    for t in range(2, 7):
        for m in range(1, t):
            for s in range(m, t + 1):
                if count_patterns(t, m, s) != brute_force_pattern_count(t, m, s):
                    ok = False
    check(3, "pattern counts equal brute-force enumeration for all T <= 6", ok)


def test_criterion_04_one_factorization():
    ok = True
    for m in range(2, 9):
        patterns = matching_patterns(m)
        pairs = [p for pat in patterns for p in pat.supports]
        ok &= len(patterns) == 2 * m - 1
        ok &= len(pairs) == len(set(pairs)) == math.comb(2 * m, 2)
    check(4, "matching_patterns is a 1-factorization of K_2M for M in 2..8", ok)


def test_criterion_05_appendix_fidelity():
    nr, prop = nr_codebook_4_2(), proposed_codebook_4_2()
    stiefel_ok = all(validate_stiefel(w, 1e-12) for w in nr.codewords) and all(
        validate_stiefel(w, 1e-12) for w in prop.codewords
    )
    prop_mcd, prop_pair = min_chordal_distance(prop)
    nr_mcd, nr_pair = min_chordal_distance(nr)
    # regression values frozen from the exhaustive brute-force run: the NR
    # table contains duplicate subspaces, first minimizing pair (15, 16)
    nr_ok = nr_mcd == 0.0 and nr_pair == (15, 16)
    nr_ok &= projector_distance(nr[14], nr[15]) < 1e-9
    check(
        5,
        "appendix tables Stiefel at 1e-12, proposed MCD 1.0 +- 1e-9, NR duplicate pair (15,16)",
        stiefel_ok and abs(prop_mcd - 1.0) <= 1e-9 and nr_ok,
        f"prop mcd {prop_mcd:.12f} pair {prop_pair}, nr mcd {nr_mcd} pair {nr_pair}",
    )


def test_criterion_06_real_variable_formulas():
    ok = real_variable_count("manopt", 4, 2, 22) == 176
    ok &= real_variable_count("proposed2m", 4, 2, 22) == 16
    ok &= real_variable_count("proposed2m", 8, 4, 24) == 16
    for t, m in ((4, 2), (6, 3), (8, 4)):
        for size in range(1, 1025):
            ok &= real_variable_count("manopt", t, m, size) == 2 * size * m * (t - m)
            ok &= real_variable_count("proposed2m", t, m, size) == math.ceil(size / (2 * m - 1)) * m
    check(6, "real-variable counts match the closed formulas over the full sweep", ok)


def test_criterion_07_complexity_counters():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(100):
        m = int(rng.integers(1, 5))
        t = int(rng.integers(m + 1, 10))
        n = int(rng.integers(1, 48))
        h = rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))
        dense = effective_gram(h, rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m)))[1]
        ok &= dense == gram_mult_count(t, m, n, sparse=False)
        sparse = effective_gram(h, row_sparse_precoder(t, m, 1, seed=int(rng.integers(1 << 30))))[1]
        ok &= sparse == gram_mult_count(t, m, n, sparse=True)
    check(7, "instrumented multiply counts equal analytic counts on 100 scenarios", ok)


def test_criterion_08_mcd_ordering():
    cfg = OptimizerConfig(seed=3)
    ok = True
    details = []
    for m in (2, 3):
        for size in (4, 8, 16, 32):
            sparse = min_chordal_distance(build_sparse_2M(m, size, cfg))[0]
            dense = min_chordal_distance(build_expmap(2 * m, m, size, cfg))[0]
            manopt = min_chordal_distance(optimize_manopt(2 * m, m, size, cfg))[0]
            ok &= sparse >= dense
            ok &= manopt >= sparse - 0.05
            details.append(f"(2M={2*m},{size}): sp={sparse:.3f} ex={dense:.3f} mo={manopt:.3f}")
    check(8, "MCD ordering sparse >= expmap and manopt >= sparse - 0.05", ok, "; ".join(details))


def test_criterion_09_achievable_rate_ordering(manopt_22):
    books = [nr_codebook_4_2(), proposed_codebook_4_2(), manopt_22]
    sweep = rate_curve(books, 32, [10.0, 10.01], trials=100_000, seed=13)
    d_pn = sweep.diff_mean[(0, 1)][0]
    se_pn = sweep.diff_se[(0, 1)][0]
    d_mp = sweep.diff_mean[(1, 2)][0]
    se_mp = sweep.diff_se[(1, 2)][0]
    prop_rates = sweep.mean_rates[1]
    rate_equiv_001db = prop_rates[1] - prop_rates[0]
    ok_gain = d_pn > 0 and d_pn > 3 * se_pn
    ok_gap = abs(d_mp) < 3 * se_mp or abs(d_mp) < rate_equiv_001db
    check(
        9,
        "rate: proposed beats NR by > 3 paired SEs; manopt gap within 3 SEs or 0.01 dB",
        ok_gain and ok_gap,
        f"prop-nr {d_pn:.5f} ({d_pn / se_pn:.0f} SE), |manopt-prop| {abs(d_mp):.5f} "
        f"vs 0.01dB-equiv {rate_equiv_001db:.5f}",
    )


def test_criterion_10_rician_ordering(manopt_22):
    trials, seed, n = 100_000, 7, 32
    books = {"prop": proposed_codebook_4_2(), "nr": nr_codebook_4_2(), "manopt": manopt_22}
    ks = (0.0, float("inf"))
    gains = gain_cdf(list(books.values()), n, ks, trials, seed)
    med = {(name, k): float(np.median(gains[ki, c])) for ki, k in enumerate(ks) for c, name in enumerate(books)}
    k0_ok = med[("prop", 0.0)] >= med[("nr", 0.0)]
    k0_ok &= abs(med[("prop", 0.0)] - med[("manopt", 0.0)]) <= 0.01 * med[("manopt", 0.0)]
    inf = float("inf")
    kinf_ok = med[("nr", inf)] >= med[("prop", inf)] >= med[("manopt", inf)]
    check(
        10,
        "Rician medians: K=0 prop >= NR and within 1% of manopt; K=inf NR >= prop >= manopt",
        k0_ok and kinf_ok,
        f"K0 prop/nr/manopt {med[('prop', 0.0)]:.4f}/{med[('nr', 0.0)]:.4f}/{med[('manopt', 0.0)]:.4f}; "
        f"Kinf {med[('nr', inf)]:.4f}/{med[('prop', inf)]:.4f}/{med[('manopt', inf)]:.4f}",
    )


def test_criterion_11_papr_gap(manopt_8):
    frames, seed = 10_000, 21
    schemes = {
        "prop": build_sparse_2M(2, 8, OptimizerConfig(seed=0, phase_grid=(-np.pi / 2, 0.0, np.pi / 2, np.pi))),
        "manopt": manopt_8,
        "nr": nr_codebook_4_2().subset(range(15, 23)),  # the dense fully-coherent entries
    }
    thresholds = {}
    for wf in ("dft-s-ofdm", "ofdm"):
        cfg = WaveformConfig(n_used=624, n_fft=1024, oversample=8, waveform=wf)
        for name, book in schemes.items():
            samples = papr_experiment(book, cfg, frames, seed=seed)
            thresholds[(wf, name)] = ccdf_threshold_db(samples, 1e-2)
    gap_manopt = thresholds[("dft-s-ofdm", "manopt")] - thresholds[("dft-s-ofdm", "prop")]
    gap_nr = thresholds[("dft-s-ofdm", "nr")] - thresholds[("dft-s-ofdm", "prop")]
    ofdm_vals = [thresholds[("ofdm", n)] for n in schemes]
    ofdm_spread = max(ofdm_vals) - min(ofdm_vals)
    check(
        11,
        "DFT-s-OFDM: sparse codebook >= 1.0 dB below both dense baselines at CCDF 1e-2; OFDM within 0.3 dB",
        gap_manopt >= 1.0 and gap_nr >= 1.0 and ofdm_spread <= 0.3,
        f"gaps manopt {gap_manopt:.3f} dB, nr {gap_nr:.3f} dB; OFDM spread {ofdm_spread:.3f} dB",
    )


def test_criterion_12_sparsity_study():
    frames, seed = 10_000, 11
    thetas = [1.91, -2.21, -1.71, 0.636]
    results = {}
    for wf in ("dft-s-ofdm", "ofdm"):
        cfg = WaveformConfig(n_used=512, n_fft=512, oversample=8, waveform=wf)
        results[wf] = [
            ccdf_threshold_db(
                papr_experiment(row_sparse_precoder(8, 4, ell, thetas=thetas), cfg, frames, seed=seed),
                1e-2,
            )
            for ell in (1, 2, 3, 4)
        ]
    dfts = results["dft-s-ofdm"]
    increasing = all(b > a for a, b in zip(dfts, dfts[1:]))
    spread = max(results["ofdm"]) - min(results["ofdm"])
    check(
        12,
        "DFT-s-OFDM PAPR at CCDF 1e-2 strictly increasing in ell; OFDM flat within 0.3 dB",
        increasing and spread <= 0.3,
        f"dft-s thresholds {[f'{v:.2f}' for v in dfts]}, OFDM spread {spread:.3f} dB",
    )
