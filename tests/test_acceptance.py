"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Tolerances are fixed here, not calibrated elsewhere."""

import itertools

import numpy as np

from markovfilter import (
    CompleteChain,
    FilterMatrix,
    StateSpace,
    TransitionMatrix,
    apply_filter,
    chi_square_test,
    closure_witness,
    complete_mle,
    confidence_interval,
    distinguishability_check,
    dominates,
    e_step,
    identifiability_verdict,
    in_class_c1,
    m_step,
    observed_loglik,
    oracle_expected_counts,
    oracle_observed_likelihood,
    reduction_fraction,
    run_em,
    run_sem,
    simulate_chain,
    split_p,
    transition_counts,
    unobserved_step_probs,
    Verdict,
)
from conftest import (
    BENCH_FILTER,
    BENCH_PROBS,
    WORKED_CHAIN_DIGITS,
    WORKED_FILTER,
    WORKED_FILTERED,
    random_interior_probs,
    random_theta,
)
from test_em import grid_refine_maximize
from test_sem import em_map, fd_hessian, fd_jacobian


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def bench_model():
    return TransitionMatrix.from_probs(BENCH_PROBS), FilterMatrix(BENCH_FILTER)


def test_criterion_1_worked_example_golden():
    chain = CompleteChain(tuple(int(c) for c in WORKED_CHAIN_DIGITS), StateSpace(3))
    y = apply_filter(chain, FilterMatrix(WORKED_FILTER))
    got = "".join("_" if s is None else str(s) for s in y.symbols)
    report(1, got == WORKED_FILTERED, f"filtered chain {got!r}")


def test_criterion_2_split_matrix_algebra():
    F = FilterMatrix(np.array([[1, 0], [0, 1]]))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        p12, p21 = rng.uniform(0.01, 0.99, 2)
        P = TransitionMatrix.from_probs([[1 - p12, p12], [p21, 1 - p21]])
        square = unobserved_step_probs(split_p(P, F), 2)
        worst = max(worst, float(np.max(np.abs(square - np.diag([p12 * p21, p21 * p12])))))
    report(2, worst <= 1e-15, f"max |(P0)^2 - diag(p12 p21)| = {worst:.2e} over 20 points")


def test_criterion_3_oracle_equivalence_suite():
    rng = np.random.default_rng(33)
    cases = 0
    worst_counts = 0.0
    worst_ll = 0.0
    while cases < 520:
        k = int(rng.integers(2, 4))
        P_gen = TransitionMatrix.from_probs(random_interior_probs(rng, k))
        P_eval = TransitionMatrix.from_probs(random_interior_probs(rng, k))
        F = FilterMatrix(rng.random((k, k)) < rng.uniform(0.2, 0.8))
        n = int(rng.integers(1, 8))
        chain = simulate_chain(P_gen, int(rng.integers(1, k + 1)), n, int(rng.integers(10**6)))
        y = apply_filter(chain, F)
        E = e_step(y, P_eval.theta(), F)
        O = oracle_expected_counts(y, F, P_eval)
        worst_counts = max(worst_counts, float(np.max(np.abs(E.counts - O.counts))))
        ll = observed_loglik(y, P_eval.theta(), F)
        ll_oracle = float(np.log(oracle_observed_likelihood(y, F, P_eval)))
        worst_ll = max(worst_ll, abs(ll - ll_oracle))
        cases += 1
    ok = worst_counts <= 1e-10 and worst_ll <= 1e-10
    report(
        3,
        ok,
        f"{cases} randomized cases, max count gap {worst_counts:.2e}, "
        f"max loglik gap {worst_ll:.2e}",
    )


def test_criterion_4_em_correctness():
    # (a) full observation: one EM update is already the closed-form MLE
    chain = CompleteChain(tuple(int(c) for c in WORKED_CHAIN_DIGITS), StateSpace(3))
    F1 = FilterMatrix.all_ones(3)
    y1 = apply_filter(chain, F1)
    start = random_theta(np.random.default_rng(4), 3)
    one_step = m_step(e_step(y1, start, F1))
    mle = complete_mle(transition_counts(chain))
    exact = bool(np.array_equal(one_step.theta, mle.theta().theta))
    result1 = run_em(y1, F1)
    exact = exact and bool(np.array_equal(result1.theta_hat.theta, mle.theta().theta))

    # (b) the estimate agrees with an independent grid+refinement maximizer
    #     (zero-row filters leave several unrecorded exits per state, making
    #     the incomplete likelihood genuinely nontrivial)
    worst_gap = 0.0
    instances = [
        ([[1, 0], [0, 1]], 0),
        ([[0, 1], [1, 0]], 1),
        ([[0, 0], [1, 0]], 2),
        ([[0, 0], [1, 0]], 3),
        ([[0, 1], [0, 0]], 0),
        ([[0, 1], [0, 0]], 1),
    ]
    for bits, seed in instances:
        rng = np.random.default_rng(seed)
        P = TransitionMatrix.from_probs(random_interior_probs(rng, 2, floor=0.15))
        F = FilterMatrix(np.array(bits))
        y = apply_filter(simulate_chain(P, 1, 30, seed=seed + 100), F)
        result = run_em(y, F)
        grid_theta, _ = grid_refine_maximize(y, F)
        worst_gap = max(worst_gap, float(np.max(np.abs(result.theta_hat.theta - grid_theta))))

    # (c) the observed log-likelihood never decreases along the iterations
    P, F = bench_model()
    ascent_ok = True
    for seed in (0, 1):
        y = apply_filter(simulate_chain(P, 1, 600, seed=seed), F)
        trace = np.array(run_em(y, F).loglik_trace)
        ascent_ok = ascent_ok and bool(np.all(np.diff(trace) >= -1e-10))

    ok = exact and worst_gap < 2e-3 and ascent_ok
    report(
        4,
        ok,
        f"one-step MLE exact: {exact}, grid gap {worst_gap:.2e}, ascent: {ascent_ok}",
    )


def test_criterion_5_sem_correctness():
    # (a) nothing missing: the Jacobian and the inflation vanish exactly
    chain = CompleteChain(tuple(int(c) for c in WORKED_CHAIN_DIGITS), StateSpace(3))
    F1 = FilterMatrix.all_ones(3)
    y1 = apply_filter(chain, F1)
    sem1 = run_sem(y1, F1, run_em(y1, F1))
    exact_zero = bool(np.all(sem1.m1 == 0.0) and np.all(sem1.delta_v == 0.0))

    # (b) Jacobian vs central differences; V_obs vs the inverse
    #     finite-difference observed information (the filter records only
    #     2 -> 1, so real information is lost and M1 is far from zero)
    F = FilterMatrix(np.array([[0, 0], [1, 0]]))
    P = TransitionMatrix.from_probs([[0.7, 0.3], [0.4, 0.6]])
    y = apply_filter(simulate_chain(P, 1, 200, seed=15), F)
    result = run_em(y, F)
    sem = run_sem(y, F, result)
    J = fd_jacobian(em_map(y, F), result.theta_hat.theta.copy())
    m1_gap = float(np.max(np.abs(sem.m1 - J)))
    nontrivial = float(np.max(np.abs(sem.m1))) > 0.1

    H = fd_hessian(lambda t: observed_loglik(y, t, F), result.theta_hat.theta.copy(), h=1e-4)
    v_fd = np.linalg.inv(-H)
    v_rel = float(np.max(np.abs(sem.v_obs - v_fd)) / np.max(np.abs(v_fd)))

    # (c) symmetry of the observed covariance at benchmark tolerances
    Pb, Fb = bench_model()
    yb = apply_filter(simulate_chain(Pb, 1, 1000, seed=2), Fb)
    semb = run_sem(yb, Fb, run_em(yb, Fb, tol=1e-12))

    ok = exact_zero and nontrivial and m1_gap < 1e-4 and v_rel < 0.05 and semb.asymmetry < 1e-4
    report(
        5,
        ok,
        f"exact zeros: {exact_zero}, |M1 - FD| = {m1_gap:.2e} (M1 nontrivial: "
        f"{nontrivial}), V_obs rel err {v_rel:.4f}, asymmetry {semb.asymmetry:.2e}",
    )


def test_criterion_6_benchmark_replication():
    P, F = bench_model()
    theta_true = P.theta().theta
    fracs = []
    seeds_ok = 0
    n_seeds = 50
    for seed in range(n_seeds):
        chain = simulate_chain(P, 1, 1000, seed=seed)
        y = apply_filter(chain, F)
        fracs.append(reduction_fraction(y))
        result = run_em(y, F, tol=1e-12)
        sem = run_sem(y, F, result)
        se = np.sqrt(np.diag(sem.v_obs))
        if np.all(np.abs(result.theta_hat.theta - theta_true) <= 3 * se):
            seeds_ok += 1
    fracs = np.array(fracs)
    frac_ok = bool(np.all((fracs >= 0.12) & (fracs <= 0.20)))
    rate = seeds_ok / n_seeds
    ok = frac_ok and rate >= 0.90
    report(
        6,
        ok,
        f"reduction in [{fracs.min():.3f}, {fracs.max():.3f}], "
        f"{seeds_ok}/{n_seeds} seeds within 3 SEs",
    )


def test_criterion_7_identifiability_checker():
    P, F = bench_model()
    # the benchmark filter is approved with a verifiable one-zero-row witness
    verdict = identifiability_verdict(F)
    wit = verdict.closure_witness
    bench_ok = (
        verdict.verdict is Verdict.SUFFICIENT_IDENTIFIABLE
        and wit is not None
        and dominates(F, wit)
        and in_class_c1(wit) is not None
    )

    bits = np.zeros((10, 10), dtype=bool)
    bits[0, 0] = True
    sparse_ok = identifiability_verdict(FilterMatrix(bits)).verdict is Verdict.UNKNOWN

    # approval is monotone in the stored-data order
    rng = np.random.default_rng(7)
    monotone_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        H = FilterMatrix(rng.random((k, k)) < rng.uniform(0.2, 0.9))
        M = FilterMatrix(H.bits | (rng.random((k, k)) < 0.3))
        if closure_witness(H) is not None and closure_witness(M) is None:
            monotone_ok = False
            break

    # every approved two- and three-state filter separates random parameter
    # pairs; approval must never outrun the separation oracle
    approved_counts = {}
    min_tv = np.inf
    sep_ok = True
    for k in (2, 3):
        approved = []
        for combo in itertools.product((0, 1), repeat=k * k):
            Fc = FilterMatrix(np.array(combo, dtype=bool).reshape(k, k))
            if closure_witness(Fc) is not None:
                approved.append(Fc)
        approved_counts[k] = len(approved)
        for Fc in approved:
            for _ in range(100):
                tv = distinguishability_check(
                    Fc, random_theta(rng, k), random_theta(rng, k), 8, 1
                )
                min_tv = min(min_tv, tv)
                if tv <= 1e-10:
                    sep_ok = False
                    break
            if not sep_ok:
                break

    ok = bench_ok and sparse_ok and monotone_ok and sep_ok
    report(
        7,
        ok,
        f"benchmark witness: {bench_ok}, sparse unknown: {sparse_ok}, "
        f"monotone over 1000 pairs: {monotone_ok}, approved filters "
        f"{approved_counts} all separate (min TV {min_tv:.3f})",
    )


def test_criterion_8_test_calibration():
    P, F = bench_model()
    theta_true = P.theta().theta
    n_reps = 200
    rejections = 0
    covered = 0
    total = 0
    for seed in range(n_reps):
        chain = simulate_chain(P, 1, 1000, seed=seed)
        y = apply_filter(chain, F)
        result = run_em(y, F, tol=1e-12)
        sem = run_sem(y, F, result)
        rep = chi_square_test(result.theta_hat.theta, theta_true, sem.v_obs)
        if rep.p_value < 0.05:
            rejections += 1
        diag = np.diag(sem.v_obs)
        for idx in range(theta_true.size):
            lo, hi = confidence_interval(result.theta_hat.theta[idx], diag[idx], 0.05)
            covered += int(lo <= theta_true[idx] <= hi)
            total += 1
    rate = rejections / n_reps
    coverage = covered / total
    ok = 0.01 <= rate <= 0.12 and coverage >= 0.88
    report(
        8,
        ok,
        f"rejection rate {rate:.3f} at alpha=0.05, CI coverage {coverage:.3f} "
        f"over {n_reps} replications",
    )
