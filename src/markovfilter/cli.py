"""Command-line front end.

Subcommands cover the whole workflow: simulate a chain, filter it, check a
filter's identifiability, estimate parameters from a filtered chain (EM +
supplemented EM + intervals), test hypotheses against a fitted report, and
embed higher-order chains. Exit codes: 0 success, 3 parse or file error
(a file that cannot be read or written, and a ``--blank-token`` that would
not read back as a blank, included), 4 inconsistent pattern,
5 numerical failure, 6 identifiability unknown (argparse itself exits 2 on
usage errors). All numbers print with 12 significant digits.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .core import (
    embed_higher_order,
    embedded_support,
    free_coordinates,
    probs_to_theta,
    simulate_chain,
    transition_counts,
)
from .em import run_em
from .errors import (
    ConsistencyError,
    FileFormatError,
    MarkovFilterError,
    SingularCovarianceError,
)
from .filtering import (
    Verdict,
    apply_filter,
    classify_transitions,
    identifiability_verdict,
    reduction_fraction,
)
from .inference import _check_alpha, chi_square_test, confidence_interval, z_test
from .sem import run_sem

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_CONSISTENCY = 4
EXIT_NUMERICAL = 5
EXIT_UNIDENTIFIABLE = 6


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _print_matrix(matrix, title: str) -> None:
    matrix = np.asarray(matrix, dtype=float)
    print(title)
    for row in matrix:
        print("  " + "  ".join(_fmt(v) for v in row))


def cmd_simulate(args) -> int:
    P = io.read_probability_csv(args.probabilities)
    chain = simulate_chain(P, args.initial, args.n, args.seed)
    io.write_chain(args.out, chain)
    counts = transition_counts(chain)
    print(f"wrote {len(chain)} states ({chain.n_transitions} transitions) to {args.out}")
    _print_matrix(counts.counts, "transition counts:")
    for i, j in np.argwhere(P.support & (counts.counts == 0)) + 1:
        print(
            f"warning: transition {i}->{j} is allowed but never occurred; "
            "estimates from this realization may sit on the boundary"
        )
    return EXIT_OK


def cmd_filter(args) -> int:
    F = io.read_filter_csv(args.filter)
    chain = io.read_chain(args.chain, F.k)
    y = apply_filter(chain, F)
    io.write_filtered_chain(args.out, y, args.blank_token)
    print(f"wrote filtered chain to {args.out}")
    print(f"reduction fraction = {_fmt(reduction_fraction(y))}")
    print("transition visibility:")
    for (i, j), vis in sorted(classify_transitions(chain, F).items()):
        print(f"  {i}->{j}: {vis.value}")
    return EXIT_OK


def cmd_check_filter(args) -> int:
    F = io.read_filter_csv(args.filter)
    support = io.read_support_csv(args.support, F.k) if args.support else None
    verdict = identifiability_verdict(F, support)
    print(f"member of one-zero-row/column family: {verdict.in_c1}")
    print(f"member of two-zero-column family:     {verdict.in_c2}")
    print(f"member of two-zero-row family:        {verdict.in_c3}")
    if support is not None:
        print(f"records an allowed transition per row: {verdict.satisfies_r}")
    if verdict.closure_witness is not None:
        _print_matrix(
            verdict.closure_witness.bits.astype(float), "closure witness (filter below this one):"
        )
    print(f"verdict: {verdict.verdict.value}")
    return EXIT_OK if verdict.verdict is Verdict.SUFFICIENT_IDENTIFIABLE else EXIT_UNIDENTIFIABLE


def _intervals(em_result, sem_result, alpha: float) -> list:
    """Per parameter in the free-parameter layout (i, j, estimate, standard
    error, (lo, hi)); the error and the interval are None for a coordinate
    the estimate's support fixes."""
    probs = em_result.probs
    theta = probs_to_theta(probs)
    k = probs.shape[0]
    estimated = free_coordinates(probs)[1].any(axis=1)
    rows = []
    for idx, var in enumerate(np.diag(sem_result.v_obs)):
        i, j = idx // (k - 1) + 1, idx % (k - 1) + 1
        if estimated[idx]:
            ci = confidence_interval(theta[idx], var, alpha)
            rows.append((i, j, theta[idx], float(np.sqrt(var)), ci))
        else:
            rows.append((i, j, theta[idx], None, None))
    return rows


def _report_cells(name: str, matrix) -> dict:
    """The report cells ``estimate.<name>.<i>.<j>`` (1-based) of a matrix,
    row-major; ``_report_matrix`` reads them back."""
    return {
        f"estimate.{name}.{i}.{j}": value
        for i, row in enumerate(np.asarray(matrix, dtype=float).tolist(), 1)
        for j, value in enumerate(row, 1)
    }


def _report_value(path, report: dict, key: str, read=float, expected="a number"):
    """``read`` of the report's value at ``key``; FileFormatError names the
    report ``path``, the key and, when ``read`` refuses it, the value."""
    if key not in report:
        raise FileFormatError(path, f"missing report key {key!r}")
    try:
        return read(report[key])
    except ValueError:
        raise FileFormatError(path, f"{key} = {report[key]} is not {expected}") from None


def _report_matrix(path, report: dict, name: str, size: int) -> np.ndarray:
    """The ``size`` x ``size`` matrix stored by ``_report_cells``."""
    cells = range(1, size + 1)
    return np.array(
        [[_report_value(path, report, f"estimate.{name}.{i}.{j}") for j in cells] for i in cells]
    )


def _estimate_report(alpha: float, y, reduction, em_result, sem_result, intervals) -> dict:
    entries: dict = {
        "estimate.k": y.space.k,
        "estimate.n": y.n_transitions,
        "estimate.reduction": reduction,
        "estimate.iterations": em_result.iterations,
        "estimate.e_steps": em_result.e_steps,
        "estimate.converged": em_result.converged,
        "estimate.loglik": em_result.final_observed_loglik,
        "estimate.alpha": alpha,
        **_report_cells("theta", em_result.probs),
    }
    if sem_result is not None:
        for i, j, _est, se, ci in intervals:
            entries[f"estimate.se.{i}.{j}"] = float("nan") if se is None else se
            if ci is not None:
                entries[f"estimate.ci.lo.{i}.{j}"], entries[f"estimate.ci.hi.{i}.{j}"] = ci
        for name in ("v_com", "m1", "v_obs", "delta_v"):
            entries.update(_report_cells(name, getattr(sem_result, name)))
        entries["estimate.symmetry"] = sem_result.asymmetry
        entries["estimate.spectral_radius"] = sem_result.spectral_radius
        entries["estimate.cond"] = sem_result.cond
        entries["estimate.em_error"] = sem_result.em_error
    return entries


def cmd_estimate(args) -> int:
    F = io.read_filter_csv(args.filter)
    if not args.tol > 0:
        raise ValueError("tolerances must be positive")
    if args.max_iter < 1:
        raise ValueError("--max-iter must be at least 1")
    _check_alpha(args.alpha)
    y = io.read_filtered_chain(args.filtered, F.k, args.blank_token)
    support = io.read_support_csv(args.support, F.k) if args.support else None
    # a hint rides on its error in __notes__ (add_note needs Python 3.11); main prints it
    try:  # run_em validates the pattern before it iterates
        em_result = run_em(y, F, tol=args.tol, max_iter=args.max_iter, support=support)
    except ConsistencyError as err:
        err.__notes__ = [
            "check that the blank token and the filter match the ones used when the "
            "chain was recorded"
        ]
        raise

    sem_result = None
    if not args.skip_sem:
        try:
            sem_result = run_sem(y, F, em_result)
        except SingularCovarianceError as err:
            err.__notes__ = [
                "EM stopped at a saddle point, not at a maximum; it should be started from "
                "another point. --skip-sem would only report that saddle point, without "
                "covariances"
            ]
            raise
        except MarkovFilterError as err:
            err.__notes__ = [
                "the estimate itself is fine; rerun with --skip-sem to report it without "
                "covariances, or collect more data / record more transitions for usable "
                "standard errors"
            ]
            raise

    reduction = reduction_fraction(y)
    intervals = None if sem_result is None else _intervals(em_result, sem_result, args.alpha)
    print(
        f"EM converged: {em_result.converged} after {em_result.iterations} iterations "
        f"({em_result.e_steps} E-steps)"
    )
    print(f"observed log-likelihood = {_fmt(em_result.final_observed_loglik)}")
    print(f"reduction fraction = {_fmt(reduction)}")
    _print_matrix(em_result.probs, "estimated transition matrix:")
    if sem_result is not None:
        print("parameter  estimate        std.err         ci.lo           ci.hi")
        for i, j, est, se, ci in intervals:
            if ci is None:
                print(f"p_{i}{j}       {_fmt(est):<15s} (fixed)")
                continue
            lo, hi = ci
            lo_c, hi_c = max(lo, 0.0), min(hi, 1.0)
            clamp = " *" if (lo_c, hi_c) != (lo, hi) else ""
            print(
                f"p_{i}{j}       {_fmt(est):<15s} {_fmt(se):<15s} "
                f"{_fmt(lo_c):<15s} {_fmt(hi_c)}{clamp}"
            )
        _print_matrix(sem_result.v_com, "complete-data covariance:")
        _print_matrix(sem_result.m1, "EM-map Jacobian:")
        _print_matrix(sem_result.v_obs, "observed covariance:")
        _print_matrix(sem_result.delta_v, "variance increase from filtering:")
        print(f"symmetry diagnostic = {_fmt(sem_result.asymmetry)}")
        if sem_result.asymmetry > 1e-4:
            print(
                "warning: observed covariance is visibly asymmetric; "
                "tighten --tol",
                file=sys.stderr,
            )
    entries = _estimate_report(args.alpha, y, reduction, em_result, sem_result, intervals)
    if args.out:
        io.write_kv_report(args.out, entries)
        print(f"wrote report to {args.out}")
    else:
        print("report:")
        print("\n".join(io.format_kv_report(entries)))
    return EXIT_OK


def cmd_test(args) -> int:
    _check_alpha(args.alpha)
    report = io.read_kv_report(args.report)
    k = _report_value(args.report, report, "estimate.k", int, "an integer")
    if k < 2:
        raise FileFormatError(args.report, f"estimate.k = {k} is not a state count (at least 2)")
    probs_hat = _report_matrix(args.report, report, "theta", k)
    v = _report_matrix(args.report, report, "v_obs", k * (k - 1))
    P0 = io.read_probability_csv(args.null)
    if P0.k != k:
        raise FileFormatError(args.null, f"expected a {k}x{k} matrix")
    theta_hat = probs_to_theta(probs_hat)
    theta0 = probs_to_theta(P0.probs)
    free, lift = free_coordinates(probs_hat)
    overall = chi_square_test(theta_hat[free], theta0[free], v[np.ix_(free, free)])
    print(f"chi-square statistic = {_fmt(overall.statistic)}")
    print(f"degrees of freedom   = {overall.df} (k*k = {k * k} under the looser convention)")
    print(f"p-value              = {_fmt(overall.p_value)}")
    decision = "reject" if overall.p_value < args.alpha else "fail to reject"
    print(f"decision at alpha={_fmt(args.alpha)}: {decision}")
    print("per-parameter z tests:")
    for idx, estimated in enumerate(lift.any(axis=1)):
        i, j = idx // (k - 1) + 1, idx % (k - 1) + 1
        if not estimated:
            print(f"  p_{i}{j}: fixed, skipped")
            continue
        rep = z_test(theta_hat[idx], theta0[idx], v[idx, idx])
        flag = " (reject)" if rep.p_value < args.alpha else ""
        print(f"  p_{i}{j}: z = {_fmt(rep.statistic)}, p = {_fmt(rep.p_value)}{flag}")
    return EXIT_OK


def cmd_embed(args) -> int:
    if args.order < 2:
        raise ValueError("--order must be at least 2 for embedding")
    chain = io.read_chain(args.chain, args.states)
    embedded = embed_higher_order(chain, args.order)
    io.write_chain(args.out, embedded)
    mask = embedded_support(args.states, args.order)
    io.write_matrix_csv(args.support_out, mask)
    print(
        f"wrote {len(embedded)} tuple states over {args.states ** args.order} labels "
        f"to {args.out}"
    )
    print(f"wrote embedded support mask ({int(mask.sum())} allowed transitions) to {args.support_out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovfilter",
        description="Record only chosen Markov-chain transitions, verify the filter "
        "keeps the parameters identifiable, and estimate them from the blanked chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a chain from a transition matrix")
    p.add_argument("probabilities", help="CSV transition matrix")
    p.add_argument("--initial", type=int, required=True, help="initial state (1-based)")
    p.add_argument("--n", type=int, required=True, help="number of transitions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output chain file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("filter", help="apply a filter matrix to a chain")
    p.add_argument("chain", help="chain file")
    p.add_argument("filter", help="CSV 0/1 filter matrix")
    p.add_argument("--blank-token", default="-")
    p.add_argument("--out", required=True, help="output filtered-chain file")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("check-filter", help="decide the sufficient identifiability conditions")
    p.add_argument("filter", help="CSV 0/1 filter matrix")
    p.add_argument("--support", help="CSV 0/1 structural-support mask")
    p.set_defaults(func=cmd_check_filter)

    p = sub.add_parser("estimate", help="EM + supplemented-EM estimation from a filtered chain")
    p.add_argument("filtered", help="filtered-chain file")
    p.add_argument("filter", help="CSV 0/1 filter matrix")
    p.add_argument("--blank-token", default="-")
    p.add_argument("--tol", type=float, default=1e-12, help="EM convergence tolerance")
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--alpha", type=float, default=0.05, help="level for the intervals")
    p.add_argument("--support", help="CSV 0/1 structural-support mask")
    p.add_argument("--skip-sem", action="store_true", help="report the estimate only")
    p.add_argument("--out", help="write the machine-readable report here")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="chi-square and z tests against a fitted report")
    p.add_argument("report", help="report written by estimate --out")
    p.add_argument("null", help="CSV transition matrix under the null")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("embed", help="re-express an order-s chain over tuple states")
    p.add_argument("chain", help="chain file")
    p.add_argument("--states", type=int, required=True, help="number of base states")
    p.add_argument("--order", type=int, required=True, help="chain order s >= 2")
    p.add_argument("--out", required=True, help="output embedded-chain file")
    p.add_argument("--support-out", required=True, help="output support-mask CSV")
    p.set_defaults(func=cmd_embed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MarkovFilterError, ValueError, OSError) as err:
        hints = (f"hint: {note}" for note in getattr(err, "__notes__", ()))
        print(f"error: {err}", *hints, sep="\n", file=sys.stderr)
        if isinstance(err, ConsistencyError):
            return EXIT_CONSISTENCY
        return EXIT_PARSE if isinstance(err, (FileFormatError, ValueError, OSError)) else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
