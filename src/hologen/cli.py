"""Command-line front end.

Subcommands: certify-gen, certify-pd, numrange, bound, flow, sample-gen,
and verify-suite (the full per-seed property battery). JSON in, JSON or
CSV out. Exit codes: 0 when checks pass or a clean verdict is emitted,
1 when a violation, refutation, or inconclusive budget is found, 2 on
usage or input errors.

Reports are deterministic for a fixed seed; pass --no-timestamp to drop
the one non-deterministic field. The HOLOGEN_SEED environment variable
supplies the default seed, an explicit --seed flag wins.

The parsed argparse namespace is the one settings object: handlers take it
alone, --seed is resolved into it once, and the positivity of the budget,
tolerance and count flags is checked by their argparse types. Each
subcommand accepts only the shared flags its handler reads (`_COMMANDS`),
so any other one exits 2. verify-suite runs its batteries in order; its
--jobs is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bounds import generator_certificate, verify_growth_bound, verify_intermediate_chain
from .certify import (CertifyBudget, NotCertifiedError, caratheodory_check,
                      certificate_to_dict, certify_generator,
                      certify_pseudo_dissipative, generator_slack,
                      linear_dissipation_check, restriction_agreement,
                      shift_to_generator, verdict_to_dict)
from .flows import BallEscapeError, FlowStopError, integrate, invariance_sweep, trajectory_to_csv
from .numrange import OracleMismatchError, SearchBudget, numerical_radius, numerical_range_inf
from .polymaps import _pairs, herglotz_sample, map_from_dict, map_to_dict, sample_generator
from .spaces import NormedSpace, space_to_dict


class _CliError(Exception):
    """Carries the exit code and message for expected failures."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _positive(kind):
    """An argparse type that parses with kind and rejects values <= 0 and NaN."""

    def parse(raw: str):
        value = kind(raw)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {raw!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    raw = os.environ.get("HOLOGEN_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise _CliError(2, f"HOLOGEN_SEED must be an integer, got {raw!r}")


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CliError(2, f"cannot read {path}: {exc.strerror or exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(2, f"malformed JSON in {path} at line {exc.lineno}, "
                           f"column {exc.colno}: {exc.msg}")


def _load_map(path: str):
    data = _load_json(path)
    try:
        return map_from_dict(data)
    except ValueError as exc:
        raise _CliError(2, f"bad map description in {path}: {exc}")


def _write(data: dict, output: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, args) -> None:
    if not args.no_timestamp:
        payload = {**payload, "generated_at": datetime.now(timezone.utc).isoformat()}
    _write(payload, args.output)


def _parse_p(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _CliError(2, f"--p must be a number or 'inf', got {raw!r}")


def _complex_entry(cell, where: str) -> complex:
    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
        return complex(cell)
    if (isinstance(cell, list) and len(cell) == 2
            and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in cell)):
        return complex(cell[0], cell[1])
    raise _CliError(2, f"{where} must be a number or a [re, im] pair, got {cell!r}")


def _certify_budget(args) -> CertifyBudget:
    return CertifyBudget(sphere=args.samples or 128, refine_iters=args.refine_iters or 40,
                         seed=args.seed)


def _search_budget(args) -> SearchBudget:
    return SearchBudget(samples=args.samples or 2048, refine_iters=args.refine_iters or 120,
                        starts=4, seed=args.seed)


# -- subcommands ---------------------------------------------------------------


def _cmd_certify_gen(args) -> int:
    G = _load_map(args.map)
    verdict = certify_generator(G, _certify_budget(args), args.cert_tol)
    payload = {"command": "certify-gen", "input": args.map, **verdict_to_dict(verdict)}
    _emit(payload, args)
    return 0 if verdict.verdict == "certified" else 1


def _cmd_certify_pd(args) -> int:
    F = _load_map(args.map)
    cert = certify_pseudo_dissipative(F, _certify_budget(args))
    payload = {"command": "certify-pd", "input": args.map, **certificate_to_dict(cert)}
    _emit(payload, args)
    return 0 if cert.verdict == "certified" else 1


def _parse_matrix(data, where: str) -> np.ndarray:
    if isinstance(data, dict):
        if "matrix" not in data:
            raise _CliError(2, f"{where}: object input must carry a 'matrix' key")
        data = data["matrix"]
    if not isinstance(data, list) or not data:
        raise _CliError(2, f"{where}: matrix must be a nonempty list of rows")
    n = len(data)
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise _CliError(2, f"{where}: row {i} must be a list of {n} entries")
        for j, cell in enumerate(row):
            out[i, j] = _complex_entry(cell, f"{where}: entry [{i}][{j}]")
    return out


def _cmd_numrange(args) -> int:
    data = _load_json(args.matrix)
    if isinstance(data, dict) and "space" in data:
        try:
            pm = map_from_dict(data)
        except ValueError as exc:
            raise _CliError(2, f"bad map description in {args.matrix}: {exc}")
        space, A = pm.space, pm.linear
    else:
        A = _parse_matrix(data, args.matrix)
        try:
            space = NormedSpace(A.shape[0], _parse_p(args.p))
        except ValueError as exc:
            raise _CliError(2, str(exc))
    budget = _search_budget(args)
    m_est = numerical_range_inf(space, A, budget)
    v_est = numerical_radius(space, A, budget)
    payload = {
        "command": "numrange",
        "input": args.matrix,
        "dim": space.dim,
        "p": space_to_dict(space)["p"],
        "m": m_est.value,
        "V": v_est.value,
        "m_method": m_est.method,
        "V_method": v_est.method,
        "samples": m_est.samples,
    }
    _emit(payload, args)
    return 0


def _cmd_bound(args) -> int:
    F = _load_map(args.map)
    cbud = _certify_budget(args)
    verdict = certify_generator(F, cbud, args.cert_tol)
    if verdict.verdict == "certified":
        cert = generator_certificate(F, verdict)
        mode = "generator"
    else:
        cert = certify_pseudo_dissipative(F, cbud)
        mode = "pseudo-dissipative"
        if cert.verdict != "certified":
            _emit({"command": "bound", "input": args.map, "mode": mode,
                   "verdict": cert.verdict,
                   "detail": "no certificate, growth bound not evaluated"}, args)
            return 1
    report = verify_growth_bound(F, cert, budget=_search_budget(args),
                                 tolerance=args.bound_tol)
    payload = {
        "command": "bound",
        "input": args.map,
        "mode": mode,
        "theta": cert.theta,
        "a": cert.a,
        "b": cert.b,
        "inputs": {
            "center_norm": report.inputs.center_norm,
            "linear_radius": report.inputs.linear_radius,
            "shifted_radius": report.inputs.shifted_radius,
            "shifted_range_inf": report.inputs.shifted_range_inf,
        },
        "radii": [float(r) for r in report.radii],
        "lhs_max": [float(x) for x in report.lhs],
        "rhs_sharp": [float(x) for x in report.sharp],
        "rhs_coarse": [float(x) for x in report.coarse],
        "min_slack": report.min_slack,
        "violated": report.violated,
    }
    if args.curve:
        lines = ["r,lhs_max,rhs_sharp,rhs_coarse"]
        for i in range(report.radii.size):
            lines.append(f"{report.radii[i]:.12g},{report.lhs[i]:.12g},"
                         f"{report.sharp[i]:.12g},{report.coarse[i]:.12g}")
        Path(args.curve).write_text("\n".join(lines) + "\n")
        payload["curve"] = args.curve
    _emit(payload, args)
    return 1 if report.violated else 0


def _parse_start(raw: str, dim: int) -> np.ndarray:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _CliError(2, f"--z0 is not valid JSON: {exc.msg}")
    if not isinstance(data, list) or len(data) != dim:
        raise _CliError(2, f"--z0 must be a JSON list of {dim} entries")
    return np.array([_complex_entry(cell, f"--z0 entry {i}") for i, cell in enumerate(data)],
                    dtype=np.complex128)


def _cmd_flow(args) -> int:
    G = _load_map(args.map)
    z0 = _parse_start(args.z0, G.space.dim)
    payload = {"command": "flow", "input": args.map, "t_end": args.t, "rtol": args.rtol}
    stop = None
    try:
        traj = integrate(G, z0, args.t, args.rtol)
    except ValueError as exc:
        raise _CliError(2, str(exc))
    except FlowStopError as exc:
        stop, traj = exc, exc.trajectory
    if args.csv:
        Path(args.csv).write_text(trajectory_to_csv(traj))
        payload["csv"] = args.csv
    if isinstance(stop, BallEscapeError):
        payload.update({
            "outcome": "invariance-violation",
            "escape_time": stop.time,
            "escape_state": _pairs(stop.state),
        })
    elif stop is not None:
        payload.update({"outcome": "singular-drift", "failure_time": stop.time})
    else:
        payload.update({
            "outcome": "completed",
            "nodes": int(traj.times.size),
            "accepted": traj.step_stats.accepted,
            "rejected": traj.step_stats.rejected,
            "final_state": _pairs(traj.points[-1]),
            "final_norm": float(traj.norms[-1]),
        })
    _emit(payload, args)
    return 0 if stop is None else 1


def _cmd_sample_gen(args) -> int:
    try:
        space = NormedSpace(args.n, _parse_p(args.p))
        pm = sample_generator(space, args.seed, args.degree, args.atoms)
    except ValueError as exc:
        raise _CliError(2, str(exc))
    _write(map_to_dict(pm), args.output)
    return 0


# -- the per-seed property battery ---------------------------------------------


def _battery(seed: int, args) -> dict:
    dims = (1, 2, 4)
    ps = (1.0, 2.0, math.inf)
    space = NormedSpace(dims[seed % 3], ps[(seed // 3) % 3])
    degree = 2 + seed % 7
    cbud = CertifyBudget(sphere=args.samples or 128, refine_iters=args.refine_iters or 30,
                         seed=seed)
    sbud = SearchBudget(samples=args.samples or 768, refine_iters=args.refine_iters or 40,
                        starts=2, seed=seed)

    G = sample_generator(space, seed, degree)
    verdict = certify_generator(G, cbud, args.cert_tol)
    checks = {"generator_certified": verdict.verdict == "certified"}

    agree = restriction_agreement(G, v_count=4, seed=seed, verdict=verdict)
    checks["restriction_agreement"] = bool(agree["agree"])

    # perturbed counterpart: adding kappa * id overwhelms the sampled slack
    V = space.sphere_sample(32, seed)
    probe = (np.array([0.5, 0.9])[:, None, None] * V).reshape(-1, space.dim)
    kappa = (max(0.0, float(np.max(generator_slack(G, probe)))) + 1.0) / 0.25
    bad = shift_to_generator(G, 0.0, -kappa)
    bad_verdict = certify_generator(bad, cbud, args.cert_tol)
    checks["perturbed_refuted"] = bad_verdict.verdict == "refuted"
    agree_bad = restriction_agreement(bad, v_count=4, seed=seed, verdict=bad_verdict)
    checks["perturbed_agreement"] = bool(agree_bad["agree"])

    ld = linear_dissipation_check(G, v_count=128, seed=seed, verdict=verdict)
    checks["linear_dissipation"] = bool(ld["passed"])

    car = caratheodory_check(herglotz_sample(seed), order=16)
    checks["caratheodory"] = bool(car["passed"])

    growth = verify_growth_bound(G, generator_certificate(G, verdict),
                                 budget=sbud, tolerance=args.bound_tol)
    chain = verify_intermediate_chain(G, budget=sbud, v_count=32, seed=seed,
                                      inputs=growth.inputs)
    checks["intermediate_chain"] = bool(chain.passed)
    checks["growth_bound"] = not growth.violated

    sweep = invariance_sweep(G, starts=4, t_end=3.0, rtol=1e-7, seed=seed)
    checks["invariance_sweep"] = bool(sweep["passed"])

    return {
        "seed": seed,
        "dim": space.dim,
        "p": space_to_dict(space)["p"],
        "degree": degree,
        "checks": checks,
        "worst_generator_slack": verdict.worst_slack,
        "chain_min_stage_margin": float(np.min(chain.stage_margins)),
        "growth_min_slack": growth.min_slack,
        "sweep_max_norm": sweep["max_norm"],
        "passed": all(checks.values()),
    }


def _cmd_verify_suite(args) -> int:
    results = [_battery(s, args) for s in range(args.seed, args.seed + args.seeds)]
    all_passed = all(r["passed"] for r in results)
    payload = {
        "command": "verify-suite",
        "seeds": args.seeds,
        "first_seed": args.seed,
        "results": results,
        "all_passed": all_passed,
    }
    _emit(payload, args)
    return 0 if all_passed else 1


# -- argument wiring -------------------------------------------------------------


# add_argument keywords of the flags that several subcommands share
_SHARED = {
    ("--seed",): dict(type=int, help="stream seed (default: HOLOGEN_SEED or 0)"),
    ("-o", "--output"): dict(help="write the report here"),
    ("--no-timestamp",): dict(action="store_true",
                              help="omit the generated_at field for byte-stable output"),
    ("--samples",): dict(type=_positive(int), help="sphere/search sample count override"),
    ("--refine-iters",): dict(type=_positive(int), help="refinement iteration override"),
    ("--cert-tol",): dict(type=_positive(float), default=1e-9),
    ("--bound-tol",): dict(type=_positive(float), default=1e-9),
    ("--rtol",): dict(type=_positive(float), default=1e-9),
    ("--jobs",): dict(type=_positive(int), default=1, help="accepted for compatibility; "
                      "batteries run in order, so it has no effect"),
}

# each handler and the shared flags it reads; _SAMPLING serves every sampling one
_SAMPLING = "--seed -o --no-timestamp --samples --refine-iters"
_COMMANDS = {
    "certify-gen": (_cmd_certify_gen, _SAMPLING + " --cert-tol"),
    "certify-pd": (_cmd_certify_pd, _SAMPLING),
    "numrange": (_cmd_numrange, _SAMPLING),
    "bound": (_cmd_bound, _SAMPLING + " --cert-tol --bound-tol"),
    "flow": (_cmd_flow, "-o --no-timestamp --rtol"),
    "sample-gen": (_cmd_sample_gen, "--seed -o"),  # written through _write: no timestamp
    "verify-suite": (_cmd_verify_suite, _SAMPLING + " --cert-tol --bound-tol --jobs"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hologen",
        description="certify, refute, bound, and flow holomorphic ball maps")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("certify-gen", help="certify or refute the generator inequality")
    sp.add_argument("map", help="map description JSON")

    sp = sub.add_parser("certify-pd", help="fit a pseudo-dissipativity certificate")
    sp.add_argument("map")

    sp = sub.add_parser("numrange", help="numerical range infimum and radius of a matrix")
    sp.add_argument("matrix", help="matrix JSON (rows of numbers or [re, im] pairs)")
    sp.add_argument("--p", default="2")

    sp = sub.add_parser("bound", help="verify the radial growth envelopes")
    sp.add_argument("map")
    sp.add_argument("--curve", default=None, help="write r/lhs/envelope CSV here")

    sp = sub.add_parser("flow", help="integrate dz/dt = G(z)")
    sp.add_argument("map")
    sp.add_argument("--z0", required=True,
                    help="start point JSON, numbers or [re, im] pairs")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--csv", default=None, help="write the trajectory CSV here")

    sp = sub.add_parser("sample-gen", help="emit a seeded random certified generator")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--degree", type=int, default=6)
    sp.add_argument("--p", default="2")
    sp.add_argument("--atoms", type=int, default=2)

    sp = sub.add_parser("verify-suite", help="run the full per-seed property battery")
    sp.add_argument("--seeds", type=_positive(int), default=3)

    for name, (_, takes) in _COMMANDS.items():
        for options, kwargs in _SHARED.items():
            if options[0] in takes.split():
                sub.choices[name].add_argument(*options, **kwargs)
    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if "seed" in args:
            args.seed = _resolve_seed(args.seed)
        return _COMMANDS[args.command][0](args)
    except SystemExit as exc:  # argparse has printed usage or help
        return 0 if exc.code in (0, None) else 2
    except _CliError as exc:
        code, message = exc.code, exc
    except (OracleMismatchError, NotCertifiedError) as exc:
        code, message = 1, exc
    except ValueError as exc:
        code, message = 2, exc
    print(f"hologen: {message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
