"""Command-line front end.

Subcommands: certify-gen, certify-pd, numrange, bound, flow, sample-gen,
and verify-suite (the full per-seed property battery). JSON in, JSON or
CSV out. Exit codes: 0 when checks pass or a clean verdict is emitted,
1 when a violation, refutation, or inconclusive budget is found, 2 on
usage or input errors.

Reports are deterministic for a fixed seed; pass --no-timestamp to drop
the one non-deterministic field. The HOLOGEN_SEED environment variable
supplies the default seed, an explicit --seed flag wins.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bounds import generator_certificate, verify_growth_bound, verify_intermediate_chain
from .certify import (CertifyBudget, NotCertifiedError, caratheodory_check,
                      certificate_to_dict, certify_generator,
                      certify_pseudo_dissipative, generator_slack,
                      linear_dissipation_check, restriction_agreement,
                      shift_to_generator, verdict_to_dict)
from .flows import BallEscapeError, StepUnderflowError, integrate, invariance_sweep, trajectory_to_csv
from .numrange import (OracleMismatchError, SearchBudget, harris_check,
                       numerical_radius, numerical_range_inf)
from .polymaps import herglotz_sample, map_from_dict, map_to_dict, sample_generator
from .spaces import NormedSpace, _shell_grid, space_to_dict


class _CliError(Exception):
    """Carries the exit code and message for expected failures."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command, paths, seed, budgets, tolerances."""

    command: str
    input_path: str | None
    seed: int
    budgets: tuple  # (samples, refinement_iters)
    tolerances: tuple  # (cert_tol, bound_tol, rtol)
    output_path: str | None
    no_timestamp: bool = False
    jobs: int = 1

    def __post_init__(self):
        if any(v is not None and v <= 0 for v in self.budgets):
            raise ValueError("budgets must be positive")
        if any(t <= 0 for t in self.tolerances):
            raise ValueError("tolerances must be positive")
        if self.jobs < 1:
            raise ValueError("--jobs must be >= 1")


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


def _emit(payload: dict, cfg: RunConfig) -> None:
    if not cfg.no_timestamp:
        payload = {**payload, "generated_at": datetime.now(timezone.utc).isoformat()}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.output_path:
        Path(cfg.output_path).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_p(raw: str) -> float:
    if raw in ("inf", "Inf", "INF", "infinity"):
        return math.inf
    try:
        return float(raw)
    except ValueError:
        raise _CliError(2, f"--p must be a number or 'inf', got {raw!r}")


def _certify_budget(cfg: RunConfig) -> CertifyBudget:
    samples, iters = cfg.budgets
    return CertifyBudget(sphere=samples or 128, refine_iters=iters or 40, seed=cfg.seed)


def _search_budget(cfg: RunConfig, samples_default: int = 2048,
                   iters_default: int = 120, starts: int = 4) -> SearchBudget:
    samples, iters = cfg.budgets
    return SearchBudget(samples=samples or samples_default,
                        refine_iters=iters or iters_default,
                        starts=starts, seed=cfg.seed)


# -- subcommands ---------------------------------------------------------------


def _cmd_certify_gen(args, cfg: RunConfig) -> int:
    G = _load_map(args.map)
    verdict = certify_generator(G, _certify_budget(cfg), cfg.tolerances[0])
    payload = {"command": "certify-gen", "input": args.map, **verdict_to_dict(verdict)}
    _emit(payload, cfg)
    return 0 if verdict.verdict == "certified" else 1


def _cmd_certify_pd(args, cfg: RunConfig) -> int:
    F = _load_map(args.map)
    if not 0.0 < args.epsilon < 1.0:
        raise _CliError(2, f"--epsilon must lie in (0, 1), got {args.epsilon}")
    cert = certify_pseudo_dissipative(F, args.epsilon, _certify_budget(cfg),
                                      cfg.tolerances[0])
    payload = {"command": "certify-pd", "input": args.map, **certificate_to_dict(cert)}
    _emit(payload, cfg)
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
            if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                out[i, j] = complex(cell)
            elif (isinstance(cell, list) and len(cell) == 2
                  and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in cell)):
                out[i, j] = complex(cell[0], cell[1])
            else:
                raise _CliError(2, f"{where}: entry [{i}][{j}] must be a number "
                                   f"or a [re, im] pair, got {cell!r}")
    return out


def _cmd_numrange(args, cfg: RunConfig) -> int:
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
    budget = _search_budget(cfg)
    m_est = numerical_range_inf(space, A, budget)
    v_est = numerical_radius(space, A, budget)
    payload = {
        "command": "numrange",
        "input": args.matrix,
        "dim": space.dim,
        "p": space_to_dict(space)["p"],
        "m": m_est.value,
        "V": v_est.value,
        "samples": m_est.samples,
    }
    _emit(payload, cfg)
    return 0


def _cmd_bound(args, cfg: RunConfig) -> int:
    F = _load_map(args.map)
    cert_tol, bound_tol, _ = cfg.tolerances
    cbud = _certify_budget(cfg)
    verdict = certify_generator(F, cbud, cert_tol)
    if verdict.verdict == "certified":
        cert = generator_certificate(F, cbud, cert_tol)
        mode = "generator"
    else:
        cert = certify_pseudo_dissipative(F, 0.1, cbud, cert_tol)
        mode = "pseudo-dissipative"
        if cert.verdict != "certified":
            _emit({"command": "bound", "input": args.map, "mode": mode,
                   "verdict": cert.verdict,
                   "detail": "no certificate, growth bound not evaluated"}, cfg)
            return 1
    report = verify_growth_bound(F, cert, budget=_search_budget(cfg),
                                 tolerance=bound_tol)
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
    _emit(payload, cfg)
    return 1 if report.violated else 0


def _parse_start(raw: str, dim: int) -> np.ndarray:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _CliError(2, f"--z0 is not valid JSON: {exc.msg}")
    if not isinstance(data, list) or len(data) != dim:
        raise _CliError(2, f"--z0 must be a JSON list of {dim} entries")
    out = np.zeros(dim, dtype=np.complex128)
    for i, cell in enumerate(data):
        if isinstance(cell, (int, float)) and not isinstance(cell, bool):
            out[i] = complex(cell)
        elif (isinstance(cell, list) and len(cell) == 2
              and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in cell)):
            out[i] = complex(cell[0], cell[1])
        else:
            raise _CliError(2, f"--z0 entry {i} must be a number or [re, im] pair")
    return out


def _cmd_flow(args, cfg: RunConfig) -> int:
    G = _load_map(args.map)
    z0 = _parse_start(args.z0, G.space.dim)
    if args.t < 0.0:
        raise _CliError(2, f"--t must be nonnegative, got {args.t}")
    rtol = cfg.tolerances[2]
    payload = {"command": "flow", "input": args.map, "t_end": args.t, "rtol": rtol}
    try:
        traj = integrate(G, z0, args.t, rtol)
    except ValueError as exc:
        raise _CliError(2, str(exc))
    except BallEscapeError as exc:
        if args.csv:
            Path(args.csv).write_text(trajectory_to_csv(exc.trajectory))
        payload.update({
            "outcome": "invariance-violation",
            "escape_time": exc.time,
            "escape_state": [[float(x.real), float(x.imag)] for x in exc.state],
        })
        _emit(payload, cfg)
        return 1
    except StepUnderflowError as exc:
        if args.csv:
            Path(args.csv).write_text(trajectory_to_csv(exc.trajectory))
        payload.update({"outcome": "singular-drift", "failure_time": exc.time})
        _emit(payload, cfg)
        return 1
    if args.csv:
        Path(args.csv).write_text(trajectory_to_csv(traj))
        payload["csv"] = args.csv
    payload.update({
        "outcome": "completed",
        "nodes": int(traj.times.size),
        "accepted": traj.step_stats.accepted,
        "rejected": traj.step_stats.rejected,
        "final_state": [[float(x.real), float(x.imag)] for x in traj.points[-1]],
        "final_norm": float(traj.norms[-1]),
    })
    _emit(payload, cfg)
    return 0


def _cmd_sample_gen(args, cfg: RunConfig) -> int:
    try:
        space = NormedSpace(args.n, _parse_p(args.p))
        pm = sample_generator(space, cfg.seed, args.degree, args.atoms)
    except ValueError as exc:
        raise _CliError(2, str(exc))
    text = json.dumps(map_to_dict(pm), indent=2, sort_keys=True) + "\n"
    if cfg.output_path:
        Path(cfg.output_path).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# -- the per-seed property battery ---------------------------------------------


def _battery(seed: int, cfg: RunConfig) -> dict:
    dims = (1, 2, 4)
    ps = (1.0, 2.0, math.inf)
    space = NormedSpace(dims[seed % 3], ps[(seed // 3) % 3])
    degree = 2 + seed % 7
    cert_tol = cfg.tolerances[0]
    samples, iters = cfg.budgets
    cbud = CertifyBudget(sphere=samples or 128, refine_iters=iters or 30, seed=seed)
    sbud = SearchBudget(samples=samples or 768, refine_iters=iters or 40,
                        starts=2, seed=seed)

    G = sample_generator(space, seed, degree)
    verdict = certify_generator(G, cbud, cert_tol)
    checks = {"generator_certified": verdict.verdict == "certified"}

    agree = restriction_agreement(G, v_count=4, budget=cbud, disc_budget=cbud)
    checks["restriction_agreement"] = bool(agree["agree"])

    # perturbed counterpart: adding kappa * id overwhelms the sampled slack
    shells = np.array([0.5, 0.9])
    V = space.sphere_sample(32, seed)
    probe = _shell_grid(shells, V)
    kappa = (max(0.0, float(np.max(generator_slack(G, probe)))) + 1.0) / 0.25
    bad = shift_to_generator(G, 0.0, -kappa)
    bad_verdict = certify_generator(bad, cbud, cert_tol)
    checks["perturbed_refuted"] = bad_verdict.verdict == "refuted"
    agree_bad = restriction_agreement(bad, v_count=4, budget=cbud, disc_budget=cbud)
    checks["perturbed_agreement"] = bool(agree_bad["agree"])

    ld = linear_dissipation_check(G, v_count=128, seed=seed, verdict=verdict)
    checks["linear_dissipation"] = bool(ld["passed"])

    car = caratheodory_check(herglotz_sample(seed), order=16)
    checks["caratheodory"] = bool(car["passed"])

    target = G.part_of_degree(2) or (G.higher[0] if G.higher else G.linear)
    harris = harris_check(space, target, sbud)
    checks["harris"] = bool(harris["passed"])

    chain = verify_intermediate_chain(G, budget=sbud, v_count=32, seed=seed,
                                      verdict=verdict)
    checks["intermediate_chain"] = bool(chain.passed)

    growth = verify_growth_bound(G, generator_certificate(G, cbud, cert_tol),
                                 budget=sbud, tolerance=cfg.tolerances[1])
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


def _cmd_verify_suite(args, cfg: RunConfig) -> int:
    if args.seeds < 1:
        raise _CliError(2, f"--seeds must be >= 1, got {args.seeds}")
    seeds = list(range(cfg.seed, cfg.seed + args.seeds))
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(lambda s: _battery(s, cfg), seeds))
    else:
        results = [_battery(s, cfg) for s in seeds]
    all_passed = all(r["passed"] for r in results)
    payload = {
        "command": "verify-suite",
        "seeds": args.seeds,
        "first_seed": cfg.seed,
        "results": results,
        "all_passed": all_passed,
    }
    _emit(payload, cfg)
    return 0 if all_passed else 1


# -- argument wiring -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="stream seed (default: HOLOGEN_SEED or 0)")
    common.add_argument("-o", "--output", default=None, help="write the report here")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the generated_at field for byte-stable output")
    common.add_argument("--jobs", type=int, default=1, help="worker cap for batteries")
    common.add_argument("--samples", type=int, default=None,
                        help="sphere/search sample count override")
    common.add_argument("--refine-iters", type=int, default=None,
                        help="refinement iteration override")
    common.add_argument("--cert-tol", type=float, default=1e-9)
    common.add_argument("--bound-tol", type=float, default=1e-9)
    common.add_argument("--rtol", type=float, default=1e-9)

    parser = argparse.ArgumentParser(
        prog="hologen",
        description="certify, refute, bound, and flow holomorphic ball maps")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("certify-gen", parents=[common],
                        help="certify or refute the generator inequality")
    sp.add_argument("map", help="map description JSON")

    sp = sub.add_parser("certify-pd", parents=[common],
                        help="fit a pseudo-dissipativity certificate")
    sp.add_argument("map")
    sp.add_argument("--epsilon", type=float, default=0.1)

    sp = sub.add_parser("numrange", parents=[common],
                        help="numerical range infimum and radius of a matrix")
    sp.add_argument("matrix", help="matrix JSON (rows of numbers or [re, im] pairs)")
    sp.add_argument("--p", default="2")

    sp = sub.add_parser("bound", parents=[common],
                        help="verify the radial growth envelopes")
    sp.add_argument("map")
    sp.add_argument("--curve", default=None, help="write r/lhs/envelope CSV here")

    sp = sub.add_parser("flow", parents=[common], help="integrate dz/dt = G(z)")
    sp.add_argument("map")
    sp.add_argument("--z0", required=True,
                    help="start point JSON, numbers or [re, im] pairs")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--csv", default=None, help="write the trajectory CSV here")

    sp = sub.add_parser("sample-gen", parents=[common],
                        help="emit a seeded random certified generator")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--degree", type=int, default=6)
    sp.add_argument("--p", default="2")
    sp.add_argument("--atoms", type=int, default=2)

    sp = sub.add_parser("verify-suite", parents=[common],
                        help="run the full per-seed property battery")
    sp.add_argument("--seeds", type=int, default=3)
    return parser


_HANDLERS = {
    "certify-gen": _cmd_certify_gen,
    "certify-pd": _cmd_certify_pd,
    "numrange": _cmd_numrange,
    "bound": _cmd_bound,
    "flow": _cmd_flow,
    "sample-gen": _cmd_sample_gen,
    "verify-suite": _cmd_verify_suite,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = RunConfig(
            command=args.command,
            input_path=getattr(args, "map", None) or getattr(args, "matrix", None),
            seed=_resolve_seed(args.seed),
            budgets=(args.samples, args.refine_iters),
            tolerances=(args.cert_tol, args.bound_tol, args.rtol),
            output_path=args.output,
            no_timestamp=args.no_timestamp,
            jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"hologen: {exc}", file=sys.stderr)
        return 2
    except _CliError as exc:
        print(f"hologen: {exc}", file=sys.stderr)
        return exc.code
    try:
        return _HANDLERS[args.command](args, cfg)
    except _CliError as exc:
        print(f"hologen: {exc}", file=sys.stderr)
        return exc.code
    except (OracleMismatchError, NotCertifiedError) as exc:
        print(f"hologen: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"hologen: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
