"""Command-line front end.

Each subcommand runs one module pipeline on a JSON config (or the
built-in toy problems), writes its CSV/JSON outputs plus a run.json
manifest, and exits 0 on success, 1 on a validation problem, 2 when a
solver ran out of budget (partial outputs and run.json are still
written).  A flag given on the command line overrides the config key of
the same name.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace

import numpy as np

from .energy import LdGSystem
from .errors import ConfigError, NoConvergence, SolveError, ValidationError
from .field import seed_field
from .fieldio import (
    RunConfig,
    RunContext,
    _snapshot,
    load_config,
    read_field,
    write_branches,
    write_field,
    write_hedgehog,
    write_json,
    write_landscape,
    write_mep_summary,
    write_path_nodes,
    write_trajectory,
)
from .hedgehog import _TOL as _PROFILE_TOL, solve_profile
from .hisd import (
    _TOL_X,
    LandscapeOptions,
    SaddleOptions,
    build_landscape,
    classify_stationary,
    find_saddle,
    make_record,
)
from .maier_saupe import _ETA_RTOL, _ETA_XTOL, leslie_coefficients, solve_branches
from .mep import _climb_tolerance, find_mep
from .minimize import MinimizeOptions, minimize
from .qtensor import BulkParams
from .sav import flow_to_equilibrium, step_ladder
from .toys import DoubleWell2D, Quartic2D

__all__ = ["main"]

# flags that set the config key of the same name (--out sets out_dir)
_KEY_FLAGS = ("out_dir", "seed", "tol", "n_nodes", "k")


def _positive(text: str) -> float:
    """argparse type of a tolerance, radius or viscosity: a finite number above zero."""
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _given(args) -> dict:
    """The config keys set by flags on the command line."""
    return {key: getattr(args, key) for key in _KEY_FLAGS if getattr(args, key, None) is not None}


def _config(args) -> RunConfig:
    if not getattr(args, "config", None):
        raise ConfigError("this subcommand needs --config (or --toy where supported)")
    return replace(load_config(args.config), **_given(args))


def _settings(args, toy: str, **defaults) -> tuple[RunConfig | None, dict]:
    """The run's config, None for a built-in toy run, and the settings its run.json
    records: the config's keys, or for the toy `defaults` under the flags given."""
    if not args.toy:
        cfg = _config(args)
        return cfg, cfg.to_dict()
    if args.seed is not None:
        raise ConfigError("--seed applies to config runs only; a toy run draws nothing")
    return None, {"toy": toy, "out_dir": "out", **defaults, **_given(args)}


def _minimized_seed(cfg: RunConfig, system: LdGSystem, record=None):
    """``minimize`` from the config's seed field to cfg.tol.  ``record(res)``,
    when given, writes the command's outputs first; a minimization that
    stops short of cfg.tol then raises NoConvergence."""
    init = seed_field(system.domain, cfg.init, cfg.seed)
    res = minimize(system, init.flat, MinimizeOptions(tol_grad=cfg.tol))
    if record is not None:
        record(res)
    if not res.converged:
        raise NoConvergence(
            f"seed minimization stalled: gradient inf-norm {res.grad_inf:.3e} above {cfg.tol:.3e}",
            iterations=res.iterations,
            residual=res.grad_inf,
        )
    return res


def cmd_minimize(args) -> int:
    cfg = _config(args)
    with RunContext(cfg.out_dir, "minimize", cfg.to_dict(), {"tol": cfg.tol}) as run:
        system = LdGSystem(cfg.domain())

        def record(res):
            write_field(run.path("field.csv"), system.field(res.x))
            write_json(
                run.path("minimize.json"),
                {
                    "energy": res.energy,
                    "grad_inf_norm": res.grad_inf,
                    "iterations": res.iterations,
                    "n_energy": res.n_energy,
                    "n_grad": res.n_grad,
                    "converged": res.converged,
                },
            )
            print(f"minimize: energy={res.energy:.12g} grad_inf={res.grad_inf:.3e} converged={res.converged}")

        _minimized_seed(cfg, system, record)
    return 0


def cmd_flow(args) -> int:
    cfg = _config(args)
    with RunContext(cfg.out_dir, "flow", cfg.to_dict(), {"tol": cfg.tol, "dt": cfg.dt}) as run:
        init = seed_field(cfg.domain(), cfg.init, cfg.seed)
        trace: list = []
        try:
            f, steps = flow_to_equilibrium(init, cfg.dt, tol_grad=cfg.tol, max_steps=cfg.max_steps, trace=trace)
        finally:
            write_trajectory(run.path("trajectory.csv"), trace)
        # the flow has just met cfg.tol, so the certificate can demand it
        index, spectrum, _ = classify_stationary(LdGSystem(f.domain), f.flat, tol_grad=cfg.tol)
        lambda1, stable = float(spectrum[0]), index == 0
        rungs = step_ladder(f.domain, cfg.dt)
        write_field(run.path("field.csv"), f)
        # one trace row per state: the start, each SAV step, each Newton step
        newton_steps = len(trace) - 1 - steps
        summary = {"steps": steps, "newton_steps": newton_steps, "time": trace[-1][1]}
        summary["step_range"] = [cfg.dt * 2.0**j for j in (rungs[0], rungs[-1])]
        write_json(run.path("flow.json"), summary | {"energy": f.energy(), "lambda1": lambda1, "stable": stable})
    print(
        f"flow: steps={steps} newton_steps={newton_steps} energy={f.energy():.12g} "
        f"lambda1={lambda1:.6g} stable={stable}"
    )
    return 0


def cmd_string(args) -> int:
    cfg, settings = _settings(args, "double-well", n_nodes=16, tol=1e-6)
    tolerances = {"tol": settings["tol"], "ts_tol": _climb_tolerance(settings["tol"])}
    with RunContext(settings["out_dir"], "string", settings, tolerances) as run:
        if args.toy:
            domain, system = None, DoubleWell2D()
            a, b = np.array([-1.0, 0.0]), np.array([1.0, 0.0])
        else:
            if not args.field_a or not args.field_b:
                raise ConfigError("string needs --field-a and --field-b snapshots (or --toy)")
            domain, system = cfg.domain(), None
            a, b = read_field(args.field_a, domain), read_field(args.field_b, domain)
        result = find_mep(a, b, n_nodes=settings["n_nodes"], tol=settings["tol"], system=system)
        run.add(write_path_nodes(run.out, result.path, domain))
        write_mep_summary(run.path("summary.json"), result)
    print(
        f"string: barrier_forward={result.barrier_forward:.12g} "
        f"barrier_backward={result.barrier_backward:.12g} ts_lambda1={result.ts_lambda1:.6g} sweeps={result.sweeps}"
    )
    return 0


def cmd_saddle(args) -> int:
    cfg, settings = _settings(args, "quartic", k=1, tol=1e-8)
    k, tol = settings["k"], settings["tol"]
    with RunContext(settings["out_dir"], "saddle", settings, {"tol": tol}) as run:
        if args.toy:
            domain, system = None, Quartic2D()
            x0 = np.array([0.3, -0.25]) if k >= 2 else np.array([0.2, 0.8])
        else:
            domain = cfg.domain()
            system = LdGSystem(domain)
            if args.init:
                x0 = read_field(args.init, domain).flat
            else:
                x0 = seed_field(domain, cfg.init, cfg.seed).flat
        rec = find_saddle(system, k, x0, opts=SaddleOptions(tol_grad=tol))
        _snapshot(run.path("field.csv"), rec.field, domain)
        write_json(
            run.path("saddle.json"),
            {
                "energy": rec.energy,
                "morse_index": rec.morse_index,
                "lambda_spectrum": list(rec.lambda_spectrum),
                "grad_inf_norm": rec.grad_inf,
                "iterations": rec.iterations,
                "newton_steps": rec.newton_steps,
            },
        )
    print(f"saddle: index={rec.morse_index} energy={rec.energy:.12g} grad_inf={rec.grad_inf:.3e}")
    return 0


def cmd_landscape(args) -> int:
    cfg, settings = _settings(args, "quartic")
    opts = LandscapeOptions()
    if cfg is not None:
        opts = LandscapeOptions(
            search=SaddleOptions(tol_grad=cfg.tol),
            max_nodes=cfg.max_nodes,
            max_searches=cfg.max_searches,
            max_index=cfg.max_index,
        )
    tolerances = {"tol": opts.search.tol_grad, "tol_x": _TOL_X}
    with RunContext(settings["out_dir"], "landscape", settings, tolerances) as run:
        if args.toy:
            domain, system = None, Quartic2D()
            # the toy's top is analytic; a searched seed lands 1e-9 off it,
            # which rotates the degenerate (-4 I) eigenbasis arbitrarily and
            # hides the axis-aligned saddles from the downward sweep
            seed_rec = make_record(system, np.array(Quartic2D.TOP), tol_grad=opts.search.tol_grad, k_hint=2)
        else:
            domain = cfg.domain()
            system = LdGSystem(domain)
            seed_rec = make_record(system, _minimized_seed(cfg, system).x, tol_grad=cfg.tol)
            if seed_rec.morse_index == 0 and cfg.max_index is None:
                # downward searches from a minimum find nothing
                raise ConfigError("the seed minimized to an index-0 state; set max_index to search upward from it")
        graph = build_landscape(system, seed_rec, opts)
        run.add(write_landscape(run.out, graph, domain))
    print(
        f"landscape: nodes={len(graph.nodes)} edges={len(graph.edges)} "
        f"searches={graph.searches} branches_run={graph.branches_run} "
        f"failed={len(graph.failed)} truncated={graph.truncated}"
    )
    return 0


def cmd_maier_saupe(args) -> int:
    inputs = {"alpha": args.alpha, "gamma1": args.gamma1}
    tolerances = {"eta_xtol": _ETA_XTOL, "eta_rtol": _ETA_RTOL}
    with RunContext(args.out_dir or "out", "maier-saupe", inputs, tolerances) as run:
        if args.alpha is None:
            raise ConfigError("maier-saupe needs --alpha")
        points = solve_branches(args.alpha)
        write_branches(run.path("branches.csv"), args.alpha, points)
        if args.gamma1 is not None:
            write_json(
                run.path("leslie.json"),
                {p.branch: asdict(leslie_coefficients(p.s2, p.s4, args.gamma1)) for p in points},
            )
    print(f"maier-saupe: alpha={args.alpha:g} branches={len(points)}")
    return 0


def cmd_hedgehog(args) -> int:
    inputs = {"a": args.a, "b": args.b, "c": args.c, "R": args.radius, "N": args.n_intervals}
    with RunContext(args.out_dir or "out", "hedgehog", inputs, {"residual": _PROFILE_TOL}) as run:
        prof = solve_profile(BulkParams(args.a, args.b, args.c), R=args.radius, N=args.n_intervals)
        write_hedgehog(run.path("hedgehog.csv"), prof)
    print(f"hedgehog: residual={prof.residual:.3e} s_plus={prof.s_plus:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nematicq",
        description="Stable states, saddle points, transition paths, and "
        "solution landscapes of the Landau-de Gennes model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag defaults are None: an unset flag leaves its config key (or the
    # toy run's default) alone
    def common(p, config=True, toy=False):
        p.add_argument("--out", dest="out_dir", help="output directory (overrides config out_dir)")
        if config:
            p.add_argument("--config", help="JSON run configuration")
            p.add_argument("--seed", type=int, help="random(sigma) init seed of a config run (overrides config seed)")
        if toy:
            p.add_argument("--toy", action="store_true", help="run the built-in toy problem")

    p = sub.add_parser("minimize", help="quasi-Newton energy minimization")
    common(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("flow", help="gradient flow to equilibrium with stability certificate")
    common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("string", help="minimal energy path between two states")
    common(p, toy=True)
    p.add_argument("--field-a", help="snapshot CSV of the first endpoint")
    p.add_argument("--field-b", help="snapshot CSV of the second endpoint")
    p.add_argument("--n-nodes", type=int, help="string nodes (overrides config n_nodes; toy 16)")
    p.add_argument("--tol", type=_positive, help="string residual (overrides config tol; toy 1e-6)")
    p.set_defaults(func=cmd_string)

    p = sub.add_parser("saddle", help="index-k saddle search")
    common(p, toy=True)
    p.add_argument("--k", type=int, help="target index (overrides config k; toy 1)")
    p.add_argument("--init", help="snapshot CSV to start from")
    p.add_argument("--tol", type=_positive, help="gradient tolerance (overrides config tol; toy 1e-8)")
    p.set_defaults(func=cmd_saddle)

    p = sub.add_parser("landscape", help="breadth-first solution landscape")
    common(p, toy=True)
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("maier-saupe", help="homogeneous branch structure and viscosities")
    common(p, config=False)
    p.add_argument("--alpha", type=float, help="interaction strength")
    p.add_argument("--gamma1", type=_positive, help="rotational viscosity for Leslie output")
    p.set_defaults(func=cmd_maier_saupe)

    p = sub.add_parser("hedgehog", help="radial defect profile boundary value problem")
    common(p, config=False)
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--radius", "-R", type=_positive, default=10.0)
    p.add_argument("--n-intervals", "-N", type=int, default=128)
    p.set_defaults(func=cmd_hedgehog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on a usage error; 2 is reserved for a solver
        # that failed to converge, so a bad command line exits 1
        return 1 if err.code else 0
    try:
        return args.func(args)
    except SolveError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
