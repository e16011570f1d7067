"""Command-line front end.

Each subcommand runs one module pipeline on a JSON config (or the
built-in toy problems), writes its CSV/JSON outputs plus a run.json
manifest, and exits 0 on success, 1 on a validation problem, 2 when a
solver ran out of budget (partial outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .energy import LdGSystem
from .errors import ConfigError, NoConvergence, SolveError, ValidationError
from .field import seed_field
from .fieldio import (
    RunConfig,
    _write_vector_csv,
    load_config,
    read_field,
    write_branches,
    write_field,
    write_hedgehog,
    write_landscape,
    write_manifest,
    write_mep_summary,
    write_path_nodes,
    write_trajectory,
)
from .hedgehog import solve_profile
from .hisd import _TOL_X, LandscapeOptions, SaddleOptions, build_landscape, find_saddle, make_record
from .maier_saupe import leslie_coefficients, solve_branches
from .mep import find_mep
from .minimize import MinimizeOptions, certify_stability, minimize
from .qtensor import BulkParams
from .sav import flow_to_equilibrium, sav_split, semi_implicit_step
from .toys import DoubleWell2D, Quartic2D

__all__ = ["main"]


def _require_config(args) -> RunConfig:
    if not getattr(args, "config", None):
        raise ConfigError("this subcommand needs --config (or --toy where supported)")
    return load_config(args.config)


def _out_dir(args, cfg: RunConfig | None) -> Path:
    out = Path(args.out or (cfg.out_dir if cfg else "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n")


def cmd_minimize(args) -> int:
    cfg = _require_config(args)
    out = _out_dir(args, cfg)
    t0 = time.perf_counter()
    domain = cfg.domain()
    system = LdGSystem(domain)
    init = seed_field(domain, cfg.init, cfg.seed)
    res = minimize(system, init.flat, MinimizeOptions(tol_grad=cfg.tol))
    write_field(out / "field.csv", system.field(res.x))
    _json_dump(
        out / "minimize.json",
        {
            "energy": res.energy,
            "grad_inf_norm": res.grad_inf,
            "iterations": res.iterations,
            "n_energy": res.n_energy,
            "n_grad": res.n_grad,
            "converged": res.converged,
        },
    )
    write_manifest(
        out,
        "minimize",
        cfg.to_dict(),
        {"tol": cfg.tol},
        time.perf_counter() - t0,
        ["field.csv", "minimize.json", "run.json"],
    )
    print(f"minimize: energy={res.energy:.12g} grad_inf={res.grad_inf:.3e} converged={res.converged}")
    return 0 if res.converged else 2


def cmd_flow(args) -> int:
    cfg = _require_config(args)
    out = _out_dir(args, cfg)
    t0 = time.perf_counter()
    domain = cfg.domain()
    init = seed_field(domain, cfg.init, cfg.seed)
    trace: list = []
    try:
        if cfg.scheme == "semi_implicit":
            f, steps = _run_semi_implicit(init, cfg, trace)
        else:
            f, steps = flow_to_equilibrium(
                init, cfg.dt, tol_grad=cfg.tol, max_steps=cfg.max_steps, trace=trace
            )
    except NoConvergence as err:
        write_trajectory(out / "trajectory.csv", trace)
        write_manifest(
            out,
            "flow",
            cfg.to_dict(),
            {"tol": cfg.tol, "dt": cfg.dt},
            time.perf_counter() - t0,
            ["trajectory.csv", "run.json"],
        )
        print(f"flow: {err}", file=sys.stderr)
        return 2
    system = LdGSystem(domain)
    rep = certify_stability(system, f.flat, tol_grad=cfg.tol)
    write_field(out / "field.csv", f)
    write_trajectory(out / "trajectory.csv", trace)
    _json_dump(
        out / "flow.json",
        {
            "steps": steps,
            "energy": f.energy(),
            "lambda1": float(rep.eigenvalues[0]),
            "stable": bool(rep.stable),
        },
    )
    write_manifest(
        out,
        "flow",
        cfg.to_dict(),
        {"tol": cfg.tol, "dt": cfg.dt},
        time.perf_counter() - t0,
        ["field.csv", "trajectory.csv", "flow.json", "run.json"],
    )
    print(
        f"flow: steps={steps} energy={f.energy():.12g} "
        f"lambda1={float(rep.eigenvalues[0]):.6g} stable={bool(rep.stable)}"
    )
    return 0


def _run_semi_implicit(init, cfg: RunConfig, trace: list):
    # the modified-energy column repeats the true energy: the stabilized
    # scheme has no auxiliary scalar
    split = sav_split(init.domain)
    f = init
    g = float(np.abs(init.domain.gradient(f.values)).max())
    trace.append((0, 0.0, f.energy(), f.energy(), g))
    if g < cfg.tol:
        return f, 0
    for k in range(1, cfg.max_steps + 1):
        f = semi_implicit_step(f, cfg.dt, split)
        g = float(np.abs(init.domain.gradient(f.values)).max())
        e = f.energy()
        trace.append((k, k * cfg.dt, e, e, g))
        if g < cfg.tol:
            return f, k
    raise NoConvergence(
        f"gradient inf-norm {g:.3e} above {cfg.tol:.3e} after {cfg.max_steps} steps",
        iterations=cfg.max_steps,
        residual=g,
    )


def cmd_string(args) -> int:
    t0 = time.perf_counter()
    if args.toy:
        cfg = None
        out = _out_dir(args, None)
        system = DoubleWell2D()
        a = np.array([-1.0, 0.0])
        b = np.array([1.0, 0.0])
        result = find_mep(a, b, n_nodes=args.n_nodes, tol=args.tol, system=system)
        domain = None
        inputs = {"toy": "double-well", "n_nodes": args.n_nodes, "tol": args.tol}
        tol = args.tol
    else:
        cfg = _require_config(args)
        if not args.field_a or not args.field_b:
            raise ConfigError("string needs --field-a and --field-b snapshots (or --toy)")
        out = _out_dir(args, cfg)
        domain = cfg.domain()
        fa = read_field(args.field_a, domain)
        fb = read_field(args.field_b, domain)
        result = find_mep(fa, fb, n_nodes=cfg.n_nodes, tol=cfg.tol, seed=cfg.seed)
        inputs = cfg.to_dict()
        tol = cfg.tol
    names = write_path_nodes(out, result.path, domain)
    write_mep_summary(out / "summary.json", result)
    write_manifest(
        out,
        "string",
        inputs,
        {"tol": tol},
        time.perf_counter() - t0,
        names + ["summary.json", "run.json"],
    )
    print(
        f"string: barrier_forward={result.barrier_forward:.12g} "
        f"barrier_backward={result.barrier_backward:.12g} ts_lambda1={result.ts_lambda1:.6g}"
    )
    return 0


def cmd_saddle(args) -> int:
    t0 = time.perf_counter()
    if args.toy:
        cfg = None
        out = _out_dir(args, None)
        system = Quartic2D()
        x0 = np.array([0.3, -0.25]) if args.k >= 2 else np.array([0.2, 0.8])
        domain = None
        inputs = {"toy": "quartic", "k": args.k}
        tol = args.tol
        rec = find_saddle(system, args.k, x0, opts=SaddleOptions(tol_grad=args.tol, seed=args.seed))
    else:
        cfg = _require_config(args)
        out = _out_dir(args, cfg)
        domain = cfg.domain()
        system = LdGSystem(domain)
        if args.init:
            x0 = read_field(args.init, domain).flat
        else:
            x0 = seed_field(domain, cfg.init, cfg.seed).flat
        inputs = cfg.to_dict()
        tol = cfg.tol
        rec = find_saddle(
            system, cfg.k, x0, opts=SaddleOptions(tol_grad=cfg.tol, seed=cfg.seed)
        )
    if domain is not None:
        write_field(out / "field.csv", system.field(rec.field))
    else:
        _write_vector_csv(out / "field.csv", rec.field)
    _json_dump(
        out / "saddle.json",
        {
            "energy": rec.energy,
            "morse_index": rec.morse_index,
            "lambda_spectrum": list(rec.lambda_spectrum),
            "grad_inf_norm": rec.grad_inf,
        },
    )
    write_manifest(
        out,
        "saddle",
        inputs,
        {"tol": tol},
        time.perf_counter() - t0,
        ["field.csv", "saddle.json", "run.json"],
    )
    print(f"saddle: index={rec.morse_index} energy={rec.energy:.12g} grad_inf={rec.grad_inf:.3e}")
    return 0


def cmd_landscape(args) -> int:
    t0 = time.perf_counter()
    if args.toy:
        out = _out_dir(args, None)
        system = Quartic2D()
        # the toy's top is analytic; a searched seed lands 1e-9 off it,
        # which rotates the degenerate (-4 I) eigenbasis arbitrarily and
        # hides the axis-aligned saddles from the downward sweep
        seed_rec = make_record(system, np.array(Quartic2D.TOP), k_hint=2)
        opts = LandscapeOptions(search=SaddleOptions(seed=args.seed))
        graph = build_landscape(system, seed_rec, opts)
        domain = None
        inputs = {"toy": "quartic"}
        tol = {"tol_x": _TOL_X}
    else:
        cfg = _require_config(args)
        out = _out_dir(args, cfg)
        domain = cfg.domain()
        system = LdGSystem(domain)
        init = seed_field(domain, cfg.init, cfg.seed)
        res = minimize(system, init.flat, MinimizeOptions(tol_grad=cfg.tol))
        if not res.converged:
            raise NoConvergence(
                "landscape seed minimization stalled",
                iterations=res.iterations,
                residual=res.grad_inf,
            )
        seed_rec = make_record(system, res.x, tol_grad=cfg.tol, seed=cfg.seed)
        opts = LandscapeOptions(
            search=SaddleOptions(tol_grad=cfg.tol, seed=cfg.seed),
            max_nodes=cfg.max_nodes,
            max_searches=cfg.max_searches,
            max_index=cfg.max_index,
        )
        graph = build_landscape(system, seed_rec, opts)
        inputs = cfg.to_dict()
        tol = {"tol": cfg.tol, "tol_x": _TOL_X}
    names = write_landscape(out, graph, domain)
    write_manifest(
        out, "landscape", inputs, tol, time.perf_counter() - t0, names + ["run.json"]
    )
    print(
        f"landscape: nodes={len(graph.nodes)} edges={len(graph.edges)} "
        f"searches={graph.searches} failed={len(graph.failed)} truncated={graph.truncated}"
    )
    return 0


def cmd_maier_saupe(args) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args, None)
    if args.alpha is None:
        raise ConfigError("maier-saupe needs --alpha")
    points = solve_branches(args.alpha)
    write_branches(out / "branches.csv", args.alpha, points)
    outputs = ["branches.csv", "run.json"]
    if args.gamma1 is not None:
        leslie = {
            p.branch: asdict(leslie_coefficients(p.s2, p.s4, args.gamma1)) for p in points
        }
        _json_dump(out / "leslie.json", leslie)
        outputs.append("leslie.json")
    write_manifest(
        out,
        "maier-saupe",
        {"alpha": args.alpha, "gamma1": args.gamma1},
        {"residual": 1e-10},
        time.perf_counter() - t0,
        outputs,
    )
    print(f"maier-saupe: alpha={args.alpha:g} branches={len(points)}")
    return 0


def cmd_hedgehog(args) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args, None)
    p = BulkParams(args.a, args.b, args.c)
    prof = solve_profile(p, R=args.radius, N=args.n_intervals)
    write_hedgehog(out / "hedgehog.csv", prof)
    write_manifest(
        out,
        "hedgehog",
        {"a": args.a, "b": args.b, "c": args.c, "R": args.radius, "N": args.n_intervals},
        {"residual": 1e-8},
        time.perf_counter() - t0,
        ["hedgehog.csv", "run.json"],
    )
    print(f"hedgehog: residual={prof.residual:.3e} s_plus={prof.s_plus:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nematicq",
        description="Stable states, saddle points, transition paths, and "
        "solution landscapes of the Landau-de Gennes model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, toy=False):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--n-nodes", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_string)

    p = sub.add_parser("saddle", help="index-k saddle search")
    common(p, toy=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--init", help="snapshot CSV to start from")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_saddle)

    p = sub.add_parser("landscape", help="breadth-first solution landscape")
    common(p, toy=True)
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("maier-saupe", help="homogeneous branch structure and viscosities")
    common(p)
    p.add_argument("--alpha", type=float, help="interaction strength")
    p.add_argument("--gamma1", type=float, help="rotational viscosity for Leslie output")
    p.set_defaults(func=cmd_maier_saupe)

    p = sub.add_parser("hedgehog", help="radial defect profile boundary value problem")
    common(p)
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--radius", "-R", type=float, default=10.0)
    p.add_argument("--n-intervals", "-N", type=int, default=128)
    p.set_defaults(func=cmd_hedgehog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoConvergence as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SolveError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
