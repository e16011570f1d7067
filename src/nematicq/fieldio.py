"""Snapshot, trajectory, and graph persistence.

Everything on disk is plain CSV or JSON meant for external plotting
tools.  Floats are written with 17 significant digits so that write
followed by read reproduces every value bit for bit, and identical
inputs produce byte-identical files.  A snapshot row is its node's
"i,j,x,y" prefix, built once per domain and kept on it, followed by the
five q values formatted with "%.17g"; only those q values are parsed
back as floats, and the rows may come in any order.  A CLI run's
run.json manifest is written by ``RunContext`` when the run ends.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ShapeMismatch
from .field import BOUNDARY_KINDS, Domain, QField, kept_on_domain
from .qtensor import BulkParams

__all__ = [
    "write_field",
    "read_field",
    "write_trajectory",
    "write_profile",
    "write_path_nodes",
    "write_mep_summary",
    "write_landscape",
    "write_branches",
    "write_hedgehog",
    "write_json",
    "RunConfig",
    "load_config",
    "build_id",
    "RunContext",
]


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def write_json(path, payload) -> None:
    """Sorted keys, two-space indent, numpy scalars as floats, trailing newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2, default=float) + "\n")


# ---------------------------------------------------------------------------
# field snapshots


def _header(d: Domain) -> tuple:
    """The domain as a snapshot header states it; a callable boundary is "custom"."""
    boundary = d.boundary if isinstance(d.boundary, str) else "custom"
    return (d.nx, d.ny, d.lambda2, d.bulk.a, d.bulk.b, d.bulk.c, d.l2, d.l3, boundary)


@kept_on_domain
def _row_prefixes(d: Domain) -> list[str]:
    """The "i,j,x,y" cells of every node in write order, kept on the domain."""
    xs, ys = [_g17(x) for x in d.xs], [_g17(y) for y in d.ys]
    return [f"{i},{j},{x},{y}" for i, x in enumerate(xs) for j, y in enumerate(ys)]


def write_field(path, f: QField) -> None:
    """One node per row: i,j,x,y,q1..q5 under a
    "# nx,ny,lambda2,a,b,c,l2,l3,boundary" header."""
    d = f.domain
    nx, ny, *reals, boundary = _header(d)
    head = "# " + ",".join([str(nx), str(ny)] + [_g17(v) for v in reals] + [boundary])
    prefixes = _row_prefixes(d)
    cells = [None] * (6 * len(prefixes))
    cells[0::6] = prefixes
    for k, column in enumerate(f.values.reshape(-1, 5).T.tolist(), start=1):
        cells[k::6] = column
    row = "%s" + ",%.17g" * 5 + "\n"
    body = (row * len(prefixes)) % tuple(cells)
    Path(path).write_text(head + "\n" + body)


def _parse_float(token: str, line_no: int, column: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad float {token!r}", line=line_no, column=column) from None
    if not np.isfinite(value):
        raise ParseError(f"non-finite value {token!r}", line=line_no, column=column)
    return value


def _parse_int(token: str, line_no: int, column: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad integer {token!r}", line=line_no, column=column) from None


def read_field(path, domain: Domain | None = None) -> QField:
    """Inverse of write_field.

    When ``domain`` is given the header must agree with it exactly;
    otherwise a fresh Domain is built from the header, which fails with
    ParseError for a "custom" (callable) boundary.  The older 6-field
    header "# nx,ny,lambda2,a,b,c" is still read: it is checked against
    ``domain`` on those fields only, and without a domain it stands for
    L2 = L3 = 0 and the tangent boundary.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ParseError("missing '# nx,ny,lambda2,a,b,c,l2,l3,boundary' header", line=1)
    head = lines[0][1:].strip().split(",")
    if len(head) not in (6, 9):
        raise ParseError(f"header needs 9 fields (or the older 6), got {len(head)}", line=1)
    header = (
        _parse_int(head[0], 1, 1),
        _parse_int(head[1], 1, 2),
        *(_parse_float(tok, 1, k + 3) for k, tok in enumerate(head[2:8])),
        *head[8:],
    )
    if header[8:] and header[8] not in (*BOUNDARY_KINDS, "custom"):
        raise ParseError(f"unknown boundary kind {header[8]!r}", line=1, column=9)
    if domain is None:
        if len(header) == 6:
            header += (0.0, 0.0, "tangent")
        nx, ny, lam2, a, b, c, l2, l3, boundary = header
        if boundary == "custom":
            raise ParseError("a snapshot with a custom boundary needs its domain", line=1, column=9)
        domain = Domain(nx, ny, lam2, BulkParams(a, b, c), l2=l2, l3=l3, boundary=boundary)
    else:
        expected = _header(domain)[: len(header)]
        if header != expected:
            raise ShapeMismatch(f"snapshot header {header} does not match domain {expected}")

    try:
        values, n_rows = _node_rows(lines, domain)
    except ValueError:
        # some row is malformed: find it, and say where, row by row
        values, n_rows = _node_rows_checked(lines, domain)
    # rows are in the grid and no node repeats, so a full count fills it
    if n_rows != domain.nx * domain.ny:
        raise ParseError(
            f"expected {domain.nx * domain.ny} node rows, got {n_rows}",
            line=len(lines) + 1,
        )
    return QField(domain, values)


def _node_rows(lines: list[str], domain: Domain) -> tuple[np.ndarray, int]:
    """The node values and row count of a snapshot's body, its rows in any
    order: i and j parsed as integers, x and y checked once per distinct
    token, the q tokens parsed as floats; ValueError on any malformed row,
    a non-finite number or a repeated node."""
    body = [line for line in lines[1:] if line.strip()]
    if any(line.count(",") != 8 for line in body):
        raise ValueError("a row without 9 fields")
    i, j, x, y, q = zip(*(line.split(",", 4) for line in body))
    i, j = np.array(list(map(int, i))), np.array(list(map(int, j)))
    grid = np.array(list(map(float, {*x, *y})))
    q = np.array(list(map(float, ",".join(q).split(",")))).reshape(-1, 5)
    if not ((0 <= i) & (i < domain.nx) & (0 <= j) & (j < domain.ny)).all():
        raise ValueError("a node outside the grid")
    finite = np.isfinite(grid).all() and np.isfinite(q).all()
    if not finite or np.bincount(i * domain.ny + j).max() > 1:
        raise ValueError("a non-finite number or a repeated node")
    values = np.full(domain.shape, np.nan)
    values[i, j] = q
    return values, len(body)


def _node_rows_checked(lines: list[str], domain: Domain) -> tuple[np.ndarray, int]:
    """``_node_rows`` one row at a time, raising ParseError at the first bad
    row with its line and, for a bad or non-finite number, its column."""
    values = np.full(domain.shape, np.nan)
    seen = np.zeros((domain.nx, domain.ny), dtype=bool)
    n_rows = 0
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split(",")
        if len(tokens) != 9:
            raise ParseError(f"expected 9 fields, got {len(tokens)}", line=line_no)
        i = _parse_int(tokens[0], line_no, 1)
        j = _parse_int(tokens[1], line_no, 2)
        if not (0 <= i < domain.nx and 0 <= j < domain.ny):
            raise ParseError(f"node ({i},{j}) outside {domain.nx}x{domain.ny} grid", line=line_no)
        if seen[i, j]:
            raise ParseError(f"node ({i},{j}) repeated", line=line_no)
        seen[i, j] = True
        _parse_float(tokens[2], line_no, 3)
        _parse_float(tokens[3], line_no, 4)
        values[i, j] = [_parse_float(tok, line_no, k + 5) for k, tok in enumerate(tokens[4:])]
        n_rows += 1
    return values, n_rows


# ---------------------------------------------------------------------------
# flat tables


def _write_table(path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(cells) for cells in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectory(path, rows) -> None:
    """rows of (step, time, energy, modified_energy, grad_inf_norm)."""
    _write_table(
        path,
        "step,time,energy,modified_energy,grad_inf_norm",
        ([str(int(s)), _g17(t), _g17(e), _g17(me), _g17(g)] for s, t, e, me, g in rows),
    )


def write_profile(path, mep_path) -> None:
    """Energy profile along a path: node,alpha,energy."""
    _write_table(
        path,
        "node,alpha,energy",
        (
            [str(k), _g17(mep_path.alpha[k]), _g17(mep_path.energies[k])]
            for k in range(mep_path.n_nodes)
        ),
    )


def write_branches(path, alpha: float, points) -> None:
    """Maier-Saupe critical points: alpha,eta,branch,stable,s2,s4."""
    _write_table(
        path,
        "alpha,eta,branch,stable,s2,s4",
        (
            [
                _g17(alpha),
                _g17(p.eta),
                p.branch,
                "true" if p.stable else "false",
                _g17(p.s2),
                _g17(p.s4),
            ]
            for p in points
        ),
    )


def write_hedgehog(path, profile) -> None:
    _write_table(
        path,
        "r,h",
        ([_g17(r), _g17(h)] for r, h in zip(profile.r, profile.h)),
    )


def _write_vector_csv(path, vec: np.ndarray) -> None:
    # generic snapshot for systems without a grid interpretation
    _write_table(path, "k,value", ([str(k), _g17(v)] for k, v in enumerate(vec)))


def _snapshot(path: Path, vec: np.ndarray, domain: Domain | None) -> None:
    if domain is not None:
        write_field(path, QField.from_flat(domain, vec))
    else:
        _write_vector_csv(path, vec)


def write_path_nodes(out_dir, mep_path, domain: Domain | None = None) -> list[str]:
    """profile.csv plus one snapshot per node; returns the file names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = ["profile.csv"]
    write_profile(out / "profile.csv", mep_path)
    for k in range(mep_path.n_nodes):
        name = f"node_{k:03d}.csv"
        _snapshot(out / name, mep_path.nodes[k], domain)
        names.append(name)
    return names


def write_mep_summary(path, result) -> None:
    keys = ("barrier_forward", "barrier_backward", "ts_lambda1", "sweeps")
    write_json(path, {key: getattr(result, key) for key in keys})


def write_landscape(out_dir, graph, domain: Domain | None = None) -> list[str]:
    """landscape.json plus one snapshot CSV per stationary point.

    Returns the emitted file names (landscape.json first).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = ["landscape.json"]
    nodes = []
    for rec in graph.nodes:
        fname = f"node_{rec.id:03d}.csv"
        _snapshot(out / fname, rec.field, domain)
        names.append(fname)
        nodes.append(
            {"id": rec.id, "index": rec.morse_index, "energy": rec.energy, "file": fname}
        )
    edges = [
        {"from": e.source, "to": e.target, "kind": e.kind, "sign": e.sign} for e in graph.edges
    ]
    failed = [
        {"node": node, "kind": kind, "k": k, "sign": sign, "message": message}
        for node, kind, k, sign, message in graph.failed
    ]
    payload = {"nodes": nodes, "edges": edges, "failed": failed, "truncated": graph.truncated}
    payload.update(searches=graph.searches, branches_run=graph.branches_run)
    write_json(out / "landscape.json", payload)
    return names


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """One JSON document driving a CLI run; unknown keys are rejected, and an
    out-of-range value raises ConfigError, also when replace() sets it from a flag;
    a domain that ``Domain`` or ``BulkParams`` refuses raises their ShapeMismatch."""

    nx: int
    ny: int
    lambda2: float
    a: float
    b: float
    c: float
    L2: float = 0.0
    L3: float = 0.0
    boundary: str = "tangent"
    seed: int = 0
    tol: float = 1e-8
    dt: float = 0.1
    init: str = "isotropic"
    out_dir: str = "out"
    max_steps: int = 100_000
    n_nodes: int = 16
    k: int = 1
    max_nodes: int = 200
    max_searches: int = 2000
    max_index: int | None = None

    def __post_init__(self):
        for key in ("lambda2", "a", "b", "c", "L2", "L3", "tol", "dt"):
            # json reads Infinity and NaN as numbers
            if not np.isfinite(getattr(self, key)):
                raise ConfigError(f"config key {key!r} must be finite, got {getattr(self, key)!r}")
        for key in ("tol", "dt", "max_steps", "max_nodes", "max_searches"):
            # a tol at or below zero is never met and would spend the whole budget;
            # a budget below one step, node or search leaves nothing to run
            if not getattr(self, key) > 0:
                raise ConfigError(f"config key {key!r} must be positive, got {getattr(self, key)!r}")
        if self.boundary not in BOUNDARY_KINDS:
            *head, last = BOUNDARY_KINDS
            kinds = ", ".join(map(repr, head)) + f" or {last!r}"
            raise ConfigError(f"config key 'boundary' must be {kinds}, got {self.boundary!r}")
        # the domain's own checks (grid, lambda2, l2 + l3, bulk), before a run writes anything
        self.domain()

    def domain(self) -> Domain:
        return Domain(
            nx=self.nx,
            ny=self.ny,
            lambda2=self.lambda2,
            bulk=BulkParams(self.a, self.b, self.c),
            l2=self.L2,
            l3=self.L3,
            boundary=self.boundary,
        )

    def to_dict(self) -> dict:
        return asdict(self)


# annotation of a RunConfig field -> (JSON values it accepts, what an error calls them)
_JSON_TYPES = {
    "int": (int, "an integer"),
    "int | None": ((int, type(None)), "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
}


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    schema = {f.name: f for f in fields(RunConfig)}
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r}")
    for key, f in schema.items():
        if f.default is MISSING and key not in raw:
            raise ConfigError(f"missing required config key {key!r}")
    for key, value in raw.items():
        accepted, kind = _JSON_TYPES[schema[key].type]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
    return RunConfig(**raw)


# ---------------------------------------------------------------------------
# manifest


def build_id() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=10,
        )
    except Exception:
        return "unknown"
    tag = out.stdout.strip()
    return tag if out.returncode == 0 and tag else "unknown"


class RunContext:
    """One CLI run: its output directory, clock, written files and run.json.

    Entering creates the directory and starts the clock.  Each output is
    named through `path` as it is written (or `add`, for writers that
    name their own files).  Leaving writes run.json, the package's only
    writer of it, once, also when the run raised: the command, inputs,
    tolerances, wall time, ``build_id``, every file the run wrote and
    run.json itself under `outputs`, and under `error` the message the
    run stopped with, None when it finished.
    """

    def __init__(self, out_dir, command: str, inputs: dict, tolerances: dict):
        self.out = Path(out_dir)
        self.command = command
        self.inputs = inputs
        self.tolerances = tolerances
        self.outputs: list[str] = []

    def __enter__(self) -> "RunContext":
        self.out.mkdir(parents=True, exist_ok=True)
        self._t0 = time.perf_counter()
        return self

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.out / name

    def add(self, names) -> None:
        self.outputs.extend(names)

    def __exit__(self, exc_type, exc, tb) -> None:
        # a writer that raised may have left its file unwritten
        written = [name for name in self.outputs if (self.out / name).exists()]
        write_json(
            self.out / "run.json",
            {
                "command": self.command,
                "inputs": self.inputs,
                "tolerances": self.tolerances,
                "wall_time_s": time.perf_counter() - self._t0,
                "build_id": build_id(),
                "outputs": sorted(written + ["run.json"]),
                "error": None if exc is None else str(exc) or exc_type.__name__,
            },
        )
