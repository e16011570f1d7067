"""Snapshot round trips, table formats, config validation, manifest."""

import importlib
import json

import numpy as np
import pytest

from nematicq.errors import ConfigError, ParseError, ShapeMismatch
from nematicq.field import Domain, QField
from nematicq.fieldio import (
    RunContext,
    build_id,
    load_config,
    read_field,
    write_branches,
    write_field,
    write_hedgehog,
    write_landscape,
    write_mep_summary,
    write_path_nodes,
    write_trajectory,
)
from nematicq.hedgehog import solve_profile
from nematicq.hisd import build_landscape, make_record
from nematicq.maier_saupe import solve_branches
from nematicq.mep import find_mep
from nematicq.qtensor import BulkParams
from nematicq.systems import make_rng
from nematicq.toys import DoubleWell2D, Quartic2D
from oracles import write_field_per_value

hisd = importlib.import_module("nematicq.hisd")

BULK = BulkParams(-1.0, 1.0, 1.0)


def small_domain(nx=5, ny=4):
    return Domain(nx=nx, ny=ny, lambda2=5.0, bulk=BULK)


def random_field(domain, seed=3):
    rng = make_rng(seed, "io-field")
    return QField(domain, rng.normal(size=domain.shape))


class TestFieldRoundTrip:
    def test_bit_identical_values(self, tmp_path):
        d = small_domain()
        f = random_field(d)
        path = tmp_path / "field.csv"
        write_field(path, f)
        g = read_field(path)
        assert np.array_equal(g.values, f.values)
        assert g.domain.nx == d.nx and g.domain.ny == d.ny
        assert g.domain.lambda2 == d.lambda2
        assert g.domain.bulk == d.bulk

    def test_write_is_deterministic(self, tmp_path):
        d = small_domain()
        f = random_field(d)
        write_field(tmp_path / "a.csv", f)
        write_field(tmp_path / "b.csv", f)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_round_trip_with_explicit_domain(self, tmp_path):
        d = small_domain()
        f = random_field(d)
        write_field(tmp_path / "f.csv", f)
        g = read_field(tmp_path / "f.csv", d)
        assert np.array_equal(g.values, f.values)
        assert g.domain is d

    def test_domain_mismatch(self, tmp_path):
        f = random_field(small_domain())
        write_field(tmp_path / "f.csv", f)
        other = Domain(nx=5, ny=4, lambda2=7.0, bulk=BULK)
        with pytest.raises(ShapeMismatch):
            read_field(tmp_path / "f.csv", other)

    def test_header_carries_elastic_constants_and_boundary(self, tmp_path):
        d = Domain(nx=5, ny=4, lambda2=5.0, bulk=BULK, l2=0.6, l3=0.4, boundary="planar")
        f = random_field(d)
        path = tmp_path / "f.csv"
        write_field(path, f)
        head = path.read_text().splitlines()[0]
        assert head == "# 5,4,5,-1,1,1,0.59999999999999998,0.40000000000000002,planar"
        g = read_field(path)
        assert np.array_equal(g.values, f.values)
        assert (g.domain.l2, g.domain.l3, g.domain.boundary) == (0.6, 0.4, "planar")
        assert g.energy() == f.energy()

    def test_boundary_mismatch(self, tmp_path):
        d = Domain(nx=5, ny=4, lambda2=5.0, bulk=BULK, boundary="planar")
        write_field(tmp_path / "f.csv", random_field(d))
        other_l2 = Domain(nx=5, ny=4, lambda2=5.0, bulk=BULK, l2=0.5, boundary="planar")
        for other in (small_domain(), other_l2):
            with pytest.raises(ShapeMismatch):
                read_field(tmp_path / "f.csv", other)

    def test_custom_boundary_needs_its_domain(self, tmp_path):
        d = Domain(nx=5, ny=4, lambda2=5.0, bulk=BULK, boundary=lambda x, y: np.zeros(5))
        f = random_field(d)
        path = tmp_path / "f.csv"
        write_field(path, f)
        assert path.read_text().splitlines()[0].endswith(",0,0,custom")
        assert np.array_equal(read_field(path, d).values, f.values)
        with pytest.raises(ParseError) as info:
            read_field(path)
        assert info.value.line == 1

    def test_six_field_header_still_reads(self, tmp_path):
        d = small_domain()
        f = random_field(d)
        path = tmp_path / "f.csv"
        write_field(path, f)
        lines = path.read_text().splitlines()
        lines[0] = ",".join(lines[0].split(",")[:6])
        assert lines[0] == "# 5,4,5,-1,1,1"
        path.write_text("\n".join(lines) + "\n")
        g = read_field(path)
        assert np.array_equal(g.values, f.values)
        assert (g.domain.l2, g.domain.l3, g.domain.boundary) == (0.0, 0.0, "tangent")
        planar = Domain(nx=5, ny=4, lambda2=5.0, bulk=BULK, l2=0.6, boundary="planar")
        assert read_field(path, planar).domain is planar
        with pytest.raises(ShapeMismatch):
            read_field(path, Domain(nx=5, ny=4, lambda2=7.0, bulk=BULK))

    def test_bad_boundary_token(self, tmp_path):
        path = tmp_path / "f.csv"
        write_field(path, random_field(small_domain()))
        path.write_text(path.read_text().replace(",tangent\n", ",round\n", 1))
        with pytest.raises(ParseError) as info:
            read_field(path)
        assert (info.value.line, info.value.column) == (1, 9)

    def test_truncated_file(self, tmp_path):
        f = random_field(small_domain())
        path = tmp_path / "f.csv"
        write_field(path, f)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ParseError) as info:
            read_field(path)
        assert info.value.line == len(lines) - 2

    def test_bad_token_names_line_and_column(self, tmp_path):
        f = random_field(small_domain())
        path = tmp_path / "f.csv"
        write_field(path, f)
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[6] = "not-a-number"
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            read_field(path)
        assert info.value.line == 5
        assert info.value.column == 7

    @pytest.mark.parametrize(
        "column, token, where",
        [
            (1, "1.5", (5, 1)),  # a float where the node index belongs
            (2, "", (5, 2)),
            (9, "1e", (5, 9)),
            (9, "1,2", (5, 0)),  # ten fields
            (1, "7", (5, 0)),  # a node outside the grid
        ],
    )
    def test_bad_row_names_line_and_column(self, tmp_path, column, token, where):
        f = random_field(small_domain())
        path = tmp_path / "f.csv"
        write_field(path, f)
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[column - 1] = token
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as info:
            read_field(path)
        assert (info.value.line, info.value.column) == where

    def test_repeated_node_names_its_line(self, tmp_path):
        # a copied row keeps the count at nx*ny but leaves one node unset
        d = small_domain(4, 4)
        path = tmp_path / "f.csv"
        write_field(path, random_field(d))
        lines = path.read_text().splitlines()
        lines[6] = lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"node \(0,1\) repeated") as info:
            read_field(path)
        assert (info.value.line, info.value.column) == (7, 0)

    @pytest.mark.parametrize("column, token", [(6, "nan"), (9, "inf"), (3, "-inf")])
    def test_non_finite_value_names_line_and_column(self, tmp_path, column, token):
        path = tmp_path / "f.csv"
        write_field(path, random_field(small_domain(4, 4)))
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[column - 1] = token
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-finite") as info:
            read_field(path)
        assert (info.value.line, info.value.column) == (5, column)

    @pytest.mark.parametrize("grid", [(5, 4), (64, 64)])
    def test_writer_matches_per_value_formatter(self, tmp_path, grid):
        d = small_domain(*grid)
        f = random_field(d)
        f.values[0, 0, :] = [-0.0, 5e-324, 1e-300, 1.0, -1.7976931348623157e308]
        f.values[1, 2, :] = [0.1, 1 / 3, 2.0**60, -1e16, 123456789.0]
        write_field(tmp_path / "rows.csv", f)
        write_field_per_value(tmp_path / "values.csv", f)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()
        back = read_field(tmp_path / "rows.csv", d)
        assert np.array_equal(back.values, f.values)
        assert np.array_equal(np.signbit(back.values), np.signbit(f.values))

    def test_rows_in_any_order_and_any_grid_spelling(self, tmp_path):
        # the reader places each row by its i,j and only checks that x and y
        # are finite, so neither the row order nor their spelling matters
        d = small_domain(6, 5)
        f = random_field(d)
        path = tmp_path / "f.csv"
        write_field(path, f)
        head, *body = path.read_text().splitlines()
        rows = [line.split(",") for line in reversed(body)]
        x = rows[0][2]
        rows[0][2] = format(float(x), ".16e")
        half = next(row for row in rows if row[3] == "0.5")
        half[3] = "5e-1"
        assert rows[0][2] != x and float(rows[0][2]) == float(x)

        def write(rows):
            path.write_text("\n".join([head] + [",".join(row) for row in rows]) + "\n")

        write(rows)
        for domain in (d, None):
            assert read_field(path, domain).values.tobytes() == f.values.tobytes()
        rows[1][2] = "nan"
        write(rows)
        with pytest.raises(ParseError, match="non-finite") as info:
            read_field(path, d)
        assert (info.value.line, info.value.column) == (3, 3)

    def test_seven_field_header(self, tmp_path):
        path = tmp_path / "f.csv"
        write_field(path, random_field(small_domain()))
        lines = path.read_text().splitlines()
        lines[0] = ",".join(lines[0].split(",")[:7])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="got 7") as info:
            read_field(path)
        assert info.value.line == 1

    def test_missing_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0,0,0.1,0.1,1,2,3,4,5\n")
        with pytest.raises(ParseError) as info:
            read_field(path)
        assert info.value.line == 1


class TestTables:
    def test_trajectory_format(self, tmp_path):
        rows = [(0, 0.0, 1.5, 1.5, 0.1), (1, 0.1, 1.25, 1.3, 0.05)]
        path = tmp_path / "traj.csv"
        write_trajectory(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,time,energy,modified_energy,grad_inf_norm"
        assert lines[1].startswith("0,0,1.5")
        assert len(lines) == 3

    def test_profile_and_nodes(self, tmp_path):
        system = DoubleWell2D()
        res = find_mep(np.array([-1.0, 0.0]), np.array([1.0, 0.0]), n_nodes=8, system=system)
        names = write_path_nodes(tmp_path, res.path)
        assert names[0] == "profile.csv"
        assert len(names) == 1 + res.path.n_nodes
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert lines[0] == "node,alpha,energy"
        assert len(lines) == 1 + res.path.n_nodes
        for name in names[1:]:
            assert (tmp_path / name).exists()

    def test_mep_summary_keys(self, tmp_path):
        system = DoubleWell2D()
        res = find_mep(np.array([-1.0, 0.0]), np.array([1.0, 0.0]), n_nodes=8, system=system)
        write_mep_summary(tmp_path / "summary.json", res)
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert set(payload) == {"barrier_forward", "barrier_backward", "ts_lambda1", "sweeps"}
        assert payload["barrier_forward"] == res.barrier_forward
        assert payload["sweeps"] == res.sweeps

    def test_branches_rows(self, tmp_path):
        points = solve_branches(7.0)
        write_branches(tmp_path / "branches.csv", 7.0, points)
        lines = (tmp_path / "branches.csv").read_text().splitlines()
        assert lines[0] == "alpha,eta,branch,stable,s2,s4"
        assert len(lines) == 4
        assert all(line.split(",")[0] == "7" for line in lines[1:])
        branches = {line.split(",")[2] for line in lines[1:]}
        assert branches == {"isotropic", "prolate", "oblate"}

    def test_hedgehog_rows(self, tmp_path):
        prof = solve_profile(BULK, R=10.0, N=64)
        write_hedgehog(tmp_path / "hedgehog.csv", prof)
        lines = (tmp_path / "hedgehog.csv").read_text().splitlines()
        assert lines[0] == "r,h"
        assert len(lines) == 66
        assert lines[1] == "0,0"
        r_back, h_back = lines[-1].split(",")
        assert float(r_back) == 10.0
        assert float(h_back) == prof.s_plus


class TestLandscapeOutput:
    def test_toy_graph_layout(self, tmp_path):
        system = Quartic2D()
        seed = make_record(system, np.array(Quartic2D.TOP), k_hint=2)
        graph = build_landscape(system, seed)
        names = write_landscape(tmp_path, graph)
        assert names[0] == "landscape.json"
        payload = json.loads((tmp_path / "landscape.json").read_text())
        assert len(payload["nodes"]) == 9
        assert {n["index"] for n in payload["nodes"]} == {0, 1, 2}
        for node in payload["nodes"]:
            assert set(node) == {"id", "index", "energy", "file"}
            assert (tmp_path / node["file"]).exists()
        for edge in payload["edges"]:
            assert set(edge) == {"from", "to", "kind", "sign"}
            assert edge["kind"] == "downward"
            assert edge["sign"] in (1, -1)
        assert payload["failed"] == []
        assert payload["truncated"] is False
        # the toy has no symmetry group: every branch accounted for is run
        assert payload["branches_run"] == payload["searches"] == graph.searches

    def test_failed_branches_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hisd, "_MAX_ITERS", 3)
        system = Quartic2D()
        seed = make_record(system, np.array(Quartic2D.TOP), k_hint=2)
        graph = build_landscape(system, seed)
        write_landscape(tmp_path, graph)
        payload = json.loads((tmp_path / "landscape.json").read_text())
        assert len(payload["failed"]) == 4
        for entry in payload["failed"]:
            assert set(entry) == {"node", "kind", "k", "sign", "message"}
            assert entry["node"] == 0 and entry["kind"] == "downward"


class TestConfig:
    def write(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return path

    def base(self):
        return {"nx": 8, "ny": 8, "lambda2": 5.0, "a": -1.0, "b": 1.0, "c": 1.0}

    def test_defaults_fill_in(self, tmp_path):
        cfg = load_config(self.write(tmp_path, self.base()))
        assert cfg.L2 == 0.0 and cfg.L3 == 0.0
        d = cfg.domain()
        assert d.nx == 8 and d.lambda2 == 5.0
        assert d.boundary == "tangent"

    def test_boundary_kind(self, tmp_path):
        payload = self.base()
        payload["boundary"] = "planar"
        cfg = load_config(self.write(tmp_path, payload))
        assert cfg.domain().boundary == "planar"
        payload["boundary"] = "periodic"
        with pytest.raises(ConfigError, match="boundary"):
            load_config(self.write(tmp_path, payload))

    def test_missing_key_named(self, tmp_path):
        payload = self.base()
        del payload["lambda2"]
        with pytest.raises(ConfigError, match="lambda2"):
            load_config(self.write(tmp_path, payload))

    def test_unknown_key_named(self, tmp_path):
        payload = self.base()
        payload["lamda2"] = 3.0
        with pytest.raises(ConfigError, match="lamda2"):
            load_config(self.write(tmp_path, payload))

    def test_type_checks(self, tmp_path):
        payload = self.base()
        payload["nx"] = "eight"
        with pytest.raises(ConfigError, match="nx"):
            load_config(self.write(tmp_path, payload))
        payload = self.base()
        payload["init"] = 3
        with pytest.raises(ConfigError, match="'init' must be a string"):
            load_config(self.write(tmp_path, payload))

    def test_not_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_json_array(self, tmp_path):
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(self.write(tmp_path, [self.base()]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")


class TestManifest:
    def test_build_id_is_string(self):
        assert isinstance(build_id(), str)
        assert build_id() != ""

    def test_manifest_contents(self, tmp_path):
        with RunContext(tmp_path, "flow", {"nx": 8}, {"tol": 1e-8}) as run:
            run.path("field.csv").write_text("q\n")
            run.path("never_written.csv")
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["command"] == "flow"
        assert payload["inputs"] == {"nx": 8}
        assert payload["tolerances"] == {"tol": 1e-8}
        assert 0.0 <= payload["wall_time_s"] < 60.0
        assert payload["outputs"] == ["field.csv", "run.json"]
        assert payload["build_id"] == build_id()
        assert payload["error"] is None
