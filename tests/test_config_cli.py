import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import mpemba as mp
from mpemba.cli import _build_parser, main
from mpemba.config import load_config, parse_config
from mpemba.errors import ConfigError
from mpemba.operators import diagonalize

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "model": {"name": "single_qubit", "omega": 5.0},
    "bath": {"temperature": 10.0, "gamma": 1.0},
    "initial_state": {"kind": "bloch", "r": [0.276, 0.359, 0.303]},
    "transform": {"kind": "exact"},
    "time_grid": {"t_max": 4.0, "n_points": 101},
    "outputs": {"directory": "out"},
}


class TestSchema:
    def test_valid_config_parses(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        assert cfg.model.name == "single_qubit"
        assert cfg.transform.kind == "exact"
        assert cfg.time_grid.times().size == 101

    def test_unknown_top_level_key(self):
        bad = dict(BASE, experiment="x")
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(bad)

    def test_unknown_model_parameter_path_in_error(self):
        bad = dict(BASE, model={"name": "single_qubit", "omege": 5.0})
        with pytest.raises(ConfigError, match="model.omege"):
            parse_config(bad)

    def test_unknown_model_name(self):
        bad = dict(BASE, model={"name": "heisenberg"})
        with pytest.raises(ConfigError, match="model.name"):
            parse_config(bad)

    def test_temperature_and_beta_conflict(self):
        bad = dict(BASE, bath={"temperature": 10.0, "beta": 0.1})
        with pytest.raises(ConfigError, match="bath"):
            parse_config(bad)

    def test_overlong_bloch_vector(self):
        bad = dict(BASE, initial_state={"kind": "bloch", "r": [1.0, 1.0, 1.0]})
        with pytest.raises(ConfigError, match="initial_state.r"):
            parse_config(bad)

    def test_metropolis_requires_budget_fields(self):
        bad = dict(BASE, transform={"kind": "swap-metropolis"})
        with pytest.raises(ConfigError, match="transform"):
            parse_config(bad)

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    @pytest.mark.parametrize("stem, section, key, value", [
        ("qubit_demo", "outputs", "gnuplot", "false"),
        ("qubit_demo", "outputs", "dump_states", "no"),
        ("dot_metropolis", "transform", "fermionic", "false"),
        ("dot_metropolis", "model", "energy_resolved", "false"),
        ("qubit_demo", "model", "omega", "5"),
        ("qubit_demo", "model", "omega", float("nan")),
        ("qubit_demo", "time_grid", "t_max", float("inf")),
        ("chain_demo", "model", "length", 5.5),
        ("qubit_demo", "bath", "temperature", "10"),
        ("qubit_demo", "bath", "temperature", 0.0),
        ("qubit_demo", "model", "name", ["single_qubit"]),
        ("qubit_demo", "initial_state", "kind", ["bloch"]),
        ("qubit_demo", "transform", "kind", ["exact"]),
        ("qubit_demo", "time_grid", "spacing", "log"),
        ("qubit_demo", "time_grid", "t_min", 0.0),
        # the swap walk has no nano loops and no Jordan-Wigner strings
        ("metropolis_swap", "transform", "nano_n", 200),
        ("metropolis_swap", "transform", "micro_m", 20),
        ("metropolis_swap", "transform", "macro_m", 20),
        ("metropolis_swap", "transform", "fermionic", True),
        # numpy's generators refuse negative seeds; modes count from 1, mode 1 is the fixed point
        ("metropolis_swap", "transform", "seed", -1),
        ("chain_demo", "initial_state", "seed", -1),
        ("metropolis_swap", "transform", "target_modes", [1]),
        # the mesoscopic models take gamma under model, temperatures in Kelvin
        ("atom_exact", "bath", "gamma", 123.0),
        ("dot_metropolis", "bath", "temperature", 0.1),
    ])
    def test_mistyped_or_unknown_entry_exits_2(self, tmp_path, capsys, stem, section, key, value):
        payload = json.loads((CONFIGS / f"{stem}.json").read_text())
        payload[section][key] = value
        rc = main(["spectrum", "--config", str(write_config(tmp_path, payload)), "--out", str(tmp_path)])
        assert rc == 2
        assert f"config error: {section}.{key}: " in capsys.readouterr().err

    def test_checked_in_configs_all_parse(self):
        for path in sorted(CONFIGS.glob("*.json")):
            load_config(path)

    def test_each_annealer_gets_the_config_it_reads(self):
        swap = load_config(CONFIGS / "metropolis_swap.json").transform.metropolis
        unitary = load_config(CONFIGS / "metropolis_unitary.json").transform.metropolis
        assert type(swap) is mp.AnnealSchedule
        assert type(unitary) is mp.MetropolisConfig
        assert (unitary.nano_n, unitary.micro_m, unitary.macro_big_m) == (200, 20, 20)


class TestCliSpectrum:
    def test_qubit_table(self, tmp_path):
        rc = main(["spectrum", "--config", str(CONFIGS / "qubit_demo.json"), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "spectrum.tsv").read_text().splitlines()
        assert "complex-pair" in lines[0]
        assert len(lines) == 2 + 4

    def test_tfim5_has_1024_rows(self, tmp_path):
        rc = main(["spectrum", "--config", str(CONFIGS / "spectrum_tfim5.json"), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "spectrum.tsv").read_text().splitlines()
        assert len(lines) == 2 + 1024

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        rc = main(["spectrum", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_degenerate_models(self, tmp_path, capsys):
        # explicit dissipators decompose densely; a degenerate bath recipe has no jump matrix
        rc = main(["spectrum", "--config", str(CONFIGS / "dot_metropolis.json"), "--out", str(tmp_path)])
        assert rc == 0
        assert "real" in (tmp_path / "spectrum.tsv").read_text().splitlines()[0]
        payload = json.loads((CONFIGS / "spectrum_tfim5.json").read_text())
        payload["model"]["h_field"] = 0.0
        rc = main(["spectrum", "--config", str(write_config(tmp_path, payload)), "--out", str(tmp_path)])
        assert rc == 3
        assert "degenerate" in capsys.readouterr().err


class TestCliEvolve:
    def test_qubit_demo_emits_both_trajectories_with_crossing(self, tmp_path):
        rc = main(["evolve", "--config", str(CONFIGS / "qubit_demo.json"), "--out", str(tmp_path)])
        assert rc == 0
        plain = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",", names=True)
        moved = np.genfromtxt(tmp_path / "trajectory_transformed.csv", delimiter=",", names=True)
        assert moved["F_neq"][0] > plain["F_neq"][0]
        assert moved["F_neq"][-1] < plain["F_neq"][-1]  # curves crossed
        assert (tmp_path / "trajectory.gp").exists()

    def test_single_point_grid_drops_spohn(self, tmp_path):
        payload = dict(BASE, time_grid={"t_max": 1.0, "n_points": 1}, transform={"kind": "none"})
        cfg = write_config(tmp_path, payload)
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,F_neq,D,P,C,L1,T1"

    def test_dump_states_saves_the_evolved_states(self, tmp_path):
        payload = dict(BASE, transform={"kind": "none"},
                       outputs={"directory": "out", "dump_states": True})
        cfg = write_config(tmp_path, payload)
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        model = mp.single_qubit(omega=5.0, t_bath=10.0, gamma=1.0)
        spec = mp.decompose(mp.build_generator(model))
        rho = spec.project_physical(mp.bloch_to_state(BASE["initial_state"]["r"]))
        grid = mp.evolve_spectral(spec, rho, np.linspace(0.0, 4.0, 101))
        want = io.BytesIO()
        np.save(want, np.stack([s.entries for s in grid.states]))
        assert (tmp_path / "trajectory_states.npy").read_bytes() == want.getvalue()


class TestCliMpemba:
    def test_qubit_demo_certificate(self, tmp_path):
        rc = main(["mpemba", "--config", str(CONFIGS / "qubit_demo.json"), "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "certificate.txt").read_text()
        assert "status: ok" in text
        assert "crossing_time: none" not in text

    def test_thermal_input_not_applicable(self, tmp_path):
        payload = dict(BASE, initial_state={"kind": "thermal", "temperature": 10.0})
        cfg = write_config(tmp_path, payload)
        rc = main(["mpemba", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "certificate.txt").read_text()
        assert "status: not-applicable" in text
        assert "fixed point" in text

    def test_outputs_regenerate_bit_identically(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["mpemba", "--config", str(CONFIGS / "qubit_demo.json"), "--out", str(tmp_path / sub)])
            assert rc == 0
        for name in ("certificate.txt", "trajectory.csv", "trajectory_transformed.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_short_grid_rejected_before_evolution(self, tmp_path, capsys, monkeypatch):
        # spectrum_tfim5.json has two grid points: enough for spectrum and
        # evolve, too few for the decay-rate fit over [t_max/2, t_max]
        config = str(CONFIGS / "spectrum_tfim5.json")
        assert main(["spectrum", "--config", config, "--out", str(tmp_path / "spectrum")]) == 0
        assert main(["evolve", "--config", config, "--out", str(tmp_path / "evolve")]) == 0
        assert len((tmp_path / "evolve" / "trajectory.csv").read_text().splitlines()) == 1 + 2

        def no_evolution(*args, **kwargs):
            raise AssertionError("evolved before rejecting the grid")

        monkeypatch.setattr(mp.cli, "evolve_spectral", no_evolution)
        rc = main(["mpemba", "--config", config, "--out", str(tmp_path / "mpemba")])
        assert rc == 2
        assert "time_grid" in capsys.readouterr().err
        assert not (tmp_path / "mpemba" / "certificate.txt").exists()


class TestFileState:
    def test_saved_state_certifies_like_its_source(self, tmp_path):
        # the demo Bloch state saved with np.save gives the Bloch config's certificate
        state = tmp_path / "state.npy"
        np.save(state, mp.bloch_to_state(BASE["initial_state"]["r"]).entries)
        from_file = dict(BASE, initial_state={"kind": "file", "path": str(state)})
        for sub, payload in (("bloch", BASE), ("file", from_file)):
            cfg = write_config(tmp_path, payload, name=f"{sub}.json")
            assert main(["mpemba", "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0
        text = (tmp_path / "file" / "certificate.txt").read_bytes()
        assert b"status: ok" in text
        assert text == (tmp_path / "bloch" / "certificate.txt").read_bytes()

    @pytest.mark.parametrize("defect", ["missing", "shape"])
    def test_unreadable_state_exits_2(self, tmp_path, capsys, defect):
        state = tmp_path / "state.npy"
        if defect == "shape":
            np.save(state, np.eye(8, dtype=complex) / 8)  # a three-qubit state for a qubit model
        payload = dict(BASE, initial_state={"kind": "file", "path": str(state)})
        rc = main(["mpemba", "--config", str(write_config(tmp_path, payload)), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error: initial_state.path: " in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    ("mpemba", "qubit_demo"), ("evolve", "qubit_demo"), ("metropolis", "metropolis_swap"),
])
def test_one_diagonalization_per_run(command, config, tmp_path, monkeypatch):
    """One model build and one diagonalization per CLI run."""
    diagonalized, built = [], []

    def counted(hamiltonian):
        diagonalized.append(hamiltonian)
        return diagonalize(hamiltonian)

    def counting(builder):
        def build(**kwargs):
            built.append(kwargs)
            return builder(**kwargs)
        return build

    monkeypatch.setattr(mp.models, "diagonalize", counted)
    for name, builder in list(mp.models.MODEL_BUILDERS.items()):
        monkeypatch.setitem(mp.models.MODEL_BUILDERS, name, counting(builder))
    assert main([command, "--config", str(CONFIGS / f"{config}.json"), "--out", str(tmp_path)]) == 0
    assert len(diagonalized) == 1
    assert len(built) == 1


def test_readme_command_lines_parse():
    """Every CLI line in the README parses, and names a config that exists."""
    parser = _build_parser()
    lines = re.findall(r"^(?:python -m )?mpemba (.+)$", (REPO / "README.md").read_text(), re.M)
    assert len(lines) >= 10
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line))
        except SystemExit:
            pytest.fail(f"README line does not parse: mpemba {line}")
        assert (REPO / args.config).is_file(), line


def test_parser_built_once_and_leaks_no_flag(tmp_path):
    """main reuses one parser; a flag given to one call is not seen by the next."""
    config = str(CONFIGS / "metropolis_swap.json")

    def trace(sub):
        return (tmp_path / sub / "trace.csv").read_bytes()

    _build_parser.cache_clear()
    assert main(["metropolis", "--config", config, "--seed", "5", "--out", str(tmp_path / "seeded")]) == 0
    assert main(["metropolis", "--config", config, "--out", str(tmp_path / "after")]) == 0
    assert main(["spectrum", "--config", config, "--out", str(tmp_path / "spectrum")]) == 0
    assert _build_parser.cache_info().misses == 1
    _build_parser.cache_clear()
    assert main(["metropolis", "--config", config, "--out", str(tmp_path / "fresh")]) == 0
    assert trace("seeded") != trace("fresh")
    assert trace("after") == trace("fresh")


@pytest.mark.parametrize("config", ["qubit_demo", "atom_exact"])
def test_chunk_length_changes_no_output_byte(config, tmp_path, monkeypatch):
    """Evolutions and trajectories round the same in chunks of one point as in the default chunks."""
    args = ["mpemba", "--config", str(CONFIGS / f"{config}.json"), "--out"]
    assert main(args + [str(tmp_path / "default")]) == 0
    chunked = []

    def one_point(d):
        chunked.append(d)
        return 1

    monkeypatch.setattr(mp.spectral, "chunk_points", one_point)
    assert main(args + [str(tmp_path / "single")]) == 0
    assert len(chunked) == 4  # two evolutions, two trajectories
    names = sorted(p.name for p in (tmp_path / "default").iterdir())
    assert "trajectory.csv" in names
    assert names == sorted(p.name for p in (tmp_path / "single").iterdir())
    for name in names:
        assert (tmp_path / "single" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


class TestCliMetropolis:
    def test_swap_config_converges(self, tmp_path):
        rc = main(["metropolis", "--config", str(CONFIGS / "metropolis_swap.json"), "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iteration,cost,T_eff,accepted"
        final_cost = float(lines[-1].split(",")[1])
        assert final_cost < 1e-5 or any(float(l.split(",")[1]) < 1e-6 for l in lines[1:])

    def test_seed_flag_changes_walk_deterministically(self, tmp_path):
        args = ["metropolis", "--config", str(CONFIGS / "metropolis_swap.json"), "--seed", "123"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        args = ["metropolis", "--config", str(CONFIGS / "metropolis_swap.json"), "--seed", "-1"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("stem", ["metropolis_swap", "metropolis_unitary"])
    def test_target_mode_beyond_the_spectrum_exits_2(self, stem, tmp_path, capsys):
        # the L=5 chain has 1024 modes, known only after the decomposition
        payload = json.loads((CONFIGS / f"{stem}.json").read_text())
        payload["transform"]["target_modes"] = [2, 2000]
        rc = main(["metropolis", "--config", str(write_config(tmp_path, payload)), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error: transform.target_modes: mode 2000 outside 2..1024" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["transform"].update(target_modes=[2]),
             "config error: transform.target_modes: mode 2 is not a population mode"),
            (lambda p: p.update(initial_state={"kind": "random-mixed", "n_samples": 1000}),
             "config error: initial_state: swap-metropolis needs a state diagonal in the energy eigenbasis"),
        ],
        ids=["coherence_target", "non_diagonal_state"],
    )
    def test_swap_precondition_exits_2_before_the_walk(self, edit, message, tmp_path, capsys, monkeypatch):
        payload = json.loads((CONFIGS / "metropolis_swap.json").read_text())
        edit(payload)
        monkeypatch.setattr(mp.cli, "swap_metropolis", lambda *_: pytest.fail("the walk started"))
        rc = main(["metropolis", "--config", str(write_config(tmp_path, payload)), "--out", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_budget_exhaustion_exit_code(self, tmp_path, capsys):
        payload = json.loads((CONFIGS / "metropolis_swap.json").read_text())
        payload["transform"]["max_total_iterations"] = 25
        payload["transform"]["threshold_eps"] = 1e-14
        cfg = write_config(tmp_path, payload)
        rc = main(["metropolis", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 4
        assert "converge" in capsys.readouterr().err
        assert (tmp_path / "trace.csv").exists()

    def test_requires_metropolis_transform(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        rc = main(["metropolis", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2


class TestOutputDirPrecedence:
    def test_env_overrides_config(self, tmp_path, monkeypatch):
        payload = dict(BASE, outputs={"directory": str(tmp_path / "from_config")})
        cfg = write_config(tmp_path, payload)
        monkeypatch.setenv("MPEMBA_OUT", str(tmp_path / "from_env"))
        rc = main(["spectrum", "--config", str(cfg)])
        assert rc == 0
        assert (tmp_path / "from_env/spectrum.tsv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE)
        monkeypatch.setenv("MPEMBA_OUT", str(tmp_path / "from_env"))
        rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "from_flag")])
        assert rc == 0
        assert (tmp_path / "from_flag/spectrum.tsv").exists()
        assert not (tmp_path / "from_env").exists()
