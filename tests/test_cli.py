"""CLI tests: config loading, subcommands, exit codes, output determinism."""

import json
import os

import pytest

from causalsde.cli import main
from causalsde.config import ConfigError, load_config


def write_config(tmp_path, doc, name="config.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def frozen_config():
    return {
        "system": {
            "kind": "expression",
            "labels": ["u", "v"],
            "matrix": [["0", "0"], ["0", "0"]],
            "initial": [1.5, -2.0],
        },
        "driver": {"alpha": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "grid": {"horizon": 1.0, "delta": 0.25},
        "n_paths": 3,
        "seed": 5,
    }


class TestConfigLoading:
    def test_builtin_round_trip(self):
        cfg = load_config({"system": {"kind": "builtin", "name": "chem"}})
        assert cfg.system.labels == ("X", "Y")
        assert cfg.intervention is not None

    def test_schema_violation(self):
        with pytest.raises(ConfigError, match="schema"):
            load_config({"system": {"kind": "nonsense"}})

    def test_expression_system_needs_driver(self):
        with pytest.raises(ConfigError, match="driver"):
            load_config(
                {"system": {"kind": "expression", "matrix": [["0"]], "initial": [0.0]}}
            )

    def test_intervention_label_resolution(self):
        cfg = load_config(
            {
                "system": {"kind": "builtin", "name": "ou"},
                "intervention": {"target": "x2", "value": 1.5},
            }
        )
        assert cfg.intervention.target == 1
        assert cfg.intervention.constant() == 1.5

    def test_unknown_target_label(self):
        with pytest.raises(ConfigError, match="not a coordinate label"):
            load_config(
                {
                    "system": {"kind": "builtin", "name": "ou"},
                    "intervention": {"target": "noise", "value": 0.0},
                }
            )

    def test_expression_intervention_value(self):
        cfg = load_config(
            {
                "system": {"kind": "builtin", "name": "ou"},
                "intervention": {"target": "x1", "value": "0.5 * x1"},
            }
        )
        assert not cfg.intervention.is_constant

    @pytest.mark.parametrize("value", ["1.0", "4 * 0.25"])
    def test_variable_free_intervention_value_is_constant(self, value):
        cfg = load_config(
            {
                "system": {"kind": "builtin", "name": "ou"},
                "intervention": {"target": "x1", "value": value},
            }
        )
        assert cfg.intervention.is_constant
        assert cfg.intervention.constant() == 1.0

    @pytest.mark.parametrize("value", ["1/0", "0/0", float("inf")])
    def test_non_finite_intervention_constant_rejected(self, value):
        with pytest.raises(ConfigError, match="finite"):
            load_config(
                {
                    "system": {"kind": "builtin", "name": "ou"},
                    "intervention": {"target": "x1", "value": value},
                }
            )

    def test_ou_config(self):
        cfg = load_config(
            {
                "system": {
                    "kind": "ou",
                    "level": [0.0],
                    "reversion": [[-1.0]],
                    "diffusion": [[1.0]],
                    "initial": [0.5],
                }
            }
        )
        assert cfg.system.p == 1

    def test_chem_config(self):
        cfg = load_config(
            {
                "system": {
                    "kind": "chem",
                    "stoichiometry": [[1.0, -1.0]],
                    "rates": ["2.0", "x1"],
                    "initial": [1.0],
                }
            }
        )
        assert cfg.system.p == 1
        assert cfg.system.d == 3


class TestSubcommands:
    def test_simulate_frozen_system(self, tmp_path):
        cfg = write_config(tmp_path, frozen_config())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = open(os.path.join(tmp_path, "paths.csv")).read().splitlines()
        assert rows[0] == "path,t,u,v"
        values = {tuple(r.split(",")[2:]) for r in rows[1:]}
        assert values == {("1.5", "-2.0")}

    def test_signature_counts_chem_edges(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"system": {"kind": "builtin", "name": "chem"}})
        assert main(["signature", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = open(os.path.join(tmp_path, "signature.txt")).read().splitlines()
        assert len(lines) == 4
        assert "4 edges" in capsys.readouterr().out
        dot = open(os.path.join(tmp_path, "signature.dot")).read()
        assert dot.startswith("digraph signature")

    def test_intervene_summary(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"kind": "builtin", "name": "ou"},
                "intervention": {"target": "x1", "value": 2.0},
            },
        )
        assert main(["intervene", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.load(open(os.path.join(tmp_path, "intervened_system.json")))
        assert doc == {
            "target": "x1",
            "value": 2.0,
            "labels": ["x2"],
            "dimension": 1,
            "driver_dimension": 3,
        }

    def test_check_commute_passes_for_builtin(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"kind": "builtin", "name": "ou"},
                "grid": {"horizon": 0.5, "delta": 0.015625},
                "n_paths": 20,
                "seed": 3,
            },
        )
        assert main(["check-commute", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.load(open(os.path.join(tmp_path, "commutation.json")))
        assert doc["passed"] is True

    def test_generator_report(self, tmp_path):
        cfg = write_config(tmp_path, {"system": {"kind": "builtin", "name": "two-signatures"}})
        assert main(["generator", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.load(open(os.path.join(tmp_path, "generator.json")))
        assert doc["points"]
        first = doc["points"][0]
        assert {"point", "beta", "diffusion", "jump_atoms", "values"} <= set(first)

    def test_convergence_table(self, tmp_path):
        doc = {
            "system": {"kind": "builtin", "name": "ou"},
            "grid": {"horizon": 1.0, "delta": 0.0625},
            "n_paths": 64,
            "seed": 1,
            "convergence": {"deltas": [0.25, 0.125, 0.0625]},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["convergence", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = open(os.path.join(tmp_path, "convergence.csv")).read().splitlines()
        assert rows[0] == "delta,rms_sup_error,n_excluded"
        assert len(rows) == 4

    def test_check_identify_on_builtin_pair(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"kind": "builtin", "name": "two-signatures"},
                "grid": {"horizon": 0.5, "delta": 0.015625},
                "n_paths": 2000,
                "seed": 21,
                "test": {"times": [0.25, 0.5], "alpha": 0.01},
            },
        )
        assert main(["check-identify", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.load(open(os.path.join(tmp_path, "identifiability.json")))
        assert doc["verdict"] == "consistent with equality"
        assert doc["hypothesis"] == "ok"

    def test_exit_code_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"system": {"kind": "builtin"}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_exit_code_missing_file(self, tmp_path):
        assert main(["simulate", "--config", os.path.join(tmp_path, "nope.json")]) == 1

    def test_report_bytes_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"kind": "builtin", "name": "chem"},
                "grid": {"horizon": 0.5, "delta": 0.03125},
                "n_paths": 16,
                "seed": 11,
            },
        )
        out_a = os.path.join(tmp_path, "a")
        out_b = os.path.join(tmp_path, "b")
        assert main(["check-commute", "--config", cfg, "--out", out_a]) == 0
        assert main(["check-commute", "--config", cfg, "--out", out_b]) == 0
        bytes_a = open(os.path.join(out_a, "commutation.json"), "rb").read()
        bytes_b = open(os.path.join(out_b, "commutation.json"), "rb").read()
        assert bytes_a == bytes_b


class TestDemos:
    def test_ito_demo(self, tmp_path, capsys):
        assert main(["demo", "ito-counterexample", "--out", str(tmp_path)]) == 0
        doc = json.load(open(os.path.join(tmp_path, "ito_counterexample.json")))
        assert doc["contradiction"] is True
        assert doc["max_distance_from_definition_path"] <= 1e-12

    def test_chem_demo(self, tmp_path):
        assert main(["demo", "chem", "--out", str(tmp_path), "--seed", "2"]) == 0
        assert os.path.exists(os.path.join(tmp_path, "chem_commutation.json"))
        assert os.path.exists(os.path.join(tmp_path, "chem_paths.csv"))

    def test_two_signatures_demo(self, tmp_path):
        assert main(["demo", "two-signatures", "--out", str(tmp_path), "--seed", "1"]) == 0
        doc = json.load(open(os.path.join(tmp_path, "two_signatures_identifiability.json")))
        assert doc["verdict"] == "consistent with equality"

    def test_ou_demo(self, tmp_path):
        assert main(["demo", "ou", "--out", str(tmp_path), "--seed", "4"]) == 0
        doc = json.load(open(os.path.join(tmp_path, "ou_check.json")))
        assert doc["commutation"]["passed"] is True
