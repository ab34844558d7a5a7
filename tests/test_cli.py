"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.__main__ import main
from repro.history import HistoryDatabase, dump_trace


class TestDemo:
    def test_demo_runs_clean_then_faulty(self, capsys):
        assert main(["demo", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "clean run" in output
        assert "clean=True" in output
        assert "faulty run" in output
        assert "ST-3" in output


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        assert "detected=True" in capsys.readouterr().out


class TestCheck:
    @pytest.fixture
    def clean_trace(self, kernel, tmp_path):
        from repro.apps import BoundedBuffer
        from tests.conftest import consumer, producer

        history = HistoryDatabase(retain_full_trace=True)
        buffer = BoundedBuffer(kernel, capacity=3, history=history)
        kernel.spawn(producer(buffer, 8))
        kernel.spawn(consumer(buffer, 8))
        kernel.run(until=10)
        kernel.raise_failures()
        path = tmp_path / "trace.jsonl"
        with path.open("w") as stream:
            dump_trace(stream, history.full_trace, history.full_states)
        return path

    def test_clean_trace_exits_zero(self, clean_trace, capsys):
        status = main(
            ["check", str(clean_trace), "--monitor", "buffer", "--rmax", "3"]
        )
        assert status == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_faulty_trace_exits_nonzero(self, tmp_path, capsys):
        from repro.history.events import enter_event

        path = tmp_path / "bad.jsonl"
        with path.open("w") as stream:
            dump_trace(
                stream,
                (
                    enter_event(0, 1, "Send", 0.1, 1),
                    enter_event(1, 2, "Send", 0.2, 1),  # mutex violation
                ),
            )
        status = main(["check", str(path), "--monitor", "buffer"])
        assert status == 1
        assert "FD-1a" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "make, reason",
        [
            (lambda tmp_path: tmp_path / "missing.jsonl", "No such file"),
            (lambda tmp_path: tmp_path, "Is a directory"),
            (lambda tmp_path: _write(tmp_path / "t.jsonl", "not json\n"),
             "invalid JSON"),
            (lambda tmp_path: _write(tmp_path / "t.jsonl", "[1, 2]\n"),
             "not an event or a state row"),
            (lambda tmp_path: _write(tmp_path / "t.jsonl", KEYED_EVENT),
             "line 1: not an event or a state row"),
            (lambda tmp_path: _write(
                tmp_path / "t.jsonl",
                '[0, "Enter", 1, "Send", 0.1, 1, null]\n'
                '[1, "Signal-Exit", 1, "Send", "late", 0, null]\n',
            ), "line 2: malformed event row"),
            (lambda tmp_path: _write(
                tmp_path / "t.jsonl",
                '[0, "Enter", "x", "Send", 0.1, 1, null]\n',
            ), "line 1: malformed event row"),
        ],
        ids=[
            "missing", "directory", "not-json", "not-an-object",
            "keyed-event", "time-string", "pid-string",
        ],
    )
    def test_unreadable_trace_exits_two_with_one_line(
        self, tmp_path, capsys, make, reason
    ):
        # Exit 1 means violations were found; a bad path must not read so.
        path = make(tmp_path)
        assert main(["check", str(path), "--monitor", "buffer"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"repro check: cannot read {path}")
        assert reason in captured.err


def _write(path, text):
    path.write_text(text)
    return path


#: A trace line as earlier versions wrote events: a keyed object.
KEYED_EVENT = (
    '{"kind": "event", "event": "Enter", "seq": 0, "pid": 1, '
    '"pname": "Send", "time": 0.1, "flag": 1}\n'
)


class TestArgumentHandling:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestBenchArgumentValidation:
    """Bad bench, campaign and service values exit 2 with usage instead of
    failing mid-run (exit 1 is a failed campaign)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["overhead", "--repeats", "0"],
            ["overhead", "--intervals", "0"],
            ["overhead", "--intervals", "soon"],
            ["overhead", "--scenarios", "nope"],
            ["overhead", "--bounded", "0"],
            ["overhead", "--fleet", "0"],
            ["overhead", "--evaluation", "gpu"],
            ["overhead", "--backend", "quantum"],
            ["overhead", "--engine"],
            ["scaling", "--counts", "0"],
            ["scaling", "--shards", "-1"],
            ["scaling", "--monitors", "8"],
            ["chaos", "--rounds", "0"],
            ["chaos", "--network", "--rounds", "3"],
            ["chaos", "--network", "--clients", "0"],
            ["crash-recovery", "--rounds", "3"],
            ["crash-recovery", "--crashes", "0"],
            ["crash-recovery", "--rounds", "10", "--crashes", "9"],
            ["service-client", "--socket", "unused.sock", "--time-scale", "0"],
            ["service-smoke", "--kill-after", "-1"],
            ["metrics", "--monitors", "0"],
            ["metrics", "--shards", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_rejected_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_short_network_campaign_runs(self, capsys):
        # The server crash sits at the same fraction of any run length.
        assert main(["chaos", "--network", "--rounds", "10"]) == 0
        output = capsys.readouterr().out
        title = "network chaos campaign (seed=0, clients=3, rounds=10)"
        assert f"{title}: PASS" in output
        assert "server-crashed" in output


class TestAblationsCommand:
    def test_single_ablation_table(self, capsys):
        assert main(["ablations", "--only", "a1"]) == 0
        output = capsys.readouterr().out
        assert "A1: windowed ST checking vs offline FD checking" in output
        assert "A2" not in output


class TestFaultsCommand:
    def test_reference_card_covers_all_levels(self, capsys):
        assert main(["faults"]) == 0
        output = capsys.readouterr().out
        assert "Level I" in output
        assert "Level II" in output
        assert "Level III" in output
        assert "I.a.1" in output and "III.c" in output


class TestJsonEnvelope:
    """Every result-producing subcommand writes the same top-level schema:
    ``{"command": ..., "seed": ..., "results": {...}}``."""

    def test_demo_json_schema(self, tmp_path):
        import json

        path = tmp_path / "demo.json"
        assert main(["demo", "--seed", "7", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "seed", "results"}
        assert payload["command"] == "demo"
        assert payload["seed"] == 7
        assert payload["results"]["clean_run"]["clean"] is True
        assert payload["results"]["faulty_run"]["reports"] > 0
        assert payload["results"]["faulty_run"]["rules"]

    def test_demo_json_stdout(self, capsys):
        import json

        assert main(["demo", "--json", "-"]) == 0
        output = capsys.readouterr().out
        # The envelope is printed last, after the human-readable lines.
        payload = json.loads(output[output.rindex('{\n  "command"'):])
        assert payload["command"] == "demo"

    def test_scaling_shards_json_schema(self, tmp_path):
        import json

        path = tmp_path / "scaling.json"
        status = main(
            [
                "scaling", "--backend", "sim", "--seed", "3",
                "--counts", "4", "--shards", "1", "2",
                "--quick", "--json", str(path),
            ]
        )
        assert status == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "seed", "results"}
        assert payload["command"] == "scaling"
        assert payload["seed"] == 3
        assert set(payload["results"]) == {"bench", "metrics"}
        assert payload["results"]["bench"] == "engine_scaling"
        entries = payload["results"]["metrics"]["metrics"]

        def labels(name):
            return [e["labels"] for e in entries if e["name"] == name]

        assert {
            cell["shards"] for cell in labels("repro_bench_worldstop_max")
        } == {"1", "2"}
        for name in (
            "repro_bench_shard_monitors",
            "repro_bench_shard_offset",
            "repro_bench_shard_worldstop_max",
        ):
            assert {cell["shard"] for cell in labels(name)} == {"0", "1"}

    def test_selftest_json_schema(self, tmp_path):
        import json

        path = tmp_path / "selftest.json"
        assert main(["selftest", "--seed", "0", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["command"] == "selftest"
        assert payload["results"]["campaign"]["detected"] is True

    def test_chaos_json_schema(self, tmp_path, capsys):
        import json

        path = tmp_path / "chaos.json"
        argv = ["chaos", "--seed", "0", "--rounds", "20", "--json", str(path)]
        status = main(argv)
        payload = json.loads(path.read_text())
        assert payload["command"] == "chaos"
        results = payload["results"]
        assert set(results) == {"passed", "gates", "notes", "metrics"}
        assert results["passed"] is (status == 0)
        assert results["metrics"]["schema"] == "repro-metrics/1"
        gates = {gate["name"]: gate for gate in results["gates"]}
        assert gates["every-round-completed"]["status"] == "pass"
        assert gates["every-round-completed"]["value"] == 20
        # Two runs of one seed write the same bytes.
        first = path.read_bytes()
        assert main(argv) == status
        assert path.read_bytes() == first
        # The file is a metrics input of the gate runner.
        spec = tmp_path / "spec.toml"
        spec.write_text(
            '[[gate]]\nname = "no-abandoned"\n'
            'metric = "repro_supervisor_abandoned_total"\n'
            'op = "=="\nthreshold = 0\n'
        )
        capsys.readouterr()
        assert main(["gates", "run", str(spec), "--metrics", str(path)]) == 0
        assert "1 passed, 0 failed" in capsys.readouterr().out

    def test_coverage_json_schema(self, tmp_path):
        import json

        path = tmp_path / "coverage.json"
        assert main(["coverage", "--seed", "0", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "seed", "results"}
        assert payload["command"] == "coverage"
        assert payload["results"]["total"] > 0
        assert payload["results"]["faults"]

    def test_overhead_json_schema_and_metrics_block(self, tmp_path):
        import json

        path = tmp_path / "overhead.json"
        status = main(
            [
                "overhead", "--backend", "sim", "--repeats", "1",
                "--seed", "0", "--intervals", "1.0",
                "--scenarios", "allocator", "--json", str(path),
            ]
        )
        assert status == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "seed", "results"}
        assert payload["command"] == "overhead"
        assert payload["results"]["bench"] == "overhead"
        metrics = payload["results"]["metrics"]
        assert metrics["schema"] == "repro-metrics/1"
        names = {entry["name"] for entry in metrics["metrics"]}
        assert "repro_bench_overhead_ratio" in names

    def test_crash_recovery_json_schema(self, tmp_path):
        import json

        path = tmp_path / "crash.json"
        status = main(
            [
                "crash-recovery", "--seed", "0", "--rounds", "8",
                "--crashes", "1", "--json", str(path),
            ]
        )
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "seed", "results"}
        assert payload["command"] == "crash-recovery"
        assert payload["results"]["passed"] is (status == 0)
        assert payload["results"]["notes"][0].startswith("crash in round")
        names = {
            entry["name"] for entry in payload["results"]["metrics"]["metrics"]
        }
        assert {"repro_campaign_recoveries", "repro_recoveries_total"} <= names

    def test_serve_json_schema_and_metrics_out(self, tmp_path):
        import json

        socket_path = tmp_path / "serve.sock"
        metrics_path = tmp_path / "serve_metrics.json"
        path = tmp_path / "serve.json"
        status = main(
            [
                "serve", "--socket", str(socket_path),
                "--runtime", "0.4", "--metrics-out", str(metrics_path),
                "--json", str(path),
            ]
        )
        assert status == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "seed", "results"}
        assert payload["command"] == "serve"
        assert "frames_received" in payload["results"]
        dumped = json.loads(metrics_path.read_text())
        assert dumped["schema"] == "repro-metrics/1"
        names = {entry["name"] for entry in dumped["metrics"]}
        assert "repro_service_frames_received_total" in names

    def test_service_client_json_schema(self, tmp_path):
        import json
        import os
        import subprocess
        import sys
        import time

        socket_path = tmp_path / "daemon.sock"
        ready = tmp_path / "daemon.ready"
        path = tmp_path / "client.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in ("src", env.get("PYTHONPATH")) if part
        )
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", str(socket_path), "--ready-file", str(ready),
                "--runtime", "8",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 8.0
            while not ready.exists():
                assert time.monotonic() < deadline, "daemon never came up"
                time.sleep(0.05)
            status = main(
                [
                    "service-client", "--socket", str(socket_path),
                    "--rounds", "3", "--interval", "1.0",
                    "--time-scale", "0.03", "--seed", "0",
                    "--json", str(path),
                ]
            )
        finally:
            daemon.terminate()
            daemon.wait(timeout=10)
        assert status == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "seed", "results"}
        assert payload["command"] == "service-client"
        assert payload["results"]["windows_acked"] >= 0

    def test_service_smoke_json_schema(self, tmp_path):
        import json

        path = tmp_path / "smoke.json"
        status = main(
            [
                "service-smoke", "--rounds", "4", "--interval", "1.0",
                "--time-scale", "0.03", "--kill-after", "0.8",
                "--json", str(path),
            ]
        )
        assert status == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "seed", "results"}
        assert payload["command"] == "service-smoke"
        assert payload["results"]["duplicate_reports"] == 0
        assert payload["results"]["daemon_restarted"] is True

    def test_metrics_json_schema(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        status = main(
            [
                "metrics", "--seed", "0", "--monitors", "2",
                "--operations", "20", "--until", "10",
                "--stable", "--json", str(path),
            ]
        )
        assert status == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "seed", "results"}
        assert payload["command"] == "metrics"
        assert payload["seed"] == 0
        assert payload["results"]["schema"] == "repro-metrics/1"
        names = {entry["name"] for entry in payload["results"]["metrics"]}
        assert "repro_engine_checkpoints_total" in names

    def test_gates_run_json_schema_and_exit_codes(self, tmp_path):
        import json

        metrics_path = tmp_path / "bench.json"
        metrics_path.write_text(
            json.dumps(
                {
                    "schema": "repro-metrics/1",
                    "metrics": [
                        {
                            "name": "repro_bench_hits",
                            "kind": "gauge",
                            "labels": {},
                            "value": 5.0,
                        }
                    ],
                }
            )
        )
        spec = tmp_path / "gates.toml"
        spec.write_text(
            '[[gate]]\nname = "hits-nonzero"\n'
            'metric = "repro_bench_hits"\nop = ">"\nthreshold = 0\n'
        )
        path = tmp_path / "gates.json"
        status = main(
            [
                "gates", "run", str(spec),
                "--metrics", str(metrics_path), "--json", str(path),
            ]
        )
        assert status == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"command", "seed", "results"}
        assert payload["command"] == "gates"
        assert payload["results"]["failed"] == 0
        assert payload["results"]["gates"][0]["status"] == "pass"

        failing = tmp_path / "failing.toml"
        failing.write_text(
            '[[gate]]\nname = "hits-bounded"\n'
            'metric = "repro_bench_hits"\nop = "<"\nthreshold = 1\n'
        )
        fail_out = tmp_path / "gates_fail.json"
        status = main(
            [
                "gates", "run", str(failing),
                "--metrics", str(metrics_path), "--json", str(fail_out),
            ]
        )
        assert status == 1
        payload = json.loads(fail_out.read_text())
        assert payload["results"]["failed"] == 1
        assert payload["results"]["gates"][0]["status"] == "fail"


class TestGateSpecs:
    """Every selector of every committed gate spec (value and baseline)
    resolves to exactly one sample of its producing command's JSON, so a
    renamed metric or label fails here, not in CI."""

    QUICK_COMMANDS = {
        "gates.toml": [
            "overhead", "--fleet", "2", "--backend", "sim", "--repeats", "1",
        ],
        "gates/wal.toml": [
            "overhead", "--wal", "--backend", "sim", "--repeats", "1",
            "--intervals", "1.0", "--scenarios", "allocator",
        ],
        "gates/scaling.toml": ["scaling", "--quick", "--counts", "4"],
        "gates/scaling-shards.toml": [
            "scaling", "--quick", "--counts", "16", "--shards", "1", "4",
        ],
        "gates/service.toml": ["overhead", "--service", "--repeats", "1"],
        "gates/network.toml": [
            "chaos", "--network", "--seed", "6", "--rounds", "36",
        ],
    }

    def test_every_spec_is_covered(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1] / ".github"
        specs = {"gates.toml"} | {
            f"gates/{path.name}" for path in (root / "gates").glob("*.toml")
        }
        assert specs == set(self.QUICK_COMMANDS)

    @pytest.mark.parametrize("spec", sorted(QUICK_COMMANDS))
    def test_selectors_match_exactly_one_sample(self, spec, tmp_path, capsys):
        from pathlib import Path

        from repro.observability.gates import MetricsView, load_gate_specs

        out = tmp_path / "bench.json"
        assert main(self.QUICK_COMMANDS[spec] + ["--json", str(out)]) == 0
        capsys.readouterr()
        view = MetricsView.from_files([str(out)])
        root = Path(__file__).resolve().parents[1] / ".github"
        gates = load_gate_specs(str(root / spec))
        assert gates
        for gate in gates:
            for selector in filter(None, [gate.value, gate.baseline]):
                view.lookup(selector)  # raises unless exactly one match
