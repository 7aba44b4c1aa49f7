"""Fast serving smoke test — the tier-1 CI gate for ``repro.serve``.

A few seconds end to end: full queue → batcher → worker-pool path on the
small MLP-4 network plus one ``repro serve-bench`` CLI invocation.  The
exhaustive behavioral coverage lives in test_serve_server.py; this file
is the canary that CI runs explicitly (`make serve-smoke`).
"""

import json

import numpy as np

from repro.cli import main
from repro.core.tensor import FeatureMap, FeatureMapBatch
from repro.nn import zoo
from repro.nn.network import Network
from repro.serve import InferenceServer, ServeConfig


def test_serve_round_trip_smoke(rng):
    network = Network(zoo.mlp4_config())
    network.initialize(rng)
    frames = [
        FeatureMap(rng.normal(size=network.input_shape).astype(np.float32))
        for _ in range(10)
    ]
    direct = network.forward_batch(FeatureMapBatch.from_maps(frames))
    config = ServeConfig(max_batch=4, max_delay_s=0.002, cpu_workers=2)
    with InferenceServer(network, config) as server:
        # One request at a time on an otherwise idle server ...
        alone = [server.infer(frame, timeout_s=30) for frame in frames[:5]]
        quiet = server.metrics.snapshot()
        # ... then a burst arriving faster than two workers drain it.
        served = server.infer_many(frames * 3, timeout_s=30)
        snapshot = server.metrics.snapshot()
    expected = list(direct.frames())
    for want, got in zip(expected[:5] + expected * 3, alone + served):
        assert np.array_equal(got.data, want.data)
    # Counts, not timings: behind a free worker nothing waits for the batch
    # deadline, and a burst is still coalesced.
    assert quiet["flush_causes"] == {"idle": 5}
    assert quiet["batch_histogram"] == {"1": 5}
    assert any(int(size) > 1 for size in snapshot["batch_histogram"])
    assert snapshot["completed"] == 35
    assert snapshot["shed"] == 0
    assert sum(snapshot["flush_causes"].values()) >= 2  # batched, not 1:1
    json.dumps(snapshot)  # the export path must stay JSON-safe


def test_serve_bench_cli_smoke(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "serve-bench", "--network", "mlp4", "--requests", "12",
        "--max-batch", "4", "--output", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["network"] == "mlp4"
    assert report["requests"] == 12
    # No --max-delay-ms: the deadline is the dataclass default, not a restated one.
    assert report["config"]["max_delay_s"] == ServeConfig.max_delay_s
    assert report["metrics"]["completed"] == 12
    assert "single process): 12 requests" in capsys.readouterr().out
