"""§I storage argument — quantization defuses the parameter footprint.

"Eliminating unnecessary precision from the network parameters reduces
their memory footprint accordingly."  This bench prices Tiny/Tincy YOLO
under float32, int8 and the paper's mixed W1A3 regime, and checks the
claim that makes the whole §III-A architecture possible: the binarized
hidden-layer weights fit the XCZU3EG's on-chip block RAM.
"""


from repro.finn.device import XCZU3EG
from repro.nn.network import Network
from repro.nn.zoo import (
    cnv6_config,
    mlp4_config,
    tincy_yolo_config,
    tiny_yolo_config,
)
from repro.perf.memory import compression_factor, network_memory
from repro.util.tables import format_table


def test_memory_footprint(benchmark, report):
    def price_all():
        rows = {}
        for name, config in (
            ("Tiny YOLO", tiny_yolo_config()),
            ("Tincy YOLO", tincy_yolo_config()),
            ("MLP-4", mlp4_config()),
            ("CNV-6", cnv6_config()),
        ):
            network = Network(config)
            rows[name] = {
                regime: network_memory(network, regime)
                for regime in ("float32", "int8", "quantized")
            }
        return rows

    priced = benchmark.pedantic(price_all, rounds=1, iterations=1)

    tincy = priced["Tincy YOLO"]
    assert tincy["quantized"].weight_bytes < tincy["int8"].weight_bytes
    assert tincy["int8"].weight_bytes < tincy["float32"].weight_bytes

    # The enabler of §III-A: hidden binary weights fit in on-chip BRAM.
    network = Network(tincy_yolo_config())
    factor = compression_factor(network)
    assert factor > 20

    text_rows = []
    for name, regimes in priced.items():
        text_rows.append(
            (
                name,
                f"{regimes['float32'].weight_bytes / 1e6:7.1f} MB",
                f"{regimes['int8'].weight_bytes / 1e6:7.1f} MB",
                f"{regimes['quantized'].weight_bytes / 1e6:7.2f} MB",
                f"{regimes['quantized'].activation_bytes / 1e6:6.2f} MB",
            )
        )
    text_rows.append(
        ("Tincy compression", "", "", f"{factor:.0f}x vs float32", "")
    )
    report(
        "§I storage: parameter/activation footprint by precision regime",
        format_table(
            ["Network", "float32 W", "int8 W", "paper regime W", "acts"],
            text_rows,
        ),
    )


def test_hidden_weights_fit_bram(benchmark):
    network = Network(tincy_yolo_config())

    def hidden_bits():
        report = network_memory(network, "quantized")
        hidden = [l for l in report.layers if l.name == "convolutional"][1:-1]
        return sum(l.weight_bits for l in hidden)

    bits = benchmark(hidden_bits)
    assert bits == 6_312_960
    assert bits < XCZU3EG.bram_bits
