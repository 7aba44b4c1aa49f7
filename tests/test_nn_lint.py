"""cfg linter tests."""

import pytest

from repro.nn.config import parse_config
from repro.nn.lint import ERROR, WARNING, lint_config
from repro.nn.zoo import (
    cnv6_config,
    mlp4_config,
    tincy_yolo_config,
    tiny_yolo_config,
    yolov2_config,
)


class TestZooIsClean:
    @pytest.mark.parametrize(
        "factory",
        [tiny_yolo_config, tincy_yolo_config, mlp4_config, cnv6_config,
         yolov2_config],
    )
    def test_zoo_configs_have_no_errors(self, factory):
        findings = lint_config(factory())
        assert not [f for f in findings if f.severity == ERROR], findings

    def test_tincy_has_no_findings_at_all(self):
        assert lint_config(tincy_yolo_config()) == []


class TestDetectsMistakes:
    def test_binary_layer_with_float_input(self):
        config = parse_config(
            "[net]\nwidth=16\nheight=16\nchannels=3\n"
            "[convolutional]\nfilters=8\nsize=3\nstride=1\npad=1\n"
            "activation=relu\n"                      # no activation_bits!
            "[convolutional]\nfilters=8\nsize=3\nstride=1\npad=1\n"
            "activation=relu\nbinary=1\nactivation_bits=3\n"
        )
        findings = lint_config(config)
        assert any("unquantized feature" in f.message for f in findings)
        assert all(f.severity == WARNING for f in findings)

    def test_binary_and_ternary_error(self):
        config = parse_config(
            "[net]\nwidth=8\nheight=8\nchannels=3\n"
            "[convolutional]\nfilters=4\nsize=3\nstride=1\npad=1\n"
            "activation=relu\nbinary=1\nternary=1\n"
        )
        findings = lint_config(config)
        assert any(f.severity == ERROR for f in findings)

    def test_region_channel_mismatch(self):
        config = parse_config(
            "[net]\nwidth=16\nheight=16\nchannels=3\n"
            "[convolutional]\nfilters=100\nsize=1\nstride=1\npad=0\n"
            "activation=linear\n"
            "[region]\nclasses=20\nnum=5\n"
        )
        findings = lint_config(config)
        assert any(
            f.severity == ERROR and "region expects 125" in f.message
            for f in findings
        )

    def test_quantized_region_input_warned(self):
        config = parse_config(
            "[net]\nwidth=16\nheight=16\nchannels=3\n"
            "[convolutional]\nfilters=125\nsize=1\nstride=1\npad=0\n"
            "activation=relu\nactivation_bits=3\n"
            "[region]\nclasses=20\nnum=5\n"
        )
        findings = lint_config(config)
        assert any("quantization sensitive" in f.message for f in findings)

    def test_unknown_section_warned(self):
        config = parse_config(
            "[net]\nwidth=8\nheight=8\nchannels=1\n[frobnicate]\nx=1\n"
        )
        findings = lint_config(config)
        assert any("unknown section" in f.message for f in findings)

    def test_bad_geometry(self):
        config = parse_config("[net]\nwidth=0\nheight=8\nchannels=1\n[softmax]\n")
        findings = lint_config(config)
        assert any("geometry" in f.message for f in findings)


class TestCLILint:
    def test_clean_zoo(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--cfg-only", "tincy"]) == 0
        assert "looks consistent" in capsys.readouterr().out

    def test_broken_cfg_file(self, tmp_path, capsys):
        from repro.cli import main

        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[net]\nwidth=16\nheight=16\nchannels=3\n"
            "[convolutional]\nfilters=100\nsize=1\nstride=1\npad=0\n"
            "activation=linear\n"
            "[region]\nclasses=20\nnum=5\n"
        )
        assert main(["analyze", "--cfg-only", str(cfg)]) == 1
        assert "region expects 125" in capsys.readouterr().out
