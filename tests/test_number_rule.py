"""The number rule: a number in a config file, in a CSV row or in a
command-line option is ASCII text without ``_``. Python's ``int`` and
``float`` read both (``int("1_0")`` is 10, ``int("٣")`` is 3), so every
parser of number text goes through ``dataio.integer`` or ``dataio.real``.
One table runs each parser over the same texts."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypervad.cli import build_parser, main
from hypervad.core import ValidationError
from hypervad.dataio import integer, read_config, read_scores, real

ROOT = Path(__file__).resolve().parents[1]

# Each text the rule rejects, with its ASCII form: a digit separator,
# ARABIC-INDIC DIGIT THREE, FULLWIDTH DIGIT FOUR, a separator in a fraction.
TEXTS = [("1_0", "10"), ("٣", "3"), ("４", "4"), ("0.1_0", "0.10")]
INPUTS = ["--visual", "v.emb", "--text", "t.emb", "--captions", "c.jsonl"]


class Rejected(Exception):
    pass


def config_value(key):
    def parse(text, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {text}\n", encoding="utf-8")
        try:
            return getattr(read_config(path), key)
        except ValidationError as exc:
            raise Rejected from exc
    return parse


def csv_field(column):
    """A scores file whose score, or whose frame after as many rows as the
    frame's ASCII form counts, is ``text``."""
    def parse(text, tmp_path, monkeypatch):
        path = tmp_path / "scores.csv"
        if column == "frame":
            before = int(float(dict(TEXTS).get(text, text)))
            path.write_text("".join(f"{i},0.5\n" for i in range(before)) + f"{text},0.5\n", encoding="utf-8")
        else:
            path.write_text(f"0,{text}\n", encoding="utf-8")
        try:
            values = read_scores(path)
        except ValidationError as exc:
            raise Rejected from exc
        return len(values) - 1 if column == "frame" else values[0]
    return parse


def cli_option(verb, option):
    args = {"synth": ["synth", "--out", "o"], "validate": ["validate", *INPUTS],
            "run": ["run", *INPUTS, "--out", "o"]}[verb]

    def parse(text, tmp_path, monkeypatch):
        try:
            parsed = build_parser().parse_args([*args, option, text])
        except SystemExit as exc:
            assert exc.code == 2
            raise Rejected from exc
        return vars(parsed)[option[2:].replace("-", "_")]
    return parse


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Stop(Exception):
    pass


def experiment_option(option):
    def parse(text, tmp_path, monkeypatch):
        script = load_script("run_synthetic_experiment")

        def run(**options):
            raise Stop(options)

        monkeypatch.setattr(script, "run", run)
        monkeypatch.setattr(sys, "argv", ["run_synthetic_experiment.py", option, text])
        try:
            script.main()
        except SystemExit as exc:
            assert exc.code == 2
            raise Rejected from exc
        except Stop as stop:
            return stop.args[0][option[2:].replace("-", "_")]
        raise AssertionError("run was not called")
    return parse


def server_option(option):
    def parse(text, tmp_path, monkeypatch):
        script = load_script("scorer_server")

        def server(scorer, host, port):
            raise Stop({**scorer, "port": port})

        monkeypatch.setattr(script, "StubScorer", lambda prompt_dim, emb_dim, seed: dict(
            prompt_dim=prompt_dim, emb_dim=emb_dim, seed=seed))
        monkeypatch.setattr(script, "LoopbackScorerServer", server)
        monkeypatch.setattr(sys, "argv", ["scorer_server.py", option, text])
        try:
            script.main()
        except SystemExit as exc:
            assert exc.code == 2
            raise Rejected from exc
        except Stop as stop:
            return stop.args[0][option[2:].replace("-", "_")]
        raise AssertionError("no server was made")
    return parse


# name: (the kind of number the parser reads, the parser)
PARSERS = {
    "config int setting": (int, config_value("seed")),
    "config float setting": (float, config_value("curvature")),
    "csv frame": (int, csv_field("frame")),
    "csv score": (float, csv_field("score")),
    **{f"{verb} --seed": (int, cli_option(verb, "--seed")) for verb in ("validate", "run")},
    **{f"synth {option}": (kind, cli_option("synth", option)) for option, kind in (
        ("--n-segments", int), ("--dim", int), ("--anomaly-fraction", float), ("--shift", float),
        ("--seed", int), ("--frames-per-segment", int))},
    **{f"experiment {option}": (kind, experiment_option(option)) for option, kind in (
        ("--seed", int), ("--n-segments", int), ("--dim", int), ("--shift", float),
        ("--anomaly-fraction", float), ("--window", int))},
    **{f"scorer server {option}": (int, server_option(option))
       for option in ("--prompt-dim", "--emb-dim", "--seed", "--port")},
}


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize("text, ascii_form", TEXTS, ids=[ascii_form for _, ascii_form in TEXTS])
def test_every_parser_rejects_what_the_rule_rejects(tmp_path, monkeypatch, parser, text, ascii_form):
    kind, parse = PARSERS[parser]
    with pytest.raises(Rejected):
        parse(text, tmp_path, monkeypatch)
    if kind is float or ascii_form.isdigit():
        value = parse(ascii_form, tmp_path, monkeypatch)
        assert isinstance(value, kind) and value == kind(ascii_form)


@pytest.mark.parametrize("text, ascii_form", TEXTS)
def test_integer_and_real(text, ascii_form):
    for parse in (integer, real):
        with pytest.raises(ValueError, match=f"got {text!r}"):
            parse(text)
    assert real(ascii_form) == float(ascii_form)


class TestUsageErrorBeforeAnythingIsWritten:
    """A malformed option is argparse's usage error: the usage line, exit 2,
    and nothing written."""

    @pytest.mark.parametrize("option, text", [("--n-segments", "1_0"), ("--dim", "４"),
                                              ("--seed", "٣"), ("--anomaly-fraction", "0.1_0")])
    def test_synth(self, tmp_path, capsys, option, text):
        out = tmp_path / "n1"
        with pytest.raises(SystemExit) as exit_info:
            main(["synth", "--out", str(out), option, text])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hypervad synth ")
        assert f"argument {option}: invalid " in err and repr(text) in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_validate_and_run(self, tmp_path, capsys, verb):
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--out", str(data), "--n-segments", "8", "--dim", "4"]) == 0
        inputs = ["--visual", str(data / "visual.emb"), "--text", str(data / "text.emb"),
                  "--captions", str(data / "captions.jsonl"), "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main([verb, *inputs, "--seed", "٣"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: hypervad {verb} ")
        assert not out.exists()
        assert main([verb, *inputs, "--seed", "3"]) == 0

    def run_script(self, name, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_experiment_script(self, tmp_path):
        out = tmp_path / "exp"
        proc = self.run_script("run_synthetic_experiment.py", "--out", str(out), "--window", "1_0")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: ") and "argument --window: invalid integer value: '1_0'" in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()

    def test_scorer_server_binds_nothing(self):
        # the usage error comes before the server is made: no "serving" line
        proc = self.run_script("scorer_server.py", "--port", "8_750")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: ") and "argument --port: invalid integer value: '8_750'" in proc.stderr
        assert proc.stdout == ""
