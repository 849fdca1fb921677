"""Command-line interface: output formats, exit codes, golden rows."""

import hashlib
import json
import os
import shlex
import time
from fractions import Fraction

import pytest

from svoa.cli import main
from svoa.qseries import QSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_series_text(capsys):
    code, out, _ = run(capsys, "--order", "3", "series", "j")
    assert code == 0
    assert out.strip() == "q^-1 + 744 + 196884 q + 21493760 q^2"


def test_series_json_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "--order", "4", "series", "eta")
    assert code == 0
    obj = json.loads(out)
    x = QSeries.from_json(obj)
    assert x.coeff(2) == 1 and x.coeff(50) == -1


def test_series_names_take_hyphens(capsys):
    _, hyphen, _ = run(capsys, "--order", "3", "series", "chi-ising-16")
    code, underscore, _ = run(capsys, "--order", "3", "series", "chi_ising_16")
    assert code == 0 and hyphen == underscore
    assert underscore.strip() == "q^(1/24) + q^(25/24) + q^(49/24)"


def test_series_vacuum_requires_rank(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "vacuum"])
    out = capsys.readouterr()
    assert exc.value.code == 64 and out.out == "" and "--rank" in out.err


def test_extremal_svoa_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "extremal-svoa",
                       "--rank", "47/2")
    assert code == 0
    obj = json.loads(out)
    assert obj["a"] == ["1", "-47", "0"]
    terms = dict((n, v) for n, v in obj["series"]["terms"])
    assert terms[-47] == "1"
    assert terms[-47 + 72] == "4371"


def test_extremal_voa_text(capsys):
    code, out, _ = run(capsys, "extremal-voa", "--rank", "24")
    assert code == 0
    assert "196884" in out and "a = [1, -744]" in out


def test_shadow_text(capsys):
    code, out, _ = run(capsys, "shadow", "--rank", "16")
    assert code == 0
    assert "B* = -15/16" in out
    assert "integral=False" in out and "nonneg=False" in out


def test_classify_table_golden(capsys):
    code, out, _ = run(capsys, "classify", "--from", "8", "--to", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("rank   | status")
    assert lines[2].startswith("8      | exists_known  | E8")
    assert lines[3].startswith("17/2   | ruled_out     | G")
    assert lines[4].startswith("9      | ruled_out     | G")
    assert lines[6].startswith("10     | conditional_L | L")


def test_classify_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "classify",
                       "--from", "47/2", "--to", "24")
    rows = json.loads(out)
    assert rows[0]["rank"] == "47/2" and rows[0]["name"] == "VB"
    assert rows[1]["rank"] == "24" and rows[1]["status"] == "exists_known"


def test_classify_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--from", "16", "--to", "18")
    _, out2, _ = run(capsys, "classify", "--from", "16", "--to", "18")
    assert out1 == out2


def test_monster_poly_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "monster-poly")
    rows = json.loads(out)
    d = {(i, j, k): v for i, j, k, v in rows}
    assert d[(44, 4, 0)] == "804" and d[(0, 0, 48)] == "2048"


def test_monster_poly_constraints_file(capsys, tmp_path):
    # a consistent constraint file reproduces the default solution
    rows = [[48, 0, 0, "1"], [46, 2, 0, "0"], [39, 1, 8, "0"],
            [32, 0, 16, "0"], [44, 4, 0, "804"], [16, 0, 32, "9024"],
            [0, 0, 48, "2048"]]
    path = tmp_path / "constraints.json"
    path.write_text(json.dumps(rows))
    code, out, _ = run(capsys, "--format", "json", "monster-poly",
                       "--constraints", str(path))
    assert code == 0
    d = {(i, j, k): v for i, j, k, v in json.loads(out)}
    assert d[(24, 24, 0)] == "7891186524"


def test_series_generic_module(capsys):
    code, out, _ = run(capsys, "--order", "3", "series", "generic_module",
                       "--rank", "24", "--weight", "2")
    assert code == 0
    assert out.strip().startswith("q + q^2")


def test_baby_sector(capsys):
    code, out, _ = run(capsys, "--format", "json", "--order", "5",
                       "baby", "--sector", "1")
    obj = json.loads(out)
    terms = dict(obj["1"]["terms"])
    assert terms[-47 + 72] == "4371"


def test_molien(capsys):
    code, out, _ = run(capsys, "molien", "--rank", "1/2", "--deg", "6")
    assert code == 0
    assert "group order 1152" in out
    assert "1 t^0 + 1 t^3 + 1 t^6" in out


def test_verlinde_text(capsys):
    code, out, _ = run(capsys, "verlinde", "--rank", "1/2")
    assert "M2 x M2 = M0 + M1" in out


# sha256 of the `--format json` stdout, recorded from the route that keyed
# Molien's classes by cofactor minors and expanded the generator determinants
_MOLIEN_48_JSON = (  # ranks 0, 1, ..., 23
    "043e024e6a60bd553111b5f08ca36d23a6c2e19110d88cf28ae434d02a795fb4",
    "1f7fd9b0b7bd44e831ef6c8ff713b07f3d1de435bfb3591cdac62bcb3bec33ed",
    "8121abc5caf37adda5565531e6d9ff362aa369f7eba35d86fff5ac3a0b33ef61",
    "1da4eebb6bf10fd9f3d02c5be03aad5f5d568cdd58bf8c1c497d1c9bf23f888d",
    "8a1f39d85406018dcf6913af24f7e6342450c15cbc6eabb82b24d9de2567a444",
    "1f7fd9b0b7bd44e831ef6c8ff713b07f3d1de435bfb3591cdac62bcb3bec33ed",
    "4e5933e0ed6450a5ed4f22a59f6c9565c40a5c73a01afb4a102d8d0f8d70f4ae",
    "1f7fd9b0b7bd44e831ef6c8ff713b07f3d1de435bfb3591cdac62bcb3bec33ed",
    "8a1f39d85406018dcf6913af24f7e6342450c15cbc6eabb82b24d9de2567a444",
    "1da4eebb6bf10fd9f3d02c5be03aad5f5d568cdd58bf8c1c497d1c9bf23f888d",
    "8121abc5caf37adda5565531e6d9ff362aa369f7eba35d86fff5ac3a0b33ef61",
    "1f7fd9b0b7bd44e831ef6c8ff713b07f3d1de435bfb3591cdac62bcb3bec33ed",
    "043e024e6a60bd553111b5f08ca36d23a6c2e19110d88cf28ae434d02a795fb4",
    "1f7fd9b0b7bd44e831ef6c8ff713b07f3d1de435bfb3591cdac62bcb3bec33ed",
    "8121abc5caf37adda5565531e6d9ff362aa369f7eba35d86fff5ac3a0b33ef61",
    "1da4eebb6bf10fd9f3d02c5be03aad5f5d568cdd58bf8c1c497d1c9bf23f888d",
    "8a1f39d85406018dcf6913af24f7e6342450c15cbc6eabb82b24d9de2567a444",
    "1f7fd9b0b7bd44e831ef6c8ff713b07f3d1de435bfb3591cdac62bcb3bec33ed",
    "4e5933e0ed6450a5ed4f22a59f6c9565c40a5c73a01afb4a102d8d0f8d70f4ae",
    "1f7fd9b0b7bd44e831ef6c8ff713b07f3d1de435bfb3591cdac62bcb3bec33ed",
    "8a1f39d85406018dcf6913af24f7e6342450c15cbc6eabb82b24d9de2567a444",
    "1da4eebb6bf10fd9f3d02c5be03aad5f5d568cdd58bf8c1c497d1c9bf23f888d",
    "8121abc5caf37adda5565531e6d9ff362aa369f7eba35d86fff5ac3a0b33ef61",
    "1f7fd9b0b7bd44e831ef6c8ff713b07f3d1de435bfb3591cdac62bcb3bec33ed",
)
_VERLINDE_JSON = (  # ranks 0, 1/2, ..., 47/2
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
    "b29768807002385e6b6eb41b57254f13cd1cc63c218dc236051a93c5335a7df5",
    "d3387c7863678cb8582bd314866eaef3cbb9126026b96c2e2f16ef1b96738fc1",
)


@pytest.mark.parametrize("c", range(24))
def test_molien_json_matches_pinned_digest(capsys, c):
    code, out, _ = run(capsys, "--format", "json", "molien", "--rank", str(c),
                       "--deg", "48")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _MOLIEN_48_JSON[c]


@pytest.mark.parametrize("h", range(48))
def test_verlinde_json_matches_pinned_digest(capsys, h):
    code, out, _ = run(capsys, "--format", "json", "verlinde", "--rank",
                       str(Fraction(h, 2)))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _VERLINDE_JSON[h]


def test_theta_and_orbifold(capsys):
    code, out, _ = run(capsys, "--order", "3", "theta", "--lattice", "E8")
    assert out.strip().startswith("1 + 240 q + 2160 q^2")
    code, out, _ = run(capsys, "--order", "3", "--format", "json",
                       "orbifold", "--lattice", "Leech")
    obj = json.loads(out)
    terms = dict(obj["terms"])
    assert terms[-48] == "1" and terms[48] == "196884"


def test_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--from", "8"])
    assert exc.value.code == 64


def test_computation_exit_code(capsys):
    code, _, err = run(capsys, "extremal-voa", "--rank", "7")
    assert code == 1
    assert "multiple of 8" in err


@pytest.mark.parametrize("argv", [
    ["extremal-svoa", "--rank", "100000"],
    ["extremal-voa", "--rank", "100000"],
    ["shadow", "--rank", "100000"],
    ["classify", "--from", "100000", "--to", "100000", "--max", "100000"],
])
def test_huge_extremal_rank_fails_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == "" and "budget" in err


def test_huge_molien_degree_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "molien", "--rank", "1/2", "--deg", "100000000")
    assert time.perf_counter() - start < 2
    assert code == 1 and out == "" and "budget" in err
    # the degree every caller uses stays far inside the bound
    code, out, _ = run(capsys, "molien", "--rank", "47/2", "--deg", "48")
    assert code == 0 and "7 t^48" in out


def test_order_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SVOA_ORDER", "2")
    code, out, _ = run(capsys, "series", "j")
    assert out.strip() == "q^-1 + 744 + 196884 q"
    # a bad SVOA_ORDER is a usage error only once it is used
    monkeypatch.setenv("SVOA_ORDER", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "SVOA_ORDER" in capsys.readouterr().out
    code, out, _ = run(capsys, "--order", "2", "series", "j")
    assert code == 0 and out.strip() == "q^-1 + 744 + 196884 q"


def _readme_examples():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        lines = [line.split("#")[0].strip() for line in fh]
    return [shlex.split(line)[1:] for line in lines if line.startswith("svoa ")]


def test_readme_examples_exit_zero(capsys):
    examples = _readme_examples()
    assert len(examples) >= 12
    for argv in examples:
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and not err, argv


def test_global_flags_after_subcommand(capsys):
    _, first, _ = run(capsys, "--format", "json", "--order", "6", "series", "j")
    _, after, _ = run(capsys, "series", "j", "--order", "6", "--format", "json")
    _, mixed, _ = run(capsys, "--order", "2", "series", "j", "--format", "json",
                      "--order", "6")
    assert first == after == mixed
    assert QSeries.from_json(json.loads(first)).trunc == 6 * 48


# --constraints stand-ins for a path that does not exist and for a directory
_MISSING, _DIRECTORY = object(), object()


@pytest.mark.parametrize("env_order, argv", [
    (None, ["--order", "-5", "series", "j"]),
    (None, ["series", "j", "--order", "0"]),
    ("abc", ["series", "j"]),
    ("-3", ["series", "j"]),
    (None, ["classify", "--from", "3", "--to", "1"]),
    (None, ["classify", "--from", "0", "--to", "80"]),
    (None, ["classify", "--from", "8", "--to", "10", "--max", "9"]),
    (None, ["classify", "--from", "1/3", "--to", "1"]),
    (None, ["molien", "--rank", "1/2", "--deg", "-1"]),
    (None, ["verlinde", "--rank", "1/3"]),
    (None, ["extremal-svoa", "--rank", "x"]),
    # a --constraints argument here is the file's text, not its path
    (None, ["monster-poly", "--constraints", "5"]),
    (None, ["monster-poly", "--constraints", '[[48, 0, 0, null]]']),
    (None, ["monster-poly", "--constraints", '[[48, 0, 0]]']),
    (None, ["monster-poly", "--constraints", '[[47.5, 0, 0, "1"]]']),
    (None, ["monster-poly", "--constraints", '[[48, 0, true, "1"]]']),
    (None, ["monster-poly", "--constraints", '[[48, 0, 0, 0.5]]']),
    (None, ["monster-poly", "--constraints", '[[48, 0, 0, "1/0"]]']),
    (None, ["monster-poly", "--constraints", '[[48, 0, 0, "1"], 7]']),
    (None, ["monster-poly", "--constraints", '[[48, 0, 0, "1"']),
    (None, ["theta", "--lattice", "D0+"]),
    (None, ["theta", "--lattice", "D6+"]),
    (None, ["theta", "--lattice", "Q8"]),
    (None, ["orbifold", "--lattice", "Q8"]),
    (None, ["orbifold", "--lattice", "Z0"]),
    (None, ["orbifold", "--lattice", "Z7"]),
    (None, ["orbifold", "--lattice", "E7"]),
    (None, ["series", "no_such_series"]),
    (None, ["series", "chi-half-plus"]),
    (None, ["series", "generic_module", "--weight", "2"]),
    (None, ["series", "generic_module", "--rank", "24"]),
    (None, ["series", "generic_module", "--rank", "1/2", "--weight", "1/7"]),
    (None, ["--order", "1", "series", "j", "--rank", "3", "--weight", "1/7"]),
    (None, ["series", "vacuum", "--rank", "4", "--weight", "1/7"]),
    (None, ["monster-poly", "--constraints", _MISSING]),
    (None, ["monster-poly", "--constraints", _DIRECTORY]),
])
def test_usage_errors_exit_64_before_work(capsys, monkeypatch, tmp_path,
                                          env_order, argv):
    if env_order is not None:
        monkeypatch.setenv("SVOA_ORDER", env_order)
    if "--constraints" in argv:
        i = argv.index("--constraints") + 1
        path = tmp_path / "constraints.json"
        if argv[i] is _DIRECTORY:
            path.mkdir()
        elif argv[i] is not _MISSING:
            path.write_text(argv[i])
        argv = argv[:i] + [str(path)] + argv[i + 1:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 64 and out.out == "" and out.err.count("error:") == 1
