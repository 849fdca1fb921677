"""Command-line interface: output formats, exit codes, golden rows."""

import hashlib
import json
import os
import re
import shlex
import sys
import time
from fractions import Fraction

import pytest

from svoa import babymonster, cli, extremal, invariants, lattices, qseries
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


@pytest.mark.parametrize("argv", [
    ["series", "generic_module", "--rank", "1/2", "--weight", "2"],
    ["series", "vacuum", "--rank", "-24"],
])
def test_series_with_an_empty_window_is_zero(capsys, argv):
    # each leads at or past q^1, the truncation of order 1
    code, out, err = run(capsys, "--order", "1", *argv)
    assert (code, out.strip(), err) == (0, "0", "")


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


def test_classify_refuses_its_top_rank_before_any_solve(capsys, monkeypatch):
    # the work estimate grows with the rank, so the top rank decides
    monkeypatch.setattr(extremal, "WORK_BUDGET", 20000)
    solved = []
    solve = extremal.extremal_svoa
    monkeypatch.setattr(extremal, "extremal_svoa", lambda c: solved.append(c) or solve(c))
    code, out, err = run(capsys, "classify", "--from", "0", "--to", "120", "--max", "120")
    assert code == 1 and out == "" and "budget" in err and solved == []


def test_huge_molien_degree_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "molien", "--rank", "1/2", "--deg", "100000000")
    assert time.perf_counter() - start < 2
    assert code == 1 and out == "" and "budget" in err
    # the degree every caller uses stays far inside the bound
    code, out, _ = run(capsys, "molien", "--rank", "47/2", "--deg", "48")
    assert code == 0 and "7 t^48" in out


@pytest.mark.parametrize("argv", [
    ["--order", "200000", "series", "j"],
    ["--order", "200000", "baby"],
    # Leech's theta series is a closed form, so no theta count budget applies
    ["--order", "200000", "orbifold", "--lattice", "Leech"],
])
def test_huge_series_order_fails_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == "" and "budget" in err


def test_orbifold_refuses_its_series_before_theta(capsys, monkeypatch):
    # at order 8000 Leech's theta passes its own budget and the characters'
    # does not, so the refusal must come before theta is computed
    def count(*args):
        raise AssertionError("theta was computed")

    monkeypatch.setattr(lattices, "theta_series", count)
    start = time.perf_counter()
    code, out, err = run(capsys, "--order", "8000", "orbifold", "--lattice", "Leech")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == "" and "budget" in err


def test_baby_budget_covers_all_sectors(capsys, monkeypatch):
    # read each sector's work from its refusal, then fit the budget to the
    # costliest: every sector alone passes, all three together do not
    monkeypatch.setattr(qseries, "SERIES_BUDGET", 0)
    needs = []
    for l in "012":
        code, _, err = run(capsys, "--order", "2", "baby", "--sector", l)
        needs.append(int(re.search(r"needs about (\d+) ", err).group(1)))
    assert code == 1 and sum(needs) > max(needs)
    monkeypatch.setattr(qseries, "SERIES_BUDGET", max(needs))
    code, out, _ = run(capsys, "--order", "2", "baby", "--sector", "0")
    assert code == 0 and out.startswith("sector 0: ")
    evaluated = []
    character = babymonster.baby_character
    monkeypatch.setattr(babymonster, "baby_character",
                        lambda *args: evaluated.append(args) or character(*args))
    code, out, err = run(capsys, "--order", "2", "baby")
    assert code == 1 and out == "" and "budget" in err and evaluated == []


def test_series_budget_leaves_room_for_frontier_orders(monkeypatch):
    # series j --order 3000 and baby --order 150 pass a tenth of the budget:
    # their work starts, which the stubs below report instead of running it
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(qseries, "SERIES_BUDGET", qseries.SERIES_BUDGET // 10)
    monkeypatch.setitem(qseries._CATALOG, "j", started)
    monkeypatch.setattr(invariants, "chi_ising_0", started)
    for argv in (["--order", "3000", "series", "j"], ["--order", "150", "baby"]):
        with pytest.raises(Started):
            cli.run(argv)
    with pytest.raises(RuntimeError, match="budget"):
        cli.run(["--order", "10000", "series", "j"])


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


@pytest.fixture
def fresh_parsers():
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


def test_parser_built_once_per_order(capsys, monkeypatch, fresh_parsers):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("prog") == "svoa":
                built.append(self)

    monkeypatch.setattr(cli, "_Parser", Counted)
    for env_order, out, builds in (("1", "q^-1 + 744", 1), ("1", "q^-1 + 744", 1),
                                   ("2", "q^-1 + 744 + 196884 q", 2),
                                   ("1", "q^-1 + 744", 2)):
        monkeypatch.setenv("SVOA_ORDER", env_order)
        assert run(capsys, "series", "j")[1].strip() == out
        assert len(built) == builds


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


_USAGE_ERRORS = [
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
]


def _usage_error(capsys, monkeypatch, tmp_path, env_order, argv):
    """Run one usage-error case; return its exit code, stdout and stderr,
    with the temporary directory in stderr written as <tmp>."""
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
    return exc.value.code, out.out, out.err.replace(str(tmp_path), "<tmp>")


@pytest.mark.parametrize("env_order, argv", _USAGE_ERRORS)
def test_usage_errors_exit_64_before_work(capsys, monkeypatch, tmp_path,
                                          env_order, argv):
    code, out, err = _usage_error(capsys, monkeypatch, tmp_path, env_order, argv)
    assert code == 64 and out == "" and err.count("error:") == 1


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Golden pins, recorded from the CLI whose `run` printed each command's result
# in its own branch, with SVOA_ORDER unset and COLUMNS=80 (the width argparse
# wraps usage lines to).  Per README example: the sha256 of stdout with
# --format text appended, then with --format json appended.
_README_PINS = (
    ("svoa series j --order 6",
     "27268f02c18d885522582557d31314d2802021f5ce0ce7d1d03f525ddf077ef7",
     "e094a0dfc50ef4f6e8c7dfb4109531c5a1f0170db19b33ee02482ee66ec0814e"),
    ("svoa series vacuum --rank 24",
     "1de2c0e7fe22702747287d9b0066e04bb6d8784ab9c383b2fae3393d8a1932ff",
     "6432dbbbf4b36b3dbc34dbab8e25838e201cddf385670b343e650d57975630a5"),
    ("svoa extremal-voa --rank 24",
     "6f89c6bd013892c9c7306ba4b456814bde19122319b8289b9d59a46c6257516e",
     "ac560013f534b9ec90b974a4ad7a218c15df5bd00663873bf4727bfee756a809"),
    ("svoa extremal-svoa --rank 47/2 --format json",
     "f72c90ce755af078739ede5a6510f7981ec1ba72682e51052d2c694b4910eb61",
     "f3326ae74b93a0cdfaa18d30687204a6b1b8904a166e526bf146a9993e16a7f3"),
    ("svoa shadow --rank 16",
     "719cbc673fa1dc2ce40a0420970ae2eea7b96c4afc85a618395cf6de8b2351f9",
     "2987d289cb61a84897b4275abf5b4660f4862511581ac4f0da46f1a75ddd38c6"),
    ("svoa classify --from 8 --to 24",
     "57be545f68d1d628eaed7877b31dd534c4deae49c63b88be03cb55b6f9bae1ed",
     "b2e8305b1c254f1ee7f792e798e4fb6c7b070fea035ee56ef160189f01b8ab5c"),
    ("svoa monster-poly --format json",
     "faafff2aec696cc4787bfa60bca695aa07f1c2a3a50ccaf1daf2ce83027d83ba",
     "658acf66505f9cc80af78a6a7fcb549856a213df5fe826575f20950238fdbd65"),
    ("svoa baby --sector 1 --order 6",
     "6d00a4f6488361f4788eba2d05bb42b15ca7f408806156192e09fd00d2dda2e9",
     "c2a623126445c592225e36c9a2e82240fe7d50122d831059606daf68f5433051"),
    ("svoa molien --rank 1/2 --deg 48",
     "3f6e025dcbc61088a79a05706e18fee0c11120065ee824d5388bc7e7cd1b4258",
     "10965ac36216801f1d1bf74737b27d5d9d39dbe8c91d5c3e5dcbdea09a757e01"),
    ("svoa verlinde --rank 2",
     "c37027d3fe2270d205013b64d70c87619fc29a8ee8f63dfa6a7ccc3c0c049206",
     "58d1eb1e35a0363aec926090977f6e2cbef30afec83a8278d34b9c0d8a900e40"),
    ("svoa theta --lattice A15+ --order 4",
     "c0a67fa313b911ed2946fdb62d8b1ccc31a28ca4103bfb9d44df1179e01ed210",
     "a558ac9e1a70c8b60038b012763632f0bfc1d08db91871ceaf6894fe1e1d2194"),
    ("svoa orbifold --lattice Leech --order 5",
     "3341e522bd3113dd1b561b651575be9a6e51e60bf9213218c2a8814d06b52873",
     "8a20eff02eb7e91f78d1973461fe80bb19807808e2ca657e38357c0959890c76"),
)
# per _USAGE_ERRORS case, in its order: the sha256 of stderr, with <tmp>
# standing for the temporary directory; every case exits 64, stdout empty
_USAGE_ERROR_STDERR = (
    "51f4bfa4df42bb2f6468ae180b7a9afd54d098f5300f3a0b4272d7840f891f64",
    "ba02a2949d73a0fdb511ffc3e6133b8b49ccd5138582d1162f60e038ec8bc9c1",
    "45e7ae011594fb1b46c86dd1ac396552e5ace5e0c5c3b7b0952983ca60b8cc75",
    "4f7d61e8a449732fb0d97a99d2d07d622e3e85e9e4e19128181676f988ae2442",
    "f06b50ce009935700771cf1a3448204dffa345cdffdf9d4009196529e805e0ce",
    "f06b50ce009935700771cf1a3448204dffa345cdffdf9d4009196529e805e0ce",
    "f06b50ce009935700771cf1a3448204dffa345cdffdf9d4009196529e805e0ce",
    "1c611ce2de63f02491366de9b5c986ec2feb1ac1352df6fce64d77d462a72ca4",
    "1910c9abb1a93372f15e16723b2f7da1b43abc7e8c5030c99d594dd777062388",
    "f11ee84026f7aa95933b1deb4dcc5d90973cea45cd29caa385b3693060118db9",
    "7890f8c7a1c637353d63c29808d9551f25076c9e1ce68d96f5300a9a5bdcc8a6",
    "f4e12375ac21a0633b1d0759186390b7faafae44e5139009f1c5b8c420bbb8dd",
    "f4e12375ac21a0633b1d0759186390b7faafae44e5139009f1c5b8c420bbb8dd",
    "f4e12375ac21a0633b1d0759186390b7faafae44e5139009f1c5b8c420bbb8dd",
    "f4e12375ac21a0633b1d0759186390b7faafae44e5139009f1c5b8c420bbb8dd",
    "f4e12375ac21a0633b1d0759186390b7faafae44e5139009f1c5b8c420bbb8dd",
    "f4e12375ac21a0633b1d0759186390b7faafae44e5139009f1c5b8c420bbb8dd",
    "df3c1a45e15c8f61e31edc63ff8526cfc68a73b37e170a3622b06f12ae4c23a2",
    "f4e12375ac21a0633b1d0759186390b7faafae44e5139009f1c5b8c420bbb8dd",
    "f4e12375ac21a0633b1d0759186390b7faafae44e5139009f1c5b8c420bbb8dd",
    "a516612083afb2c32b0da5826f2029676aea7b616d0d8befaa4360df5d666556",
    "a516612083afb2c32b0da5826f2029676aea7b616d0d8befaa4360df5d666556",
    "9b44423f0853a8618762dd0cb5dfbf2cff7916f9f5873839f0f26f7180757a14",
    "da90ad16e5d72d164a39aceb254d9e35ea6a6cf1f2c6c80565c0b850e70e9224",
    "8af129f03340060b77123dd4ee1dce1e48657e95e4b313429cc20619190b9525",
    "354e65531e532c89412904c50b955c958a47f2aee01471247e1a47a704c530f6",
    "354e65531e532c89412904c50b955c958a47f2aee01471247e1a47a704c530f6",
    "c402da9d46fe870acdf1b6866ec53aab68e1f154bc7437aefeeac16928e11f8c",
    "d0879b235e407a01dd34c9046a98b7c83e5bf68ed457e1d683980b479b72696e",
    "70679a3abbe07b65880df71e1aeae25461d47fbc8e0cbd01842d13e22b795840",
    "70679a3abbe07b65880df71e1aeae25461d47fbc8e0cbd01842d13e22b795840",
    "bd0bbfc4a06679c7d284618f455acb2f5d9d7e0f113bb54549f125a65f7048ef",
    "88ed7414d08b68a12a2fdb7474f6584eabe8b05aff5be76bd4329f650a07558b",
    "b010635e63a864cf2b540d6ca9b9cade99c4be48655d6f21b1d4898f201b1427",
    "a91da788386932a26b21c86738423f36bf397d3bdb59e4991a5788dc915a8fac",
    "8aeb36fa92ddc4e46b65c5fde1eb813ba0ba3fca5135e9585f2e784eece1bcde",
)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_readme_examples_match_golden_stdout(capsys, monkeypatch, fmt):
    monkeypatch.delenv("SVOA_ORDER", raising=False)
    assert [line for line, _, _ in _README_PINS] == [
        " ".join(["svoa"] + argv) for argv in _readme_examples()]
    for line, text_pin, json_pin in _README_PINS:
        code, out, err = run(capsys, *shlex.split(line)[1:], "--format", fmt)
        pin = text_pin if fmt == "text" else json_pin
        assert (code, err, _sha(out)) == (0, "", pin), line


@pytest.mark.parametrize("i", range(len(_USAGE_ERRORS)))
def test_usage_errors_match_golden_output(capsys, monkeypatch, tmp_path, i):
    assert len(_USAGE_ERROR_STDERR) == len(_USAGE_ERRORS)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("SVOA_ORDER", raising=False)
    code, out, err = _usage_error(capsys, monkeypatch, tmp_path, *_USAGE_ERRORS[i])
    assert (code, out) == (64, "")
    # argparse's own wording (the usage line, the list after "invalid
    # choice") changes between Python releases; the pins are CPython 3.11's
    if sys.version_info[:2] == (3, 11):
        assert _sha(err) == _USAGE_ERROR_STDERR[i], err


@pytest.mark.parametrize("argv", [
    ["--order", "4", "series", "j"],
    ["--order", "2", "theta", "--lattice", "E8"],
    ["--order", "2", "orbifold", "--lattice", "E8"],
    ["--order", "2", "baby"],
    ["extremal-svoa", "--rank", "12"],
])
def test_json_builds_no_series_text(capsys, monkeypatch, argv):
    def refuse(self):
        raise AssertionError("QSeries.__str__ called under --format json")
    monkeypatch.setattr(QSeries, "__str__", refuse)
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == 0 and not err and json.loads(out)


def test_golden_pins_hold_after_other_environments(capsys, monkeypatch, tmp_path,
                                                   fresh_parsers):
    # a parser first built under another COLUMNS, and used beside one for
    # another SVOA_ORDER, prints what the pins recorded
    monkeypatch.setenv("COLUMNS", "30")
    for env_order in ("3", None):
        if env_order:
            monkeypatch.setenv("SVOA_ORDER", env_order)
        else:
            monkeypatch.delenv("SVOA_ORDER")
        assert run(capsys, "series", "j")[0] == 0
        with pytest.raises(SystemExit):
            main(["classify", "--from", "3", "--to", "1"])
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", "80")
    for fmt in ("text", "json"):
        test_readme_examples_match_golden_stdout(capsys, monkeypatch, fmt)
    for i in range(len(_USAGE_ERRORS)):
        (tmp_path / str(i)).mkdir()
        test_usage_errors_match_golden_output(capsys, monkeypatch, tmp_path / str(i), i)
