import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import ablab
from ablab import cli
from ablab.cli import build_parser, main
from ablab.sets import parse_set_spec
from ablab.groups import build_group, parse_group_spec


def run(argv):
    return main(argv)


class TestParsing:
    def test_bad_group_spec_exits_2(self, capsys):
        assert run(["diagnose", "--group", "nope:3", "--set", "elems:[0]"]) == 2

    def test_bad_set_spec_exits_2(self, capsys):
        assert run(["diagnose", "--group", "cyclic:8", "--set", "wat"]) == 2

    @pytest.mark.parametrize(
        "literal, content",
        [("elems:[9]", None), ("file:{}", '["a"]'), ("file:{}", "[1.7]")],
    )
    def test_bad_element_exits_2_with_one_line(self, capsys, tmp_path, literal, content):
        path = tmp_path / "set.json"
        if content is not None:
            path.write_text(content)
        assert run(["diagnose", "--group", "cyclic:8", "--set", literal.format(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("ablab: parse error:")

    @pytest.mark.parametrize("option", ["--group", "--set", "--out"])
    def test_double_dash_value_exits_2_with_one_line(self, capsys, option):
        # argparse turns "--opt=--" into an empty list instead of a string.
        argv = {"--group": "cyclic:8", "--set": "elems:[0]", "--out": "-"}
        argv[option] = "--"
        assert run(["saturation"] + [f"{k}={v}" for k, v in argv.items()]) == 2
        err = capsys.readouterr().err
        assert err == f"ablab: parse error: {option} needs a value\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["group", "--group", "cyclic:8", "--out", "{missing}/x.json"],
            [
                "regularity",
                "--group",
                "cyclic:8",
                "--set",
                "elems:[0,4]",
                "--eps",
                "1/4",
                "--nu",
                "1",
                "--csv",
                "{missing}/x.csv",
            ],
            ["bogolyubov", "--group", "cyclic:8", "--set", "interval:0..2", "--m", "-1"],
            ["verify", "--suite", "ruzsa", "--trials", "-2"],
            ["diagnose", "--group", "cyclic:8", "--set", "interval:0..2", "--bogus", "1"],
            ["diagnose", "--group", "cyclic:8", "--set", "interval:0..2", "--vc-cap", "-1"],
            [
                "regularity",
                "--group",
                "cyclic:8",
                "--set",
                "elems:[0,4]",
                "--eps",
                "1/4",
                "--nu",
                "1",
                "--vc-cap",
                "-3",
            ],
            ["bohr-search", "--group", "cyclic:16", "--set", "interval:0..3", "--budget", "-1"],
            ["group", "--group", "cyclic:8", "--subgroups", "--max-index", "0"],
            ["group", "--group", "cyclic:8", "--size-budget", "x"],
            # Python refuses to print this eps, which the message names.
            "regularity --group cyclic:8 --set elems:[0,1] --eps 1e5000 --nu 1".split(),
        ],
        ids=[
            "out",
            "csv",
            "m",
            "trials",
            "unknown-option",
            "vc-cap",
            "regularity-vc-cap",
            "bohr-budget",
            "max-index",
            "size-budget",
            "eps-past-digit-limit",
        ],
    )
    def test_invalid_invocation_exits_2_with_one_line(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing"
        assert run([a.format(missing=missing) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no report, also when the --csv path is unwritable
        assert len(err.splitlines()) == 1 and err.startswith("ablab: ")

    @pytest.mark.parametrize("entry", ["65536", "-65536"])
    def test_cayley_entry_beyond_the_index_dtype_exits_2(self, capsys, tmp_path, entry):
        # Both entries wrap to valid indices of cyclic(2) once cast to uint16.
        path = tmp_path / "wide.cayley"
        path.write_text(f"2\n0 1\n1 {entry}\n")
        assert run(["group", "--group", f"cayley:{path}"]) == 2
        err = capsys.readouterr().err
        assert err == "ablab: error: table entries out of range\n"

    @pytest.mark.parametrize(
        "command, option",
        [
            ("diagnose", "--seed"),
            ("diagnose", "--budget"),
            ("saturation", "--seed"),
            ("croot-sisask", "--budget"),
            ("croot-sisask", "--strategy"),
            ("croot-sisask", "--seed"),
            ("bohr-search", "--seed"),
            ("bogolyubov", "--budget"),
            ("bogolyubov", "--seed"),
            ("regularity", "--budget"),
            ("regularity", "--seed"),
            ("verify", "--jobs"),
        ],
    )
    def test_options_a_command_does_not_read_exit_2(self, capsys, command, option):
        required = ["--group", "cyclic:8", "--set", "interval:0..2"]
        if command == "regularity":
            required += ["--eps", "1/4", "--nu", "1"]
        elif command == "verify":
            required = ["--suite", "regression"]
        assert run([command, *required, option, "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"ablab: parse error: unrecognized arguments: {option} 2\n"

    def test_cached_group_still_honours_size_budget(self, capsys, tmp_path):
        out = str(tmp_path / "g.json")
        assert run(["group", "--group", "ea:2^8", "--out", out]) == 0
        capsys.readouterr()
        assert run(["group", "--group", "ea:2^8", "--size-budget", "16", "--out", out]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("ablab: error:")

    def test_reused_parser_restores_defaults(self, capsys):
        argv = ["diagnose", "--group", "ea:2^4", "--set", "elems:[0,1,2,3,8,9,11,12]"]
        assert run(argv + ["--vc-cap", "2"]) == 0
        capped = json.loads(capsys.readouterr().out)["vc"]
        assert (capped["vc_dim"], capped["cap_hit"]) == (2, True)
        assert run(argv) == 0
        default = json.loads(capsys.readouterr().out)["vc"]
        assert (default["vc_dim"], default["cap_hit"]) == (3, False)
        assert build_parser() is build_parser()
        assert build_parser().parse_args(argv).vc_cap == 6

    def test_bad_option_after_a_good_call_exits_2_with_one_line(self, capsys):
        argv = ["diagnose", "--group", "cyclic:8", "--set", "interval:0..2"]
        assert run(argv) == 0
        capsys.readouterr()
        assert run(argv + ["--vc-cap", "x"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("ablab: parse error:")
        assert run(["saturation", "--group=--", "--set", "elems:[0]"]) == 2
        assert capsys.readouterr().err == "ablab: parse error: --group needs a value\n"

    def test_group_spec_round_trip(self):
        for text in ["cyclic:8", "ea:2^6", "dihedral:4", "sym:4", "alt:5", "prod:cyclic:2+ea:2^2"]:
            spec = parse_group_spec(text)
            g = build_group(spec)
            assert g.order >= 1


class TestCommands:
    def test_diagnose_interval(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            ["diagnose", "--group", "cyclic:8", "--set", "interval:0..2", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["growth"]["tripling"] == [7, 3]

    def test_group_inspect(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        assert run(["group", "--group", "dihedral:4", "--subgroups", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["order"] == 8 and payload["exponent"] == 4
        assert payload["subgroup_count"] == 10

    def test_emitted_sets_reparse_to_equal_objects(self, tmp_path):
        out = tmp_path / "d.json"
        run(
            [
                "diagnose",
                "--group",
                "ea:2^4",
                "--set",
                "random:density=1/2,seed=3",
                "--out",
                str(out),
            ]
        )
        payload = json.loads(out.read_text())
        g = build_group(parse_group_spec("ea:2^4"))
        emitted = payload["stabilizer"]["stabilizer"]["elems"]
        literal = "elems:[" + ",".join(map(str, emitted)) + "]"
        reparsed = parse_set_spec(g, literal)
        assert sorted(reparsed) == emitted

    def test_regularity_csv_and_exit_code(self, tmp_path):
        out = tmp_path / "rep.json"
        csv_path = tmp_path / "cosets.csv"
        code = run(
            [
                "regularity",
                "--group",
                "ea:2^6",
                "--set",
                "cosets:H=[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15],reps=[0,17]",
                "--eps",
                "1/4",
                "--nu",
                "1",
                "--out",
                str(out),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["success"] is True
        assert csv_path.read_text().startswith("rep,")

    def test_verify_regression_suite_passes(self, tmp_path):
        out = tmp_path / "reg.json"
        code = run(["verify", "--suite", "regression", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_vc_cap_exhaustion_exits_3(self, tmp_path):
        code = run(
            [
                "regularity",
                "--group",
                "cyclic:8",
                "--set",
                "elems:[0,1]",
                "--eps",
                "1/4",
                "--nu",
                "1",
                "--vc-cap",
                "1",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 3

    def test_bohr_search(self, tmp_path):
        out = tmp_path / "b.json"
        code = run(
            [
                "bohr-search",
                "--group",
                "cyclic:16",
                "--set",
                "interval:0..3",
                "--mode",
                "tripling",
                "--n-max",
                "2",
                "--deltas",
                "1/2,7/16,1/4,1/8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["found"] is True
        assert payload["witness"]["size_bound_ok"] is True

    def test_bohr_map_budget_names_its_limit_and_dimension(self, capsys):
        argv = ["bohr-search", "--group", "cyclic:16", "--set", "interval:0..3"]
        # 15 nontrivial characters: 15 + C(15, 2) = 120 maps at --n-max 2.
        assert run(argv + ["--budget", "20"]) == 3
        assert capsys.readouterr().err == (
            "ablab: budget/cap exhausted: Bohr witness search needs 120"
            " character maps at --n-max 2, over its budget of 20\n"
        )
        assert run(argv + ["--budget", "119"]) == 3
        assert run(argv + ["--budget", "120"]) == 0

    @pytest.mark.parametrize("deltas", ["1/99999999999999999999", "1e-400", "1/9223372036854775808"])
    def test_bohr_deltas_beyond_int64_give_one_report(self, capsys, deltas):
        argv = ["bohr-search", "--group", "cyclic:16", "--set", "interval:0..3"]
        assert run(argv + ["--deltas", deltas]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 1
        witness = json.loads(out)["witness"]
        assert witness["bohr"]["elems"] == [0]  # only the kernel is that close to 0

    @pytest.mark.parametrize(
        "line",
        [
            "bohr-search --group cyclic:16 --set interval:0..3 --deltas 1e-5000",
            "regularity --group cyclic:8 --set elems:[0,1] --eps 1e-5000 --nu 1",
        ],
    )
    def test_rationals_past_the_digit_limit_give_one_report(self, capsys, line):
        limit = sys.get_int_max_str_digits()
        assert run(line.split()) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 1
        # json.loads refuses the 5,001-digit denominator, so read the raw text.
        assert "[1,1" + "0" * 5000 + "]" in out
        assert sys.get_int_max_str_digits() == limit

    def test_bogolyubov_command(self, tmp_path):
        out = tmp_path / "bg.json"
        code = run(
            [
                "bogolyubov",
                "--group",
                "ea:2^5",
                "--set",
                "random:density=1/2,seed=11",
                "--mode",
                "tripling",
                "--m",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["h_in_w"] is True


class TestRegularityEpsDomain:
    """delta > 30 puts the packing bound k = (30/delta)^d below 1, which no
    stabilizer meets: that is a property of the input, so it exits 2, not 4.
    With nu = 1 and d = 2 in cyclic(8), delta = 30 exactly at eps = 120."""

    @staticmethod
    def argv(group, eps):
        return ["regularity", "--group", group, "--set", "elems:[0,1]", "--eps", eps, "--nu", "1"]

    @pytest.mark.parametrize(
        "group, eps",
        [("cyclic:8", "121"), ("cyclic:8", "200"), ("cyclic:8", "1000000"), ("ea:2^6", "1000")],
    )
    def test_eps_beyond_the_packing_bound_exits_2_with_one_line(self, capsys, group, eps):
        assert run(self.argv(group, eps)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(
            rf"ablab: error: eps = {eps} too large: delta > 30 makes the packing bound"
            r" \(30/delta\)\^\d < 1\n",
            err,
        )

    def test_eps_at_the_bound_keeps_its_report(self, capsys):
        # k = 1 exactly is admissible; the digest pins the report's bytes.
        assert run(self.argv("cyclic:8", "120")) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["k"] == 1.0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "55c742497e370dfb89649d63ebeb80b6aa3d7bd3bf884e05da6976bdcb4cfc14"
        )


class TestRegularityPowerBudget:
    """Every exact power the regularity pipeline forms is sized first, as
    exponent times the bit length of its base; past POWER_BIT_BUDGET the run
    exits 3 at once instead of hanging on the power.  In cyclic(8) with
    A = {0,1} (vc_dim 2) and eps = 1/4, nu = 1000 and 2000 still answer (their
    goldens pin the reports) and these inputs stop, each in a fresh process
    under a time limit."""

    @pytest.mark.parametrize("nu", ["5000", "10000", "1/1000000", "12345/678", "1e400", "1e-5000"])
    def test_large_powers_exit_3_with_one_line(self, nu):
        src = os.path.dirname(os.path.dirname(ablab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        argv = ["regularity", "--group", "cyclic:8", "--set", "elems:[0,1]", "--eps", "1/4"]
        proc = subprocess.run(
            [sys.executable, "-m", "ablab.cli", *argv, "--nu", nu],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert re.fullmatch(
            r"ablab: budget/cap exhausted: regularity needs an exact power of"
            r" (\d+|over 2\^\d+) bits, over the budget of 16777216 bits\n",
            proc.stderr,
        )


class TestBohrMapBudgetDefault:
    """The default --budget, 4096 maps, covers every dimension-1 search in a
    group under the default size budget (at most 4095 nontrivial characters)."""

    ARGV = ["bohr-search", "--group", "cyclic:1024", "--set", "interval:0..40", "--mode", "alternation"]

    def test_dimension_1_answers_as_with_no_limit(self, capsys):
        assert run(self.ARGV + ["--n-max", "1"]) == 0
        default = capsys.readouterr().out
        assert run(self.ARGV + ["--n-max", "1", "--budget", "0"]) == 0
        assert capsys.readouterr().out == default

    def test_dimension_2_stops_before_any_map(self, capsys, monkeypatch):
        tried = []
        monkeypatch.setattr(cli.bohr_mod, "_sublevel_mask", lambda *a: tried.append(a))
        assert run(self.ARGV + ["--n-max", "2"]) == 3
        assert capsys.readouterr().err == (
            "ablab: budget/cap exhausted: Bohr witness search needs 523776"
            " character maps at --n-max 2, over its budget of 4096\n"
        )
        assert tried == []

    @pytest.mark.parametrize(
        "group, literal, mode, budget, maps",
        [
            # σ = G abelian; σ abelian inside a nonabelian G; σ = G nonabelian.
            ("cyclic:64", "elems:[0,1,9]", "alternation", 100, 2016),
            ("dihedral:8", "random:density=1/8,seed=1", "tripling", 20, 28),
            ("dihedral:32", "random:density=1/8,seed=1", "alternation", 5, 6),
        ],
    )
    def test_over_budget_exits_3_before_the_character_table(
        self, capsys, monkeypatch, group, literal, mode, budget, maps
    ):
        def refused(*args):
            raise AssertionError("the character table was formed")

        monkeypatch.setattr(cli.bohr_mod, "characters", refused)
        argv = ["bohr-search", "--group", group, "--set", literal, "--mode", mode]
        assert run(argv + ["--n-max", "2", "--budget", str(budget)]) == 3
        assert capsys.readouterr().err == (
            f"ablab: budget/cap exhausted: Bohr witness search needs {maps}"
            f" character maps at --n-max 2, over its budget of {budget}\n"
        )


class TestDeterminism:
    def test_verify_reports_byte_identical_with_cold_and_warm_group_cache(
        self, tmp_path, monkeypatch
    ):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--suite", "ruzsa", "--trials", "60", "--seed", "9"]
        monkeypatch.setattr(cli, "_GROUP_CACHE", {})
        assert run(args + ["--out", str(a)]) == 0
        assert set(cli._GROUP_CACHE) == set(cli.RUZSA_ZOO)
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--suite", "plunnecke", "--trials", "40", "--seed", "4"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# --- malformed literals ------------------------------------------------------------

_INT = st.one_of(st.integers(-3, 70), st.integers(-(10**30), 10**30)).map(str)
_JUNK = st.text(alphabet=":^+[],.=/-_0123456789cexHX \n", max_size=10)
_TOKEN = st.one_of(_INT, _JUNK)
_INDEX_LIST = st.lists(_TOKEN, max_size=5).map(",".join)

_GROUP_LITERALS = st.one_of(
    st.builds(
        "{}:{}".format,
        st.sampled_from(["cyclic", "c", "dihedral", "d", "sym", "alt", "nope", ""]),
        _TOKEN,
    ),
    st.builds("ea:{}^{}".format, _TOKEN, _TOKEN),
    st.builds(
        "prod:{}+{}".format,
        st.sampled_from(["cyclic:2", "ea:2^2", "sym:3", ""]),
        st.sampled_from(["cyclic:3", "dihedral:4", "x", ""]),
    ),
    st.builds("cayley:{}".format, _JUNK),
    _JUNK,
)

_SET_LITERALS = st.one_of(
    st.builds("elems:[{}]".format, _INDEX_LIST),
    st.builds(
        "random:density={},seed={}".format,
        st.sampled_from(["1/2", "0", "1", "3/2", "1/0", "x", "-1/3"]),
        _TOKEN,
    ),
    st.builds("interval:{}..{}".format, _TOKEN, _TOKEN),
    st.builds("hamming:{}".format, _TOKEN),
    st.builds("cosets:H=[{}],reps=[{}]".format, _INDEX_LIST, _INDEX_LIST),
    st.just("file:{path}"),
    _JUNK,
)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=6,
)
_FILE_BYTES = st.one_of(st.binary(max_size=16), _JSON.map(json.dumps).map(str.encode))


@pytest.fixture(scope="module")
def literal_file(tmp_path_factory):
    return tmp_path_factory.mktemp("literals") / "set.json"


@settings(max_examples=300, deadline=None)
@given(group=_GROUP_LITERALS, set_literal=_SET_LITERALS, content=_FILE_BYTES)
def test_malformed_literals_keep_the_exit_code_contract(
    literal_file, group, set_literal, content
):
    literal_file.write_bytes(content)
    argv = [
        "saturation",
        f"--group={group}",
        f"--set={set_literal.replace('{path}', str(literal_file))}",
        "--size-budget=64",
    ]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if code in (2, 3):
        assert len(lines) == 1 and lines[0].startswith("ablab: ")
