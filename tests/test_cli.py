import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from mops import cli, parser
from mops.errors import ParseError
from mops.rational import ALPHA
from mops.symfun import Leaf, Pow, Prod, Sum

a = ALPHA


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_examples():
    tree = parser.parse_expression("J[2,1]*C[1,1,1]")
    assert isinstance(tree, Prod)
    assert [x.basis for x in tree.items] == ["J", "C"]
    tree = parser.parse_expression("m[6]")
    assert isinstance(tree, Leaf) and tree.partition == (6,)
    tree = parser.parse_expression("(1/(1+a))*C[2] + C[1,1]^2")
    assert isinstance(tree, Sum)
    first, second = tree.items
    assert isinstance(first, Prod) and first.items[0].value == 1 / (1 + a)
    assert isinstance(second, Pow) and second.exponent == 2


def test_parse_scalar():
    assert parser.parse_scalar("1/2") == Fraction(1, 2)
    assert parser.parse_scalar("(1+a)^2/a") == (1 + a) ** 2 / a
    with pytest.raises(ParseError):
        parser.parse_scalar("m[2]")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parser.parse_expression("m[2,]")
    assert err.value.position == 4
    assert err.value.expected
    with pytest.raises(ParseError):
        parser.parse_expression("C[2] / C[1]")
    with pytest.raises(ParseError):
        parser.parse_expression("q[2]")


def test_installation_check(capsys):
    code, out, err = run(
        ["jack", "--alpha", "a", "--partition", "3", "--vars", "2", "--norm", "P"],
        capsys,
    )
    assert code == 0
    assert out == "m[3] + 3/(1+2*a)*m[2,1]\n"


def test_gbinomial_cli(capsys):
    code, out, _ = run(["gbinomial", "--alpha", "a", "--kappa", "2", "--sigma", "1"], capsys)
    assert code == 0 and out.strip() == "2"


def test_expect_cli(capsys):
    code, out, _ = run(
        [
            "expect",
            "--ensemble",
            "hermite",
            "--alpha",
            "a",
            "--vars",
            "3",
            "--expr",
            "J[2,1]*C[1,1,1]",
        ],
        capsys,
    )
    assert code == 0
    got = parser.parse_scalar(out.strip())
    assert got == -36 * (a - 1) * (a + 3) / ((1 + a) * (2 + a))


def test_roundtrip_canonical_text(capsys):
    # parse(canonical text) re-serializes to the same bytes
    from mops import symfun

    m_samples = [
        ["jack", "--alpha", "a", "--partition", "3,1", "--norm", "J"],
        ["jack", "--alpha", "1/2", "--partition", "2,2", "--norm", "C"],
        ["jack", "--alpha", "a", "--partition", "2,1", "--norm", "P"],
    ]
    for argv in m_samples:
        code, out, _ = run(argv, capsys)
        assert code == 0
        text = out.strip()
        flat = symfun.expand_to_monomials(None, parser.parse_expression(text))
        assert flat.text() == text
    # Jack-basis round trip through jack2jack (identity on linear combos)
    code, out, _ = run(
        ["convert", "--what", "jack2jack", "--alpha", "a", "--expr", "C[2,1] + (1/(1+a))*C[1,1,1]"],
        capsys,
    )
    assert code == 0
    text = out.strip()
    again = symfun.jack2jack(a, parser.parse_expression(text))
    assert again.text() == text


def test_json_schema_validation(capsys):
    import importlib.resources as res

    schema = json.loads(
        res.files("mops").joinpath("schemas/output.schema.json").read_text()
    )
    outputs = []
    for argv in [
        ["jack", "--alpha", "a", "--partition", "2,1", "--format", "json"],
        ["hermite", "--alpha", "a", "--partition", "2", "--format", "json"],
        ["laguerre", "--alpha", "a", "--partition", "1,1", "--g", "g", "--format", "json"],
        ["gbinomial", "--alpha", "a", "--kappa", "3,1", "--sigma", "1,1", "--format", "json"],
        ["convert", "--what", "m2p", "--expr", "m[2,1]*m[1]", "--format", "json"],
    ]:
        code, out, _ = run(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        outputs.append(out)
    # hermite2 defaults to the hermite family name in JSON
    assert '"family": "hermite"' in outputs[1]


def test_output_determinism(capsys):
    argv = ["hermite", "--alpha", "a", "--partition", "2,2", "--format", "json"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_exit_codes(capsys):
    code, _, err = run(["jack", "--alpha", "0", "--partition", "2"], capsys)
    assert code == 2 and "alpha" in err
    code, _, err = run(["jack", "--alpha", "-1", "--partition", "2"], capsys)
    assert code == 3  # recurrence pole
    code, _, err = run(
        ["hypergeom", "--alpha", "1", "--upper", "1/2,2", "--lower", "", "--xid", "1:2"],
        capsys,
    )
    assert code == 2
    code, _, err = run(["convert", "--what", "m2p", "--expr", "m[2,"], capsys)
    assert code == 2


def test_convert_in_zero_variables(capsys):
    # in 0 variables every m_lam with lam nonempty is zero, and m_() * m_() = m_()
    for what, expr, want in [
        ("m2m", "2*m[1]", "0"),
        ("m2m", "2*m[1] + 3", "3"),
        ("p2m", "2*p[1]", "0"),
        ("p2m", "(2 + p[1])^2", "4"),
    ]:
        code, out, _ = run(["convert", "--what", what, "--expr", expr, "--vars", "0"], capsys)
        assert (code, out) == (0, want + "\n"), (what, expr)


def test_expect_needs_a_variable_and_jack_and_convert_take_none(capsys):
    argv = ["expect", "--ensemble", "laguerre", "--alpha", "1", "--g", "0", "--vars", "0", "--expr", "C[1]"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "variable count" in err
    for argv, want in [
        (["jack", "--alpha", "1", "--partition", "2,1", "--vars", "0"], "0\n"),
        (["convert", "--what", "m2m", "--expr", "m[1]*m[1] + 2", "--vars", "0"], "2\n"),
    ]:
        assert run(argv, capsys)[:2] == (0, want), argv


def test_m2p_refuses_a_numeric_variable_count(capsys):
    # m2p solves in the generic ring; a numeric --vars would be ignored
    for vars_ in ("1", "3"):
        argv = ["convert", "--what", "m2p", "--expr", "m[1,1]", "--vars", vars_]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "") and "--vars" in err
    want = "-1/(2)*p[2] + 1/(2)*p[1,1]\n"
    for extra in ([], ["--vars", "generic"], ["--vars", "n"]):
        code, out, _ = run(["convert", "--what", "m2p", "--expr", "m[1,1]"] + extra, capsys)
        assert (code, out) == (0, want)


def test_density_csv(capsys):
    code, out, err = run(
        ["density", "level", "--beta", "2", "--n", "2", "--grid", "0:1:3"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 4
    x0, d0 = lines[1].split(",")
    assert float(x0) == 0.0
    assert abs(float(d0) - 0.19947114020071635) < 1e-15


def test_density_smallest_masses(capsys):
    code, out, err = run(
        ["density", "smallest", "--alpha", "1", "--p", "1", "--m", "2", "--grid", "0.1:8:5"],
        capsys,
    )
    assert code == 0
    assert "normalizing mass" in err


def test_density_smallest_with_a_mass_past_the_float_range(capsys):
    code, out, err = run(
        ["density", "smallest", "--alpha", "1", "--p", "100", "--m", "2", "--grid", "690:710:3"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,density" and len(lines) == 4
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(math.isfinite(v) and v > 0 for v in values)
    # the mass, about 1.4e378, prints its leading digits
    assert re.search(r"# normalizing mass 1\.\d{16}e\+378$", err.strip())


def test_import_and_density_load_no_scipy_or_numpy():
    # a fresh interpreter: the library and the density command stay light
    code = (
        "import sys, mops, mops.cli\n"
        "rc = mops.cli.main(['density', 'smallest', '--alpha', '1', '--p', '3',"
        " '--m', '3', '--grid', '0.5:4:3'])\n"
        "heavy = sorted(m for m in ('scipy', 'numpy') if m in sys.modules)\n"
        "print('rc=%d heavy=%s' % (rc, ','.join(heavy)), file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.startswith("x,density\n")
    assert "rc=0 heavy=\n" in proc.stderr


def test_eval_cli(capsys):
    code, out, _ = run(["eval", "--alpha", "1", "--expr", "C[2]", "--at", "1,1"], capsys)
    assert code == 0 and abs(float(out) - 3.0) < 1e-12
    code, out, _ = run(["eval", "--expr", "m[1,1]", "--at", "2,3"], capsys)
    assert code == 0 and abs(float(out) - 6.0) < 1e-12


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "mops.cfg"
    cfg.write_text("# settings\ndefault_limit=8\n")
    code, out, _ = run(
        ["--config", str(cfg), "hypergeom", "--alpha", "1", "--upper", "", "--lower", "", "--xid", "1:1"],
        capsys,
    )
    assert code == 0
    want = sum(Fraction(1, __import__("math").factorial(k)) for k in range(9))
    assert parser.parse_scalar(out.strip()) == want


@pytest.mark.parametrize(
    "text, message",
    [
        ("default_limit 8\n", "key=value"),
        ("default_limit=abc\n", "integer"),
        ("defualt_limit=3\n", "unknown config key"),
        ("cache_mb=64\n", "unknown config key"),
        (None, "cannot read config file"),
    ],
)
def test_config_errors_exit_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "mops.cfg"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run(
        ["--config", str(cfg), "gbinomial", "--alpha", "1", "--kappa", "2", "--sigma", "1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_largest_cdf_cli(capsys):
    code, out, _ = run(
        ["density", "largest-cdf", "--alpha", "2", "--g", "1/2", "--m", "1", "--x", "4"],
        capsys,
    )
    assert code == 0
    from scipy.special import gammainc

    assert abs(float(out) - gammainc(1.5, 2.0)) < 1e-9


def test_largest_cdf_grid_equals_library_points(capsys):
    from mops import cache, hypergeom

    cache.clear_all()
    code, out, _ = run(
        ["density", "largest-cdf", "--alpha", "1", "--g", "1", "--m", "2", "--grid", "1:33:5"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(x) for x, _ in rows] == [1.0, 9.0, 17.0, 25.0, 33.0]
    for x, y in rows:
        cache.clear_all()
        assert float(y) == hypergeom.largest_eig_cdf(1, 1, 2, float(x))


@pytest.mark.parametrize("alpha", [[], ["--alpha", "a"], ["--alpha", "0"], ["--alpha", "-1"]])
@pytest.mark.parametrize(
    "which",
    [
        ["smallest", "--p", "3", "--m", "3", "--grid", "0.1:2:3"],
        ["largest-cdf", "--g", "1", "--m", "2", "--x", "1"],
    ],
)
def test_density_needs_numeric_alpha(capsys, which, alpha):
    code, out, err = run(["density"] + which + alpha, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "alpha" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hermite", "--alpha", "-1", "--partition", "2", "--vars", "2"],
        ["hermite2", "--alpha", "-1", "--partition", "2", "--vars", "2"],
        ["laguerre", "--alpha", "-1", "--partition", "2", "--vars", "2", "--g", "1"],
        ["jacobi", "--alpha", "-1", "--partition", "2", "--vars", "2", "--g1", "1", "--g2", "1"],
        ["jack", "--alpha", "-1", "--partition", "1,1"],
        ["gbinomial", "--alpha", "-1", "--kappa", "2,1", "--sigma", "1"],
        ["hypergeom", "--alpha", "-1", "--upper", "1", "--lower", "3", "--xid", "1/2:2", "--limit", "4"],
        # the explicit point raises the pole of (1, 1) that --xid 1/2:2 raises
        ["hypergeom", "--alpha=-1", "--upper=-1", "--lower", "", "--x", "0.5,0.25", "--limit", "2"],
    ],
)
def test_hook_product_pole_exits_3(capsys, argv):
    # a numeric alpha that zeroes a hook product is a pole, not a crash
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "pole" in err


@pytest.mark.parametrize("point", [["--xid", "1/2:2"], ["--x", "0.5,0.25"]])
@pytest.mark.parametrize("alpha", ["-1", "1"])
def test_upper_parameter_zero_prints_one_without_a_limit(capsys, point, alpha):
    # (0)_kappa vanishes past degree 0, so no hook of (2,) is read at alpha = -1
    code, out, err = run(["hypergeom", "--alpha=" + alpha, "--upper=0", "--lower", ""] + point, capsys)
    assert (code, err) == (0, "")
    assert out.strip() in ("1", "1.0")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["jack", "--alpha", "1", "--partition", "2", "--at", "1,x"], "point"),
        (["eval", "--expr", "m[1]", "--at", "y"], "point"),
        (["hypergeom", "--alpha", "1", "--upper", "1", "--lower", "3", "--x", "1,z", "--limit", "4"], "point"),
        (["hypergeom", "--alpha", "1", "--upper", "1", "--lower", "3", "--xid", "1/2", "--limit", "4"], "x:m"),
        (["hypergeom", "--alpha", "1", "--upper", "1", "--lower", "3", "--xid", "1/2:q", "--limit", "4"], "x:m"),
        (["jack", "--alpha", "1", "--partition", "2,x"], "integers"),
        (["gbinomial", "--alpha", "1", "--kappa", "2.5", "--sigma", "1"], "integers"),
        (["density", "largest-cdf", "--alpha", "1", "--g", "1", "--m", "2"], "--x or a --grid"),
        (["density", "largest-cdf", "--alpha", "1", "--g", "1", "--m", "2", "--x", "q"], "point"),
        (["density", "level", "--beta", "2", "--n", "3"], "--grid"),
    ],
)
def test_malformed_input_exits_2(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv, foreign",
    [
        (["level", "--alpha", "1", "--beta", "4", "--n", "2", "--grid", "0:1:2"], "--alpha"),
        (["smallest", "--alpha", "1", "--p", "2", "--m", "2", "--g", "5", "--tol", "1e-3", "--beta", "7",
          "--grid", "1:2:2"], "--beta, --g, --tol"),
        (["largest-cdf", "--alpha", "1", "--g", "1", "--m", "2", "--p", "9", "--n", "3", "--scaled", "--x", "2"],
         "--p, --n, --scaled"),
    ],
)
def test_density_refuses_an_option_its_curve_does_not_read(capsys, argv, foreign):
    # the curve would compute without it, so a value given there would be dropped
    got = run(["density"] + argv, capsys)
    assert got == (2, "", "error: density %s does not take %s\n" % (argv[0], foreign))


@pytest.mark.parametrize("argv", [["level", "--beta", "4", "--n", "2"], ["smallest", "--alpha", "1", "--p", "2", "--m", "2"]])
def test_density_curves_need_a_grid(capsys, argv):
    assert run(["density"] + argv, capsys) == (2, "", "error: density %s needs --grid\n" % argv[0])


def test_readme_density_commands_succeed(capsys):
    commands = [shlex.split(line)[1:] for line in _readme_cli_lines() if line.startswith("mops density ")]
    assert len(commands) == 3
    for argv in commands:
        code, out, err = run(argv, capsys)
        assert code == 0 and out and not err.startswith("error"), argv


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["--ensemble", "laguerre"], "g"),
        (["--ensemble", "jacobi", "--g1", "1"], "g2"),
        (["--ensemble", "jacobi", "--g2", "1"], "g1"),
    ],
)
def test_expect_without_a_weight_parameter_exits_2(capsys, argv, missing):
    code, out, err = run(["expect"] + argv + ["--alpha", "1", "--vars", "2", "--expr", "C[1]"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: the %s ensemble needs the parameter %s\n" % (argv[1], missing)


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["--ensemble", "hermite", "--g", "5"], "g"),
        (["--ensemble", "laguerre", "--g", "1", "--g1", "7"], "g1"),
    ],
)
def test_expect_with_a_weight_parameter_of_another_ensemble_exits_2(capsys, argv, extra):
    code, out, err = run(["expect"] + argv + ["--alpha", "1", "--vars", "2", "--expr", "C[2]"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: unexpected parameters: %s\n" % extra


@pytest.mark.parametrize("family", ["hermite", "hermite2", "laguerre", "jacobi"])
@pytest.mark.parametrize("alpha, kappa", [("-3/2", "3,3"), ("-3/2", "4,4"), ("-2/3", "8")])
def test_zero_identity_value_exits_0(capsys, family, alpha, kappa):
    weights = {"laguerre": ["--g", "1"], "jacobi": ["--g1", "1", "--g2", "1"]}.get(family, [])
    code, out, err = run([family, "--alpha=" + alpha, "--partition", kappa, "--vars", "4"] + weights, capsys)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("family, code", [("hermite", 0), ("hermite2", 0), ("laguerre", 3)])
def test_only_poles_of_held_terms_exit_3(capsys, family, code):
    # the hooks of (2,1) vanish at alpha = -1/2; only Laguerre holds C_[2,1]
    weights = ["--g", "1"] if family == "laguerre" else []
    got = run([family, "--alpha=-1/2", "--partition", "2,1,1", "--vars", "3"] + weights, capsys)
    if code:
        assert got == (3, "", "error: alpha = -1/2 is a pole of the hook products of (2, 1)\n")
    else:
        assert got == (0, "C[2,1,1] - 24*C[2] - 18*C[1,1] + 72\n", "")


@pytest.mark.parametrize("partition", ["2,1", "1", ""])
def test_gsfact_at_alpha_zero_exits_2(capsys, partition):
    code, out, err = run(["gsfact", "--alpha", "0", "--r", "1", "--partition", partition], capsys)
    assert (code, out) == (2, "")
    assert err == "error: alpha = 0 is outside the Jack parameter domain\n"


_HYPERGEOM = ["hypergeom", "--alpha", "1", "--upper", "1", "--lower", "2"]
_LARGEST = ["density", "largest-cdf", "--alpha", "1", "--g", "0", "--m", "2"]


_SMALLEST = ["density", "smallest", "--alpha", "1", "--grid", "0.1:1:3"]
_LEVEL = ["density", "level", "--grid", "0:1:3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["jack", "--alpha", "1", "--partition", "1", "--vars", "1_0", "--format", "json"],
        ["hermite", "--alpha", "1", "--partition", "1", "--vars", "+2"],
        _HYPERGEOM + ["--xid", "1/2:2", "--limit", "1_0"],
        _HYPERGEOM + ["--x", "0.1", "--limit", "\u0661"],
        _SMALLEST + ["--p", "1_0", "--m", "2"],
        _SMALLEST + ["--p", "1", "--m", "\u00b2"],
        _LARGEST[:-2] + ["--m", "2.0", "--x", "1"],
        _LEVEL + ["--beta", "+2", "--n", "2"],
        _LEVEL + ["--beta", "2", "--n", "\u0663"],
    ],
)
def test_integer_options_read_only_decimal_digits(capsys, argv):
    # int() reads 1_0 as 10, +2, and other scripts' digits; argparse refuses them
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "integer" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (_SMALLEST[:-1] + ["0.1:1:1_0", "--p", "1", "--m", "2"], "--grid"),
        (_LEVEL[:-1] + ["0:1:\u00b3", "--beta", "2", "--n", "2"], "--grid"),
        (_HYPERGEOM + ["--xid", "1:\u00b2", "--limit", "3"], "x:m"),
        (_HYPERGEOM + ["--xid", "1:1_0", "--limit", "3"], "x:m"),
        (["jack", "--alpha", "1", "--partition", "1_0"], "integers"),
        (["gbinomial", "--alpha", "1", "--kappa", "2,\u0661", "--sigma", "1"], "integers"),
    ],
)
def test_integer_text_reads_only_decimal_digits(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hypergeom", "--alpha", "1", "--upper", "", "--lower", "", "--x", "0.1_5", "--limit", "2"], "point"),
        (["eval", "--expr", "m[1]", "--at", "\u0661,2"], "point"),
        (["jack", "--alpha", "1", "--partition", "2", "--at", "+1,2"], "point"),
        (_LARGEST + ["--x", "1_0"], "point"),
        (_LARGEST + ["--x", "Infinity"], "point"),
        (_LEVEL[:-1] + ["0:1_0:3", "--beta", "2", "--n", "2"], "--grid"),
        (_SMALLEST[:-1] + ["0.\u0661:1:3", "--p", "1", "--m", "2"], "--grid"),
    ],
)
def test_real_text_reads_only_decimal_digits(capsys, argv, message):
    # float() reads 0.1_5 as 0.15, +1, Infinity and other scripts' digits
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("tol", ["1_0", "+1e-8", "1e-\u0668"])
def test_tolerance_reads_only_decimal_digits(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        cli.main(_LARGEST + ["--x", "1", "--tol", tol])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "--tol" in err and "decimal number" in err


def test_hypergeom_at_a_point_prints_a_float(capsys):
    # every --x coordinate is a float, so the empty point's 1 prints as one
    for point, want in [(",", 1.0), ("0", 1.0), ("0.5", None)]:
        code, out, _ = run(_HYPERGEOM + ["--x", point, "--limit", "4"], capsys)
        assert code == 0 and "." in out and (want is None or float(out) == want), point


def test_jack_at_a_point_with_fewer_coordinates_than_parts_is_0(capsys):
    # C_[2,1,1] has no term in two variables; the generic table's monomials
    # with three parts vanish at a point of two
    code, out, _ = run(["jack", "--alpha", "1", "--partition", "2,1,1", "--at", "1,2"], capsys)
    assert (code, out) == (0, "0.0\n")
    code, out, _ = run(["jack", "--alpha", "1", "--partition", "2,1", "--at", "1,2"], capsys)
    assert (code, out) == (0, "12.0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["hypergeom", "--alpha", "1", "--xid", "1:2", "--x", "1,2", "--limit", "3"],
        ["hypergeom", "--alpha", "1", "--x", "1,2", "--xid", "1:2", "--limit", "3"],
        ["density", "largest-cdf", "--alpha", "1", "--g", "1", "--m", "2", "--x", "3", "--grid", "1:2:3"],
    ],
    ids=["xid-and-x", "x-and-xid", "x-and-grid"],
)
def test_one_point_option_at_a_time(capsys, argv):
    # the command would read one point and drop the other
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "not allowed with argument" in err


def _readme_cli_lines():
    """The lines of the README's CLI example block."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def _readme_cli_results():
    """(argv, printed result) for each README CLI line that states its result."""
    lines = _readme_cli_lines()
    found = []
    for i, line in enumerate(lines):
        command, _, comment = line.partition("#")
        if not command.startswith("mops "):
            continue
        if not comment and i + 1 < len(lines) and lines[i + 1].startswith("#"):
            comment = lines[i + 1][1:]
        if comment:
            found.append((shlex.split(command)[1:], comment.strip()))
    return found


def test_readme_cli_results(capsys):
    examples = _readme_cli_results()
    assert len(examples) == 4
    for argv, want in examples:
        code, out, _ = run(argv, capsys)
        assert (code, out) == (0, want + "\n"), argv


def test_reals_keep_every_float_repr():
    # each repr(float) text, and the spellings the README uses, reads back exactly
    for value in (0.0, -0.0, 1.0, -2.5, 0.1, 1e-05, 1.5e16, -1e200, 5e-324):
        assert cli._parse_point(" %r , %r" % (value, value)) == [value, value]
    assert cli._parse_point("1,.5,-3.,2E3") == [1.0, 0.5, -3.0, 2000.0]
    assert cli._parse_grid("-1.2:1.2:3") == [-1.2, 0.0, 1.2]
    assert cli._parse_grid("0.01:12:2") == [0.01, 12.0]


def test_config_limit_reads_only_decimal_digits(tmp_path, capsys):
    cfg = tmp_path / "mops.cfg"
    argv = ["--config", str(cfg), "hypergeom", "--alpha", "1", "--xid", "1:1"]
    for text in ("1_0", "+8", "\u0668"):
        cfg.write_text("default_limit=%s\n" % text, encoding="utf-8")
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "") and "default_limit must be a decimal integer" in err
    cfg.write_text("default_limit = 8 \n")
    code, out, _ = run(argv, capsys)
    want = sum(Fraction(1, math.factorial(k)) for k in range(9))
    assert code == 0 and parser.parse_scalar(out.strip()) == want


def test_integer_options_keep_spaces_signs_and_words(capsys):
    # the library still checks the range; generic and n remain --vars words
    code, out, _ = run(["jack", "--alpha", "1", "--partition", " 2, 1 ", "--vars", " 2", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["varMode"] == 2
    code, _, err = run(_HYPERGEOM + ["--xid", "1/2:2", "--limit", "-1"], capsys)
    assert code == 2 and "limit" in err
    for word in ("generic", "n"):
        code, out, _ = run(["jack", "--alpha", "1", "--partition", "2", "--vars", word, "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["varMode"] == "generic"


@pytest.mark.parametrize(
    "argv, message",
    [
        (_LARGEST + ["--x", "nan"], "finite"),
        (_LARGEST + ["--x", "inf"], "finite"),
        (_LARGEST + ["--x", "1", "--tol", "nan"], "tol"),
        (_LARGEST + ["--x", "1", "--tol", "0"], "tol"),
        (["density", "largest-cdf", "--alpha", "1", "--g", "0", "--m", "0", "--x", "1"], "m must be an integer >= 1"),
        (_HYPERGEOM + ["--x", "nan,0.1", "--limit", "3"], "finite"),
        (_HYPERGEOM + ["--xid", "1:2", "--tol", "-1"], "tol"),
        (_HYPERGEOM + ["--xid", "1/2:2", "--tol", "nan"], "tol"),
        (_HYPERGEOM + ["--xid", "1/2:2", "--limit", "-1"], "limit"),
        (["density", "smallest", "--alpha", "1", "--p", "1", "--m", "2", "--grid", "nan:1:3"], "finite"),
        (["density", "level", "--beta", "2", "--n", "2", "--grid", "nan:1:3"], "finite"),
        (["eval", "--expr", "m[1]", "--at", "nan,1"], "finite"),
        (["jack", "--alpha", "1", "--partition", "2", "--at", "inf,1"], "finite"),
    ],
)
def test_bad_numbers_exit_2(capsys, argv, message):
    # NaN, infinities and out-of-range tolerances, degrees and counts are
    # refused up front with one line, never printed as nan or summed
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--expr", "m[200]", "--at", "100"],
        ["eval", "--alpha", "1", "--expr", "C[2]", "--at", "1e200,1e200"],
        ["jack", "--alpha", "1", "--partition", "200", "--vars", "1", "--at", "100"],
    ],
)
def test_values_past_the_float_range_exit_2(capsys, argv):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "float range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "smallest", "--alpha", "1", "--p", "3", "--m", "3", "--grid", "1e40:1e41:2"],
        ["density", "level", "--beta", "4", "--n", "4", "--grid", "1e40:1e41:2"],
    ],
)
def test_densities_where_the_exponential_underflows_print_0(capsys, argv):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines() == ["x,density", "1e+40,0", "1e+41,0"]


def test_eval_power_sum_cli(capsys):
    code, out, _ = run(["eval", "--expr", "p[2]*p[1]", "--at", "1,2"], capsys)
    assert code == 0 and abs(float(out) - (1 + 4) * 3) < 1e-12


def test_hypergeom_symbolic_xid_cli(capsys):
    code, out, _ = run(
        ["hypergeom", "--alpha", "1", "--upper=-1,n+1", "--lower", "", "--xid", "x:2", "--limit", "10"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "1-2*r-2*n*r+n*r^2+n^2*r^2"


@pytest.mark.parametrize("upper", ["0", "1/2"])
def test_hypergeom_float_point_prints_a_float(capsys, upper):
    code, out, _ = run(
        ["hypergeom", "--alpha", "1", "--upper", upper, "--lower", "3/2", "--x", "0.3,0.2", "--limit", "4"],
        capsys,
    )
    assert code == 0 and isinstance(float(out), float) and "." in out


def test_hypergeom_tolerance_prints_the_exact_value(capsys):
    code, out, _ = run(
        ["hypergeom", "--alpha", "2", "--upper", "1/2", "--lower", "3/2", "--xid", "1/2:3", "--tol", "1e-12"],
        capsys,
    )
    assert (code, out.strip()) == (0, "3234775558633/(1961990553600)")


@pytest.mark.parametrize(
    "argv",
    [
        ["--alpha", "a", "--upper", "1", "--lower", "1", "--xid", "1:1", "--tol", "1e-8"],
        ["--alpha", "1", "--upper", "1", "--lower", "1", "--xid", "x:1", "--tol", "1e-8"],
    ],
)
def test_hypergeom_tolerance_needs_numeric_scalars(capsys, argv):
    code, out, err = run(["hypergeom"] + argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "numeric" in err


@pytest.mark.parametrize("point", [["--xid", "2:2"], ["--x", "0.5,1.5"]], ids=["xid", "vec"])
def test_hypergeom_tolerance_refuses_a_divergent_point(capsys, point):
    argv = ["hypergeom", "--alpha", "1", "--upper", "1,2", "--lower", "7/2", "--tol", "1e-9"]
    code, out, err = run(argv + point, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "diverges" in err


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("jack", "hermite", "laguerre", "jacobi", "gbinomial", "gsfact",
                 "hypergeom", "convert", "expect", "density", "eval"):
        assert name in out


from hypothesis import given, settings
from hypothesis import strategies as st

from mops import symfun
from mops.rational import N as N_P
from mops.rational import rf as rf_

_coeffs = st.sampled_from(
    [rf_(1), rf_(-1), rf_(2), rf_(Fraction(1, 2)), 1 + ALPHA, -3 / ALPHA, N_P / (1 + ALPHA)]
)
_parts = st.sampled_from([(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1, 1)])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_parts, _coeffs, min_size=1, max_size=4))
def test_roundtrip_random_expressions(terms):
    e = symfun.SymExpr("m", terms)
    text = e.text()
    back = symfun.expand_to_monomials(None, parser.parse_expression(text))
    assert back.terms == e.terms
    assert back.text() == text
