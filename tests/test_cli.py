import dataclasses
import json
import sys
from pathlib import Path

import pytest

from fieldstar.cli import MAX_MODES, build_parser, main
from fieldstar.jets import complex_system, real_system
from fieldstar.parser import MAX_DEPTH
from fieldstar.session import ConfigError, SessionConfig, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

KG_CONFIG = {
    "dim": 3,
    "fields": [{"name": "phi", "kind": "real", "pair": "pi"}],
    "constants": ["m"],
    "functions": {"U": True},
    "kernel": "i*delta",
    "order": 6,
    "tolerance": 1e-8,
    "seed": 0,
    "hamiltonian": ("1/2*(pi^2 + d1(phi)^2 + d2(phi)^2 + d3(phi)^2"
                    " + m^2*phi^2) + U(phi)"),
}

NLS_CONFIG = {
    "dim": 3,
    "fields": [{"name": "psi", "kind": "complex"}],
    "constants": ["kappa"],
    "functions": {},
    "kernel": "i*delta",
    "hamiltonian": ("psi[1,0,0]*psibar[1,0,0] + psi[0,1,0]*psibar[0,1,0]"
                    " + psi[0,0,1]*psibar[0,0,1] + kappa*(psi*psibar)^2"),
}


def _write(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture
def kg_config(tmp_path):
    return _write(tmp_path, "kg.json", KG_CONFIG)


@pytest.fixture
def nls_config(tmp_path):
    return _write(tmp_path, "nls.json", NLS_CONFIG)


def test_eom_prints_wave_equation(kg_config, capsys):
    assert main(["eom", "--config", kg_config, "--field", "pi"]) == 0
    assert capsys.readouterr().out.strip() \
        == "laplacian(phi) - m^2*phi - U'(phi)"
    assert main(["eom", "--config", kg_config, "--field", "phi"]) == 0
    assert capsys.readouterr().out.strip() == "pi"


@pytest.mark.parametrize("hamiltonian", ["U'''(phi)*phi + pi^2",
                                         "phi*U'''(phi) + pi^2"])
def test_condition_b_sees_a_jet_behind_a_function_symbol(hamiltonian,
                                                          tmp_path, capsys):
    # U''' has no known value at the origin, but phi vanishes there
    config = _write(tmp_path, "kg.json",
                    {**KG_CONFIG, "hamiltonian": hamiltonian})
    assert main(["eom", "--config", config, "--field", "phi"]) == 0
    assert capsys.readouterr().out == "2*pi\n"


def test_condition_b_refuses_an_unknown_value_with_no_vanishing_factor(
        tmp_path, capsys):
    config = _write(tmp_path, "kg.json",
                    {**KG_CONFIG, "hamiltonian": "U'''(phi) + pi^2"})
    assert main(["eom", "--config", config, "--field", "phi"]) == 2
    assert capsys.readouterr().err \
        == "error: value of U (order 3) at the origin is unknown\n"


def test_eom_prints_nls(nls_config, capsys):
    assert main(["eom", "--config", nls_config, "--field", "psi"]) == 0
    assert capsys.readouterr().out.strip() \
        == "-laplacian(psi) + 2*kappa*psi^2*psibar"


def test_classify_kernels(capsys):
    assert main(["classify", "--kernel", "d1 delta", "--dim", "1"]) == 0
    assert capsys.readouterr().out.strip() == "antisymmetric"
    assert main(["classify", "--kernel", "delta + 2*d1 delta",
                 "--dim", "1"]) == 0
    assert capsys.readouterr().out.strip() == "mixed"


def test_bracket_command(capsys):
    assert main(["bracket", "phi^2", "pi", "--dim", "1",
                 "--kernel", "delta"]) == 0
    assert capsys.readouterr().out.strip() == "2*phi{x}*delta{x,y}"


def test_star_command_shows_series(capsys):
    assert main(["star", "phi", "pi", "--dim", "1", "--kernel", "delta"]) == 0
    out = capsys.readouterr().out
    assert "hbar^0: phi{x}*pi{y}" in out
    assert "hbar^1: delta{x,y}" in out


def test_vardiff_command(capsys):
    assert main(["vardiff", "1/2*(pi^2 + d1(phi)^2 + m^2*phi^2) + U(phi)",
                 "--field", "phi", "--dim", "1"]) == 0
    assert capsys.readouterr().out.strip() \
        == "-laplacian(phi) + m^2*phi + U'(phi)"


def test_verify_commands_exit_zero(capsys):
    assert main(["verify", "jacobi", "--dim", "1", "--seed", "7",
                 "--trials", "5"]) == 0
    assert main(["verify", "duality", "--dim", "1", "--trials", "10"]) == 0
    assert main(["verify", "peierls"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_parse_error_exits_two(capsys):
    assert main(["bracket", "phi +", "pi", "--dim", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_field_exits_two(kg_config, capsys):
    assert main(["eom", "--config", kg_config, "--field", "nope"]) == 2


@pytest.mark.parametrize("argv", [
    ["eom", "--config", str(CONFIGS / "kg.json"), "--field", "chi"],
    ["vardiff", "phi", "--field", "chi", "--dim", "1"],
])
def test_unknown_field_names_the_field(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown field 'chi'\n"


def test_config_keys_left_out_take_the_session_defaults():
    assert dataclasses.asdict(load_config({})) \
        == dataclasses.asdict(SessionConfig())
    data = json.loads((CONFIGS / "nls.json").read_text())
    cfg = load_config(data)
    assert cfg.system == complex_system(3)
    assert cfg.dim == data["dim"]
    assert cfg.constants == frozenset(data["constants"])
    assert cfg.functions == data["functions"]
    assert cfg.kernel_text == data["kernel"]
    assert cfg.order == data["order"]
    assert cfg.tolerance == data["tolerance"]
    assert cfg.seed == data["seed"]
    assert cfg.hamiltonian_text == data["hamiltonian"]


def test_the_session_dimension_is_its_systems():
    cfg = SessionConfig(complex_system(2))
    assert cfg.dim == 2
    assert dataclasses.replace(cfg, system=real_system(4)).dim == 4


def test_json_output_is_canonical(capsys):
    assert main(["bracket", "phi", "pi", "--dim", "1", "--kernel", "delta",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "tensor"
    assert payload["dim"] == 1


def test_peierls_eval_json(capsys):
    assert main(["peierls", "eval", "--mass", "1", "--time", "0.5",
                 "--modes", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "spectral"
    assert len(payload["data"]) == 5


def test_dim_override_keeps_declared_fields(tmp_path, capsys):
    config = dict(NLS_CONFIG, hamiltonian="d1(psi)*d1(psibar)"
                                          " + kappa*(psi*psibar)^2")
    path = _write(tmp_path, "nls.json", config)
    assert main(["eom", "--config", path, "--field", "psi", "--dim", "1"]) == 0
    assert capsys.readouterr().out.strip() \
        == "-laplacian(psi) + 2*kappa*psi^2*psibar"


def test_order_zero_is_honoured(capsys):
    assert main(["star", "phi", "pi", "--dim", "1", "--kernel", "delta",
                 "--order", "0"]) == 0
    out = capsys.readouterr().out
    assert "hbar^0: phi{x}*pi{y}" in out
    assert "hbar^1" not in out


@pytest.mark.parametrize("argv", [
    ["star", "phi", "pi", "--dim", "1", "--order", "-1"],
    ["classify", "--dim", "0"],
    ["bracket", "phi", "pi", "--dim", "-2"],
])
def test_out_of_range_order_or_dim_exits_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["verify", "jacobi", "--trials", "-1"],
    ["verify", "duality", "--dim", "1", "--trials", "0"],
    ["peierls", "eval", "--modes", "-1"],
    ["verify", "jacobi", "--trials", "10001"],
    ["verify", "assoc", "--dim", "1", "--trials", "100000000000"],
])
def test_out_of_range_trials_or_modes_exits_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("key, value", [
    ("dim", 0), ("order", -1), ("kernel", "1/0*delta")])
def test_a_flag_and_its_config_key_are_refused_with_one_message(
        key, value, tmp_path, capsys):
    # star reads --dim, --kernel and --order
    path = _write(tmp_path, "bad.json", {key: value})
    errors = []
    for extra in (["--config", path], [f"--{key}", str(value)]):
        assert main(["star", "phi", "pi", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]


def test_a_flag_wins_over_its_config_key(tmp_path, capsys):
    path = _write(tmp_path, "kernel.json", {"kernel": "d1 delta"})
    assert main(["classify", "--config", path, "--kernel", "delta"]) == 0
    assert capsys.readouterr().out == "symmetric\n"


@pytest.mark.parametrize("flag", ["--mass", "--time"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_peierls_eval_refuses_a_value_that_is_not_finite(monkeypatch, capsys,
                                                        flag, value):
    import fieldstar.peierls

    def refuse(*_args):
        raise AssertionError("green_eval ran on a value that is not finite")

    monkeypatch.setattr(fieldstar.peierls, "green_eval", refuse)
    # "--time=-inf": argparse reads a separate "-inf" as an option
    assert main(["peierls", "eval", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be finite\n"


@pytest.mark.parametrize("argv", [
    ["--mass", "1e200", "--modes", "1"],  # mass^2 overflows a float
    ["--time", "1e308", "--modes", "2"],  # w*t overflows, sin(inf) is nan
])
def test_peierls_eval_refuses_finite_values_that_overflow(argv, capsys):
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["peierls", "eval", *argv]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --mass or --time overflows the modes\n"


def test_config_with_two_field_pairs_is_rejected(tmp_path, capsys):
    config = {"dim": 1, "fields": [
        {"name": "phi", "kind": "real", "pair": "pi"},
        {"name": "chi", "kind": "real", "pair": "rho"}]}
    with pytest.raises(ConfigError):
        load_config(config)
    path = _write(tmp_path, "two.json", config)
    assert main(["bracket", "--config", path, "phi", "pi"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_listing_the_pair_from_both_sides_is_rejected(tmp_path,
                                                             capsys):
    # each side would otherwise overwrite the other, and the bracket of
    # phi with pi would change sign
    config = {"dim": 1, "fields": [{"name": "phi", "pair": "pi"},
                                   {"name": "pi", "pair": "phi"}]}
    path = _write(tmp_path, "both.json", config)
    assert main(["bracket", "phi", "pi", "--config", path, "--dim", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: only one field (one conjugate pair) is "
                            "supported, got 2: phi, pi\n")


@pytest.mark.parametrize("fields,message", [
    ([{"name": "psi", "kind": "complex", "pair": "psi"}],
     "field 'psi' cannot be paired with itself"),
    ([{"name": "phi", "kind": "real"}], "real field 'phi' needs a 'pair' entry"),
    ([{"name": "phi", "kind": "spinor", "pair": "pi"}],
     "unknown field kind 'spinor'"),
    ([{"kind": "real", "pair": "pi"}], "field entry needs a name"),
    ([{"name": "phi", "kind": "real", "pair": "pi"},
      {"name": "chi", "kind": "real", "pair": "rho"}],
     "only one field (one conjugate pair) is supported, got 2: chi, phi"),
])
def test_config_field_errors_keep_their_text(fields, message):
    with pytest.raises(ConfigError) as err:
        load_config({"dim": 1, "fields": fields})
    assert str(err.value) == message


def test_verify_runs_the_declared_kernel(tmp_path, capsys):
    path = _write(tmp_path, "anti.json", {"dim": 1, "kernel": "d1 delta"})
    assert main(["verify", "jacobi", "--config", path, "--trials", "2"]) == 0
    assert capsys.readouterr().out == "PASS jacobi [d1 delta]: 2/2 checks\n"
    # without a declared kernel, the two defaults, each named
    assert main(["verify", "jacobi", "--dim", "1", "--trials", "2"]) == 0
    assert capsys.readouterr().out == (
        "PASS jacobi [delta + (1 + i)*d1^2 delta]: 2/2 checks\n"
        "PASS jacobi [(1 + i)*d1 delta]: 2/2 checks\n")


def test_verify_counts_the_checks_that_ran(capsys):
    # --trials 10 gives closed-forms 10 // 4 = 2 inputs of four checks and
    # assoc 10 // 5 = 2 inputs at each of five levels, per kernel
    assert main(["verify", "closed-forms", "--dim", "1", "--trials", "10",
                 "--kernel", "delta"]) == 0
    assert capsys.readouterr().out == "PASS closed-forms [delta]: 8/8 checks\n"
    assert main(["verify", "assoc", "--dim", "1", "--trials", "10",
                 "--kernel", "d1 delta"]) == 0
    assert capsys.readouterr().out == "PASS assoc [d1 delta]: 10/10 checks\n"


def test_verify_refuses_a_declared_mixed_kernel(tmp_path, capsys):
    path = _write(tmp_path, "mixed.json",
                  {"dim": 1, "kernel": "delta + d1 delta"})
    assert main(["classify", "--config", path]) == 0
    assert capsys.readouterr().out == "mixed\n"
    assert main(["verify", "jacobi", "--config", path, "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: mixed-parity kernel")


@pytest.mark.parametrize("command", ["star", "bracket"])
@pytest.mark.parametrize("operands", [["0", "phi"], ["pi", "phi"]])
def test_a_mixed_kernel_is_refused_also_on_a_zero_operand(command, operands,
                                                          capsys):
    argv = [command, *operands, "--dim", "1", "--kernel", "delta + d1 delta"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: mixed-parity kernel")


def test_config_field_paired_with_itself_is_rejected(tmp_path, capsys):
    config = dict(KG_CONFIG, fields=[{"name": "phi", "kind": "real",
                                      "pair": "phi"}])
    path = _write(tmp_path, "self.json", config)
    assert main(["eom", "--config", path, "--field", "phi"]) == 2
    assert capsys.readouterr().err == (
        "error: field 'phi' cannot be paired with itself\n")


@pytest.mark.parametrize("argv", [
    ["bracket", "1/0", "pi"],
    ["vardiff", "1/0", "--field", "phi"],
    ["star", "phi", "2/0*pi"],
    ["classify", "--kernel", "1/0*delta"],
])
def test_zero_denominator_is_a_parse_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: denominator must be nonzero")


@pytest.mark.parametrize("argv", [
    ["bracket", "phi^99999", "pi", "--dim", "1"],
    ["star", "phi", "(pi + phi)^101", "--dim", "1"],
    ["bracket", "phi^" + "9" * 5000, "pi", "--dim", "1"],
    ["classify", "--dim", "1", "--kernel", "d1^101 delta"],
])
def test_exponent_above_the_bound_is_a_parse_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: exponent exceeds 100")


@pytest.mark.parametrize("argv", [
    ["bracket", "(phi+pi+phi[1]+pi[1])^100", "pi", "--dim", "1"],
    ["star", "phi", "(phi+pi)^100*(phi+pi)^100", "--dim", "1"],
    # each total derivative is bounded before it is taken
    ["bracket", "d1(" * 40 + "phi^40" + ")" * 40, "pi", "--dim", "1"],
    ["bracket", "laplacian(" * 6 + "phi^30" + ")" * 6, "pi", "--dim", "3"],
])
def test_expansion_past_the_term_bound_is_a_parse_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: expansion exceeds 10000 terms")


@pytest.mark.parametrize("argv", [
    ["bracket", "1" + "0" * 5000 + "*phi", "pi", "--dim", "1"],
    ["bracket", "phi[" + "1" * 5000 + "]", "pi", "--dim", "1"],
    ["classify", "--dim", "1", "--kernel", "d" + "1" * 5000 + " delta"],
])
def test_literal_past_the_int_digit_limit_is_a_parse_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: number is too long")


@pytest.mark.parametrize("argv", [
    # the square of a 3,000-digit coefficient has 6,000 digits
    ["vardiff", "(" + "9" * 3000 + "*phi)^2", "--field", "phi", "--dim", "1"],
    ["vardiff", "(" + "9" * 3000 + "*phi)^2", "--field", "phi", "--dim", "1",
     "--json"],
    # 1/1560! has more digits than the limit; no line of the series prints
    ["star", "U(phi)", "U(pi)", "--dim", "1", "--order", "1560"],
])
def test_coefficient_past_the_int_digit_limit_exits_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: coefficient exceeds the {sys.get_int_max_str_digits()}"
            "-digit limit of int-to-str conversion\n")


def _nested(depth: int, inner: str, opening: str = "(") -> str:
    return opening * depth + inner + ")" * depth


@pytest.mark.parametrize("build", [
    lambda n: ["bracket", _nested(n, "phi"), "pi", "--dim", "1"],
    lambda n: ["bracket", _nested(n, "phi", "d1("), "pi", "--dim", "1"],
    lambda n: ["classify", "--dim", "1", "--kernel", _nested(n, "1") + "*delta"],
], ids=["parentheses", "derivatives", "kernel-scalar"])
def test_nesting_past_the_depth_bound_is_a_parse_error(build, capsys):
    assert main(build(MAX_DEPTH)) == 0
    capsys.readouterr()
    # without the bound, MAX_DEPTH + 1 levels parse and 300 overflow the stack
    for depth in (MAX_DEPTH + 1, 300):
        assert main(build(depth)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"error: nesting exceeds {MAX_DEPTH} levels")


def test_config_hamiltonian_past_the_depth_bound_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "deep.json",
                  dict(KG_CONFIG, hamiltonian=_nested(MAX_DEPTH, "pi^2")))
    assert main(["eom", "--config", path, "--field", "phi"]) == 0
    assert capsys.readouterr() == ("2*pi\n", "")
    for depth in (MAX_DEPTH + 1, 300):
        path = _write(tmp_path, "deeper.json",
                      dict(KG_CONFIG, hamiltonian=_nested(depth, "pi^2")))
        assert main(["eom", "--config", path, "--field", "phi"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: nesting exceeds {MAX_DEPTH} levels")


@pytest.mark.parametrize("content", [
    b'{"dim": 1, "kernel": "\xff"}',  # not UTF-8
    # nested past Python's recursion limit
    b"[" * 1000 + b"]" * 1000,
    b'{"dim": ' + b"[" * 5000 + b"]" * 5000 + b"}",
], ids=["not-utf-8", "array-depth-1000", "value-depth-5000"])
def test_an_unreadable_config_exits_two(content, tmp_path, capsys):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert main(["classify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: cannot read config {str(path)!r}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("content", ["[1]", '"dim"', "1"])
def test_a_config_that_is_no_json_object_exits_two(content, tmp_path, capsys):
    path = tmp_path / "scalar.json"
    path.write_text(content)
    # a flag is put over its key only once the file is known to be an object
    assert main(["classify", "--config", str(path), "--dim", "1"]) == 2
    assert capsys.readouterr() == ("", "error: config must be a JSON object\n")


def test_kernel_without_delta_names_the_missing_delta(capsys):
    assert main(["classify", "--kernel", "0"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: kernel term must end in 'delta' (at position 1)")


def test_config_exponent_above_the_bound_exits_two(tmp_path, capsys):
    config = dict(KG_CONFIG, hamiltonian="phi^101")
    path = _write(tmp_path, "big.json", config)
    assert main(["eom", "--config", path, "--field", "phi"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_density_with_a_constant_at_the_origin_exits_two(tmp_path,
                                                               capsys):
    # m is a symbol, not 1, so m - 1 does not vanish at the jet origin
    config = dict(KG_CONFIG, hamiltonian="m - 1 + pi^2")
    path = _write(tmp_path, "const.json", config)
    assert main(["eom", "--config", path, "--field", "phi"]) == 2
    assert capsys.readouterr().err \
        == "error: density does not vanish at the jet origin\n"
    config = dict(KG_CONFIG, hamiltonian="m^2*phi^2 + pi^2")
    path = _write(tmp_path, "mass.json", config)
    assert main(["eom", "--config", path, "--field", "phi"]) == 0
    assert capsys.readouterr().out == "2*pi\n"


@pytest.mark.parametrize("key,value", [
    ("dim", "x"), ("dim", 3.5), ("dim", True), ("order", [1]), ("seed", "x"),
    ("tolerance", "tight"), ("constants", 5), ("constants", ["m", 1]),
    # json reads these, and no energy drift is >= a nan tolerance
    ("tolerance", float("nan")), ("tolerance", float("inf")),
    ("tolerance", float("-inf")),
    ("functions", 5), ("functions", {"U": "no"}), ("functions", {"U": 0}),
    ("kernel", 5), ("hamiltonian", 5), ("fields", ["phi"]),
    ("fields", [{"name": 3, "kind": "real", "pair": "pi"}]),
    ("fields", [{"name": "phi", "kind": "real", "pair": ["pi"]}]),
])
def test_config_value_of_the_wrong_json_type_exits_two(key, value, tmp_path,
                                                       capsys):
    path = _write(tmp_path, "typed.json", dict(KG_CONFIG, **{key: value}))
    assert main(["eom", "--config", path, "--field", "phi"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {key!r} must be ")
    assert "Traceback" not in err


@pytest.mark.parametrize("config,message", [
    # read as it is, the kernel would be dropped and the default classified
    ({"dim": 1, "kernal": "d1 delta"}, "unknown config key 'kernal'"),
    (dict(KG_CONFIG, fields=[{"name": "phi", "kind": "real", "pair": "pi",
                              "mass": 1}]), "unknown field entry key 'mass'"),
])
def test_a_key_outside_the_config_format_exits_two(config, message, tmp_path,
                                                   capsys):
    path = _write(tmp_path, "keys.json", config)
    assert main(["classify", "--config", path]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_exponent_at_the_bound_succeeds(capsys):
    assert main(["bracket", "phi^100", "pi", "--dim", "1"]) == 0
    assert "phi" in capsys.readouterr().out
    assert main(["classify", "--dim", "1", "--kernel", "d1^100 delta"]) == 0


def test_modes_above_the_bound_exit_two_before_evaluating(monkeypatch,
                                                          capsys):
    import fieldstar.peierls

    def refuse(*_args):
        raise AssertionError("green_eval was called")

    monkeypatch.setattr(fieldstar.peierls, "green_eval", refuse)
    assert main(["peierls", "eval", "--modes", str(MAX_MODES + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --modes must be <= {MAX_MODES}\n"


# Help, a missing argument and an unrecognized one, for every command.  An
# unrecognized argument is reported by the top-level parser, so its usage
# line names every command, even after a valid subcommand.
USAGE_CASES = [
    [], ["-h"], ["nope"],
    ["bracket", "-h"], ["bracket"], ["bracket", "phi", "pi", "--bogus"],
    ["star", "-h"], ["star", "phi"], ["star", "phi", "pi", "--bogus"],
    ["eom", "-h"], ["eom"], ["eom", "--field", "phi", "--bogus"],
    ["vardiff", "-h"], ["vardiff", "phi"],
    ["vardiff", "phi", "--field", "phi", "--bogus"],
    ["classify", "-h"], ["classify", "--dim"], ["classify", "--bogus"],
    ["classify", "--json"],
    # --seed is read only by verify, and --kernel not by vardiff
    ["bracket", "phi", "pi", "--seed", "1"],
    ["star", "phi", "pi", "--seed", "1"],
    ["eom", "--field", "phi", "--seed", "1"],
    ["vardiff", "phi", "--field", "phi", "--seed", "1"],
    ["classify", "--seed", "1"],
    ["vardiff", "phi", "--field", "phi", "--kernel", "delta"],
    ["verify", "-h"], ["verify"], ["verify", "assoc", "--order", "-1"],
    ["verify", "jacobi", "--json"],
    ["peierls", "-h"], ["peierls"], ["peierls", "eval", "-h"],
    ["peierls", "eval", "--modes"], ["peierls", "eval", "--bogus"],
]


def _exit(call, capsys):
    with pytest.raises(SystemExit) as exc:
        call()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", USAGE_CASES)
def test_usage_and_errors_match_the_full_parser(argv, capsys):
    expected = _exit(lambda: build_parser().parse_args(argv), capsys)
    assert expected[0] in (0, 2)
    assert _exit(lambda: main(argv), capsys) == expected
