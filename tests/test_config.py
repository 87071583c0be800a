"""Config parsers and config files: a value's echo text replays it, and a bad file is named."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tfnet import cli
from tfnet.cli import ConfigError, parse_kv_file

PARSERS = {
    "int": cli.parse_int,
    "float": cli.parse_float,
    "bool": cli.parse_bool,
    "seed": cli.parse_seed,
    "seeds": cli.parse_seeds,
    "bands": cli.parse_bands,
    "path": cli.parse_path,
    "optional-path": cli.parse_optional_path,
    "one-of": cli.one_of(("float64", "float32")),
    "list-of": cli.list_of(("sttf", "morlet", "laplace")),
}

# arbitrary text, and text built from pieces that the parsers accept
TOKENS = ["0", "1", "-1", "07", " ", ",", ":", ".", "/", "..", "0.1", "0.25", "0.5", "1e-3",
          "1_0", "+2", "nan", "inf", "-0.0", "True", "off", "yes", "sttf", "morlet", "float32"]
TEXT = st.one_of(
    st.text(),
    st.text(alphabet="0123456789.,:-+eE _\t", max_size=24),
    st.lists(st.sampled_from(TOKENS), max_size=6).map("".join),
    st.lists(st.tuples(st.floats(0, 0.5), st.floats(0, 0.5)), min_size=1, max_size=3)
    .map(lambda bands: ", ".join(f"{lo}:{hi}" for lo, hi in bands)),
)


@pytest.mark.parametrize("parse", PARSERS.values(), ids=PARSERS)
@settings(max_examples=300, deadline=None)
@given(text=TEXT)
@example(text="0" * 27 + "\u1e70" * 140)  # 447 bytes in UTF-8: too long for a file name
def test_echo_text_parses_back_to_itself(parse, text):
    # the property a config.echo replay rests on; values compare by repr (NaN != NaN)
    try:
        value, echo = parse(text)
    except ValueError:
        return
    again, echo_again = parse(echo)
    assert echo_again == echo
    assert repr(again) == repr(value)


@pytest.mark.parametrize("parse, text, value", [
    (cli.parse_bands, "0.04:0.06,", ((0.04, 0.06),)),
    (cli.parse_bands, " , 0.04:0.06, ,0.1:0.2 ,", ((0.04, 0.06), (0.1, 0.2))),
    (cli.parse_bands, " ,", ()),
    (cli.parse_seeds, "1,", [1]),
    (cli.parse_seeds, " 2 , ,3", [2, 3]),
    (PARSERS["list-of"], "sttf,", ["sttf"]),
    (PARSERS["list-of"], " , morlet , laplace", ["morlet", "laplace"]),
], ids=["band-trailing-comma", "bands-blank-entries", "bands-blank", "seeds-trailing-comma",
        "seeds-blank-entry", "list-trailing-comma", "list-blank-entry"])
def test_comma_lists_drop_blank_entries_alike(parse, text, value):
    assert parse(text)[0] == value


def test_a_config_file_band_with_a_trailing_comma_is_one_band(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("bands = 0.04:0.06,\n")
    assert cli.parse_bands(parse_kv_file(path)["bands"]) == (((0.04, 0.06),), "0.04:0.06")


LINE = st.one_of(
    st.binary(max_size=30),
    st.text(alphabet="ab =#\t\r\x0b\x1c\x85 é", max_size=20).map(str.encode),
    st.tuples(st.text(max_size=8), st.text(max_size=8))
    .map(lambda kv: f"{kv[0]} = {kv[1]}".encode()),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(LINE, max_size=6))
def test_config_bytes_parse_or_fail_naming_the_file(tmp_path, lines):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\n".join(lines))
    try:
        values = parse_kv_file(path)
    except ConfigError as exc:
        assert str(path) in str(exc)
    else:
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in values.items())
