"""Record ingestion and the synthetic generator."""

import contextlib
import ctypes
import ctypes.util
import errno
import math
import os
import platform
import re
import struct
import tempfile
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphseg import _native, data
from graphseg.data import (
    PRE_R_OFFSET_S,
    PRE_R_WIDTH_S,
    R_WAVE_WIDTH_S,
    DataFormatError,
    LabeledRecord,
    SynthConfig,
    generate_synthetic,
    load_record,
    load_signal_csv,
    save_record,
)
from graphseg.solver import Signal
from helpers import halfway_tokens
from reference_data import generate_signal_bumps, load_signal_lines, save_signal_lines


def write_record(tmp_path, lines, ann_lines):
    sp = tmp_path / "sig.csv"
    ap = tmp_path / "ann.txt"
    sp.write_text("\n".join(lines) + "\n")
    ap.write_text("\n".join(str(a) for a in ann_lines) + "\n")
    return str(sp), str(ap)


def test_load_small_record(tmp_path):
    sp, ap = write_record(
        tmp_path,
        ["sample_index,amplitude"] + [f"{i},{v}" for i, v in enumerate([0, 0, 0, 10, 10, 0, 0])],
        [3],
    )
    rec = load_record(sp, ap)
    assert len(rec.signal) == 7
    assert rec.rpeak_annotations.tolist() == [3]
    assert rec.signal.sample_rate == 360.0
    assert rec.record_id == "sig"


def test_load_record_annotation_out_of_range(tmp_path):
    sp, ap = write_record(
        tmp_path, ["sample_index,amplitude", "0,1.0", "1,2.0"], [5]
    )
    with pytest.raises(DataFormatError, match="ann.txt:1"):
        load_record(sp, ap)


def test_load_record_non_increasing_annotations(tmp_path):
    sp, ap = write_record(
        tmp_path,
        ["sample_index,amplitude"] + [f"{i},0.0" for i in range(10)],
        [4, 4],
    )
    with pytest.raises(DataFormatError, match="strictly increasing"):
        load_record(sp, ap)


def test_load_record_malformed_line_number(tmp_path):
    sp, ap = write_record(
        tmp_path, ["sample_index,amplitude", "0,1.0", "1,oops"], [0]
    )
    with pytest.raises(DataFormatError, match="sig.csv:3"):
        load_record(sp, ap)


def test_load_record_requires_header(tmp_path):
    sp, ap = write_record(tmp_path, ["0,1.0", "1,2.0"], [0])
    with pytest.raises(DataFormatError, match=":1"):
        load_record(sp, ap)


def test_long_header_is_quoted_in_part(tmp_path):
    # a file with no line end is one header line
    sp = tmp_path / "sig.csv"
    sp.write_text(";".join(f"{i};{i / 7!r}" for i in range(100_000)))
    with pytest.raises(DataFormatError) as refused:
        load_signal_csv(str(sp))
    message = str(refused.value)
    assert message.startswith(f"{sp}:1: expected header 'sample_index,amplitude', got '0;")
    assert message.endswith("'...") and len(message) < len(str(sp)) + 150


ANNOTATION_FILES = {
    "underscore": ("2\n\n1_5\n", "expected a sample index in ASCII decimal, got '1_5'"),
    "arabic-indic digits": ("\u0661\u0667\n", "got '\u0661\u0667'"),
    "em space": ("\u20035\n", "got '\\u20035'"),
    "hex": ("0x10\n", "got '0x10'"),
    "decimal point": ("1.0\n", "got '1.0'"),
    "sign alone": ("-\n", "got '-'"),
    "two indices": ("1 2\n", "got '1 2'"),
}


@pytest.mark.parametrize("text, error", ANNOTATION_FILES.values(), ids=ANNOTATION_FILES.keys())
def test_annotations_take_the_index_grammar(tmp_path, text, error):
    sp, ap = write_record(tmp_path, [HEADER.strip()] + [f"{i},0" for i in range(20)], [])
    with open(ap, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    line = 1 + text.rstrip("\n").count("\n")
    with pytest.raises(DataFormatError) as refused:
        load_record(sp, ap)
    assert str(refused.value).startswith(f"{ap}:{line}: ")
    assert error in str(refused.value)


def test_annotations_read_spaces_tabs_and_signs(tmp_path):
    sp, ap = write_record(tmp_path, [HEADER.strip()] + [f"{i},0" for i in range(20)], [])
    with open(ap, "w", encoding="utf-8", newline="") as fh:
        fh.write(" +3\t\n\n \t\r\n07\r15 \n")
    assert load_record(sp, ap).rpeak_annotations.tolist() == [3, 7, 15]


def test_load_record_gap_in_indices(tmp_path):
    sp, ap = write_record(
        tmp_path, ["sample_index,amplitude", "0,1.0", "2,2.0"], [0]
    )
    with pytest.raises(DataFormatError, match="contiguous"):
        load_record(sp, ap)


def test_save_load_roundtrip(tmp_path):
    rec = generate_synthetic(SynthConfig(n_cycles=5, noise_sigma=0.3, seed=4))
    sp = str(tmp_path / f"{rec.record_id}.csv")
    ap = str(tmp_path / "r.ann")
    save_record(rec, sp, ap)
    back = load_record(sp, ap, sample_rate=rec.signal.sample_rate)
    assert back.record_id == rec.record_id
    assert np.array_equal(back.rpeak_annotations, rec.rpeak_annotations)
    assert np.array_equal(back.signal.samples, rec.signal.samples)


HEADER = "sample_index,amplitude\n"
INT64_MAX = 2**63 - 1

# sample-file bodies that the compiled scan and the line loop may read differently
EDGE_BODIES = {
    "plain": "0,1.5\n1,-2\n2,3e-3\n",
    "blank lines": "\n0,1\n\n1,2\n\n",
    "whitespace-only line": "0,1\n   \n1,2\n",
    "crlf": "0,1\r\n1,2\r\n",
    "spaces around fields": " 0 , 1 \n1 ,2 \n",
    "tabs around fields": "\t0\t,\t1\t\n1,\t2\n",
    "plus zero index": "+0,1\n1,2\n",
    "underscore index": "1_5,1\n16,2\n",
    "underscore amplitude": "0,1_0\n1,2\n",
    "unicode digits": "\u0661,1\n\u0662,2\n",
    "index above int64": f"{INT64_MAX + 1},1\n{INT64_MAX + 2},2\n",
    "lone cr": "0,1\n1,2\r2,3\n",
    "index wraps past int64": f"{INT64_MAX},1\n{-INT64_MAX - 1},2\n",
    "non-zero first index": "41,1\n42,2\n43,3\n",
    "index gap": "0,1\n2,2\n",
    "nan": "0,1\n1,nan\n",
    "inf": "0,inf\n1,2\n",
    "overflow to inf": "0,1\n1,1e400\n",
    "exponent without digits": "0,1\n1,1e\n",
    "exponent sign without digits": "0,1\n1,2E+\n",
    "exponent overflow": "0,1\n1,1e999999\n",
    "saturated exponent": "0,1\n1,1e9999999\n",
    "one field": "0,1\n1\n",
    "three fields": "0,1\n1,2,3\n",
    "empty amplitude": "0,\n1,2\n",
    "empty index": ",1\n1,2\n",
    "quoted field": '"0",1\n1,2\n',
    "comment line": "# note\n0,1\n1,2\n",
    "float index": "0.0,1\n1,2\n",
    "hex index": "0x0,1\n0x1,2\n",
    "negative zero and subnormal": "0,-0.0\n1,5e-324\n",
    "no final newline": "0,1\n1,2",
    "single sample": "0,1\n",
    "empty body": "",
}

# the spellings the line loop reads and the scan refuses, with the line the
# scan's error names (the header is line 1)
NOW_REFUSED = {
    "underscore index": 2,
    "underscore amplitude": 2,
    "unicode digits": 2,
    "index above int64": 2,
    "lone cr": 3,
}
# errors that the scan words as the line loop does; the scan words others,
# such as a nan amplitude, in its own way
SAME_WORDING = ("breaks the contiguous order", "non-finite amplitude",
                "needs at least 2 samples")


def _parse(parse, path):
    try:
        return parse(path)
    except DataFormatError as exc:
        return str(exc)


def _named_line(message):
    """The ``path:line`` an error message starts with."""
    return re.match(r"(.*?:\d+): ", message).group(1)


@pytest.mark.parametrize("name, body", EDGE_BODIES.items(), ids=EDGE_BODIES.keys())
def test_vectorised_parse_matches_line_loop(tmp_path, name, body):
    path = tmp_path / "sig.csv"
    path.write_bytes((HEADER + body).encode())
    got = _parse(lambda p: load_signal_csv(p).samples, str(path))
    want = _parse(load_signal_lines, str(path))
    if name in NOW_REFUSED:
        assert not isinstance(want, str)
        assert got.startswith(f"{path}:{NOW_REFUSED[name]}: ")
    elif isinstance(want, str):
        if any(w in got for w in SAME_WORDING):
            assert got == want
        else:
            assert _named_line(got) == _named_line(want)
    else:
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _bits(a):
    return a.view(np.int64).tolist()


@pytest.mark.parametrize("ending", ["lf", "crlf", "no final newline"])
def test_saved_records_take_the_compiled_scan(tmp_path, ending):
    rec = generate_synthetic(SynthConfig(n_cycles=5, noise_sigma=0.3,
                                         baseline_wander_amp=1.0, seed=4))
    sp = tmp_path / "r.csv"
    save_record(rec, str(sp), str(tmp_path / "r.ann"))
    text = sp.read_bytes()
    if ending == "crlf":
        text = text.replace(b"\n", b"\r\n")
    elif ending == "no final newline":
        text = text[:-1]
    sp.write_bytes(text)
    assert _bits(load_signal_csv(str(sp)).samples) == _bits(rec.signal.samples)


# bodies in the scan's grammar that save_record does not write
SCANNED_BODIES = {
    "negative indices": "-2,1\n-1,2\n0,3\n",
    "int64 maximum": f"{INT64_MAX - 1},1\n{INT64_MAX},2\n",
    "int64 minimum": f"{-INT64_MAX - 1},1\n{-INT64_MAX},2\n",
    "leading zeros": "007,0001.2500\n008,-00.0e-0\n009,0.000001\n",
    "exponent spellings": "0,1e5\n1,1E+05\n2,-2.5e-3\n3,7E-0\n",
    "long tokens": f"0,{'1' * 300}\n1,0.{'0' * 400}1\n2,1e{'0' * 30}1\n",
    "mixed line endings": "0,1\r\n1,2\n2,3",
    "signs and bare points": "+0,+1\n1,.5\n2,5.\n3,-.25e1\n4,+5.E-1\n5,-0.\n",
    "blanks around fields": "\t\n 0\t, \t+1.5 \r\n \n1 ,2\t\r\n\t \n2,3\n \t ",
    "long tokens with a point": f"0,.{'0' * 330}1\n1,{'9' * 30}.\n2,+{'1' * 70}.5\n",
    "exponent underflow": "0,1e-999999\n1,-1e-9999999\n",
    "76-byte tokens": f"0,{'1' * 70}.5e-60\n1,0.{'0' * 70}1e80\n",
}


@pytest.mark.parametrize("body", SCANNED_BODIES.values(), ids=SCANNED_BODIES.keys())
def test_scanned_bodies_match_line_loop(tmp_path, body):
    path = tmp_path / "sig.csv"
    path.write_bytes((HEADER + body).encode())
    assert _bits(load_signal_csv(str(path)).samples) == _bits(load_signal_lines(str(path)))


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# random bit patterns, and random mantissas at binary exponents within 2^+-75,
# whose 17-digit spellings are the scan's near misses of the exact fast path
FINITE_DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite),
    st.builds(lambda sign, exp, frac: _double(sign << 63 | exp << 52 | frac),
              st.integers(0, 1), st.integers(1023 - 75, 1023 + 75),
              st.integers(0, 2**52 - 1)),
)
FORMATS = (repr, "%.17g".__mod__, "%.6e".__mod__, "%.3f".__mod__)
# decimal spellings off the Clinger fast path too: more than 19 significant
# digits, leading zeros, exponents past +-22; at most 25 integer digits and
# exponents up to 280 keep every value finite
DIGITS = st.text("0123456789", min_size=1, max_size=25)
DECIMALS = st.builds(
    lambda sign, zeros, whole, frac, exp: (
        f"{sign}{'0' * zeros}{whole}{'.' + frac if frac else ''}{exp}"),
    st.sampled_from(["", "-"]),
    st.integers(0, 4),
    DIGITS,
    st.one_of(st.just(""), DIGITS),
    st.one_of(st.just(""), st.builds("{}{:+d}".format, st.sampled_from("eE"),
                                     st.integers(-350, 280))),
)
AMPLITUDE_TOKENS = st.one_of(
    st.tuples(FINITE_DOUBLES, st.sampled_from(FORMATS)).map(lambda xf: xf[1](xf[0])),
    DECIMALS,
    st.sampled_from(["-0.0", "-0", "5e-324", "2.2250738585072014e-308",
                     "9007199254740992", "9007199254740993", "1e22", "1e23",
                     "1e-22", "1e-23", "1.7976931348623157e308"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(AMPLITUDE_TOKENS, min_size=2, max_size=200))
def test_scanned_amplitudes_are_bit_identical_to_float(tokens):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "sig.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(HEADER + "".join(f"{i},{t}\n" for i, t in enumerate(tokens)))
        want = load_signal_lines(path)
        got = load_signal_csv(path).samples
    assert _bits(got) == _bits(want) == _bits(np.array([float(t) for t in tokens]))


def test_extended_scan_leaves_halfway_results_to_strtod(tmp_path):
    rng = np.random.default_rng(47)
    tokens = halfway_tokens(rng, 300)
    # exact halfway points: integers above 2^54 that a double cannot hold
    for _ in range(50):
        d = float(int(rng.integers(2**54, 2**63)))
        tokens.append(str(int(Fraction(d) + Fraction(math.ulp(d)) / 2)))
    tokens += ["-" + t for t in tokens]
    path = tmp_path / "sig.csv"
    path.write_text(HEADER + "".join(f"{i},{t}\n" for i, t in enumerate(tokens)))
    assert _bits(load_signal_csv(str(path)).samples) == _bits(np.array([float(t) for t in tokens]))


X86_ONLY = pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64", "i386", "i686"),
                              reason="the x87 precision control exists on x86 only")


@contextlib.contextmanager
def x87_rounding_to_24_bits():
    """Set the x87 unit to round to 24 bits, as a process may, so that the
    library's extended path would round twice."""
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    saved, lowered = ctypes.create_string_buffer(64), ctypes.create_string_buffer(64)
    assert libm.fegetenv(saved) == 0
    ctypes.memmove(lowered, saved, 64)
    control = int.from_bytes(saved.raw[:2], "little") & ~0x300  # precision: 24 bits
    lowered[0:2] = control.to_bytes(2, "little")
    assert libm.fesetenv(lowered) == 0
    try:
        yield
    finally:
        assert libm.fesetenv(saved) == 0


@X86_ONLY
def test_lowered_x87_precision_leaves_tokens_to_strtod():
    # the scanner checks the precision first
    rng = np.random.default_rng(53)
    tokens = halfway_tokens(rng, 100) + [
        f"{int(rng.integers(10**18, 10**19, dtype=np.uint64))}e{int(rng.integers(-27, 28))}"
        for _ in range(200)]
    body = "".join(f"{i},{t}\n" for i, t in enumerate(tokens)).encode()
    out, info = np.empty(len(tokens)), np.zeros(3, dtype=np.int64)
    with x87_rounding_to_24_bits():
        status = _native.library().parse_samples(body, 0, len(body), out, len(out), info)
    assert status == 0 and info[0] == len(tokens)
    assert _bits(out) == _bits(np.array([float(t) for t in tokens]))


@X86_ONLY
def test_lowered_x87_precision_leaves_writer_checks_to_strtod():
    # the writer reads its 16-digit candidates back as the scanner does
    y = np.random.default_rng(59).normal(0.0, 3.0, 2000)
    buf, info = np.empty(data._BUFFER_BYTES, dtype=np.uint8), np.zeros(2, np.int64)
    with x87_rounding_to_24_bits():
        left = _native.library().format_samples(y, 0, len(y), buf, len(buf), info)
    assert left == 0 and info[0] == len(y)
    want = "".join(f"{i},{v!r}\n" for i, v in enumerate(y.tolist())).encode()
    assert buf[:info[1]].tobytes() == want


# doubles from 2^-90 to 2^153, where 17-digit spellings take the extended scan
MID_RANGE_DOUBLES = st.builds(
    lambda sign, exp, frac: _double(sign << 63 | exp << 52 | frac),
    st.integers(0, 1), st.integers(1023 - 90, 1023 + 152), st.integers(0, 2**52 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(MID_RANGE_DOUBLES, min_size=2, max_size=200))
def test_seventeen_digit_reprs_scan_bit_identical(values):
    tokens = [repr(v) for v in values] + ["%.17e" % v for v in values]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "sig.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(HEADER + "".join(f"{i},{t}\n" for i, t in enumerate(tokens)))
        got = load_signal_csv(path).samples
    assert _bits(got) == _bits(np.array(values + values))


# sample lines the scan refuses, given the index the line should have
REFUSED_LINES = {
    "word": lambda i: "x",
    "three fields": lambda i: f"{i},2,3",
    "nan": lambda i: f"{i},nan",
    "overflow to inf": lambda i: f"{i},1e400",
    "index gap": lambda i: f"{i + 1},1",
    "underscore": lambda i: f"{i},1_0",
    "arabic-indic digit": lambda i: f"{i},\u0663",
    "lone cr": lambda i: f"{i},1",  # ended by "\r" below
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_refused_line_is_named(data):
    n = data.draw(st.integers(2, 30))
    kind = data.draw(st.sampled_from(sorted(REFUSED_LINES)))
    # the first index may be any, so a gap is one from the second line on
    bad = data.draw(st.integers(1 if kind == "index gap" else 0, n - 1))
    first = data.draw(st.integers(-3, 1000))
    blanks = data.draw(st.lists(st.sampled_from([None, "", " ", "\t \t"]),
                                min_size=n, max_size=n))
    endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=n, max_size=n))
    if kind == "lone cr" and bad + 1 < n and blanks[bad + 1] == "":
        blanks[bad + 1] = None  # "\r" and an empty line would make "\r\n"
    lines, named = [HEADER], None
    for j in range(n):
        if blanks[j] is not None:
            lines.append(blanks[j] + endings[j])
        if j == bad:
            named = len(lines) + 1
            ending = "\r" if kind == "lone cr" else endings[j]
            lines.append(REFUSED_LINES[kind](first + j) + ending)
        else:
            lines.append(f"{first + j},{j / 8!r}{endings[j]}")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "sig.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(lines))
        with pytest.raises(DataFormatError) as refused:
            load_signal_csv(path)
    assert str(refused.value).startswith(f"{path}:{named}: ")


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_undecodable_byte_names_file_and_line(tmp_path, newline):
    sp, ap = tmp_path / "sig.csv", tmp_path / "ann.txt"
    # the scan refuses a lone CR line end, which annotation files may use
    good_sig = b"\n".join([b"sample_index,amplitude", b"0,1", b"1,2", b"2,3", b""])
    sp.write_bytes(newline.join([b"sample_index,amplitude", b"0,1", b"1,\xff", b""]))
    ap.write_bytes(b"0\n")
    with pytest.raises(DataFormatError, match=r"sig\.csv:3: byte 0xff is not UTF-8"):
        load_record(str(sp), str(ap))
    sp.write_bytes(good_sig)
    ap.write_bytes(newline.join([b"0", b"1", b"\xff2", b""]))
    with pytest.raises(DataFormatError, match=r"ann\.txt:3: byte 0xff is not UTF-8"):
        load_record(str(sp), str(ap))


def test_unreadable_file_is_a_data_format_error(tmp_path):
    sp = tmp_path / "sig.csv"
    sp.write_text(HEADER + "0,1\n1,2\n")
    for sig, ann in ((tmp_path, sp), (sp, tmp_path)):
        with pytest.raises(DataFormatError, match=re.escape(f"{tmp_path}: cannot read")):
            load_record(str(sig), str(ann))


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(2, 40), elements=FLOATS))
def test_save_load_roundtrip_is_bit_exact(samples):
    rec = LabeledRecord("r", Signal(samples, 360.0), np.array([], dtype=np.int64))
    with tempfile.TemporaryDirectory() as d:
        sp, ap = os.path.join(d, "r.csv"), os.path.join(d, "r.ann")
        save_record(rec, sp, ap)
        back = load_record(sp, ap)
    assert back.signal.samples.view(np.int64).tolist() == samples.view(np.int64).tolist()


def _assert_writes_like_repr(samples):
    """save_record writes the repr loop's bytes, which read back to the
    same bits."""
    samples = np.asarray(samples, dtype=np.float64)
    rec = LabeledRecord("r", Signal(samples, 360.0), np.array([], dtype=np.int64))
    with tempfile.TemporaryDirectory() as d:
        sp, op = os.path.join(d, "r.csv"), os.path.join(d, "oracle.csv")
        save_record(rec, sp, os.path.join(d, "r.ann"))
        save_signal_lines(samples, op)
        with open(sp, "rb") as got, open(op, "rb") as want:
            saved, oracle = got.read(), want.read()
        assert _bits(load_signal_csv(sp).samples) == _bits(samples)
    for got, want in zip(saved.splitlines(), oracle.splitlines()):
        assert got == want  # names the first line that differs
    assert saved == oracle


# random bit patterns (mostly outside the compiled digits' range, so left
# to repr), random mantissas at binary exponents in and around that range,
# subnormals, zeros and the extremes
WRITTEN_DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite),
    st.builds(lambda sign, exp, frac: _double(sign << 63 | exp << 52 | frac),
              st.integers(0, 1), st.integers(1023 - 20, 1023 + 53),
              st.integers(0, 2**52 - 1)),
    st.builds(lambda sign, frac: _double(sign << 63 | frac),
              st.integers(0, 1), st.integers(0, 2**52 - 1)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(WRITTEN_DOUBLES, min_size=2, max_size=300))
def test_saved_amplitudes_are_their_repr(values):
    _assert_writes_like_repr(values)


def test_powers_of_two_are_saved_as_their_repr():
    powers = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    _assert_writes_like_repr(powers + [-p for p in powers])


def neighbours(x, count=40):
    """x and its count nearest doubles on each side, and their negatives."""
    out, up, down = [x], x, x
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out + [-v for v in out]


@pytest.mark.parametrize("x", [1e-5, 1e-4, 1e15, 1e16, 2.0**53])
def test_neighbours_of_the_format_thresholds_are_saved_as_their_repr(x):
    # the exponent form starts below 1e-4 and at 1e16; the compiled digits
    # cover [1e-5, 1e15); 2^53 ends the doubles that hold every integer
    _assert_writes_like_repr(neighbours(x))


def _lines_filling(rng, start, nbytes):
    """Amplitudes whose lines "i,repr(v)\n", from i = start, take exactly
    nbytes."""
    y, left = [], nbytes
    while left:
        i = start + len(y)
        room = left - len(f"{i},\n")  # the bytes left for this amplitude
        if room > 50:
            v = float(rng.uniform(1.0, 9.0))
        else:  # repr(1 + 2^(2 - L)) takes L bytes for 3 <= L <= 18; the
            # next line, if any, keeps at least 3 bytes for its amplitude
            size = room if room <= 18 else min(18, room - len(f"{i + 1},\n") - 3)
            v = 1.0 + 2.0 ** (2 - size)
        y.append(v)
        left -= len(f"{i},{v!r}\n")
    return y


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_records_of_about_one_chunk_are_saved_as_their_repr(extra, monkeypatch):
    # line 0 is left to repr; lines 1 to m then fill the writer's buffer
    # exactly, and a record ends one line short of that, on it, or one line
    # past it, where the writer stops at the line that does not fit
    fill = _lines_filling(np.random.default_rng(61), 1, data._BUFFER_BYTES)
    y = [1e-300, *fill, 2.5][:len(fill) + 1 + extra]
    lib, starts = _native.library(), []

    def format_samples(*args):
        starts.append(args[1])
        return lib.format_samples(*args)

    monkeypatch.setattr(_native, "_LIBRARY", lib._replace(format_samples=format_samples))
    _assert_writes_like_repr(y)
    assert starts == [0, 1] + [len(fill) + 1] * (extra == 1)


def test_strided_samples_are_saved_as_their_repr():
    # a Signal may hold a view with strides; the library reads a contiguous copy
    _assert_writes_like_repr(np.linspace(-3.0, 3.0, 101)[::3])


def _on_cpus(monkeypatch, count):
    """Let save_record see count CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _spy_on_format(monkeypatch, fail_at=None):
    """Record (start, calling thread) of each compiled writer call; the
    call that starts at line fail_at raises ENOSPC."""
    lib, calls = _native.library(), []

    def format_samples(*args):
        calls.append((args[1], threading.get_ident()))
        if args[1] == fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return lib.format_samples(*args)

    monkeypatch.setattr(_native, "_LIBRARY", lib._replace(format_samples=format_samples))
    return calls


def _two_thread_record(lines, left_to_repr=()):
    """Amplitudes of lines lines that the compiled writer formats, but for
    the lines left_to_repr."""
    y = np.random.default_rng(lines).normal(0.0, 3.0, lines)
    y[list(left_to_repr)] = 1e-300
    return y


@pytest.mark.parametrize("chunks, extra", [(2, -1), (2, 0), (2, 1), (3, 0), (5, -3)], ids=[
    "threshold-1", "threshold", "threshold+1", "3 chunks", "5 chunks, the last short"])
def test_records_about_the_two_thread_threshold_are_saved_as_their_repr(
        chunks, extra, monkeypatch):
    # two chunks of lines are the threshold of the two-thread path
    chunk = data._CHUNK_LINES
    n = chunks * chunk + extra
    _on_cpus(monkeypatch, 2)
    calls = _spy_on_format(monkeypatch)
    _assert_writes_like_repr(_two_thread_record(n))
    main = threading.get_ident()
    if n < 2 * chunk:  # one thread, one buffer at a time
        assert {t for _, t in calls} == {main}
    else:  # one call per chunk: the even ones here, the odd ones on the helper
        assert sorted(i for i, _ in calls) == list(range(0, n, chunk))
        assert all((t == main) == (i // chunk % 2 == 0) for i, t in calls)


def test_lines_left_to_repr_open_and_close_a_helper_chunk(monkeypatch):
    # lines C and 2C - 1 open and close the first helper chunk, lines 3C
    # and 4C - 1 the second; the record's last line, in a chunk of its own,
    # is left to repr too
    chunk = data._CHUNK_LINES
    left = [chunk, 2 * chunk - 1, 3 * chunk, 4 * chunk - 1, 4 * chunk]
    _on_cpus(monkeypatch, 2)
    calls = _spy_on_format(monkeypatch)
    _assert_writes_like_repr(_two_thread_record(4 * chunk + 1, left))
    main = threading.get_ident()
    assert sorted(i for i, t in calls if t != main) == [chunk, chunk + 1, 3 * chunk, 3 * chunk + 1]
    assert sorted(i for i, t in calls if t == main) == [0, 2 * chunk, 4 * chunk]


def test_a_slow_write_reads_no_buffer_the_helper_fills(tmp_path, monkeypatch):
    # each write takes its bytes 2 ms late, by which time the helper has
    # formatted much of its next chunk: that chunk must go to the other buffer
    class SlowFile:
        def __init__(self):
            self.parts = []

        def write(self, data):
            time.sleep(0.002)
            self.parts.append(bytes(data))

    y = _two_thread_record(6 * data._CHUNK_LINES + 5)
    _on_cpus(monkeypatch, 2)
    fh = SlowFile()
    data._write_samples(fh, y)
    save_signal_lines(y, tmp_path / "oracle.csv")
    assert b"".join(fh.parts) == (tmp_path / "oracle.csv").read_bytes()


def test_one_cpu_saves_on_the_calling_thread(monkeypatch):
    n = 3 * data._CHUNK_LINES
    _on_cpus(monkeypatch, 1)
    calls = _spy_on_format(monkeypatch)
    _assert_writes_like_repr(_two_thread_record(n))
    assert {t for _, t in calls} == {threading.get_ident()}


def test_two_thread_save_holds_two_chunks(tmp_path, monkeypatch):
    # two chunk buffers, however long the record: no chunk is copied or kept
    n = 20 * data._CHUNK_LINES
    y = _two_thread_record(n)
    rec = LabeledRecord("r", Signal(y, 360.0), np.array([], dtype=np.int64))
    _on_cpus(monkeypatch, 2)
    tracemalloc.start()
    try:
        save_record(rec, str(tmp_path / "r.csv"), str(tmp_path / "r.ann"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers = 2 * data._CHUNK_LINES * (len(str(n)) + 26)
    assert buffers < peak < buffers + (256 << 10)
    assert _bits(load_signal_csv(str(tmp_path / "r.csv")).samples) == _bits(y)


def _check_failed_save(tmp_path, monkeypatch, fail_at, calls_made):
    """A save whose chunk fail_at fails must make the calls of calls_made
    (chunks) and leave each path absent or as it was, no temporary file
    beside it, and no thread running."""
    y = np.arange(data._BUFFER_BYTES // 4) / 7.0
    chunk = data._CHUNK_LINES
    assert len(y) == 4 * chunk  # the two-thread path, in four chunks
    rec = LabeledRecord("r", Signal(y, 360.0), np.array([5]))
    old = tmp_path / "old"
    old.mkdir()
    (old / "r.csv").write_bytes(b"previous samples\n")
    (old / "r.ann").write_bytes(b"previous annotations\n")
    _on_cpus(monkeypatch, 2)
    calls = _spy_on_format(monkeypatch, fail_at=fail_at * chunk)
    threads = threading.active_count()
    for d in (tmp_path, old):
        calls.clear()
        with pytest.raises(OSError, match="No space left"):
            save_record(rec, str(d / "r.csv"), str(d / "r.ann"))
        assert sorted(i for i, _ in calls) == [k * chunk for k in calls_made]
        assert threading.active_count() == threads
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old"]
    assert sorted(p.name for p in old.iterdir()) == ["r.ann", "r.csv"]
    assert (old / "r.csv").read_bytes() == b"previous samples\n"
    assert (old / "r.ann").read_bytes() == b"previous annotations\n"


def test_failed_save_leaves_no_partial_file(tmp_path, monkeypatch):
    # the third chunk, this thread's second, fails while the helper's
    # fourth is under way; the helper finishes it before the error is raised
    _check_failed_save(tmp_path, monkeypatch, 2, [0, 1, 2, 3])


def test_failed_save_in_a_helper_chunk_leaves_no_partial_file(tmp_path, monkeypatch):
    _check_failed_save(tmp_path, monkeypatch, 1, [0, 1])


def test_labeled_record_validation():
    s = Signal(np.zeros(10), 360.0)
    with pytest.raises(ValueError):
        LabeledRecord("x", s, np.array([3, 3]))
    with pytest.raises(ValueError):
        LabeledRecord("x", s, np.array([11]))


def test_synthetic_noiseless_geometry():
    rec = generate_synthetic(
        SynthConfig(n_cycles=10, heart_rate_bpm=60.0, sample_rate=360.0,
                    r_amplitude=10.0, noise_sigma=0.0, baseline_wander_amp=0.0,
                    pre_r_dip=0.0, seed=0)
    )
    assert len(rec.signal) == 3600
    assert rec.n_cycles == 10
    spacing = np.diff(rec.rpeak_annotations)
    assert np.all(np.abs(spacing - 360) <= 40)  # +-5% jitter on both centres
    for a in rec.rpeak_annotations:
        assert rec.signal.samples[a] == pytest.approx(10.0, abs=1e-9)
        lo = max(0, a - 180)
        window = rec.signal.samples[lo:a + 180]
        assert lo + int(np.argmax(window)) == a


def test_synthetic_inverted_has_minima_at_annotations():
    rec = generate_synthetic(
        SynthConfig(n_cycles=6, r_amplitude=7.0, invert_qrs=True, seed=2)
    )
    for a in rec.rpeak_annotations:
        assert rec.signal.samples[a] == pytest.approx(-7.0, abs=1e-9)


def test_synthetic_noise_level():
    base = SynthConfig(n_cycles=40, heart_rate_bpm=75, noise_sigma=0.0, seed=9)
    noisy = SynthConfig(n_cycles=40, heart_rate_bpm=75, noise_sigma=0.2, seed=9)
    clean_rec = generate_synthetic(base)
    noisy_rec = generate_synthetic(noisy)
    diff = noisy_rec.signal.samples - clean_rec.signal.samples
    assert len(diff) >= 10_000
    assert 0.18 <= float(np.std(diff)) <= 0.22


def test_synthetic_deterministic_under_seed(tmp_path):
    cfg = SynthConfig(n_cycles=8, noise_sigma=0.25, baseline_wander_amp=1.0,
                      pre_r_dip=3.0, seed=77)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.signal.samples, b.signal.samples)
    assert np.array_equal(a.rpeak_annotations, b.rpeak_annotations)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_record(a, str(pa), str(tmp_path / "a.ann"))
    save_record(b, str(pb), str(tmp_path / "b.ann"))
    assert pa.read_bytes() == pb.read_bytes()


def test_synthetic_annotation_count_always_matches():
    for n in (1, 3, 17):
        rec = generate_synthetic(SynthConfig(n_cycles=n, seed=n))
        assert rec.n_cycles == n


def _oracle_equal(cfg):
    """generate_synthetic(cfg), checked bit for bit against the oracle; None
    where the oracle's R centres collide and the config is refused."""
    samples, centers = generate_signal_bumps(cfg)
    if np.any(np.diff(centers) <= 0):
        with pytest.raises(ValueError, match="heart_rate_bpm .* at sample_rate .* two R peaks"):
            generate_synthetic(cfg)
        return None
    rec = generate_synthetic(cfg)
    assert rec.signal.samples.tobytes() == samples.tobytes(), cfg
    assert rec.rpeak_annotations.tobytes() == centers.tobytes(), cfg
    return rec


def test_synthetic_matches_its_one_bump_at_a_time_oracle():
    # a seeded sweep of configs against the loop that adds one bump per
    # call; seen names each case the sweep must cover
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(200):
        rate = float(rng.uniform(128.0, 1000.0))
        # cycles of 1 to 1.2 samples may put an R centre on sample 0 or two
        # on one sample; of 2 to 6 they overlap many bumps; longer ones few
        cycle = float(rng.choice([rng.uniform(1.0, 1.2), rng.uniform(2.0, 6.0),
                                  rng.uniform(6.0, 500.0)], p=[0.2, 0.3, 0.5]))
        cfg = SynthConfig(
            n_cycles=int(rng.integers(2, 60)), heart_rate_bpm=60.0 * rate / cycle,
            sample_rate=rate, r_amplitude=float(rng.uniform(0.5, 20.0)),
            noise_sigma=float(rng.choice([0.0, 0.3])),
            baseline_wander_amp=float(rng.choice([0.0, 2.0])),
            pre_r_dip=float(rng.choice([0.0, -4.0, 3.0])), invert_qrs=bool(rng.integers(2)),
            seed=int(rng.integers(1000)))
        rec = _oracle_equal(cfg)
        if rec is None:
            seen.add("refused")
            continue
        ann, n = rec.rpeak_annotations, len(rec.signal)
        r_half = math.ceil(R_WAVE_WIDTH_S * rate)
        p_half = math.ceil(PRE_R_WIDTH_S * rate)
        p_first = ann[0] - round(PRE_R_OFFSET_S * rate)
        seen |= {name for name, hit in [
            ("cycles of 2 to 3 samples", 2.0 <= cfg.cycle_samples < 3.0),
            ("overlapping R bumps", len(ann) > 1 and np.diff(ann).min() <= 2 * r_half),
            ("R centre at 0", ann[0] == 0),
            ("R centre at n-1", ann[-1] == n - 1),
            ("pre-R bump starting before 0", cfg.pre_r_dip and p_first - p_half < 0),
            ("pre-R bump ending before 0", cfg.pre_r_dip and p_first + p_half < 0),
            ("inverted", cfg.invert_qrs), ("upright", not cfg.invert_qrs),
            ("noise", cfg.noise_sigma), ("no noise", not cfg.noise_sigma),
            ("wander", cfg.baseline_wander_amp), ("no wander", not cfg.baseline_wander_amp),
            ("below 200 Hz", rate < 200.0), ("above 900 Hz", rate > 900.0),
        ] if hit}
    assert len(seen) == 15, seen


def test_synthetic_bumps_hold_no_record_sized_temporary():
    # a 2-hour record (2,592,000 samples) with pre-R dips: the bumps, added
    # one offset at a time, add far less than the record's own 8 B/sample
    cfg = SynthConfig(n_cycles=9000, heart_rate_bpm=75.0, pre_r_dip=-2.0, seed=3)
    n = round(cfg.n_cycles * cfg.cycle_samples)
    tracemalloc.start()
    try:
        rec = generate_synthetic(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rec.signal) == n == 2_592_000
    assert 8 * n < peak < 1.25 * 8 * n


@pytest.mark.parametrize("bpm", [21600.0, 30000.0])
def test_colliding_r_centres_are_refused_by_name(bpm):
    # cycles of 1 sample or less round two R centres onto one sample
    for seed in range(5):
        with pytest.raises(ValueError, match=f"heart_rate_bpm {bpm!r} at sample_rate 360.0 "):
            generate_synthetic(SynthConfig(n_cycles=20, heart_rate_bpm=bpm, seed=seed))


def test_fast_heart_rates_match_the_oracle():
    # 18,000 bpm (cycles of 1.2 samples) keeps its R centres apart; with
    # pre-R dips, whose first bumps end before sample 0, the one-bump-a-call
    # loop once ended in a numpy broadcast error
    for seed in range(5):
        for dip in (0.0, 2.0):
            cfg = SynthConfig(n_cycles=20, heart_rate_bpm=18000.0, pre_r_dip=dip, seed=seed)
            assert _oracle_equal(cfg) is not None


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_cycles=0)
    with pytest.raises(ValueError):
        SynthConfig(n_cycles=5, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(n_cycles=5, r_amplitude=0.0)
    with pytest.raises(ValueError):
        SynthConfig(n_cycles=5, heart_rate_bpm=0)


@pytest.mark.parametrize("fields, named", [
    ({"sample_rate": math.inf}, "sample_rate must be finite"),
    ({"sample_rate": math.nan}, "sample_rate must be finite"),
    ({"sample_rate": 1e308}, "heart_rate_bpm \\* sample_rate gives a record of inf samples"),
    ({"heart_rate_bpm": 1e-300}, "heart_rate_bpm \\* sample_rate gives a record of 6.48e\\+304"),
    ({"noise_sigma": math.nan}, "noise_sigma must be finite"),
    ({"n_cycles": math.inf}, "n_cycles must be finite"),
    ({"r_amplitude": math.inf}, "r_amplitude must be finite"),
    ({"baseline_wander_amp": -math.inf}, "baseline_wander_amp must be finite"),
    ({"pre_r_dip": math.nan}, "pre_r_dip must be finite"),
    ({"n_cycles": 2.5}, "n_cycles must be an int >= 1, got 2.5"),
    ({"n_cycles": True}, "n_cycles must be an int >= 1, got True"),
    ({"seed": -1}, "seed must be an int >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an int >= 0, got 1.5"),
    ({"heart_rate_bpm": 1e5}, "n_cycles \\* 60 / heart_rate_bpm \\* sample_rate gives a "
     "record of 0.648 samples; it must be finite, at least 2"),
    ({"sample_rate": 1e-3}, "heart_rate_bpm \\* sample_rate gives a record of 0.0024 samples"),
], ids=["sample_rate inf", "sample_rate nan", "sample_rate 1e308", "heart_rate_bpm 1e-300",
        "noise_sigma nan", "n_cycles inf", "r_amplitude inf", "wander -inf", "pre_r_dip nan",
        "n_cycles 2.5", "n_cycles True", "seed -1", "seed 1.5", "heart_rate_bpm 1e5",
        "sample_rate 1e-3"])
def test_synth_config_refuses_non_finite_fields_and_lengths(fields, named):
    # each used to end in a bare OverflowError, numpy's ValueError or
    # TypeError inside generate_synthetic, Signal's "at least 2 samples"
    # (which names no field), or (noise_sigma nan) in a record without noise
    with pytest.raises(ValueError, match=named):
        SynthConfig(**{"n_cycles": 3, **fields})
