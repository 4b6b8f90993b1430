"""``_text.rows_text`` against ``repr``: digits, layout and fallback; the
results writer that splices it into ``json.dumps`` text."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prescurve._text import BLOCK, rows_text
from prescurve.cli import _results_text

# the two callers' separators: curve files (JSON) and trajectory.csv
SEPARATORS = [(", ", "], ["), (",", "\n")]


def joined(values, sep, row_sep) -> str:
    """The reference: ``repr`` of each value, joined row by row."""
    return row_sep.join(sep.join(repr(v) for v in row) for row in np.asarray(values).tolist())


def assert_matches(values, sep=",", row_sep="\n"):
    values = np.asarray(values, dtype=float)
    values = values.reshape(-1, 1) if values.ndim == 1 else values
    text = rows_text(values, sep, row_sep)
    expected = joined(values, sep, row_sep)
    if text != expected:
        pairs = zip(text.split(row_sep), expected.split(row_sep))
        bad = [(got, want) for got, want in pairs if got != want]
        pytest.fail(f"text differs from repr in {len(bad)} rows, e.g. {bad[:5]}")


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    around = np.concatenate(
        [values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)]
    )
    around = around[np.isfinite(around)]
    return np.concatenate([around, -around])


def bit_patterns(rng, size, exponents=(0, 2047)) -> np.ndarray:
    """Finite floats of random sign and significand, biased exponent drawn
    from ``exponents`` (inclusive)."""
    sign = rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(exponents[0], exponents[1] + 1, size=size, dtype=np.uint64)
    significand = rng.integers(0, 1 << 52, size=size, dtype=np.uint64)
    values = (sign | (exponent << np.uint64(52)) | significand).view(np.float64)
    return values[np.isfinite(values)]


class TestDigits:
    def test_positional_range_patterns(self, rng):
        # biased exponents 1009..1076 cover 2^-14 .. 2^54: the positional
        # range 1e-4 <= |v| < 1e16 and a margin on both sides
        assert_matches(bit_patterns(rng, 1_000_000, exponents=(1009, 1076)))

    def test_any_patterns(self, rng):
        assert_matches(bit_patterns(rng, 200_000))

    def test_powers_of_two_and_ten(self):
        powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
        assert_matches(with_neighbours(powers))

    def test_edges_of_the_positional_range(self):
        # 1e-4 is written "0.0001" and 1e16 "1e+16"; the largest double
        # below 1e16 is 9999999999999998.0
        edges = [1e-4, 1e-5, 9999999999999998.0, 1e16, 1e15, 0.001, 0.1, 1.0, 10.0]
        assert_matches(with_neighbours(edges))
        assert rows_text([[1e-4, 9999999999999998.0, 1e16]], ",", "\n") == (
            "0.0001,9999999999999998.0,1e+16"
        )

    def test_integers_near_two_to_the_53(self):
        near = 2.0**53 + np.arange(-1000, 1001)
        assert_matches(with_neighbours(np.concatenate([near, near / 2, near * 2])))

    def test_halfway_values(self, rng):
        # c = m 2^z with m odd and z = k - q - 1 puts v 10^-k exactly halfway
        # between two integers (k = floor(log10 2^q)), so where no shorter
        # decimal fits, the even one of the two nearest is written
        values = []
        for q in range(-66, 2):
            z = ((q * 661971961083) >> 41) - q - 1
            if 0 <= z <= 52:
                m = rng.integers(1 << (52 - z), 1 << (53 - z), size=2000) | 1
                values.append(np.ldexp((m << z).astype(float), q))
        assert_matches(np.concatenate(values))

    def test_zeros_and_subnormals(self, rng):
        tiny = np.float64(5e-324)
        subnormal = rng.integers(1, 1 << 52, size=10_000).astype(np.float64) * tiny
        values = np.concatenate([[0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308], subnormal])
        assert_matches(with_neighbours(values))
        # the shortest digits of the smallest subnormal are "5", not "4.9"
        assert rows_text([[5e-324, -0.0, 0.0]], ",", "\n") == "5e-324,-0.0,0.0"

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k
                ),
                min_size=1,
                max_size=40,
            )
        ),
        st.sampled_from(SEPARATORS),
    )
    def test_any_finite_rows(self, rows, separators):
        sep, row_sep = separators
        assert rows_text(np.array(rows), sep, row_sep) == joined(rows, sep, row_sep)


class TestIntegers:
    """Integer arrays: each value as ``repr`` of its int, the OFF faces'
    separators included."""

    def test_every_count_of_digits(self):
        # every value below 10^5, and each power of ten up to 10^8 with its
        # neighbours, where the count of leading zeros to drop changes
        powers = np.array([10**e + d for e in range(9) for d in (-1, 0, 1)])
        for values in (np.arange(100_000).reshape(-1, 4), powers.reshape(-1, 1)):
            for sep, row_sep in SEPARATORS + [(" ", "\n")]:
                assert rows_text(values, sep, row_sep) == joined(values, sep, row_sep)

    def test_outside_eight_digits(self, rng):
        # negatives and values of 10^8 and above take repr, beside values
        # that take the lanes, in every integer kind
        edges = [0, 7, -1, -99999999, 10**8, 2**31, 2**63 - 1, -(2**63)]
        values = np.concatenate([edges, rng.integers(-(2**62), 2**62, size=4000)])
        values[::3] = rng.integers(0, 10**8, size=len(values[::3]))
        assert_int_rows(values.reshape(-1, 4))
        assert_int_rows(np.array([[2**64 - 1, 10**8 - 1, 10**8]], dtype=np.uint64))
        for dtype in (np.int8, np.uint8, np.int16, np.uint32):
            info = np.iinfo(dtype)
            assert_int_rows(np.array([[info.min, 0, info.max, 1]], dtype=dtype))

    def test_blocks_of_three_words(self):
        # one value past eight digits gives every value three words: blocks
        # with and without such values, before and after them
        for values in (
            np.concatenate([[10**9], np.arange(3 * BLOCK)]),
            np.concatenate([np.arange(3 * BLOCK), [-1]]),
        ):
            assert_int_rows(values.reshape(-1, 1))
            assert_int_rows(values[1:].reshape(-1, 3))

    def test_block_of_faces(self):
        # more rows than one block, as CylinderLift.write_off gives them
        faces = np.column_stack([np.full(3 * BLOCK, 3), np.arange(9 * BLOCK).reshape(-1, 3)])
        assert rows_text(faces, " ", "\n") == "\n".join(
            f"3 {a} {b} {c}" for _, a, b, c in faces.tolist()
        )

    @given(
        st.lists(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=3, max_size=3), max_size=30),
        st.sampled_from(SEPARATORS),
    )
    def test_any_int64_rows(self, rows, separators):
        values = np.array(rows, dtype=np.int64).reshape(-1, 3)
        assert rows_text(values, *separators) == joined(values, *separators)


def assert_int_rows(values):
    for sep, row_sep in SEPARATORS:
        assert rows_text(values, sep, row_sep) == joined(values, sep, row_sep)


class TestLayout:
    def test_blocks(self, rng):
        # several blocks of whole rows and a short last one
        k = 3
        values = rng.normal(size=(2 * (BLOCK // k) + 5, k)) * 10.0 ** rng.integers(-6, 18, (1, k))
        for sep, row_sep in SEPARATORS:
            assert_matches(values, sep, row_sep)

    def test_separators_of_any_length(self):
        values = [[1.5, -0.25], [3.0, 1e-7]]
        for sep, row_sep in [("", ""), (" ; ", "|"), ("<eight!>", "0123456789abcdefg")]:
            assert rows_text(values, sep, row_sep) == joined(values, sep, row_sep)

    def test_empty(self):
        assert rows_text(np.empty((0, 2)), ",", "\n") == ""
        assert rows_text(np.empty((3, 0)), ",", "\n") == "\n\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_not_finite_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            rows_text([[1.0, bad]], ",", "\n")

    def test_shape_and_separator_checked(self):
        with pytest.raises(ValueError, match="shape"):
            rows_text([1.0, 2.0], ",", "\n")
        with pytest.raises(ValueError, match="NUL"):
            rows_text([[1.0, 2.0]], "\0", "\n")


# a loop document of ``immersed_results.json``: scalars of each JSON kind
# around the "phi" array, as ``cli.cmd_immersed`` writes it
_SCALARS = st.one_of(
    st.floats(), st.integers(-(10**6), 10**6), st.booleans(), st.text(max_size=8), st.none()
)
_PHI = st.lists(st.floats(width=64), max_size=12).map(lambda v: np.array(v, dtype=float))
_DOC = st.tuples(
    st.dictionaries(st.sampled_from(["n", "R", "residual", "x"]), _SCALARS, max_size=3),
    _PHI,
    st.dictionaries(st.sampled_from(["stop_reason", "rotation_identity"]), _SCALARS, max_size=2),
).map(lambda parts: {**parts[0], "phi": parts[1], **parts[2]})


class TestResultsText:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_DOC, max_size=4))
    def test_equals_json_dumps(self, docs):
        # the phi arrays, finite or not and empty or not, and every scalar
        # come out as json.dumps(indent=1) writes the same lists
        lists = [{**doc, "phi": doc["phi"].tolist()} for doc in docs]
        assert _results_text(docs) == json.dumps(lists, indent=1)

    def test_non_finite_in_json_spelling(self):
        docs = [{"phi": np.array([1.0, np.nan, -np.inf])}, {"phi": np.array([0.5, -0.0])}]
        text = _results_text(docs)
        assert "NaN" in text and "-Infinity" in text and "nan" not in text
        assert json.loads(text)[1]["phi"] == [0.5, -0.0]
