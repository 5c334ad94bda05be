import warnings

import numpy as np
import pytest

from btucker import decomp, tensor
from btucker.errors import FileFormatError
from btucker.tensor import (
    Tensor3,
    _folding,
    data_kind,
    frobenius_norm,
    read_matrix,
    read_tensor,
    reconstruct,
    unfold,
    write_matrix,
    write_tensor,
)

from oracles import reference_hosvd, reference_text_file


def random_tensor(dims, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor3(rng.normal(size=dims))


class TestConstruction:
    def test_rejects_nan(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 1, 1] = np.nan
        with pytest.raises(ValueError):
            Tensor3(bad)

    def test_rejects_inf(self):
        bad = np.zeros((2, 2, 2))
        bad[1, 0, 0] = np.inf
        with pytest.raises(ValueError):
            Tensor3(bad)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            Tensor3(np.zeros((2, 2)))

    def test_immutable(self):
        t = random_tensor((2, 3, 4))
        with pytest.raises(ValueError):
            t.values[0, 0, 0] = 1.0


class TestUnfold:
    def test_degenerate_1x1x1(self):
        t = Tensor3(np.array([[[5.0]]]))
        m = unfold(t, 1)
        assert m.shape == (1, 1)
        assert m[0, 0] == 5.0

    def test_element_mapping_by_index_loop(self):
        # x[i,j,k] = (i+1) + 10(j+1) + 100(k+1); brute-force index oracle
        n, m, k = 2, 2, 2
        x = np.zeros((n, m, k))
        for i in range(n):
            for j in range(m):
                for kk in range(k):
                    x[i, j, kk] = (i + 1) + 10 * (j + 1) + 100 * (kk + 1)
        t = Tensor3(x)
        u1, u2, u3 = unfold(t, 1), unfold(t, 2), unfold(t, 3)
        for i in range(n):
            for j in range(m):
                for kk in range(k):
                    assert u1[i, j + m * kk] == x[i, j, kk]
                    assert u2[j, i + n * kk] == x[i, j, kk]
                    assert u3[kk, i + n * j] == x[i, j, kk]

    def test_invalid_mode(self):
        t = random_tensor((2, 2, 2))
        with pytest.raises(ValueError):
            unfold(t, 0)
        with pytest.raises(ValueError):
            unfold(t, 4)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_round_trip_exact(self, mode):
        t = random_tensor((3, 4, 5), seed=mode)
        back = _folding(unfold(t, mode), mode, t.dims)
        assert np.array_equal(back, t.values)  # bitwise


class TestFold:
    def test_degenerate(self):
        a = _folding(np.array([[7.0]]), 3, (1, 1, 1))
        assert a.shape == (1, 1, 1)
        assert a[0, 0, 0] == 7.0

    def test_element_check_2x3x4(self):
        t = random_tensor((2, 3, 4), seed=9)
        m = unfold(t, 2)
        back = _folding(m, 2, (2, 3, 4))
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    assert back[i, j, k] == t.values[i, j, k]


class TestReconstruct:
    def test_rank1_constant_factors(self):
        n, m, k = 4, 3, 2
        model = decomp.TuckerModel(
            core=np.array([[[2.0]]]),
            u1=np.full((1, n), 1 / np.sqrt(n)),
            u2=np.full((1, m), 1 / np.sqrt(m)),
            u3=np.full((1, k), 1 / np.sqrt(k)),
        )
        t = reconstruct(model)
        assert np.allclose(t.values, 2.0 / np.sqrt(n * m * k), atol=1e-14)

    def test_full_rank_hosvd_identity(self):
        t = random_tensor((3, 3, 3), seed=2)
        model = reference_hosvd(t, (3, 3, 3))
        err = frobenius_norm(Tensor3(t.values - reconstruct(model).values))
        assert err / frobenius_norm(t) < 1e-10

    def test_naive_triple_loop_oracle(self):
        rng = np.random.default_rng(3)
        n, m, k = 4, 3, 2
        l1, l2, l3 = 2, 2, 1
        model = reference_hosvd(random_tensor((n, m, k), seed=4), (l1, l2, l3))
        expected = np.zeros((n, m, k))
        for i in range(n):
            for j in range(m):
                for kk in range(k):
                    s = 0.0
                    for a in range(l1):
                        for b in range(l2):
                            for c in range(l3):
                                s += model.core[a, b, c] * model.u1[a, i] * model.u2[b, j] * model.u3[c, kk]
                    expected[i, j, kk] = s
        got = reconstruct(model).values
        assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) < 1e-12

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            decomp.TuckerModel(
                core=np.zeros((2, 1, 1)),
                u1=np.eye(1, 3),
                u2=np.eye(1, 3),
                u3=np.eye(1, 3),
            )


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(Tensor3(np.zeros((2, 2, 2)))) == 0.0

    def test_single_negative(self):
        assert frobenius_norm(Tensor3(np.array([[[-3.0]]]))) == 3.0

    def test_matches_unfolded_vector_norm(self):
        t = random_tensor((4, 5, 6), seed=11)
        assert np.isclose(frobenius_norm(t), np.linalg.norm(unfold(t, 1).ravel()), rtol=1e-12)

    def test_squared_equals_sum_of_squares(self):
        t = random_tensor((3, 3, 3), seed=12)
        assert np.isclose(frobenius_norm(t) ** 2, np.sum(t.values**2), rtol=1e-12)

    def test_overflowing_square_raises(self):
        # every entry is finite, but ||t||^2 is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                frobenius_norm(Tensor3(np.full((2, 2, 2), 1e160)))


class TestTextFormat:
    def test_tensor_round_trip_exact(self, tmp_path):
        t = random_tensor((3, 4, 2), seed=21)
        path = tmp_path / "t.txt"
        write_tensor(t, path)
        assert open(path).readline() == "T3 3 4 2\n"
        back = read_tensor(path)
        assert np.array_equal(back.values, t.values)

    def test_matrix_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(5, 3)) * 1e-7
        path = tmp_path / "m.txt"
        write_matrix(a, path)
        back = read_matrix(path)
        assert np.array_equal(back, a)

    def test_canonical_order_first_index_fastest(self, tmp_path):
        x = np.arange(8, dtype=float).reshape((2, 2, 2))
        path = tmp_path / "t.txt"
        write_tensor(Tensor3(x), path)
        values = np.loadtxt(open(path).readlines()[1:]).ravel()
        # first value pair differs in i (fastest), i.e. x[0,0,0], x[1,0,0]
        assert values[0] == x[0, 0, 0]
        assert values[1] == x[1, 0, 0]
        assert values[2] == x[0, 1, 0]

    def test_data_kind(self, tmp_path):
        t = random_tensor((2, 2, 2))
        write_tensor(t, tmp_path / "t.txt")
        write_matrix(np.zeros((2, 2)), tmp_path / "m.txt")
        assert data_kind(tmp_path / "t.txt") == "tensor"
        assert data_kind(tmp_path / "m.txt") == "matrix"
        (tmp_path / "junk.txt").write_text("BLAH 1 2\n")
        with pytest.raises(FileFormatError):
            data_kind(tmp_path / "junk.txt")

    def test_corrupt_tensor_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("T3 2 2 2\n1 2 3\n")
        with pytest.raises(FileFormatError):
            read_tensor(path)


# Signed zero, the smallest subnormal, a negative subnormal, a large power of ten,
# inexact decimals and an integer beyond 2**53.
EDGE_VALUES = [-0.0, 5e-324, -1e-310, 1e308, 0.1, 1e22, 123456789012345678.0]


def text_values(size, seed):
    """EDGE_VALUES, then values across the float64 exponent range, subnormals included,
    integers beyond 2**53 and unit normals."""
    rng = np.random.default_rng(seed)
    spread = rng.normal(size=size) * 10.0 ** rng.integers(-320, 300, size=size)
    spread[1::5] = rng.integers(-(2**62), 2**62, size=spread[1::5].size)
    spread[2::7] = rng.normal(size=spread[2::7].size)
    head = min(size, len(EDGE_VALUES))
    spread[:head] = EDGE_VALUES[:head]
    return spread


class TestWriterBytes:
    """The block writer prints exactly the bytes of the per-value writer in oracles.py."""

    # a short line only; exactly one block; 73737 values: full blocks, then a
    # block ending in a short line
    @pytest.mark.parametrize("shape", [(3, 5), (tensor._LINES_PER_BLOCK, 8), (8193, 9)])
    def test_matrix(self, tmp_path, shape):
        a = text_values(np.prod(shape), seed=shape[0]).reshape(shape)
        write_matrix(a, tmp_path / "m.txt")
        want = reference_text_file(f"M2 {shape[0]} {shape[1]}", a.ravel(order="C"))
        assert (tmp_path / "m.txt").read_bytes() == want
        assert np.array_equal(read_matrix(tmp_path / "m.txt"), a)

    @pytest.mark.parametrize("dims", [(3, 5, 7), (41, 40, 41)])
    def test_tensor(self, tmp_path, dims):
        t = Tensor3(text_values(np.prod(dims), seed=dims[0]).reshape(dims))
        write_tensor(t, tmp_path / "t.txt")
        want = reference_text_file("T3 {} {} {}".format(*dims), t.values.ravel(order="F"))
        assert (tmp_path / "t.txt").read_bytes() == want
        assert read_tensor(tmp_path / "t.txt") == t


class TestReaderStrictness:
    @pytest.mark.parametrize("body", ["", " ", "\n", " \r\n\t"])
    def test_blank_body_is_not_a_value(self, tmp_path, body):
        # np.fromstring reads a body of only whitespace as [-1.0]
        path = tmp_path / "m.txt"
        path.write_text(f"M2 1 1\n{body}")
        with pytest.raises(FileFormatError, match="bad header"):
            read_matrix(path)

    def test_truncating_parse_is_an_error(self, tmp_path, monkeypatch):
        # numpy 1.x warns on a bad token and returns the values before it
        def fromstring(body, dtype, sep):
            warnings.warn("string or file could not be read to its end due to unmatched data; "
                          "this will raise a ValueError in the future.", DeprecationWarning)
            return np.array([1.0, 2.0])

        monkeypatch.setattr(tensor.np, "fromstring", fromstring)
        path = tmp_path / "m.txt"
        path.write_text("M2 1 2\n1 2 x\n")
        with pytest.raises(FileFormatError, match="unparsable M2 data"):
            read_matrix(path)

    @pytest.mark.parametrize("body", ["1\t2\r\n3  4", "\n1 2\n3 4\n\n", "1e0 +2 3. .4e1"])
    def test_any_ascii_whitespace_separates(self, tmp_path, body):
        path = tmp_path / "m.txt"
        path.write_text(f"M2 2 2\n{body}", newline="")
        assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])
