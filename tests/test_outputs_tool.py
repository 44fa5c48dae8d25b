"""tools/outputs.py compare mode, on tiny files (tier-1 does not run the corpus)."""
import numpy as np

from conftest import outputs


def test_compare_lists_equal_moved_and_missing(tmp_path, capsys):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    x = np.array([1.0, -2.0, np.nan])
    small = np.array([[0.3, 5.9e-6], [5.9e-6, 0.2]])
    np.savez(a, **{"run/x": x, "run/signed": np.array([0.0]), "run/small": small,
                   "doc": np.frombuffer(b"abc", np.uint8), "gone": np.zeros(2),
                   "table": np.frombuffer(b"t,cov\n0.5,1.0\n", np.uint8),
                   "shape": np.zeros(2)})
    np.savez(b, **{"run/x": x * (1.0 + np.array([0.0, 1e-15, 0.0])),
                   "run/signed": np.array([-0.0]), "run/small": small + [[0, 2e-16], [0, 0]],
                   "doc": np.frombuffer(b"abd", np.uint8),
                   "table": np.frombuffer(b"t,cov\n0.5,1.0000000000000002\n", np.uint8),
                   "new": np.zeros(2), "shape": np.zeros(3)})
    rows = {name: (status, detail) for name, status, detail in outputs.compare(a, b)}
    assert rows["run/x"][0] == "moved" and "max relative difference 1" in rows["run/x"][1]
    assert rows["run/signed"] == ("moved", "equal values, other bits")
    # a rounding-level move of an entry near zero, small against the output
    assert rows["run/small"] == (
        "moved", "max relative difference 3.39e-11, 6.67e-16 of the largest magnitude")
    assert rows["doc"] == ("moved", "file bytes differ from offset 2")
    # a file of another length whose text differs only in its numbers
    assert rows["table"] == ("moved", "same text apart from numbers, max relative "
                             "difference 2.22e-16, 2.22e-16 of the largest magnitude")
    assert rows["gone"] == ("missing", "only in A")
    assert rows["new"] == ("missing", "only in B")
    assert rows["shape"][0] == "moved"
    assert outputs.main(["compare", str(a), str(b)]) == 1
    assert outputs.main(["compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "7 equal, 0 moved, 0 missing"
