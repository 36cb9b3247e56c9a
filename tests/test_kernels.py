import numpy as np
import numpy.testing as npt

from xtalssl import autodiff as ad
from xtalssl.autodiff import Tensor


class TestKernelSemantics:
    """The segment sum behind scatter_add_rows, at the edge of its domain."""

    def test_scatter_add_empty(self):
        out = ad.scatter_add_rows(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64), 2)
        npt.assert_array_equal(out.data, np.zeros((2, 3)))
