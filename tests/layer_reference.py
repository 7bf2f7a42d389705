"""Reference layer forwards: the reshape-mean AvgPool and the two-pass
BatchNorm moments, kept as the oracle for the strided-sum AvgPool and the
single-pass moments in ptsparse.nn.layers."""

import numpy as np

from ptsparse.nn.layers import BatchNorm


def avgpool_reference(x: np.ndarray, k: int) -> np.ndarray:
    b, c, h, w = x.shape
    return x.reshape(b, c, h // k, k, w // k, k).mean(axis=(3, 5))


class BatchNormReference(BatchNorm):
    """BatchNorm whose train/recal forward reduces x with np.mean and np.var,
    and whose recalibration reduces x again for the batch moments."""

    def accumulate_stats(self, x):
        axes = self._axes(x)
        nb = int(np.prod([x.shape[a] for a in axes]))
        mb = x.mean(axis=axes)
        m2b = x.var(axis=axes) * nb
        n, m, m2 = self._acc
        tot = n + nb
        delta = mb - m
        m_new = m + delta * (nb / tot)
        m2_new = m2 + m2b + delta * delta * (n * nb / tot)
        self._acc = (tot, m_new, m2_new)
        self.running_mean = m_new
        self.running_var = m2_new / tot

    def forward(self, x, mode="eval", weff=None):
        if mode == "eval":
            return super().forward(x, mode, weff)
        shp = self._bshape(x)
        axes = self._axes(x)
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        if mode == "recal":
            self.accumulate_stats(x)
        else:
            m = self.MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
        invstd = 1.0 / np.sqrt(var + self.EPS)
        xhat = (x - mean.reshape(shp)) * invstd.reshape(shp)
        y = self.gamma.reshape(shp) * xhat + self.beta.reshape(shp)
        n = int(np.prod([x.shape[a] for a in axes]))
        return y, {"xhat": xhat, "invstd": invstd, "mode": mode, "n": n}
