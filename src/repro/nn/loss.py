"""The loss: numerically stable softmax cross-entropy.

The paper's networks end in a softmax layer trained with cross-entropy
(Appendix). As is standard, we fuse the two: the network produces
logits, and this module computes both the scalar loss
``f(theta) = mean_i CE(softmax(logits_i), y_i)`` and its gradient with
respect to the logits in one pass, avoiding the overflow-prone explicit
softmax Jacobian.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of ``softmax(logits)`` against integer labels.

    Parameters
    ----------
    logits:
        ``(N, K)`` raw scores.
    labels:
        ``(N,)`` integer class labels in ``[0, K)``.

    Returns
    -------
    (loss, dlogits):
        ``loss`` is the scalar mean cross-entropy;
        ``dlogits`` is ``(softmax(logits) - onehot) / N``, the gradient
        of the mean loss with respect to ``logits``.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (N, K), got shape {logits.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"labels must be (N,) matching logits N={logits.shape[0]}, got {labels.shape}"
        )
    n, k = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ShapeError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(denom)
    rows = np.arange(n)
    loss = float(-log_probs[rows, labels].mean()) if n else 0.0
    dlogits = exp / denom
    dlogits[rows, labels] -= 1.0
    dlogits /= max(n, 1)
    return loss, dlogits
