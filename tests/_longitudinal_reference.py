"""Reference curl check of a field flagged longitudinal: one pass over all
nine partials, the rule coupling._check_longitudinal stops early against.

`check_longitudinal` is the rule as it stood before the early exit, kept
verbatim so that tests can pin every accept/reject decision and message of
the production check to it.
"""
import numpy as np

from phonocool.coupling import GridError, _partial, curl


def curl_and_scale(field_):
    """max|curl| and the derivative scale, the largest of all nine partials."""
    c = np.abs(curl(field_)).max()
    scale = max(np.abs(_partial(field_, i, j)).max()
                for i in range(3) for j in range(3))
    return c, scale


def check_longitudinal(field_) -> None:
    c = np.abs(curl(field_)).max()
    # scale against the overall derivative magnitude, all nine partials, so
    # a transverse field (curl ~ derivative scale) is rejected while
    # finite-difference noise on a genuinely curl-free field passes
    scale = max(np.abs(_partial(field_, i, j)).max()
                for i in range(3) for j in range(3))
    if scale == 0.0:
        return
    if c > field_.curl_tol * scale:
        raise GridError(
            f"field flagged longitudinal but max|curl| = {c:.3e} exceeds "
            f"{field_.curl_tol:g} of the derivative scale {scale:.3e}")
