"""The composition-weight kernel, kept as a test oracle for the geometric-window
sums of qsym: it groups the tuples of a box sum by s = sum j instead of
factoring the sum over the coordinates."""


def composition_weights(ratios, limit: int) -> list:
    """W[s] = sum over j in {0..limit-1}^r with sum j = s of prod_l ratios[l]^(j_l).

    r = len(ratios).  The tuple sum is a product of r geometric windows, so it
    is built one coordinate at a time with the running-window recurrence
    out[s] = z*out[s-1] + W[s] - z^limit * W[s-limit]: O(r * smax) ring
    operations, smax = r(limit-1), over int, Fraction or LaurentPoly.  Unit
    ratios give the number of r-tuples with sum s.
    """
    if limit < 1:
        raise ValueError("composition_weights wants limit >= 1")
    weights = [ratios[0] ** 0 if ratios else 1]
    for z in ratios:
        z_limit = z**limit
        out = [weights[0]]
        for s in range(1, len(weights) + limit - 1):
            v = z * out[s - 1]
            if s < len(weights):
                v = v + weights[s]
            if s >= limit:
                v = v - z_limit * weights[s - limit]
            out.append(v)
        weights = out
    return weights
