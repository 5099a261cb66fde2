"""The segmented-``reduceat`` wirelength program, kept as the test oracle
of the compiled net pass (``repro.place.wirelength``).

One ``reduceat`` per reduction over the CSR pin list, per-net values
gathered back to the pins through a pin->net index, the gradient added
into the cells by ``np.add.at``.  ``reduceat`` cannot express an empty
segment (it reads the next net's first pin, or raises at the end of the
array), so empty nets are dropped before the kernels and put back as
exact zeros; nets of one pin run through them weighted by 0.
``tests/test_wirelength.py`` holds ``WAWirelength.evaluate`` and every
HPWL entry point to it bit for bit.
"""

import numpy as np


def _ref_csr(design, cell_x, cell_y):
    keep = design.net_degrees > 0
    order = design.net2pin
    starts = design.net2pin_start[:-1][keep]
    px = cell_x[design.pin2cell] + design.pin_offset_x
    py = cell_y[design.pin2cell] + design.pin_offset_y
    return keep, order, starts, px[order], py[order]


def _all_nets(keep, per_net):
    out = np.zeros(per_net.shape[:-1] + keep.shape)
    out[..., keep] = per_net
    return out


def ref_hpwl(design, cell_x, cell_y, net_weights=None):
    keep, order, starts, x, y = _ref_csr(design, cell_x, cell_y)
    if len(order) == 0:
        return 0.0
    span = _all_nets(
        keep,
        np.maximum.reduceat(x, starts)
        - np.minimum.reduceat(x, starts)
        + np.maximum.reduceat(y, starts)
        - np.minimum.reduceat(y, starts),
    )
    if net_weights is not None:
        span = span * net_weights
    return float(span.sum())


def ref_evaluate(design, cell_x, cell_y, gamma, net_weights=None):
    n_cells = design.n_cells
    keep, order, starts, x, y = _ref_csr(design, cell_x, cell_y)
    if len(order) == 0:
        return 0.0, np.zeros(n_cells), np.zeros(n_cells)
    degrees = design.net_degrees[keep]
    net = np.repeat(np.arange(len(degrees)), degrees)
    coord = np.stack([x, y])

    def per_pin(per_net):
        return np.take(per_net, net, axis=1)

    c_max = np.maximum.reduceat(coord, starts, axis=1)
    c_min = np.minimum.reduceat(coord, starts, axis=1)
    a_pos = np.exp((coord - per_pin(c_max)) / gamma)
    a_neg = np.exp((per_pin(c_min) - coord) / gamma)
    b_pos = np.add.reduceat(a_pos, starts, axis=1)
    b_neg = np.add.reduceat(a_neg, starts, axis=1)
    wa_pos = np.add.reduceat(coord * a_pos, starts, axis=1) / b_pos
    wa_neg = np.add.reduceat(coord * a_neg, starts, axis=1) / b_neg

    weight = (degrees >= 2).astype(np.float64)
    if net_weights is not None:
        weight = net_weights[keep] * weight
    span = np.sum(_all_nets(keep, weight * (wa_pos - wa_neg)), axis=1)
    grad = np.take(weight, net) * (
        (a_pos / per_pin(b_pos)) * (1.0 + (coord - per_pin(wa_pos)) / gamma)
        - (a_neg / per_pin(b_neg)) * (1.0 - (coord - per_pin(wa_neg)) / gamma)
    )
    pin_cells = design.pin2cell[order]
    grad_xy = np.zeros(2 * n_cells)
    np.add.at(grad_xy, np.concatenate([pin_cells, pin_cells + n_cells]), grad.reshape(-1))
    return float(span[0]) + float(span[1]), grad_xy[:n_cells], grad_xy[n_cells:]
