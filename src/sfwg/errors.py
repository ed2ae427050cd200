"""Error measures and observed convergence rates.

Three functionals are reported per run:

* energy error  |||u - u_h||| = (sum_T ||Pi_j lap u - Lw u_h||^2_T)^(1/2),
  using that the weak Laplacian of a smooth field is the P_j projection of
  its Laplacian;
* broken H2 error ||u - u_h||_{2,h} with h-weighted edge jump terms, in
  which the traces of the smooth field cancel;
* the plain L2 error of the cell-interior part.

The first reads Pi_j lap u and Lw u_h from the operators (``op.project``
and ``op.apply``); the others build rules per shape, of degree 2k+6 on
cells and 2k+2 on edges, and tables at their points, and evaluate u
(``on_cells``).  Each applies its tables a bounded chunk of cells at a
time (``weakop._cell_chunks``), so no gather grows with the mesh.
The edge terms of the second are coefficient norms in the orthonormal
edge basis, the projections of u_h0 onto it formed by one per-shape
matrix each.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import legendre_laplacian
from .weakop import WeakFunction, _cell_chunks, cell_tables, edge_tables, on_cells


@dataclass
class ExactSolution:
    """Closed-form manufactured solution: u, grad u, lap u, f = lap^2 u."""

    name: str
    u: callable
    grad: callable        # (q, 2) points -> (q, 2)
    laplacian: callable
    source: callable


@dataclass
class ConvergenceReport:
    """Rows of (n, h, err_triple, err_2h, err_l2); the rates are formed from
    them by ``convergence_rates``."""

    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_row(self, n, h, errors):
        row = {"n": n, "h": h}
        row.update(zip(("err_triple", "err_2h", "err_l2"), errors))
        self.rows.append(row)


def convergence_rates(errors, hs):
    """Observed orders log(e_{i-1}/e_i) / log(h_{i-1}/h_i); None if undefined,
    that is for a non-positive error or two equal mesh sizes."""
    if len(errors) != len(hs) or len(errors) < 2:
        raise ValueError("need equally many errors and mesh sizes, at least 2")
    rates = []
    for i in range(1, len(errors)):
        if errors[i - 1] <= 0.0 or errors[i] <= 0.0 or hs[i - 1] == hs[i]:
            rates.append(None)
        else:
            rates.append(math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i]))
    return rates


def error_triple(exact: ExactSolution, u_h: WeakFunction, mesh, k, j, ops):
    """Energy-norm error via the projected-Laplacian identity.

    ``ops`` is the list that ``element_operators`` builds for ``mesh``, k
    and j; the operators carry the cells and each its own P_j degree, so
    ``mesh``, ``k`` and ``j`` are not read.  Pi_j lap u (``op.project``) and
    Lw u_h (``op.apply``) are both in the operator's orthonormal basis psi,
    so the norm on a cell is that of their coefficient difference; both are
    formed a chunk of cells at a time.
    """
    total = 0.0
    for op in ops:
        per = np.empty(len(op.stack.cells))
        # Walked here too, so that neither term is held for the whole stack.
        for s, _, _ in _cell_chunks(op.stack, op.matrix[0].size):
            diff = op.project(exact.laplacian, s) - op.apply(u_h, s)
            per[s] = np.sum(diff * diff, axis=1)
        total += float(np.sum(per))
    return math.sqrt(total)


def error_2h(exact: ExactSolution, u_h: WeakFunction, mesh, k):
    """Broken H2 error of v = u - u_h.

    Per cell: ||lap v0||^2 + h^-3 ||Qb(v0 - v_b)||^2 + h^-1 ||(grad v0 -
    v_n n_e) . n||^2, the last two summed over the cell's edges.  The traces
    of u cancel from the edge terms, so u is evaluated in cells only: with
    v0 = u - u_h0, v_b = u - u_hb and v_n = grad u . n_e - u_hn,
    Qb(v0 - v_b) = Qb(u_hb - u_h0), and since n = sigma n_e,
    (grad v0 - v_n n_e) . n = sigma u_hn - grad u_h0 . n.
    """
    total = 0.0
    for stack in mesh.stacks:
        ref = stack.shapes[0]
        rule, vals = cell_tables(ref, k, 2 * k + 6)
        lap_h = vals @ legendre_laplacian(k) / (0.25 * ref.diameter[:, None, None] ** 2)

        # v_b, v_n and, on a straight edge, grad u_h0 . n lie in P_{k-1}(e),
        # so both edge terms are coefficient norms in the orthonormal edge
        # basis: ||u_hb - Qb(u_h0)||^2 and ||sigma u_hn - Qb(grad u_h0 . n)||^2.
        erule, chi, vk, grad_n = edge_tables(ref, k, k, 2 * k + 2)
        wchi = (erule.weights[..., None] * chi).swapaxes(-1, -2)
        qb, qn = ((wchi @ t).reshape(len(vk), -1, vk.shape[-1]) for t in (vk, grad_n))
        per = np.empty(len(stack.cells))
        for s, _, rows in _cell_chunks(stack, lap_h[0].size + 2 * qb[0].size):
            c0 = u_h.v0[stack.cells[s], :, None]
            h_t = stack.diameter[s]
            lap = on_cells(exact.laplacian, stack, rule, s) - (lap_h[rows] @ c0)[..., 0]
            jump = u_h.vb[stack.edges[s]].reshape(len(c0), -1) - (qb[rows] @ c0)[..., 0]
            flux = ((stack.sigma[s, :, None] * u_h.vn[stack.edges[s]]).reshape(len(c0), -1)
                    - (qn[rows] @ c0)[..., 0])
            per[s] = (np.sum(rule.weights[rows] * lap * lap, axis=-1)
                      + np.sum(jump * jump, axis=1) / h_t**3 + np.sum(flux * flux, axis=1) / h_t)
        total += float(np.sum(per))
    return math.sqrt(total)


def error_l2(exact: ExactSolution, u_h: WeakFunction, mesh):
    """|| u - u0 ||_{L2} by cell quadrature."""
    k = u_h.k
    total = 0.0
    for stack in mesh.stacks:
        rule, vals = cell_tables(stack.shapes[0], k, 2 * k + 6)
        per = np.empty(len(stack.cells))
        for s, _, rows in _cell_chunks(stack, vals[0].size):
            diff = (on_cells(exact.u, stack, rule, s)
                    - (vals[rows] @ u_h.v0[stack.cells[s], :, None])[..., 0])
            per[s] = np.sum(rule.weights[rows] * diff * diff, axis=1)
        total += float(np.sum(per))
    return math.sqrt(total)
