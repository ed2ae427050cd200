"""Error measures and observed convergence rates.

Three functionals are reported per run:

* energy error  |||u - u_h||| = (sum_T ||Pi_j lap u - Lw u_h||^2_T)^(1/2),
  using that the weak Laplacian of a smooth field is the P_j projection of
  its Laplacian;
* broken H2 error ||u - u_h||_{2,h} with h-weighted edge jump terms, in
  which the traces of the smooth field cancel;
* the plain L2 error of the cell-interior part.

The first reads Pi_j lap u from the operators (``op.moments``); the others
build rules and tables per shape, evaluate u per cell (``on_cells``) and
apply the tables per cell (``per_cell``).  The edge terms of the second are
coefficient norms in the orthonormal edge basis, the projections of u_h0
onto it formed by one per-shape matrix each.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import dim_pk, from_legendre, legendre_laplacian
from .mesh import cell_stacks
from .weakop import (
    WeakFunction,
    apply_weak_laplacian,
    cell_rule_degree,
    cell_tables,
    edge_rule_degree,
    edge_tables,
    element_operators,
    local_dofs,
    on_cells,
    per_cell,
)


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


def _zeros(p):
    return np.zeros(len(p))


# u = 0: each error functional of a weak function against it is its norm.
ZERO = ExactSolution("zero", u=_zeros, grad=lambda p: np.zeros((len(p), 2)),
                     laplacian=_zeros, source=_zeros)


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


def error_triple(exact: ExactSolution, u_h: WeakFunction, mesh, k, j, ops=None):
    """Energy-norm error via the projected-Laplacian identity.

    ``ops`` is the list from ``element_operators(mesh, k, j)``, built here
    when not given; given, each operator's own P_j degree ``op.j`` is used
    and ``j`` is not read.  Pi_j lap u is taken in the operator's
    orthonormal basis, so its coefficients are the moments of lap u, formed
    against the Legendre products and mapped by R^-T.
    """
    if ops is None:
        ops = element_operators(mesh, k, j)
    flat = u_h.flat()
    total = 0.0
    for op in ops:
        moments = op.moments(exact.laplacian, dim_pk(op.j))
        diff = (from_legendre(op.r[op.stack.shapes[1]], moments[..., None])[..., 0]
                - apply_weak_laplacian(op, flat[local_dofs(mesh, op.stack, k)]))
        total += float(np.sum(diff * diff))
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
    for stack in cell_stacks(mesh):
        ref, of = stack.shapes
        c0 = u_h.v0[stack.cells]
        h_t = stack.diameter
        rule, vals = cell_tables(ref, k, cell_rule_degree(k + 2))
        lap_h = vals @ legendre_laplacian(k) / (0.25 * ref.diameter[:, None, None] ** 2)
        lap = on_cells(exact.laplacian, stack, rule) - per_cell(lap_h, of, c0)
        t_lap = np.sum(rule.weights[of] * lap * lap, axis=-1)

        # v_b, v_n and, on a straight edge, grad u_h0 . n lie in P_{k-1}(e),
        # so both edge terms are coefficient norms in the orthonormal edge
        # basis: ||u_hb - Qb(u_h0)||^2 and ||sigma u_hn - Qb(grad u_h0 . n)||^2.
        erule, chi, vk, grad_n = edge_tables(ref, k, k, edge_rule_degree(k, k + 2))
        wchi = (erule.weights[..., None] * chi).swapaxes(-1, -2)
        qb, qn = ((wchi @ t).reshape(len(vk), -1, vk.shape[-1]) for t in (vk, grad_n))
        nc = len(stack.cells)
        jump = u_h.vb[stack.edges].reshape(nc, -1) - per_cell(qb, of, c0)
        flux = ((stack.sigma[..., None] * u_h.vn[stack.edges]).reshape(nc, -1)
                - per_cell(qn, of, c0))
        total += float(np.sum(t_lap + np.sum(jump * jump, axis=1) / h_t**3
                              + np.sum(flux * flux, axis=1) / h_t))
    return math.sqrt(total)


def error_l2(exact: ExactSolution, u_h: WeakFunction, mesh):
    """|| u - u0 ||_{L2} by cell quadrature."""
    k = u_h.k
    total = 0.0
    for stack in cell_stacks(mesh):
        ref, of = stack.shapes
        rule, vals = cell_tables(ref, k, cell_rule_degree(k + 2))
        diff = on_cells(exact.u, stack, rule) - per_cell(vals, of, u_h.v0[stack.cells])
        total += float(np.sum(rule.weights[of] * diff * diff))
    return math.sqrt(total)
