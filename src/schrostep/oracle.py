"""Independent finite-difference reference solution.

A Crank-Nicolson scheme on a large Dirichlet box, deliberately sharing no
code with the contour solvers: second-order centred differences in space,
trapezoidal rule in time, potential sampled pointwise (interface nodes get
the average of the two adjacent levels).  The two outermost interior nodes
are monitored; if the wave packet reaches the artificial boundary above
1e-6 in amplitude the run aborts, because reflections would contaminate
the comparison.
"""

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import splu

__all__ = ["crank_nicolson", "free_gaussian", "ground_state"]


def free_gaussian(x, t, center=0.0, width=1.0, momentum=0.0, amplitude=1.0):
    """Exact free evolution of amplitude*exp(-((x-c)/w)^2)*exp(i mu x)."""
    x = np.asarray(x, dtype=float)
    w2 = width * width
    spread = w2 + 4j * t
    drift = x - center - 2.0 * momentum * t
    phase = np.exp(1j * momentum * (x - momentum * t))
    return amplitude * phase * np.exp(-drift * drift / spread) / np.sqrt(1.0 + 4j * t / w2)


def _sample_potential(potential, x, dx):
    v = np.empty(x.shape, dtype=float)
    for i, xi in enumerate(x):
        hit = None
        for xj in potential.interfaces:
            if abs(xi - xj) < 1e-9 * max(1.0, abs(xj)) + 1e-300:
                hit = xj
                break
        if hit is not None:
            j = potential.region_of(hit - 0.25 * dx)
            v[i] = 0.5 * (potential.level(j) + potential.level(j + 1))
        else:
            v[i] = potential.level(potential.region_of(xi))
    return v


def cn_evolve(psi_interior, v_interior, dx, dt, nsteps):
    """Advance the interior nodes of a Dirichlet Crank-Nicolson scheme.

    Solves (I + i dt H / 2) psi_new = (I - i dt H / 2) psi_old with
    H = -D2 + diag(v) for `nsteps` steps.  The constant tridiagonal matrix
    is factored once with scipy's sparse LU and back-substituted every step.
    Returns (psi, bmax) where bmax is the largest amplitude seen at the two
    outermost interior nodes, the domain-truncation monitor.
    """
    psi = np.array(psi_interior, dtype=complex)
    v = np.asarray(v_interior, dtype=float)
    h = 0.5j * dt
    dplus = 1.0 + h * (2.0 / dx ** 2 + v)
    dminus = 1.0 - h * (2.0 / dx ** 2 + v)
    coff = complex(-h / dx ** 2)
    moff = -coff
    off = np.full(psi.shape[0] - 1, coff, dtype=complex)
    lu = splu(diags([off, dplus, off], [-1, 0, 1], format="csc"))
    bmax = 0.0
    for _ in range(int(nsteps)):
        rhs = dminus * psi
        rhs[:-1] += moff * psi[1:]
        rhs[1:] += moff * psi[:-1]
        psi = lu.solve(rhs)
        bmax = max(bmax, abs(psi[0]), abs(psi[-1]))
    return psi, bmax


def crank_nicolson(ic, potential, t_checkpoints, x_eval=None,
                   L=20.0, dx=2e-3, dt=2.5e-4, boundary_tol=1e-5):
    """Evolve the initial data and report the solution at checkpoint times.

    t_checkpoints must be strictly increasing and positive.  Returns
    (values, info): values has shape (len(t_checkpoints), len(x_eval)) when
    x_eval is given, otherwise (len(t_checkpoints), nx) on the full grid
    (info["x"] holds the grid).  info["bmax"] is the boundary monitor; runs
    whose boundary amplitude exceeds boundary_tol abort.  The default
    tolerates the high-wavenumber discretisation dust a potential jump
    injects (amplitude a few 1e-6) while still catching a wave packet
    actually reaching the wall.
    """
    ts = [float(t) for t in t_checkpoints]
    if any(t <= 0.0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("checkpoint times must be positive and increasing")
    n_half = int(round(L / dx))
    x = (np.arange(2 * n_half + 1) - n_half) * dx
    v = _sample_potential(potential, x, dx)
    psi = ic.evaluate(x).astype(complex)
    psi[0] = 0.0
    psi[-1] = 0.0
    interior = slice(1, -1)
    cur = psi[interior].copy()
    vint = v[interior]
    out = []
    bmax = 0.0
    t_prev = 0.0
    for t_next in ts:
        span = t_next - t_prev
        nsteps = max(1, int(np.ceil(span / dt - 1e-12)))
        dt_eff = span / nsteps
        cur, b = cn_evolve(cur, vint, dx, dt_eff, nsteps)
        bmax = max(bmax, b)
        full = np.zeros(x.shape, dtype=complex)
        full[interior] = cur
        out.append(full)
        t_prev = t_next
    if bmax > boundary_tol:
        raise RuntimeError(
            "oracle domain too small: boundary amplitude reached {:.3e}, "
            "increase L beyond {}".format(bmax, L))
    info = {"x": x, "bmax": bmax, "dx": dx, "dt": dt}
    grid = np.array(out)
    if x_eval is None:
        return grid, info
    x_eval = np.asarray(x_eval, dtype=float)
    vals = np.empty((len(ts), x_eval.size), dtype=complex)
    for i in range(len(ts)):
        vals[i] = np.interp(x_eval, x, grid[i].real) + \
            1j * np.interp(x_eval, x, grid[i].imag)
    return vals, info


def ground_state(potential, L=14.0, dx=2e-3):
    """Lowest finite-difference eigenpair of -D2 + alpha(x) on [-L, L].

    Returns (energy, x, phi) with phi normalised to unit discrete L2 norm.
    Independent route: scipy's tridiagonal eigensolver, no time stepping.
    """
    from scipy.linalg import eigh_tridiagonal

    n_half = int(round(L / dx))
    x = (np.arange(2 * n_half + 1) - n_half) * dx
    v = _sample_potential(potential, x, dx)
    xi = x[1:-1]
    d = 2.0 / dx ** 2 + v[1:-1]
    e = np.full(xi.size - 1, -1.0 / dx ** 2)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    phi = np.zeros(x.shape)
    phi[1:-1] = vecs[:, 0]
    phi /= np.sqrt(np.sum(phi ** 2) * dx)
    return float(vals[0]), x, phi
