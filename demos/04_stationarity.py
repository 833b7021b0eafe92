"""Near-identity evolutions: how fast the environment forgets.

Steps generated by exp(i*eta*H) with a random Hermitian H drive the
environment towards the maximally mixed state.  The transfer gap scales as
eta^2, so halving eta roughly quadruples the transient; redrawing H at
every step (the time-dependent mode) mixes somewhat faster than reusing a
fixed H.  The ensemble summary is written as CSV.
"""

import numpy as np

import pptlab as pl
from pptlab.tensor_ops import transfer_left

seeds = list(range(10))
points = [0, 10, 30, 100, 300, 1000, 3000]

for eta in (0.02, 0.01):
    rows = pl.fig_s2_experiment(2, 2, eta, n_max=3000, seeds=seeds, sample_points=points)
    print(f"eta={eta} (fixed H): median infidelity to I/D")
    for n, mean, median, q25, q75 in rows:
        print(f"  n={n:5d}: {median:.3e}  [{q25:.3e}, {q75:.3e}]")

rows_fresh = pl.fig_s2_experiment(
    2, 2, 0.01, n_max=3000, seeds=seeds, time_dependent=True, sample_points=points
)
print("eta=0.01 (fresh H each step): median infidelity")
for n, mean, median, q25, q75 in rows_fresh:
    print(f"  n={n:5d}: {median:.3e}")

csv_text = pl.fig_s2_csv(rows_fresh)
with open("stationarity_fresh_h.csv", "w", encoding="ascii") as fh:
    fh.write(csv_text)
print("wrote stationarity_fresh_h.csv")

# The spectral gap explains the time scale: it grows like 2.2 * eta^2.  The
# columns of the 4 x 4 matrix of the transfer map are its images of the four
# matrix units.
units = np.eye(4).reshape(4, 2, 2)
for eta in (0.005, 0.01, 0.02):
    gaps = []
    for seed in seeds:
        site = pl.site_tensor_from_unitary(pl.near_identity_unitary(4, eta, seed), 2, 2)
        lmat = np.stack([transfer_left(e, site, site).reshape(-1) for e in units], axis=1)
        ev = np.sort(np.abs(np.linalg.eigvals(lmat)))[::-1]
        gaps.append(1 - ev[1])
    print(f"eta={eta}: median transfer gap {np.median(gaps):.3e} "
          f"({np.median(gaps) / eta**2:.2f} * eta^2)")
