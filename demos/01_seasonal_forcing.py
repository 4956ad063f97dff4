"""A tour of the seasonal forcing functions and the fungicide control signal.

The cultivation year is normalised to t in [0, 1].  Three seasonal forcings
drive the within-host model: the inhibition forcing pushes the inhibition
rate towards its ceiling, the growth forcing grows the berry towards its
inhibition-limited capacity, and the rot forcing converts inhibition into
rotten volume.  All three share the same seasonal shape
b*(1 - cos(c*t))*(t - d)^2 and vanish at t = 0, 0.2, 0.4, ... and at the
peak time d = 0.75.

Run:  python demos/01_seasonal_forcing.py
"""

import numpy as np

from anthobs import ParameterSet
from anthobs import forcing as F
from anthobs.svgplot import line_plot

p = ParameterSet()
t = np.linspace(0.0, 1.0, 1001)

# every forcing takes one time or, as here, an array of times
u = F.control(t, p)
w = F.inhibition_weight(t, p)
alpha = F.inhibition_forcing(t, p)
beta_clean = F.growth_forcing(t, 0.0, p)
beta_sick = F.growth_forcing(t, 0.9, p)

print("Control signal u(t): treatment burst centred near t=0.4-0.6")
print(f"  max u = {u.max():.4f} at t = {t[u.argmax()]:.3f}")
print(f"  weight w = 1/(1-sigma*u) ranges over [{w.min():.3f}, {w.max():.3f}]")
print(f"  (a full-effort treatment could push w up to 1/(1-sigma) = {1/(1-p.sigma):.0f})")
print()
print("Inhibition forcing alpha(t):")
print(f"  max alpha = {alpha.max():.3f}, integral ~ {np.trapezoid(alpha, t):.3f}")
print(f"  zeros on the sampled grid: {[round(float(x), 3) for x in t[alpha < 1e-9]]}")
print()
print("Growth forcing beta(t, theta) is damped by the inhibition rate:")
print(f"  beta at theta=0.0 peaks at {beta_clean.max():.3f}")
print(f"  beta at theta=0.9 peaks at {beta_sick.max():.3f} "
      f"({beta_sick.max() / beta_clean.max():.2%} of the healthy level)")

line_plot(
    "forcing_landscape.svg", t,
    [("control u", u), ("alpha", alpha / alpha.max()),
     ("beta (theta=0)", beta_clean / beta_clean.max())],
    "Seasonal forcings over one cultivation year (normalised amplitudes)",
    "t (fraction of the year)", "normalised value")
print()
print("Wrote forcing_landscape.svg")
