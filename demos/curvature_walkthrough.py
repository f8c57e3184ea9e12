"""Walk one Randers metric through the whole curvature stack.

The metric lives on the unit ball, has vanishing flag curvature and
vanishing S-curvature, yet is not of Douglas type; every quantity
printed below is exact to rounding (truncated Taylor series
differentiation, no finite differences anywhere).
"""

import numpy as np

from finslerlab import GeometryState, get_example
from finslerlab.curvature import (
    berwald_curvature,
    connections,
    distortion,
    douglas_tensor,
    mean_berwald,
    riemann,
    s_curvature,
    spray,
)

np.set_printoptions(precision=6, suppress=True)

entry = get_example("randers_osaka")
x = (0.25, -0.1, 0.3)
y = (0.6, -0.3, 0.74)
state = GeometryState(entry.metric, entry.volume, x, y)

print("metric :", entry.metric.name)
print("point  :", x)
print("flag   :", y)
print("F(x,y) = %.6f" % entry.metric.F(list(x), list(y)))
print()

print("spray coefficients G^i:")
print(" ", spray(state).components)

N, Gamma = connections(state)
print("nonlinear connection N^i_j:")
print(N.components)

R = riemann(state)
print("Riemann curvature R^i_k (flat: everything ~1e-16):")
print(R.components)

print("Berwald curvature max |B| = %.3e (not Berwald)"
      % np.abs(berwald_curvature(state).components).max())
print("mean Berwald      max |E| = %.3e (weakly Berwald)"
      % np.abs(mean_berwald(state).components).max())
print("S-curvature            S  = %.3e (vanishes for the BH volume)"
      % s_curvature(state))
print("distortion            tau = %.6f" % distortion(state))

D = douglas_tensor(state)
print("Douglas tensor    max |D| = %.6f (NOT a Douglas metric)"
      % np.abs(D.components).max())
