"""
Exact auditing of a finite mechanism table
==========================================

Any mechanism on finite spaces is just a row-stochastic matrix, so
its true privacy level is computable: maximize
(ln P[x -> y] - ln P[z -> y]) / dist(x, z) over all pairs and
outputs.  Utility is audited the same way.
"""

import numpy as np

from metricdp import (
    ExpMechParams,
    MechanismTable,
    audit_privacy,
    audit_utility,
    grid_space,
    identity_map,
    privacy_bound,
    tabulate,
    uniform_measure,
)

space = grid_space(3)
params = ExpMechParams(base=uniform_measure(space), beta=1.0, query=identity_map(space))
mech = tabulate(params)

rep = audit_privacy(mech, include_per_pair=True)
print("audited epsilon:", rep.epsilon_max)
print("attained at (x, z, y):", rep.witness)
print("theory ceiling 2*C*beta:", privacy_bound(1.0, 1.0))
print("per-pair matrix:")
print(np.round(rep.per_pair_max, 4))

urep = audit_utility(mech, identity_map(space), 0.5)
print("\nutility at gamma=0.5: worst in-ball mass", round(urep.min_mass, 6),
      "at input", urep.worst_input)

# The audit is not tied to mechanisms built here: any table can be
# checked.  This hand-written one leaks everything on one output.
leaky = MechanismTable(space, space, [
    [0.98, 0.01, 0.01],
    [0.01, 0.98, 0.01],
    [0.50, 0.25, 0.25],
])
lrep = audit_privacy(leaky)
print("\nhand-written table epsilon:", round(lrep.epsilon_max, 4),
      "witness", lrep.witness)

# A deterministic table has zero-probability outputs, so some log
# ratio is infinite and no finite epsilon works.
det = MechanismTable(space, space, np.eye(3))
print("deterministic table epsilon:", audit_privacy(det).epsilon_max)
