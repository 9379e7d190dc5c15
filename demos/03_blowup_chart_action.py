"""A translation action seen through a blow-up chart: the action is only
rational, its regular locus misses the exceptional fiber, the time-one map
has a non-closed graph on the full chart, and a two-chart atlas repairs
everything over the regular locus.
"""

from weilreg.actions import (
    g_regular_locus,
    lift_action,
    make_rational_action,
    restrict_to_regular_locus,
    specialize,
)
from weilreg.atlas import build_atlas, check_atlas
from weilreg.groups import additive_group
from weilreg.maps import is_graph_closed, point_status, rational_map
from weilreg.poly import format_polynomial
from weilreg.varieties import OpenSubset, ProductAmbient, affine_space

G = additive_group("s")
X = affine_space(["u", "t"])
P = ProductAmbient(G.variety, X)

# pull the translation (x, y) -> (x + s, y) back through the chart x = u, y = u*t
action = make_rational_action(G, X, rational_map(P.variety, X, ("u+s", "u*t/(u+s)")))

print("== the lifted product map and its conjugated inverse")
forward, backward = lift_action(action)
print("forward :", [repr(f) for f in forward.reps[0]])
print("backward:", [repr(f) for f in backward.reps[0]])

print()
print("== the regular locus excludes the exceptional fiber")
reg = g_regular_locus(action)
print("bad ideal:", [X.format(g) for g in reg.bad_ideals[0].gens])
print("regular locus witnesses:", [X.format(w) for w in reg.locus.witnesses])

print()
print("== the time-one map: defined off u = -1, graph not closed")
rho1 = specialize(action, (1,))
print("rho_1 =", [repr(f) for f in rho1.reps[0]])
print("status at (-1, 0):", point_status(rho1, (-1, 0)))
closed, witness = is_graph_closed(rho1)
print("graph closed on the full chart:", closed)
print("limit-point witness:", [format_polynomial(g, ['u', 't', "u'", "t'"]) for g in witness.gens])
host = OpenSubset(X, [X.poly("u")])
closed_after, _ = is_graph_closed(rho1, host)
print("graph closed after removing u = 0:", closed_after)

print()
print("== a two-chart atlas over the regular locus")
restricted = restrict_to_regular_locus(action)
atlas = build_atlas(restricted, [(0,), (1,)])
for (i, j), tau in sorted(atlas.transitions.items()):
    print(f"transition {i} -> {j}:", [repr(f) for f in tau.reps[0]])
report = check_atlas(atlas)
for name in ("symmetry", "cocycle", "separated", "covering"):
    print(f"{name}: {'pass' if getattr(report, name)['passed'] else 'fail'}")
print("the glued object carries a regular action of the whole group")

print()
print("== the same atlas on the full chart fails separatedness")
full_report = check_atlas(build_atlas(action, [(0,), (1,)]))
print("separated:", "pass" if full_report.separated["passed"] else "fail")
for (i, j), w in sorted(full_report.separated["witnesses"].items()):
    print(f"  witness for charts {i},{j}:",
          [format_polynomial(g, ['u', 't', "u'", "t'"]) for g in w.gens])
