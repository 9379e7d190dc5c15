"""Driving the toolkit through the session language, in-process.

The same sessions run from the command line:  weilreg run <file> --format text
"""

from weilreg.sessions import emit_report, format_session, parse_session, run_session

SOURCE = """\
# the blow-up chart action and its diagnostics
var s u t
variety X = affine(u, t)
group G = Ga(s)
action rho : G x X -> X = (u+s, u*t/(u+s))
cmd xreg rho
cmd closedgraph rho at (1)
cmd closedgraph rho at (1) xreg
cmd atlas rho S=(0, 1) xreg
"""

statements = parse_session(SOURCE)
print("== canonical form of the session")
print(format_session(statements))

records = run_session(statements, session_name="demo")
print("== text report")
print(emit_report(records, fmt="text"))

print("== the regular-locus record, as JSON payload")
xreg_record = next(r for r in records if r["command"] == "cmd xreg rho")
print(emit_report([xreg_record], session="demo"))
