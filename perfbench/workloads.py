"""The benchmark workloads and the correctness gate on their CSVs.

Every workload is a fixed ``RunConfig`` of ``nondivfem.bench``; the
reference rows in ``reference/<name>.csv`` were written by the same study
at the commit that introduced the benchmark.  This module imports neither
numpy nor nondivfem, so the parent process stays light.
"""

from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Why each workload is here: the layer it stresses and the change it guards.
WORKLOADS = {
    # the paper's main scheme; eps ~ 0.105 switches eta1 on, so S is assembled
    "uniform-cg-p2": dict(experiment="exp1", params={"kappa": 0.9}, degree=2,
                          scheme="recovery-cg", levels=5, initial_n=4),
    # many small meshes: the only workload that marks and bisects; eps = 1, no S
    "adaptive-exp2-p2": dict(experiment="exp2", params={"alpha": 1.5}, degree=2,
                             scheme="recovery-cg", refinement="adaptive", theta=0.9,
                             max_dofs=15000, initial_n=4),
    # interior-facet C_ij assembly of the DG recovery; CG-only changes bypass it
    "uniform-dg-exp3-p2": dict(experiment="exp3", degree=2, scheme="recovery-dg",
                               levels=4, initial_n=8),
}

# solve_problem's default, which adaptive_loop uses and does not check
MAX_ITER = 500
RTOL = 1e-6
CLOSE_COLUMNS = ("h_max", "L2_error", "H1_error", "H2h_error", "Eta_global")


def parse_csv(text):
    """Rows of a harness CSV as dicts; empty fields become None."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        toks = ln.split(",")
        if len(toks) != len(header):
            raise ValueError("row has %d fields, header %d" % (len(toks), len(header)))
        rows.append({h: (None if t == "" else float(t)) for h, t in zip(header, toks)})
    return header, rows


def reference_text(name):
    return (REFERENCE_DIR / (name + ".csv")).read_text()


def check(csv_text, ref_text, converged=True):
    """Reasons why a study's CSV fails the gate; empty when it passes.

    Ndofs must match exactly, the error and estimator columns to RTOL, and
    every level must have converged: ``converged`` is the study's own flag
    and every ``iterations`` entry must stay below MAX_ITER.
    """
    problems = []
    if not converged:
        problems.append("a level did not converge")
    try:
        header, rows = parse_csv(csv_text)
    except ValueError as exc:
        return problems + ["unreadable CSV: %s" % exc]
    ref_header, ref_rows = parse_csv(ref_text)
    if header != ref_header:
        return problems + ["header %s differs from the reference" % header]
    if len(rows) != len(ref_rows):
        return problems + ["%d levels, reference has %d" % (len(rows), len(ref_rows))]
    for level, (row, ref) in enumerate(zip(rows, ref_rows)):
        if row["Ndofs"] != ref["Ndofs"]:
            problems.append("level %d: Ndofs %s != %s" % (level, row["Ndofs"], ref["Ndofs"]))
        for col in CLOSE_COLUMNS:
            got, want = row[col], ref[col]
            if (got is None) != (want is None) or (
                    want is not None and not abs(got - want) <= RTOL * abs(want)):
                problems.append("level %d: %s %r, reference %r" % (level, col, got, want))
        its = row["iterations"]
        if its is None or its >= MAX_ITER:
            problems.append("level %d: GMRES iterations %s reach max_iter" % (level, its))
    return problems
