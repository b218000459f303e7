"""Output checks that do not use the package's jet code.

Two kinds of oracle:

* analytic: the D-type constant, feasibility, the restricted interval, the
  closed-form synthesized coefficients, curve classes, sample skips and
  grid defects, all from closed formulas evaluated with ``math``;
* recorded: numeric fingerprints of the OBJ/CSV outputs and selected
  summary fields, recorded from the seed commit by ``record_reference.py``
  into ``reference.json`` for every input the workloads can produce.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from workloads import VERIFY_SAMPLES, Task

TWO_PI = 2.0 * math.pi
ROOT3_2 = math.sqrt(3.0) / 2.0
SQRT26 = math.sqrt(26.0)
EPS_KAPPA = 1e-9
MAX_INTERP_ERROR = 1e-9
RTOL = 1e-7
ATOL = 1e-9

CONTROLS = {
    "example1": (1.0, 1.0, 1.0),
    "example1b": (0.2, 1.0 / 3.0, 1.0),
    "example2": (1.0, 1.0, 1.0),
    "example2b": (1.0, 15.0, 5.0),
    "example3": (1.0, 1.0, 1.0),
    "example3b": (10.0, 0.2, 1.0),
    "example4": (1.0, 1.0, 1.0),
    "example4b": (-0.1, -0.1, 1.0),
    "example4b_alt": (-0.1, -0.1, -1.0),
}
FAMILY = {
    "example1": "circle", "example1b": "circle",
    "example2": "helix", "example2b": "helix",
    "example3": "eight", "example3b": "eight",
    "example4": "salkowski", "example4b": "salkowski", "example4b_alt": "salkowski",
}
DOMAIN = {
    "circle": (-TWO_PI, TWO_PI),
    "helix": (-TWO_PI, TWO_PI),
    "eight": (0.0, TWO_PI),
    "salkowski": (0.0, TWO_PI),
}
UNIT_SPEED = {"circle": True, "helix": True, "eight": False, "salkowski": False}
CLASSES = {
    "circle": ("Planar", 0.0),
    "helix": ("GeneralHelix", 1.0),  # tau / kappa
    "eight": ("Planar", 0.0),
    "salkowski": ("Salkowski", 1.0),  # kappa
}


def linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def command_tol(family: str) -> float:
    return 1e-8 if UNIT_SPEED[family] else 1e-6


# -- analytic geometry -------------------------------------------------------


def _eight_kappa(q: float) -> float:
    """Curvature of (sin q, sin q cos q, 0)."""
    d1x, d1y = math.cos(q), math.cos(2.0 * q)
    d2x, d2y = -math.sin(q), -2.0 * math.sin(2.0 * q)
    return abs(d1x * d2y - d1y * d2x) / math.hypot(d1x, d1y) ** 3


def explicit_inner(preset: str, q: float) -> float | None:
    """<n, W0> at (q, t0) for an explicit preset; None where it is undefined.

    At t = t0 the marching scale vanishes, so dP/ds = rho T and
    dP/dt = x l U' T + A N + B B with A = y m V', B = z n W'.  Hence
    n = (A B - B N) / hypot(A, B), and <n, W0> = (kappa / |D|) A / hypot(A, B)
    with |D| = sqrt(kappa^2 + tau^2).
    """
    _, y, z = CONTROLS[preset]
    family = FAMILY[preset]
    if family == "circle":  # kappa = 1, tau = 0; V' = sqrt(3)/2, W' = 1/2
        ratio, a, b = 1.0, y * ROOT3_2, z * 0.5
    elif family == "helix":  # kappa = tau = 1/2; V' = W' = sqrt(2)/2
        ratio, a, b = 1.0 / math.sqrt(2.0), y * math.sqrt(0.5), z * math.sqrt(0.5)
    elif family == "eight":  # planar; m, n share the speed as denominator
        if _eight_kappa(q) <= EPS_KAPPA:
            return None
        speed = math.sqrt(4.0 * math.cos(q) ** 4 - 3.0 * math.cos(q) ** 2 + 1.0)
        ratio, a, b = 1.0, y * ROOT3_2 / speed, z * 0.5 / speed
    else:  # Salkowski: kappa = 1, tau = tan(q / sqrt(26))
        h = q / SQRT26
        radicand = 1.0 - 3.0 * math.tan(h) ** 2
        if radicand <= 0.0:  # sqrt in n(q) is undefined, or not differentiable
            return None
        ratio = math.cos(h)
        a = y * (math.sqrt(78.0) / 10.0) / math.cos(h) ** 2
        b = z * (SQRT26 / 10.0) * math.sqrt(radicand) / math.cos(h)
    return ratio * a / math.hypot(a, b)


def explicit_verify(preset: str, samples: int = VERIFY_SAMPLES) -> dict:
    """What ``verify_dtype`` must report for an explicit preset."""
    family = FAMILY[preset]
    values = [explicit_inner(preset, q) for q in linspace(*DOMAIN[family], samples)]
    usable = [v for v in values if v is not None]
    mean = math.fsum(usable) / len(usable)
    max_dev = max(abs(v - mean) for v in usable)
    tol = command_tol(family)
    return {"c_estimate": mean, "max_deviation": max_dev,
            "skipped_samples": len(values) - len(usable),
            "verdict": max_dev <= tol, "tol": tol}


def explicit_defects(preset: str, ns: int, nt: int) -> int:
    """Grid vertices without a frame or marching scale: whole columns."""
    family = FAMILY[preset]
    cols = linspace(*DOMAIN[family], ns)
    return nt * sum(1 for s in cols if explicit_inner(preset, s) is None)


def feasible_end(family: str, c: float) -> float | None:
    """End of the feasible interval when it is a proper part of the domain.

    Feasibility is c^2 (kappa^2 + tau^2) <= kappa^2.  Only the Salkowski
    curve restricts: sec(q / sqrt(26)) <= 1 / |c| gives q <= sqrt(26) acos|c|.
    """
    if family != "salkowski":
        return None
    end = SQRT26 * math.acos(abs(c))
    return end if end < DOMAIN[family][1] else None


def is_feasible(family: str, c: float) -> bool:
    """Whether some parameter strictly satisfies the feasibility bound."""
    if family == "helix":  # kappa = tau
        return 2.0 * c * c < 1.0
    return abs(c) < 1.0  # planar curves; Salkowski at q = 0 has tau = 0


def closed_form_coefficients(family: str, c: float, sign: int) -> tuple[float, float]:
    """(a_v, a_w) of v = a_v t, w = a_w t for unit-speed constant-frame curves."""
    ratio = 1.0 if family == "circle" else math.sqrt(2.0)  # |D| / kappa
    return c * ratio, sign * math.sqrt(1.0 - c * c * ratio * ratio)


# -- recorded fingerprints ---------------------------------------------------

_BLOCKS = 8


def fingerprint(rows: list[list[float]]) -> dict:
    """Per-block, per-column sums, position-weighted sums and |x| sums."""
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    blocks = []
    for b in range(_BLOCKS):
        chunk = rows[b * n // _BLOCKS:(b + 1) * n // _BLOCKS]
        cols = []
        for j in range(ncols):
            xs = [r[j] for r in chunk]
            cols.append([
                _round(math.fsum(xs)),
                _round(math.fsum(x * (k + 1) / len(xs) for k, x in enumerate(xs))),
                _round(math.fsum(abs(x) for x in xs)),
            ])
        blocks.append(cols)
    return {"rows": n, "blocks": blocks}


def _round(x: float) -> float:
    return float(f"{x:.12g}")


def compare_fingerprint(got: dict, ref: dict, what: str) -> list[str]:
    if got["rows"] != ref["rows"]:
        return [f"{what}: {got['rows']} rows, reference has {ref['rows']}"]
    problems = []
    for b, (gb, rb) in enumerate(zip(got["blocks"], ref["blocks"])):
        for j, (gc, rc) in enumerate(zip(gb, rb)):
            tol = RTOL * max(gc[2], rc[2]) + ATOL
            if any(abs(g - r) > tol for g, r in zip(gc[:2], rc[:2])):
                problems.append(f"{what}: block {b} column {j} differs from reference "
                                f"({gc[:2]} vs {rc[:2]})")
    return problems


def compare_values(got, ref, what: str) -> list[str]:
    """Exact for ints, strings and bools; RTOL/ATOL for floats; recursive."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{what}: fields {sorted(got) if isinstance(got, dict) else got} "
                    f"!= reference {sorted(ref)}"]
        out = []
        for k in ref:
            out += compare_values(got[k], ref[k], f"{what}.{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{what}: {got!r} != reference {ref!r}"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += compare_values(g, r, f"{what}[{i}]")
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - ref) <= ATOL + RTOL * abs(ref):
            return []
    elif got == ref and type(got) is type(ref):
        return []
    return [f"{what}: {got!r} != reference {ref!r}"]


# -- output files ------------------------------------------------------------


def parse_obj(text: str) -> tuple[list, list, list[str]]:
    verts, normals, faces = [], [], []
    for line in text.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "v":
            verts.append([float(x) for x in rest.split()])
        elif tag == "vn":
            normals.append([float(x) for x in rest.split()])
        elif tag == "f":
            faces.append(line)
    return verts, normals, faces


def expected_faces(ns: int, nt: int) -> list[str]:
    out = []
    for i in range(ns - 1):
        for j in range(nt - 1):
            a = i * nt + j + 1
            b, c, d = a + nt, a + nt + 1, a + 1
            out.append(f"f {a}//{a} {b}//{b} {c}//{c} {d}//{d}")
    return out


def check_obj(text: str, ns: int, nt: int) -> tuple[dict, list[str]]:
    verts, normals, faces = parse_obj(text)
    problems = []
    if len(verts) != ns * nt or len(normals) != ns * nt:
        problems.append(f"obj: {len(verts)} v / {len(normals)} vn lines, expected {ns * nt}")
    if faces != expected_faces(ns, nt):
        problems.append(f"obj: faces differ from the {(ns - 1) * (nt - 1)} expected quads")
    return {"v": fingerprint(verts), "vn": fingerprint(normals)}, problems


def check_csv(text: str, summary: dict) -> tuple[dict, list[str]]:
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != "s,inner,phi2,phi3,theta":
        return {}, ["csv: missing header"]
    rows, tail = [], {}
    for line in lines[1:]:
        head, _, rest = line.partition(",")
        if head in ("c_estimate", "max_deviation"):
            tail[head] = float(rest)
        else:
            rows.append([float(head)] + [float(x) for x in rest.split(",")])
    usable = VERIFY_SAMPLES - summary["skipped_samples"]
    if len(rows) != usable:
        problems.append(f"csv: {len(rows)} sample rows, summary implies {usable}")
    for k in ("c_estimate", "max_deviation"):
        if k not in tail or abs(tail[k] - summary[k]) > 1e-11 * (1.0 + abs(summary[k])):
            problems.append(f"csv: {k} row {tail.get(k)!r} != summary {summary[k]!r}")
    return {"rows": fingerprint(rows)}, problems


# -- per-command checks ------------------------------------------------------

_COEFF = re.compile(r"^(-?[0-9.]+(?:e[+-]?[0-9]+)?)\*t$")


def _close(got, want: float, tol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def _check_interval(got, start: float, end: float, what: str) -> list[str]:
    if (not isinstance(got, list) or len(got) != 2
            or not _close(got[0], start, 1e-7) or not _close(got[1], end, 1e-7)):
        return [f"{what}: {got!r}, analytic [{start!r}, {end!r}]"]
    return []


def _check_restriction(task: Task, note, what: str) -> list[str]:
    """The feasibility note of build/verify (or synthesize's extra fields)."""
    end = feasible_end(task.scene, task.c)
    if end is None:
        return [] if note is None else [f"{what}: unexpected restriction {note!r}"]
    if not isinstance(note, dict):
        return [f"{what}: missing restriction to [0, {end!r}]"]
    intervals = note.get("feasible_domain")
    if not isinstance(intervals, list) or len(intervals) != 1:
        return [f"{what}: feasible_domain {intervals!r}, analytic [[0, {end!r}]]"]
    margin = 1e-6 * end
    return (_check_interval(intervals[0], 0.0, end, f"{what}.feasible_domain")
            + _check_interval(note.get("restricted_to"), margin, end - margin,
                              f"{what}.restricted_to"))


def expected_exit(task: Task) -> int:
    """3 for an infeasible target, else 0: the workloads verify only
    synthesized configs, which meet their target."""
    if task.synthesized and task.command != "classify" and not is_feasible(task.scene, task.c):
        return 3
    return 0


def observe(task: Task, stdout: str, out_dir: Path, cfg: dict) -> tuple[dict, list[str]]:
    """Analytic checks of one successful command, plus the observation
    that is compared against (or recorded as) its reference."""
    obs: dict = {}
    problems: list[str] = []
    if task.command == "classify":
        summary = json.loads(stdout)
        kind, constant = CLASSES[task.scene]
        if summary.get("kind") != kind or not _close(summary.get("constant"), constant, 1e-6):
            problems.append(f"classify: {summary.get('kind')} {summary.get('constant')!r}, "
                            f"analytic {kind} {constant!r}")
        obs["summary"] = {"skipped_samples": summary.get("skipped_samples")}
        return obs, problems
    if task.command == "synthesize":
        return _observe_synthesize(task, json.loads(stdout))

    summary = json.loads(stdout)
    obs["summary"] = {k: summary.get(k) for k in ("c_estimate", "max_deviation", "skipped_samples")}
    family = FAMILY[task.preset]
    tol = command_tol(family)
    if task.synthesized:
        want = {"c_estimate": task.c, "verdict": True}
        problems += _check_restriction(task, summary.get("feasibility"), "feasibility")
    else:
        want = explicit_verify(task.preset)
        if not _close(summary.get("max_deviation"), want["max_deviation"], tol):
            problems.append(f"max_deviation {summary.get('max_deviation')!r}, "
                            f"analytic {want['max_deviation']!r}")
        if summary.get("skipped_samples") != want["skipped_samples"]:
            problems.append(f"skipped_samples {summary.get('skipped_samples')!r}, "
                            f"analytic {want['skipped_samples']}")
    if not _close(summary.get("c_estimate"), want["c_estimate"], tol):
        problems.append(f"c_estimate {summary.get('c_estimate')!r}, "
                        f"expected {want['c_estimate']!r} at tol {tol:g}")
    if summary.get("verdict") is not want["verdict"]:
        problems.append(f"verdict {summary.get('verdict')!r}, expected {want['verdict']!r}")

    csv_path = out_dir / cfg["outputs"]["csv_path"]
    obs["csv"], more = check_csv(csv_path.read_text(encoding="ascii"), summary)
    problems += more
    if task.command == "build":
        ns, nt = task.shape
        if summary.get("vertices") != ns * nt or summary.get("faces") != (ns - 1) * (nt - 1):
            problems.append(f"build: {summary.get('vertices')} vertices / "
                            f"{summary.get('faces')} faces for a {ns}x{nt} grid")
        if not task.synthesized:
            defects = explicit_defects(task.preset, ns, nt)
            if summary.get("defect_count") != defects:
                problems.append(f"defect_count {summary.get('defect_count')!r}, analytic {defects}")
        obs["summary"]["defect_count"] = summary.get("defect_count")
        obj_path = out_dir / cfg["outputs"]["obj_path"]
        obs["obj"], more = check_obj(obj_path.read_text(encoding="ascii"), ns, nt)
        problems += more
    return obs, problems


def _observe_synthesize(task: Task, out: dict) -> tuple[dict, list[str]]:
    problems = []
    block = out.get("marching", {})
    if block.get("c") != task.c or block.get("sign") != task.sign:
        problems.append(f"synthesize: target {block.get('c')!r}/{block.get('sign')!r} "
                        f"!= config {task.c!r}/{task.sign}")
    end = feasible_end(task.scene, task.c)
    if end is None:
        if "feasible_domain" in out:
            problems.append(f"synthesize: unexpected feasible_domain {out['feasible_domain']!r}")
    else:
        note = {"feasible_domain": out.get("feasible_domain"),
                "restricted_to": out.get("curve", {}).get("range")}
        problems += _check_restriction(task, note, "synthesize")
    if task.scene in ("circle", "helix"):
        if block.get("mode") != "explicit":
            return {}, problems + [f"synthesize: mode {block.get('mode')!r}, expected closed form"]
        want = closed_form_coefficients(task.scene, task.c, task.sign)
        for name, w in zip(("V", "W"), want):
            m = _COEFF.match(block.get("explicit", {}).get(name, ""))
            if not m or abs(float(m.group(1)) - w) > 1e-12 * (1.0 + abs(w)):
                problems.append(f"synthesize: {name} = {block.get('explicit', {}).get(name)!r}, "
                                f"analytic {w!r}*t")
        return {"summary": {}}, problems
    table = block.get("table")
    if block.get("mode") != "synthesized" or not isinstance(table, dict):
        return {}, problems + [f"synthesize: mode {block.get('mode')!r}, expected a table"]
    if not table.get("max_interp_error", 1.0) <= MAX_INTERP_ERROR:
        problems.append(f"synthesize: max_interp_error {table.get('max_interp_error')!r} "
                        f"above {MAX_INTERP_ERROR:g}")
    return {"summary": {"nodes": table.get("nodes"), "excluded": table.get("excluded")}}, problems


def check(task: Task, rc: int, stdout: str, out_dir: Path, cfg: dict,
          reference: dict | None) -> list[str]:
    """Every check of one command; ``reference`` None skips the recorded ones."""
    want_rc = expected_exit(task)
    if rc != want_rc:
        return [f"exit {rc}, expected {want_rc}"]
    ref = None
    if reference is not None:
        ref = reference.get(task.key)
        if ref is None:
            return [f"no reference output for {task.key}"]
        if ref["exit"] != rc:
            return [f"exit {rc}, reference {ref['exit']}"]
    if rc == 3:
        return [] if not stdout.strip() else ["exit 3 with output on stdout"]
    obs, problems = observe(task, stdout, out_dir, cfg)
    if ref is None:
        return problems
    problems += compare_values(obs.get("summary"), ref.get("summary"), "summary")
    for part in ("obj", "csv"):
        for name, fp in ref.get(part, {}).items():
            problems += compare_fingerprint(obs[part][name], fp, f"{part}.{name}")
    return problems

