"""Smoke test of ``tools/bit_diff.py``, the bit-identity check of two trees.

The full dump covers every recorded ``cold_sum``, ``warm_grid``,
``entropy_ladder`` and ``cli_tabulated`` input, three cells that reach the
adaptive quadrature and the CLI's help and usage errors, and takes a few
seconds per tree.  Here the tool runs this tree against itself on the first
input of each recorded file, grid pair kind, adaptive, re-plan and panel
cell, the records of the first two are checked for coverage, the grid
cells at 0.2 um and 3 K are shown to interpolate and to reach the
Chebyshev screens, the re-plan cells to plan more than once, the panel
cells to integrate their certified first panel, and ``compare`` is
shown a moved term, value and error, and a term that moved alone, with its
largest change relative to the value; with ``--rel``, terms and values
moved within and past the tolerance, and counts, errors and CLI output
that must still match exactly.  The work counts are shown summed per
record kind, and a difference in them reported without failing.  The
split of one kind's time is replayed in this process on two inputs, with
the census and every wrap put back after the pass, and runs on this tree
alone and on two trees in rounds that alternate their order, each tree in
a process of its own; a wrapped generator, ``chebyshev._certify``, is
timed over its own resumes, not the requests it yields.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bit_diff", ROOT / "tools" / "bit_diff.py")
bit_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_diff)


def test_a_tree_against_itself_differs_nowhere(capsys):
    assert bit_diff.main([str(ROOT), str(ROOT), "--limit", "1"]) == 0
    *work, last = capsys.readouterr().out.splitlines()
    assert last == "0 of 49 records differ"
    kinds = [line.split(":")[0] for line in work]
    assert {"work cold_sum", "work grid Au-Au", "work replan Au-Au"} <= set(kinds)
    assert all(line.endswith("; new the same") for line in work)

    def figure(name):  # the old tree's count of ``name`` per kind
        return {kind: int(line.split(f" {name}")[0].rsplit(" ", 1)[1].replace(",", ""))
                for kind, line in zip(kinds, work)}
    # the adaptive calls: some on an adaptive cell, none on a recorded input
    adaptive = figure("adaptive calls")
    assert adaptive["work adaptive Au-Au"] > 0 and adaptive["work cold_sum"] == 0
    # the bound ends the blocks, plans and panels of every sum
    assert figure("bound evaluations")["work cold_sum"] > 0


@pytest.fixture(scope="module")
def records():
    return dict(bit_diff.records(limit=2))


def test_records_cover_every_kind(records):
    recorded = {key.split(" #")[0] for key in records if " #" in key}
    assert recorded == {f"{w}-{s}" for w in ("cold_sum", "warm_grid", "entropy_ladder",
                                             "cli_tabulated") for s in (0, 1)}
    grid = {key.split(" a=")[0] for key in records if key.startswith("grid ")}
    assert len(grid) == 14 and {"grid Au-Au copies", "grid Au-Al bg", "grid Au bg copies",
                                "grid tabulated-Cu", "grid tabulated-bg both"} < grid
    # the vacuum pair's all-zero result; a grid cell with ideal and finite modes
    assert records["grid vacuum-Au a=20.0 T=300.0 P"]["n_terms_used"] == 0
    assert records["grid ideal-below-Au a=20.0 T=3.0 F"]["n_terms_used"] > 5
    assert not any("error" in fields for fields in records.values())
    # the two first adaptive cells, which send modes to the adaptive quadrature
    assert [key for key in records if key.startswith("adaptive ")] == [
        "adaptive Au-Au a=0.16 T=10.0 F", "adaptive Au-Au a=0.3 T=5.0 F"]
    # the two converging sums that plan past 32,768 modes
    assert {key: fields["n_terms_used"] for key, fields in records.items()
            if key.startswith("replan ")} == {"replan Au-Au a=0.16 T=0.5 P": 42923,
                                              "replan Au-Al a=0.16 T=0.5 F": 39442}
    # the two sums that stop inside their first Chebyshev panel
    assert {key: fields["n_terms_used"] for key, fields in records.items()
            if key.startswith("panel ")} == {"panel weak-weak a=1.0 T=1.0 P": 210,
                                             "panel weak-weak a=1.0 T=1.0 F": 193}
    kk = records["cli_tabulated-1 #1 kk 1"]
    assert kk["exit"] == 0 and kk["stdout"] == "wrote 421 rows to WORKDIR/eps1.csv\n"
    assert bit_diff.base64.b64decode(kk["table"]).startswith(b"zeta_rad_s,eps_izeta\r\n")
    # every help and usage record, with its stderr
    usage = {key: fields for key, fields in records.items() if key.startswith("usage ")}
    assert len(usage) == len(bit_diff.USAGE) == 8
    assert usage["usage casimir kk --help"]["stdout"].startswith("usage: casimir kk [-h]")
    assert usage["usage casimir sweep --format json"] == {
        "exit": 3, "stdout": "", "stderr": "error: unrecognized arguments: --format json\n"}


@pytest.mark.parametrize("name, n_terms", [("P", 5890), ("F", 5331)])
def test_the_grid_cells_at_0_2_um_and_3_k_interpolate(name, n_terms, monkeypatch):
    # there the sums run past the first Chebyshev panels, so the two
    # analytic pair kinds reach the screens: the panel that holds mode 1500
    # is ideal at some samples and integrated, and the NaN at mode 3000 lies
    # in a certified panel, which is integrated and fails
    import casimir
    from casimir import chebyshev

    certified, certify = [], chebyshev._certify

    def spy(panels, *args):
        out = yield from certify(panels, *args)
        certified.append({lo for lo, (_, coeffs) in out.items() if coeffs is not None})
        return out
    monkeypatch.setattr(chebyshev, "_certify", spy)
    fn = {"P": casimir.casimir_pressure, "F": casimir.free_energy}[name]
    geom, models = casimir.Geometry(0.2, 3.0), bit_diff._models(casimir)
    assert bit_diff._evaluate(casimir, fn, geom, *models["Au-Au"])["n_terms_used"] == n_terms
    assert "error" not in bit_diff._evaluate(casimir, fn, geom, *models["ideal-to-1500-Au"])
    error = bit_diff._evaluate(casimir, fn, geom, *models["nan-at-3000-Au"])["error"]
    assert error.startswith("QuadratureError: mode integral m=3000 not certified")
    au, ideal_to, nan_at = certified
    assert 1025 in au and 1025 not in ideal_to and {129, 257, 513, 2049} <= ideal_to
    assert nan_at == au


def test_the_replan_cells_plan_more_than_once():
    import casimir

    counts, _, restore = bit_diff.install()
    db = casimir.MaterialDatabase.builtin()
    fns = {"P": casimir.casimir_pressure, "F": casimir.free_energy}
    try:
        for name, labels, a_um, T_K in bit_diff.REPLAN:
            counts[:] = [0] * len(bit_diff.WORK)
            models = [casimir.DrudeModel(db.get(label)) for label in labels]
            assert "error" not in bit_diff._evaluate(casimir, fns[name],
                                                     casimir.Geometry(a_um, T_K), *models)
            assert counts[0] > 1 and counts[1] > 0, labels  # integer-mode and sample plans
    finally:
        restore()


@pytest.mark.parametrize("name, kind", bit_diff.PANEL)
def test_the_panel_cells_integrate_their_certified_first_panel(name, kind, monkeypatch, deadline):
    # the panel 129-256 is certified; the weak metal's sums stop inside it
    # and the screen rejects the panel ideal at mode 150, so both integrate it
    import casimir
    from casimir import chebyshev, lifshitz

    certified, certify = [], chebyshev._certify

    def spy(panels, *args):
        out = yield from certify(panels, *args)
        certified.append({lo for lo, (_, coeffs) in out.items() if coeffs is not None})
        return out
    screened, screen = [], lifshitz._screen

    def panel_screen(eps):
        out = screen(eps)
        if eps[0].ndim == 1:  # a certified panel's modes, not sample rows
            screened.append(bool(out))
        return out
    monkeypatch.setattr(chebyshev, "_certify", spy)
    monkeypatch.setattr(lifshitz, "_screen", panel_screen)
    fn = {"P": casimir.casimir_pressure, "F": casimir.free_energy}[name]
    with deadline(30):
        fields = bit_diff._evaluate(casimir, fn, casimir.Geometry(1.0, 1.0),
                                    *bit_diff._panel_pairs(casimir)[kind])
    n_terms = {("P", "weak-weak"): 210, ("F", "weak-weak"): 193}.get((name, kind), 4007)
    assert "error" not in fields and fields["n_terms_used"] == n_terms
    (got,) = certified
    assert 129 in got
    if kind == "weak-weak":
        assert n_terms <= 256 and screened == []  # the stop, before any screen
    else:
        assert screened[0] is False


def test_work_is_summed_per_kind_and_a_difference_does_not_fail(records, monkeypatch, capsys):
    old = {"cold_sum-0 #0 x": [1, 2, 3, 4000, 5, 0, 7], "cold_sum-1 #0 x": [1, 0, 1, 1, 1, 0, 2],
           "grid Au-Au a=20.0 T=3.0 P": [1, 0, 1, 10, 100, 1, 3], "usage casimir": [0] * 7}
    new = dict(old, **{"grid Au-Au a=20.0 T=3.0 P": [2, 0, 2, 20, 200, 2, 3]})
    assert bit_diff.work_lines(old, new) == [
        "work cold_sum: old 2 + 2 plans, 4 blocks, 4,001 rows, 6 kernel nodes, 0 adaptive calls, "
        "9 bound evaluations; new the same",
        "work grid Au-Au: old 1 + 0 plans, 1 blocks, 10 rows, 100 kernel nodes, 1 adaptive calls, "
        "3 bound evaluations; new 2 + 0 plans, 2 blocks, 20 rows, 200 kernel nodes, "
        "2 adaptive calls, 3 bound evaluations (differs)"]
    monkeypatch.setattr(bit_diff, "dump", lambda tree, limit: (
        records, old if tree.name == "old" else new))
    assert bit_diff.main(["old", "new"]) == 0
    assert capsys.readouterr().out.splitlines()[-2].endswith("(differs)")


def test_compare_names_each_difference(records):
    key = next(key for key in records if key.startswith("cold_sum-0"))
    moved = {k: dict(v) for k, v in records.items()}
    terms = np.frombuffer(bit_diff.base64.b64decode(moved[key]["terms"]), dtype=float).copy()
    terms[3] = np.nextafter(terms[3], 0.0)
    moved[key]["terms"] = bit_diff.base64.b64encode(terms.tobytes()).decode()
    moved[key]["value"] = float.hex(2.0)
    gone = list(records)[-1]
    del moved[gone]
    lines = bit_diff.compare(records, moved)
    assert len(lines) == 2 and lines[1] == f"{gone}: only in old"
    assert lines[0].startswith(f"{key}: value ") and lines[0].endswith(
        f"-> 2.0; 1 of {terms.size} shared terms differ")
    moved[key] = {"error": "QuadratureError: x"}
    assert bit_diff.compare(records, moved)[0].startswith(f"{key}: error None -> QuadratureError")


def moved_term(records, key, factor):
    """A copy of ``records`` with the fourth term of ``key`` scaled by ``factor``."""
    moved = {k: dict(v) for k, v in records.items()}
    terms = np.frombuffer(bit_diff.base64.b64decode(moved[key]["terms"]), dtype=float).copy()
    terms[3] *= factor
    moved[key]["terms"] = bit_diff.base64.b64encode(terms.tobytes()).decode()
    return moved


def test_terms_alone_moved_print_their_largest_change_of_the_value(records):
    # a tiny term that now reads 0: the value and n_terms_used match
    key = next(key for key in records if key.startswith("warm_grid-0"))
    moved = moved_term(records, key, 0.0)
    terms = np.frombuffer(bit_diff.base64.b64decode(records[key]["terms"]), dtype=float)
    change = abs(terms[3]) / abs(float.fromhex(records[key]["value"]))
    line, = bit_diff.compare(records, moved)
    assert line == (f"{key}: 1 of {terms.size} shared terms differ; "
                    f"largest |old - new| {change:.2e} of |value|")
    moved[key]["n_terms_used"] += 1  # then the counts, not the size of the change
    line, = bit_diff.compare(records, moved)
    assert "of |value|" not in line


def test_rel_lets_values_and_terms_move_by_at_most_tol(records):
    key = next(key for key in records if key.startswith("cold_sum-0"))
    moved = moved_term(records, key, 1.0 + 5e-14)
    moved[key]["value"] = (float.fromhex(records[key]["value"]) * (1.0 + 1e-15)).hex()
    assert bit_diff.compare(records, moved, rel=1e-13) == []
    assert len(bit_diff.compare(records, moved)) == 1  # exact without rel
    value, term = bit_diff.deviations(records, moved)["cold_sum"]
    assert 0.0 < value < 2e-15 and 4e-14 < term < 6e-14
    assert bit_diff.deviations(records, moved)["warm_grid"] == (0.0, 0.0)
    line, = bit_diff.compare(records, moved_term(records, key, 1.0 + 1e-12), rel=1e-13)
    assert line.endswith("shared terms differ by more than 1e-13")
    # counts, errors, exit codes and CLI output still match exactly
    cli = "cli_tabulated-1 #1 kk 1"
    for k, name, other in ((key, "n_terms_used", 7), (key, "error", "QuadratureError: x"),
                           (cli, "exit", 1), (cli, "stdout", "x\n"),
                           ("usage casimir", "stderr", "x\n")):
        changed = dict(records[k], **{name: other})
        line, = bit_diff.compare({k: records[k]}, {k: changed}, rel=1.0)
        assert line.startswith(f"{k}: {name} ")


def test_rel_prints_the_largest_deviation_per_kind(records, monkeypatch, capsys):
    key = next(key for key in records if key.startswith("entropy_ladder-1"))
    moved = moved_term(records, key, 1.0 - 5e-14)
    monkeypatch.setattr(bit_diff, "dump", lambda tree, limit: (
        records if tree.name == "old" else moved, {}))
    assert bit_diff.main(["old", "new", "--rel", "1e-13"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"0 of {len(records)} records differ"
    kinds = {line.split(":")[0]: line for line in out[:-1]}
    # the workloads, the grid's pair kinds, the adaptive cells, the re-plan
    # cells' sides, the panel cells' pair, the usage records
    assert len(kinds) == 4 + 14 + 1 + 2 + 1 + 1
    assert kinds["entropy_ladder"].endswith("0.00e+00 of a value, 5.00e-14 of a term")
    assert kinds["grid Au-Au"].endswith("0.00e+00 of a value, 0.00e+00 of a term")
    assert bit_diff.main(["old", "new"]) == 1  # exact by default


def test_split_times_the_parts_of_one_kind_in_this_process():
    # the replayer on the first two seed-0 warm_grid inputs, one pass: the
    # timers count the calls the census counts, and every wrap is gone
    # afterwards
    from casimir import chebyshev, lifshitz, thermo

    before = {(module, name): getattr(module, name) for module, name in (
        (lifshitz, "_plan"), (lifshitz, "_mode_block"), (lifshitz, "_mode_kernel"),
        (lifshitz, "_scan_loop"), (lifshitz, "_scan_arrays"), (chebyshev, "_certify"),
        (chebyshev, "_interpolated"), (lifshitz, "_summed_modes"), (thermo, "_summed_modes"),
        (lifshitz, "integrate_adaptive"), (thermo, "integrate_adaptive"),
        (lifshitz, "_log_bound"))}
    n_records, passes_of = bit_diff._replayer("warm_grid-0", 2)
    best = passes_of(1)
    assert n_records == 2 and list(best["parts"]) == list(bit_diff.PARTS) == [
        "plan", "block set-up", "kernel", "Chebyshev", "scans", "driver"]
    calls = {part: n for part, (_, n) in best["parts"].items()}
    plans, samples, blocks, *_ = best["work"]
    assert calls["plan"] == plans + samples and calls["block set-up"] == calls["kernel"] == blocks
    assert calls["driver"] == 2  # a pump per sum, its generator timed inside it
    assert 0.0 < best["untimed"] and 0.0 < best["rest"] < best["timed"]
    assert {key: getattr(*key) for key in before} == before
    assert bit_diff._selected("warm_grid-0 #1 Au,ideal a=22.3 T=153.9", "warm_grid-0 #1")
    assert not bit_diff._selected("warm_grid-0 #12 Au,ideal a=2.3 T=53.9", "warm_grid-0 #1")
    assert bit_diff._selected("warm_grid-1 #0 x", "warm_grid")
    assert not bit_diff._selected("grid Au-Au copies a=20.0 T=3.0 P", "grid Au-Au")
    with pytest.raises(SystemExit, match="no record of kind 'nothing'"):
        bit_diff._replayer("nothing", 1)


def test_split_times_a_generator_by_its_own_resumes(monkeypatch):
    # chebyshev._certify yields its samples' requests: on a clock that only
    # its sampler (0.25 per degree) and the pump answering it (1.0 per
    # request) move, the Chebyshev part is the sampler's time alone
    import inspect
    import types

    from casimir import chebyshev

    clock = [0.0]
    monkeypatch.setattr(bit_diff, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))

    def sample(ms):
        clock[0] += 0.25
        return (yield ms)
    counts, parts, restore = bit_diff.install(timed=True)
    try:
        assert inspect.isgeneratorfunction(chebyshev._certify)
        steps, out, requests = chebyshev._certify([(513, 1024)], 0.01, sample, 1e-12, 0.0), None, 0
        try:
            while True:
                ms = steps.send(out)
                clock[0] += 1.0
                out, requests = np.exp(-0.02 * ms) / ms, requests + 1
        except StopIteration as done:
            assert done.value[513][1].size == 33  # certified at degree 32
    finally:
        restore()
    assert requests == 2 and parts["Chebyshev"] == [0.5, 1] and clock[0] == 2.5


def test_split_without_a_tree_runs_this_tree_in_a_process_of_its_own(capsys):
    assert bit_diff.main(["--split", "warm_grid-0", "--limit", "2", "--passes", "1"]) == 0
    head, parts, passes, work = capsys.readouterr().out.splitlines()  # no ratio line
    assert head == ("split warm_grid-0: 2 records, median over 1 rounds of the fastest of 1 "
                    "passes, the trees' order alternating, ms (calls)")
    assert all(line.startswith(f"{ROOT}: ") for line in (parts, passes, work))
    *timed, rest = parts.split(": ", 1)[1].split("; ")
    assert [part.rsplit(" ", 2)[0] for part in timed] == list(bit_diff.PARTS)
    assert rest.startswith("rest ") and passes.split(": ", 1)[1].startswith("timed pass ")
    assert work.startswith(f"{ROOT}: work: 2 + 0 plans, 2 blocks, ")


def test_split_on_trees_alternates_their_order_by_round(monkeypatch, capsys):
    # this tree under two names, four passes: two rounds of three, the
    # second in the other order, each tree in a process of its own
    trees, order, answer = [str(ROOT), str(ROOT / "tests" / "..")], [], bit_diff._answer

    def spy(child, tree):
        order.append(str(tree))
        return answer(child, tree)
    monkeypatch.setattr(bit_diff, "_answer", spy)
    assert bit_diff.main([*trees, "--split", "warm_grid-0", "--limit", "2", "--passes", "4"]) == 0
    head, *lines, ratio = capsys.readouterr().out.splitlines()
    a, b = trees
    assert order == [a, b, a, b, b, a]  # the record counts, then the rounds
    assert head == ("split warm_grid-0: 2 records, median over 2 rounds of the fastest of 3 "
                    "passes, the trees' order alternating, ms (calls)")
    assert [line.split(": ")[0] for line in lines] == [a] * 3 + [b] * 3
    parts, passes, work = (line.split(": ", 1)[1] for line in lines[:3])
    assert parts.startswith("plan ") and "; rest " in parts and passes.startswith("timed pass ")
    assert work.startswith("work: 2 + 0 plans, 2 blocks") and lines[5] == f"{b}: {work}"
    assert ratio.startswith(f"ratio {b} / {a}: ")
    values = dict(item.rsplit(" ", 1) for item in ratio.split(": ", 1)[1].split("; "))
    assert list(values) == list(bit_diff.PARTS) + [
        "rest", "timed pass", "untimed pass"]
    assert values["Chebyshev"] == "-"  # no Chebyshev work: no ratio
    assert all(0.2 < float(v) < 5.0 for k, v in values.items() if k != "Chebyshev")
