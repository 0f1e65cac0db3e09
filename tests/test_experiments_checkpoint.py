"""Tests for crash-safe study checkpoints and ``run_study(..., resume=True)``.

The guarantees under test: every completed scenario is durably appended; an
interrupted study resumes without recomputing or duplicating completed
scenario IDs; a torn trailing line (the crash artefact) is tolerated; a
failed scenario leaves the previously completed scenarios' records intact.
"""

from __future__ import annotations

import json
import shutil
import warnings
from pathlib import Path

import pytest

from repro.errors import SimulationError, SpecError
from repro.experiments import (
    PolicySpec,
    ScenarioSpec,
    StudyCheckpoint,
    StudyResult,
    StudySpec,
    WorkloadSpec,
    register_policy,
    run_study,
)
import repro.experiments.study as study_mod


@register_policy("ckpt-tuple-param")
def _tuple_param_policy(ways=(1, 2)):
    """Fixture policy whose params carry a tuple (JSON-normalization test)."""
    from repro.policies import LfocPolicy

    assert isinstance(ways, (tuple, list))
    return LfocPolicy()


def two_scenario_spec(name="ckpt") -> StudySpec:
    return StudySpec(
        name=name,
        scenarios=(
            ScenarioSpec(
                name="first",
                kind="static",
                workloads=(WorkloadSpec(suite="s", names=("S1",)),),
                policies=(PolicySpec("lfoc"),),
            ),
            ScenarioSpec(
                name="second",
                kind="static",
                workloads=(WorkloadSpec(suite="s", names=("S2",)),),
                policies=(PolicySpec("dunn"),),
            ),
        ),
    )


def truncate_after_first_scenario(path) -> None:
    """Simulate a crash: keep the header + scenario 'first' only."""
    kept = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            kept.append(line)
            if record.get("record") == "scenario_end":
                break
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(kept)


class ExplodingPolicy:
    """Static policy that fails deterministically (fault-path fixture)."""

    name = "Exploding"

    def allocate(self, profiles, platform):
        raise SimulationError("boom: allocate refused")


class TestCheckpointWriting:
    def test_checkpoint_file_is_a_loadable_result_store(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        result = run_study(two_scenario_spec(), checkpoint=path)
        reloaded = StudyResult.load(path)
        assert reloaded.scenario_ids() == result.scenario_ids() == ["first", "second"]
        assert reloaded.rows() == result.rows()
        # Every scenario is closed by its durable end marker.
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["record"] for r in records if r["record"] == "scenario_end"] == [
            "scenario_end",
            "scenario_end",
        ]

    def test_save_and_checkpoint_formats_are_interchangeable(self, tmp_path):
        saved = tmp_path / "saved.jsonl"
        result = run_study(two_scenario_spec())
        result.save(saved)
        _header, completed = StudyCheckpoint(saved).load_completed()
        assert sorted(completed) == ["first", "second"]
        assert StudyResult.load(saved).rows() == result.rows()

    def test_fresh_run_truncates_stale_checkpoint(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"record": "study", "name": "stale", "spec": null}\n')
        run_study(two_scenario_spec(), checkpoint=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["name"] == "ckpt"  # overwritten, not appended


class TestResume:
    def test_resume_skips_completed_scenarios(self, tmp_path, monkeypatch):
        path = tmp_path / "rows.jsonl"
        spec = two_scenario_spec()
        full = run_study(spec, checkpoint=path)
        truncate_after_first_scenario(path)

        executed = []
        original = study_mod._run_scenario

        def counting(scenario, seed, executor):
            executed.append(scenario.scenario_id(seed))
            return original(scenario, seed, executor)

        monkeypatch.setattr(study_mod, "_run_scenario", counting)
        resumed = run_study(spec, checkpoint=path, resume=True)
        # Only the missing scenario was recomputed; no IDs were duplicated.
        assert executed == ["second"]
        assert resumed.scenario_ids() == ["first", "second"]
        assert len(set(resumed.scenario_ids())) == len(resumed.scenario_ids())
        assert resumed.rows() == full.rows()
        # The checkpoint now holds the full study again.
        assert StudyResult.load(path).rows() == full.rows()

    def test_resume_tolerates_torn_trailing_line(self, tmp_path, monkeypatch):
        path = tmp_path / "rows.jsonl"
        spec = two_scenario_spec()
        full = run_study(spec, checkpoint=path)
        truncate_after_first_scenario(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "scenario", "scenario": "sec')  # torn write
        executed = []
        original = study_mod._run_scenario

        def counting(scenario, seed, executor):
            executed.append(scenario.scenario_id(seed))
            return original(scenario, seed, executor)

        monkeypatch.setattr(study_mod, "_run_scenario", counting)
        resumed = run_study(spec, checkpoint=path, resume=True)
        assert executed == ["second"]
        assert resumed.rows() == full.rows()
        # The torn line was truncated before appending: the resumed
        # checkpoint is valid JSONL end to end.
        assert StudyResult.load(path).rows() == full.rows()

    def test_resume_truncates_unfinished_scenario_records(self, tmp_path):
        """Crash after a scenario's records but before its end marker.

        The partial records must be truncated and the scenario recomputed
        exactly once — no duplicate scenario records, no stale partial rows.
        """
        path = tmp_path / "rows.jsonl"
        spec = two_scenario_spec()
        full = run_study(spec, checkpoint=path)
        # Keep everything up to (and including) scenario 'second''s records
        # but drop its end marker: a crash at a clean line boundary.
        lines = path.read_text().splitlines(keepends=True)
        last = json.loads(lines[-1])
        assert (last["record"], last["scenario_id"]) == ("scenario_end", "second")
        path.write_text("".join(lines[:-1]))
        resumed = run_study(spec, checkpoint=path, resume=True)
        assert resumed.scenario_ids() == ["first", "second"]
        assert resumed.rows() == full.rows()
        reloaded = StudyResult.load(path)
        assert reloaded.scenario_ids() == ["first", "second"]  # no duplicates
        assert reloaded.rows() == full.rows()  # no stale partial rows

    def test_scenario_without_end_marker_is_recomputed(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        spec = two_scenario_spec()
        run_study(spec, checkpoint=path)
        # Drop the final end marker: scenario 'second' becomes incomplete.
        lines = path.read_text().splitlines(keepends=True)
        assert json.loads(lines[-1])["record"] == "scenario_end"
        path.write_text("".join(lines[:-1]))
        _header, completed = StudyCheckpoint(path).load_completed()
        assert sorted(completed) == ["first"]

    def test_resume_rejects_changed_scenario_definitions(self, tmp_path):
        """Rows computed under an old spec must never seed a resumed run."""
        path = tmp_path / "rows.jsonl"
        run_study(two_scenario_spec(), checkpoint=path)
        changed = two_scenario_spec()
        changed = StudySpec(
            name=changed.name,
            scenarios=(
                changed.scenarios[0],
                ScenarioSpec(
                    name="second",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S3",)),),  # edited
                    policies=(PolicySpec("dunn"),),
                ),
            ),
        )
        with pytest.raises(SpecError, match="scenario definitions"):
            run_study(changed, checkpoint=path, resume=True)

    def test_resume_refuses_checkpoint_with_removed_solver_backend(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint written when solver tables carried 'backend' is stale.

        Its recorded scenarios no longer equal the current definitions, so a
        resume must refuse it with the named error (never reuse its rows or
        trip over the key), while ``StudyResult.load`` still reads the rows.
        """
        path = tmp_path / "rows.jsonl"
        spec = two_scenario_spec()
        run_study(spec, checkpoint=path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        # That older version stamped no CRC on the header.
        del header["crc"]
        for scenario in header["spec"]["scenarios"]:
            scenario["solver"] = {"backend": "tabulated", **scenario["solver"]}
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))

        loaded = StudyResult.load(path)
        assert loaded.spec["scenarios"][0]["solver"]["backend"] == "tabulated"
        assert loaded.rows() == run_study(spec).rows()

        executed = []
        monkeypatch.setattr(
            study_mod, "_run_scenario", lambda *args: executed.append(args)
        )
        with pytest.raises(SpecError, match="written for a different version"):
            run_study(spec, checkpoint=path, resume=True)
        assert executed == []

    def test_resume_from_current_save_format_recomputes_nothing(
        self, tmp_path, monkeypatch
    ):
        """A result saved by StudyResult.save seeds a resume directly."""
        path = tmp_path / "rows.jsonl"
        spec = two_scenario_spec()
        full = run_study(spec)
        full.save(path)
        executed = []
        original = study_mod._run_scenario

        def counting(scenario, seed, executor):
            executed.append(scenario.scenario_id(seed))
            return original(scenario, seed, executor)

        monkeypatch.setattr(study_mod, "_run_scenario", counting)
        resumed = run_study(spec, checkpoint=path, resume=True)
        assert executed == []
        assert resumed.rows() == full.rows()

    def test_resume_refuses_marker_free_legacy_files(self, tmp_path):
        """Pre-checkpoint files fail loudly instead of being truncated away."""
        path = tmp_path / "rows.jsonl"
        spec = two_scenario_spec()
        run_study(spec).save(path)
        # Strip every scenario_end marker: the pre-checkpoint save format.
        lines = [
            line
            for line in path.read_text().splitlines(keepends=True)
            if json.loads(line).get("record") != "scenario_end"
        ]
        legacy_text = "".join(lines)
        path.write_text(legacy_text)
        with pytest.raises(SpecError, match="predates the checkpoint format"):
            run_study(spec, checkpoint=path, resume=True)
        # Refused means untouched: no data was destroyed.
        assert path.read_text() == legacy_text

    def test_append_repairs_missing_trailing_newline(self, tmp_path):
        """A write cut one byte short must not weld two records together."""
        path = tmp_path / "rows.jsonl"
        spec = two_scenario_spec()
        full = run_study(spec, checkpoint=path)
        truncate_after_first_scenario(path)
        # Cut the final newline: the last record is valid JSON but
        # unterminated, exactly what a one-byte-short write leaves behind.
        path.write_text(path.read_text().rstrip("\n"))
        resumed = run_study(spec, checkpoint=path, resume=True)
        assert resumed.rows() == full.rows()
        assert StudyResult.load(path).rows() == full.rows()

    def test_resume_with_nothing_completed_refreshes_the_header(
        self, tmp_path, monkeypatch
    ):
        """Crash before any scenario finished + edited spec: the resumed
        run must record the spec it actually executed, and a further resume
        of it must succeed without recomputation."""
        path = tmp_path / "rows.jsonl"
        original_spec = two_scenario_spec()
        run_study(original_spec, checkpoint=path)
        # Keep only the header: a crash during the very first scenario.
        header_line = path.read_text().splitlines(keepends=True)[0]
        path.write_text(header_line)
        edited = StudySpec(
            name=original_spec.name,
            scenarios=(
                original_spec.scenarios[0],
                ScenarioSpec(
                    name="second",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S3",)),),
                    policies=(PolicySpec("dunn"),),
                ),
            ),
        )
        # Legal: nothing completed yet, so the edited spec may resume...
        first = run_study(edited, checkpoint=path, resume=True)
        # ...and the header now records the edited spec, so resuming the
        # finished checkpoint with the same spec is clean and recomputes
        # nothing.
        executed = []
        original = study_mod._run_scenario

        def counting(scenario, seed, executor):
            executed.append(scenario.scenario_id(seed))
            return original(scenario, seed, executor)

        monkeypatch.setattr(study_mod, "_run_scenario", counting)
        again = run_study(edited, checkpoint=path, resume=True)
        assert executed == []
        assert again.rows() == first.rows()
        assert StudyResult.load(path).spec == edited.to_dict()

    def test_resume_accepts_tuple_valued_params(self, tmp_path, monkeypatch):
        """Tuples JSON-serialize as lists; identical specs must not be
        rejected just because the in-memory side still holds tuples."""
        spec = StudySpec(
            name="tuples",
            scenarios=(
                ScenarioSpec(
                    name="first",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S1",)),),
                    policies=(
                        PolicySpec(
                            "ckpt-tuple-param", params={"ways": (3, 4)}, label="T"
                        ),
                    ),
                ),
                ScenarioSpec(
                    name="second",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S2",)),),
                    policies=(PolicySpec("lfoc"),),
                ),
            ),
        )
        path = tmp_path / "rows.jsonl"
        full = run_study(spec, checkpoint=path)
        truncate_after_first_scenario(path)
        executed = []
        original = study_mod._run_scenario

        def counting(scenario, seed, executor):
            executed.append(scenario.scenario_id(seed))
            return original(scenario, seed, executor)

        monkeypatch.setattr(study_mod, "_run_scenario", counting)
        resumed = run_study(spec, checkpoint=path, resume=True)
        assert executed == ["second"]
        assert resumed.rows() == full.rows()

    def test_load_refuses_interrupted_checkpoints(self, tmp_path):
        """An interrupted checkpoint must not silently load partial rows."""
        path = tmp_path / "rows.jsonl"
        run_study(two_scenario_spec(), checkpoint=path)
        # Cut the last scenario's end marker: interrupted mid-scenario.
        lines = path.read_text().splitlines(keepends=True)
        assert json.loads(lines[-1])["record"] == "scenario_end"
        path.write_text("".join(lines[:-1]))
        with pytest.raises(SpecError, match="never completed"):
            StudyResult.load(path)
        # Plain save() files (no checkpoint flag) keep their lenient load.
        saved = tmp_path / "saved.jsonl"
        result = run_study(two_scenario_spec())
        result.save(saved)
        assert StudyResult.load(saved).rows() == result.rows()

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        run_study(two_scenario_spec(name="original"), checkpoint=path)
        with pytest.raises(SpecError, match="belongs to study"):
            run_study(two_scenario_spec(name="other"), checkpoint=path, resume=True)

    def test_resume_refuses_unverifiable_inline_specs(self, tmp_path):
        """Inline components leave no serialized spec to compare against,
        so completed scenarios could be silently stale — refuse loudly."""

        class InlinePolicy:
            name = "Inline"

            def allocate(self, profiles, platform):
                from repro.policies import LfocPolicy

                return LfocPolicy().allocate(profiles, platform)

        def inline_spec():
            return StudySpec(
                name="inline-resume",
                scenarios=(
                    ScenarioSpec(
                        name="s",
                        kind="static",
                        workloads=(WorkloadSpec(suite="s", names=("S1",)),),
                        policies=(PolicySpec.inline(InlinePolicy(), label="inl"),),
                    ),
                ),
            )

        path = tmp_path / "rows.jsonl"
        run_study(inline_spec(), checkpoint=path)
        with pytest.raises(SpecError, match="inline"):
            run_study(inline_spec(), checkpoint=path, resume=True)

    def test_resume_without_existing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        result = run_study(two_scenario_spec(), checkpoint=path, resume=True)
        assert result.scenario_ids() == ["first", "second"]
        assert StudyResult.load(path).rows() == result.rows()


class TestTruncationFuzz:
    """Crash-at-every-byte fuzz of the checkpoint resume path.

    A crash can cut the file at *any* byte, not just at line boundaries.
    For every possible truncation point of a valid two-scenario checkpoint,
    resuming must (a) report exactly the scenarios whose durable end marker
    survived — never a duplicate, never a dropped completed ID, always a
    prefix of the completion order — and (b) after the repair-and-append
    cycle, produce a checkpoint whose rows equal the uninterrupted study's.

    The per-offset cycle drives the :class:`StudyCheckpoint` API directly
    (``load_completed`` -> ``start(fresh=False)`` -> ``append`` of the
    missing scenarios) so the whole sweep stays fast; a bounded set of
    representative offsets additionally goes through the full
    ``run_study(..., resume=True)`` integration below.
    """

    def _full_checkpoint(self, tmp_path):
        path = tmp_path / "full.jsonl"
        result = run_study(two_scenario_spec(), checkpoint=path)
        data = path.read_bytes()
        header, completed = StudyCheckpoint(path).load_completed()
        assert sorted(completed) == ["first", "second"]
        return result, data, header, completed

    def test_every_byte_truncation_resumes_cleanly(self, tmp_path):
        full, data, header, scenarios = self._full_checkpoint(tmp_path)
        # End-marker byte offsets define which scenarios must survive a cut.
        marker_ends = []
        offset = 0
        for line in data.decode("utf-8").splitlines(keepends=True):
            offset += len(line.encode("utf-8"))
            record = json.loads(line)
            if record.get("record") == "scenario_end":
                marker_ends.append((offset, record["scenario_id"]))
        completion_order = [scenario_id for _, scenario_id in marker_ends]
        assert completion_order == ["first", "second"]

        path = tmp_path / "cut.jsonl"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            checkpoint = StudyCheckpoint(path)
            recovered_header, completed = checkpoint.load_completed()
            # A marker survives once its JSON content is fully on disk; the
            # trailing newline is optional (the lenient reader parses an
            # unterminated-but-complete final line, and append() repairs the
            # missing newline before writing more records).
            expected = [
                scenario_id for end, scenario_id in marker_ends if cut >= end - 1
            ]
            recovered = list(completed)
            # Never a duplicate, never a dropped completed ID, and always a
            # prefix of the completion order.
            assert recovered == expected, f"cut at byte {cut}"
            # Repair the file and append what a resumed study would rerun.
            checkpoint.start(
                name=header.get("name", "ckpt"),
                description=header.get("description", ""),
                spec=header.get("spec"),
                fresh=False,
            )
            for scenario_id in completion_order:
                if scenario_id not in completed:
                    checkpoint.append(scenarios[scenario_id])
            reloaded = StudyResult.load(path)
            assert reloaded.scenario_ids() == ["first", "second"], f"byte {cut}"
            assert reloaded.rows() == full.rows(), f"byte {cut}"

    def test_representative_truncations_through_run_study(self, tmp_path):
        """Full resume integration at crash points of every flavour."""
        full, data, _header, _scenarios = self._full_checkpoint(tmp_path)
        text = data.decode("utf-8")
        first_line_end = text.index("\n") + 1
        first_marker_end = text.index('"record": "scenario_end"')
        first_marker_end = text.index("\n", first_marker_end) + 1
        offsets = {
            0,  # nothing on disk
            first_line_end - 3,  # torn header
            first_line_end,  # header only
            first_line_end + 17,  # torn first scenario record
            first_marker_end - 2,  # torn first end marker
            first_marker_end,  # exactly one completed scenario
            len(data) - 3,  # torn second end marker
            len(data),  # clean file: nothing to recompute
        }
        spec = two_scenario_spec()
        path = tmp_path / "resume.jsonl"
        for cut in sorted(offsets):
            path.write_bytes(data[:cut])
            resumed = run_study(spec, checkpoint=path, resume=True)
            ids = resumed.scenario_ids()
            assert ids == ["first", "second"], f"cut at byte {cut}"
            assert len(set(ids)) == len(ids), f"cut at byte {cut}"
            assert resumed.rows() == full.rows(), f"cut at byte {cut}"
            assert StudyResult.load(path).rows() == full.rows(), f"cut at byte {cut}"


class TestFaultPaths:
    def test_failed_scenario_keeps_prior_checkpoint_records(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        spec = StudySpec(
            name="faulty",
            scenarios=(
                ScenarioSpec(
                    name="good",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S1",)),),
                    policies=(PolicySpec("lfoc"),),
                ),
                ScenarioSpec(
                    name="bad",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S2",)),),
                    policies=(PolicySpec.inline(ExplodingPolicy(), label="expl"),),
                ),
            ),
        )
        # The failure names the scenario that died...
        with pytest.raises(SimulationError, match="'bad'"):
            run_study(spec, checkpoint=path)
        # ...and the completed scenario's records survive for a resume.
        _header, completed = StudyCheckpoint(path).load_completed()
        assert sorted(completed) == ["good"]
        rows = completed["good"].rows
        assert rows and all(row["scenario_id"] == "good" for row in rows)


def corrupt_first_row(path) -> int:
    """Flip a row value in place without touching its CRC; returns the line no."""
    lines = path.read_text().splitlines()
    for line_no, line in enumerate(lines, start=1):
        record = json.loads(line)
        if record.get("record") == "row":
            record["stp"] = record.get("stp", 0.0) + 1.0  # silent bit rot
            lines[line_no - 1] = json.dumps(record)
            path.write_text("\n".join(lines) + "\n")
            return line_no
    raise AssertionError("no row record found")


class TestRecordCRC:
    """Per-line checksums: corruption of durably-written rows is detected."""

    def test_rows_and_failures_carry_checksums(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        run_study(two_scenario_spec(), checkpoint=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        rows = [r for r in records if r["record"] == "row"]
        assert rows and all(isinstance(r["crc"], int) for r in rows)
        from repro.experiments.checkpoint import record_crc

        for row in rows:
            assert row["crc"] == record_crc(row)

    def test_strict_load_rejects_corrupted_rows(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        run_study(two_scenario_spec(), checkpoint=path)
        corrupt_first_row(path)
        with pytest.raises(SpecError, match="CRC"):
            StudyResult.load(path)

    def test_resume_recomputes_from_the_corrupted_scenario(self, tmp_path):
        """Lenient path: warn, drop the damaged scenario, recompute it."""
        path = tmp_path / "rows.jsonl"
        baseline = run_study(two_scenario_spec(), checkpoint=path)
        corrupt_first_row(path)  # first scenario's first row
        checkpoint = StudyCheckpoint(path)
        with pytest.warns(RuntimeWarning, match="CRC"):
            _header, completed = checkpoint.load_completed()
        assert completed == {}  # nothing after the corruption is trusted
        with pytest.warns(RuntimeWarning, match="CRC"):
            resumed = run_study(
                two_scenario_spec(), checkpoint=path, resume=True
            )
        assert resumed.rows() == baseline.rows()
        # The repaired file is clean again.
        assert StudyResult.load(path).rows() == baseline.rows()

    def test_corruption_after_a_good_scenario_keeps_the_good_one(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        run_study(two_scenario_spec(), checkpoint=path)
        lines = path.read_text().splitlines()
        # Corrupt a row of the *second* scenario only.
        for index in range(len(lines) - 1, -1, -1):
            record = json.loads(lines[index])
            if record.get("record") == "row":
                record["stp"] = record.get("stp", 0.0) + 1.0
                lines[index] = json.dumps(record)
                break
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="CRC"):
            _header, completed = StudyCheckpoint(path).load_completed()
        assert sorted(completed) == ["first"]

    def test_crc_stable_across_write_parse_round_trip(self, tmp_path):
        from repro.experiments.checkpoint import record_crc

        record = {
            "record": "row",
            "scenario_id": "s",
            "stp": 7.437500000000001,
            "label": "αβ",
            "ways": [1, 2],
        }
        record["crc"] = record_crc(record)
        parsed = json.loads(json.dumps(record))
        assert parsed.pop("crc") == record_crc(parsed)


def _checkpoint_lines(tmp_path):
    """A finished two-scenario checkpoint, as a list of its lines."""
    path = tmp_path / "rows.jsonl"
    run_study(two_scenario_spec(), checkpoint=path)
    return path, path.read_text().splitlines(keepends=True)


def _index(lines, kind, scenario_id):
    """Index of the first ``kind`` record of ``scenario_id``."""
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record["record"] == kind and record.get("scenario_id") == scenario_id:
            return index
    raise AssertionError(f"no {kind} record for {scenario_id!r}")


def _second_header(lines):
    at = _index(lines, "scenario", "second")
    return lines[:at] + lines[:1] + lines[at:]


def _duplicated_block(lines):
    start = _index(lines, "scenario", "first")
    return lines + lines[start : _index(lines, "scenario_end", "first") + 1]


def _row_after_its_end(lines):
    at = _index(lines, "scenario_end", "first") + 1
    return lines[:at] + [lines[_index(lines, "row", "first")]] + lines[at:]


def _doubled_end(lines):
    at = _index(lines, "scenario_end", "first") + 1
    return lines[:at] + [lines[at - 1]] + lines[at:]


def _headerless(lines):
    return lines[1:]


MALFORMED_SHAPES = [
    (_second_header, "second study header"),
    (_duplicated_block, "scenario 'first' repeats"),
    (_row_after_its_end, "row record for scenario 'first', which is not the open"),
    (_doubled_end, "scenario_end record for scenario 'first', which is not the open"),
    (_headerless, "'scenario' record before the study header"),
]


class TestOneGrammar:
    """Strict load and resume give one verdict on every malformed study file."""

    @pytest.mark.parametrize("reader", ["load", "resume"])
    @pytest.mark.parametrize(
        "shape, message",
        MALFORMED_SHAPES,
        ids=[shape.__name__ for shape, _ in MALFORMED_SHAPES],
    )
    def test_malformed_files_are_refused_by_both_readers(
        self, tmp_path, monkeypatch, reader, shape, message
    ):
        path, lines = _checkpoint_lines(tmp_path)
        path.write_text("".join(shape(lines)))
        before = path.read_bytes()
        executed = []
        monkeypatch.setattr(
            study_mod, "_run_scenario", lambda *args: executed.append(args)
        )
        with pytest.raises(SpecError, match=message):
            if reader == "load":
                StudyResult.load(path)
            else:
                run_study(two_scenario_spec(), checkpoint=path, resume=True)
        # Refused means untouched, and nothing ran.
        assert path.read_bytes() == before
        assert executed == []

    @pytest.mark.parametrize("reader", ["load", "resume", "tournament"])
    def test_non_utf8_bytes_are_a_located_spec_error(self, tmp_path, reader):
        if reader == "tournament":
            from repro.tournament import TournamentResult

            path = tmp_path / "rows.jsonl"
            _tournament_result().save(path)
            load = TournamentResult.load
        else:
            path, _lines = _checkpoint_lines(tmp_path)
            load = StudyResult.load if reader == "load" else (
                lambda p: StudyCheckpoint(p).load_completed()
            )
        data = path.read_bytes()
        second_line = data.index(b"\n") + 5
        path.write_bytes(data[:second_line] + b"\xff" + data[second_line + 1 :])
        with pytest.raises(SpecError, match=r"rows\.jsonl:2: not valid JSONL"):
            load(path)


def _tournament_result():
    from repro.tournament import StatsSpec, build_result

    rows = [
        {
            "scenario_id": "s",
            "workload": f"W{unit}",
            "policy": policy,
            "normalized_unfairness": value,
            "normalized_stp": 1.0,
        }
        for unit in range(3)
        for policy, value in (("Stock-Linux", 1.0), ("LFOC", 0.8 + unit / 100))
    ]
    failures = [{"label": "x", "scenario_id": "s"}]
    return build_result("t", rows, failures, stats=StatsSpec(resamples=20))


class TestEveryRecordIsSigned:
    def test_study_files_stamp_every_record(self, tmp_path):
        from repro.experiments.checkpoint import record_crc

        checkpoint, _lines = _checkpoint_lines(tmp_path)
        saved = tmp_path / "saved.jsonl"
        StudyResult.load(checkpoint).save(saved)
        for path in (checkpoint, saved):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            assert {r["record"] for r in records} == {
                "study", "scenario", "row", "scenario_end"
            }
            for record in records:
                assert record["crc"] == record_crc(record), record["record"]

    def test_tournament_files_stamp_every_record(self, tmp_path):
        from repro.experiments.checkpoint import record_crc

        path = tmp_path / "verdict.jsonl"
        _tournament_result().save(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["record"] for r in records} == {
            "tournament", "standing", "h2h", "row", "failure"
        }
        for record in records:
            assert record["crc"] == record_crc(record), record["record"]

    @pytest.mark.parametrize("kind", ["scenario", "row", "scenario_end"])
    def test_a_record_without_its_crc_is_refused_in_a_signed_file(self, tmp_path, kind):
        path, lines = _checkpoint_lines(tmp_path)
        at = _index(lines, kind, "second")
        record = json.loads(lines[at])
        del record["crc"]
        lines[at] = json.dumps(record) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(SpecError, match=f":{at + 1}: {kind} record failed its CRC"):
            StudyResult.load(path)
        # The resume path treats it as damage: it keeps 'first' only.
        with pytest.warns(RuntimeWarning, match="CRC"):
            _header, completed = StudyCheckpoint(path).load_completed()
        assert list(completed) == ["first"]

    def test_a_tournament_record_without_its_crc_is_refused(self, tmp_path):
        from repro.tournament import TournamentResult

        path = tmp_path / "verdict.jsonl"
        _tournament_result().save(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record["crc"]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecError, match=":2: standing record failed its CRC"):
            TournamentResult.load(path)

    def test_an_altered_standing_key_in_an_unsigned_tournament_file_is_refused(
        self, tmp_path
    ):
        """Files written before every record carried a CRC are not checked,
        yet a renamed standing field is still a named error."""
        from repro.tournament import TournamentResult

        path = tmp_path / "verdict.jsonl"
        _tournament_result().save(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            del record["crc"]
        records[1]["mean_stq"] = records[1].pop("mean_stp")
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(SpecError, match=":2: malformed standing record"):
            TournamentResult.load(path)


class TestFlipFuzz:
    """Flip every byte of a result file, two ways: no reader is ever fooled.

    Each flipped file either reads back exactly what was written or is
    refused with a :class:`SpecError` — by the strict load, and by the
    resume cycle (``load_completed`` -> ``start(fresh=False)`` -> ``append``
    of the missing scenarios) that ``run_study(..., resume=True)`` runs.
    """

    def test_every_byte_flip_loads_the_original_or_is_refused(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.checkpoint as checkpoint_mod

        # The sweep makes thousands of appends; durability is not under test.
        monkeypatch.setattr(checkpoint_mod.os, "fsync", lambda fd: None)
        source = tmp_path / "full.jsonl"
        full = run_study(two_scenario_spec(), checkpoint=source)
        original = StudyResult.load(source)
        header, scenarios = StudyCheckpoint(source).load_completed()
        data = source.read_bytes()
        path = tmp_path / "flipped.jsonl"
        misread, other = [], []
        for offset in range(len(data)):
            for value in (0xFF, data[offset] ^ 0x01):
                flipped = data[:offset] + bytes([value]) + data[offset + 1 :]
                path.write_bytes(flipped)
                try:
                    if StudyResult.load(path) != original:
                        misread.append(("load", offset, value))
                except SpecError:
                    pass
                except Exception as exc:  # noqa: BLE001 - counted, then asserted
                    other.append(("load", offset, value, repr(exc)))
                checkpoint = StudyCheckpoint(path)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        _header, completed = checkpoint.load_completed()
                    checkpoint.start(
                        name=header["name"],
                        description=header["description"],
                        spec=header["spec"],
                        fresh=False,
                    )
                    for scenario_id in ("first", "second"):
                        if scenario_id not in completed:
                            checkpoint.append(scenarios[scenario_id])
                    resumed = StudyResult.load(path)
                    if (
                        resumed.scenario_ids() != ["first", "second"]
                        or resumed.rows() != full.rows()
                    ):
                        misread.append(("resume", offset, value))
                except SpecError:
                    pass
                except Exception as exc:  # noqa: BLE001 - counted, then asserted
                    other.append(("resume", offset, value, repr(exc)))
        assert misread == []
        assert other == []

    def test_every_byte_flip_of_a_tournament_file_loads_the_original_or_is_refused(
        self, tmp_path
    ):
        from repro.tournament import TournamentResult

        def content(result):
            return (
                result.name, result.stats, result.n_units, result.spec,
                [s.as_dict() for s in result.standings], result.head_to_head,
                result.rows, result.failures,
            )

        path = tmp_path / "verdict.jsonl"
        _tournament_result().save(path)
        original = content(TournamentResult.load(path))
        data = path.read_bytes()
        misread, other = [], []
        for offset in range(len(data)):
            for value in (0xFF, data[offset] ^ 0x01):
                path.write_bytes(data[:offset] + bytes([value]) + data[offset + 1 :])
                try:
                    if content(TournamentResult.load(path)) != original:
                        misread.append((offset, value))
                except SpecError:
                    pass
                except Exception as exc:  # noqa: BLE001 - counted, then asserted
                    other.append((offset, value, repr(exc)))
        assert misread == []
        assert other == []


class TestFilesWrittenBeforeRecordCrcs:
    """Study files whose header, scenario and end records carry no CRC.

    Both were written for :func:`two_scenario_spec` by the release before
    every record was stamped: a finished ``StudyResult.save`` file and a
    checkpoint interrupted mid-way through scenario 'second'.  The checks
    are on scenario IDs and recomputation, not on model numbers.
    """

    DATA = Path(__file__).parent / "data"

    def _resume(self, tmp_path, monkeypatch, name):
        path = tmp_path / name
        shutil.copy(self.DATA / name, path)
        executed = []
        original = study_mod._run_scenario

        def counting(scenario, seed, executor):
            executed.append(scenario.scenario_id(seed))
            return original(scenario, seed, executor)

        monkeypatch.setattr(study_mod, "_run_scenario", counting)
        resumed = run_study(two_scenario_spec(), checkpoint=path, resume=True)
        assert resumed.scenario_ids() == ["first", "second"]
        assert StudyResult.load(path).scenario_ids() == ["first", "second"]
        return path, executed

    def test_a_finished_file_loads_and_resumes_with_nothing_recomputed(
        self, tmp_path, monkeypatch
    ):
        name = "study_saved_before_record_crcs.jsonl"
        assert StudyResult.load(self.DATA / name).scenario_ids() == ["first", "second"]
        path, executed = self._resume(tmp_path, monkeypatch, name)
        assert executed == []
        assert path.read_bytes() == (self.DATA / name).read_bytes()

    def test_an_interrupted_checkpoint_recomputes_only_the_cut_scenario(
        self, tmp_path, monkeypatch
    ):
        _path, executed = self._resume(
            tmp_path, monkeypatch, "study_interrupted_before_record_crcs.jsonl"
        )
        assert executed == ["second"]
