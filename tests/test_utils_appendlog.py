"""AppendLog: the byte-level crash contract under the result cache and the
job store.

Each test writes a small log, damages it the way a crashed writer or a
lost sector would, and checks what :meth:`AppendLog.replay` serves and
what the next :meth:`AppendLog.append` leaves on disk. Store semantics on
top of the log (which records a store keeps) are tested with the stores.
"""

import json

import pytest

from repro.utils.appendlog import AppendLog

RECORDS = [{"fp": "a", "n": 1}, {"fp": "b", "n": 2.5}, {"fp": "c", "s": "x"}]


def _written(tmp_path, records=RECORDS):
    log = AppendLog(str(tmp_path / "log.jsonl"))
    offsets = [log.append(record) for record in records]
    log.close()
    return log.path, offsets


def _replayed(path):
    return [record for _, record in AppendLog(path).replay()]


def _lines(path):
    with open(path, "rb") as fh:
        return fh.read().splitlines()


def _parses(line):
    try:
        json.loads(line.decode("utf-8"))
        return True
    except (ValueError, UnicodeDecodeError):
        return False


class TestAppendReplay:
    def test_lines_are_sorted_key_json_one_per_line(self, tmp_path):
        path, offsets = _written(tmp_path)
        assert _lines(path) == [json.dumps(r, sort_keys=True).encode()
                                for r in RECORDS]
        assert offsets[0] == 0
        assert list(AppendLog(path).replay()) == list(zip(offsets, RECORDS))

    def test_missing_file_replays_nothing(self, tmp_path):
        assert _replayed(str(tmp_path / "absent.jsonl")) == []

    def test_read_at_returned_offsets(self, tmp_path):
        log = AppendLog(str(tmp_path / "log.jsonl"))
        offsets = [log.append(record) for record in RECORDS]
        # reads interleave with appends on one open log
        assert [log.read_at(o) for o in reversed(offsets)] == RECORDS[::-1]
        later = log.append({"fp": "d"})
        assert log.read_at(later) == {"fp": "d"}
        log.close()
        reopened = AppendLog(log.path)
        assert [reopened.read_at(o) for o in offsets] == RECORDS
        reopened.close()

    def test_allow_nan_false_is_honoured(self, tmp_path):
        log = AppendLog(str(tmp_path / "log.jsonl"))
        log.append({"fp": "a", "x": float("inf")})
        with pytest.raises(ValueError):
            log.append({"fp": "b", "x": float("inf")}, allow_nan=False)
        log.close()
        # the rejected record wrote nothing, the permissive one replays
        assert _replayed(log.path) == [{"fp": "a", "x": float("inf")}]

    def test_non_object_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with open(path, "wb") as fh:
            fh.write(b'[1, 2]\n"text"\n\n{"fp": "a"}\n')
        assert _replayed(path) == [{"fp": "a"}]


class TestCrashInjection:
    def test_truncation_at_every_offset_of_the_last_line(self, tmp_path):
        path, offsets = _written(tmp_path)
        with open(path, "rb") as fh:
            raw = fh.read()
        for cut in range(offsets[-1], len(raw) + 1):
            with open(path, "wb") as fh:
                fh.write(raw[:cut])
            # only the complete JSON object survives: cut == len-1 drops
            # just the newline, which still parses
            complete = cut >= len(raw) - 1
            assert _replayed(path) == (RECORDS if complete
                                       else RECORDS[:-1]), cut

    def test_final_line_missing_only_its_newline_replays(self, tmp_path):
        path, offsets = _written(tmp_path)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[:-1])
        assert list(AppendLog(path).replay()) == list(zip(offsets, RECORDS))

    def test_corrupt_middle_line_drops_only_that_record(self, tmp_path):
        path, offsets = _written(tmp_path)
        lines = _lines(path)
        # a lost sector: same length, so later offsets stay put
        lines[1] = lines[1][:6] + b"\x00" * 4 + lines[1][10:]
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        assert list(AppendLog(path).replay()) == [
            (offsets[0], RECORDS[0]), (offsets[2], RECORDS[2])]

    @pytest.mark.parametrize("keep", [1, 7, -3])
    def test_next_append_terminates_the_torn_tail(self, tmp_path, keep):
        path, offsets = _written(tmp_path)
        with open(path, "rb") as fh:
            raw = fh.read()
        cut = offsets[-1] + keep if keep > 0 else len(raw) + keep
        with open(path, "wb") as fh:
            fh.write(raw[:cut])

        log = AppendLog(path)
        offset = log.append(RECORDS[-1])
        second = log.append({"fp": "d"})
        log.close()
        # the fragment is newline-terminated, then the records follow
        assert offset == cut + 1
        reopened = AppendLog(path)
        assert reopened.read_at(offset) == RECORDS[-1]
        assert reopened.read_at(second) == {"fp": "d"}
        reopened.close()
        assert _replayed(path) == RECORDS + [{"fp": "d"}]
        bad = [line for line in _lines(path) if not _parses(line)]
        assert bad == [raw[offsets[-1]:cut]]  # exactly one torn fragment

    def test_clean_tail_gets_no_extra_newline(self, tmp_path):
        path, _ = _written(tmp_path)
        with open(path, "rb") as fh:
            before = fh.read()
        log = AppendLog(path)
        log.append({"fp": "d"})
        log.close()
        with open(path, "rb") as fh:
            assert fh.read() == before + b'{"fp": "d"}\n'
