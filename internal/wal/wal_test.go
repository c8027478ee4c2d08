package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/spatialcrowd/tamp/internal/obs"
)

// payloads builds n distinct record payloads of varied sizes.
func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d-%s", i, strings.Repeat("x", i%37)))
	}
	return out
}

func mustOpen(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return l, rec
}

// appendAll appends recs and returns the sequence number the next Append
// would assign.
func appendAll(t *testing.T, l *Log, recs [][]byte) uint64 {
	t.Helper()
	var next uint64
	for i, p := range recs {
		seq, err := l.Append(p)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		next = seq + 1
	}
	return next
}

func sameRecords(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(25)

	l, rec := mustOpen(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.Torn != nil {
		t.Fatalf("fresh log recovery = %+v", rec)
	}
	if next := appendAll(t, l, recs[:10]); next != 10 {
		t.Fatalf("seq = %d, want 10", next)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("after close")); err == nil {
		t.Fatal("append after close succeeded")
	}

	l2, rec2 := mustOpen(t, dir, Options{})
	if rec2.Torn != nil {
		t.Fatalf("clean log reported torn: %v", rec2.Torn)
	}
	if rec2.StartSeq != 0 {
		t.Fatalf("start=%d", rec2.StartSeq)
	}
	sameRecords(t, rec2.Records, recs[:10])
	if next := appendAll(t, l2, recs[10:]); next != 25 {
		t.Fatalf("seq after reopen and 15 appends = %d, want 25", next)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	rd, err := ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, rd.Records, recs)
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.snap")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := fmt.Fprint(w, "v1")
		return err
	}, func() {}); err != nil {
		t.Fatal(err)
	}
	// A failing write must leave the previous file intact and no temp
	// litter behind.
	boom := errors.New("disk full")
	if err := writeFileAtomic(path, func(w io.Writer) error {
		fmt.Fprint(w, "torn")
		return boom
	}, func() {}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "v1" {
		t.Fatalf("file after failed write = %q, %v", b, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp files left behind: %v", entries)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(40)
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128})
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	_, rec := mustOpen(t, dir, Options{SegmentBytes: 128})
	sameRecords(t, rec.Records, recs)
}

func TestSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(15)
	l, _ := mustOpen(t, dir, Options{})
	appendAll(t, l, recs[:10])
	if err := l.Snapshot([]byte("state@10"), 10); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, recs[10:])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Open prefers the newest snapshot: recovery is snapshot + 5-record tail.
	l2, rec := mustOpen(t, dir, Options{})
	if string(rec.Snapshot) != "state@10" || rec.StartSeq != 10 {
		t.Fatalf("snapshot = %q @ %d", rec.Snapshot, rec.StartSeq)
	}
	sameRecords(t, rec.Records, recs[10:])
	if end := rec.StartSeq + uint64(len(rec.Records)); end != 15 {
		t.Fatalf("recovered through seq %d, want 15", end)
	}
	l2.Close()

	// ReadLog prefers full history: genesis segment is present, so replay
	// sees every record and no snapshot.
	rd, err := ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Snapshot != nil || rd.StartSeq != 0 {
		t.Fatalf("readlog start = %q @ %d", rd.Snapshot, rd.StartSeq)
	}
	sameRecords(t, rd.Records, recs)

	// Snapshot ahead of the log is refused.
	l3, _ := mustOpen(t, dir, Options{})
	if err := l3.Snapshot([]byte("bogus"), 99); err == nil {
		t.Fatal("snapshot ahead of log accepted")
	}
	l3.Close()
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	recs := payloads(8)
	l, _ := mustOpen(t, dir, Options{})
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	// Simulate a crash mid-append: a frame header with no payload.
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, rec := mustOpen(t, dir, Options{})
	if rec.Torn == nil {
		t.Fatal("torn tail not reported")
	}
	if rec.Torn.Seq != 8 || rec.Torn.Reason != "torn frame header" {
		t.Fatalf("torn = %+v", rec.Torn)
	}
	sameRecords(t, rec.Records, recs)
	// The log is appendable again and a further reopen is clean.
	appendAll(t, l2, [][]byte{[]byte("after repair")})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3 := mustOpen(t, dir, Options{})
	if rec3.Torn != nil {
		t.Fatalf("repair did not stick: %v", rec3.Torn)
	}
	sameRecords(t, rec3.Records, append(append([][]byte{}, recs...), []byte("after repair")))
}

// TestWALMetricsGolden pins the exported names and shapes of the WAL
// metrics: append counter, fsync histogram, snapshot size gauge.
func TestWALMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	epoch := time.Unix(1700000000, 0)
	reg.SetClock(func() time.Time { return epoch })

	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Registry: reg})
	appendAll(t, l, payloads(3))
	if err := l.Snapshot([]byte("snapshot-bytes!"), 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	dump := reg.Dump()
	for _, line := range []string{
		`# TYPE tamp_wal_appends_total counter`,
		`tamp_wal_appends_total 3`,
		`# TYPE tamp_wal_fsync_seconds histogram`,
		`tamp_wal_fsync_seconds_count 3`,
		`tamp_wal_fsync_seconds_sum 0`,
		`# TYPE tamp_wal_snapshot_bytes gauge`,
		`tamp_wal_snapshot_bytes 15`,
	} {
		if !strings.Contains(dump, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, dump)
		}
	}
}
