// Package wal is a write-ahead event log with snapshots: the durability
// layer under the platform server's state machine (internal/core) and the
// trace format behind offline assigner replay (internal/replay).
//
// Layout: a log directory holds append-only segment files named
// %020d.wal — the number is the sequence of the segment's first record —
// plus snapshot files named %020d.snap, where the number is how many events
// the snapshotted state had applied (i.e. the sequence recovery resumes
// from). Every record and snapshot payload is framed as
//
//	[u32le length][u32le CRC-32C of payload][payload]
//
// so recovery can always tell a complete record from a torn tail without
// trusting file sizes. Snapshots are written with the temp-file +
// atomic-rename idiom and the directory is fsynced after every
// rename or segment creation, so a crash at any instant leaves either the
// old durable state or the new one — never a half-written file that parses.
//
// Recovery never panics on a damaged log: it returns the longest valid
// prefix and a typed *CorruptionError describing the first bad byte. Open
// additionally repairs the directory (truncates the torn tail, shelves
// unreachable segments as .corrupt) so subsequent appends extend the valid
// prefix.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/spatialcrowd/tamp/internal/obs"
)

// Crash-point names for fault injection (see internal/fault.Crasher). The
// append hooks fire inside the frame write — between header and payload, and
// between the full frame and its fsync — and the snapshot hooks bracket the
// temp-file write and the atomic rename.
const (
	HookAppendFrame    = "wal.append.frame"
	HookAppendSync     = "wal.append.sync"
	HookSnapshotWrite  = "wal.snapshot.write"
	HookSnapshotRename = "wal.snapshot.rename"
)

const (
	frameHeader = 8
	// maxRecord bounds a frame's declared length so a corrupt header cannot
	// drive a giant allocation.
	maxRecord = 64 << 20

	segSuffix  = ".wal"
	snapSuffix = ".snap"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putFrameHeader fills an 8-byte [len][crc] header for payload.
func putFrameHeader(hdr []byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
}

// Options tunes a Log. The zero value is usable.
type Options struct {
	// SegmentBytes rotates to a new segment once the active one exceeds this
	// size (default 4 MiB).
	SegmentBytes int64
	// SyncEvery fsyncs the active segment every N appends (default 1: every
	// append is durable before it is acknowledged). Close and Snapshot always
	// flush regardless.
	SyncEvery int
	// Registry receives the WAL metrics (tamp_wal_appends_total,
	// tamp_wal_fsync_seconds, tamp_wal_snapshot_bytes). Nil uses obs.Default.
	Registry *obs.Registry
	// Hook, when non-nil, is called at the named crash points; the
	// fault-injection tests arm a fault.Crasher here to kill the process at
	// exact positions inside append and snapshot.
	Hook func(point string)
}

// CorruptionError describes the first undecodable byte of a log — a torn
// tail after a crash, a flipped bit, or a missing segment. Recovery data up
// to Seq is intact.
type CorruptionError struct {
	File   string // offending file (or the file a gap follows)
	Offset int64  // byte offset of the bad frame within File
	Seq    uint64 // first sequence number lost
	Reason string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("wal: %s at %s+%d (seq %d)", e.Reason, filepath.Base(e.File), e.Offset, e.Seq)
}

// Recovery is what a log directory yields: the newest usable snapshot (nil
// when recovery starts from genesis), the records from StartSeq on, and a
// description of the torn tail if the log did not end cleanly.
type Recovery struct {
	Snapshot []byte
	StartSeq uint64   // sequence of Records[0]; equals the snapshot's seq
	Records  [][]byte // event payloads StartSeq, StartSeq+1, ...
	Torn     *CorruptionError
}

// Log is an open write-ahead log. Methods are not safe for concurrent use;
// the owner serializes (the server appends under its state mutex).
type Log struct {
	dir  string
	opts Options

	f        *os.File // active segment (nil until the first append)
	size     int64
	seq      uint64 // next sequence number to assign
	unsynced int
	closed   bool

	appendsC   *obs.Counter
	fsyncH     *obs.Histogram
	snapBytesG *obs.Gauge
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 1
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	return opts
}

func (l *Log) hook(point string) {
	if l.opts.Hook != nil {
		l.opts.Hook(point)
	}
}

// Open opens (creating if needed) the log in dir, recovers its contents,
// and repairs any damage so the log is appendable: the torn tail of the
// last valid segment is truncated away and segments past a corruption are
// renamed to <name>.corrupt. The returned Recovery holds everything needed
// to rebuild state: snapshot + tail records. A damaged log is not an error
// — Recovery.Torn reports what was dropped.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	scan, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}
	rec, err := scan.recovery(true)
	if err != nil {
		return nil, nil, err
	}
	if err := scan.repair(); err != nil {
		return nil, nil, err
	}
	o := opts.withDefaults()
	l := &Log{
		dir:        dir,
		opts:       o,
		seq:        scan.endSeq(),
		appendsC:   o.Registry.Counter("tamp_wal_appends_total"),
		fsyncH:     o.Registry.Histogram("tamp_wal_fsync_seconds", obs.DefSecondsBuckets),
		snapBytesG: o.Registry.Gauge("tamp_wal_snapshot_bytes"),
	}
	// Re-open the last segment for appending only when the log ended
	// cleanly; after a repair (or on a fresh log) the next append starts a
	// new segment based at the recovered end sequence.
	if n := len(scan.segs); n > 0 && scan.torn == nil {
		last := scan.segs[n-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: stat segment: %w", err)
		}
		l.f, l.size = f, st.Size()
	}
	return l, rec, nil
}

// ReadLog reads a log directory without modifying it, preferring the
// longest available history: when the segment containing sequence 0 is
// still present the whole run is returned with no snapshot, so offline
// replay sees every batch from genesis.
func ReadLog(dir string) (*Recovery, error) {
	scan, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	return scan.recovery(false)
}

// Append writes one record and returns its sequence number. With the
// default SyncEvery=1 the record is fsynced before Append returns.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.closed {
		return 0, errors.New("wal: append to closed log")
	}
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds max %d", len(payload), maxRecord)
	}
	if l.f == nil || (l.size > 0 && l.size+frameHeader+int64(len(payload)) > l.opts.SegmentBytes) {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	var hdr [frameHeader]byte
	putFrameHeader(hdr[:], payload)
	if _, err := l.f.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.hook(HookAppendFrame)
	if _, err := l.f.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.hook(HookAppendSync)
	l.size += frameHeader + int64(len(payload))
	seq := l.seq
	l.seq++
	l.unsynced++
	l.appendsC.Inc()
	if l.unsynced >= l.opts.SyncEvery {
		if err := l.Sync(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync fsyncs the active segment.
func (l *Log) Sync() error {
	if l.f == nil || l.unsynced == 0 {
		return nil
	}
	start := l.opts.Registry.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncH.Observe(l.opts.Registry.Now().Sub(start).Seconds())
	l.unsynced = 0
	return nil
}

// rotate seals the active segment and starts a new one whose base is the
// next sequence number.
func (l *Log) rotate() error {
	if l.f != nil {
		if err := l.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%020d%s", l.seq, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, 0
	return nil
}

// Snapshot records the state that has applied the first seq records. The
// log is synced first so a snapshot never claims records the log could
// still lose; the snapshot file lands via temp-file + atomic rename, so a
// crash mid-snapshot leaves the previous one intact.
func (l *Log) Snapshot(payload []byte, seq uint64) error {
	if l.closed {
		return errors.New("wal: snapshot on closed log")
	}
	if seq > l.seq {
		return fmt.Errorf("wal: snapshot seq %d ahead of log seq %d", seq, l.seq)
	}
	if err := l.Sync(); err != nil {
		return err
	}
	l.hook(HookSnapshotWrite)
	path := filepath.Join(l.dir, fmt.Sprintf("%020d%s", seq, snapSuffix))
	err := writeFileAtomic(path, func(w io.Writer) error {
		var hdr [frameHeader]byte
		putFrameHeader(hdr[:], payload)
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	}, func() { l.hook(HookSnapshotRename) })
	if err != nil {
		return err
	}
	l.snapBytesG.Set(float64(len(payload)))
	return nil
}

// Close flushes and closes the active segment. Further appends fail.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// writeFileAtomic writes a file via a same-directory temp file and rename,
// so readers never observe a partially written file and an existing one
// survives a crash mid-write. The write callback receives the temp file's
// writer; any error aborts and removes the temp file. preRename runs between
// the temp file's durable write and the rename that publishes it — the exact
// crash window fault-injection tests aim at.
func writeFileAtomic(path string, write func(w io.Writer) error, preRename func()) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("wal: create temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("wal: write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("wal: sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", path, err)
	}
	preRename()
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("wal: rename %s: %w", path, err)
	}
	// The rename itself must survive a crash: sync the directory so the new
	// entry is durable, not just the file contents.
	return syncDir(dir)
}

// syncDir fsyncs a directory, making recent renames and file creations in it
// durable: without it a crash can forget a rename even though the file's
// blocks reached disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	return nil
}
