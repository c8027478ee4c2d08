package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// fileInfo is one segment or snapshot file: its parsed sequence number and
// full path.
type fileInfo struct {
	seq  uint64
	path string
}

// dirScan is the result of walking a log directory once: every valid record
// from the oldest segment on, plus where (if anywhere) the log stops being
// decodable and what repair would fix it.
type dirScan struct {
	dir     string
	segs    []fileInfo // segment files, ascending base sequence
	snaps   []fileInfo // snapshot files, ascending sequence
	minBase uint64     // segs[0] base; 0 when there are no segments
	records [][]byte   // valid records minBase, minBase+1, ...

	torn     *CorruptionError
	tornFile string   // segment to truncate ("" when nothing to truncate)
	tornOff  int64    // length of tornFile's valid prefix
	shelve   []string // files past the corruption, to rename *.corrupt
}

func (s *dirScan) endSeq() uint64 { return s.minBase + uint64(len(s.records)) }

// parseSeqName extracts the sequence number from a "%020d<suffix>" file
// name; ok is false for anything else (temp files, .corrupt shelved files).
func parseSeqName(name, suffix string) (uint64, bool) {
	base, found := strings.CutSuffix(name, suffix)
	if !found || len(base) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// scanDir walks every segment of a log directory in sequence order and
// decodes frames until the first byte that fails validation. It never
// returns an error for corruption — only for I/O failures reading the
// directory itself.
func scanDir(dir string) (*dirScan, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return &dirScan{dir: dir}, nil
		}
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	s := &dirScan{dir: dir}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeqName(e.Name(), segSuffix); ok {
			s.segs = append(s.segs, fileInfo{seq, filepath.Join(dir, e.Name())})
		} else if seq, ok := parseSeqName(e.Name(), snapSuffix); ok {
			s.snaps = append(s.snaps, fileInfo{seq, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].seq < s.segs[j].seq })
	sort.Slice(s.snaps, func(i, j int) bool { return s.snaps[i].seq < s.snaps[j].seq })
	if len(s.segs) == 0 {
		return s, nil
	}
	s.minBase = s.segs[0].seq

	next := s.minBase // sequence the next decoded record will get
	for i, seg := range s.segs {
		if seg.seq != next {
			// A hole in the sequence space: everything from here on is
			// unreachable, even if the files themselves parse.
			s.torn = &CorruptionError{File: seg.path, Seq: next,
				Reason: fmt.Sprintf("segment gap: want base %d, found %d", next, seg.seq)}
			s.markShelved(i)
			return s, nil
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment: %w", err)
		}
		var off int64
		for int(off) < len(data) {
			payload, n, reason := decodeFrame(data[off:])
			if reason != "" {
				s.torn = &CorruptionError{File: seg.path, Offset: off, Seq: next, Reason: reason}
				s.tornFile, s.tornOff = seg.path, off
				s.markShelved(i + 1)
				return s, nil
			}
			s.records = append(s.records, payload)
			next++
			off += n
		}
	}
	return s, nil
}

// decodeFrame validates one [len][crc][payload] frame at the start of data,
// returning the payload copy and bytes consumed, or a non-empty reason why
// the bytes are not a complete valid frame.
func decodeFrame(data []byte) (payload []byte, n int64, reason string) {
	if len(data) < frameHeader {
		return nil, 0, "torn frame header"
	}
	ln := binary.LittleEndian.Uint32(data[0:4])
	crc := binary.LittleEndian.Uint32(data[4:8])
	if ln > maxRecord {
		return nil, 0, fmt.Sprintf("implausible record length %d", ln)
	}
	if uint64(len(data)-frameHeader) < uint64(ln) {
		return nil, 0, "torn record payload"
	}
	body := data[frameHeader : frameHeader+int(ln)]
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, 0, "checksum mismatch"
	}
	return append([]byte(nil), body...), frameHeader + int64(ln), ""
}

// markShelved queues segments from index i on, and the torn segment itself
// when its valid prefix is empty, for renaming out of the sequence space so
// fresh appends cannot collide with their names.
func (s *dirScan) markShelved(i int) {
	if s.tornFile != "" && s.tornOff == 0 {
		s.shelve = append(s.shelve, s.tornFile)
		s.tornFile = ""
	}
	for _, seg := range s.segs[i:] {
		s.shelve = append(s.shelve, seg.path)
	}
}

// readSnapshot decodes a snapshot file, which must hold exactly one valid
// frame. ok is false for torn, corrupt, or trailing-garbage files.
func readSnapshot(path string) (payload []byte, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	payload, n, reason := decodeFrame(data)
	if reason != "" || int(n) != len(data) {
		return nil, false
	}
	return payload, true
}

// recovery assembles a Recovery from the scan. latest selects the newest
// usable snapshot for fast server restart; otherwise the oldest usable
// starting point wins so offline replay sees the longest history.
func (s *dirScan) recovery(latest bool) (*Recovery, error) {
	end := s.endSeq()
	rec := &Recovery{Torn: s.torn}
	if !latest && s.minBase == 0 {
		// Full history is on disk: replay from genesis, no snapshot needed.
		rec.Records = s.records
		return rec, nil
	}
	// Usable snapshots splice onto the retained records: their sequence must
	// fall inside [minBase, end].
	var candidates []fileInfo
	for _, sn := range s.snaps {
		if sn.seq >= s.minBase && sn.seq <= end {
			candidates = append(candidates, sn)
		}
	}
	pick := func(order []fileInfo) bool {
		for _, sn := range order {
			if payload, ok := readSnapshot(sn.path); ok {
				rec.Snapshot = payload
				rec.StartSeq = sn.seq
				rec.Records = s.records[sn.seq-s.minBase:]
				return true
			}
		}
		return false
	}
	if latest {
		rev := make([]fileInfo, len(candidates))
		for i, sn := range candidates {
			rev[len(candidates)-1-i] = sn
		}
		if pick(rev) {
			return rec, nil
		}
	} else if pick(candidates) {
		return rec, nil
	}
	if s.minBase == 0 {
		rec.Records = s.records
		return rec, nil
	}
	return nil, fmt.Errorf("wal: no usable snapshot covers log start (oldest segment base %d)", s.minBase)
}

// repair makes the directory safely appendable after corruption: the torn
// segment is truncated to its valid prefix and unreachable files are
// renamed aside with a .corrupt suffix (kept for postmortems, invisible to
// future scans).
func (s *dirScan) repair() error {
	if s.torn == nil {
		return nil
	}
	if s.tornFile != "" {
		if err := os.Truncate(s.tornFile, s.tornOff); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	for _, path := range s.shelve {
		if err := os.Rename(path, path+".corrupt"); err != nil {
			return fmt.Errorf("wal: shelve corrupt file: %w", err)
		}
	}
	return syncDir(s.dir)
}
