package sib

import (
	"encoding/binary"
	"fmt"
	"io"
)

// StreamScanner walks a possibly-damaged diag byte stream incrementally
// and yields every record whose framing and envelope survive validation,
// resynchronizing past damage instead of aborting. Real captures break
// mid-record — the logger loses buffers, USB transfers truncate, foreign
// bytes interleave — and a crawler that aborts at the first bad byte
// throws away everything after it. The scanner's contract: any record
// whose bytes are intact in the stream is recovered, no matter what
// surrounds it, and no more than a bounded window of the stream is ever
// held in memory.
//
// A candidate frame at an offset is accepted only if the 13-byte header is
// sane (direction 0/1, bounded length) AND the embedded envelope opens
// cleanly (magic, version, exact length, CRC32). A false positive
// therefore needs 16 bits of magic, a version match, a consistent length
// and a colliding checksum inside damaged bytes — negligible. On
// rejection the scanner slides forward one byte and tries again, counting
// the skipped bytes and each contiguous damaged region. A candidate is
// decided only on bytes it covers, so scanning a stream in arbitrary
// read chunks yields exactly the records and ScanStats of scanning it in
// one piece.
//
// The internal buffer is reused between records. Without ScanOptions.Copy
// a yielded record's Raw aliases that buffer and is valid only until the
// next Next call; with Copy (what the pipeline uses) records own their
// bytes.
type StreamScanner struct {
	r   io.Reader
	opt ScanOptions

	buf        []byte
	start, end int  // undecided window is buf[start:end]
	eof        bool // underlying reader is exhausted
	err        error

	pendingSkip int // bytes slid past since the last accepted record
	stats       ScanStats
}

// ScanStats describes what a scan saw.
type ScanStats struct {
	Records      int // valid records yielded
	SkippedBytes int // bytes discarded while resynchronizing
	Resyncs      int // contiguous damaged regions skipped
}

// ScanOptions configures a scanner.
type ScanOptions struct {
	// Copy detaches each yielded record from the scanner's buffer: Raw is
	// copied into fresh memory, so records stay valid after later Next
	// calls. Without Copy, records alias the buffer — cheaper, but a
	// caller that retains records silently corrupts them. The streaming
	// pipeline scans with Copy on for exactly that reason.
	Copy bool
}

// streamChunk is the read granularity. The buffer grows past it only
// when a candidate frame header claims a body longer than the window —
// bounded by maxDiagMsgLen, so memory stays O(1) in the stream length.
const streamChunk = 32 << 10

// NewStreamScanner scans the byte stream read from r.
func NewStreamScanner(r io.Reader, opt ScanOptions) *StreamScanner {
	return &StreamScanner{r: r, opt: opt, buf: make([]byte, streamChunk)}
}

// Stats returns the running scan statistics.
func (s *StreamScanner) Stats() ScanStats { return s.stats }

// Next returns the next valid record. ok=false marks the end of the
// stream: err is nil on clean EOF and the underlying read error
// otherwise (every record decodable before the error has already been
// yielded).
func (s *StreamScanner) Next() (DiagRecord, bool, error) {
	for {
		if rec, ok := s.scanWindow(); ok {
			return rec, true, nil
		}
		if s.eof {
			// Whatever remains is an undecidable tail.
			s.pendingSkip += s.end - s.start
			s.start = s.end
			if s.pendingSkip > 0 {
				s.stats.Resyncs++
				s.stats.SkippedBytes += s.pendingSkip
				s.pendingSkip = 0
			}
			return DiagRecord{}, false, s.err
		}
		s.fill()
	}
}

// scanWindow scans the buffered window, stopping when the candidate at
// the head needs more bytes to be decided.
func (s *StreamScanner) scanWindow() (DiagRecord, bool) {
	for s.start < s.end {
		rec, n, st := frameAtPartial(s.buf[s.start:s.end], s.eof)
		if st == frameShort {
			break
		}
		if st == frameInvalid {
			s.start++
			s.pendingSkip++
			continue
		}
		if s.pendingSkip > 0 {
			s.stats.Resyncs++
			s.stats.SkippedBytes += s.pendingSkip
			s.pendingSkip = 0
		}
		s.start += n
		s.stats.Records++
		if s.opt.Copy {
			rec.Raw = append([]byte(nil), rec.Raw...)
		}
		return rec, true
	}
	return DiagRecord{}, false
}

// fill compacts the window to the buffer head and reads more bytes.
func (s *StreamScanner) fill() {
	if s.start > 0 {
		copy(s.buf, s.buf[s.start:s.end])
		s.end -= s.start
		s.start = 0
	}
	if s.end == len(s.buf) {
		// The undecided head candidate claims a body longer than the
		// buffer; grow toward the 13+maxDiagMsgLen decision bound.
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	n, err := s.r.Read(s.buf[s.end:])
	s.end += n
	if err != nil {
		s.eof = true
		if err != io.EOF {
			s.err = err
		}
	}
}

// ScanStrict calls fn for every record of a diag stream that must be
// pristine, stopping at the first error. A stream counts as damaged as
// soon as the scanner skips a byte: the error wraps ErrDiagCorrupt and is
// returned before the record that follows the damage reaches fn. A read
// error or an error from fn is returned as is. Each record's Raw is valid
// only for the duration of its fn call.
func ScanStrict(r io.Reader, fn func(DiagRecord) error) error {
	sc := NewStreamScanner(r, ScanOptions{})
	for n := 0; ; n++ {
		rec, ok, err := sc.Next()
		if skipped := sc.Stats().SkippedBytes; skipped > 0 {
			return fmt.Errorf("%w: %d unframed bytes after %d records", ErrDiagCorrupt, skipped, n)
		}
		if !ok {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// frameStatus classifies a candidate frame at the head of a buffer.
type frameStatus uint8

const (
	frameOK      frameStatus = iota
	frameInvalid             // provably not a frame here; slide one byte
	frameShort               // undecidable yet; the scanner reads more
)

// frameAtPartial validates a candidate frame at the head of a possibly-
// incomplete buffer, returning the record and its encoded size on
// success: atEOF reports whether b is all the bytes there will ever be.
// Before EOF a candidate whose header is plausible but whose body has not
// fully arrived is frameShort, not frameInvalid — the distinction that
// lets StreamScanner resynchronize without buffering the whole stream.
func frameAtPartial(b []byte, atEOF bool) (DiagRecord, int, frameStatus) {
	const hdr = 13
	short := frameShort
	if atEOF {
		short = frameInvalid
	}
	if len(b) < hdr {
		return DiagRecord{}, 0, short
	}
	dir := b[8]
	if dir > 1 {
		return DiagRecord{}, 0, frameInvalid
	}
	n := binary.LittleEndian.Uint32(b[9:])
	if n > maxDiagMsgLen {
		return DiagRecord{}, 0, frameInvalid
	}
	if uint64(len(b)-hdr) < uint64(n) {
		return DiagRecord{}, 0, short
	}
	raw := b[hdr : hdr+int(n)]
	if _, _, err := Open(raw); err != nil {
		return DiagRecord{}, 0, frameInvalid
	}
	return DiagRecord{
		TimestampMs: binary.LittleEndian.Uint64(b),
		Dir:         Direction(dir),
		Raw:         raw,
	}, hdr + int(n), frameOK
}
