package sib

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
)

// The diag log is the byte stream a rooted phone's chipset diagnostic
// interface produces and MobileInsight parses (paper §3.1). Ours frames
// each signaling message with a millisecond timestamp and a direction:
//
//	tsMs   uint64 LE
//	dir    byte (0 downlink, 1 uplink)
//	msgLen uint32 LE
//	msg    sealed envelope bytes
//
// The crawler consumes this stream; the simulator produces it. Neither
// shares Go structs with the other — the bytes are the interface.

// Direction of a captured message.
type Direction byte

// Directions.
const (
	Downlink Direction = 0 // network → device (SIBs, reconfig, handover cmd)
	Uplink   Direction = 1 // device → network (measurement reports)
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Uplink {
		return "UL"
	}
	return "DL"
}

// DiagRecord is one captured signaling message.
type DiagRecord struct {
	TimestampMs uint64
	Dir         Direction
	Raw         []byte // sealed envelope
}

// Decode unmarshals the record's message.
func (r DiagRecord) Decode() (Message, error) { return Unmarshal(r.Raw) }

// DiagWriter streams records to an io.Writer.
type DiagWriter struct {
	w   *bufio.Writer
	err error
}

// NewDiagWriter wraps w.
func NewDiagWriter(w io.Writer) *DiagWriter {
	return &DiagWriter{w: bufio.NewWriter(w)}
}

// Write appends one record. Errors are sticky.
func (dw *DiagWriter) Write(rec DiagRecord) error {
	if dw.err != nil {
		return dw.err
	}
	var hdr [13]byte
	binary.LittleEndian.PutUint64(hdr[0:], rec.TimestampMs)
	hdr[8] = byte(rec.Dir)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(rec.Raw)))
	if _, err := dw.w.Write(hdr[:]); err != nil {
		dw.err = err
		return err
	}
	if _, err := dw.w.Write(rec.Raw); err != nil {
		dw.err = err
		return err
	}
	return nil
}

// WriteMsg seals and appends a message.
func (dw *DiagWriter) WriteMsg(tsMs uint64, dir Direction, m Message) error {
	return dw.Write(DiagRecord{TimestampMs: tsMs, Dir: dir, Raw: Marshal(m)})
}

// Flush commits buffered output.
func (dw *DiagWriter) Flush() error {
	if dw.err != nil {
		return dw.err
	}
	dw.err = dw.w.Flush()
	return dw.err
}

// ErrDiagCorrupt marks a diag stream that should be pristine but is not
// (see ScanStrict).
var ErrDiagCorrupt = errors.New("sib: corrupt diag stream")

// maxDiagMsgLen bounds a single message so a corrupt length field cannot
// trigger a huge allocation.
const maxDiagMsgLen = 1 << 20
