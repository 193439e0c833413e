package sib

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mmlab/internal/config"
)

func TestDiagRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewDiagWriter(&buf)

	msgs := []struct {
		ts  uint64
		dir Direction
		m   Message
	}{
		{100, Downlink, &CellInfo{Identity: config.CellIdentity{CellID: 1, RAT: config.RATLTE}}},
		{150, Downlink, &SIB3{Serving: sampleServing()}},
		{220, Uplink, &MeasurementReport{MeasID: 1, EventType: config.EventA3}},
		{300, Downlink, &HandoverCommand{TargetCellID: 2}},
	}
	for _, m := range msgs {
		if err := w.WriteMsg(m.ts, m.dir, m.m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var recs []DiagRecord
	if err := ScanStrict(&buf, func(rec DiagRecord) error {
		rec.Raw = append([]byte(nil), rec.Raw...)
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(msgs) {
		t.Fatalf("got %d records, want %d", len(recs), len(msgs))
	}
	for i, rec := range recs {
		if rec.TimestampMs != msgs[i].ts || rec.Dir != msgs[i].dir {
			t.Errorf("record %d: ts=%d dir=%v", i, rec.TimestampMs, rec.Dir)
		}
		m, err := rec.Decode()
		if err != nil {
			t.Fatalf("record %d decode: %v", i, err)
		}
		if m.Type() != msgs[i].m.Type() {
			t.Errorf("record %d type = %v, want %v", i, m.Type(), msgs[i].m.Type())
		}
	}
}

func TestDiagForEach(t *testing.T) {
	var buf bytes.Buffer
	w := NewDiagWriter(&buf)
	for i := 0; i < 10; i++ {
		if err := w.WriteMsg(uint64(i), Downlink, &SIB4{}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	n := 0
	err := ScanStrict(&buf, func(rec DiagRecord) error {
		n++
		return nil
	})
	if err != nil || n != 10 {
		t.Errorf("n=%d err=%v", n, err)
	}
}

func TestDiagForEachPropagatesCallbackError(t *testing.T) {
	var buf bytes.Buffer
	w := NewDiagWriter(&buf)
	w.WriteMsg(1, Downlink, &SIB4{})
	w.Flush()
	sentinel := errors.New("stop")
	err := ScanStrict(&buf, func(DiagRecord) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestDiagTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewDiagWriter(&buf)
	w.WriteMsg(1, Downlink, &SIB3{Serving: sampleServing()})
	w.Flush()
	data := buf.Bytes()

	strict := func(data []byte) (int, error) {
		n := 0
		err := ScanStrict(bytes.NewReader(data), func(DiagRecord) error {
			n++
			return nil
		})
		return n, err
	}

	// Truncated inside the message body.
	if n, err := strict(data[:len(data)-3]); n != 0 || !errors.Is(err, ErrDiagCorrupt) {
		t.Errorf("truncated body: %d records, %v", n, err)
	}

	// Truncated inside the header.
	if n, err := strict(data[:5]); n != 0 || !errors.Is(err, ErrDiagCorrupt) {
		t.Errorf("truncated header: %d records, %v", n, err)
	}

	// Clean EOF on empty stream.
	if n, err := strict(nil); n != 0 || err != nil {
		t.Errorf("empty stream: %d records, %v", n, err)
	}
}

func TestDiagOversizeLengthRejected(t *testing.T) {
	// Hand-craft a header claiming a 2 MB message, then a valid record:
	// the strict scan fails before the record reaches the callback.
	hdr := make([]byte, 13)
	hdr[9] = 0
	hdr[10] = 0
	hdr[11] = 0x20 // 0x200000 = 2 MiB
	var buf bytes.Buffer
	w := NewDiagWriter(&buf)
	w.WriteMsg(1, Downlink, &SIB4{})
	w.Flush()
	calls := 0
	err := ScanStrict(io.MultiReader(bytes.NewReader(hdr), &buf), func(DiagRecord) error {
		calls++
		return nil
	})
	if calls != 0 || !errors.Is(err, ErrDiagCorrupt) {
		t.Errorf("oversize: %d records, %v", calls, err)
	}
}

func TestDirectionString(t *testing.T) {
	if Downlink.String() != "DL" || Uplink.String() != "UL" {
		t.Error("direction strings wrong")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestDiagWriterStickyError(t *testing.T) {
	fw := &failWriter{n: 4} // fails quickly once the bufio buffer drains
	w := NewDiagWriter(fw)
	// Write enough to force a flush failure eventually.
	var firstErr error
	for i := 0; i < 10000 && firstErr == nil; i++ {
		firstErr = w.WriteMsg(uint64(i), Downlink, &SIB3{Serving: sampleServing()})
	}
	if firstErr == nil {
		firstErr = w.Flush()
	}
	if firstErr == nil {
		t.Fatal("expected write failure")
	}
	// Subsequent writes keep failing.
	if err := w.WriteMsg(1, Downlink, &SIB4{}); err == nil {
		t.Error("sticky error not preserved")
	}
	if err := w.Flush(); err == nil {
		t.Error("sticky error not preserved on flush")
	}
}
