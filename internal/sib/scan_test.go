package sib

import (
	"bytes"
	"testing"
)

func scanStream(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	dw := NewDiagWriter(&buf)
	for i := 0; i < n; i++ {
		dw.WriteMsg(uint64(i)*50, Uplink, &SIB4{ForbiddenCells: []uint32{uint32(i)}})
	}
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scanAll scans data in one piece, returning the (detached) records and
// the final statistics.
func scanAll(t *testing.T, data []byte) ([]DiagRecord, ScanStats) {
	t.Helper()
	s := NewStreamScanner(bytes.NewReader(data), ScanOptions{Copy: true})
	return collectStream(t, s), s.Stats()
}

func TestScannerCleanStream(t *testing.T) {
	data := scanStream(t, 12)
	recs, st := scanAll(t, data)
	if len(recs) != 12 {
		t.Fatalf("records = %d, want 12", len(recs))
	}
	for i, r := range recs {
		if r.TimestampMs != uint64(i)*50 || r.Dir != Uplink {
			t.Fatalf("record %d header = %d/%v", i, r.TimestampMs, r.Dir)
		}
		if _, err := r.Decode(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if st != (ScanStats{Records: 12}) {
		t.Fatalf("clean stats: %+v", st)
	}
}

func TestScannerResyncsAroundGarbage(t *testing.T) {
	one := scanStream(t, 1)
	junk := []byte{0xFF, 0x00, 0xC3, 0x11, 0x01, 0x02, 0x03}
	var stream []byte
	stream = append(stream, junk...)
	stream = append(stream, one...)
	stream = append(stream, junk...)
	stream = append(stream, one...)
	stream = append(stream, junk...)

	recs, st := scanAll(t, stream)
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if st.Resyncs != 3 {
		t.Errorf("resyncs = %d, want 3", st.Resyncs)
	}
	if st.SkippedBytes != 3*len(junk) {
		t.Errorf("skipped = %d, want %d", st.SkippedBytes, 3*len(junk))
	}
}

func TestScannerPureGarbage(t *testing.T) {
	junk := bytes.Repeat([]byte{0xAB, 0x13, 0xC3}, 40)
	recs, st := scanAll(t, junk)
	if len(recs) != 0 {
		t.Fatalf("records from garbage: %d", len(recs))
	}
	if st.SkippedBytes != len(junk) || st.Resyncs != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestScannerTruncatedTail(t *testing.T) {
	data := scanStream(t, 3)
	cut := data[:len(data)-5] // last record loses its trailer
	recs, st := scanAll(t, cut)
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if st.SkippedBytes == 0 {
		t.Errorf("truncated tail not counted as skipped: %+v", st)
	}
}

func TestScannerEmpty(t *testing.T) {
	recs, st := scanAll(t, nil)
	if len(recs) != 0 {
		t.Fatal("records from empty input")
	}
	if st != (ScanStats{}) {
		t.Fatalf("stats: %+v", st)
	}
}
