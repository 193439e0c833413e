package sib

import (
	"bytes"
	"testing"

	"mmlab/internal/config"
)

// FuzzOpen feeds arbitrary bytes to the envelope opener and, when one
// opens, to the message decoder. Neither may panic, and a payload that
// opens must survive a Seal round-trip unchanged — the envelope is the
// trust boundary the resynchronizing scanner leans on.
func FuzzOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x11, 0xC3, 1, 4, 0, 0, 0, 0})
	for _, m := range []Message{
		&SIB4{ForbiddenCells: []uint32{7, 9}},
		&CellInfo{Identity: config.CellIdentity{CellID: 12, PCI: 3, EARFCN: 850, RAT: config.RATLTE}},
		&HandoverCommand{TargetCellID: 5, TargetPCI: 2, TargetEARFCN: 1950, TargetRAT: config.RATLTE},
	} {
		f.Add(Marshal(m))
		f.Add(Marshal(m)[:5]) // truncated header
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := Open(data)
		if err != nil {
			return
		}
		// A valid envelope re-seals to the identical bytes.
		if resealed := Seal(typ, payload); !bytes.Equal(resealed, data) {
			t.Fatalf("Seal(Open(x)) != x: %x vs %x", resealed, data)
		}
		// Decoding a valid envelope may fail (unknown type, bad TLV) but
		// must not panic, and a decoded message must re-marshal.
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		if _, _, err := Open(Marshal(m)); err != nil {
			t.Fatalf("re-marshaled message does not open: %v", err)
		}
	})
}

// FuzzScanner feeds arbitrary bytes to the resynchronizing scanner in
// read chunks whose sizes the input also chooses. It must terminate,
// never panic, account every byte as either a yielded record or a
// skipped byte, and yield exactly the records and ScanStats of a scan
// over the same bytes in one piece.
func FuzzScanner(f *testing.F) {
	var buf bytes.Buffer
	dw := NewDiagWriter(&buf)
	dw.WriteMsg(10, Downlink, &SIB4{ForbiddenCells: []uint32{1}})
	dw.WriteMsg(20, Uplink, &SIB4{ForbiddenCells: []uint32{2}})
	dw.Flush()
	clean := buf.Bytes()
	f.Add(clean, []byte{})
	f.Add(append([]byte{0xFF, 0xC3, 0x11}, clean...), []byte{0, 12, 3})
	f.Add(clean[:len(clean)-3], []byte{20, 0})
	f.Fuzz(func(t *testing.T, data, chunks []byte) {
		want, wantStats := scanAll(t, data)
		consumed := 0
		for _, rec := range want {
			consumed += 13 + len(rec.Raw)
			if _, err := rec.Decode(); err != nil {
				// The envelope opened, so only TLV-level damage remains —
				// which the CRC already rules out for random corruption, but
				// a decoder error must stay an error, never a panic.
				t.Logf("yielded record failed decode: %v", err)
			}
		}
		if consumed+wantStats.SkippedBytes != len(data) {
			t.Fatalf("accounting: %d consumed + %d skipped != %d input",
				consumed, wantStats.SkippedBytes, len(data))
		}

		s := NewStreamScanner(&chunkReader{data: data, sizes: chunks}, ScanOptions{Copy: true})
		got := collectStream(t, s)
		if len(got) != len(want) {
			t.Fatalf("chunked scan: %d records, whole scan %d", len(got), len(want))
		}
		for i := range got {
			if got[i].TimestampMs != want[i].TimestampMs || got[i].Dir != want[i].Dir ||
				!bytes.Equal(got[i].Raw, want[i].Raw) {
				t.Fatalf("chunked scan: record %d differs", i)
			}
		}
		if s.Stats() != wantStats {
			t.Fatalf("chunked scan stats %+v, whole scan %+v", s.Stats(), wantStats)
		}
	})
}
