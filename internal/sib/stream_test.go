package sib

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
)

// chunkReader delivers data in chunks of 1+sizes[i] bytes, cycling
// through sizes (one byte at a time when sizes is empty), so record
// boundaries land mid-chunk.
type chunkReader struct {
	data  []byte
	sizes []byte
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.sizes) > 0 {
		n += int(c.sizes[c.i%len(c.sizes)])
		c.i++
	}
	n = min(n, len(c.data), len(p))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// randomChunks draws chunk sizes of 1 to 97 bytes for a chunkReader.
func randomChunks(rng *rand.Rand) []byte {
	sizes := make([]byte, 61)
	for i := range sizes {
		sizes[i] = byte(rng.Intn(97))
	}
	return sizes
}

func collectStream(t *testing.T, s *StreamScanner) []DiagRecord {
	t.Helper()
	var out []DiagRecord
	for {
		rec, ok, err := s.Next()
		if err != nil {
			t.Fatalf("stream scan error: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// damage hand-rolls the corruption classes the capture plane produces:
// junk runs, bit flips inside sealed envelopes, truncated records.
func damage(t *testing.T, rng *rand.Rand, n int) []byte {
	t.Helper()
	var stream []byte
	for i := 0; i < n; i++ {
		rec := scanStream(t, 1)
		switch rng.Intn(5) {
		case 0: // junk run before the record
			junk := make([]byte, 1+rng.Intn(40))
			rng.Read(junk)
			stream = append(stream, junk...)
			stream = append(stream, rec...)
		case 1: // flipped bit inside the envelope
			cp := append([]byte(nil), rec...)
			cp[13+rng.Intn(len(cp)-13)] ^= 1 << uint(rng.Intn(8))
			stream = append(stream, cp...)
		case 2: // truncated record
			stream = append(stream, rec[:1+rng.Intn(len(rec)-1)]...)
		default:
			stream = append(stream, rec...)
		}
	}
	return stream
}

// TestStreamScannerChunkingInvariant is the equivalence property: over
// damaged streams delivered in arbitrary chunks, the scanner yields
// exactly the records and stats of a scan over the stream in one piece.
func TestStreamScannerChunkingInvariant(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := damage(t, rng, 30)

		want, wantStats := scanAll(t, stream)

		ss := NewStreamScanner(&chunkReader{data: stream, sizes: randomChunks(rng)}, ScanOptions{Copy: true})
		got := collectStream(t, ss)

		if len(got) != len(want) {
			t.Fatalf("seed %d: records = %d, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].TimestampMs != want[i].TimestampMs || got[i].Dir != want[i].Dir ||
				!bytes.Equal(got[i].Raw, want[i].Raw) {
				t.Fatalf("seed %d: record %d differs", seed, i)
			}
		}
		if ss.Stats() != wantStats {
			t.Fatalf("seed %d: stats %+v, want %+v", seed, ss.Stats(), wantStats)
		}
	}
}

// TestStreamScannerReadError checks that a mid-stream read failure
// surfaces after every decodable record was yielded.
func TestStreamScannerReadError(t *testing.T) {
	data := scanStream(t, 4)
	r := io.MultiReader(bytes.NewReader(data), iotestErr{})
	ss := NewStreamScanner(r, ScanOptions{})
	n := 0
	for {
		_, ok, err := ss.Next()
		if !ok {
			if err == nil {
				t.Fatal("read error swallowed")
			}
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("records before error = %d, want 4", n)
	}
}

type iotestErr struct{}

func (iotestErr) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// TestDiagScannerCopyDetachesRecords is the aliasing regression test for
// scanned diag records: the scanner's internal buffer is reused across
// reads, so without Copy a retained record is overwritten by later reads;
// with Copy the same scan leaves it intact.
func TestDiagScannerCopyDetachesRecords(t *testing.T) {
	data := scanStream(t, 64)
	scan := func(opt ScanOptions) []DiagRecord {
		rng := rand.New(rand.NewSource(1))
		return collectStream(t, NewStreamScanner(&chunkReader{data: data, sizes: randomChunks(rng)}, opt))
	}

	first := data[13 : 13+binary.LittleEndian.Uint32(data[9:])]

	// Without Copy, later reads overwrite retained records (this is the
	// documented hazard).
	if bytes.Equal(scan(ScanOptions{})[0].Raw, first) {
		t.Fatal("aliased record survived buffer reuse; hazard test is vacuous")
	}

	if got := scan(ScanOptions{Copy: true}); !bytes.Equal(got[0].Raw, first) {
		t.Fatal("retained record 0 overwritten by later reads")
	}
}

// TestStreamScannerCopyDetachesRecords: with Copy, every record retained
// from a chunked scan still decodes after the scan completes.
func TestStreamScannerCopyDetachesRecords(t *testing.T) {
	data := scanStream(t, 64)
	rng := rand.New(rand.NewSource(1))
	recs := collectStream(t, NewStreamScanner(&chunkReader{data: data, sizes: randomChunks(rng)}, ScanOptions{Copy: true}))
	if len(recs) != 64 {
		t.Fatalf("records = %d, want 64", len(recs))
	}
	for i, r := range recs {
		if _, err := r.Decode(); err != nil {
			t.Fatalf("retained record %d invalid after scan completed: %v", i, err)
		}
	}
}
