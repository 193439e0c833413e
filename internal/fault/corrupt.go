package fault

import (
	"bytes"
	"fmt"

	"mmlab/internal/sib"
)

// CorruptOpts configures the capture-plane corruptor. Each probability is
// evaluated per record; the zero value corrupts nothing.
type CorruptOpts struct {
	// Flip flips one bit inside the record's sealed message, so the frame
	// stays intact but the envelope CRC fails — a damaged record the
	// parser must skip without losing sync.
	Flip float64
	// Drop removes the record entirely (a lossy capture).
	Drop float64
	// Dup writes the record twice (retransmitted or re-read buffers).
	Dup float64
	// Swap exchanges the record with its successor (reordered writes).
	Swap float64
	// Truncate keeps only the first half of the record's bytes — the
	// classic mid-record capture cut that desynchronizes the stream.
	Truncate float64
	// Garbage prepends 8–16 junk bytes to the record (interleaved
	// foreign traffic or allocator scribble in the capture buffer).
	Garbage float64
}

// Zero reports whether the options corrupt nothing.
func (o CorruptOpts) Zero() bool {
	return o.Flip == 0 && o.Drop == 0 && o.Dup == 0 && o.Swap == 0 && o.Truncate == 0 && o.Garbage == 0
}

// CorruptStats counts the damage Corrupt applied.
type CorruptStats struct {
	Records   int // records in the input stream
	Flipped   int
	Dropped   int
	Duped     int
	Swapped   int
	Truncated int
	Garbaged  int
}

// Corruption kinds for the decision hash.
const (
	kindFlip uint64 = 100 + iota
	kindDrop
	kindDup
	kindSwap
	kindTrunc
	kindGarbage
	kindByte
)

// Corrupt applies seeded, per-record damage to a valid diag byte stream
// and returns the corrupted stream. The input must parse cleanly (it is
// the reference capture); the output generally must not. Identical
// (data, seed, opts) yield identical output.
func Corrupt(data []byte, seed int64, o CorruptOpts) ([]byte, CorruptStats, error) {
	var stats CorruptStats
	if o.Zero() {
		return append([]byte(nil), data...), stats, nil
	}
	// Split the stream into per-record byte segments via the canonical
	// framing (DiagWriter re-encodes a DiagRecord byte-exactly).
	var recs [][]byte
	err := sib.ScanStrict(bytes.NewReader(data), func(rec sib.DiagRecord) error {
		var seg bytes.Buffer
		dw := sib.NewDiagWriter(&seg)
		if err := dw.Write(rec); err != nil {
			return err
		}
		if err := dw.Flush(); err != nil {
			return err
		}
		recs = append(recs, seg.Bytes())
		return nil
	})
	if err != nil {
		return nil, stats, fmt.Errorf("fault: corrupting an already-corrupt stream: %w", err)
	}
	stats.Records = len(recs)

	inj := &Injector{seed: seed}
	roll := func(kind uint64, i int) float64 { return inj.roll(kind, uint64(i)) }

	// Record-order ops first: swap adjacent pairs, then drop/dup.
	for i := 0; i+1 < len(recs); i++ {
		if roll(kindSwap, i) < o.Swap {
			recs[i], recs[i+1] = recs[i+1], recs[i]
			stats.Swapped++
			i++ // a record takes part in at most one swap
		}
	}

	var out bytes.Buffer
	for i, rec := range recs {
		if roll(kindDrop, i) < o.Drop {
			stats.Dropped++
			continue
		}
		if roll(kindGarbage, i) < o.Garbage {
			n := 8 + int(mix64(uint64(seed)+kindGarbage+uint64(i))%9)
			for j := 0; j < n; j++ {
				out.WriteByte(byte(mix64(uint64(seed) + kindByte + uint64(i)*131 + uint64(j))))
			}
			stats.Garbaged++
		}
		writes := 1
		if roll(kindDup, i) < o.Dup {
			writes = 2
			stats.Duped++
		}
		for w := 0; w < writes; w++ {
			if roll(kindTrunc, i) < o.Truncate {
				out.Write(rec[:len(rec)/2])
				stats.Truncated++
				continue
			}
			if roll(kindFlip, i) < o.Flip && len(rec) > diagHeaderLen {
				cp := append([]byte(nil), rec...)
				body := cp[diagHeaderLen:]
				bit := mix64(uint64(seed) + kindFlip + uint64(i)*257)
				body[bit%uint64(len(body))] ^= 1 << (bit % 8)
				out.Write(cp)
				stats.Flipped++
				continue
			}
			out.Write(rec)
		}
	}
	return out.Bytes(), stats, nil
}

// diagHeaderLen is the diag frame header size (timestamp, direction,
// length) — see the framing comment in internal/sib/diag.go.
const diagHeaderLen = 13
