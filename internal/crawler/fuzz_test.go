package crawler

import (
	"bytes"
	"reflect"
	"testing"

	"mmlab/internal/config"
	"mmlab/internal/sib"
)

// FuzzParseDiag runs arbitrary bytes through both parse modes. The
// lenient parser must never fail or panic, can never produce more
// snapshots than CellInfo stamps, and must account every skipped byte.
// The strict parser must succeed exactly when the lenient one saw no
// damage (no skipped byte, no undecodable record), and then return the
// same snapshots and events.
func FuzzParseDiag(f *testing.F) {
	var buf bytes.Buffer
	dw := sib.NewDiagWriter(&buf)
	dw.WriteMsg(5, sib.Downlink, &sib.CellInfo{
		Identity: config.CellIdentity{CellID: 9, PCI: 4, EARFCN: 850, RAT: config.RATLTE},
	})
	for i := uint64(0); i < 4; i++ {
		dw.WriteMsg(10+i*50, sib.Downlink, &sib.SIB4{ForbiddenCells: []uint32{uint32(i)}})
	}
	dw.WriteMsg(300, sib.Downlink, &sib.HandoverCommand{
		TargetCellID: 3, TargetPCI: 1, TargetEARFCN: 850, TargetRAT: config.RATLTE,
	})
	dw.Flush()
	clean := buf.Bytes()
	f.Add(clean)
	f.Add(append([]byte{0x00, 0xC3, 0x11, 0xFF}, clean...))
	f.Add(clean[:len(clean)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snaps, events, stats, err := ParseDiagOpts(bytes.NewReader(data), ParseOptions{})
		if err != nil {
			t.Fatalf("lenient parse errored: %v", err)
		}
		if len(snaps) > stats.Stamps {
			t.Fatalf("%d snapshots from %d CellInfo stamps", len(snaps), stats.Stamps)
		}
		if stats.SkippedBytes > len(data) {
			t.Fatalf("skipped %d of %d bytes", stats.SkippedBytes, len(data))
		}
		if stats.Records < 0 || stats.Bad < 0 {
			t.Fatalf("negative stats: %+v", stats)
		}
		ssnaps, sevents, _, serr := ParseDiagOpts(bytes.NewReader(data), ParseOptions{Strict: true})
		clean := stats.SkippedBytes == 0 && stats.Bad == 0
		if (serr == nil) != clean {
			t.Fatalf("strict err %v, lenient stats %+v", serr, stats)
		}
		if serr == nil && (!reflect.DeepEqual(ssnaps, snaps) || !reflect.DeepEqual(sevents, events)) {
			t.Fatal("strict and lenient parses of a clean stream differ")
		}
	})
}
