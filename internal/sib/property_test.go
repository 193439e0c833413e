package sib

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"mmlab/internal/config"
	"mmlab/internal/units"
)

// halfDB snaps a raw float onto the wire's half-dB grid within a range.
func halfDB(raw float64, lo, hi float64) float64 {
	if math.IsNaN(raw) || math.IsInf(raw, 0) {
		raw = 0
	}
	span := (hi - lo) * 2
	v := lo + math.Mod(math.Abs(raw), span)/2
	return math.Round(v*2) / 2
}

func TestFreqRelationWireRoundTripProperty(t *testing.T) {
	f := func(earfcn uint32, ratRaw, prioRaw uint8, thRaw, tlRaw, qrRaw, qoRaw float64, tresel, bw uint8) bool {
		fr := config.FreqRelation{
			EARFCN:           earfcn % 45000,
			RAT:              config.RAT(ratRaw % 5),
			Priority:         int(prioRaw % 8),
			ThreshHigh:       units.Db(halfDB(thRaw, 0, 62)),
			ThreshLow:        units.Db(halfDB(tlRaw, 0, 62)),
			QRxLevMin:        units.Dbm(halfDB(qrRaw, -140, -44)),
			QOffsetFreq:      units.Db(halfDB(qoRaw, -15, 15)),
			TReselectionSec:  int(tresel % 8),
			MeasBandwidthRBs: int(bw%4) * 25,
		}
		m := &SIBFreq{Kind: SIBForRAT(fr.RAT), Freqs: []config.FreqRelation{fr}}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		sf := got.(*SIBFreq)
		return len(sf.Freqs) == 1 && sf.Freqs[0] == fr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEventConfigWireRoundTripProperty(t *testing.T) {
	ttts := config.TimeToTriggerValues()
	ris := config.ReportIntervalValues()
	f := func(evRaw, qRaw uint8, t1Raw, t2Raw, offRaw, hRaw float64, tttIdx, riIdx, amount, maxCells uint8) bool {
		ev := config.EventConfig{
			Type:             config.EventType(evRaw % 11),
			Quantity:         config.Quantity(qRaw % 2),
			Threshold1:       units.Dbm(halfDB(t1Raw, -140, -44)),
			Threshold2:       units.Dbm(halfDB(t2Raw, -140, -44)),
			Offset:           units.Db(halfDB(offRaw, -15, 15)),
			Hysteresis:       units.Db(halfDB(hRaw, 0, 15)),
			TimeToTriggerMs:  units.Millis(ttts[int(tttIdx)%len(ttts)]),
			ReportIntervalMs: units.Millis(ris[int(riIdx)%len(ris)]),
			ReportAmount:     int(amount % 9),
			MaxReportCells:   int(maxCells%8) + 1,
		}
		mc := config.MeasConfig{
			Objects: map[int]config.MeasObject{1: {EARFCN: 100, RAT: config.RATLTE}},
			Reports: map[int]config.EventConfig{1: ev},
			Links:   []config.MeasLink{{ObjectID: 1, ReportID: 1}},
			FilterK: 4,
		}
		got, err := Unmarshal(Marshal(&RRCReconfig{Meas: mc}))
		if err != nil {
			return false
		}
		return got.(*RRCReconfig).Meas.Reports[1] == ev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMeasurementReportWireRoundTripProperty(t *testing.T) {
	f := func(measID uint8, evRaw uint8, pcis []uint16, rsrpIdx, rsrqIdx uint8) bool {
		m := &MeasurementReport{
			MeasID:    int(measID),
			EventType: config.EventType(evRaw % 11),
			Serving:   MeasResult{PCI: 1, EARFCN: 100, RAT: config.RATLTE, RSRPIdx: int(rsrpIdx % 98), RSRQIdx: int(rsrqIdx % 35)},
		}
		for i, pci := range pcis {
			if i >= 8 {
				break
			}
			m.Neighbors = append(m.Neighbors, MeasResult{
				PCI: pci % 504, EARFCN: 100, RAT: config.RATLTE,
				RSRPIdx: int((rsrpIdx + uint8(i)) % 98), RSRQIdx: int((rsrqIdx + uint8(i)) % 35),
			})
		}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalNeverPanicsOnMutation(t *testing.T) {
	// Single-byte corruptions of a valid message must produce an error or
	// a decoded message — never a panic or an out-of-bounds read. (The
	// CRC catches payload flips; header flips must fail cleanly too.)
	base := Marshal(&SIB3{Serving: sampleServing()})
	for i := 0; i < len(base); i++ {
		for _, bit := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), base...)
			mut[i] ^= bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on mutation at byte %d: %v", i, r)
					}
				}()
				_, _ = Unmarshal(mut)
			}()
		}
	}
}

// TestScanStrictTruncation cuts a two-record capture at every byte: the
// strict scan must accept exactly the cuts on record boundaries and
// deliver every record before the cut.
func TestScanStrictTruncation(t *testing.T) {
	var b bytes.Buffer
	dw := NewDiagWriter(&b)
	dw.WriteMsg(1, Downlink, &SIB3{Serving: sampleServing()})
	dw.WriteMsg(2, Uplink, &MeasurementReport{MeasID: 1})
	dw.Flush()
	buf := b.Bytes()
	first := 13 + len(Marshal(&SIB3{Serving: sampleServing()}))
	for cut := 0; cut <= len(buf); cut++ {
		n := 0
		err := ScanStrict(bytes.NewReader(buf[:cut]), func(DiagRecord) error {
			n++
			return nil
		})
		boundary := cut == 0 || cut == first || cut == len(buf)
		if boundary != (err == nil) {
			t.Fatalf("cut %d: err = %v", cut, err)
		}
		want := 0
		if cut >= first {
			want++
		}
		if cut == len(buf) {
			want++
		}
		if n != want {
			t.Fatalf("cut %d: %d records before the cut, want %d", cut, n, want)
		}
	}
}
