// Package crawler reproduces MMLab (paper §3): the device-centric tool
// that crawls runtime handoff configurations out of cellular signaling
// without operator assistance. It parses chipset diag-log byte streams
// into per-cell configuration snapshots and observed handoff events
// (Type-I collection), and simulates the crowdsourced crawl over a
// carrier fleet — including MMLab's proactive cell switching — to build
// dataset D2.
package crawler

import (
	"fmt"
	"io"

	"mmlab/internal/config"
	"mmlab/internal/radio"
	"mmlab/internal/sib"
	"mmlab/internal/units"
)

// ConfigSnapshot is one cell's reassembled broadcast configuration as
// decoded from the wire — the crawler's unit of observation.
type ConfigSnapshot struct {
	Identity config.CellIdentity
	TimeMs   uint64
	Config   config.CellConfig
}

// HandoffEvent is an observed active-state handoff: the decisive
// measurement report and the handover command that followed (paper
// Fig. 3's "measurement report" tail).
type HandoffEvent struct {
	ReportTimeMs uint64
	ExecTimeMs   uint64
	Event        config.EventType
	Serving      config.CellIdentity
	ServingRSRP  units.Dbm // dequantized
	ServingRSRQ  units.Db
	BestNeighbor config.CellIdentity
	NeighborRSRP units.Dbm
	Target       config.CellIdentity
}

// LatencyMs returns the report→execution gap.
func (h HandoffEvent) LatencyMs() uint64 { return h.ExecTimeMs - h.ReportTimeMs }

// ParseOptions configures ParseDiagOpts.
type ParseOptions struct {
	// Strict aborts the parse on the first undecodable record or damaged
	// byte region, the historical fail-fast behavior — useful when the
	// capture is supposed to be pristine and corruption means the pipeline
	// upstream is broken, not the radio link.
	Strict bool
}

// ParseStats describes what a parse consumed, so lossy captures are
// reported rather than silently truncated.
type ParseStats struct {
	Records      int // valid diag records decoded
	Bad          int // framed records whose message failed to decode
	SkippedBytes int // bytes discarded while resynchronizing
	Resyncs      int // contiguous damaged regions skipped
	Stamps       int // CellInfo serving-cell stamps seen
}

// ParseDiag consumes a diag stream and returns the configuration
// snapshots and handoff events it carries. A snapshot opens at each
// CellInfo stamp and closes at the next stamp (or EOF); SIBs and the RRC
// reconfiguration seen in between populate it. Damaged byte regions are
// skipped by resynchronizing to the next valid record boundary — every
// record whose bytes survive is recovered. Use ParseDiagOpts for the
// damage statistics or strict fail-fast parsing.
func ParseDiag(r io.Reader) ([]ConfigSnapshot, []HandoffEvent, error) {
	snaps, events, _, err := ParseDiagOpts(r, ParseOptions{})
	return snaps, events, err
}

// ParseDiagOpts is ParseDiag with explicit options and damage statistics.
// The reader is scanned a bounded window at a time, so a multi-GB capture
// (or a live network feed) never lands in memory whole. Records are
// decoded immediately, so the scanner's zero-copy mode is safe here.
func ParseDiagOpts(r io.Reader, opt ParseOptions) ([]ConfigSnapshot, []HandoffEvent, ParseStats, error) {
	sp := NewStreamParser()
	sc := sib.NewStreamScanner(r, sib.ScanOptions{})
	stats := func() ParseStats {
		st := sp.Stats()
		st.SkippedBytes = sc.Stats().SkippedBytes
		st.Resyncs = sc.Stats().Resyncs
		return st
	}
	for {
		rec, ok, err := sc.Next()
		if opt.Strict && sc.Stats().SkippedBytes > 0 {
			return nil, nil, stats(), fmt.Errorf("crawler: %w: %d unframed bytes after %d records",
				sib.ErrDiagCorrupt, sc.Stats().SkippedBytes, sp.Stats().Records)
		}
		if !ok {
			if err != nil {
				return nil, nil, stats(), fmt.Errorf("crawler: reading diag stream: %w", err)
			}
			break
		}
		sp.Feed(rec)
		if opt.Strict && sp.Stats().Bad > 0 {
			_, err := rec.Decode()
			return nil, nil, stats(), fmt.Errorf("crawler: record at t=%d: %w", rec.TimestampMs, err)
		}
	}
	sp.Close()
	return sp.Snapshots(), sp.Events(), stats(), nil
}

// StreamParser is the incremental form of ParseDiagOpts' lenient path:
// records are fed one at a time (typically straight off a
// sib.StreamScanner), snapshots and handoff events become available as
// they complete, and Close flushes the snapshot still open at end of
// stream. The mmlabd ingest pipeline keeps one StreamParser per live
// stream; feeding the records of a capture in order and Closing yields
// exactly what a batch ParseDiagOpts over the same bytes yields.
type StreamParser struct {
	p         diagParser
	snapTaken int
	evTaken   int
	closed    bool
}

// NewStreamParser returns an empty parser.
func NewStreamParser() *StreamParser { return &StreamParser{} }

// Feed consumes one scanned record. An undecodable message (envelope
// intact but payload broken — a writer-side bug or a checksum collision)
// is counted in Stats().Bad and skipped; the stream stays live.
func (sp *StreamParser) Feed(rec sib.DiagRecord) {
	if sp.closed {
		return
	}
	m, err := rec.Decode()
	if err != nil {
		sp.p.stats.Bad++
		return
	}
	sp.p.stats.Records++
	sp.p.handle(rec, m)
}

// Close flushes the open snapshot, if any. Feeding after Close is a
// caller bug; records fed after Close are ignored.
func (sp *StreamParser) Close() {
	if !sp.closed {
		sp.closed = true
		sp.p.flush()
	}
}

// Stats returns the running parse statistics. The scanner-side fields
// (SkippedBytes, Resyncs) belong to whatever framing layer feeds the
// parser and are zero here.
func (sp *StreamParser) Stats() ParseStats { return sp.p.stats }

// ParserResume is the cross-record state a StreamParser carries between
// records, in a form that survives a JSON round-trip: the snapshot still
// open (a CellInfo stamp seen, its closing stamp not yet), the pending
// measurement report awaiting its handover command, and the cumulative
// statistics. Together with the already-emitted snapshots and events it
// is a complete serialization of the parser — feeding the same records
// to a parser restored from it yields exactly what the original parser
// would have yielded. mmlabd's periodic checkpoints persist it so a
// crashed daemon can resume mid-stream without losing the half-built
// snapshot that spanned the checkpoint.
type ParserResume struct {
	Cur       *ConfigSnapshot        `json:"cur,omitempty"`
	LastRep   *sib.MeasurementReport `json:"lastRep,omitempty"`
	RepTimeMs uint64                 `json:"repTimeMs,omitempty"`
	Stats     ParseStats             `json:"stats"`
}

// Resume snapshots the parser's cross-record state. The copy is deep:
// later Feed calls mutate the open snapshot's slices and maps in place,
// and a resume state must stay exactly what it was at capture time.
func (sp *StreamParser) Resume() ParserResume {
	r := ParserResume{RepTimeMs: sp.p.repTime, Stats: sp.p.stats}
	if sp.p.cur != nil {
		cp := cloneSnapshot(*sp.p.cur)
		r.Cur = &cp
	}
	if sp.p.lastRep != nil {
		rep := *sp.p.lastRep
		rep.Neighbors = append([]sib.MeasResult(nil), rep.Neighbors...)
		r.LastRep = &rep
	}
	return r
}

// NewStreamParserFrom rebuilds a parser from a resume state, deep-copying
// it so the caller's copy stays immutable.
func NewStreamParserFrom(r ParserResume) *StreamParser {
	sp := &StreamParser{}
	sp.p.stats = r.Stats
	sp.p.repTime = r.RepTimeMs
	if r.Cur != nil {
		cp := cloneSnapshot(*r.Cur)
		sp.p.cur = &cp
	}
	if r.LastRep != nil {
		rep := *r.LastRep
		rep.Neighbors = append([]sib.MeasResult(nil), rep.Neighbors...)
		sp.p.lastRep = &rep
	}
	return sp
}

// cloneSnapshot deep-copies a snapshot's reference fields (the slices
// SIB4/SIBFreq append to and the measurement maps RRCReconfig installs).
func cloneSnapshot(s ConfigSnapshot) ConfigSnapshot {
	s.Config.Freqs = append([]config.FreqRelation(nil), s.Config.Freqs...)
	s.Config.ForbiddenCells = append([]uint32(nil), s.Config.ForbiddenCells...)
	s.Config.Meas.Links = append([]config.MeasLink(nil), s.Config.Meas.Links...)
	if s.Config.Meas.Objects != nil {
		objs := make(map[int]config.MeasObject, len(s.Config.Meas.Objects))
		for id, o := range s.Config.Meas.Objects {
			if o.CellOffsets != nil {
				co := make(map[uint16]units.Db, len(o.CellOffsets))
				for pci, off := range o.CellOffsets {
					co[pci] = off
				}
				o.CellOffsets = co
			}
			o.Blacklist = append([]uint16(nil), o.Blacklist...)
			objs[id] = o
		}
		s.Config.Meas.Objects = objs
	}
	if s.Config.Meas.Reports != nil {
		reps := make(map[int]config.EventConfig, len(s.Config.Meas.Reports))
		for id, r := range s.Config.Meas.Reports {
			reps[id] = r
		}
		s.Config.Meas.Reports = reps
	}
	return s
}

// Snapshots returns every completed snapshot so far.
func (sp *StreamParser) Snapshots() []ConfigSnapshot { return sp.p.snaps }

// Events returns every completed handoff event so far.
func (sp *StreamParser) Events() []HandoffEvent { return sp.p.events }

// TakeSnapshots returns the snapshots completed since the last call —
// the pipeline's unit of routing. The returned slice is capped so later
// appends by the parser cannot alias it.
func (sp *StreamParser) TakeSnapshots() []ConfigSnapshot {
	out := sp.p.snaps[sp.snapTaken:len(sp.p.snaps):len(sp.p.snaps)]
	sp.snapTaken = len(sp.p.snaps)
	return out
}

// TakeEvents returns the handoff events completed since the last call.
func (sp *StreamParser) TakeEvents() []HandoffEvent {
	out := sp.p.events[sp.evTaken:len(sp.p.events):len(sp.p.events)]
	sp.evTaken = len(sp.p.events)
	return out
}

// diagParser accumulates parse state across records; the record framing
// is the caller's concern.
type diagParser struct {
	snaps   []ConfigSnapshot
	events  []HandoffEvent
	cur     *ConfigSnapshot
	lastRep *sib.MeasurementReport
	repTime uint64
	stats   ParseStats
}

func (p *diagParser) flush() {
	if p.cur != nil {
		p.snaps = append(p.snaps, *p.cur)
		p.cur = nil
	}
}

func (p *diagParser) handle(rec sib.DiagRecord, m sib.Message) {
	switch msg := m.(type) {
	case *sib.CellInfo:
		p.flush()
		p.stats.Stamps++
		p.cur = &ConfigSnapshot{
			Identity: msg.Identity,
			TimeMs:   rec.TimestampMs,
		}
		p.cur.Config.Identity = msg.Identity
	case *sib.SIB1:
		if p.cur != nil {
			p.cur.Config.Serving.QRxLevMin = msg.QRxLevMin
			p.cur.Config.Serving.QQualMin = msg.QQualMin
		}
	case *sib.SIB3:
		if p.cur != nil {
			// SIB1's Δmin legs arrive separately; keep them.
			qrx, qqual := p.cur.Config.Serving.QRxLevMin, p.cur.Config.Serving.QQualMin
			p.cur.Config.Serving = msg.Serving
			if p.cur.Config.Serving.QRxLevMin == 0 {
				p.cur.Config.Serving.QRxLevMin = qrx
			}
			if p.cur.Config.Serving.QQualMin == 0 {
				p.cur.Config.Serving.QQualMin = qqual
			}
		}
	case *sib.SIB4:
		if p.cur != nil {
			p.cur.Config.ForbiddenCells = append(p.cur.Config.ForbiddenCells, msg.ForbiddenCells...)
		}
	case *sib.SIBFreq:
		if p.cur != nil {
			p.cur.Config.Freqs = append(p.cur.Config.Freqs, msg.Freqs...)
		}
	case *sib.RRCReconfig:
		if p.cur != nil {
			p.cur.Config.Meas = msg.Meas
		}
	case *sib.MeasurementReport:
		cp := *msg
		p.lastRep = &cp
		p.repTime = rec.TimestampMs
	case *sib.HandoverCommand:
		ev := HandoffEvent{
			ExecTimeMs: rec.TimestampMs,
			Target: config.CellIdentity{
				CellID: msg.TargetCellID,
				PCI:    msg.TargetPCI,
				EARFCN: msg.TargetEARFCN,
				RAT:    msg.TargetRAT,
			},
		}
		if p.cur != nil {
			ev.Serving = p.cur.Identity
		}
		if p.lastRep != nil {
			ev.ReportTimeMs = p.repTime
			ev.Event = p.lastRep.EventType
			ev.ServingRSRP = radio.DequantizeRSRP(p.lastRep.Serving.RSRPIdx)
			ev.ServingRSRQ = radio.DequantizeRSRQ(p.lastRep.Serving.RSRQIdx)
			if len(p.lastRep.Neighbors) > 0 {
				n := p.lastRep.Neighbors[0]
				ev.BestNeighbor = config.CellIdentity{PCI: n.PCI, EARFCN: n.EARFCN, RAT: n.RAT}
				ev.NeighborRSRP = radio.DequantizeRSRP(n.RSRPIdx)
			}
			p.lastRep = nil
		}
		p.events = append(p.events, ev)
	}
}
