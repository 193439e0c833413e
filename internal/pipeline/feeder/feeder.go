// Package feeder replays captured diag streams into a running mmlabd
// over the ingest protocol, optionally through a seeded fault model:
// mid-record disconnects, corrupted-then-retransmitted records, garbage
// bytes, and stalls. Every fault is lossless by construction — damage is
// always followed by a clean retransmit, and a cut is always followed by
// a reconnect that resends the interrupted record — so a daemon fed
// through any fault schedule must checkpoint byte-identically to a batch
// parse of the same captures. That property is what the soak tests
// assert, and it is why the fault set here is narrower than
// fault.CorruptOpts: drops, dups, and swaps would change the delivered
// record sequence itself.
package feeder

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mmlab/internal/fault"
	"mmlab/internal/pipeline"
	"mmlab/internal/sib"
	"mmlab/internal/sim"
)

// Faults is the seeded per-record fault schedule. Each probability is
// evaluated once per record with a threshold hash of (seed, kind,
// record index), so a schedule is a pure function of the seed — the same
// feeder run twice injects the same faults at the same records.
type Faults struct {
	// Disconnect cuts the connection mid-record: the frame header and a
	// prefix of the record go out, the socket closes, and the feeder
	// reconnects and resends the whole record.
	Disconnect float64
	// Corrupt sends a bit-flipped copy of the record (damaged with
	// fault.Corrupt, so the envelope CRC fails and the scanner must
	// resynchronize past it) followed by the clean record.
	Corrupt float64
	// Garbage injects a short run of junk bytes between records.
	Garbage float64
	// Stall pauses StallMs before the record with the connection silent,
	// then reconnects — long stalls let the daemon's idle timeout cut
	// the connection first, which is the point.
	Stall   float64
	StallMs int
}

// Zero reports whether the schedule injects nothing.
func (f Faults) Zero() bool {
	return f.Disconnect == 0 && f.Corrupt == 0 && f.Garbage == 0 && f.Stall == 0
}

// Options configures one feeder.
type Options struct {
	Network string // "tcp" or "unix"
	Addr    string
	Carrier string
	Stream  string
	Seed    int64
	Faults  Faults
	// Backoff is the initial reconnect backoff, doubling per consecutive
	// failure up to MaxBackoff with seeded ±25% jitter (so a fleet whose
	// daemon just crashed doesn't re-dial in lockstep). Default 10ms / 1s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Retries bounds consecutive failed connection attempts. Default 10.
	Retries int
	// AckTimeout bounds the wait for the resume ack that opens every
	// connection. Default 30s.
	AckTimeout time.Duration
	// WaitDurable, when set, keeps the feeder attached after its end
	// frame until the daemon's durable acks cover every record — i.e.
	// until a periodic checkpoint has made the whole stream crash-proof.
	// If the daemon dies first, the feeder reconnects and replays from
	// the resume ack. Requires a daemon with -checkpoint.every.
	WaitDurable bool
	// DurableTimeout bounds the WaitDurable wait. Default 30s.
	DurableTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Network == "" {
		o.Network = "tcp"
	}
	if o.Backoff <= 0 {
		o.Backoff = 10 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 10
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 30 * time.Second
	}
	if o.DurableTimeout <= 0 {
		o.DurableTimeout = 30 * time.Second
	}
	return o
}

// Stats counts what one feeder run did.
type Stats struct {
	Records     int // records delivered cleanly (replays included)
	Corrupted   int // damaged copies sent (each followed by a retransmit)
	Garbage     int // junk runs injected
	Stalls      int
	Disconnects int // deliberate mid-record cuts
	Reconnects  int // successful re-dials (faults and write errors alike)
	Rewinds     int // reconnects whose resume ack moved the cursor back
}

// Fault kinds for the per-record decision hash.
const (
	kindDisconnect uint64 = 1 + iota
	kindCorrupt
	kindGarbage
	kindStall
	kindCut
	kindJunk
	kindJitter
)

// maxSendChunk bounds one data frame from the feeder; records larger
// than this are split across frames (the payloads concatenate anyway).
const maxSendChunk = 64 << 10

// errRepositioned reports that a reconnect's resume ack moved the record
// cursor (the daemon owns less — or more — than the feeder assumed, e.g.
// after a daemon crash and restore). The delivery loop re-drives from
// the new cursor.
var errRepositioned = errors.New("feeder: repositioned by resume ack")

// Feed replays data — a diag capture as written by `mmlab collect` — as
// one stream into a daemon, applying the fault schedule, and finishes
// with the end-of-stream frame. The input must be a clean capture: it is
// split into records up front so faults land on record boundaries.
//
// Every connection opens with the daemon's resume ack — the number of
// records it durably owns — and the feeder replays from exactly there.
// The capture itself is the replay buffer: nothing sent is forgotten
// until (with WaitDurable) a durable ack covers it, so a daemon that is
// SIGKILLed mid-stream costs a rewind, never a record.
func Feed(ctx context.Context, data []byte, opt Options) (Stats, error) {
	opt = opt.withDefaults()
	f := &feeder{opt: opt, stallPos: -1}
	defer f.close()

	segs, err := splitRecords(data)
	if err != nil {
		return f.stats, fmt.Errorf("feeder: %s/%s: %w", opt.Carrier, opt.Stream, err)
	}
	f.total = len(segs)
	if err := f.connect(ctx); err != nil {
		return f.stats, err
	}
	for {
		if err := f.deliver(ctx, segs); err != nil {
			return f.stats, err
		}
		err := f.finish(ctx)
		if err == errRepositioned {
			continue // daemon restarted behind us: replay the tail
		}
		return f.stats, err
	}
}

// deliver drives the record cursor to the end of the capture, applying
// the fault schedule. A rewind (resume ack behind the cursor) simply
// re-enters the loop at the new position — fault rolls are a pure
// function of (seed, kind, index), so a replayed record sees the same
// faults it saw the first time.
func (f *feeder) deliver(ctx context.Context, segs [][]byte) error {
	opt := f.opt
	for f.next < len(segs) {
		if err := ctx.Err(); err != nil {
			return err
		}
		i := f.next
		seg := segs[i]
		if f.roll(kindStall, i) < opt.Faults.Stall {
			f.stats.Stalls++
			// Go silent with the connection open (the daemon's idle
			// timeout may cut it), then drop it ourselves: after a stall
			// we cannot know whether the far end kept the connection, so
			// the lossless move is to always resume on a fresh one.
			if err := sleep(ctx, time.Duration(opt.Faults.StallMs)*time.Millisecond); err != nil {
				return err
			}
			f.close()
		}
		if f.roll(kindGarbage, i) < opt.Faults.Garbage {
			f.stats.Garbage++
			if err := f.send(ctx, f.junk(i), i); err == errRepositioned {
				continue
			} else if err != nil {
				return err
			}
		}
		if f.roll(kindCorrupt, i) < opt.Faults.Corrupt {
			damaged, derr := damageRecord(seg, sim.DeriveSeed(opt.Seed, i))
			if derr != nil {
				return fmt.Errorf("feeder: damaging record %d: %w", i, derr)
			}
			f.stats.Corrupted++
			if err := f.send(ctx, damaged, i); err == errRepositioned {
				continue
			} else if err != nil {
				return err
			}
		}
		if f.roll(kindDisconnect, i) < opt.Faults.Disconnect {
			f.stats.Disconnects++
			if err := f.cutMidRecord(ctx, seg, i); err != nil {
				return err
			}
			if f.next != i {
				continue
			}
		}
		if err := f.send(ctx, seg, i); err == errRepositioned {
			continue
		} else if err != nil {
			return err
		}
		f.stats.Records++
		f.next = i + 1
	}
	return nil
}

// finish seals the stream: end frame, then (with WaitDurable) a wait for
// the durable ack covering every record. Returns errRepositioned if a
// reconnect finds the daemon owning less than the full stream.
func (f *feeder) finish(ctx context.Context) error {
	deadline := time.Now().Add(f.opt.DurableTimeout)
	for {
		if err := f.ensureConn(ctx); err != nil {
			return err
		}
		if f.next < f.total {
			return errRepositioned
		}
		if err := pipeline.WriteEnd(f.conn); err != nil {
			f.close()
			continue
		}
		if !f.opt.WaitDurable {
			f.close()
			return nil
		}
		dead := f.dead
		for {
			if f.acked.Load() >= uint64(f.total) {
				f.close()
				return nil
			}
			if time.Now().After(deadline) {
				f.close()
				return fmt.Errorf("feeder: %s/%s: durable ack not received within %v (acked %d of %d)",
					f.opt.Carrier, f.opt.Stream, f.opt.DurableTimeout, f.acked.Load(), f.total)
			}
			select {
			case <-dead:
				// Connection died before the durable ack: reconnect; the
				// resume ack decides whether anything must be replayed.
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
				continue
			}
			break
		}
		f.close()
	}
}

type feeder struct {
	opt   Options
	conn  net.Conn
	dead  chan struct{} // closed when the current connection's ack reader exits
	ackWG sync.WaitGroup
	seq   uint64 // hello seq of the next connection
	next  int    // index of the next record to deliver
	total int
	acked atomic.Uint64 // durable high-water mark from daemon checkpoints
	dials int           // jitter counter
	stats Stats

	// Stalled-resume guard: consecutive reconnects whose resume ack sat
	// at the same position. A daemon that keeps accepting but never
	// admits records (e.g. a quarantined stream) would otherwise loop
	// the feeder forever.
	stallPos   int
	stallCount int
}

func (f *feeder) close() {
	if f.conn != nil {
		f.conn.Close()
		f.conn = nil
	}
	f.ackWG.Wait()
	f.dead = nil
}

// connect dials, sends the hello, and reads the resume ack that opens
// every connection, repositioning the record cursor to what the daemon
// reports owning. Dial failures back off exponentially with seeded
// jitter. On success an ack-reader goroutine consumes the connection's
// later (durable) acks.
func (f *feeder) connect(ctx context.Context) error {
	backoff := f.opt.Backoff
	var lastErr error
	for attempt := 0; attempt < f.opt.Retries; attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, f.jitter(backoff)); err != nil {
				return err
			}
			if backoff *= 2; backoff > f.opt.MaxBackoff {
				backoff = f.opt.MaxBackoff
			}
		}
		conn, err := (&net.Dialer{}).DialContext(ctx, f.opt.Network, f.opt.Addr)
		if err != nil {
			lastErr = err
			continue
		}
		if err := pipeline.WriteHello(conn, pipeline.Hello{Carrier: f.opt.Carrier, Stream: f.opt.Stream, Seq: f.seq}); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		br := bufio.NewReader(conn)
		conn.SetReadDeadline(time.Now().Add(f.opt.AckTimeout))
		resume, err := pipeline.ReadAck(br)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		conn.SetReadDeadline(time.Time{})
		f.seq++
		f.conn = conn
		if resume > uint64(f.total) {
			resume = uint64(f.total) // defensive: the daemon cannot own more
		}
		if int(resume) == f.stallPos {
			if f.stallCount++; f.stallCount >= f.opt.Retries {
				conn.Close()
				return fmt.Errorf("feeder: %s/%s: no progress after %d reconnects (daemon stuck at record %d, quarantined stream?)",
					f.opt.Carrier, f.opt.Stream, f.stallCount, resume)
			}
		} else {
			f.stallPos, f.stallCount = int(resume), 0
		}
		if int(resume) < f.next {
			f.stats.Rewinds++
		}
		f.next = int(resume)
		f.startAckReader(conn, br)
		return nil
	}
	return fmt.Errorf("feeder: %s/%s: connecting to %s %s: %w",
		f.opt.Carrier, f.opt.Stream, f.opt.Network, f.opt.Addr, lastErr)
}

// startAckReader consumes the connection's durable acks into f.acked
// (monotonically) until the connection dies.
func (f *feeder) startAckReader(conn net.Conn, br *bufio.Reader) {
	dead := make(chan struct{})
	f.dead = dead
	f.ackWG.Add(1)
	go func() {
		defer f.ackWG.Done()
		defer close(dead)
		for {
			seq, err := pipeline.ReadAck(br)
			if err != nil {
				return
			}
			for {
				cur := f.acked.Load()
				if seq <= cur || f.acked.CompareAndSwap(cur, seq) {
					break
				}
			}
		}
	}()
}

// jitter spreads a backoff over ±25% with the seeded hash, so a fleet
// sharing a crashed daemon staggers its reconnect storm.
func (f *feeder) jitter(d time.Duration) time.Duration {
	f.dials++
	frac := float64(f.hash(kindJitter, f.dials)>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}

func (f *feeder) ensureConn(ctx context.Context) error {
	if f.conn != nil {
		return nil
	}
	if err := f.connect(ctx); err != nil {
		return err
	}
	f.stats.Reconnects++
	return nil
}

// send delivers one blob (a record, a damaged copy, or junk) belonging
// to record index i, splitting it across frames and retrying the whole
// blob on a fresh connection after any write error — a partial blob on a
// dead connection is skipped by the daemon's scanner, so resending it in
// full keeps the delivered record sequence intact. errRepositioned means
// a reconnect moved the cursor away from i and the caller must re-drive.
func (f *feeder) send(ctx context.Context, blob []byte, i int) error {
	for attempt := 0; attempt < f.opt.Retries; attempt++ {
		if err := f.ensureConn(ctx); err != nil {
			return err
		}
		if f.next != i {
			return errRepositioned
		}
		if f.writeBlob(blob) == nil {
			return nil
		}
		f.close()
	}
	return fmt.Errorf("feeder: %s/%s: giving up after %d send attempts",
		f.opt.Carrier, f.opt.Stream, f.opt.Retries)
}

func (f *feeder) writeBlob(blob []byte) error {
	for len(blob) > 0 {
		n := len(blob)
		if n > maxSendChunk {
			n = maxSendChunk
		}
		if err := pipeline.WriteFrame(f.conn, blob[:n]); err != nil {
			return err
		}
		blob = blob[n:]
	}
	return nil
}

// cutMidRecord models the transport dying inside a record: a frame
// header claiming the full record, a prefix of its bytes, then a close.
// The close is graceful, so the daemon receives exactly the prefix —
// an incomplete record its scanner discards — before the reconnect
// resends the record whole.
func (f *feeder) cutMidRecord(ctx context.Context, seg []byte, i int) error {
	if err := f.ensureConn(ctx); err != nil {
		return err
	}
	if f.next != i {
		return nil // repositioned on reconnect; caller re-drives
	}
	n := len(seg)
	if n > maxSendChunk {
		n = maxSendChunk
	}
	cut := 1 + int(f.hash(kindCut, i)%uint64(n-1))
	hdr := pipeline.FrameHeader(n)
	if _, err := f.conn.Write(hdr[:]); err == nil {
		f.conn.Write(seg[:cut])
	}
	f.close()
	return nil
}

// junk builds the deterministic garbage run for record i: 8–40 bytes the
// daemon's scanner must skip. A junk run cannot be mistaken for a record
// — acceptance requires a sane header plus an envelope whose magic,
// version, exact length, and CRC32 all hold.
func (f *feeder) junk(i int) []byte {
	h := f.hash(kindJunk, i)
	b := make([]byte, 8+int(h%33))
	for j := range b {
		h = mix64(h + uint64(j)*0x9E3779B97F4A7C15)
		b[j] = byte(h)
	}
	return b
}

// hash is the per-record decision hash; roll maps it onto [0,1).
func (f *feeder) hash(kind uint64, i int) uint64 {
	return mix64(uint64(f.opt.Seed) + kind*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9)
}

func (f *feeder) roll(kind uint64, i int) float64 {
	return float64(f.hash(kind, i)>>11) / float64(1<<53)
}

// mix64 is the SplitMix64 avalanche finalizer (same construction as the
// seed derivation in internal/sim).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// damageRecord returns a copy of one record segment damaged with
// fault.Corrupt, hardened to be provably unscannable: Corrupt's single
// bit flip can land on the envelope's type byte, which no integrity
// check covers (the CRC seals only the payload), leaving the damaged
// copy a valid record — and a valid damaged copy followed by the clean
// retransmit would be a duplicate, breaking the feeder's losslessness
// contract. So the damage is verified by scanning the damaged copy
// concatenated with the clean record, and the CRC trailer is broken
// further until exactly the clean record survives.
func damageRecord(seg []byte, seed int64) ([]byte, error) {
	damaged, _, err := fault.Corrupt(seg, seed, fault.CorruptOpts{Flip: 1})
	if err != nil {
		return nil, err
	}
	for i := 0; ; i++ {
		blob := append(append([]byte(nil), damaged...), seg...)
		sc := sib.NewStreamScanner(bytes.NewReader(blob), sib.ScanOptions{})
		for {
			// A bytes.Reader has no read error to report.
			if _, ok, _ := sc.Next(); !ok {
				break
			}
		}
		if sc.Stats().Records == 1 {
			return damaged, nil
		}
		if i >= 8 {
			return nil, fmt.Errorf("damaged record still scannable after %d CRC breaks", i)
		}
		damaged[len(damaged)-1-(i%4)] ^= 0xA5
	}
}

// splitRecords cuts a clean capture into per-record wire segments
// (header plus sealed envelope), so faults land on record boundaries.
func splitRecords(data []byte) ([][]byte, error) {
	const headerLen = 13 // tsMs(8) + dir(1) + msgLen(4) — see internal/sib/diag.go
	var segs [][]byte
	for off := 0; off < len(data); {
		rest := data[off:]
		if len(rest) < headerLen {
			return nil, fmt.Errorf("truncated record header at offset %d", off)
		}
		msgLen := int(uint32(rest[9]) | uint32(rest[10])<<8 | uint32(rest[11])<<16 | uint32(rest[12])<<24)
		if headerLen+msgLen > len(rest) {
			return nil, fmt.Errorf("truncated record body at offset %d", off)
		}
		seg := rest[:headerLen+msgLen]
		// The input contract is a clean capture; verify rather than trust.
		if _, err := sib.Unmarshal(seg[headerLen:]); err != nil {
			return nil, fmt.Errorf("record at offset %d: %w", off, err)
		}
		segs = append(segs, seg)
		off += headerLen + msgLen
	}
	return segs, nil
}

// sleep waits d or until the context ends.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FeedFleet runs one feeder per input concurrently against the same
// daemon, deriving each feeder's fault seed from its stream identity (so
// a fleet's schedule is independent of input order). It returns the
// per-input stats aligned with inputs and the first error.
func FeedFleet(ctx context.Context, inputs []pipeline.FeedInput, base Options) ([]Stats, error) {
	stats := make([]Stats, len(inputs))
	errs := make([]error, len(inputs))
	done := make(chan int, len(inputs))
	for i := range inputs {
		//mmvet:allow gorphan joined by the counting receive loop below: every goroutine sends its index on done exactly once
		go func(i int) {
			defer func() { done <- i }()
			opt := base
			opt.Carrier = inputs[i].Carrier
			opt.Stream = inputs[i].Stream
			opt.Seed = sim.DeriveSeedLabel(base.Seed, inputs[i].Carrier+"/"+inputs[i].Stream)
			stats[i], errs[i] = Feed(ctx, inputs[i].Data, opt)
		}(i)
	}
	for range inputs {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}
